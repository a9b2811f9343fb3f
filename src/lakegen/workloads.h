#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/result.h"
#include "storage/data_lake.h"

namespace blend::lakegen {

/// The paper's Fig. 1 example: a user table S with missing department heads
/// and a lake {T1: team sizes, T2: 2022 leads (outdated), T3: 2024 leads}.
struct Fig1 {
  DataLake lake;
  Table s;  // the user's query table (not part of the lake)
  TableId t1 = -1, t2 = -1, t3 = -1;
};

Fig1 MakeFig1Lake();

/// Exact (brute-force) overlap ground truth used to validate seekers and to
/// label join benchmarks.
class BruteForceOverlap {
 public:
  explicit BruteForceOverlap(const DataLake* lake);

  /// Top-k tables by the largest per-column distinct overlap with `values`
  /// (the SC seeker's semantics; score = overlap of the best column).
  core::TableList TopKByColumnOverlap(const std::vector<std::string>& values,
                                      int k) const;

  /// Top-k tables by table-wide distinct overlap (the KW seeker's semantics).
  core::TableList TopKByTableOverlap(const std::vector<std::string>& values,
                                     int k) const;

 private:
  const DataLake* lake_;
  /// normalized token -> (table, column) pairs containing it.
  std::unordered_map<std::string, std::vector<std::pair<TableId, int32_t>>> postings_;
};

/// Distinct values of a random column of the lake, up to `size` of them;
/// empty when no column qualifies (including an empty lake).
std::vector<std::string> SampleColumnQuery(const DataLake& lake, size_t size,
                                           Rng* rng);

/// Exact correlation ground truth: top-k tables by |Pearson| between the
/// query target and any numeric column, joining on the table's column 0.
core::TableList ExactCorrelationTopK(const DataLake& lake,
                                     const std::vector<std::string>& keys,
                                     const std::vector<double>& targets, int k,
                                     size_t min_overlap = 5);

}  // namespace blend::lakegen
