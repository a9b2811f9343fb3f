#pragma once

#include <functional>
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

/// The ground-truth oracles below work on the raw DataLake cells and share no
/// code with the index, the SQL engine or the seekers. Each ranks by score
/// descending, ties by ascending TableId; k < 0 keeps every scored table.

/// Restricts an oracle to the tables it accepts (the optimizer's TableId
/// [NOT] IN rewrites); an empty filter accepts every table.
using TableFilter = std::function<bool(TableId)>;

/// Exact (brute-force) overlap ground truth used to validate seekers and to
/// label join benchmarks.
class BruteForceOverlap {
 public:
  explicit BruteForceOverlap(const DataLake* lake);

  /// Top-k tables by the largest per-column distinct overlap with `values`
  /// (the SC seeker's semantics; score = overlap of the best column).
  core::TableList TopKByColumnOverlap(const std::vector<std::string>& values,
                                      int k) const;

  /// Top-k tables `keep` accepts by table-wide distinct overlap (the KW
  /// seeker's semantics).
  core::TableList TopKByTableOverlap(const std::vector<std::string>& values, int k,
                                     const TableFilter& keep = nullptr) const;

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

/// The MC seeker's answer: a table `keep` accepts scores the number of its
/// rows that contain some query tuple exactly (RowJoinsTuples: every value,
/// each in a distinct column).
core::TableList BruteForceMc(const DataLake& lake,
                             const std::vector<std::vector<std::string>>& tuples, int k,
                             const TableFilter& keep = nullptr);

/// The correlation seeker's answer. For every table `keep` accepts, every key
/// column and every other numeric column (Column::IsNumeric), over the rows
/// r < h in lake order whose key cell normalizes to a query key and whose
/// numeric cell is non-blank: a row agrees when its key's target is below the
/// target mean and its value below the column mean (Column::NumericMean), or
/// the target at or above the mean and the value at or above the column
/// mean. The pair scores the QCR |2 * agreeing - rows| / rows; a table scores
/// its best pair.
core::TableList BruteForceCorrelation(const DataLake& lake,
                                      const std::vector<std::string>& keys,
                                      const std::vector<double>& targets, int k, int h,
                                      const TableFilter& keep = nullptr);

}  // namespace blend::lakegen
