#pragma once

#include <vector>

#include "common/rng.h"
#include "storage/data_lake.h"

namespace blend::lakegen {

/// Parameters of a multi-column-join lake (stands in for DWTC / German Open
/// Data in Table V). Tables contain composite keys (pair columns). Three row
/// populations exist:
///   - aligned rows: exact (a, b) pairs from the domain's pair catalog
///     (true positives for MC join),
///   - cross rows: a and b both from the catalogs but paired arbitrarily
///     (pass any-column candidate fetch; fail exact validation),
///   - single rows: only one side matches (MATE candidate fodder).
struct McLakeSpec {
  std::string name = "mc-lake";
  size_t num_tables = 300;
  size_t rows_min = 40;
  size_t rows_max = 120;
  size_t num_pair_domains = 10;
  /// Size of each domain's pair catalog.
  size_t pairs_per_domain = 600;
  double aligned_frac = 0.35;
  double cross_frac = 0.35;  // remainder are single rows
  uint64_t seed = 4;
};

struct McLake {
  DataLake lake;
  std::vector<int> table_domain;
};

McLake MakeMcLake(const McLakeSpec& spec);

/// A composite-key query: row-major tuples from one domain's pair catalog.
std::vector<std::vector<std::string>> MakeMcQuery(const McLakeSpec& spec, int domain,
                                                  size_t num_tuples, Rng* rng);

/// Ground truth for one candidate row: true when the row contains a query
/// tuple exactly (every value of the tuple, each in a distinct column).
bool RowJoinsTuples(const Table& table, size_t row,
                    const std::vector<std::vector<std::string>>& tuples);

}  // namespace blend::lakegen
