#include "lakegen/mc_lake.h"

#include "common/str_util.h"
#include "lakegen/vocab.h"

namespace blend::lakegen {

namespace {

/// Pair catalog entry i of a domain: ("dA<dom>_k<i>", "dB<dom>_w<j>") where j
/// is a deterministic shuffle of i, so the pairing is non-trivial.
std::string PairLeft(int domain, size_t i) {
  return "a" + std::to_string(domain) + "_k" + std::to_string(i);
}
std::string PairRight(int domain, size_t i, size_t catalog) {
  // Deterministic permutation pairing: right partner of left i.
  size_t j = (i * 48271 + 7) % catalog;
  return "b" + std::to_string(domain) + "_w" + std::to_string(j);
}

/// Injective containment: places tuple values v.. into distinct unused
/// columns of `cells` holding them, backtracking on a dead end.
bool PlaceTuple(const std::vector<std::string>& cells,
                const std::vector<std::string>& tup, size_t v,
                std::vector<bool>* used) {
  if (v == tup.size()) return true;
  const std::string want = NormalizeCell(tup[v]);
  for (size_t c = 0; c < cells.size(); ++c) {
    if ((*used)[c] || cells[c] != want) continue;
    (*used)[c] = true;
    if (PlaceTuple(cells, tup, v + 1, used)) return true;
    (*used)[c] = false;
  }
  return false;
}

}  // namespace

McLake MakeMcLake(const McLakeSpec& spec) {
  McLake out;
  out.lake = DataLake(spec.name);
  Rng rng(spec.seed);

  for (size_t ti = 0; ti < spec.num_tables; ++ti) {
    int domain = static_cast<int>(rng.Uniform(spec.num_pair_domains));
    size_t rows = spec.rows_min + rng.Uniform(spec.rows_max - spec.rows_min + 1);

    Table t(spec.name + "_t" + std::to_string(ti));
    t.AddColumn("left", domain * 2);
    t.AddColumn("right", domain * 2 + 1);
    t.AddColumn("payload", -1);

    std::vector<std::string> row(3);
    for (size_t r = 0; r < rows; ++r) {
      double dice = rng.UniformDouble();
      size_t i = rng.Uniform(spec.pairs_per_domain);
      if (dice < spec.aligned_frac) {
        // Exact catalog pair.
        row[0] = PairLeft(domain, i);
        row[1] = PairRight(domain, i, spec.pairs_per_domain);
      } else if (dice < spec.aligned_frac + spec.cross_frac) {
        // Cross pairing: both sides valid tokens, wrong partners.
        size_t j = (i + 1 + rng.Uniform(spec.pairs_per_domain - 1)) %
                   spec.pairs_per_domain;
        row[0] = PairLeft(domain, i);
        row[1] = PairRight(domain, j, spec.pairs_per_domain);
      } else if (rng.UniformDouble() < 0.5) {
        // Single: only the left side matches the catalog.
        row[0] = PairLeft(domain, i);
        row[1] = "x" + std::to_string(rng.Uniform(100000));
      } else {
        row[0] = "y" + std::to_string(rng.Uniform(100000));
        row[1] = PairRight(domain, i, spec.pairs_per_domain);
      }
      row[2] = std::to_string(rng.Uniform(1000));
      MustAppendRow(t, row);
    }
    out.lake.AddTable(std::move(t));
    out.table_domain.push_back(domain);
  }
  return out;
}

std::vector<std::vector<std::string>> MakeMcQuery(const McLakeSpec& spec, int domain,
                                                  size_t num_tuples, Rng* rng) {
  std::vector<std::vector<std::string>> tuples;
  auto idx = rng->SampleIndices(spec.pairs_per_domain, num_tuples);
  tuples.reserve(idx.size());
  for (size_t i : idx) {
    tuples.push_back({PairLeft(domain, i),
                      PairRight(domain, i, spec.pairs_per_domain)});
  }
  return tuples;
}

bool RowJoinsTuples(const Table& table, size_t row,
                    const std::vector<std::vector<std::string>>& tuples) {
  std::vector<std::string> cells;
  cells.reserve(table.NumColumns());
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    cells.push_back(NormalizeCell(table.At(row, c)));
  }
  for (const auto& tup : tuples) {
    std::vector<bool> used(cells.size(), false);
    if (!tup.empty() && PlaceTuple(cells, tup, 0, &used)) return true;
  }
  return false;
}

}  // namespace blend::lakegen
