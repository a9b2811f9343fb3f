#include "lakegen/workloads.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/str_util.h"
#include "lakegen/mc_lake.h"
#include "lakegen/vocab.h"

namespace blend::lakegen {

Fig1 MakeFig1Lake() {
  Fig1 out;
  out.lake = DataLake("fig1");

  out.s = Table("S");
  out.s.AddColumn("Dep");
  out.s.AddColumn("Head");
  MustAppendRow(out.s, {"HR", "Firenze"});
  MustAppendRow(out.s, {"Marketing", ""});
  MustAppendRow(out.s, {"Finance", ""});
  MustAppendRow(out.s, {"IT", ""});
  MustAppendRow(out.s, {"R&D", ""});
  MustAppendRow(out.s, {"Sales", ""});

  Table t1("T1");
  t1.AddColumn("Team");
  t1.AddColumn("Size");
  MustAppendRow(t1, {"Finance", "31"});
  MustAppendRow(t1, {"Marketing", "28"});
  MustAppendRow(t1, {"HR", "33"});
  MustAppendRow(t1, {"IT", "92"});
  MustAppendRow(t1, {"Sales", "80"});
  out.t1 = out.lake.AddTable(std::move(t1));

  Table t2("T2");
  t2.AddColumn("Lead");
  t2.AddColumn("Year");
  t2.AddColumn("Team");
  MustAppendRow(t2, {"Tom Riddle", "2022", "IT"});
  MustAppendRow(t2, {"Draco Malfoy", "2022", "Marketing"});
  MustAppendRow(t2, {"Harry Potter", "2022", "Finance"});
  MustAppendRow(t2, {"Cho Chang", "2022", "R&D"});
  MustAppendRow(t2, {"Luna Lovegood", "2022", "Sales"});
  MustAppendRow(t2, {"Firenze", "2022", "HR"});
  out.t2 = out.lake.AddTable(std::move(t2));

  Table t3("T3");
  t3.AddColumn("Lead");
  t3.AddColumn("Year");
  t3.AddColumn("Team");
  MustAppendRow(t3, {"Ronald Weasley", "2024", "IT"});
  MustAppendRow(t3, {"Draco Malfoy", "2024", "Marketing"});
  MustAppendRow(t3, {"Harry Potter", "2024", "Finance"});
  MustAppendRow(t3, {"Cho Chang", "2024", "R&D"});
  MustAppendRow(t3, {"Luna Lovegood", "2024", "Sales"});
  MustAppendRow(t3, {"Firenze", "2024", "HR"});
  out.t3 = out.lake.AddTable(std::move(t3));

  return out;
}

BruteForceOverlap::BruteForceOverlap(const DataLake* lake) : lake_(lake) {
  for (TableId t = 0; t < static_cast<TableId>(lake->NumTables()); ++t) {
    const Table& table = lake->table(t);
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      std::unordered_set<std::string> seen;
      for (const auto& cell : table.column(c).cells) {
        std::string n = NormalizeCell(cell);
        if (n.empty() || !seen.insert(n).second) continue;
        postings_[n].emplace_back(t, static_cast<int32_t>(c));
      }
    }
  }
}

core::TableList BruteForceOverlap::TopKByColumnOverlap(
    const std::vector<std::string>& values, int k) const {
  std::unordered_map<uint64_t, size_t> column_hits;  // (table, col) -> count
  std::unordered_set<std::string> distinct;
  for (const auto& v : values) {
    std::string n = NormalizeCell(v);
    if (n.empty() || !distinct.insert(n).second) continue;
    auto it = postings_.find(n);
    if (it == postings_.end()) continue;
    for (const auto& [t, c] : it->second) {
      ++column_hits[(static_cast<uint64_t>(static_cast<uint32_t>(t)) << 32) |
                    static_cast<uint32_t>(c)];
    }
  }
  std::unordered_map<TableId, size_t> best;
  for (const auto& [key, count] : column_hits) {
    TableId t = static_cast<TableId>(key >> 32);
    auto& b = best[t];
    if (count > b) b = count;
  }
  core::TableList out;
  out.reserve(best.size());
  for (const auto& [t, s] : best) out.push_back({t, static_cast<double>(s)});
  core::SortDesc(&out);
  core::TruncateK(&out, k);
  return out;
}

core::TableList BruteForceOverlap::TopKByTableOverlap(
    const std::vector<std::string>& values, int k, const TableFilter& keep) const {
  std::unordered_map<TableId, size_t> hits;
  std::unordered_set<std::string> distinct;
  for (const auto& v : values) {
    std::string n = NormalizeCell(v);
    if (n.empty() || !distinct.insert(n).second) continue;
    auto it = postings_.find(n);
    if (it == postings_.end()) continue;
    std::unordered_set<TableId> tables;
    for (const auto& [t, c] : it->second) {
      if (!keep || keep(t)) tables.insert(t);
    }
    for (TableId t : tables) ++hits[t];
  }
  core::TableList out;
  out.reserve(hits.size());
  for (const auto& [t, s] : hits) out.push_back({t, static_cast<double>(s)});
  core::SortDesc(&out);
  core::TruncateK(&out, k);
  return out;
}

std::vector<std::string> SampleColumnQuery(const DataLake& lake, size_t size,
                                           Rng* rng) {
  if (lake.NumTables() == 0) return {};
  for (int attempt = 0; attempt < 200; ++attempt) {
    const Table& t = lake.table(static_cast<TableId>(rng->Uniform(lake.NumTables())));
    if (t.NumColumns() == 0 || t.NumRows() == 0) continue;
    const Column& col = t.column(rng->Uniform(t.NumColumns()));
    std::vector<std::string> distinct;
    std::unordered_set<std::string> seen;
    for (const auto& cell : col.cells) {
      std::string n = NormalizeCell(cell);
      if (!n.empty() && seen.insert(n).second) distinct.push_back(cell);
    }
    if (distinct.size() < 3) continue;
    rng->Shuffle(&distinct);
    if (distinct.size() > size) distinct.resize(size);
    return distinct;
  }
  return {};
}

core::TableList ExactCorrelationTopK(const DataLake& lake,
                                     const std::vector<std::string>& keys,
                                     const std::vector<double>& targets, int k,
                                     size_t min_overlap) {
  std::unordered_map<std::string, double> target_of;
  for (size_t i = 0; i < keys.size() && i < targets.size(); ++i) {
    target_of.emplace(NormalizeCell(keys[i]), targets[i]);
  }

  core::TableList out;
  for (TableId ti = 0; ti < static_cast<TableId>(lake.NumTables()); ++ti) {
    const Table& t = lake.table(ti);
    if (t.NumColumns() < 2 || t.NumRows() == 0) continue;

    // Join on column 0; collect (target, value) pairs per numeric column.
    double best = 0;
    for (size_t c = 1; c < t.NumColumns(); ++c) {
      if (!t.column(c).IsNumeric()) continue;
      double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
      size_t n = 0;
      for (size_t r = 0; r < t.NumRows(); ++r) {
        auto it = target_of.find(NormalizeCell(t.At(r, 0)));
        if (it == target_of.end()) continue;
        auto v = ParseNumeric(t.At(r, c));
        if (!v.has_value()) continue;
        double x = it->second, y = *v;
        sx += x;
        sy += y;
        sxx += x * x;
        syy += y * y;
        sxy += x * y;
        ++n;
      }
      if (n < min_overlap) continue;
      double dn = static_cast<double>(n);
      double cov = sxy - sx * sy / dn;
      double vx = sxx - sx * sx / dn;
      double vy = syy - sy * sy / dn;
      if (vx <= 1e-12 || vy <= 1e-12) continue;
      double r = std::fabs(cov / std::sqrt(vx * vy));
      if (r > best) best = r;
    }
    if (best > 0) out.push_back({ti, best});
  }
  core::SortDesc(&out);
  core::TruncateK(&out, k);
  return out;
}

core::TableList BruteForceMc(const DataLake& lake,
                             const std::vector<std::vector<std::string>>& tuples, int k,
                             const TableFilter& keep) {
  core::TableList out;
  for (TableId t = 0; t < static_cast<TableId>(lake.NumTables()); ++t) {
    if (keep && !keep(t)) continue;
    const Table& table = lake.table(t);
    double rows = 0;
    for (size_t r = 0; r < table.NumRows(); ++r) {
      if (RowJoinsTuples(table, r, tuples)) rows += 1;
    }
    if (rows > 0) out.push_back({t, rows});
  }
  core::SortDesc(&out);
  core::TruncateK(&out, k);
  return out;
}

core::TableList BruteForceCorrelation(const DataLake& lake,
                                      const std::vector<std::string>& keys,
                                      const std::vector<double>& targets, int k, int h,
                                      const TableFilter& keep) {
  const size_t n = std::min(keys.size(), targets.size());
  double mean = 0;
  for (size_t i = 0; i < n; ++i) mean += targets[i];
  if (n > 0) mean /= static_cast<double>(n);
  // Which sides of the target mean each normalized key falls on: bit 1
  // below, bit 2 at or above (a key listed twice may fall on both).
  std::unordered_map<std::string, int> side_of;
  for (size_t i = 0; i < n; ++i) {
    const std::string key = NormalizeCell(keys[i]);
    if (!key.empty()) side_of[key] |= targets[i] < mean ? 1 : 2;
  }
  core::TableList out;
  for (TableId t = 0; t < static_cast<TableId>(lake.NumTables()); ++t) {
    if (keep && !keep(t)) continue;
    const Table& table = lake.table(t);
    const size_t rows = std::min(table.NumRows(), static_cast<size_t>(h));
    // Per column and sampled row: the sides of the cell's key, 0 when it is
    // no query key. A table no sampled row joins scores nothing.
    std::vector<std::vector<int>> sides(table.NumColumns(), std::vector<int>(rows));
    bool joins = false;
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      for (size_t r = 0; r < rows; ++r) {
        const auto it = side_of.find(NormalizeCell(table.At(r, c)));
        sides[c][r] = it == side_of.end() ? 0 : it->second;
        joins = joins || sides[c][r] != 0;
      }
    }
    if (!joins) continue;
    bool found = false;
    double best = 0;
    for (size_t nc = 0; nc < table.NumColumns(); ++nc) {
      const Column& num = table.column(nc);
      if (!num.IsNumeric()) continue;
      const double col_mean = num.NumericMean().value_or(0);
      for (size_t kc = 0; kc < table.NumColumns(); ++kc) {
        if (kc == nc) continue;
        int64_t count = 0, agree = 0;
        for (size_t r = 0; r < rows; ++r) {
          const int side = sides[kc][r];
          if (side == 0) continue;
          const auto value = ParseNumeric(table.At(r, nc));
          if (!value.has_value()) continue;  // blank numeric cell
          const bool high = *value >= col_mean;
          ++count;
          if (((side & 1) && !high) || ((side & 2) && high)) ++agree;
        }
        if (count == 0) continue;
        const double score = std::abs(static_cast<double>(2 * agree - count) /
                                      static_cast<double>(count));
        if (!found || score > best) best = score;
        found = true;
      }
    }
    if (found) out.push_back({t, best});
  }
  core::SortDesc(&out);
  core::TruncateK(&out, k);
  return out;
}

}  // namespace blend::lakegen
