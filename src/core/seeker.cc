#include "core/seeker.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/control.h"
#include "common/str_util.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "common/xash.h"

namespace blend::core {

namespace {

/// Per-modality execution counters, indexed by Seeker::Type. The series name
/// is derived from the modality (Seeker::name() lowercased), so dashboards
/// can break the discovery workload down by operator kind.
struct SeekerMetrics {
  Counter* executions[4];

  static const SeekerMetrics& Get() {
    static const SeekerMetrics m = [] {
      auto& reg = MetricsRegistry::Global();
      SeekerMetrics out;
      out.executions[static_cast<int>(Seeker::Type::kKW)] =
          reg.GetCounter("blend_seeker_kw_executions_total");
      out.executions[static_cast<int>(Seeker::Type::kSC)] =
          reg.GetCounter("blend_seeker_sc_executions_total");
      out.executions[static_cast<int>(Seeker::Type::kC)] =
          reg.GetCounter("blend_seeker_c_executions_total");
      out.executions[static_cast<int>(Seeker::Type::kMC)] =
          reg.GetCounter("blend_seeker_mc_executions_total");
      return out;
    }();
    return m;
  }
};

void CountExecution(Seeker::Type t) {
  SeekerMetrics::Get().executions[static_cast<int>(t)]->Increment();
}

/// Normalizes and de-duplicates raw input values (the inverted index stores
/// normalized cells, so Q must be normalized the same way).
std::vector<std::string> NormalizeDistinct(const std::vector<std::string>& raw) {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  out.reserve(raw.size());
  for (const auto& v : raw) {
    std::string n = NormalizeCell(v);
    if (n.empty()) continue;
    if (seen.insert(n).second) out.push_back(std::move(n));
  }
  return out;
}

/// Runs a seeker's top-k-tables query as ONE exhaustive statement. The SQL
/// groups at sub-table granularity (table+column), so k result rows are not
/// k tables; instead of the retired client-side widened-LIMIT retry loop,
/// the engine's dedup-top-k tail (sql::QueryOptions::dedup_column) keeps the
/// first-ranked row per distinct TableId and stops once k distinct tables
/// are emitted. The scan runs exactly once and the result arrives already
/// deduplicated, one row per table in score order.
Result<TableList> RunTopKTables(const DiscoveryContext& ctx,
                                const std::string& sql, int k,
                                size_t table_col, size_t score_col) {
  sql::QueryOptions opts = ctx.query_options;
  opts.dedup_column = static_cast<int>(table_col);
  opts.dedup_limit = k < 0 ? -1 : k;
  BLEND_ASSIGN_OR_RETURN(auto res, ctx.engine->Query(sql, opts));
  TableList out;
  out.reserve(res.NumRows());
  for (size_t r = 0; r < res.NumRows(); ++r) {
    out.push_back({static_cast<TableId>(res.Int(r, table_col)),
                   res.Double(r, score_col)});
  }
  return out;
}

std::string LimitClause(int64_t fetch) {
  return fetch < 0 ? "" : (" LIMIT " + std::to_string(fetch));
}

std::string RewriteClause(const std::string& rewrite) {
  return rewrite.empty() ? "" : (" " + rewrite);
}

/// `<col> IN (<values>)`, or a never-true literal when `values` is empty: the
/// parser rejects `IN ()`, so generated SQL must never contain one.
std::string InPredOrFalse(const std::string& col,
                          const std::vector<std::string>& values) {
  if (values.empty()) return "0";
  return col + " IN (" + SqlInList(values) + ")";
}

}  // namespace

// ---------------------------------------------------------------------------
// SC seeker
// ---------------------------------------------------------------------------

SCSeeker::SCSeeker(std::vector<std::string> values, int k)
    : Seeker(k), values_(NormalizeDistinct(values)) {}

std::string SCSeeker::GenerateSql(const std::string& rewrite, int fetch_limit) const {
  return "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
         "FROM AllTables WHERE CellValue IN (" +
         SqlInList(values_) + ")" + RewriteClause(rewrite) +
         " GROUP BY TableId, ColumnId ORDER BY score DESC" + LimitClause(fetch_limit) +
         ";";
}

Result<TableList> SCSeeker::Execute(const DiscoveryContext& ctx,
                                    const std::string& rewrite) const {
  CountExecution(Type::kSC);
  TraceSpan span(ctx.query_options.trace, TraceStage::kSeeker);
  // All input values normalized to empty: no overlap is possible, and the
  // generated `CellValue IN ()` would not even parse.
  if (values_.empty()) return TableList{};
  return RunTopKTables(ctx, GenerateSql(rewrite, /*fetch_limit=*/-1), k_,
                       /*table_col=*/0, /*score_col=*/2);
}

SeekerFeatures SCSeeker::ComputeFeatures(const IndexStats& stats) const {
  return {static_cast<double>(values_.size()), 1.0, stats.AvgFrequency(values_)};
}

// ---------------------------------------------------------------------------
// KW seeker
// ---------------------------------------------------------------------------

KWSeeker::KWSeeker(std::vector<std::string> keywords, int k)
    : Seeker(k), keywords_(NormalizeDistinct(keywords)) {}

std::string KWSeeker::GenerateSql(const std::string& rewrite, int fetch_limit) const {
  return "SELECT TableId, COUNT(DISTINCT CellValue) AS score "
         "FROM AllTables WHERE CellValue IN (" +
         SqlInList(keywords_) + ")" + RewriteClause(rewrite) +
         " GROUP BY TableId ORDER BY score DESC" + LimitClause(fetch_limit) + ";";
}

Result<TableList> KWSeeker::Execute(const DiscoveryContext& ctx,
                                    const std::string& rewrite) const {
  CountExecution(Type::kKW);
  TraceSpan span(ctx.query_options.trace, TraceStage::kSeeker);
  if (keywords_.empty()) return TableList{};
  BLEND_ASSIGN_OR_RETURN(
      auto res, ctx.engine->Query(GenerateSql(rewrite, k_), ctx.query_options));
  TableList out;
  out.reserve(res.NumRows());
  for (size_t r = 0; r < res.NumRows(); ++r) {
    out.push_back({static_cast<TableId>(res.Int(r, 0)), res.Double(r, 1)});
  }
  return out;
}

SeekerFeatures KWSeeker::ComputeFeatures(const IndexStats& stats) const {
  return {static_cast<double>(keywords_.size()), 1.0, stats.AvgFrequency(keywords_)};
}

// ---------------------------------------------------------------------------
// MC seeker
// ---------------------------------------------------------------------------

MCSeeker::MCSeeker(std::vector<std::vector<std::string>> tuples, int k) : Seeker(k) {
  // Normalize tuples; drop tuples with empty cells (they cannot be aligned).
  for (auto& t : tuples) {
    std::vector<std::string> n;
    n.reserve(t.size());
    bool ok = true;
    for (auto& v : t) {
      std::string nv = NormalizeCell(v);
      if (nv.empty()) {
        ok = false;
        break;
      }
      n.push_back(std::move(nv));
    }
    if (ok && !n.empty()) tuples_.push_back(std::move(n));
  }
  num_columns_ = tuples_.empty() ? 0 : tuples_[0].size();
  col_values_.resize(num_columns_);
  std::vector<std::unordered_set<std::string>> seen(num_columns_);
  for (const auto& t : tuples_) {
    for (size_t c = 0; c < num_columns_ && c < t.size(); ++c) {
      if (seen[c].insert(t[c]).second) col_values_[c].push_back(t[c]);
    }
  }
}

std::string MCSeeker::GenerateSql(const std::string& rewrite, int fetch_limit) const {
  (void)fetch_limit;  // phase 1 must see every candidate row
  std::string sql =
      "SELECT T0.TableId AS TableId, T0.RowId AS RowId, T0.SuperKey AS SuperKey "
      "FROM (SELECT TableId, RowId, SuperKey FROM AllTables WHERE CellValue IN (" +
      SqlInList(col_values_.empty() ? std::vector<std::string>{} : col_values_[0]) +
      ")" + RewriteClause(rewrite) + ") AS T0";
  for (size_t c = 1; c < num_columns_; ++c) {
    std::string alias = "T" + std::to_string(c);
    sql += " INNER JOIN (SELECT TableId, RowId FROM AllTables WHERE CellValue IN (" +
           SqlInList(col_values_[c]) + ")) AS " + alias + " ON T0.TableId = " + alias +
           ".TableId AND T0.RowId = " + alias + ".RowId";
  }
  sql += ";";
  return sql;
}

namespace {

/// Exact-match validation (MATE's application-level phase): does the row
/// contain every value of the tuple, each in a distinct column? A row holds
/// one record per non-blank column, so distinct cells are distinct columns.
bool AlignTuple(const std::vector<CellId>& row_cells, const std::vector<CellId>& tuple,
                size_t vi, std::vector<bool>* used) {
  if (vi == tuple.size()) return true;
  for (size_t c = 0; c < row_cells.size(); ++c) {
    if ((*used)[c] || row_cells[c] != tuple[vi]) continue;
    (*used)[c] = true;
    if (AlignTuple(row_cells, tuple, vi + 1, used)) return true;
    (*used)[c] = false;
  }
  return false;
}

/// Appends the cells of row `row` of table `t` to `cells`, read from the
/// row's record group in the store.
template <typename Store>
void AppendRowCells(const Store& store, TableId t, int32_t row,
                    std::vector<CellId>* cells) {
  const auto [lo, hi] = JoinKeyGroup(store, t, row);
  for (RecordPos p = lo; p < hi; ++p) cells->push_back(store.cell(p));
}

}  // namespace

Result<TableList> MCSeeker::Execute(const DiscoveryContext& ctx,
                                    const std::string& rewrite) const {
  MCExecutionStats stats;
  return Execute(ctx, rewrite, &stats);
}

Result<TableList> MCSeeker::Execute(const DiscoveryContext& ctx,
                                    const std::string& rewrite,
                                    MCExecutionStats* stats_out) const {
  CountExecution(Type::kMC);
  TraceSpan seeker_span(ctx.query_options.trace, TraceStage::kSeeker);
  *stats_out = MCExecutionStats{};
  MCExecutionStats& stats = *stats_out;
  // Every tuple was dropped during normalization (empty cells): nothing can
  // align, and the generated `CellValue IN ()` would not even parse.
  if (tuples_.empty()) return TableList{};
  if (num_columns_ < 2) {
    return Status::InvalidArgument("MC seeker requires at least two key columns");
  }
  if (num_columns_ > static_cast<size_t>(sql::kMaxRels)) {
    return Status::InvalidArgument("MC seeker supports at most " +
                                   std::to_string(sql::kMaxRels) + " key columns");
  }

  // Phase 1: SQL join over AllTables fetches candidate rows where every query
  // column contributes a value to the same row.
  BLEND_ASSIGN_OR_RETURN(
      auto res, ctx.engine->Query(GenerateSql(rewrite, -1), ctx.query_options));

  // De-duplicate (table, row) pairs; the join multiplies matches.
  std::unordered_map<uint64_t, uint64_t> candidates;  // (table,row) -> superkey
  for (size_t r = 0; r < res.NumRows(); ++r) {
    uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(res.Int(r, 0))) << 32) |
                   static_cast<uint32_t>(res.Int(r, 1));
    candidates.emplace(key, static_cast<uint64_t>(res.Int(r, 2)));
  }
  stats.candidate_rows = candidates.size();
  // The candidate map is this seeker's dominant materialization beyond the
  // phase-1 query itself (already budgeted inside the executor).
  ScopedMemoryCharge mem(ctx.query_options.control);
  BLEND_RETURN_NOT_OK(mem.ChargeTo(static_cast<int64_t>(
      candidates.size() * sizeof(std::pair<const uint64_t, uint64_t>))));

  // Query tuple super keys for the Bloom-filter stage, and the tuples as
  // dictionary ids for exact validation. A value the index never interned
  // cannot align, so its tuple is skipped at the exact stage (left empty
  // here); the Bloom stage still sees every tuple.
  const Dictionary& dict = ctx.bundle->dictionary();
  std::vector<uint64_t> tuple_hashes;
  std::vector<std::vector<CellId>> tuple_cells(tuples_.size());
  tuple_hashes.reserve(tuples_.size());
  for (size_t i = 0; i < tuples_.size(); ++i) {
    std::vector<std::string_view> views(tuples_[i].begin(), tuples_[i].end());
    tuple_hashes.push_back(Xash::SuperKey(views));
    for (const std::string& v : tuples_[i]) {
      const CellId id = dict.Find(v);
      if (id == kInvalidCellId) {
        tuple_cells[i].clear();
        break;
      }
      tuple_cells[i].push_back(id);
    }
  }

  std::unordered_map<TableId, double> table_scores;
  std::vector<CellId> row_cells;
  size_t visited = 0;
  // Validation funnel (candidates -> bloom pass -> validated) runs serially
  // on this thread; one stage covers it, the funnel counters land below.
  StopWatch validation_watch;
  // Accumulates commutative per-table sums; visit order cannot change them.
  // blend-lint: allow(unordered-iter)
  for (const auto& [key, super_key] : candidates) {
    // Validation reads every candidate row's records and can dominate MC
    // runtime on dirty candidates; check the control at a coarse stride.
    if ((++visited & 1023) == 0) {
      BLEND_RETURN_NOT_OK(CheckControl(ctx.query_options.control, "mc validation"));
    }
    TableId t = static_cast<TableId>(key >> 32);
    int32_t row = static_cast<int32_t>(key & 0xFFFFFFFFu);

    // Phase 2: XASH super-key filter prunes rows without loading them.
    std::vector<size_t> surviving;
    for (size_t i = 0; i < tuples_.size(); ++i) {
      if (Xash::MayContain(super_key, tuple_hashes[i])) surviving.push_back(i);
    }
    if (surviving.empty()) continue;
    ++stats.bloom_pass_rows;

    // Phase 3: exact validation against the row's cells in AllTables.
    row_cells.clear();
    if (ctx.bundle->layout() == StoreLayout::kRow) {
      AppendRowCells(ctx.bundle->row_store(), t, row, &row_cells);
    } else {
      AppendRowCells(ctx.bundle->column_store(), t, row, &row_cells);
    }
    bool validated = false;
    for (size_t i : surviving) {
      if (tuple_cells[i].empty()) continue;
      std::vector<bool> used(row_cells.size(), false);
      if (AlignTuple(row_cells, tuple_cells[i], 0, &used)) {
        validated = true;
        break;
      }
    }
    if (validated) {
      ++stats.true_positives;
      table_scores[t] += 1.0;
    } else {
      ++stats.false_positives;
    }
  }
  if (QueryTrace* trace = ctx.query_options.trace; trace != nullptr) {
    trace->AddStage(TraceStage::kMcValidation,
                    static_cast<int64_t>(validation_watch.ElapsedSeconds() * 1e9),
                    1);
    trace->AddRows(TraceStage::kMcValidation,
                   static_cast<int64_t>(stats.candidate_rows));
    trace->AddCounter(TraceCounter::kMcCandidateRows,
                      static_cast<int64_t>(stats.candidate_rows));
    trace->AddCounter(TraceCounter::kMcBloomPassRows,
                      static_cast<int64_t>(stats.bloom_pass_rows));
    trace->AddCounter(TraceCounter::kMcValidatedRows,
                      static_cast<int64_t>(stats.true_positives));
  }

  TableList out;
  out.reserve(table_scores.size());
  // Order-independent harvest; SortDesc below canonicalizes the result.
  // blend-lint: allow(unordered-iter)
  for (const auto& [t, s] : table_scores) out.push_back({t, s});
  SortDesc(&out);
  TruncateK(&out, k_);
  return out;
}

SeekerFeatures MCSeeker::ComputeFeatures(const IndexStats& stats) const {
  double card = 0;
  double freq_product = 1;
  for (const auto& col : col_values_) {
    card += static_cast<double>(col.size());
    freq_product *= std::max(1.0, stats.AvgFrequency(col));
  }
  return {card, static_cast<double>(num_columns_), freq_product};
}

// ---------------------------------------------------------------------------
// Correlation seeker
// ---------------------------------------------------------------------------

CorrelationSeeker::CorrelationSeeker(std::vector<std::string> join_keys,
                                     std::vector<double> targets, int k, int h)
    : Seeker(k), h_(h) {
  // Split keys by the side of the target mean (the paper's $k_0$ / $k_1$
  // lists, computed "while parsing the input table").
  double mean = 0;
  size_t n = std::min(join_keys.size(), targets.size());
  for (size_t i = 0; i < n; ++i) mean += targets[i];
  if (n > 0) mean /= static_cast<double>(n);

  std::unordered_set<std::string> below, above, all;
  for (size_t i = 0; i < n; ++i) {
    std::string key = NormalizeCell(join_keys[i]);
    if (key.empty()) continue;
    if (targets[i] < mean) {
      if (below.insert(key).second) keys_below_.push_back(key);
    } else {
      if (above.insert(key).second) keys_above_.push_back(key);
    }
    if (all.insert(key).second) all_keys_.push_back(std::move(key));
  }
}

std::string CorrelationSeeker::GenerateSql(const std::string& rewrite,
                                           int fetch_limit) const {
  std::string h = std::to_string(h_);
  // One of k0/k1 may be empty (every target on one side of the mean); emit a
  // never-true literal for that side rather than an unparseable `IN ()`.
  return "SELECT keys.TableId AS TableId, keys.ColumnId AS KeyCol, "
         "nums.ColumnId AS NumCol, "
         "ABS((2 * SUM((" +
         InPredOrFalse("keys.CellValue", keys_below_) +
         " AND nums.Quadrant = 0) OR (" +
         InPredOrFalse("keys.CellValue", keys_above_) +
         " AND nums.Quadrant = 1)) - COUNT(*)) / COUNT(*)) AS score "
         "FROM (SELECT TableId, RowId, ColumnId, CellValue FROM AllTables "
         "WHERE RowId < " +
         h + " AND CellValue IN (" + SqlInList(all_keys_) + ")" +
         RewriteClause(rewrite) +
         ") AS keys INNER JOIN (SELECT TableId, RowId, ColumnId, Quadrant "
         // The numeric cells are looked up per key row by (TableId, RowId),
         // never scanned, so the rewrite only needs to prune the keys side.
         "FROM AllTables WHERE RowId < " +
         h + " AND Quadrant IS NOT NULL) AS nums "
         "ON keys.TableId = nums.TableId AND keys.RowId = nums.RowId "
         "AND keys.ColumnId <> nums.ColumnId "
         "GROUP BY keys.TableId, keys.ColumnId, nums.ColumnId "
         "ORDER BY score DESC" +
         LimitClause(fetch_limit) + ";";
}

Result<TableList> CorrelationSeeker::Execute(const DiscoveryContext& ctx,
                                             const std::string& rewrite) const {
  CountExecution(Type::kC);
  TraceSpan span(ctx.query_options.trace, TraceStage::kSeeker);
  // Every join key normalized to empty: the keys-side scan would be
  // `CellValue IN ()`, which the parser rejects; no join is possible.
  if (all_keys_.empty()) return TableList{};
  return RunTopKTables(ctx, GenerateSql(rewrite, /*fetch_limit=*/-1), k_,
                       /*table_col=*/0, /*score_col=*/3);
}

SeekerFeatures CorrelationSeeker::ComputeFeatures(const IndexStats& stats) const {
  return {static_cast<double>(all_keys_.size()), 2.0, stats.AvgFrequency(all_keys_)};
}

// ---------------------------------------------------------------------------
// Random seekers
// ---------------------------------------------------------------------------

std::shared_ptr<Seeker> SampleSeeker(const DataLake& lake, Seeker::Type type, int k,
                                     Rng* rng) {
  for (int attempt = 0; attempt < 300; ++attempt) {
    if (lake.NumTables() == 0) return nullptr;
    const Table& t = lake.table(static_cast<TableId>(rng->Uniform(lake.NumTables())));
    if (t.NumRows() < 4 || t.NumColumns() == 0) continue;

    auto sample_column_values = [&](size_t col, size_t want) {
      std::vector<std::string> vals;
      auto idx = rng->SampleIndices(t.NumRows(), want);
      for (size_t r : idx) {
        const std::string& c = t.At(r, col);
        if (!NormalizeCell(c).empty()) vals.push_back(c);
      }
      return vals;
    };

    switch (type) {
      case Seeker::Type::kSC: {
        size_t col = rng->Uniform(t.NumColumns());
        auto vals = sample_column_values(col, 5 + rng->Uniform(36));
        if (vals.size() < 3) continue;
        return std::make_shared<SCSeeker>(std::move(vals), k);
      }
      case Seeker::Type::kKW: {
        size_t col = rng->Uniform(t.NumColumns());
        auto vals = sample_column_values(col, 1 + rng->Uniform(5));
        if (vals.empty()) continue;
        return std::make_shared<KWSeeker>(std::move(vals), k);
      }
      case Seeker::Type::kMC: {
        if (t.NumColumns() < 2) continue;
        size_t c0 = rng->Uniform(t.NumColumns());
        size_t c1 = rng->Uniform(t.NumColumns());
        if (c0 == c1) continue;
        std::vector<std::vector<std::string>> tuples;
        // MC queries are whole tables in the MATE benchmark: draw dozens of
        // rows, which is what gives MC its place at the top of the cost rules.
        auto idx = rng->SampleIndices(t.NumRows(), 20 + rng->Uniform(80));
        for (size_t r : idx) {
          std::vector<std::string> tup = {t.At(r, c0), t.At(r, c1)};
          if (!NormalizeCell(tup[0]).empty() && !NormalizeCell(tup[1]).empty()) {
            tuples.push_back(std::move(tup));
          }
        }
        if (tuples.size() < 2) continue;
        return std::make_shared<MCSeeker>(std::move(tuples), k);
      }
      case Seeker::Type::kC: {
        if (t.NumColumns() < 2) continue;
        int num_col = -1;
        for (size_t c = 0; c < t.NumColumns(); ++c) {
          if (t.column(c).IsNumeric()) {
            num_col = static_cast<int>(c);
            break;
          }
        }
        if (num_col < 0) continue;
        size_t key_col = rng->Uniform(t.NumColumns());
        if (static_cast<int>(key_col) == num_col) continue;
        std::vector<std::string> keys;
        std::vector<double> targets;
        size_t want = std::min<size_t>(t.NumRows(), 20 + rng->Uniform(60));
        for (size_t r = 0; r < want; ++r) {
          auto v = ParseNumeric(t.At(r, static_cast<size_t>(num_col)));
          if (!v.has_value() || NormalizeCell(t.At(r, key_col)).empty()) continue;
          keys.push_back(t.At(r, key_col));
          targets.push_back(*v);
        }
        if (keys.size() < 5) continue;
        return std::make_shared<CorrelationSeeker>(std::move(keys), std::move(targets),
                                                   k);
      }
    }
  }
  return nullptr;
}

}  // namespace blend::core
