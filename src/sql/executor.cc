#include "sql/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/scheduler.h"
#include "common/str_util.h"
#include "index/codec.h"
#include "sql/planner.h"

namespace blend::sql {

namespace {

// ---------------------------------------------------------------------------
// Morsel geometry. Constants, not functions of the pool size: the work
// decomposition (and therefore every merge order, including floating-point
// summation order) depends only on input sizes, which is what makes results
// byte-identical for every QueryOptions::scheduler setting.
// ---------------------------------------------------------------------------

/// Records per scan/probe morsel.
constexpr size_t kScanMorselRecords = 8192;
/// Rows per aggregation/projection chunk.
constexpr size_t kAggChunkRows = 16384;
/// Key partitions of the parallel aggregation merge.
constexpr size_t kMergePartitions = 16;

// ---------------------------------------------------------------------------
// Helpers shared by the pipeline stages.
// ---------------------------------------------------------------------------

/// Runs fn(t) for every t in [0, num_tasks) as a task group on the query's
/// scheduler; a null scheduler is the serial configuration and runs inline.
/// Each ParallelFor-era call site keeps its determinism contract unchanged:
/// tasks write only task-indexed slots, merges happen in fixed order.
///
/// This is also the cooperative control point of the scheduler's task loops:
/// the query's QueryControl is checked at every morsel boundary (task entry)
/// and once more after the group completes. Tasks skipped after a trip leave
/// their slots empty, which is safe precisely because the post-group Check
/// fails and the whole query returns a Status — partial buffers are never
/// merged into a result, so a query that completes is byte-identical to an
/// unconstrained run (the control never alters morsel geometry or merge
/// order).
/// Tracing rides the same boundaries: a TraceSpan brackets each task (so
/// stage wall time and the codec's hot-path tallies land on the stage that
/// caused them, and the task's time on the plan node `stats` when actuals are
/// recorded) and a QueueWaitProbe records the dispatch latency of the
/// group's first task. Both are inert for a null trace and null `stats` — no
/// clock reads — and neither touches morsel geometry, task order, or merge
/// order.
template <typename Fn>
[[nodiscard]] Status RunTasks(const QueryOptions& options, TraceStage stage,
                              OperatorStats* stats, size_t num_tasks, const Fn& fn) {
  const char* label = TraceStageName(stage);
  const QueryControl* control = options.control;
  BLEND_RETURN_NOT_OK(CheckControl(control, label));
  QueueWaitProbe queue_wait(options.trace);
  auto task = [&](size_t t) {
    if (ShouldStop(control)) return;
    queue_wait.NoteTaskStart();
    TraceSpan span(options.trace, stage, stats);
    fn(t);
  };
  if (options.scheduler == nullptr) {
    for (size_t t = 0; t < num_tasks; ++t) task(t);
  } else {
    options.scheduler->ParallelFor(num_tasks, task);
  }
  return CheckControl(control, label);
}

/// Tasks of `n` inputs cut into chunks of `chunk` inputs.
constexpr size_t NumChunks(size_t n, size_t chunk) { return (n + chunk - 1) / chunk; }

/// Records the `rows` an operator emitted on its trace stage and, when
/// actuals are recorded, on its plan node.
void NoteRows(QueryTrace* trace, TraceStage stage, OperatorStats* stats, size_t rows) {
  if (trace != nullptr) trace->AddRows(stage, static_cast<int64_t>(rows));
  if (stats != nullptr) stats->rows = static_cast<int64_t>(rows);
}

/// Interval (in serial-loop iterations) between control checks inside loops
/// that cannot be morselized (exact-bucket-order hash-table builds).
constexpr size_t kSerialCheckInterval = 64 * 1024;

Binder::RelColumns AllFields(const std::string& alias) {
  Binder::RelColumns rc;
  rc.alias = ToLower(alias);
  for (int i = 0; i < kNumFields; ++i) {
    Field f = static_cast<Field>(i);
    rc.cols.emplace(ToLower(FieldName(f)), f);
  }
  return rc;
}

/// Three-way SqlValue comparison; NULL sorts first, NaN sorts last. Ordering
/// NaN deterministically (plain `<` answers false both ways) keeps Cmp a
/// strict weak ordering, which std::sort/std::partial_sort require.
int Cmp(const SqlValue& a, const SqlValue& b) {
  if (a.is_null() || b.is_null()) {
    if (a.is_null() && b.is_null()) return 0;
    return a.is_null() ? -1 : 1;
  }
  if (a.kind == SqlValue::Kind::kInt && b.kind == SqlValue::Kind::kInt) {
    return a.i < b.i ? -1 : (a.i > b.i ? 1 : 0);
  }
  double x = a.AsDouble(), y = b.AsDouble();
  const bool nx = std::isnan(x), ny = std::isnan(y);
  if (nx || ny) {
    if (nx && ny) return 0;
    return nx ? 1 : -1;
  }
  return x < y ? -1 : (x > y ? 1 : 0);
}

/// The values a COUNT(DISTINCT) has seen.
struct DistinctValues {
  std::unordered_set<int64_t> ints;
  std::unordered_set<uint64_t> doubles;
};

/// One aggregate's running state in one group. Kept small: a group table
/// touches one state per row, and the distinct sets are allocated only for
/// a COUNT(DISTINCT) that sees a value.
struct AggState {
  int64_t count = 0;
  /// COUNT(DISTINCT CellValue) counted per posting list (`count`): the first
  /// and the last list counted.
  CellId first_list = kInvalidCellId;
  CellId last_list = kInvalidCellId;
  double dsum = 0;
  int64_t isum = 0;
  bool int_only = true;
  SqlValue minv = SqlValue::Null();
  SqlValue maxv = SqlValue::Null();
  std::unique_ptr<DistinctValues> seen;
};

void UpdateAgg(const AggSpec& spec, AggState* st, const SqlValue& v) {
  switch (spec.kind) {
    case AggSpec::Kind::kCountStar:
      ++st->count;
      return;
    case AggSpec::Kind::kCount:
      if (v.is_null()) return;
      if (spec.distinct) {
        if (st->seen == nullptr) st->seen = std::make_unique<DistinctValues>();
        if (v.kind == SqlValue::Kind::kInt) {
          st->seen->ints.insert(v.i);
        } else {
          // Canonicalize -0.0 to 0.0 before hashing the bit pattern: `==`
          // treats the two as equal, so DISTINCT must count them once.
          double dv = v.d == 0.0 ? 0.0 : v.d;
          uint64_t bits;
          std::memcpy(&bits, &dv, sizeof(bits));
          st->seen->doubles.insert(bits);
        }
      } else {
        ++st->count;
      }
      return;
    case AggSpec::Kind::kSum:
    case AggSpec::Kind::kAvg:
      if (v.is_null()) return;
      ++st->count;
      if (v.kind == SqlValue::Kind::kInt && st->int_only) {
        st->isum += v.i;
      } else {
        st->int_only = false;
      }
      st->dsum += v.AsDouble();
      return;
    case AggSpec::Kind::kMin:
      if (v.is_null()) return;
      if (st->minv.is_null() || Cmp(v, st->minv) < 0) st->minv = v;
      return;
    case AggSpec::Kind::kMax:
      if (v.is_null()) return;
      if (st->maxv.is_null() || Cmp(v, st->maxv) > 0) st->maxv = v;
      return;
  }
}

/// COUNT(DISTINCT CellValue) over the CellValue index: a posting list holds
/// one cell, so the distinct count is the number of lists that reach the
/// group, read from the list being walked instead of the store. Lists arrive
/// in ascending CellId, so a list already counted is the last one counted.
void CountPostingList(AggState* st, CellId cell) {
  if (cell == st->last_list) return;
  if (st->count == 0) st->first_list = cell;
  ++st->count;
  st->last_list = cell;
}

/// Folds `from` (a later chunk's state for the same group) into `into`.
/// Kind-agnostic: every field merges associatively, and callers fold chunks
/// in ascending chunk order so double sums reproduce the same rounding for
/// every thread count. Strict `<`/`>` on MIN/MAX keeps the earlier chunk's
/// value on Cmp-ties, matching the serial first-seen rule. A posting list cut
/// across chunks reaches a group from both sides of the cut; it counts once.
void MergeAggState(AggState* into, AggState* from) {
  if (from->first_list != kInvalidCellId && from->first_list == into->last_list) {
    --into->count;
  }
  if (from->last_list != kInvalidCellId) into->last_list = from->last_list;
  into->count += from->count;
  into->isum += from->isum;
  into->dsum += from->dsum;
  into->int_only = into->int_only && from->int_only;
  if (into->seen == nullptr) {
    into->seen = std::move(from->seen);
  } else if (from->seen != nullptr) {
    into->seen->ints.insert(from->seen->ints.begin(), from->seen->ints.end());
    into->seen->doubles.insert(from->seen->doubles.begin(), from->seen->doubles.end());
  }
  if (!from->minv.is_null() &&
      (into->minv.is_null() || Cmp(from->minv, into->minv) < 0)) {
    into->minv = from->minv;
  }
  if (!from->maxv.is_null() &&
      (into->maxv.is_null() || Cmp(from->maxv, into->maxv) > 0)) {
    into->maxv = from->maxv;
  }
}

SqlValue FinalizeAgg(const AggSpec& spec, const AggState& st) {
  switch (spec.kind) {
    case AggSpec::Kind::kCountStar:
      return SqlValue::Int(st.count);
    case AggSpec::Kind::kCount:
      if (spec.distinct) {
        // `count` is the posting-list count; `seen` holds every other value.
        if (st.seen == nullptr) return SqlValue::Int(st.count);
        return SqlValue::Int(st.count + static_cast<int64_t>(st.seen->ints.size()) +
                             static_cast<int64_t>(st.seen->doubles.size()));
      }
      return SqlValue::Int(st.count);
    case AggSpec::Kind::kSum:
      if (st.count == 0) return SqlValue::Null();
      return st.int_only ? SqlValue::Int(st.isum) : SqlValue::Double(st.dsum);
    case AggSpec::Kind::kAvg:
      if (st.count == 0) return SqlValue::Null();
      return SqlValue::Double(st.dsum / static_cast<double>(st.count));
    case AggSpec::Kind::kMin:
      return st.minv;
    case AggSpec::Kind::kMax:
      return st.maxv;
  }
  return SqlValue::Null();
}

std::string ItemName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == ExprKind::kColumnRef) return item.expr->column;
  if (item.expr->kind == ExprKind::kFuncCall) return item.expr->func;
  return "expr";
}

// ---------------------------------------------------------------------------
// Scan: one relation -> physical record positions, morsel-parallel.
// ---------------------------------------------------------------------------

/// Ordinals [begin, end) of one posting/position list. `cell` is the CellId
/// whose posting list this is, or kInvalidCellId for the Quadrant position
/// list.
struct ListSlice {
  PostingListRef list;
  CellId cell = kInvalidCellId;
  size_t begin = 0;
  size_t end = 0;
};

/// One unit of scan work: list slices in scan order (several whole short
/// lists packed together, or one slice of a long list), or, when `lists` is
/// empty, the contiguous physical positions [begin, end). Lists are carried
/// as PostingListRef and consumed through PostingCursor, so a morsel neither
/// knows nor cares whether the list is raw or block-compressed.
struct ScanMorsel {
  std::vector<ListSlice> lists;
  size_t begin = 0;
  size_t end = 0;
  size_t records = 0;  ///< positions the morsel covers
};

/// Morsel geometry note: kScanMorselRecords is a multiple of
/// kPostingBlockLen, so a long list's slices start on container boundaries
/// and each morsel decodes only its own blocks.
static_assert(kScanMorselRecords % kPostingBlockLen == 0);

/// Appends `list` to the scan. A list of at most kScanMorselRecords records
/// joins the last morsel while that morsel holds lists and stays within
/// kScanMorselRecords, so a run of short lists is one task; a longer list is
/// cut into slices of kScanMorselRecords records.
void AppendListMorsels(PostingListRef list, CellId cell,
                       std::vector<ScanMorsel>* morsels) {
  const size_t n = list.size();
  if (n <= kScanMorselRecords && !morsels->empty() &&
      !morsels->back().lists.empty() &&
      morsels->back().records + n <= kScanMorselRecords) {
    morsels->back().lists.push_back({list, cell, 0, n});
    morsels->back().records += n;
    return;
  }
  for (size_t b = 0; b < n; b += kScanMorselRecords) {
    const size_t e = std::min(n, b + kScanMorselRecords);
    morsels->push_back({{{list, cell, b, e}}, 0, 0, e - b});
  }
}

void AppendRangeMorsels(size_t begin, size_t end,
                        std::vector<ScanMorsel>* morsels) {
  for (size_t b = begin; b < end; b += kScanMorselRecords) {
    const size_t e = std::min(end, b + kScanMorselRecords);
    morsels->push_back({{}, b, e, e - b});
  }
}

/// Resolves the IN-list of a CellValue access path to sorted distinct cell
/// ids. Ascending id order is the canonical scan order: it fixes the output
/// position sequence independently of IN-list order and of hash-set iteration
/// quirks.
std::vector<CellId> ResolveCellIds(const Expr& cell_in, const Dictionary& dict) {
  std::vector<CellId> ids;
  ids.reserve(cell_in.in_strings.size());
  for (const auto& s : cell_in.in_strings) {
    CellId id = dict.Find(NormalizeCell(s));
    if (id != kInvalidCellId) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// Sorted distinct ids of a TableId IN-list that name a table of the store:
/// the clustered-index access path walks their ranges in this order.
template <typename Store>
std::vector<TableId> ResolveTableIds(const Expr& table_in, const Store& store) {
  std::vector<TableId> ids;
  for (int64_t id : table_in.in_ints) {
    if (id < 0 || static_cast<size_t>(id) >= store.NumTables()) continue;
    ids.push_back(static_cast<TableId>(id));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// The per-record filters of a classified scan: a TableId IN-list that is
/// not the access path (it sits next to a CellValue IN-list), the RowId
/// bound, Quadrant IS NOT NULL and the residual conjuncts, bound once.
/// Evaluation is read-only and thread-safe.
struct RecordFilter {
  bool active = false;  ///< any filter below is set
  bool filter_tables = false;
  std::unordered_set<int64_t> table_set;
  int64_t row_lt = -1;
  bool need_quadrant = false;
  std::vector<BoundExprPtr> preds;

  template <typename Store>
  bool operator()(const Store& store, RecordPos p) const {
    if (!active) return true;
    if (filter_tables && table_set.count(store.table(p)) == 0) return false;
    if (row_lt >= 0 && store.row(p) >= row_lt) return false;
    if (need_quadrant && store.quadrant(p) == kQuadrantNull) return false;
    for (const auto& pred : preds) {
      SqlValue v = EvalExpr(*pred, [&](const BoundExpr& b) {
        return FieldValue(store, b.field, p);
      });
      if (!v.IsTruthy()) return false;
    }
    return true;
  }
};

/// A relation's scan, bound: its classified predicate, per-record filters,
/// and its access path cut into morsels in scan order — the CellValue index
/// (lists in ascending cell id), the clustered TableId index (ranges in
/// ascending table id), the Quadrant partial index, or a full scan. ScanRel
/// materializes it; the scan-fed aggregate and lookup joins walk it in place.
struct RelScan {
  ScanSpec spec;
  RecordFilter filter;
  std::vector<ScanMorsel> morsels;
  std::vector<TableId> tables;  ///< the clustered index's tables, ascending
  size_t cells = 0;             ///< the CellValue index's resolved cells
};

template <typename Store>
Result<RelScan> BindRelScan(const AnalyzedRel& rel, const Store& store,
                            const Dictionary& dict) {
  RelScan scan;
  scan.spec = ClassifyScan(rel.scan_pred);
  const ScanSpec& spec = scan.spec;
  RecordFilter& filter = scan.filter;
  filter.filter_tables = spec.cell_in != nullptr && spec.table_in != nullptr;
  if (filter.filter_tables) {
    filter.table_set.insert(spec.table_in->in_ints.begin(),
                            spec.table_in->in_ints.end());
  }
  filter.row_lt = spec.row_lt;
  filter.need_quadrant = spec.need_quadrant;
  Binder binder(&dict, {AllFields("")});
  for (const Expr* c : spec.residual) {
    BLEND_ASSIGN_OR_RETURN(auto b, binder.BindRowExpr(*c));
    filter.preds.push_back(std::move(b));
  }
  filter.active = filter.filter_tables || filter.row_lt >= 0 ||
                  filter.need_quadrant || !filter.preds.empty();

  if (spec.cell_in != nullptr) {
    // Access path 1: the in-database hash index on CellValue.
    const std::vector<CellId> cells = ResolveCellIds(*spec.cell_in, dict);
    scan.cells = cells.size();
    for (CellId id : cells) AppendListMorsels(store.PostingList(id), id, &scan.morsels);
  } else if (spec.table_in != nullptr) {
    // Access path 2: the clustered index on TableId.
    scan.tables = ResolveTableIds(*spec.table_in, store);
    for (TableId id : scan.tables) {
      auto [b, e] = store.TableRange(id);
      AppendRangeMorsels(b, e, &scan.morsels);
    }
  } else if (spec.need_quadrant) {
    // Access path 3: the partial index on Quadrant (correlation seeker's
    // numeric-cell scan).
    AppendListMorsels(PostingListRef::Raw(store.QuadrantPositions()),
                      kInvalidCellId, &scan.morsels);
  } else {
    // Access path 4: full scan.
    AppendRangeMorsels(0, store.NumRecords(), &scan.morsels);
  }
  return scan;
}

/// Calls fn(p, cell) on the positions of `mo` in scan order until fn returns
/// false, where `cell` is the ListSlice::cell of p's list (kInvalidCellId
/// off the lists); returns false when fn stopped the walk.
template <typename Fn>
bool WalkMorsel(const ScanMorsel& mo, const Fn& fn) {
  for (size_t i = mo.begin; i < mo.end; ++i) {
    if (!fn(static_cast<RecordPos>(i), kInvalidCellId)) return false;
  }
  for (const ListSlice& s : mo.lists) {
    // Batch-decode the slice's own containers into the cursor's reusable
    // scratch; raw lists come back as one zero-copy batch.
    PostingCursor cur(s.list);
    cur.SeekToOrdinal(s.begin);
    for (auto batch = cur.NextBatch(); !batch.empty(); batch = cur.NextBatch()) {
      const size_t ord = cur.batch_ordinal();
      if (ord >= s.end) break;
      const size_t lo = s.begin > ord ? s.begin - ord : 0;
      const size_t hi = std::min(batch.size(), s.end - ord);
      for (size_t i = lo; i < hi; ++i) {
        if (!fn(batch[i], s.cell)) return false;
      }
    }
  }
  return true;
}

/// Materializes a bound scan's passing positions. Each morsel filters into
/// its own buffer and the buffers concatenate in morsel order, so the output
/// position sequence is identical to a serial scan no matter which worker ran
/// which morsel. Packed short lists keep a small scan to one morsel, which
/// runs inline.
template <typename Store>
Result<std::vector<RecordPos>> ScanRel(const RelScan& scan, const Store& store,
                                       const QueryOptions& options,
                                       OperatorStats* stats) {
  std::vector<std::vector<RecordPos>> parts(scan.morsels.size());
  BLEND_RETURN_NOT_OK(RunTasks(options, TraceStage::kScan, stats, scan.morsels.size(),
                               [&](size_t m) {
    std::vector<RecordPos>& out = parts[m];
    WalkMorsel(scan.morsels[m], [&](RecordPos p, CellId) {
      if (scan.filter(store, p)) out.push_back(p);
      return true;
    });
  }));

  std::vector<RecordPos> out = ConcatParts(std::move(parts));
  NoteRows(options.trace, TraceStage::kScan, stats, out.size());
  return out;
}

// ---------------------------------------------------------------------------
// Join.
// ---------------------------------------------------------------------------

/// Keys of one join step: fields on the already-joined prefix (qualified by
/// side) matched against fields of the newly joined relation.
struct StepKeys {
  std::vector<std::pair<uint8_t, Field>> left;  // (side < step, field)
  std::vector<Field> right;                     // field on relation `step`
  std::vector<BoundExprPtr> residual;           // non-equi ON conditions
};

Result<StepKeys> ExtractStepKeys(const Expr* join_on, const Binder& binder,
                                 uint8_t step_side) {
  StepKeys keys;
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(join_on, &conjuncts);
  for (const Expr* c : conjuncts) {
    BLEND_ASSIGN_OR_RETURN(auto b, binder.BindRowExpr(*c));
    if (b->kind == BKind::kBinary && b->op == BinOp::kEq &&
        b->lhs->kind == BKind::kField && b->rhs->kind == BKind::kField &&
        (b->lhs->side == step_side) != (b->rhs->side == step_side)) {
      const BoundExpr& l = b->lhs->side == step_side ? *b->rhs : *b->lhs;
      const BoundExpr& r = b->lhs->side == step_side ? *b->lhs : *b->rhs;
      keys.left.emplace_back(l.side, l.field);
      keys.right.push_back(r.field);
      continue;
    }
    keys.residual.push_back(std::move(b));
  }
  if (keys.left.empty()) {
    return Status::PlanError("join requires at least one equality key");
  }
  return keys;
}

/// True when every equality key of the step holds between prefix row `ctx`
/// and record `p` of the new relation (NULL never matches).
template <typename Store>
bool StepKeysEqual(const Store& store, const StepKeys& keys, const RowCtx& ctx,
                   RecordPos p) {
  for (size_t i = 0; i < keys.left.size(); ++i) {
    SqlValue a = FieldValue(store, keys.left[i].second, ctx.pos[keys.left[i].first]);
    SqlValue b = FieldValue(store, keys.right[i], p);
    if (a.is_null() || b.is_null() || !(a == b)) return false;
  }
  return true;
}

/// True when the step's non-equi ON conditions hold for the extended row.
template <typename Store>
bool StepResidualHolds(const Store& store, const StepKeys& keys,
                       const RowCtx& extended) {
  for (const auto& pred : keys.residual) {
    SqlValue v = EvalExpr(*pred, [&](const BoundExpr& b) {
      return FieldValue(store, b.field, extended.pos[b.side]);
    });
    if (!v.IsTruthy()) return false;
  }
  return true;
}

/// One binary hash-join step: extends the joined prefix `rows` with matches
/// from `scan` (relation index `step_side`). Builds on the smaller input —
/// the new relation when `scan.size() <= rows.size()`, else the prefix — and
/// reports which in `*built_prefix`. Parallelism: build-side hashes are
/// precomputed in parallel chunks (the field reads dominate the build),
/// insertion stays serial to preserve exact bucket order, and the probe side
/// is morselized with per-morsel output buffers concatenated in morsel order
/// — emit order is byte-identical to a serial probe loop: probe-major, each
/// probe entry's matches in ascending build index.
template <typename Store>
Result<std::vector<RowCtx>> HashJoinStep(const Store& store,
                                         const std::vector<RowCtx>& rows,
                                         const std::vector<RecordPos>& scan,
                                         const StepKeys& keys, uint8_t step_side,
                                         const QueryOptions& options,
                                         OperatorStats* build_stats,
                                         OperatorStats* probe_stats,
                                         bool* built_prefix) {
  const bool build_prefix = scan.size() > rows.size();
  *built_prefix = build_prefix;
  // Key hash of entry i of the prefix (`prefix`) or of the scan; sets
  // *has_null when a key is NULL, which never matches.
  auto key_hash = [&](bool prefix, size_t i, bool* has_null) {
    uint64_t h = 0x243F6A8885A308D3ULL;
    *has_null = false;
    for (size_t k = 0; k < keys.right.size(); ++k) {
      const auto& [side, field] = keys.left[k];
      const SqlValue v = prefix ? FieldValue(store, field, rows[i].pos[side])
                                : FieldValue(store, keys.right[k], scan[i]);
      if (v.is_null()) {
        *has_null = true;
        return h;
      }
      h = HashCombine(h, v.Hash());
    }
    return h;
  };
  const size_t num_build = build_prefix ? rows.size() : scan.size();
  const size_t num_probe = build_prefix ? scan.size() : rows.size();

  std::vector<uint64_t> hashes(num_build);
  std::vector<uint8_t> nulls(num_build);
  BLEND_RETURN_NOT_OK(RunTasks(options, TraceStage::kJoinBuild, build_stats,
                               NumChunks(num_build, kScanMorselRecords), [&](size_t c) {
    const size_t e = std::min(num_build, (c + 1) * kScanMorselRecords);
    for (size_t i = c * kScanMorselRecords; i < e; ++i) {
      bool has_null;
      hashes[i] = key_hash(build_prefix, i, &has_null);
      nulls[i] = has_null ? 1 : 0;
    }
  }));
  std::unordered_map<uint64_t, std::vector<uint32_t>> ht;
  ht.reserve(num_build * 2);
  for (uint32_t i = 0; i < num_build; ++i) {
    if ((i % kSerialCheckInterval) == kSerialCheckInterval - 1) {
      BLEND_RETURN_NOT_OK(CheckControl(options.control, "join build"));
    }
    if (!nulls[i]) ht[hashes[i]].push_back(i);
  }
  if (build_stats != nullptr) build_stats->rows = static_cast<int64_t>(num_build);

  const size_t probe_chunks = NumChunks(num_probe, kScanMorselRecords);
  std::vector<std::vector<RowCtx>> parts(probe_chunks);
  BLEND_RETURN_NOT_OK(RunTasks(options, TraceStage::kJoinProbe, probe_stats,
                               probe_chunks, [&](size_t c) {
    const size_t e = std::min(num_probe, (c + 1) * kScanMorselRecords);
    for (size_t i = c * kScanMorselRecords; i < e; ++i) {
      bool has_null;
      const uint64_t h = key_hash(!build_prefix, i, &has_null);
      if (has_null) continue;
      auto it = ht.find(h);
      if (it == ht.end()) continue;
      for (uint32_t b : it->second) {
        const RowCtx& ctx = rows[build_prefix ? b : i];
        const RecordPos p = scan[build_prefix ? i : b];
        if (!StepKeysEqual(store, keys, ctx, p)) continue;
        RowCtx extended = ctx;
        extended.pos[step_side] = p;
        if (StepResidualHolds(store, keys, extended)) parts[c].push_back(extended);
      }
    }
  }));
  std::vector<RowCtx> joined = ConcatParts(std::move(parts));
  NoteRows(options.trace, TraceStage::kJoinProbe, probe_stats, joined.size());
  return joined;
}

// ---------------------------------------------------------------------------
// Lookup join on the (TableId, RowId) store order.
// ---------------------------------------------------------------------------

/// (TableId, RowId) packed as one 64-bit key. Records are emitted
/// table-major, row-major, so the key is non-decreasing in physical
/// position and a key's record group can be binary-searched.
inline uint64_t PackJoinKey(TableId t, int32_t r) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(t)) << 32) |
         static_cast<uint32_t>(r);
}

/// First physical position whose key is >= `key`: rows ascend within the
/// key's table range, every earlier table's keys are smaller, and a key
/// beyond the table's last row resolves to the next table's first position.
template <typename Store>
RecordPos JoinKeyLowerBound(const Store& store, uint64_t key) {
  const auto t = static_cast<TableId>(key >> 32);
  const auto r = static_cast<int32_t>(key & 0xFFFFFFFFu);
  auto [lo, hi] = store.TableRange(t);
  while (lo < hi) {
    const RecordPos mid = lo + (hi - lo) / 2;
    if (store.row(mid) < r) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// First position after key `key`'s record group; `from` is any position
/// inside the group.
template <typename Store>
RecordPos JoinKeyGroupEnd(const Store& store, uint64_t key, RecordPos from) {
  const auto t = static_cast<TableId>(key >> 32);
  const auto r = static_cast<int32_t>(key & 0xFFFFFFFFu);
  RecordPos lo = from, hi = store.TableRange(t).second;
  while (lo < hi) {
    const RecordPos mid = lo + (hi - lo) / 2;
    if (store.row(mid) <= r) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Whether a join step runs as a lookup join: its ON equates TableId with
/// TableId and RowId with RowId, and its relation's access path scans in
/// ascending position (the clustered TableId index, the Quadrant partial
/// index or a full scan). A relation on the CellValue index scans cell-major
/// and keeps HashJoinStep.
bool IsLookupStep(const ScanSpec& spec, const StepKeys& keys) {
  if (spec.cell_in != nullptr) return false;
  bool table_key = false, row_key = false;
  for (size_t i = 0; i < keys.right.size(); ++i) {
    const Field f = keys.right[i];
    if (keys.left[i].second != f) continue;
    table_key = table_key || f == Field::kTable;
    row_key = row_key || f == Field::kRow;
  }
  return table_key && row_key;
}

/// One join step that looks the new relation up instead of scanning it. For
/// each prefix row it takes the row's (TableId, RowId) record group
/// [JoinKeyLowerBound, JoinKeyGroupEnd) and keeps the positions that pass the
/// relation's own scan filters, the step's ON keys and its ON residual.
///
/// Output is byte-identical to HashJoinStep over ScanRel's positions. The
/// eligible access paths scan in ascending position, so a prefix row's
/// matches in scan order are its group's matches in ascending position.
/// HashJoinStep probes with the prefix when `scan.size() <= rows.size()`;
/// the filtered scan size is counted here in scan order, stopping at
/// rows.size() + 1, so the decision never costs more than the scan it
/// replaces. Probing with the prefix emits prefix-major with matches
/// ascending; probing with the scan emits scan-major with prefix rows
/// ascending, which sorting the matched (position, prefix index) pairs
/// reproduces.
template <typename Store>
Result<std::vector<RowCtx>> LookupJoinStep(const Store& store,
                                           const std::vector<RowCtx>& rows,
                                           const RelScan& rel,
                                           const StepKeys& keys, uint8_t step_side,
                                           const QueryOptions& options,
                                           OperatorStats* stats) {
  // Orientation: count passing candidates in ScanRel's scan order.
  const size_t cap = rows.size() + 1;
  size_t passing = 0, visited = 0;
  auto visit = [&](RecordPos p, CellId) {
    if (rel.filter(store, p) && ++passing == cap) return false;
    return ++visited % kSerialCheckInterval != 0 || !ShouldStop(options.control);
  };
  for (const ScanMorsel& mo : rel.morsels) {
    if (!WalkMorsel(mo, visit)) break;
  }
  BLEND_RETURN_NOT_OK(CheckControl(options.control, "lookup join"));
  const bool probe_with_prefix = passing <= rows.size();

  size_t table_key = 0, row_key = 0;
  for (size_t i = 0; i < keys.right.size(); ++i) {
    if (keys.left[i].second != keys.right[i]) continue;
    if (keys.right[i] == Field::kTable) table_key = i;
    if (keys.right[i] == Field::kRow) row_key = i;
  }
  const uint8_t table_side = keys.left[table_key].first;
  const uint8_t row_side = keys.left[row_key].first;

  // Prefix-row chunks; each fills its own buffer of joined rows (probing
  // with the prefix) or of packed (position, prefix index) pairs.
  const size_t num_chunks = NumChunks(rows.size(), kScanMorselRecords);
  std::vector<std::vector<RowCtx>> parts(probe_with_prefix ? num_chunks : 0);
  std::vector<std::vector<uint64_t>> pairs(probe_with_prefix ? 0 : num_chunks);
  BLEND_RETURN_NOT_OK(RunTasks(options, TraceStage::kJoinProbe, stats, num_chunks,
                               [&](size_t c) {
    const size_t b = c * kScanMorselRecords;
    const size_t e = std::min(rows.size(), b + kScanMorselRecords);
    for (size_t i = b; i < e; ++i) {
      const TableId t = store.table(rows[i].pos[table_side]);
      if (rel.spec.table_in != nullptr &&
          !std::binary_search(rel.tables.begin(), rel.tables.end(), t)) {
        continue;
      }
      const uint64_t key = PackJoinKey(t, store.row(rows[i].pos[row_side]));
      const RecordPos lo = JoinKeyLowerBound(store, key);
      const RecordPos hi = JoinKeyGroupEnd(store, key, lo);
      RowCtx extended = rows[i];
      for (RecordPos p = lo; p < hi; ++p) {
        if (!rel.filter(store, p) || !StepKeysEqual(store, keys, rows[i], p)) {
          continue;
        }
        extended.pos[step_side] = p;
        if (!StepResidualHolds(store, keys, extended)) continue;
        if (probe_with_prefix) {
          parts[c].push_back(extended);
        } else {
          pairs[c].push_back(static_cast<uint64_t>(p) << 32 | i);
        }
      }
    }
  }));

  std::vector<RowCtx> joined;
  if (probe_with_prefix) {
    joined = ConcatParts(std::move(parts));
  } else {
    std::vector<uint64_t> matched = ConcatParts(std::move(pairs));
    std::sort(matched.begin(), matched.end());
    joined.reserve(matched.size());
    for (uint64_t m : matched) {
      RowCtx extended = rows[m & 0xFFFFFFFFu];
      extended.pos[step_side] = static_cast<RecordPos>(m >> 32);
      joined.push_back(extended);
    }
  }
  NoteRows(options.trace, TraceStage::kJoinProbe, stats, joined.size());
  return joined;
}

// ---------------------------------------------------------------------------
// Output assembly: ordering shared by projection and aggregation.
// ---------------------------------------------------------------------------

/// Sorts rows (pairs of output values + sort key values), applies the
/// engine-side dedup-top-k spec (QueryOptions::dedup_column / dedup_limit),
/// then LIMIT. Shared by ProjectRows and EmitGroups, so dedup semantics
/// cannot diverge between projection and aggregation.
void SortAndLimit(std::vector<std::vector<SqlValue>>* rows,
                  std::vector<std::vector<SqlValue>>* sort_vals,
                  const std::vector<bool>& desc, int64_t limit,
                  const QueryOptions& options) {
  const bool dedup =
      options.dedup_column >= 0 && !rows->empty() &&
      static_cast<size_t>(options.dedup_column) < (*rows)[0].size();
  if (!sort_vals->empty() && !desc.empty()) {
    std::vector<size_t> idx(rows->size());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    auto cmp = [&](size_t a, size_t b) {
      const auto& ka = (*sort_vals)[a];
      const auto& kb = (*sort_vals)[b];
      for (size_t i = 0; i < ka.size(); ++i) {
        int c = Cmp(ka[i], kb[i]);
        if (desc[i]) c = -c;
        if (c != 0) return c < 0;
      }
      // Deterministic tie-break: compare output values, then original index.
      const auto& ra = (*rows)[a];
      const auto& rb = (*rows)[b];
      for (size_t i = 0; i < ra.size(); ++i) {
        int c = Cmp(ra[i], rb[i]);
        if (c != 0) return c < 0;
      }
      return a < b;
    };
    if (!dedup && limit >= 0 && static_cast<size_t>(limit) < idx.size()) {
      std::partial_sort(idx.begin(), idx.begin() + limit, idx.end(), cmp);
      idx.resize(static_cast<size_t>(limit));
    } else {
      // Dedup needs the full order: the k-th distinct value can sit
      // arbitrarily deep in the sorted stream.
      std::sort(idx.begin(), idx.end(), cmp);
    }
    std::vector<std::vector<SqlValue>> out;
    out.reserve(idx.size());
    for (size_t i : idx) out.push_back(std::move((*rows)[i]));
    *rows = std::move(out);
  }
  if (dedup) {
    // Keep, in order, the first row per distinct dedup-column value; stop
    // once dedup_limit distinct values have been kept (< 0 = unbounded).
    const auto col = static_cast<size_t>(options.dedup_column);
    std::vector<SqlValue> distinct;
    std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
    std::vector<std::vector<SqlValue>> kept;
    for (auto& row : *rows) {
      if (options.dedup_limit >= 0 &&
          static_cast<int64_t>(distinct.size()) >= options.dedup_limit) {
        break;
      }
      const SqlValue& v = row[col];
      auto& bucket = buckets[v.Hash()];
      bool seen = false;
      for (uint32_t i : bucket) {
        if (distinct[i] == v) {
          seen = true;
          break;
        }
      }
      if (seen) continue;
      bucket.push_back(static_cast<uint32_t>(distinct.size()));
      distinct.push_back(v);
      kept.push_back(std::move(row));
    }
    *rows = std::move(kept);
  }
  if (limit >= 0 && static_cast<size_t>(limit) < rows->size()) {
    rows->resize(static_cast<size_t>(limit));
  }
}

/// Bound ORDER BY: per item, the output column it names (ref >= 0) or its
/// bound expression, and its direction.
struct SortKeys {
  std::vector<int> ref;
  std::vector<BoundExprPtr> exprs;
  std::vector<bool> desc;

  /// One output row's sort values; `leaf` resolves the bound expressions.
  template <typename Leaf>
  std::vector<SqlValue> Values(const std::vector<SqlValue>& out,
                               const Leaf& leaf) const {
    std::vector<SqlValue> vals;
    vals.reserve(ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      vals.push_back(ref[i] >= 0 ? out[static_cast<size_t>(ref[i])]
                                 : EvalExpr(*exprs[i], leaf));
    }
    return vals;
  }
};

/// Binds ORDER BY items: a bare name that matches an output column refers to
/// that column; anything else binds through `bind` (row or aggregate
/// context).
template <typename BindFn>
Result<SortKeys> BindOrderBy(const SelectStmt& stmt,
                             const std::vector<std::string>& columns,
                             const BindFn& bind) {
  SortKeys keys;
  for (const auto& oi : stmt.order_by) {
    int ref = -1;
    if (oi.expr->kind == ExprKind::kColumnRef && oi.expr->table_alias.empty()) {
      for (size_t i = 0; i < columns.size(); ++i) {
        if (ToLower(columns[i]) == ToLower(oi.expr->column)) {
          ref = static_cast<int>(i);
          break;
        }
      }
    }
    keys.ref.push_back(ref);
    if (ref < 0) {
      BLEND_ASSIGN_OR_RETURN(auto b, bind(*oi.expr));
      keys.exprs.push_back(std::move(b));
    } else {
      keys.exprs.push_back(nullptr);
    }
    keys.desc.push_back(oi.desc);
  }
  return keys;
}

bool HasAggregate(const SelectStmt& stmt) {
  bool has_agg = !stmt.group_by.empty();
  for (const auto& item : stmt.items) {
    if (Binder::ContainsAggregate(*item.expr)) has_agg = true;
  }
  return has_agg;
}

/// The root operator's bindings: the group keys and every aggregate the
/// select list and ORDER BY reference (Aggregate only), the select items with
/// their column names, and the sort keys.
struct OutputBinding {
  std::vector<BoundExprPtr> keys;
  std::vector<AggSpec> aggs;
  std::vector<BoundExprPtr> items;
  std::vector<std::string> columns;
  SortKeys sort;
};

/// Output rows and, under ORDER BY, each row's sort values, ahead of
/// SortAndLimit.
struct OutputRows {
  std::vector<std::vector<SqlValue>> rows;
  std::vector<std::vector<SqlValue>> sort_vals;
};

/// Binds a projection's select items in row context; `SELECT *` exposes the
/// canonical fields of every relation, prefixed with the relation's alias
/// when there is more than one.
Result<OutputBinding> BindProjection(const AnalyzedQuery& q, const SelectStmt& stmt,
                                     const Binder& binder) {
  OutputBinding out;
  if (stmt.select_star) {
    for (size_t s = 0; s < q.rels.size(); ++s) {
      for (int fi = 0; fi < kNumFields; ++fi) {
        auto b = std::make_unique<BoundExpr>();
        b->kind = BKind::kField;
        b->side = static_cast<uint8_t>(s);
        b->field = static_cast<Field>(fi);
        std::string name = FieldName(b->field);
        if (q.rels.size() > 1) {
          const std::string& alias = q.rels[s].visible.alias;
          name = (alias.empty() ? "t" + std::to_string(s) : alias) + "." + name;
        }
        out.columns.push_back(std::move(name));
        out.items.push_back(std::move(b));
      }
    }
  } else {
    for (const auto& item : stmt.items) {
      BLEND_ASSIGN_OR_RETURN(auto b, binder.BindRowExpr(*item.expr));
      out.columns.push_back(ItemName(item));
      out.items.push_back(std::move(b));
    }
  }
  BLEND_ASSIGN_OR_RETURN(out.sort, BindOrderBy(stmt, out.columns, [&](const Expr& e) {
    return binder.BindRowExpr(e);
  }));
  return out;
}

// ---------------------------------------------------------------------------
// Aggregation.
// ---------------------------------------------------------------------------

Result<OutputBinding> BindAggregate(const SelectStmt& stmt, const Binder& binder) {
  if (stmt.select_star) {
    return Status::PlanError("SELECT * with GROUP BY is not supported");
  }
  OutputBinding agg;
  for (const auto& g : stmt.group_by) {
    BLEND_ASSIGN_OR_RETURN(auto b, binder.BindRowExpr(*g));
    agg.keys.push_back(std::move(b));
  }
  for (const auto& item : stmt.items) {
    BLEND_ASSIGN_OR_RETURN(auto b, binder.BindAggExpr(*item.expr, agg.keys, &agg.aggs));
    agg.columns.push_back(ItemName(item));
    agg.items.push_back(std::move(b));
  }
  BLEND_ASSIGN_OR_RETURN(agg.sort, BindOrderBy(stmt, agg.columns, [&](const Expr& e) {
    return binder.BindAggExpr(e, agg.keys, &agg.aggs);
  }));
  return agg;
}

/// Whether the aggregate reads relation 0's scan morsels in place instead of
/// a materialized row stream: one relation, no residual WHERE, and no SUM or
/// AVG. The chunk merges of COUNT, COUNT(DISTINCT), MIN and MAX are exact,
/// so chunking by scan morsel gives the row stream's answer; a double sum's
/// rounding follows the chunk boundaries, so SUM and AVG keep the row
/// stream's kAggChunkRows chunks.
bool ScanFedAggregate(const AnalyzedQuery& q, const std::vector<AggSpec>& aggs) {
  if (q.rels.size() != 1 || q.residual_where != nullptr) return false;
  for (const AggSpec& a : aggs) {
    if (a.kind == AggSpec::Kind::kSum || a.kind == AggSpec::Kind::kAvg) return false;
  }
  return true;
}

/// Whether a scan-fed aggregate over `spec` counts `a` per posting list
/// (CountPostingList): COUNT(DISTINCT CellValue) over the CellValue index.
bool CountsPostingLists(const AggSpec& a, const ScanSpec& spec) {
  return spec.cell_in != nullptr && a.kind == AggSpec::Kind::kCount && a.distinct &&
         a.arg != nullptr && a.arg->kind == BKind::kField &&
         a.arg->field == Field::kCell;
}

/// The aggregate's input rows, cut into chunks: the materialized row stream
/// in kAggChunkRows chunks, or one relation's bound scan walked in place, one
/// chunk per morsel, with no position or row vectors. ForEachRow(c, fn)
/// calls fn(ordinal, row, cell) on chunk c's rows in input order until fn
/// returns false. Ordinals ascend along the input, so a group's smallest
/// ordinal orders it by first appearance; `cell` is the row's posting list
/// on the CellValue index (kInvalidCellId elsewhere).
template <typename Store>
struct AggInput {
  const Store* store = nullptr;
  const std::vector<RowCtx>* rows = nullptr;  ///< the row stream, or
  const RelScan* scan = nullptr;              ///< the scan walked in place

  size_t NumChunks() const {
    if (scan != nullptr) return scan->morsels.size();
    return (rows->size() + kAggChunkRows - 1) / kAggChunkRows;
  }

  template <typename Fn>
  void ForEachRow(size_t c, const Fn& fn) const {
    if (scan == nullptr) {
      const size_t e = std::min(rows->size(), (c + 1) * kAggChunkRows);
      for (size_t r = c * kAggChunkRows; r < e; ++r) {
        if (!fn(r, (*rows)[r], kInvalidCellId)) return;
      }
      return;
    }
    // Record k of morsel c has ordinal (c << 32) + k; morsels hold far fewer
    // than 2^32 records.
    size_t ordinal = c << 32;
    RowCtx ctx;
    WalkMorsel(scan->morsels[c], [&](RecordPos p, CellId cell) {
      const size_t o = ordinal++;
      if (!scan->filter(*store, p)) return true;
      ctx.pos[0] = p;
      return fn(o, ctx, cell);
    });
  }
};

/// Groups in insertion order. Per group the table keeps its key hash (the
/// packed key itself when keys pack), the ordinal of its first input row
/// and the next group with the same hash; key values and aggregate states
/// sit in flat arrays, `num_keys` and `num_aggs` per group, so adding a
/// group allocates nothing of its own. A packed key is its own hash, so with
/// `exact` a hash hit is the group and keys are never compared.
struct GroupTable {
  struct Group {
    uint64_t hash;
    size_t first;
    uint32_t next;
  };
  bool exact = false;
  size_t num_keys = 0;
  size_t num_aggs = 0;
  std::vector<Group> groups;
  std::vector<SqlValue> keys;
  std::vector<AggState> states;
  std::unordered_map<uint64_t, uint32_t> heads;

  size_t size() const { return groups.size(); }
  const SqlValue* KeysOf(uint32_t g) const { return keys.data() + g * num_keys; }
  AggState* StatesOf(uint32_t g) { return states.data() + g * num_aggs; }
  const AggState* StatesOf(uint32_t g) const { return states.data() + g * num_aggs; }

  /// Index of the group with `hash` and key values `key`, or UINT32_MAX.
  uint32_t Find(uint64_t hash, const SqlValue* key) const {
    auto it = heads.find(hash);
    uint32_t g = it == heads.end() ? UINT32_MAX : it->second;
    while (!exact && g != UINT32_MAX && !std::equal(key, key + num_keys, KeysOf(g))) {
      g = groups[g].next;
    }
    return g;
  }

  /// Appends a group with fresh aggregate states; returns its index.
  uint32_t Insert(uint64_t hash, size_t first, const SqlValue* key) {
    const auto gi = static_cast<uint32_t>(groups.size());
    auto [it, inserted] = heads.try_emplace(hash, gi);
    const uint32_t next = inserted ? UINT32_MAX : std::exchange(it->second, gi);
    groups.push_back({hash, first, next});
    keys.insert(keys.end(), key, key + num_keys);
    states.resize(states.size() + num_aggs);
    return gi;
  }

  /// Moves group `g` of `from` to the end of this table.
  uint32_t Take(GroupTable* from, uint32_t g) {
    const Group& moved = from->groups[g];
    const uint32_t gi = Insert(moved.hash, moved.first, from->KeysOf(g));
    std::move(from->StatesOf(g), from->StatesOf(g) + num_aggs, StatesOf(gi));
    return gi;
  }
};

/// One group key packed into a uint64: `width` bits at `shift`.
struct PackedField {
  uint8_t side;
  Field field;
  int shift;
  int width;
};

/// Value of a field PackKeys admits: TableId, ColumnId, RowId or CellValue,
/// none of them nullable.
template <typename Store>
int64_t PackedFieldValue(const Store& store, Field f, RecordPos p) {
  switch (f) {
    case Field::kTable: return store.table(p);
    case Field::kColumn: return store.column(p);
    case Field::kRow: return store.row(p);
    default: return store.cell(p);
  }
}

/// Packed layout of the group keys when every key is a narrow integer field
/// (the seeker shapes (TableId, ColumnId), (TableId), (TableId, ColumnId,
/// ColumnId)); empty when the keys do not pack.
std::vector<PackedField> PackKeys(const std::vector<BoundExprPtr>& keys) {
  std::vector<PackedField> packed;
  int shift = 0;
  for (const auto& ke : keys) {
    int width = 0;
    if (ke->kind == BKind::kField) {
      switch (ke->field) {
        case Field::kColumn: width = 16; break;
        case Field::kTable:
        case Field::kRow:
        case Field::kCell: width = 32; break;
        default: width = 0;  // SuperKey too wide, Quadrant nullable
      }
    }
    if (width == 0 || shift + width > 64) return {};
    packed.push_back({ke->side, ke->field, shift, width});
    shift += width;
  }
  return packed;
}

/// Aggregates `input` into groups in first-appearance order. Each chunk
/// aggregates into its own GroupTable; with more than one chunk, a
/// radix-partitioned merge folds them, each worker owning a disjoint hash
/// partition and folding chunks in ascending chunk order (the double-sum
/// rounding order), and a sort on each group's first ordinal restores
/// first-appearance order. Chunks and merge order depend only on the input,
/// so the result is byte-identical for every pool size. Packed keys need no
/// key values per row; a value that overflows its packed width reruns the
/// chunks on generic keys. The chunk tables are charged to the memory budget
/// on top of what the query already holds. Chunk and merge tasks both count
/// towards the Aggregate node's `stats`.
template <typename Store>
Result<GroupTable> AggregateGroups(const AggInput<Store>& input,
                                   const OutputBinding& agg, ScopedMemoryCharge* mem,
                                   const QueryOptions& options, OperatorStats* stats) {
  const Store& store = *input.store;
  const std::vector<AggSpec>& aggs = agg.aggs;
  std::vector<uint8_t> list_count(aggs.size(), 0);
  for (size_t a = 0; a < aggs.size() && input.scan != nullptr; ++a) {
    list_count[a] = CountsPostingLists(aggs[a], input.scan->spec) ? 1 : 0;
  }
  const std::vector<PackedField> packed = PackKeys(agg.keys);
  auto leaf = [&store](const RowCtx& ctx) {
    return [&store, &ctx](const BoundExpr& b) {
      return FieldValue(store, b.field, ctx.pos[b.side]);
    };
  };
  auto update_general = [&](size_t a, AggState* st, const RowCtx& ctx) {
    const BoundExpr* arg = aggs[a].arg.get();
    SqlValue v = SqlValue::Null();
    if (arg != nullptr && arg->kind == BKind::kField) {
      v = FieldValue(store, arg->field, ctx.pos[arg->side]);
    } else if (arg != nullptr) {
      v = EvalExpr(*arg, leaf(ctx));
    }
    UpdateAgg(aggs[a], st, v);
  };

  const size_t num_chunks = input.NumChunks();
  auto fresh = [&](bool exact) {
    return GroupTable{exact, agg.keys.size(), aggs.size(), {}, {}, {}, {}};
  };
  std::vector<GroupTable> chunks;
  std::vector<uint8_t> overflowed(num_chunks, 0);
  auto aggregate_chunks = [&](bool pack) {
    chunks.clear();
    for (size_t c = 0; c < num_chunks; ++c) chunks.push_back(fresh(pack));
    return RunTasks(options, TraceStage::kAggregation, stats, num_chunks,
                    [&](size_t c) {
      GroupTable& table = chunks[c];
      std::vector<SqlValue> key(agg.keys.size());
      input.ForEachRow(c, [&](size_t ordinal, const RowCtx& ctx, CellId cell) {
        uint64_t h = pack ? 0 : 0x13198A2E03707344ULL;
        for (const PackedField& pf : packed) {
          if (!pack) break;
          const auto raw = static_cast<uint64_t>(
              PackedFieldValue(store, pf.field, ctx.pos[pf.side]));
          if ((raw >> pf.width) != 0) {  // overflows its packed width
            overflowed[c] = 1;
            return false;
          }
          h |= raw << pf.shift;
        }
        for (size_t k = 0; !pack && k < agg.keys.size(); ++k) {
          key[k] = EvalExpr(*agg.keys[k], leaf(ctx));
          h = HashCombine(h, key[k].Hash());
        }
        uint32_t gi = table.Find(h, key.data());
        if (gi == UINT32_MAX) {
          for (size_t k = 0; pack && k < packed.size(); ++k) {
            const uint64_t mask = (uint64_t{1} << packed[k].width) - 1;
            key[k] = SqlValue::Int(static_cast<int64_t>((h >> packed[k].shift) & mask));
          }
          gi = table.Insert(h, ordinal, key.data());
        }
        AggState* states = table.StatesOf(gi);
        for (size_t a = 0; a < aggs.size(); ++a) {
          if (list_count[a]) {
            CountPostingList(&states[a], cell);
          } else {
            update_general(a, &states[a], ctx);
          }
        }
        return true;
      });
    });
  };
  bool pack = !packed.empty();
  BLEND_RETURN_NOT_OK(aggregate_chunks(pack));
  if (pack && std::find(overflowed.begin(), overflowed.end(), 1) != overflowed.end()) {
    pack = false;
    BLEND_RETURN_NOT_OK(aggregate_chunks(pack));
  }

  size_t chunk_groups = 0;
  for (const GroupTable& t : chunks) chunk_groups += t.size();
  const auto bytes_per_group = static_cast<int64_t>(
      sizeof(GroupTable::Group) + agg.keys.size() * sizeof(SqlValue) +
      aggs.size() * sizeof(AggState));
  BLEND_RETURN_NOT_OK(mem->ChargeTo(
      mem->charged() + static_cast<int64_t>(chunk_groups) * bytes_per_group));

  // A single chunk is already in first-appearance order.
  if (num_chunks == 0) return fresh(pack);
  if (num_chunks == 1) return std::move(chunks[0]);
  // Partition p folds chunks 1.. into chunk 0's groups of its partition, so
  // a single partition appends new groups in first-appearance order. A small
  // merge runs as that one inline task: waking the pool for kMergePartitions
  // tasks costs more than folding a few thousand groups.
  const size_t num_parts = chunk_groups > kAggChunkRows ? kMergePartitions : 1;
  std::vector<GroupTable> parts;
  for (size_t p = 0; p < num_parts; ++p) {
    parts.push_back(num_parts == 1 ? std::move(chunks[0]) : fresh(pack));
  }
  BLEND_RETURN_NOT_OK(RunTasks(options, TraceStage::kAggregationMerge, stats, num_parts,
                               [&](size_t part) {
    GroupTable& merged = parts[part];
    for (size_t c = num_parts == 1 ? 1 : 0; c < num_chunks; ++c) {
      GroupTable& chunk = chunks[c];
      for (uint32_t g = 0; g < chunk.size(); ++g) {
        const GroupTable::Group& from = chunk.groups[g];
        if ((Mix64(from.hash) & (num_parts - 1)) != part) continue;
        const uint32_t gi = merged.Find(from.hash, chunk.KeysOf(g));
        if (gi == UINT32_MAX) {
          merged.Take(&chunk, g);
          continue;
        }
        merged.groups[gi].first = std::min(merged.groups[gi].first, from.first);
        for (size_t a = 0; a < aggs.size(); ++a) {
          MergeAggState(merged.StatesOf(gi) + a, chunk.StatesOf(g) + a);
        }
      }
    }
  }));
  if (num_parts == 1) return std::move(parts[0]);
  std::vector<std::pair<size_t, std::pair<uint32_t, uint32_t>>> order;
  for (uint32_t p = 0; p < kMergePartitions; ++p) {
    for (uint32_t g = 0; g < parts[p].size(); ++g) {
      order.push_back({parts[p].groups[g].first, {p, g}});
    }
  }
  std::sort(order.begin(), order.end());
  GroupTable all = fresh(pack);
  for (const auto& [first, at] : order) all.Take(&parts[at.first], at.second);
  return all;
}

/// Finalizes each group's aggregates and projects the groups through the
/// select items.
OutputRows EmitGroups(const GroupTable& groups, const OutputBinding& agg,
                      const SelectStmt& stmt) {
  OutputRows out;
  out.rows.reserve(groups.size());
  std::vector<SqlValue> agg_vals(agg.aggs.size());
  for (uint32_t g = 0; g < groups.size(); ++g) {
    const AggState* states = groups.StatesOf(g);
    for (size_t a = 0; a < agg.aggs.size(); ++a) {
      agg_vals[a] = FinalizeAgg(agg.aggs[a], states[a]);
    }
    const SqlValue* keys = groups.KeysOf(g);
    auto leaf = [&](const BoundExpr& b) -> SqlValue {
      if (b.kind == BKind::kAggRef) return agg_vals[b.ref];
      if (b.kind == BKind::kKeyRef) return keys[b.ref];
      return SqlValue::Null();  // unreachable: fields were rejected at bind
    };
    std::vector<SqlValue> vals;
    vals.reserve(agg.items.size());
    for (const auto& it : agg.items) vals.push_back(EvalExpr(*it, leaf));
    if (!stmt.order_by.empty()) out.sort_vals.push_back(agg.sort.Values(vals, leaf));
    out.rows.push_back(std::move(vals));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Row-stream operators: the residual WHERE and the projection.
// ---------------------------------------------------------------------------

Binder VisibleBinder(const AnalyzedQuery& q, const Dictionary& dict) {
  std::vector<Binder::RelColumns> rel_cols;
  for (const auto& rel : q.rels) rel_cols.push_back(rel.visible);
  return Binder(&dict, std::move(rel_cols));
}

/// The residual WHERE, chunk-parallel: per-chunk surviving-row buffers
/// concatenated in chunk order keep the row stream identical to a serial
/// filter loop.
template <typename Store>
Result<std::vector<RowCtx>> FilterRows(const std::vector<RowCtx>& rows,
                                       const BoundExpr& pred, const Store& store,
                                       const QueryOptions& options,
                                       OperatorStats* stats) {
  const size_t n = rows.size();
  const size_t num_chunks = NumChunks(n, kAggChunkRows);
  std::vector<std::vector<RowCtx>> parts(num_chunks);
  BLEND_RETURN_NOT_OK(RunTasks(options, TraceStage::kFilter, stats, num_chunks,
                               [&](size_t c) {
    const size_t e = std::min(n, (c + 1) * kAggChunkRows);
    for (size_t i = c * kAggChunkRows; i < e; ++i) {
      const RowCtx& ctx = rows[i];
      SqlValue v = EvalExpr(pred, [&](const BoundExpr& bx) {
        return FieldValue(store, bx.field, ctx.pos[bx.side]);
      });
      if (v.IsTruthy()) parts[c].push_back(ctx);
    }
  }));
  std::vector<RowCtx> kept = ConcatParts(std::move(parts));
  if (stats != nullptr) stats->rows = static_cast<int64_t>(kept.size());
  return kept;
}

/// Non-aggregate projection of the row stream, chunk-parallel: per-chunk
/// buffers concatenated in chunk order reproduce the serial row order
/// exactly.
template <typename Store>
Result<OutputRows> ProjectRows(const std::vector<RowCtx>& rows,
                               const OutputBinding& proj, const SelectStmt& stmt,
                               const Store& store, const QueryOptions& options,
                               OperatorStats* stats) {
  const size_t n = rows.size();
  const size_t num_chunks = NumChunks(n, kAggChunkRows);
  std::vector<OutputRows> parts(num_chunks);
  BLEND_RETURN_NOT_OK(RunTasks(options, TraceStage::kProjection, stats, num_chunks,
                               [&](size_t c) {
    const size_t b = c * kAggChunkRows;
    const size_t e = std::min(n, b + kAggChunkRows);
    OutputRows& part = parts[c];
    part.rows.reserve(e - b);
    for (size_t r = b; r < e; ++r) {
      const RowCtx& ctx = rows[r];
      auto leaf = [&](const BoundExpr& bx) {
        return FieldValue(store, bx.field, ctx.pos[bx.side]);
      };
      std::vector<SqlValue> vals;
      vals.reserve(proj.items.size());
      for (const auto& it : proj.items) vals.push_back(EvalExpr(*it, leaf));
      if (!stmt.order_by.empty()) {
        part.sort_vals.push_back(proj.sort.Values(vals, leaf));
      }
      part.rows.push_back(std::move(vals));
    }
  }));
  OutputRows out;
  out.rows.reserve(n);
  for (OutputRows& part : parts) {
    for (auto& v : part.rows) out.rows.push_back(std::move(v));
    for (auto& v : part.sort_vals) out.sort_vals.push_back(std::move(v));
  }
  if (stats != nullptr) stats->rows = static_cast<int64_t>(n);
  return out;
}

// ---------------------------------------------------------------------------
// Physical plan: every choice a statement's execution makes, decided once.
// ExecuteSelect runs it, EXPLAIN renders it without running it, and EXPLAIN
// ANALYZE and plan capture render it with the actuals its operators recorded.
// ---------------------------------------------------------------------------

enum class OpKind : uint8_t {
  kScan,
  kGroupLookup,
  kHashBuild,
  kHashJoin,
  kLookupJoin,
  kFilter,
  kAggregate,
  kProject,
  kSortLimit,
};
constexpr const char* kOpNames[] = {"Scan",      "GroupLookup", "HashBuild",
                                    "HashJoin",  "LookupJoin",  "Filter",
                                    "Aggregate", "Project",     "SortLimit"};

/// One bound operator; the payload fields that apply depend on `kind`.
struct PlanOp {
  OpKind kind = OpKind::kScan;
  int depth = 0;  ///< tree depth under the root
  /// The relation of a Scan or GroupLookup; the join step of a HashBuild,
  /// HashJoin or LookupJoin (step j joins relation j).
  size_t index = 0;
  RelScan scan;           ///< Scan, GroupLookup
  StepKeys keys;          ///< HashJoin, LookupJoin
  BoundExprPtr pred;      ///< Filter
  OutputBinding out;      ///< Aggregate, Project
  /// Aggregate, and the Scan it reads: the Aggregate's tasks walk the scan
  /// morsels in place, so the Scan materializes no positions.
  bool in_place = false;
  bool built_prefix = false;  ///< HashJoin, once run: it built on the prefix
};

/// A statement's operators, root-first: the root (Aggregate or Project), its
/// SortLimit, the residual Filter, then the join chain from its last step
/// down — each step's HashJoin over its HashBuild, its relation's Scan and the
/// step before it, or its LookupJoin over its relation's GroupLookup and the
/// step before it — to relation 0's Scan. Read backwards, that is the order
/// the operators run in, except that SortLimit runs on the root's output.
struct PhysicalPlan {
  std::vector<PlanOp> ops;
  size_t num_rels = 0;
  /// Actuals, one per op, while operators record them (EXPLAIN ANALYZE and
  /// plan capture); empty otherwise, so a plain statement records nothing.
  std::vector<OperatorStats> stats;

  OperatorStats* StatsOf(size_t i) { return stats.empty() ? nullptr : &stats[i]; }
};

/// Plans `stmt`: analyzes it, binds every expression, scan and join key once,
/// and makes each choice execution makes — every relation's access path and
/// morsels, lookup vs hash join per step, and the aggregate's input. Never
/// scans, joins, or charges memory budgets.
template <typename Store>
Result<PhysicalPlan> PlanSelect(const SelectStmt& stmt, const Store& store,
                                const Dictionary& dict, const QueryOptions& options) {
  BLEND_ASSIGN_OR_RETURN(const AnalyzedQuery q, Analyze(stmt));
  const Binder binder = VisibleBinder(q, dict);
  PhysicalPlan plan;
  plan.num_rels = q.rels.size();
  plan.ops.reserve(3 + 3 * q.rels.size());
  auto add = [&plan](OpKind kind, int depth, size_t index) -> PlanOp& {
    PlanOp& op = plan.ops.emplace_back();
    op.kind = kind;
    op.depth = depth;
    op.index = index;
    return op;
  };
  PlanOp& root = add(HasAggregate(stmt) ? OpKind::kAggregate : OpKind::kProject, 0, 0);
  if (root.kind == OpKind::kAggregate) {
    BLEND_ASSIGN_OR_RETURN(root.out, BindAggregate(stmt, binder));
    root.in_place = ScanFedAggregate(q, root.out.aggs);
  } else {
    BLEND_ASSIGN_OR_RETURN(root.out, BindProjection(q, stmt, binder));
  }
  if (!stmt.order_by.empty() || stmt.limit >= 0 || options.dedup_column >= 0) {
    add(OpKind::kSortLimit, 1, 0);
  }
  int depth = 1;
  if (q.residual_where != nullptr) {
    BLEND_ASSIGN_OR_RETURN(auto pred, binder.BindRowExpr(*q.residual_where));
    add(OpKind::kFilter, depth++, 0).pred = std::move(pred);
  }
  for (size_t r = q.rels.size() - 1; r > 0; --r, ++depth) {
    BLEND_ASSIGN_OR_RETURN(StepKeys keys, ExtractStepKeys(q.join_ons[r - 1], binder,
                                                          static_cast<uint8_t>(r)));
    BLEND_ASSIGN_OR_RETURN(RelScan scan, BindRelScan(q.rels[r], store, dict));
    const bool lookup = IsLookupStep(scan.spec, keys);
    add(lookup ? OpKind::kLookupJoin : OpKind::kHashJoin, depth, r).keys =
        std::move(keys);
    if (!lookup) add(OpKind::kHashBuild, depth + 1, r);
    add(lookup ? OpKind::kGroupLookup : OpKind::kScan, depth + 1, r).scan =
        std::move(scan);
  }
  PlanOp& scan0 = add(OpKind::kScan, depth, 0);
  BLEND_ASSIGN_OR_RETURN(scan0.scan, BindRelScan(q.rels[0], store, dict));
  scan0.in_place = plan.ops[0].in_place;
  return plan;
}

/// Runs a plan leaves-first and returns its output rows. The scan position
/// vectors and the joined row stream are charged to the memory budget.
template <typename Store>
Result<std::vector<std::vector<SqlValue>>> RunPlan(PhysicalPlan* plan,
                                                   const SelectStmt& stmt,
                                                   const Store& store,
                                                   const QueryOptions& options) {
  BLEND_RETURN_NOT_OK(CheckControl(options.control, "query start"));
  // Budget accounting covers the pipeline's dominant materializations (scan
  // position vectors, the joined row stream, the aggregate's group tables);
  // the estimates are peak live bytes, released when the query finishes.
  ScopedMemoryCharge mem(options.control);
  std::vector<std::vector<RecordPos>> positions(plan->num_rels);
  std::vector<RowCtx> rows;
  int64_t scan_bytes = 0;
  auto charge = [&] {
    return mem.ChargeTo(scan_bytes +
                        static_cast<int64_t>(rows.size() * sizeof(RowCtx)));
  };
  OutputRows out;
  for (size_t i = plan->ops.size(); i-- > 0;) {
    PlanOp& op = plan->ops[i];
    OperatorStats* stats = plan->StatsOf(i);
    const auto side = static_cast<uint8_t>(op.index);
    switch (op.kind) {
      case OpKind::kScan: {
        if (op.in_place) break;
        BLEND_ASSIGN_OR_RETURN(positions[side],
                               ScanRel(op.scan, store, options, stats));
        scan_bytes += static_cast<int64_t>(positions[side].size() * sizeof(RecordPos));
        BLEND_RETURN_NOT_OK(charge());
        if (side == 0) {
          // Relation 0's positions start the row stream.
          rows.reserve(positions[0].size());
          for (RecordPos p : positions[0]) {
            RowCtx ctx;
            ctx.pos[0] = p;
            rows.push_back(ctx);
          }
          BLEND_RETURN_NOT_OK(charge());
        }
        break;
      }
      case OpKind::kHashJoin: {
        BLEND_ASSIGN_OR_RETURN(rows, HashJoinStep(store, rows, positions[side], op.keys,
                                                  side, options, plan->StatsOf(i + 1),
                                                  stats, &op.built_prefix));
        BLEND_RETURN_NOT_OK(charge());
        break;
      }
      case OpKind::kLookupJoin: {
        BLEND_ASSIGN_OR_RETURN(rows, LookupJoinStep(store, rows, plan->ops[i + 1].scan,
                                                    op.keys, side, options, stats));
        BLEND_RETURN_NOT_OK(charge());
        break;
      }
      case OpKind::kFilter: {
        BLEND_ASSIGN_OR_RETURN(rows, FilterRows(rows, *op.pred, store, options, stats));
        break;
      }
      case OpKind::kAggregate: {
        AggInput<Store> input{&store, &rows, nullptr};
        if (op.in_place) input = {&store, nullptr, &plan->ops.back().scan};
        BLEND_ASSIGN_OR_RETURN(GroupTable groups,
                               AggregateGroups(input, op.out, &mem, options, stats));
        // Global aggregate over zero rows still yields one group.
        if (stmt.group_by.empty() && groups.size() == 0) groups.Insert(0, 0, nullptr);
        NoteRows(options.trace, TraceStage::kAggregation, stats, groups.size());
        out = EmitGroups(groups, op.out, stmt);
        break;
      }
      case OpKind::kProject: {
        BLEND_ASSIGN_OR_RETURN(out,
                               ProjectRows(rows, op.out, stmt, store, options, stats));
        break;
      }
      case OpKind::kGroupLookup:  // read by its LookupJoin
      case OpKind::kHashBuild:    // run by its HashJoin
      case OpKind::kSortLimit:    // runs on the root's output, below
        break;
    }
  }
  if (plan->ops.size() > 1 && plan->ops[1].kind == OpKind::kSortLimit) {
    SortAndLimit(&out.rows, &out.sort_vals, plan->ops[0].out.sort.desc, stmt.limit,
                 options);
    if (OperatorStats* stats = plan->StatsOf(1)) {
      stats->rows = static_cast<int64_t>(out.rows.size());
    }
  }
  return std::move(out.rows);
}

/// Renders a plan root-first: the operator tree for EXPLAIN and, once its
/// operators recorded actuals, for EXPLAIN ANALYZE. Task counts that follow
/// the joined row count (filter, projection and aggregation chunks) are
/// unknown (-1) at plan time, with the chunk size in the detail text;
/// materialized scans and an in-place aggregate report their planned morsel
/// counts.
PlanDescription DescribePlan(const PhysicalPlan& plan, const SelectStmt& stmt,
                             const QueryOptions& options) {
  PlanDescription out;
  out.analyzed = !plan.stats.empty();
  const std::string chunks = std::to_string(kAggChunkRows) + "-row chunks";
  const std::string morsel = std::to_string(kScanMorselRecords);
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    const PlanOp& op = plan.ops[i];
    const std::string rel = std::to_string(op.index);
    PlanNode node;
    node.depth = op.depth;
    node.op = kOpNames[static_cast<size_t>(op.kind)];
    switch (op.kind) {
      case OpKind::kScan:
      case OpKind::kGroupLookup: {
        // The access path, filters and planned records of the relation.
        const ScanSpec& spec = op.scan.spec;
        node.detail = "rel " + rel + ": ";
        if (spec.cell_in != nullptr) {
          node.detail += "CellValue index: " + std::to_string(op.scan.cells) + " cells";
          if (spec.table_in != nullptr) node.detail += "; TableId filter";
        } else if (spec.table_in != nullptr) {
          node.detail += "TableId clustered index: " +
                         std::to_string(op.scan.tables.size()) + " tables";
        } else {
          node.detail += spec.need_quadrant ? "Quadrant partial index" : "full scan";
        }
        if (spec.row_lt >= 0) node.detail += "; RowId < " + std::to_string(spec.row_lt);
        if (!spec.residual.empty()) {
          node.detail +=
              "; " + std::to_string(spec.residual.size()) + " residual preds";
        }
        node.est_rows = 0;
        for (const ScanMorsel& mo : op.scan.morsels) {
          node.est_rows += static_cast<int64_t>(mo.records);
        }
        // A GroupLookup runs no scan tasks: its access path only bounds the
        // lookup join's orientation count, and its filters apply per
        // (TableId, RowId) group.
        if (op.in_place) {
          node.detail += "; read in place by Aggregate, morsel=" + morsel + " records";
        } else if (op.kind == OpKind::kScan) {
          node.detail += "; morsel=" + morsel + " records";
          node.planned_tasks = static_cast<int64_t>(op.scan.morsels.size());
        }
        break;
      }
      case OpKind::kHashBuild:
        node.detail = "smaller input of step " + rel;
        break;
      case OpKind::kHashJoin:
        node.detail = "step " + rel + "; " +
                      (!out.analyzed      ? "build side chosen by size at run time"
                       : op.built_prefix ? "built on the prefix"
                                         : "built on rel " + rel) +
                      "; probe chunk=" + morsel + " rows";
        break;
      case OpKind::kLookupJoin:
        node.detail = "step " + rel + "; rel " + rel +
                      " read by (TableId, RowId) group, not scanned; prefix chunk=" +
                      morsel + " rows";
        break;
      case OpKind::kFilter:
        node.detail = "residual WHERE; " + chunks;
        break;
      case OpKind::kAggregate:
        node.detail = std::to_string(stmt.group_by.size()) + " group keys; input: ";
        if (op.in_place) {
          const RelScan& scan = plan.ops.back().scan;
          node.detail += "scan morsels of rel 0";
          for (const AggSpec& a : op.out.aggs) {
            if (!CountsPostingLists(a, scan.spec)) continue;
            node.detail += ", COUNT(DISTINCT CellValue) per posting list";
            break;
          }
          node.planned_tasks = static_cast<int64_t>(scan.morsels.size());
        } else {
          node.detail += "row stream, " + chunks;
        }
        node.detail += "; " + std::to_string(kMergePartitions) +
                       " merge partitions above " + std::to_string(kAggChunkRows) +
                       " groups";
        break;
      case OpKind::kProject:
        node.detail = stmt.select_star ? std::string("SELECT *")
                                       : std::to_string(stmt.items.size()) + " items";
        node.detail += "; " + chunks;
        break;
      case OpKind::kSortLimit:
        node.detail = std::to_string(stmt.order_by.size()) + " sort keys";
        if (stmt.limit >= 0) node.detail += "; limit " + std::to_string(stmt.limit);
        if (options.dedup_column >= 0) {
          node.detail += "; dedup col " + std::to_string(options.dedup_column) +
                         " top " + std::to_string(options.dedup_limit);
        }
        break;
    }
    if (out.analyzed) {
      // Operators that ran no tasks of their own (a GroupLookup, an in-place
      // Scan, SortLimit) keep -1 time and tasks.
      const OperatorStats& s = plan.stats[i];
      const int64_t tasks = s.tasks.load(std::memory_order_relaxed);
      if (tasks > 0) {
        node.actual_seconds =
            static_cast<double>(s.nanos.load(std::memory_order_relaxed)) * 1e-9;
        node.actual_tasks = tasks;
      }
      node.actual_rows = s.rows;
    }
    out.nodes.push_back(std::move(node));
  }
  return out;
}

}  // namespace

template <typename Store>
Result<QueryResult> ExecuteSelect(const Statement& stmt, const Store& store,
                                  const Dictionary& dict,
                                  const QueryOptions& options) {
  const SelectStmt& select = *stmt.select;
  BLEND_ASSIGN_OR_RETURN(PhysicalPlan plan, PlanSelect(select, store, dict, options));
  const bool describe =
      stmt.explain != ExplainMode::kNone || options.plan_capture != nullptr;
  QueryResult result;
  if (stmt.explain != ExplainMode::kPlan) {
    // Operators record actuals only for a plan rendered after it ran.
    if (describe) plan.stats = std::vector<OperatorStats>(plan.ops.size());
    BLEND_ASSIGN_OR_RETURN(result.rows, RunPlan(&plan, select, store, options));
    result.columns = std::move(plan.ops[0].out.columns);
  }
  if (describe) {
    result.plan = DescribePlan(plan, select, options);
    if (stmt.explain != ExplainMode::kNone) result.explain_text = result.plan.Render();
  }
  return result;
}

template Result<QueryResult> ExecuteSelect<RowStore>(const Statement&, const RowStore&,
                                                     const Dictionary&,
                                                     const QueryOptions&);
template Result<QueryResult> ExecuteSelect<ColumnStore>(const Statement&,
                                                        const ColumnStore&,
                                                        const Dictionary&,
                                                        const QueryOptions&);

}  // namespace blend::sql
