#include "sql/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/hashing.h"
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

/// Records per scan morsel and rows per hash-join build/probe chunk.
constexpr size_t kScanMorselRecords = 8192;
/// Prefix rows per lookup-join task. A prefix row costs a group search and
/// the group's filter and key checks, far more than a scanned record, so a
/// discovery statement's few thousand prefix rows still spread over the
/// pool.
constexpr size_t kLookupChunkRows = 1024;
/// Rows per chunk of the row stream's filter, projection and aggregation.
/// Small for the same reason: a joined statement's stream is a few thousand
/// rows. Integer SUM and COUNT do not depend on it; a double SUM/AVG rounds
/// along its chunk boundaries, which stay fixed for every pool size.
constexpr size_t kAggChunkRows = 2048;
/// Chunk groups above which the aggregation merge runs as kMergePartitions
/// tasks instead of one inline task.
constexpr size_t kParallelMergeGroups = 16384;
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

/// Open-addressing index from 64-bit hashes to dense ids: linear probing
/// (ProbeSlot) over a power-of-two slot array at most half full, doubling as
/// it fills. Ids whose hashes collide take separate slots; the caller's
/// eq(id) tells them apart. Slots follow the high half of Mix64(hash), so
/// hashes that share its low bits (one merge partition's) still spread.
struct SlotIndex {
  struct Slot {
    uint64_t hash;
    uint32_t id;
    bool operator==(const Slot&) const = default;
  };
  static constexpr Slot kFree{0, UINT32_MAX};
  std::vector<Slot> slots;
  size_t used = 0;

  /// The id under `hash` for which eq(id) holds; when there is none, stores
  /// and returns `id`.
  template <typename Eq>
  uint32_t FindOrAdd(uint64_t hash, uint32_t id, const Eq& eq) {
    if (2 * (used + 1) > slots.size()) {
      std::vector<Slot> old(std::max<size_t>(16, 2 * slots.size()), kFree);
      old.swap(slots);
      for (const Slot& s : old) {
        if (s.id == UINT32_MAX) continue;
        slots[ProbeSlot(slots, Mix64(s.hash) >> 32, kFree, [](const Slot&) {
          return false;
        })] = s;
      }
    }
    Slot& slot = slots[ProbeSlot(slots, Mix64(hash) >> 32, kFree, [&](const Slot& s) {
      return s.hash == hash && eq(s.id);
    })];
    if (slot.id != UINT32_MAX) return slot.id;
    slot = {hash, id};
    ++used;
    return id;
  }
};

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
      // An int sum that overflows finalizes as its double sum.
      st->int_only = st->int_only && v.kind == SqlValue::Kind::kInt &&
                     !__builtin_add_overflow(st->isum, v.i, &st->isum);
      st->dsum += v.AsDouble();
      return;
    case AggSpec::Kind::kMin:
      if (v.is_null()) return;
      if (st->minv.is_null() || CompareValues(v, st->minv) < 0) st->minv = v;
      return;
    case AggSpec::Kind::kMax:
      if (v.is_null()) return;
      if (st->maxv.is_null() || CompareValues(v, st->maxv) > 0) st->maxv = v;
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
/// value on CompareValues ties, matching the serial first-seen rule. A
/// posting list cut across chunks reaches a group from both sides of the
/// cut; it counts once.
/// Folding into a fresh state moves `from` (a zero sum plus x is x). An int
/// sum that overflows here finalizes as the double sum, as in UpdateAgg.
void MergeAggState(AggState* into, AggState* from) {
  if (from->first_list != kInvalidCellId && from->first_list == into->last_list) {
    --into->count;
  }
  if (from->last_list != kInvalidCellId) into->last_list = from->last_list;
  into->count += from->count;
  into->dsum += from->dsum;
  into->int_only = into->int_only && from->int_only &&
                   !__builtin_add_overflow(into->isum, from->isum, &into->isum);
  if (into->seen == nullptr) {
    into->seen = std::move(from->seen);
  } else if (from->seen != nullptr) {
    into->seen->ints.insert(from->seen->ints.begin(), from->seen->ints.end());
    into->seen->doubles.insert(from->seen->doubles.begin(), from->seen->doubles.end());
  }
  if (!from->minv.is_null() &&
      (into->minv.is_null() || CompareValues(from->minv, into->minv) < 0)) {
    into->minv = from->minv;
  }
  if (!from->maxv.is_null() &&
      (into->maxv.is_null() || CompareValues(from->maxv, into->maxv) > 0)) {
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

/// A slice of one posting/position list. `cell` is the CellId whose posting
/// list this is, or kInvalidCellId for the Quadrant position list.
struct ListSlice {
  std::span<const RecordPos> positions;
  CellId cell = kInvalidCellId;
};

/// One unit of scan work: list slices in scan order (several whole short
/// lists packed together, or one slice of a long list), or, when `lists` is
/// empty, the contiguous physical positions [begin, end).
struct ScanMorsel {
  std::vector<ListSlice> lists;
  size_t begin = 0;
  size_t end = 0;
  size_t records = 0;  ///< positions the morsel covers
};

/// Appends `list` to the scan. A list of at most kScanMorselRecords records
/// joins the last morsel while that morsel holds lists and stays within
/// kScanMorselRecords, so a run of short lists is one task; a longer list is
/// cut into slices of kScanMorselRecords records.
void AppendListMorsels(std::span<const RecordPos> list, CellId cell,
                       std::vector<ScanMorsel>* morsels) {
  const size_t n = list.size();
  if (n <= kScanMorselRecords && !morsels->empty() &&
      !morsels->back().lists.empty() &&
      morsels->back().records + n <= kScanMorselRecords) {
    morsels->back().lists.push_back({list, cell});
    morsels->back().records += n;
    return;
  }
  for (size_t b = 0; b < n; b += kScanMorselRecords) {
    const size_t e = std::min(n, b + kScanMorselRecords);
    morsels->push_back({{{list.subspan(b, e - b), cell}}, 0, 0, e - b});
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
/// the clustered-index access path walks their ranges in this order. A
/// decimal item names the table whose id it equals, as `TableId = 1.0` does.
template <typename Store>
std::vector<TableId> ResolveTableIds(const Expr& table_in, const Store& store) {
  const auto n = static_cast<int64_t>(store.NumTables());
  std::vector<TableId> ids;
  for (int64_t id : table_in.in_ints) {
    if (id >= 0 && id < n) ids.push_back(static_cast<TableId>(id));
  }
  for (double d : table_in.in_doubles) {
    if (d >= 0 && d < static_cast<double>(n) && d == std::floor(d)) {
      ids.push_back(static_cast<TableId>(d));
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// The per-record filters of a classified scan: a TableId IN-list that is
/// not the access path (it sits next to a CellValue IN-list), the RowId
/// bound, Quadrant IS NOT NULL and the residual conjuncts, bound once and
/// block-evaluated. Evaluation is read-only and thread-safe.
struct RecordFilter {
  /// The TableId IN-list's tables, ascending, when it is a filter.
  std::optional<std::vector<TableId>> tables;
  int64_t row_lt = -1;
  bool need_quadrant = false;
  std::vector<BoundExprPtr> preds;
  std::vector<BlockExpr> pred_blocks;

  /// Every filter but the residual conjuncts.
  template <typename Store>
  bool Cheap(const Store& store, RecordPos p) const {
    if (tables && !std::binary_search(tables->begin(), tables->end(), store.table(p))) {
      return false;
    }
    if (row_lt >= 0 && store.row(p) >= row_lt) return false;
    return !need_quadrant || store.quadrant(p) != kQuadrantNull;
  }

  /// Writes the positions of `batch` (at most kBlockRows) that pass every
  /// filter to `out`, in order; returns how many.
  template <typename Store>
  size_t Keep(const Store& store, std::span<const RecordPos> batch, RecordPos* out,
              BlockRegs* regs) const {
    size_t n = 0;
    for (RecordPos p : batch) {
      out[n] = p;
      n += Cheap(store, p) ? 1 : 0;
    }
    return KeepWhereAll(store, pred_blocks, SelfPos{}, out, n, regs);
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
  std::vector<TableId> tables;  ///< the TableId IN-list's tables, ascending
  size_t cells = 0;             ///< the CellValue index's resolved cells
};

template <typename Store>
Result<RelScan> BindRelScan(const AnalyzedRel& rel, const Store& store,
                            const Dictionary& dict) {
  RelScan scan;
  scan.spec = ClassifyScan(rel.scan_pred);
  const ScanSpec& spec = scan.spec;
  RecordFilter& filter = scan.filter;
  if (spec.table_in != nullptr) scan.tables = ResolveTableIds(*spec.table_in, store);
  if (spec.cell_in != nullptr && spec.table_in != nullptr) filter.tables = scan.tables;
  filter.row_lt = spec.row_lt;
  filter.need_quadrant = spec.need_quadrant;
  Binder binder(&dict, {AllFieldsVisible("")});
  for (const Expr* c : spec.residual) {
    BLEND_ASSIGN_OR_RETURN(auto b, binder.BindRowExpr(*c));
    filter.preds.push_back(std::move(b));
  }
  filter.pred_blocks = CompileBlockExprs(filter.preds);

  if (spec.cell_in != nullptr) {
    // Access path 1: the in-database hash index on CellValue.
    const std::vector<CellId> cells = ResolveCellIds(*spec.cell_in, dict);
    scan.cells = cells.size();
    for (CellId id : cells) AppendListMorsels(store.PostingList(id), id, &scan.morsels);
  } else if (spec.table_in != nullptr) {
    // Access path 2: the clustered index on TableId.
    for (TableId id : scan.tables) {
      auto [b, e] = store.TableRange(id);
      AppendRangeMorsels(b, e, &scan.morsels);
    }
  } else if (spec.need_quadrant) {
    // Access path 3: the partial index on Quadrant (correlation seeker's
    // numeric-cell scan).
    AppendListMorsels(store.QuadrantPositions(), kInvalidCellId, &scan.morsels);
  } else {
    // Access path 4: full scan.
    AppendRangeMorsels(0, store.NumRecords(), &scan.morsels);
  }
  return scan;
}

/// Calls fn(batch, cell) on the positions of `mo` in scan order, at most
/// kPostingBlockLen positions per batch, until fn returns false, where
/// `cell` is the ListSlice::cell of the batch's list (kInvalidCellId off the
/// lists); returns false when fn stopped the walk.
template <typename Fn>
bool WalkMorsel(const ScanMorsel& mo, const Fn& fn) {
  RecordPos range[kPostingBlockLen];
  for (size_t b = mo.begin; b < mo.end; b += kPostingBlockLen) {
    const size_t n = std::min(kPostingBlockLen, mo.end - b);
    for (size_t i = 0; i < n; ++i) range[i] = static_cast<RecordPos>(b + i);
    if (!fn(std::span<const RecordPos>(range, n), kInvalidCellId)) return false;
  }
  for (const ListSlice& s : mo.lists) {
    for (size_t b = 0; b < s.positions.size(); b += kPostingBlockLen) {
      const size_t n = std::min(kPostingBlockLen, s.positions.size() - b);
      if (!fn(s.positions.subspan(b, n), s.cell)) return false;
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
    BlockRegs regs;
    WalkMorsel(scan.morsels[m], [&](std::span<const RecordPos> batch, CellId) {
      const size_t at = out.size();
      out.resize(at + batch.size());
      out.resize(at + scan.filter.Keep(store, batch, out.data() + at, &regs));
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

/// One binary hash-join step: extends the joined prefix `rows` with matches
/// from `scan` (relation index `step_side`). Builds on the smaller input —
/// the new relation when `scan.size() <= rows.size()`, else the prefix — and
/// reports which in `*built_prefix`. Parallelism: build-side hashes are
/// precomputed in parallel chunks (the field reads dominate the build),
/// insertion stays serial to preserve exact bucket order, and the probe side
/// is morselized with per-morsel output buffers concatenated in morsel order
/// — emit order is byte-identical to a serial probe loop: probe-major, each
/// probe entry's matches in ascending build index. Each morsel block-evaluates
/// the ON residual over its key matches as every kBlockRows of them arrive.
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
  const std::vector<BlockExpr> residual = CompileBlockExprs(keys.residual);
  BLEND_RETURN_NOT_OK(RunTasks(options, TraceStage::kJoinProbe, probe_stats,
                               probe_chunks, [&](size_t c) {
    std::vector<RowCtx>& out = parts[c];
    BlockRegs regs;
    size_t kept = 0;  // out[0, kept) passed the residual
    auto keep = [&] {
      kept += KeepWhereAll(store, residual, RowPos{}, out.data() + kept,
                           out.size() - kept, &regs);
      out.resize(kept);
    };
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
        out.push_back(ctx);
        out.back().pos[step_side] = p;
        if (out.size() - kept == kBlockRows) keep();
      }
    }
    keep();
  }));
  std::vector<RowCtx> joined = ConcatParts(std::move(parts));
  NoteRows(options.trace, TraceStage::kJoinProbe, probe_stats, joined.size());
  return joined;
}

// ---------------------------------------------------------------------------
// Lookup join on the (TableId, RowId) store order.
// ---------------------------------------------------------------------------

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

/// Sorts `v` by the high 32 bits of its elements, keeping equal ones in
/// order: an LSD radix sort in 11-bit digits, up to the largest element's.
void SortByHigh32(std::vector<uint64_t>* v) {
  const uint64_t top = v->empty() ? 0 : *std::max_element(v->begin(), v->end());
  std::vector<uint64_t> tmp(v->size());
  for (int shift = 32; shift < 64 && (top >> shift) != 0; shift += 11) {
    size_t next[2048] = {};
    for (uint64_t x : *v) ++next[(x >> shift) & 2047];
    std::exclusive_scan(next, next + 2048, next, size_t{0});
    for (uint64_t x : *v) tmp[next[(x >> shift) & 2047]++] = x;
    v->swap(tmp);
  }
}

/// One join step that looks the new relation up instead of scanning it. For
/// each prefix row it reads the row's (TableId, RowId) record group: in place
/// around the prefix record when that record supplies both keys
/// (RecordGroupAt), else by search (JoinKeyGroup). It keeps the positions
/// that pass the relation's scan filters, the step's other ON keys (the
/// group satisfies TableId and RowId, never NULL) and its ON residual; the
/// residual conjuncts and the ON residual are block-evaluated per task.
///
/// Output is byte-identical to HashJoinStep over ScanRel's positions, whose
/// eligible access paths scan in ascending position. HashJoinStep probes
/// with the prefix when `scan.size() <= rows.size()`; the filtered scan is
/// counted here in scan order, stopping past rows.size(), so the decision
/// never costs more than the scan it replaces. Probing with the prefix emits
/// prefix-major, matches ascending. Probing with the scan emits
/// position-major, prefix rows ascending: two prefix rows' groups are the
/// same or disjoint, so the prefix rows, ordered by a position in their
/// group and then index, form runs that share a group, and each run emits
/// position by position. The count and the ordering run serially and are
/// timed on the node when it records actuals.
template <typename Store>
Result<std::vector<RowCtx>> LookupJoinStep(const Store& store,
                                           const std::vector<RowCtx>& rows,
                                           const RelScan& rel,
                                           const StepKeys& keys, uint8_t step_side,
                                           const QueryOptions& options,
                                           OperatorStats* stats) {
  size_t table_key = 0, row_key = 0;
  for (size_t i = 0; i < keys.right.size(); ++i) {
    if (keys.left[i].second != keys.right[i]) continue;
    if (keys.right[i] == Field::kTable) table_key = i;
    if (keys.right[i] == Field::kRow) row_key = i;
  }
  const uint8_t table_side = keys.left[table_key].first;
  const uint8_t row_side = keys.left[row_key].first;
  StepKeys other_keys;  // the ON keys the group does not guarantee
  for (size_t i = 0; i < keys.right.size(); ++i) {
    if (i == table_key || i == row_key) continue;
    other_keys.left.push_back(keys.left[i]);
    other_keys.right.push_back(keys.right[i]);
  }
  // Prefix row i's group; empty when the relation's TableId index skips it.
  auto group_of = [&](size_t i) -> std::pair<RecordPos, RecordPos> {
    const RecordPos q = rows[i].pos[table_side];
    const TableId t = store.table(q);
    if (rel.spec.table_in != nullptr &&
        !std::binary_search(rel.tables.begin(), rel.tables.end(), t)) {
      return {0, 0};
    }
    if (table_side == row_side) return RecordGroupAt(store, q);
    return JoinKeyGroup(store, t, store.row(rows[i].pos[row_side]));
  };

  // Probing with the scan: (position << 32 | prefix index) per prefix row,
  // ascending, the position in the row's group; a row whose group is
  // skipped or empty emits nothing and shares no run.
  std::vector<uint64_t> order;
  bool probe_with_prefix;
  {
    TraceSpan serial(nullptr, TraceStage::kJoinProbe, stats);
    size_t passing = 0;
    RecordPos kept[kBlockRows];
    BlockRegs regs;
    auto count = [&](std::span<const RecordPos> batch, CellId) {
      passing += rel.filter.Keep(store, batch, kept, &regs);
      return passing <= rows.size();
    };
    for (const ScanMorsel& mo : rel.morsels) {
      if (ShouldStop(options.control) || !WalkMorsel(mo, count)) break;
    }
    BLEND_RETURN_NOT_OK(CheckControl(options.control, "lookup join"));
    probe_with_prefix = passing <= rows.size();
    for (size_t i = 0; i < rows.size() && !probe_with_prefix; ++i) {
      RecordPos at = rows[i].pos[table_side];  // a position in its own group
      if (table_side != row_side) {
        const auto [lo, hi] = group_of(i);
        if (lo == hi) continue;
        at = lo;
      }
      order.push_back(static_cast<uint64_t>(at) << 32 | i);
    }
    SortByHigh32(&order);  // `order` was built in ascending prefix index
  }

  // Entry j of the emission order, and whether entry j shares `group` (a
  // run only forms when probing with the scan).
  const size_t m = probe_with_prefix ? rows.size() : order.size();
  auto index_of = [&](size_t j) {
    return probe_with_prefix ? j : static_cast<size_t>(order[j] & 0xFFFFFFFFu);
  };
  auto in_run = [&](size_t j, std::pair<RecordPos, RecordPos> group) {
    if (probe_with_prefix || j >= m) return false;
    const auto at = static_cast<RecordPos>(order[j] >> 32);
    return at >= group.first && at < group.second;
  };
  // The first entry from j on that does not share entry j - 1's group.
  auto run_end = [&](size_t j) {
    for (const auto group = group_of(index_of(j - 1)); in_run(j, group);) ++j;
    return j;
  };
  const std::vector<BlockExpr> residual = CompileBlockExprs(keys.residual);
  const size_t num_chunks = NumChunks(m, kLookupChunkRows);
  std::vector<std::vector<RowCtx>> parts(num_chunks);
  BLEND_RETURN_NOT_OK(RunTasks(options, TraceStage::kJoinProbe, stats, num_chunks,
                               [&](size_t c) {
    // A chunk starts and ends on run boundaries.
    size_t b = c * kLookupChunkRows;
    size_t e = std::min(m, b + kLookupChunkRows);
    if (!probe_with_prefix) {
      b = b > 0 ? run_end(b) : 0;
      e = run_end(e);
    }
    std::vector<RowCtx>& out = parts[c];
    std::vector<size_t> run;
    for (size_t j = b; j < e;) {
      const auto group = group_of(index_of(j));
      run.assign(1, index_of(j++));
      while (in_run(j, group)) run.push_back(index_of(j++));
      if (run.size() > 1) std::sort(run.begin(), run.end());
      for (RecordPos p = group.first; p < group.second; ++p) {
        if (!rel.filter.Cheap(store, p)) continue;
        for (size_t i : run) {
          if (!StepKeysEqual(store, other_keys, rows[i], p)) continue;
          out.push_back(rows[i]);
          out.back().pos[step_side] = p;
        }
      }
    }
    BlockRegs regs;
    auto at_step = [step_side](const RowCtx& r, uint8_t) { return r.pos[step_side]; };
    const size_t kept = KeepWhereAll(store, rel.filter.pred_blocks, at_step, out.data(),
                                     out.size(), &regs);
    out.resize(KeepWhereAll(store, residual, RowPos{}, out.data(), kept, &regs));
  }));
  std::vector<RowCtx> joined = ConcatParts(std::move(parts));
  NoteRows(options.trace, TraceStage::kJoinProbe, stats, joined.size());
  return joined;
}

// ---------------------------------------------------------------------------
// Output assembly: ordering shared by projection and aggregation.
// ---------------------------------------------------------------------------

/// Bound ORDER BY: per item, the output column it names (ref >= 0) or its
/// bound expression, and its direction.
struct SortKeys {
  std::vector<int> ref;
  std::vector<BoundExprPtr> exprs;
  std::vector<bool> desc;
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

/// Output rows in flat arrays, `width` values and (under ORDER BY) `sort_width`
/// sort values per row; SortAndLimit builds row vectors for the kept ones.
struct OutputRows {
  size_t num_rows = 0;
  size_t width = 0;
  size_t sort_width = 0;
  std::vector<SqlValue> vals;
  std::vector<SqlValue> sort_vals;

  OutputRows() = default;
  OutputRows(size_t rows, const OutputBinding& b, const SelectStmt& stmt)
      : num_rows(rows),
        width(b.items.size()),
        sort_width(stmt.order_by.empty() ? 0 : b.sort.ref.size()),
        vals(rows * width),
        sort_vals(rows * sort_width) {}

  const SqlValue* Row(size_t r) const { return vals.data() + r * width; }
  const SqlValue* SortRow(size_t r) const { return sort_vals.data() + r * sort_width; }

  /// Evaluates row `r`'s select items and sort keys; `leaf` resolves the
  /// bound expressions.
  template <typename Leaf>
  void Fill(size_t r, const OutputBinding& b, const Leaf& leaf) {
    SqlValue* row = vals.data() + r * width;
    for (size_t i = 0; i < width; ++i) row[i] = EvalExpr(*b.items[i], leaf);
    SqlValue* sort = sort_vals.data() + r * sort_width;
    for (size_t i = 0; i < sort_width; ++i) {
      const int ref = b.sort.ref[i];
      sort[i] = ref >= 0 ? row[ref] : EvalExpr(*b.sort.exprs[i], leaf);
    }
  }
};

constexpr size_t kDedupSortRows = 64;  ///< SortAndLimit: least dedup prefix

/// Orders the output rows by their sort values, breaking ties on the output
/// values and then the row index, applies the engine-side dedup-top-k spec
/// (QueryOptions::dedup_column / dedup_limit), then LIMIT, and builds only
/// the rows it keeps. It sorts row indices only as deep as the kept rows
/// reach: the first LIMIT rows, or under dedup a prefix that doubles from
/// max(cap, kDedupSortRows) rows, or all rows at once when they are at most 8x
/// that; the order is total, so every prefix is the full sort's. Shared by
/// Project and Aggregate, so their dedup cannot diverge.
/// The work is timed on `stats`, the SortLimit node's, as one inline task.
std::vector<std::vector<SqlValue>> SortAndLimit(const OutputRows& out,
                                                const std::vector<bool>& desc,
                                                int64_t limit,
                                                const QueryOptions& options,
                                                OperatorStats* stats) {
  TraceSpan span(nullptr, TraceStage::kProjection, stats);
  const size_t n = out.num_rows;
  const auto col = static_cast<size_t>(options.dedup_column);
  const bool dedup = options.dedup_column >= 0 && col < out.width;
  // Rows kept: LIMIT, and under dedup one per distinct value up to dedup_limit
  // (< 0 = unbounded).
  size_t cap = limit >= 0 ? std::min(n, static_cast<size_t>(limit)) : n;
  if (dedup && options.dedup_limit >= 0) {
    cap = std::min(cap, static_cast<size_t>(options.dedup_limit));
  }
  const size_t reach = dedup ? std::max(cap, kDedupSortRows) : cap;  // first prefix
  auto cmp = [&](uint32_t a, uint32_t b) {
    const SqlValue* ka = out.SortRow(a);
    const SqlValue* kb = out.SortRow(b);
    for (size_t i = 0; i < out.sort_width; ++i) {
      int c = CompareValues(ka[i], kb[i]);
      if (desc[i]) c = -c;
      if (c != 0) return c < 0;
    }
    const SqlValue* ra = out.Row(a);
    const SqlValue* rb = out.Row(b);
    for (size_t i = 0; i < out.width; ++i) {
      const int c = CompareValues(ra[i], rb[i]);
      if (c != 0) return c < 0;
    }
    return a < b;
  };
  std::vector<uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  // idx[0, sorted) is in final order.
  size_t sorted = out.sort_width > 0 && !desc.empty() ? 0 : n;
  SlotIndex distinct;  // the kept rows' dedup values, by index into `kept`
  std::vector<uint32_t> kept;
  for (size_t i = 0; i < n && kept.size() < cap; ++i) {
    if (i == sorted) {
      const size_t m =
          n <= 8 * reach ? n : std::min(n, std::max({i + 1, 2 * sorted, reach}));
      if (m == n) {
        std::sort(idx.begin() + static_cast<ptrdiff_t>(sorted), idx.end(), cmp);
      } else {
        std::partial_sort(idx.begin() + static_cast<ptrdiff_t>(sorted),
                          idx.begin() + static_cast<ptrdiff_t>(m), idx.end(), cmp);
      }
      sorted = m;
    }
    const uint32_t r = idx[i];
    if (dedup) {
      // Keep, in order, the first row per distinct dedup-column value.
      const SqlValue& v = out.Row(r)[col];
      const auto id = static_cast<uint32_t>(kept.size());
      if (distinct.FindOrAdd(v.Hash(), id, [&](uint32_t k) {
            return out.Row(kept[k])[col] == v;
          }) != id) {
        continue;
      }
    }
    kept.push_back(r);
  }
  std::vector<std::vector<SqlValue>> rows;
  rows.reserve(kept.size());
  for (uint32_t r : kept) rows.emplace_back(out.Row(r), out.Row(r) + out.width);
  if (stats != nullptr) stats->rows = static_cast<int64_t>(rows.size());
  return rows;
}

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
/// chunk per morsel, with no position or row vectors. ForEachBlock(c, fn)
/// calls fn(rows, cell) on chunk c's rows in input order, at most
/// kPostingBlockLen at a time, until fn returns false: slices of the row
/// stream, or a scan batch's passing positions with `cell`, the batch's
/// posting list on the CellValue index (kInvalidCellId elsewhere).
template <typename Store>
struct AggInput {
  const Store* store = nullptr;
  const std::vector<RowCtx>* rows = nullptr;  ///< the row stream, or
  const RelScan* scan = nullptr;              ///< the scan walked in place

  size_t NumChunks() const {
    return scan != nullptr ? scan->morsels.size()
                           : sql::NumChunks(rows->size(), kAggChunkRows);
  }

  template <typename Fn>
  void ForEachBlock(size_t c, const Fn& fn) const {
    if (scan == nullptr) {
      const size_t e = std::min(rows->size(), (c + 1) * kAggChunkRows);
      for (size_t b = c * kAggChunkRows; b < e; b += kPostingBlockLen) {
        const size_t n = std::min(kPostingBlockLen, e - b);
        if (!fn(std::span<const RowCtx>(rows->data() + b, n), kInvalidCellId)) return;
      }
      return;
    }
    RecordPos passing[kBlockRows];
    RowCtx kept[kBlockRows];
    BlockRegs regs;
    WalkMorsel(scan->morsels[c], [&](std::span<const RecordPos> batch, CellId cell) {
      const size_t n = scan->filter.Keep(*store, batch, passing, &regs);
      for (size_t k = 0; k < n; ++k) kept[k].pos[0] = passing[k];
      return n == 0 || fn(std::span<const RowCtx>(kept, n), cell);
    });
  }
};

/// One group key packed into a uint64: `width` bits at `shift`.
struct PackedField {
  uint8_t side;
  Field field;
  int shift;
  int width;
};

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

/// Gathers the packed keys of `rows` into `out`, one key field at a
/// time (TableId, ColumnId, RowId or CellValue, none of them nullable);
/// false when a value overflows its packed width.
template <typename Store>
bool GatherPackedKeys(const Store& store, const std::vector<PackedField>& packed,
                      std::span<const RowCtx> rows, uint64_t* out) {
  std::fill(out, out + rows.size(), 0);
  uint64_t overflow = 0;
  for (const PackedField& pf : packed) {
    auto gather = [&](const auto& value) {
      for (size_t i = 0; i < rows.size(); ++i) {
        const int64_t v = value(rows[i].pos[pf.side]);
        const auto raw = static_cast<uint64_t>(v);
        overflow |= raw >> pf.width;
        out[i] |= raw << pf.shift;
      }
    };
    switch (pf.field) {
      case Field::kTable: gather([&](RecordPos p) { return store.table(p); }); break;
      case Field::kColumn: gather([&](RecordPos p) { return store.column(p); }); break;
      case Field::kRow: gather([&](RecordPos p) { return store.row(p); }); break;
      default: gather([&](RecordPos p) { return store.cell(p); }); break;
    }
  }
  return overflow == 0;
}

/// Groups in insertion order: each group's key hash and first input ordinal,
/// its key values and aggregate states in flat arrays (`num_keys` and
/// `num_aggs` per group) and a SlotIndex from hashes to groups, so adding a
/// group allocates nothing of its own. A packed key is its own hash: a hash
/// hit is the group, and a new group's key values unpack from its hash.
struct GroupTable {
  struct Group {
    uint64_t hash;
    size_t first;
  };
  std::vector<PackedField> packed;  ///< empty when keys do not pack
  size_t num_keys = 0;
  size_t num_aggs = 0;
  std::vector<Group> groups;
  std::vector<SqlValue> keys;
  std::vector<AggState> states;
  SlotIndex index;

  size_t size() const { return groups.size(); }
  const SqlValue* KeysOf(uint32_t g) const { return keys.data() + g * num_keys; }
  AggState* StatesOf(uint32_t g) { return states.data() + g * num_aggs; }
  const AggState* StatesOf(uint32_t g) const { return states.data() + g * num_aggs; }
  /// Bytes of the groups, key values, aggregate states and slots.
  int64_t Bytes() const {
    return static_cast<int64_t>(size() * (sizeof(Group) + num_keys * sizeof(SqlValue) +
                                          num_aggs * sizeof(AggState)) +
                                index.slots.size() * sizeof(SlotIndex::Slot));
  }

  /// The group with `hash` and key values `key` (unread when packed); a new
  /// one is appended with first ordinal `first` and fresh aggregate states.
  uint32_t FindOrAdd(uint64_t hash, size_t first, const SqlValue* key) {
    const auto gi = static_cast<uint32_t>(groups.size());
    const bool exact = !packed.empty();
    const uint32_t g = index.FindOrAdd(hash, gi, [&](uint32_t o) {
      return exact || std::equal(key, key + num_keys, KeysOf(o));
    });
    if (g != gi) return g;
    SqlValue unpacked[4];  // packed keys are at most four 16-bit fields
    for (size_t k = 0; k < packed.size(); ++k) {
      const uint64_t mask = (uint64_t{1} << packed[k].width) - 1;
      unpacked[k] = SqlValue::Int(
          static_cast<int64_t>((hash >> packed[k].shift) & mask));
    }
    Append(hash, first, exact ? unpacked : key);
    return gi;
  }

  /// Appends a group with fresh aggregate states, unindexed.
  void Append(uint64_t hash, size_t first, const SqlValue* key) {
    groups.push_back({hash, first});
    keys.insert(keys.end(), key, key + num_keys);
    states.resize(states.size() + num_aggs);
  }
};

/// Aggregates `input` into groups in first-appearance order. Each chunk
/// aggregates into its own GroupTable a block at a time: it gathers the
/// block's keys (packed field by field, or block-evaluated generic keys and
/// their hashes), probes them, then block-evaluates each aggregate's
/// argument and updates the aggregate across the block. With more than
/// one chunk, a radix-partitioned merge folds the chunks, each worker owning
/// a disjoint hash partition and folding chunks in ascending chunk order (the
/// double-sum rounding order); a sort on first ordinals restores
/// first-appearance order. Chunks and merge order depend only on the input,
/// so the result is byte-identical for every pool size. A value that
/// overflows its packed width reruns the chunks on generic keys. The chunk
/// tables are charged to the memory budget on top of what the query already
/// holds; chunk and merge tasks both count towards the node's `stats`.
template <typename Store>
Result<GroupTable> AggregateGroups(const AggInput<Store>& input,
                                   const OutputBinding& agg, ScopedMemoryCharge* mem,
                                   const QueryOptions& options, OperatorStats* stats) {
  const Store& store = *input.store;
  const std::vector<AggSpec>& aggs = agg.aggs;
  const size_t num_keys = agg.keys.size();
  std::vector<uint8_t> list_count(aggs.size(), 0);
  for (size_t a = 0; a < aggs.size() && input.scan != nullptr; ++a) {
    list_count[a] = CountsPostingLists(aggs[a], input.scan->spec) ? 1 : 0;
  }
  const std::vector<PackedField> packed = PackKeys(agg.keys);
  const std::vector<BlockExpr> key_blocks = CompileBlockExprs(agg.keys);
  std::vector<std::optional<BlockExpr>> arg_blocks(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].arg != nullptr && !list_count[a]) arg_blocks[a].emplace(*aggs[a].arg);
  }

  const size_t num_chunks = input.NumChunks();
  auto fresh = [&](bool pack) {
    return GroupTable{pack ? packed : std::vector<PackedField>{}, num_keys, aggs.size(),
                      {}, {}, {}, {}};
  };
  std::vector<GroupTable> chunks;
  std::vector<uint8_t> overflowed(num_chunks, 0);
  auto aggregate_chunks = [&](bool pack) {
    chunks.clear();
    for (size_t c = 0; c < num_chunks; ++c) chunks.push_back(fresh(pack));
    return RunTasks(options, TraceStage::kAggregation, stats, num_chunks,
                    [&](size_t c) {
      GroupTable& table = chunks[c];
      // Row k of chunk c has ordinal (c << 32) + k; chunks hold far fewer
      // than 2^32 rows.
      size_t ordinal = c << 32;
      uint64_t hashes[kPostingBlockLen];
      uint32_t group_of[kPostingBlockLen];
      std::vector<SqlValue> key_vals(pack ? 0 : kPostingBlockLen * num_keys);
      BlockRegs regs;
      input.ForEachBlock(c, [&](std::span<const RowCtx> rows, CellId cell) {
        const size_t n = rows.size();
        if (pack && !GatherPackedKeys(store, packed, rows, hashes)) {
          overflowed[c] = 1;
          return false;
        }
        if (!pack) std::fill(hashes, hashes + n, 0x13198A2E03707344ULL);
        for (size_t k = 0; !pack && k < num_keys; ++k) {
          const ValueBlock& v = key_blocks[k].Eval(store, rows, RowPos{}, &regs);
          for (size_t i = 0; i < n; ++i) {
            key_vals[i * num_keys + k] = v.Get(i);
            hashes[i] = HashCombine(hashes[i], key_vals[i * num_keys + k].Hash());
          }
        }
        for (size_t i = 0; i < n; ++i) {
          const SqlValue* key = pack ? nullptr : key_vals.data() + i * num_keys;
          group_of[i] = table.FindOrAdd(hashes[i], ordinal + i, key);
        }
        ordinal += n;
        for (size_t a = 0; a < aggs.size(); ++a) {
          const ValueBlock* arg =
              arg_blocks[a] ? &arg_blocks[a]->Eval(store, rows, RowPos{}, &regs)
                            : nullptr;
          for (size_t i = 0; i < n; ++i) {
            AggState* st = table.StatesOf(group_of[i]) + a;
            if (list_count[a]) {
              CountPostingList(st, cell);
            } else if (arg == nullptr) {
              ++st->count;  // COUNT(*)
            } else {
              UpdateAgg(aggs[a], st, arg->Get(i));
            }
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
  int64_t chunk_bytes = 0;
  for (const GroupTable& t : chunks) {
    chunk_groups += t.size();
    chunk_bytes += t.Bytes();
  }
  BLEND_RETURN_NOT_OK(mem->ChargeTo(mem->charged() + chunk_bytes));

  // A single chunk is already in first-appearance order.
  if (num_chunks == 0) return fresh(pack);
  if (num_chunks == 1) return std::move(chunks[0]);
  // Partition p folds chunks 1.. into chunk 0's groups of its partition, so
  // a single partition appends new groups in first-appearance order. A small
  // merge runs as that one inline task: waking the pool for kMergePartitions
  // tasks costs more than folding a few thousand groups.
  const size_t num_parts = chunk_groups > kParallelMergeGroups ? kMergePartitions : 1;
  auto fold = [&](GroupTable* into, GroupTable* from, uint32_t g) {
    const GroupTable::Group& fg = from->groups[g];
    const uint32_t gi = into->FindOrAdd(fg.hash, fg.first, from->KeysOf(g));
    into->groups[gi].first = std::min(into->groups[gi].first, fg.first);
    for (size_t a = 0; a < aggs.size(); ++a) {
      MergeAggState(into->StatesOf(gi) + a, from->StatesOf(g) + a);
    }
  };
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
        if ((Mix64(chunk.groups[g].hash) & (num_parts - 1)) != part) continue;
        fold(&merged, &chunk, g);
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
  for (const auto& [first, at] : order) fold(&all, &parts[at.first], at.second);
  return all;
}

/// Finalizes each group's aggregates and projects the groups through the
/// select items into flat output rows.
OutputRows EmitGroups(const GroupTable& groups, const OutputBinding& agg,
                      const SelectStmt& stmt) {
  OutputRows out(groups.size(), agg, stmt);
  std::vector<SqlValue> agg_vals(agg.aggs.size());
  for (uint32_t g = 0; g < groups.size(); ++g) {
    const AggState* states = groups.StatesOf(g);
    for (size_t a = 0; a < agg.aggs.size(); ++a) {
      agg_vals[a] = FinalizeAgg(agg.aggs[a], states[a]);
    }
    const SqlValue* keys = groups.KeysOf(g);
    out.Fill(g, agg, [&](const BoundExpr& b) -> SqlValue {
      if (b.kind == BKind::kAggRef) return agg_vals[b.ref];
      if (b.kind == BKind::kKeyRef) return keys[b.ref];
      return SqlValue::Null();  // unreachable: fields were rejected at bind
    });
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

/// The residual WHERE, chunk-parallel and block-evaluated: per-chunk
/// surviving-row buffers concatenated in chunk order keep the row stream
/// identical to a serial filter loop.
template <typename Store>
Result<std::vector<RowCtx>> FilterRows(const std::vector<RowCtx>& rows,
                                       const BoundExpr& pred, const Store& store,
                                       const QueryOptions& options,
                                       OperatorStats* stats) {
  const size_t n = rows.size();
  const size_t num_chunks = NumChunks(n, kAggChunkRows);
  std::vector<std::vector<RowCtx>> parts(num_chunks);
  const std::vector<BlockExpr> preds = {BlockExpr(pred)};
  BLEND_RETURN_NOT_OK(RunTasks(options, TraceStage::kFilter, stats, num_chunks,
                               [&](size_t c) {
    std::vector<RowCtx>& out = parts[c];
    const size_t b = c * kAggChunkRows;
    out.assign(rows.data() + b, rows.data() + std::min(n, b + kAggChunkRows));
    BlockRegs regs;
    out.resize(KeepWhereAll(store, preds, RowPos{}, out.data(), out.size(), &regs));
  }));
  std::vector<RowCtx> kept = ConcatParts(std::move(parts));
  if (stats != nullptr) stats->rows = static_cast<int64_t>(kept.size());
  return kept;
}

/// Non-aggregate projection of the row stream, chunk-parallel: each chunk
/// writes its own rows of the flat output, so the row order is the serial
/// one exactly.
template <typename Store>
Result<OutputRows> ProjectRows(const std::vector<RowCtx>& rows,
                               const OutputBinding& proj, const SelectStmt& stmt,
                               const Store& store, const QueryOptions& options,
                               OperatorStats* stats) {
  const size_t n = rows.size();
  OutputRows out(n, proj, stmt);
  BLEND_RETURN_NOT_OK(RunTasks(options, TraceStage::kProjection, stats,
                               NumChunks(n, kAggChunkRows), [&](size_t c) {
    const size_t e = std::min(n, (c + 1) * kAggChunkRows);
    for (size_t r = c * kAggChunkRows; r < e; ++r) {
      out.Fill(r, proj, [&](const BoundExpr& bx) {
        return FieldValue(store, bx.field, rows[r].pos[bx.side]);
      });
    }
  }));
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
        if (stmt.group_by.empty() && groups.size() == 0) groups.Append(0, 0, nullptr);
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
  // Without a SortLimit (no ORDER BY, LIMIT or dedup) this keeps every row.
  const bool sort_limit =
      plan->ops.size() > 1 && plan->ops[1].kind == OpKind::kSortLimit;
  return SortAndLimit(out, plan->ops[0].out.sort.desc, stmt.limit, options,
                      sort_limit ? plan->StatsOf(1) : nullptr);
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
                      std::to_string(kLookupChunkRows) + " rows";
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
                       " merge partitions above " +
                       std::to_string(kParallelMergeGroups) + " groups";
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
      // Scan) keep -1 time and tasks; SortLimit runs one inline task.
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
