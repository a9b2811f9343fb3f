#include "sql/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <unordered_map>

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
/// caused them) and a QueueWaitProbe records the dispatch latency of the
/// group's first task. Both are inert for a null trace — no clock reads —
/// and neither touches morsel geometry, task order, or merge order.
template <typename Fn>
[[nodiscard]] Status RunTasks(Scheduler* sched, const QueryControl* control,
                              QueryTrace* trace, TraceStage stage,
                              size_t num_tasks, const Fn& fn) {
  const char* label = TraceStageName(stage);
  BLEND_RETURN_NOT_OK(CheckControl(control, label));
  QueueWaitProbe queue_wait(trace);
  if (sched == nullptr) {
    for (size_t t = 0; t < num_tasks; ++t) {
      if (ShouldStop(control)) break;
      queue_wait.NoteTaskStart();
      TraceSpan span(trace, stage);
      fn(t);
    }
  } else {
    sched->ParallelFor(num_tasks, [&](size_t t) {
      if (ShouldStop(control)) return;
      queue_wait.NoteTaskStart();
      TraceSpan span(trace, stage);
      fn(t);
    });
  }
  return CheckControl(control, label);
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

struct AggState {
  int64_t count = 0;
  double dsum = 0;
  int64_t isum = 0;
  bool int_only = true;
  SqlValue minv = SqlValue::Null();
  SqlValue maxv = SqlValue::Null();
  std::unordered_set<int64_t> seen_ints;
  std::unordered_set<uint64_t> seen_doubles;
};

void UpdateAgg(const AggSpec& spec, AggState* st, const SqlValue& v) {
  switch (spec.kind) {
    case AggSpec::Kind::kCountStar:
      ++st->count;
      return;
    case AggSpec::Kind::kCount:
      if (v.is_null()) return;
      if (spec.distinct) {
        if (v.kind == SqlValue::Kind::kInt) {
          st->seen_ints.insert(v.i);
        } else {
          // Canonicalize -0.0 to 0.0 before hashing the bit pattern: `==`
          // treats the two as equal, so DISTINCT must count them once.
          double dv = v.d == 0.0 ? 0.0 : v.d;
          uint64_t bits;
          std::memcpy(&bits, &dv, sizeof(bits));
          st->seen_doubles.insert(bits);
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

/// Folds `from` (an earlier-finished chunk's state for the same group) into
/// `into`. Kind-agnostic: every field merges associatively, and callers fold
/// chunks in ascending chunk order so double sums reproduce the same rounding
/// for every thread count. Strict `<`/`>` on MIN/MAX keeps the earlier
/// chunk's value on Cmp-ties, matching the serial first-seen rule.
void MergeAggState(AggState* into, AggState* from) {
  into->count += from->count;
  into->isum += from->isum;
  into->dsum += from->dsum;
  into->int_only = into->int_only && from->int_only;
  if (into->seen_ints.empty()) {
    into->seen_ints = std::move(from->seen_ints);
  } else {
    into->seen_ints.insert(from->seen_ints.begin(), from->seen_ints.end());
  }
  if (into->seen_doubles.empty()) {
    into->seen_doubles = std::move(from->seen_doubles);
  } else {
    into->seen_doubles.insert(from->seen_doubles.begin(), from->seen_doubles.end());
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
        return SqlValue::Int(static_cast<int64_t>(st.seen_ints.size()) +
                             static_cast<int64_t>(st.seen_doubles.size()));
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

/// One unit of scan work: either a slice of a posting/position list
/// (`from_list`, begin/end are ordinals within `list`) or a contiguous range
/// of physical positions (begin/end are the positions themselves). Lists are
/// carried as PostingListRef and consumed through PostingCursor, so a morsel
/// neither knows nor cares whether the list is raw or block-compressed.
struct ScanMorsel {
  PostingListRef list;
  bool from_list = false;
  size_t begin = 0;
  size_t end = 0;
};

/// Morsel geometry note: kScanMorselRecords is a multiple of
/// kPostingBlockLen, so list morsels start on container boundaries and each
/// morsel decodes only its own blocks.
static_assert(kScanMorselRecords % kPostingBlockLen == 0);

void AppendListMorsels(PostingListRef list, std::vector<ScanMorsel>* morsels) {
  for (size_t b = 0; b < list.size(); b += kScanMorselRecords) {
    morsels->push_back(
        {list, true, b, std::min(list.size(), b + kScanMorselRecords)});
  }
}

void AppendRangeMorsels(size_t begin, size_t end,
                        std::vector<ScanMorsel>* morsels) {
  for (size_t b = begin; b < end; b += kScanMorselRecords) {
    morsels->push_back({{}, false, b, std::min(end, b + kScanMorselRecords)});
  }
}

/// Resolves the IN-list of a CellValue access path to sorted distinct cell
/// ids. Ascending id order is the canonical scan order: it fixes the output
/// position sequence independently of IN-list order and of hash-set iteration
/// quirks, and the fused operator walks the same sequence.
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

/// The per-record filters of a classified scan: the RowId bound, Quadrant IS
/// NOT NULL and the residual conjuncts, bound once. Evaluation is read-only
/// and thread-safe.
struct RecordFilter {
  int64_t row_lt = -1;
  bool need_quadrant = false;
  std::vector<BoundExprPtr> preds;

  template <typename Store>
  bool operator()(const Store& store, RecordPos p) const {
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

Result<RecordFilter> BindRecordFilter(const ScanSpec& spec, const Dictionary& dict) {
  Binder binder(&dict, {AllFields("")});
  RecordFilter filter;
  filter.row_lt = spec.row_lt;
  filter.need_quadrant = spec.need_quadrant;
  for (const Expr* c : spec.residual) {
    BLEND_ASSIGN_OR_RETURN(auto b, binder.BindRowExpr(*c));
    filter.preds.push_back(std::move(b));
  }
  return filter;
}

/// Cuts a relation's access path into morsels, in scan order: the CellValue
/// index (lists in ascending cell id), the clustered TableId index (ranges in
/// ascending table id), the Quadrant partial index, or a full scan. A TableId
/// IN-list next to a CellValue IN-list is not an access path; ScanRel applies
/// it as a filter.
template <typename Store>
std::vector<ScanMorsel> AccessPathMorsels(const ScanSpec& spec, const Store& store,
                                          const Dictionary& dict) {
  std::vector<ScanMorsel> morsels;
  if (spec.cell_in != nullptr) {
    // Access path 1: the in-database hash index on CellValue.
    for (CellId id : ResolveCellIds(*spec.cell_in, dict)) {
      AppendListMorsels(store.PostingList(id), &morsels);
    }
  } else if (spec.table_in != nullptr) {
    // Access path 2: the clustered index on TableId.
    for (TableId id : ResolveTableIds(*spec.table_in, store)) {
      auto [b, e] = store.TableRange(id);
      AppendRangeMorsels(b, e, &morsels);
    }
  } else if (spec.need_quadrant) {
    // Access path 3: the partial index on Quadrant (correlation seeker's
    // numeric-cell scan).
    AppendListMorsels(PostingListRef::Raw(store.QuadrantPositions()), &morsels);
  } else {
    // Access path 4: full scan.
    AppendRangeMorsels(0, store.NumRecords(), &morsels);
  }
  return morsels;
}

/// Calls fn(p) on the positions of `mo` in scan order until fn returns false;
/// returns false when fn stopped the walk.
template <typename Fn>
bool WalkMorsel(const ScanMorsel& mo, const Fn& fn) {
  if (!mo.from_list) {
    for (size_t i = mo.begin; i < mo.end; ++i) {
      if (!fn(static_cast<RecordPos>(i))) return false;
    }
    return true;
  }
  // Batch-decode the morsel's own containers into the cursor's reusable
  // scratch; raw lists come back as one zero-copy batch.
  PostingCursor cur(mo.list);
  cur.SeekToOrdinal(mo.begin);
  for (auto batch = cur.NextBatch(); !batch.empty(); batch = cur.NextBatch()) {
    const size_t ord = cur.batch_ordinal();
    if (ord >= mo.end) break;
    const size_t lo = mo.begin > ord ? mo.begin - ord : 0;
    const size_t hi = std::min(batch.size(), mo.end - ord);
    for (size_t i = lo; i < hi; ++i) {
      if (!fn(batch[i])) return false;
    }
  }
  return true;
}

template <typename Store>
Result<std::vector<RecordPos>> ScanRel(const AnalyzedRel& rel, const Store& store,
                                       const Dictionary& dict, Scheduler* sched,
                                       const QueryControl* control,
                                       QueryTrace* trace) {
  const ScanSpec spec = ClassifyScan(rel.scan_pred);
  BLEND_ASSIGN_OR_RETURN(const RecordFilter filter, BindRecordFilter(spec, dict));

  // When the TableId IN-list is not the access path it acts as a filter.
  std::unordered_set<int64_t> table_filter;
  const bool use_table_filter = spec.cell_in != nullptr && spec.table_in != nullptr;
  if (use_table_filter) {
    table_filter.insert(spec.table_in->in_ints.begin(), spec.table_in->in_ints.end());
  }
  const std::vector<ScanMorsel> morsels = AccessPathMorsels(spec, store, dict);

  // Filter each morsel into its own buffer, then concatenate in morsel order:
  // the output position sequence is identical to a serial scan no matter
  // which worker ran which morsel. Posting-list morsels can be numerous but
  // tiny (one per short list), so the fan-out decision keys on the total
  // record count rather than the morsel count — small scans stay inline
  // instead of paying the pool's enqueue/wakeup cost.
  size_t total_records = 0;
  for (const ScanMorsel& mo : morsels) total_records += mo.end - mo.begin;
  Scheduler* scan_sched = total_records > kScanMorselRecords ? sched : nullptr;
  std::vector<std::vector<RecordPos>> parts(morsels.size());
  BLEND_RETURN_NOT_OK(RunTasks(scan_sched, control, trace, TraceStage::kScan,
                               morsels.size(), [&](size_t m) {
    std::vector<RecordPos>& out = parts[m];
    WalkMorsel(morsels[m], [&](RecordPos p) {
      if (use_table_filter && table_filter.count(store.table(p)) == 0) return true;
      if (filter(store, p)) out.push_back(p);
      return true;
    });
  }));

  std::vector<RecordPos> out = ConcatParts(std::move(parts));
  if (trace != nullptr) {
    trace->AddRows(TraceStage::kScan, static_cast<int64_t>(out.size()));
  }
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
/// from `scan` (relation index `step_side`). Builds on the smaller input.
/// Parallelism: build-side hashes are precomputed in parallel chunks (the
/// field reads dominate the build), insertion stays serial to preserve exact
/// bucket order, and the probe side is morselized with per-morsel output
/// buffers concatenated in morsel order — emit order is byte-identical to a
/// serial probe loop.
template <typename Store>
Result<std::vector<RowCtx>> HashJoinStep(const Store& store,
                                         const std::vector<RowCtx>& rows,
                                         const std::vector<RecordPos>& scan,
                                         const StepKeys& keys, uint8_t step_side,
                                         Scheduler* sched,
                                         const QueryControl* control,
                                         QueryTrace* trace) {
  auto left_hash = [&](const RowCtx& ctx, bool* has_null) {
    uint64_t h = 0x243F6A8885A308D3ULL;
    *has_null = false;
    for (const auto& [side, f] : keys.left) {
      SqlValue v = FieldValue(store, f, ctx.pos[side]);
      if (v.is_null()) {
        *has_null = true;
        return h;
      }
      h = HashCombine(h, v.Hash());
    }
    return h;
  };
  auto right_hash = [&](RecordPos p, bool* has_null) {
    uint64_t h = 0x243F6A8885A308D3ULL;
    *has_null = false;
    for (Field f : keys.right) {
      SqlValue v = FieldValue(store, f, p);
      if (v.is_null()) {
        *has_null = true;
        return h;
      }
      h = HashCombine(h, v.Hash());
    }
    return h;
  };
  auto keys_equal = [&](const RowCtx& ctx, RecordPos p) {
    return StepKeysEqual(store, keys, ctx, p);
  };
  auto emit = [&](const RowCtx& ctx, RecordPos p, std::vector<RowCtx>* out) {
    RowCtx extended = ctx;
    extended.pos[step_side] = p;
    if (StepResidualHolds(store, keys, extended)) out->push_back(extended);
  };

  const size_t num_chunks_of = kScanMorselRecords;  // probe morsel rows

  if (scan.size() <= rows.size()) {
    // Build on the new relation, probe with the prefix.
    std::vector<uint64_t> hashes(scan.size());
    std::vector<uint8_t> nulls(scan.size());
    const size_t build_chunks =
        (scan.size() + kScanMorselRecords - 1) / kScanMorselRecords;
    BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace, TraceStage::kJoinBuild,
                                 build_chunks, [&](size_t c) {
      const size_t b = c * kScanMorselRecords;
      const size_t e = std::min(scan.size(), b + kScanMorselRecords);
      for (size_t i = b; i < e; ++i) {
        bool has_null;
        hashes[i] = right_hash(scan[i], &has_null);
        nulls[i] = has_null ? 1 : 0;
      }
    }));
    std::unordered_map<uint64_t, std::vector<RecordPos>> ht;
    ht.reserve(scan.size() * 2);
    for (size_t i = 0; i < scan.size(); ++i) {
      if ((i % kSerialCheckInterval) == kSerialCheckInterval - 1) {
        BLEND_RETURN_NOT_OK(CheckControl(control, "join build"));
      }
      if (!nulls[i]) ht[hashes[i]].push_back(scan[i]);
    }
    const size_t probe_chunks = (rows.size() + num_chunks_of - 1) / num_chunks_of;
    std::vector<std::vector<RowCtx>> parts(probe_chunks);
    BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace, TraceStage::kJoinProbe,
                                 probe_chunks, [&](size_t c) {
      const size_t b = c * num_chunks_of;
      const size_t e = std::min(rows.size(), b + num_chunks_of);
      for (size_t i = b; i < e; ++i) {
        bool has_null;
        uint64_t h = left_hash(rows[i], &has_null);
        if (has_null) continue;
        auto it = ht.find(h);
        if (it == ht.end()) continue;
        for (RecordPos p : it->second) {
          if (keys_equal(rows[i], p)) emit(rows[i], p, &parts[c]);
        }
      }
    }));
    std::vector<RowCtx> joined = ConcatParts(std::move(parts));
    if (trace != nullptr) {
      trace->AddRows(TraceStage::kJoinProbe, static_cast<int64_t>(joined.size()));
    }
    return joined;
  }

  // Build on the prefix, probe with the new relation's scan.
  std::vector<uint64_t> hashes(rows.size());
  std::vector<uint8_t> nulls(rows.size());
  const size_t build_chunks =
      (rows.size() + kScanMorselRecords - 1) / kScanMorselRecords;
  BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace, TraceStage::kJoinBuild,
                               build_chunks, [&](size_t c) {
    const size_t b = c * kScanMorselRecords;
    const size_t e = std::min(rows.size(), b + kScanMorselRecords);
    for (size_t i = b; i < e; ++i) {
      bool has_null;
      hashes[i] = left_hash(rows[i], &has_null);
      nulls[i] = has_null ? 1 : 0;
    }
  }));
  std::unordered_map<uint64_t, std::vector<uint32_t>> ht;
  ht.reserve(rows.size() * 2);
  for (uint32_t i = 0; i < rows.size(); ++i) {
    if ((i % kSerialCheckInterval) == kSerialCheckInterval - 1) {
      BLEND_RETURN_NOT_OK(CheckControl(control, "join build"));
    }
    if (!nulls[i]) ht[hashes[i]].push_back(i);
  }
  const size_t probe_chunks = (scan.size() + num_chunks_of - 1) / num_chunks_of;
  std::vector<std::vector<RowCtx>> parts(probe_chunks);
  BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace, TraceStage::kJoinProbe,
                               probe_chunks, [&](size_t c) {
    const size_t b = c * num_chunks_of;
    const size_t e = std::min(scan.size(), b + num_chunks_of);
    for (size_t i = b; i < e; ++i) {
      const RecordPos p = scan[i];
      bool has_null;
      uint64_t h = right_hash(p, &has_null);
      if (has_null) continue;
      auto it = ht.find(h);
      if (it == ht.end()) continue;
      for (uint32_t r : it->second) {
        if (keys_equal(rows[r], p)) emit(rows[r], p, &parts[c]);
      }
    }
  }));
  std::vector<RowCtx> joined = ConcatParts(std::move(parts));
  if (trace != nullptr) {
    trace->AddRows(TraceStage::kJoinProbe, static_cast<int64_t>(joined.size()));
  }
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

/// A relation that a lookup join step reads in place instead of scanning:
/// its classified scan predicate, bound per-record filters, its access
/// path's morsels (walked only to count candidates for the orientation), and
/// the sorted valid ids of its TableId IN-list when that is the access path.
struct LookupRel {
  ScanSpec spec;
  RecordFilter filter;
  std::vector<ScanMorsel> morsels;
  std::vector<TableId> tables;
};

template <typename Store>
Result<LookupRel> MakeLookupRel(const AnalyzedRel& rel, const Store& store,
                                const Dictionary& dict) {
  LookupRel out;
  out.spec = ClassifyScan(rel.scan_pred);
  BLEND_ASSIGN_OR_RETURN(out.filter, BindRecordFilter(out.spec, dict));
  out.morsels = AccessPathMorsels(out.spec, store, dict);
  if (out.spec.table_in != nullptr) {
    out.tables = ResolveTableIds(*out.spec.table_in, store);
  }
  return out;
}

/// Whether join step `j` (joining relation j + 1) runs as a lookup join: its
/// ON equates TableId with TableId and RowId with RowId, and its relation's
/// access path scans in ascending position (the clustered TableId index, the
/// Quadrant partial index or a full scan). A relation on the CellValue index
/// scans cell-major and keeps HashJoinStep. A step whose keys do not bind is
/// not a lookup; the join loop reports the bind error.
bool IsLookupStep(const AnalyzedQuery& q, size_t j, const Binder& binder) {
  if (ClassifyScan(q.rels[j + 1].scan_pred).cell_in != nullptr) return false;
  auto keys_or = ExtractStepKeys(q.join_ons[j], binder, static_cast<uint8_t>(j + 1));
  if (!keys_or.ok()) return false;
  const StepKeys keys = keys_or.take();
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
                                           const LookupRel& rel,
                                           const StepKeys& keys, uint8_t step_side,
                                           Scheduler* sched,
                                           const QueryControl* control,
                                           QueryTrace* trace) {
  // Orientation: count passing candidates in ScanRel's scan order.
  const size_t cap = rows.size() + 1;
  size_t passing = 0, visited = 0;
  auto visit = [&](RecordPos p) {
    if (rel.filter(store, p) && ++passing == cap) return false;
    return ++visited % kSerialCheckInterval != 0 || !ShouldStop(control);
  };
  for (const ScanMorsel& mo : rel.morsels) {
    if (!WalkMorsel(mo, visit)) break;
  }
  BLEND_RETURN_NOT_OK(CheckControl(control, "lookup join"));
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
  const size_t num_chunks = (rows.size() + kScanMorselRecords - 1) / kScanMorselRecords;
  std::vector<std::vector<RowCtx>> parts(probe_with_prefix ? num_chunks : 0);
  std::vector<std::vector<uint64_t>> pairs(probe_with_prefix ? 0 : num_chunks);
  BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace, TraceStage::kJoinProbe,
                               num_chunks, [&](size_t c) {
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
  if (trace != nullptr) {
    trace->AddRows(TraceStage::kJoinProbe, static_cast<int64_t>(joined.size()));
  }
  return joined;
}

// Output assembly (projection, aggregation, ordering).
// ---------------------------------------------------------------------------

/// Sorts rows (pairs of output values + sort key values), applies the
/// engine-side dedup-top-k spec (QueryOptions::dedup_column / dedup_limit),
/// then LIMIT. Shared by the projection tail and EmitGroups, so dedup
/// semantics cannot diverge between pipelines.
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

/// One finalized group ready for projection: group-by key values plus the
/// already-finalized aggregate values (kAggRef / kKeyRef leaves).
struct GroupOut {
  std::vector<SqlValue> keys;
  std::vector<SqlValue> agg_vals;
};

/// Projects finalized groups through the select items, evaluates sort keys,
/// sorts and applies LIMIT. Shared by the generic aggregation pipeline and
/// the fused scan->aggregate operator, so the two paths cannot diverge in
/// output assembly.
void EmitGroups(const std::vector<GroupOut>& groups,
                const std::vector<BoundExprPtr>& items,
                const std::vector<int>& sort_ref,
                const std::vector<BoundExprPtr>& sort_exprs,
                const std::vector<bool>& desc, const SelectStmt& stmt,
                const QueryOptions& options, QueryResult* result) {
  std::vector<std::vector<SqlValue>> out_rows;
  std::vector<std::vector<SqlValue>> sort_vals;
  out_rows.reserve(groups.size());
  for (const GroupOut& g : groups) {
    auto leaf = [&](const BoundExpr& b) -> SqlValue {
      if (b.kind == BKind::kAggRef) return g.agg_vals[b.ref];
      if (b.kind == BKind::kKeyRef) return g.keys[b.ref];
      return SqlValue::Null();  // unreachable: fields were rejected at bind
    };
    std::vector<SqlValue> vals;
    vals.reserve(items.size());
    for (const auto& it : items) vals.push_back(EvalExpr(*it, leaf));
    if (!stmt.order_by.empty()) {
      std::vector<SqlValue> sk;
      for (size_t i = 0; i < sort_exprs.size(); ++i) {
        sk.push_back(sort_ref[i] >= 0 ? vals[static_cast<size_t>(sort_ref[i])]
                                      : EvalExpr(*sort_exprs[i], leaf));
      }
      sort_vals.push_back(std::move(sk));
    }
    out_rows.push_back(std::move(vals));
  }
  SortAndLimit(&out_rows, &sort_vals, desc, stmt.limit, options);
  result->rows = std::move(out_rows);
}

/// Binds ORDER BY items in aggregate context: alias references resolve to
/// output columns (sort_ref), everything else binds as an aggregate-context
/// expression.
Status BindAggOrderBy(const SelectStmt& stmt, const Binder& binder,
                      const std::vector<BoundExprPtr>& key_exprs,
                      std::vector<AggSpec>* aggs,
                      const std::vector<std::string>& columns,
                      std::vector<int>* sort_ref,
                      std::vector<BoundExprPtr>* sort_exprs,
                      std::vector<bool>* desc) {
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
    sort_ref->push_back(ref);
    if (ref < 0) {
      BLEND_ASSIGN_OR_RETURN(auto b, binder.BindAggExpr(*oi.expr, key_exprs, aggs));
      sort_exprs->push_back(std::move(b));
    } else {
      sort_exprs->push_back(nullptr);
    }
    desc->push_back(oi.desc);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Fused scan->aggregate operator for the SC/KW seeker shape:
//   SELECT TableId[, ColumnId], COUNT(DISTINCT CellValue) ...
//   FROM AllTables WHERE CellValue IN (...) [AND ...]
//   GROUP BY TableId[, ColumnId] [ORDER BY ...] [LIMIT n]
// Walks each cell id's posting list and bumps packed-key counters directly:
// no RecordPos materialization, no RowCtx construction, no per-row SqlValue
// boxing. COUNT(DISTINCT CellValue) degenerates to "number of posting lists
// that touch the group", so each list contributes at most 1 per group.
// ---------------------------------------------------------------------------

/// Attempts the fused path. Returns nullopt when the statement does not have
/// the fused shape (including any bind failure — the generic pipeline then
/// re-binds and reports the real error). An engaged return is the query's
/// outcome: the result, or the control Status that stopped the cursor
/// batches.
template <typename Store>
std::optional<Result<QueryResult>> TryFusedScanAgg(const AnalyzedQuery& q,
                                                   const SelectStmt& stmt,
                                                   const Store& store,
                                                   const Dictionary& dict,
                                                   const QueryOptions& options,
                                                   PlanDescription* describe) {
  Scheduler* sched = options.scheduler;
  if (q.rels.size() != 1 || !q.join_ons.empty() || q.residual_where != nullptr) {
    return std::nullopt;
  }
  if (stmt.select_star || stmt.group_by.empty()) return std::nullopt;

  const ScanSpec spec = ClassifyScan(q.rels[0].scan_pred);
  if (spec.cell_in == nullptr || spec.need_quadrant) return std::nullopt;

  // Bind keys and items against the visible schema, exactly as the generic
  // aggregation pipeline would.
  Binder binder(&dict, {q.rels[0].visible});
  std::vector<BoundExprPtr> key_exprs;
  for (const auto& g : stmt.group_by) {
    auto kb = binder.BindRowExpr(*g);
    if (!kb.ok()) return std::nullopt;
    key_exprs.push_back(kb.take());
  }
  if (key_exprs.empty() || key_exprs.size() > 2) return std::nullopt;
  if (key_exprs[0]->kind != BKind::kField || key_exprs[0]->field != Field::kTable) {
    return std::nullopt;
  }
  const bool with_column = key_exprs.size() == 2;
  if (with_column && (key_exprs[1]->kind != BKind::kField ||
                      key_exprs[1]->field != Field::kColumn)) {
    return std::nullopt;
  }

  QueryResult result;
  std::vector<AggSpec> aggs;
  std::vector<BoundExprPtr> items;
  for (const auto& item : stmt.items) {
    auto b = binder.BindAggExpr(*item.expr, key_exprs, &aggs);
    if (!b.ok()) return std::nullopt;
    result.columns.push_back(ItemName(item));
    items.push_back(b.take());
  }
  std::vector<int> sort_ref;
  std::vector<BoundExprPtr> sort_exprs;
  std::vector<bool> desc;
  if (!BindAggOrderBy(stmt, binder, key_exprs, &aggs, result.columns, &sort_ref,
                      &sort_exprs, &desc)
           .ok()) {
    return std::nullopt;
  }
  // Every aggregate (select list and sort keys) must be COUNT(DISTINCT
  // CellValue) for the per-posting-list dedup to be the whole aggregation.
  for (const AggSpec& a : aggs) {
    if (a.kind != AggSpec::Kind::kCount || !a.distinct) return std::nullopt;
    if (a.arg == nullptr || a.arg->kind != BKind::kField ||
        a.arg->field != Field::kCell) {
      return std::nullopt;
    }
  }

  // Residual scan predicates (e.g. the optimizer's `TableId NOT IN (...)`
  // rewrite) are evaluated per record without materializing anything.
  Binder scan_binder(&dict, {AllFields("")});
  std::vector<BoundExprPtr> preds;
  for (const Expr* c : spec.residual) {
    auto b = scan_binder.BindRowExpr(*c);
    if (!b.ok()) return std::nullopt;
    preds.push_back(b.take());
  }
  const int64_t row_lt = spec.row_lt;
  auto passes = [&](RecordPos p) {
    if (row_lt >= 0 && store.row(p) >= row_lt) return false;
    for (const auto& pred : preds) {
      RowCtx ctx;
      ctx.pos[0] = p;
      SqlValue v = EvalExpr(*pred, [&](const BoundExpr& b) {
        return FieldValue(store, b.field, ctx.pos[b.side]);
      });
      if (!v.IsTruthy()) return false;
    }
    return true;
  };

  std::unordered_set<int64_t> table_filter;
  const bool use_table_filter = spec.table_in != nullptr;
  if (use_table_filter) {
    table_filter.insert(spec.table_in->in_ints.begin(),
                        spec.table_in->in_ints.end());
  }

  // The same canonical scan order as ScanRel: cells ascending, postings in
  // list order. `base[i]` is the global ordinal of cell i's first posting;
  // ordinals order group discovery exactly like the generic pipeline's
  // first-appearance order, which keeps the two paths byte-identical.
  const std::vector<CellId> cells = ResolveCellIds(*spec.cell_in, dict);
  std::vector<size_t> base(cells.size() + 1, 0);
  for (size_t i = 0; i < cells.size(); ++i) {
    base[i + 1] = base[i] + store.PostingCount(cells[i]);
  }

  // Morsels cover whole cells (a posting list is never split): the
  // per-list dedup below relies on seeing all of a cell's postings in one
  // morsel.
  struct CellRange {
    size_t begin, end;
  };
  std::vector<CellRange> morsels;
  size_t mb = 0;
  while (mb < cells.size()) {
    size_t me = mb + 1;
    while (me < cells.size() && base[me + 1] - base[mb] <= kScanMorselRecords) {
      ++me;
    }
    morsels.push_back({mb, me});
    mb = me;
  }

  // Describe mode: the gate has passed and the whole-cell morsel packing is
  // decided, so report the plan and bail without scanning.
  if (describe != nullptr) {
    describe->pipeline = "fused-scan-agg";
    PlanNode root;
    root.op = "FusedScanAgg";
    root.detail = std::string("COUNT(DISTINCT CellValue) GROUP BY TableId") +
                  (with_column ? ", ColumnId" : "") + "; whole-cell morsels <= " +
                  std::to_string(kScanMorselRecords) + " records";
    root.stage = TraceStage::kFusedScan;
    root.planned_tasks = static_cast<int64_t>(morsels.size());
    describe->nodes.push_back(std::move(root));
    PlanNode scan;
    scan.depth = 1;
    scan.op = "PostingScan";
    scan.detail = std::to_string(cells.size()) + " cells";
    if (use_table_filter) scan.detail += "; TableId filter";
    if (row_lt >= 0) scan.detail += "; RowId < " + std::to_string(row_lt);
    if (!preds.empty()) {
      scan.detail += "; " + std::to_string(preds.size()) + " residual preds";
    }
    scan.est_rows = static_cast<int64_t>(base.back());
    describe->nodes.push_back(std::move(scan));
    PlanNode tail;
    tail.depth = 1;
    tail.op = "EmitGroups";
    tail.detail = (stmt.order_by.empty()
                       ? std::string("first-appearance order")
                       : std::to_string(stmt.order_by.size()) + " sort keys") +
                  (stmt.limit >= 0 ? "; limit " + std::to_string(stmt.limit)
                                   : std::string());
    describe->nodes.push_back(std::move(tail));
    return Result<QueryResult>(std::move(result));
  }

  struct FusedGroup {
    uint64_t key;
    size_t first;  // global ordinal of the group's first passing record
    int64_t count;
    CellId last_cell;  // per-posting-list dedup marker
  };
  std::vector<std::vector<FusedGroup>> parts(morsels.size());
  Status fused_scan = RunTasks(sched, options.control, options.trace,
                               TraceStage::kFusedScan, morsels.size(),
                               [&](size_t m) {
    std::unordered_map<uint64_t, uint32_t> index;
    std::vector<FusedGroup>& groups_m = parts[m];
    for (size_t ci = morsels[m].begin; ci < morsels[m].end; ++ci) {
      const CellId cell = cells[ci];
      // Container-at-a-time: each decoded batch feeds the packed counters
      // straight from the cursor's scratch, so the fused path never
      // materializes a posting list regardless of codec.
      PostingCursor cur(store.PostingList(cell));
      for (auto batch = cur.NextBatch(); !batch.empty();
           batch = cur.NextBatch()) {
        const size_t ord = cur.batch_ordinal();
        for (size_t j = 0; j < batch.size(); ++j) {
          const RecordPos p = batch[j];
          if (use_table_filter && table_filter.count(store.table(p)) == 0) {
            continue;
          }
          if (!passes(p)) continue;
          const uint64_t key =
              static_cast<uint64_t>(static_cast<uint32_t>(store.table(p))) |
              (with_column ? static_cast<uint64_t>(
                                 static_cast<uint32_t>(store.column(p)))
                                 << 32
                           : 0);
          auto [it, inserted] =
              index.try_emplace(key, static_cast<uint32_t>(groups_m.size()));
          if (inserted) {
            groups_m.push_back({key, base[ci] + ord + j, 1, cell});
          } else {
            FusedGroup& g = groups_m[it->second];
            if (g.last_cell != cell) {
              ++g.count;
              g.last_cell = cell;
            }
          }
        }
      }
    }
  });
  if (!fused_scan.ok()) return Result<QueryResult>(std::move(fused_scan));

  // Merge morsel-local groups in morsel order (group counts are bounded by
  // tables x columns, so this stays cheap), then order groups by first
  // appearance — the generic pipeline's group order.
  std::unordered_map<uint64_t, uint32_t> index;
  std::vector<FusedGroup> merged;
  for (const auto& part : parts) {
    for (const FusedGroup& g : part) {
      auto [it, inserted] =
          index.try_emplace(g.key, static_cast<uint32_t>(merged.size()));
      if (inserted) {
        merged.push_back(g);
        continue;
      }
      FusedGroup& into = merged[it->second];
      into.count += g.count;
      into.first = std::min(into.first, g.first);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const FusedGroup& a, const FusedGroup& b) { return a.first < b.first; });

  std::vector<GroupOut> groups;
  groups.reserve(merged.size());
  for (const FusedGroup& g : merged) {
    GroupOut out;
    out.keys.push_back(
        SqlValue::Int(static_cast<int64_t>(static_cast<uint32_t>(g.key))));
    if (with_column) {
      out.keys.push_back(SqlValue::Int(static_cast<int64_t>(g.key >> 32)));
    }
    out.agg_vals.assign(aggs.size(), SqlValue::Int(g.count));
    groups.push_back(std::move(out));
  }
  if (options.trace != nullptr) {
    options.trace->AddRows(TraceStage::kFusedScan,
                           static_cast<int64_t>(groups.size()));
  }
  EmitGroups(groups, items, sort_ref, sort_exprs, desc, stmt, options, &result);
  return Result<QueryResult>(std::move(result));
}

// ---------------------------------------------------------------------------
// Describe mode for the generic pipeline. The fused path describes itself
// at its gate (it knows its geometry before running); the generic
// pipeline's plan is derived here from scan metadata and chunk-size
// constants only — describe must not run ScanRel, join, or charge budgets.
// ---------------------------------------------------------------------------

/// Plan node for one generic-pipeline relation scan, mirroring ScanRel's
/// access-path choice and exact morsel geometry without touching postings.
/// A relation a lookup join reads in place is a "GroupLookup": it runs no
/// scan tasks; its access path only bounds the orientation count, and its
/// filters apply per (TableId, RowId) group.
template <typename Store>
PlanNode DescribeScanNode(const AnalyzedRel& rel, const Store& store,
                          const Dictionary& dict, int depth, bool lookup) {
  const ScanSpec spec = ClassifyScan(rel.scan_pred);
  PlanNode node;
  node.depth = depth;
  node.op = lookup ? "GroupLookup" : "Scan";
  if (!lookup) node.stage = TraceStage::kScan;
  uint64_t records = 0;
  size_t tasks = 0;
  if (spec.cell_in != nullptr) {
    const std::vector<CellId> cells = ResolveCellIds(*spec.cell_in, dict);
    for (CellId id : cells) {
      const size_t n = store.PostingCount(id);
      records += n;
      tasks += (n + kScanMorselRecords - 1) / kScanMorselRecords;
    }
    node.detail = "CellValue index: " + std::to_string(cells.size()) + " cells";
    if (spec.table_in != nullptr) node.detail += "; TableId filter";
  } else if (spec.table_in != nullptr) {
    const std::vector<TableId> ids = ResolveTableIds(*spec.table_in, store);
    for (TableId id : ids) {
      auto [b, e] = store.TableRange(id);
      records += e - b;
      tasks += (e - b + kScanMorselRecords - 1) / kScanMorselRecords;
    }
    node.detail =
        "TableId clustered index: " + std::to_string(ids.size()) + " tables";
  } else if (spec.need_quadrant) {
    const size_t n = store.QuadrantPositions().size();
    records = n;
    tasks = (n + kScanMorselRecords - 1) / kScanMorselRecords;
    node.detail = "Quadrant partial index";
  } else {
    const size_t n = store.NumRecords();
    records = n;
    tasks = (n + kScanMorselRecords - 1) / kScanMorselRecords;
    node.detail = "full scan";
  }
  if (spec.row_lt >= 0) {
    node.detail += "; RowId < " + std::to_string(spec.row_lt);
  }
  if (!spec.residual.empty()) {
    node.detail +=
        "; " + std::to_string(spec.residual.size()) + " residual preds";
  }
  node.est_rows = static_cast<int64_t>(records);
  if (lookup) return node;
  node.detail += "; morsel=" + std::to_string(kScanMorselRecords) + " records";
  node.planned_tasks = static_cast<int64_t>(tasks);
  return node;
}

/// Populates `describe` with the generic pipeline's operator tree. Task
/// counts that follow the joined row count (filter/projection/aggregation
/// chunks) stay unknown (-1) with the chunk size in the detail text; scans
/// report their exact planned morsel counts.
template <typename Store>
void DescribeGenericPipeline(const AnalyzedQuery& q, const SelectStmt& stmt,
                             const Store& store, const Dictionary& dict,
                             const QueryOptions& options,
                             PlanDescription* describe) {
  describe->pipeline = "generic";
  bool has_agg = !stmt.group_by.empty();
  for (const auto& item : stmt.items) {
    if (Binder::ContainsAggregate(*item.expr)) has_agg = true;
  }
  PlanNode root;
  if (has_agg) {
    root.op = "Aggregate";
    root.stage = TraceStage::kAggregation;
    root.detail = std::to_string(stmt.group_by.size()) + " group keys; " +
                  std::to_string(kAggChunkRows) + "-row chunks, " +
                  std::to_string(kMergePartitions) + " merge partitions";
  } else {
    root.op = "Project";
    root.stage = TraceStage::kProjection;
    root.detail = (stmt.select_star
                       ? std::string("SELECT *")
                       : std::to_string(stmt.items.size()) + " items") +
                  "; " + std::to_string(kAggChunkRows) + "-row chunks";
  }
  describe->nodes.push_back(std::move(root));
  if (!stmt.order_by.empty() || stmt.limit >= 0 || options.dedup_column >= 0) {
    PlanNode sort;
    sort.depth = 1;
    sort.op = "SortLimit";
    sort.detail = std::to_string(stmt.order_by.size()) + " sort keys" +
                  (stmt.limit >= 0 ? "; limit " + std::to_string(stmt.limit)
                                   : std::string()) +
                  (options.dedup_column >= 0
                       ? "; dedup col " + std::to_string(options.dedup_column) +
                             " top " + std::to_string(options.dedup_limit)
                       : std::string());
    describe->nodes.push_back(std::move(sort));
  }
  if (q.residual_where != nullptr) {
    PlanNode filter;
    filter.depth = 1;
    filter.op = "Filter";
    filter.stage = TraceStage::kFilter;
    filter.detail =
        "residual WHERE; " + std::to_string(kAggChunkRows) + "-row chunks";
    describe->nodes.push_back(std::move(filter));
  }
  std::vector<Binder::RelColumns> rel_cols;
  for (const auto& rel : q.rels) rel_cols.push_back(rel.visible);
  const Binder binder(&dict, rel_cols);
  std::vector<bool> lookup(q.rels.size(), false);
  for (size_t j = 0; j < q.join_ons.size(); ++j) {
    lookup[j + 1] = IsLookupStep(q, j, binder);
    PlanNode join;
    join.depth = 1;
    join.stage = TraceStage::kJoinProbe;
    if (lookup[j + 1]) {
      join.op = "LookupJoin";
      join.detail = "step " + std::to_string(j + 1) + "; rel " +
                    std::to_string(j + 1) +
                    " read by (TableId, RowId) group, not scanned; prefix chunk=" +
                    std::to_string(kScanMorselRecords) + " rows";
      describe->nodes.push_back(std::move(join));
      continue;
    }
    join.op = "HashJoin";
    join.detail = "step " + std::to_string(j + 1) +
                  "; build side chosen by size at run time; probe chunk=" +
                  std::to_string(kScanMorselRecords) + " rows";
    describe->nodes.push_back(std::move(join));
    PlanNode build;
    build.depth = 2;
    build.op = "HashBuild";
    build.stage = TraceStage::kJoinBuild;
    build.detail = "smaller input of step " + std::to_string(j + 1);
    describe->nodes.push_back(std::move(build));
  }
  const int scan_depth = q.rels.size() > 1 ? 2 : 1;
  for (size_t r = 0; r < q.rels.size(); ++r) {
    PlanNode scan =
        DescribeScanNode(q.rels[r], store, dict, scan_depth, lookup[r]);
    scan.detail = "rel " + std::to_string(r) + ": " + scan.detail;
    describe->nodes.push_back(std::move(scan));
  }
}

}  // namespace

/// The one implementation behind ExecuteSelect and DescribeSelect. A null
/// `describe` executes normally; a non-null one makes every pipeline bail
/// with its plan right after its dispatch gate passes, so EXPLAIN reports
/// exactly the path execution would take.
template <typename Store>
Result<QueryResult> ExecuteOrDescribe(const SelectStmt& stmt,
                                      const Store& store,
                                      const Dictionary& dict,
                                      const QueryOptions& options,
                                      PlanDescription* describe) {
  BLEND_ASSIGN_OR_RETURN(AnalyzedQuery q, Analyze(stmt));
  Scheduler* sched = options.scheduler;
  const QueryControl* control = options.control;
  QueryTrace* trace = options.trace;
  BLEND_RETURN_NOT_OK(CheckControl(control, "query start"));

  // Fused scan->aggregate for the SC/KW seeker shape.
  if (options.enable_fused_scan_agg) {
    if (auto fused = TryFusedScanAgg(q, stmt, store, dict, options, describe)) {
      return std::move(*fused);
    }
  }

  // Generic pipeline chosen. Describe mode reports it from metadata alone.
  if (describe != nullptr) {
    DescribeGenericPipeline(q, stmt, store, dict, options, describe);
    return QueryResult{};
  }

  // Budget accounting covers the pipeline's dominant materializations (scan
  // position vectors, the joined row stream); the estimates are peak live
  // bytes, released when the query finishes.
  ScopedMemoryCharge mem(control);

  // Binder over the visible (outer) schema.
  std::vector<Binder::RelColumns> rel_cols;
  for (const auto& rel : q.rels) rel_cols.push_back(rel.visible);
  Binder binder(&dict, rel_cols);

  // 1. Scans. A relation that a lookup join step reads in place is never
  // scanned; its filters are bound here, in relation order like the scans.
  std::vector<std::vector<RecordPos>> scans(q.rels.size());
  std::vector<std::optional<LookupRel>> lookups(q.rels.size());
  int64_t scan_bytes = 0;
  for (size_t r = 0; r < q.rels.size(); ++r) {
    if (r > 0 && IsLookupStep(q, r - 1, binder)) {
      BLEND_ASSIGN_OR_RETURN(lookups[r], MakeLookupRel(q.rels[r], store, dict));
      continue;
    }
    BLEND_ASSIGN_OR_RETURN(scans[r],
                           ScanRel(q.rels[r], store, dict, sched, control, trace));
    scan_bytes += static_cast<int64_t>(scans[r].size() * sizeof(RecordPos));
    BLEND_RETURN_NOT_OK(mem.ChargeTo(scan_bytes));
  }

  // 2. Join chain (or single-relation row stream).
  std::vector<RowCtx> rows;
  rows.reserve(scans[0].size());
  for (RecordPos p : scans[0]) {
    RowCtx ctx;
    ctx.pos[0] = p;
    rows.push_back(ctx);
  }
  BLEND_RETURN_NOT_OK(
      mem.ChargeTo(scan_bytes + static_cast<int64_t>(rows.size() * sizeof(RowCtx))));
  for (size_t j = 0; j < q.join_ons.size(); ++j) {
    const uint8_t step_side = static_cast<uint8_t>(j + 1);
    BLEND_ASSIGN_OR_RETURN(StepKeys keys,
                           ExtractStepKeys(q.join_ons[j], binder, step_side));
    if (lookups[step_side].has_value()) {
      BLEND_ASSIGN_OR_RETURN(rows, LookupJoinStep(store, rows, *lookups[step_side],
                                                  keys, step_side, sched, control,
                                                  trace));
    } else {
      BLEND_ASSIGN_OR_RETURN(rows,
                             HashJoinStep(store, rows, scans[step_side], keys,
                                          step_side, sched, control, trace));
    }
    BLEND_RETURN_NOT_OK(mem.ChargeTo(
        scan_bytes + static_cast<int64_t>(rows.size() * sizeof(RowCtx))));
  }

  // 3. Residual WHERE, chunk-parallel: per-chunk surviving-row buffers
  // concatenated in chunk order keep the row stream identical to a serial
  // filter loop.
  if (q.residual_where != nullptr) {
    BLEND_ASSIGN_OR_RETURN(auto pred, binder.BindRowExpr(*q.residual_where));
    const size_t n = rows.size();
    const size_t num_chunks = (n + kAggChunkRows - 1) / kAggChunkRows;
    std::vector<std::vector<RowCtx>> parts(num_chunks);
    BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace, TraceStage::kFilter,
                                 num_chunks, [&](size_t c) {
      const size_t b = c * kAggChunkRows;
      const size_t e = std::min(n, b + kAggChunkRows);
      std::vector<RowCtx>& kept = parts[c];
      for (size_t i = b; i < e; ++i) {
        const RowCtx& ctx = rows[i];
        SqlValue v = EvalExpr(*pred, [&](const BoundExpr& bx) {
          return FieldValue(store, bx.field, ctx.pos[bx.side]);
        });
        if (v.IsTruthy()) kept.push_back(ctx);
      }
    }));
    rows = ConcatParts(std::move(parts));
  }

  // 4. Select list preparation.
  QueryResult result;
  bool has_agg = !stmt.group_by.empty();
  for (const auto& item : stmt.items) {
    if (Binder::ContainsAggregate(*item.expr)) has_agg = true;
  }

  // SELECT * expansion (non-aggregate only).
  std::vector<std::pair<std::string, BoundExprPtr>> star_items;
  if (stmt.select_star) {
    if (has_agg) return Status::PlanError("SELECT * with GROUP BY is not supported");
    for (size_t s = 0; s < q.rels.size(); ++s) {
      // Expose canonical fields; prefix with the alias in a join.
      for (int fi = 0; fi < kNumFields; ++fi) {
        Field f = static_cast<Field>(fi);
        auto b = std::make_unique<BoundExpr>();
        b->kind = BKind::kField;
        b->side = static_cast<uint8_t>(s);
        b->field = f;
        std::string name = FieldName(f);
        if (q.rels.size() == 2) {
          std::string prefix =
              q.rels[s].visible.alias.empty() ? ("t" + std::to_string(s))
                                              : q.rels[s].visible.alias;
          name = prefix + "." + name;
        }
        star_items.emplace_back(std::move(name), std::move(b));
      }
    }
  }

  auto row_leaf = [&](const RowCtx& ctx) {
    return [&store, ctx](const BoundExpr& b) {
      return FieldValue(store, b.field, ctx.pos[b.side]);
    };
  };

  if (!has_agg) {
    // ---- Non-aggregate projection ----
    std::vector<BoundExprPtr> items;
    if (stmt.select_star) {
      for (auto& [name, b] : star_items) {
        result.columns.push_back(name);
        items.push_back(std::move(b));
      }
    } else {
      for (const auto& item : stmt.items) {
        BLEND_ASSIGN_OR_RETURN(auto b, binder.BindRowExpr(*item.expr));
        result.columns.push_back(ItemName(item));
        items.push_back(std::move(b));
      }
    }

    // Order-by: alias references resolve to output columns; otherwise bind.
    std::vector<int> sort_ref;
    std::vector<BoundExprPtr> sort_exprs;
    std::vector<bool> desc;
    for (const auto& oi : stmt.order_by) {
      int ref = -1;
      if (oi.expr->kind == ExprKind::kColumnRef && oi.expr->table_alias.empty()) {
        for (size_t i = 0; i < result.columns.size(); ++i) {
          if (ToLower(result.columns[i]) == ToLower(oi.expr->column)) {
            ref = static_cast<int>(i);
            break;
          }
        }
      }
      sort_ref.push_back(ref);
      if (ref < 0) {
        BLEND_ASSIGN_OR_RETURN(auto b, binder.BindRowExpr(*oi.expr));
        sort_exprs.push_back(std::move(b));
      } else {
        sort_exprs.push_back(nullptr);
      }
      desc.push_back(oi.desc);
    }

    // Chunk-parallel projection: per-chunk buffers concatenated in chunk
    // order reproduce the serial row order exactly.
    const size_t n = rows.size();
    const size_t num_chunks = (n + kAggChunkRows - 1) / kAggChunkRows;
    std::vector<std::vector<std::vector<SqlValue>>> row_parts(num_chunks);
    std::vector<std::vector<std::vector<SqlValue>>> sort_parts(num_chunks);
    BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace, TraceStage::kProjection,
                                 num_chunks, [&](size_t c) {
      const size_t b = c * kAggChunkRows;
      const size_t e = std::min(n, b + kAggChunkRows);
      row_parts[c].reserve(e - b);
      for (size_t r = b; r < e; ++r) {
        auto leaf = row_leaf(rows[r]);
        std::vector<SqlValue> vals;
        vals.reserve(items.size());
        for (const auto& it : items) vals.push_back(EvalExpr(*it, leaf));
        if (!stmt.order_by.empty()) {
          std::vector<SqlValue> sk;
          for (size_t i = 0; i < sort_exprs.size(); ++i) {
            sk.push_back(sort_ref[i] >= 0 ? vals[static_cast<size_t>(sort_ref[i])]
                                          : EvalExpr(*sort_exprs[i], leaf));
          }
          sort_parts[c].push_back(std::move(sk));
        }
        row_parts[c].push_back(std::move(vals));
      }
    }));
    std::vector<std::vector<SqlValue>> out_rows;
    std::vector<std::vector<SqlValue>> sort_vals;
    out_rows.reserve(n);
    for (size_t c = 0; c < num_chunks; ++c) {
      for (auto& v : row_parts[c]) out_rows.push_back(std::move(v));
      for (auto& v : sort_parts[c]) sort_vals.push_back(std::move(v));
    }
    SortAndLimit(&out_rows, &sort_vals, desc, stmt.limit, options);
    result.rows = std::move(out_rows);
    return result;
  }

  // ---- Aggregation ----
  std::vector<BoundExprPtr> key_exprs;
  for (const auto& g : stmt.group_by) {
    BLEND_ASSIGN_OR_RETURN(auto b, binder.BindRowExpr(*g));
    key_exprs.push_back(std::move(b));
  }

  std::vector<AggSpec> aggs;
  std::vector<BoundExprPtr> items;
  for (const auto& item : stmt.items) {
    BLEND_ASSIGN_OR_RETURN(auto b, binder.BindAggExpr(*item.expr, key_exprs, &aggs));
    result.columns.push_back(ItemName(item));
    items.push_back(std::move(b));
  }

  // Order-by in aggregate context.
  std::vector<int> sort_ref;
  std::vector<BoundExprPtr> sort_exprs;
  std::vector<bool> desc;
  BLEND_RETURN_NOT_OK(BindAggOrderBy(stmt, binder, key_exprs, &aggs, result.columns,
                                     &sort_ref, &sort_exprs, &desc));

  struct Group {
    std::vector<SqlValue> keys;
    std::vector<AggState> states;
  };
  std::vector<Group> groups;

  auto update_states = [&](std::vector<AggState>& states, const RowCtx& ctx) {
    for (size_t a = 0; a < aggs.size(); ++a) {
      SqlValue v = SqlValue::Null();
      if (aggs[a].arg != nullptr) {
        if (aggs[a].arg->kind == BKind::kField) {
          v = FieldValue(store, aggs[a].arg->field, ctx.pos[aggs[a].arg->side]);
        } else {
          v = EvalExpr(*aggs[a].arg, row_leaf(ctx));
        }
      }
      UpdateAgg(aggs[a], &states[a], v);
    }
  };

  // Fast path: when every group key is a narrow integer field (the common
  // seeker shapes: (TableId, ColumnId), (TableId), (TableId, ColumnId,
  // ColumnId)), keys pack into one uint64 and the per-row work avoids any
  // allocation.
  struct PackedField {
    uint8_t side;
    Field field;
    int shift;
    int width;
  };
  std::vector<PackedField> packed;
  bool packable = !key_exprs.empty();
  {
    int shift = 0;
    for (const auto& ke : key_exprs) {
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
      if (width == 0 || shift + width > 64) {
        packable = false;
        break;
      }
      packed.push_back({ke->side, ke->field, shift, width});
      shift += width;
    }
  }

  bool fast_done = false;
  if (packable) {
    // Partitioned parallel hash aggregation: chunk-local flat maps keyed by
    // the packed uint64, then a radix-partitioned merge where each worker
    // owns a disjoint key partition and folds chunks in ascending chunk
    // order. Group output order is restored to first-appearance order (the
    // serial order) by sorting on each group's first global row index.
    struct LocalGroup {
      uint64_t key;
      size_t first;
      std::vector<SqlValue> keys;
      std::vector<AggState> states;
    };
    const size_t n = rows.size();
    const size_t num_chunks = (n + kAggChunkRows - 1) / kAggChunkRows;
    std::vector<std::vector<LocalGroup>> chunk_groups(num_chunks);
    std::vector<uint8_t> overflowed(num_chunks, 0);
    BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace, TraceStage::kAggregation,
                                 num_chunks, [&](size_t c) {
      const size_t b = c * kAggChunkRows;
      const size_t e = std::min(n, b + kAggChunkRows);
      std::unordered_map<uint64_t, uint32_t> index;
      index.reserve((e - b) / 4 + 16);
      std::vector<LocalGroup>& groups_c = chunk_groups[c];
      for (size_t r = b; r < e; ++r) {
        const RowCtx& ctx = rows[r];
        uint64_t key = 0;
        bool fits = true;
        for (const auto& pf : packed) {
          SqlValue v = FieldValue(store, pf.field, ctx.pos[pf.side]);
          uint64_t raw = static_cast<uint64_t>(v.i);
          if (pf.width < 64 && (raw >> pf.width) != 0) {
            fits = false;
            break;
          }
          key |= raw << pf.shift;
        }
        if (!fits) {  // a value overflowed its packed width: redo generically
          overflowed[c] = 1;
          groups_c.clear();
          return;
        }
        auto [it, inserted] =
            index.try_emplace(key, static_cast<uint32_t>(groups_c.size()));
        if (inserted) {
          LocalGroup g;
          g.key = key;
          g.first = r;
          g.keys.reserve(packed.size());
          for (const auto& pf : packed) {
            g.keys.push_back(FieldValue(store, pf.field, ctx.pos[pf.side]));
          }
          g.states.resize(aggs.size());
          groups_c.push_back(std::move(g));
        }
        update_states(groups_c[it->second].states, ctx);
      }
    }));
    bool any_overflow = false;
    for (uint8_t f : overflowed) any_overflow = any_overflow || f != 0;
    if (!any_overflow) {
      fast_done = true;
      std::vector<std::vector<LocalGroup>> part_groups(kMergePartitions);
      BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace,
                                   TraceStage::kAggregationMerge,
                                   kMergePartitions, [&](size_t part) {
        std::unordered_map<uint64_t, uint32_t> part_index;
        std::vector<LocalGroup>& merged = part_groups[part];
        for (size_t c = 0; c < num_chunks; ++c) {
          for (LocalGroup& g : chunk_groups[c]) {
            if ((Mix64(g.key) & (kMergePartitions - 1)) != part) continue;
            auto [it, inserted] =
                part_index.try_emplace(g.key, static_cast<uint32_t>(merged.size()));
            if (inserted) {
              merged.push_back(std::move(g));
              continue;
            }
            LocalGroup& into = merged[it->second];
            into.first = std::min(into.first, g.first);
            for (size_t a = 0; a < aggs.size(); ++a) {
              MergeAggState(&into.states[a], &g.states[a]);
            }
          }
        }
      }));
      std::vector<LocalGroup> all;
      for (auto& pg : part_groups) {
        for (auto& g : pg) all.push_back(std::move(g));
      }
      std::sort(all.begin(), all.end(),
                [](const LocalGroup& a, const LocalGroup& b) {
                  return a.first < b.first;
                });
      groups.reserve(all.size());
      for (auto& g : all) {
        groups.push_back({std::move(g.keys), std::move(g.states)});
      }
    }
  }

  if (!fast_done) {
    // Generic aggregation (non-packable keys, GROUP BY-less global
    // aggregates, or a packed-width overflow): the same chunk-local +
    // radix-partitioned merge scheme as the packed fast path, with arbitrary
    // SqlValue key vectors matched by hash then equality. Chunks and merge
    // order depend only on the row count, and the final sort on each group's
    // first global row index restores first-appearance order, so the result
    // is byte-identical for every pool size.
    struct GenGroup {
      uint64_t hash;
      size_t first;
      std::vector<SqlValue> keys;
      std::vector<AggState> states;
    };
    const size_t n = rows.size();
    const size_t num_chunks = (n + kAggChunkRows - 1) / kAggChunkRows;
    std::vector<std::vector<GenGroup>> chunk_groups(num_chunks);
    BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace, TraceStage::kAggregation,
                                 num_chunks, [&](size_t c) {
      const size_t b = c * kAggChunkRows;
      const size_t e = std::min(n, b + kAggChunkRows);
      std::unordered_map<uint64_t, std::vector<uint32_t>> index;
      std::vector<GenGroup>& groups_c = chunk_groups[c];
      for (size_t r = b; r < e; ++r) {
        const RowCtx& ctx = rows[r];
        auto leaf = row_leaf(ctx);
        std::vector<SqlValue> key;
        key.reserve(key_exprs.size());
        uint64_t h = 0x13198A2E03707344ULL;
        for (const auto& ke : key_exprs) {
          key.push_back(EvalExpr(*ke, leaf));
          h = HashCombine(h, key.back().Hash());
        }
        uint32_t gi = UINT32_MAX;
        auto& bucket = index[h];
        for (uint32_t cand : bucket) {
          if (groups_c[cand].keys == key) {
            gi = cand;
            break;
          }
        }
        if (gi == UINT32_MAX) {
          gi = static_cast<uint32_t>(groups_c.size());
          GenGroup g;
          g.hash = h;
          g.first = r;
          g.keys = std::move(key);
          g.states.resize(aggs.size());
          groups_c.push_back(std::move(g));
          bucket.push_back(gi);
        }
        update_states(groups_c[gi].states, ctx);
      }
    }));
    if (num_chunks == 1) {
      // Single chunk: already in first-appearance order; skip the merge.
      groups.reserve(chunk_groups[0].size());
      for (GenGroup& g : chunk_groups[0]) {
        groups.push_back({std::move(g.keys), std::move(g.states)});
      }
    } else if (num_chunks > 1) {
      // Merge with each worker owning a disjoint hash partition, folding
      // chunks in ascending chunk order (the double-sum rounding order).
      std::vector<std::vector<GenGroup>> part_groups(kMergePartitions);
      BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace,
                                   TraceStage::kAggregationMerge,
                                   kMergePartitions, [&](size_t part) {
        std::unordered_map<uint64_t, std::vector<uint32_t>> part_index;
        std::vector<GenGroup>& merged = part_groups[part];
        for (size_t c = 0; c < num_chunks; ++c) {
          for (GenGroup& g : chunk_groups[c]) {
            if ((Mix64(g.hash) & (kMergePartitions - 1)) != part) continue;
            uint32_t gi = UINT32_MAX;
            auto& bucket = part_index[g.hash];
            for (uint32_t cand : bucket) {
              if (merged[cand].keys == g.keys) {
                gi = cand;
                break;
              }
            }
            if (gi == UINT32_MAX) {
              bucket.push_back(static_cast<uint32_t>(merged.size()));
              merged.push_back(std::move(g));
              continue;
            }
            GenGroup& into = merged[gi];
            into.first = std::min(into.first, g.first);
            for (size_t a = 0; a < aggs.size(); ++a) {
              MergeAggState(&into.states[a], &g.states[a]);
            }
          }
        }
      }));
      std::vector<GenGroup> all;
      for (auto& pg : part_groups) {
        for (auto& g : pg) all.push_back(std::move(g));
      }
      std::sort(all.begin(), all.end(),
                [](const GenGroup& a, const GenGroup& b) { return a.first < b.first; });
      groups.reserve(all.size());
      for (auto& g : all) {
        groups.push_back({std::move(g.keys), std::move(g.states)});
      }
    }
  }

  // Global aggregate over zero rows still yields one group.
  if (stmt.group_by.empty() && groups.empty()) {
    Group g;
    g.states.resize(aggs.size());
    groups.push_back(std::move(g));
  }

  if (trace != nullptr) {
    trace->AddRows(TraceStage::kAggregation, static_cast<int64_t>(groups.size()));
  }

  std::vector<GroupOut> out_groups;
  out_groups.reserve(groups.size());
  for (Group& g : groups) {
    GroupOut og;
    og.keys = std::move(g.keys);
    og.agg_vals.resize(aggs.size());
    for (size_t a = 0; a < aggs.size(); ++a) {
      og.agg_vals[a] = FinalizeAgg(aggs[a], g.states[a]);
    }
    out_groups.push_back(std::move(og));
  }
  EmitGroups(out_groups, items, sort_ref, sort_exprs, desc, stmt, options, &result);
  return result;
}

template <typename Store>
Result<QueryResult> ExecuteSelect(const SelectStmt& stmt, const Store& store,
                                  const Dictionary& dict,
                                  const QueryOptions& options) {
  return ExecuteOrDescribe(stmt, store, dict, options, nullptr);
}

template <typename Store>
Result<PlanDescription> DescribeSelect(const SelectStmt& stmt,
                                       const Store& store,
                                       const Dictionary& dict,
                                       const QueryOptions& options) {
  PlanDescription plan;
  auto r = ExecuteOrDescribe(stmt, store, dict, options, &plan);
  if (!r.ok()) return r.status();
  return plan;
}

template Result<QueryResult> ExecuteSelect<RowStore>(const SelectStmt&,
                                                     const RowStore&,
                                                     const Dictionary&,
                                                     const QueryOptions&);
template Result<QueryResult> ExecuteSelect<ColumnStore>(const SelectStmt&,
                                                        const ColumnStore&,
                                                        const Dictionary&,
                                                        const QueryOptions&);
template Result<PlanDescription> DescribeSelect<RowStore>(const SelectStmt&,
                                                          const RowStore&,
                                                          const Dictionary&,
                                                          const QueryOptions&);
template Result<PlanDescription> DescribeSelect<ColumnStore>(
    const SelectStmt&, const ColumnStore&, const Dictionary&,
    const QueryOptions&);

}  // namespace blend::sql
