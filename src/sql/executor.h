#pragma once

#include <string>
#include <vector>

#include "common/control.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "sql/ast.h"
#include "sql/explain.h"
#include "sql/expr_eval.h"
#include "storage/dictionary.h"

namespace blend {
class Scheduler;
}

namespace blend::sql {

/// Materialized query output. Cells are NULL / int64 / double; CellValue
/// columns surface their dictionary ids.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<SqlValue>> rows;
  /// EXPLAIN / EXPLAIN ANALYZE output: the structured plan and its rendered
  /// table. Plain statements leave both empty (under plan capture the engine
  /// moves the plan into the sink). Introspection never rides in `rows` — an
  /// EXPLAIN ANALYZE's rows stay byte-identical to the bare statement's
  /// (EXPLAIN returns no rows at all).
  PlanDescription plan;
  std::string explain_text;

  size_t NumRows() const { return rows.size(); }
  int64_t Int(size_t r, size_t c) const { return rows[r][c].AsInt(); }
  double Double(size_t r, size_t c) const { return rows[r][c].AsDouble(); }
  bool IsNull(size_t r, size_t c) const { return rows[r][c].is_null(); }
};

/// Execution knobs threaded from Engine::Query down to the operators.
struct QueryOptions {
  /// Work-stealing pool executing the morsel tasks of scans, joins, and
  /// aggregation. nullptr means serial inline execution at this layer;
  /// Engine::Query substitutes its engine-scoped pool for a null handle, so
  /// pass Scheduler::Serial() to force a serial query through the engine.
  /// The result is byte-identical — values and row order — for every pool
  /// size (including serial) and any number of concurrent queries sharing
  /// the pool: morsel geometry depends only on input sizes, morsel outputs
  /// are concatenated in morsel order, and merge order is fixed.
  Scheduler* scheduler = nullptr;
  /// Engine-side dedup-top-k: when dedup_column >= 0, after the final
  /// ORDER BY sort only the first row per distinct value of output column
  /// `dedup_column` is kept, and emission stops once `dedup_limit` distinct
  /// values have been seen (dedup_limit < 0 = unbounded). Replaces the
  /// seekers' client-side widened-LIMIT retry loop with one exhaustive
  /// query whose sort/dedup happens inside the engine.
  int dedup_column = -1;
  int64_t dedup_limit = -1;
  /// Optional per-query deadline / cancellation / memory-budget handle,
  /// checked cooperatively at morsel boundaries. Not owned; the caller keeps
  /// the QueryControl alive for the duration of the query. nullptr (the
  /// default) means unconstrained. A query that completes under its controls
  /// is byte-identical to an unconstrained run; a tripped control returns a
  /// descriptive kDeadlineExceeded / kCancelled / kResourceExhausted Status,
  /// never a partial result.
  const QueryControl* control = nullptr;
  /// Optional per-query trace: operators attribute wall time, task counts,
  /// and rows to TraceStage cells at morsel-task granularity (TraceSpan /
  /// QueueWaitProbe record around each task, never inside the task's loop).
  /// Not owned; nullptr (the default) records nothing and reads no clocks.
  /// Tracing never changes morsel geometry, merge order, or results — the
  /// determinism suite pins byte-identity with tracing on vs off.
  QueryTrace* trace = nullptr;
  /// Optional plan collector: when set, Engine::Query appends the plan of
  /// each plain statement it executes here, rendered after the run with the
  /// actuals each operator recorded, as under EXPLAIN ANALYZE. Recording
  /// actuals never alters morsel geometry or results.
  /// Not owned; nullptr (the default) captures nothing.
  PlanCaptureSink* plan_capture = nullptr;
};

/// Runs one statement against a physical store. Instantiated for RowStore
/// and ColumnStore (the (Row)/(Column) deployments of the paper's
/// experiments). The statement is planned once into a physical plan: the
/// relation scans, the join chain (a lookup join where a step is keyed on
/// (TableId, RowId) and its relation scans in position order, else a hash
/// join), the residual WHERE, and a projection or an aggregate. An aggregate
/// over one relation with no residual WHERE and no SUM/AVG (the SC/KW seeker
/// shape) reads the scan morsels in place and counts COUNT(DISTINCT
/// CellValue) over the CellValue index per posting list; the answer is the
/// row stream's.
///
/// A plain statement runs the plan. EXPLAIN renders it into
/// QueryResult::plan without running it (binds, never scans or charges
/// budgets). EXPLAIN ANALYZE, and a plain statement under
/// QueryOptions::plan_capture, run it with each operator recording its
/// actuals — rows out, tasks, wall time — and render it afterwards.
template <typename Store>
Result<QueryResult> ExecuteSelect(const Statement& stmt, const Store& store,
                                  const Dictionary& dict,
                                  const QueryOptions& options = {});

}  // namespace blend::sql
