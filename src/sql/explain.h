#pragma once

// EXPLAIN / EXPLAIN ANALYZE plan descriptions. The executor describes the
// one pipeline's operator tree for a statement, making the same choices
// execution makes (the aggregate's input, lookup vs hash join), so an
// EXPLAIN reports the path the bare statement would take. For EXPLAIN
// ANALYZE the statement also executes normally and each node is annotated
// with actuals from the attached QueryTrace. Rendering is exposition only:
// plan text never rides in result rows, so ANALYZE results stay
// byte-identical to the bare statement.

#include <cstdint>
#include <string>
#include <vector>

#include "common/telemetry.h"

namespace blend::sql {

/// One operator in a planned statement's tree.
struct PlanNode {
  int depth = 0;         ///< indentation level under the root
  std::string op;        ///< operator name, e.g. "HashJoin"
  std::string detail;    ///< bound columns, predicates, morsel geometry
  /// Trace stage whose totals describe this node under ANALYZE; kNumStages
  /// when no stage maps (the node then keeps -1 actuals).
  TraceStage stage = TraceStage::kNumStages;
  int64_t est_rows = -1;       ///< plan-time cardinality (-1 = unknown)
  int64_t planned_tasks = -1;  ///< morsel/task count decided at plan time

  // EXPLAIN ANALYZE actuals, copied from the trace by Annotate.
  double actual_seconds = -1;
  int64_t actual_tasks = -1;
  int64_t actual_rows = -1;
};

/// A planned statement: its operator nodes in root-first order.
struct PlanDescription {
  std::vector<PlanNode> nodes;
  bool analyzed = false;

  /// Copies each stage's seconds/tasks/rows from `summary` onto the nodes
  /// mapped to that stage and marks the plan analyzed.
  void Annotate(const QueryTraceSummary& summary);

  /// Aligned table, one row per node ("operator" column indented by depth).
  /// Analyzed plans add actual time/tasks/rows columns.
  std::string Render() const;
};

/// One statement's SQL together with its (possibly analyzed) plan — the
/// per-statement record a multi-statement run report carries.
struct CapturedStatementPlan {
  std::string sql;
  PlanDescription plan;
};

/// Collector the engine appends to when QueryOptions::plan_capture points
/// here. Deliberately unsynchronized: statements within one run execute
/// serially on the driving thread (parallelism lives inside a statement).
struct PlanCaptureSink {
  std::vector<CapturedStatementPlan> plans;
};

}  // namespace blend::sql
