#pragma once

// EXPLAIN / EXPLAIN ANALYZE plan descriptions. The executor plans each
// statement once into a physical plan; it runs that plan, and these
// descriptions render it, so an EXPLAIN shows the operators the bare
// statement runs. Under EXPLAIN ANALYZE the statement executes normally and
// each node carries the actuals its own operator recorded. Rendering is
// exposition only: plan text never rides in result rows, so ANALYZE results
// stay byte-identical to the bare statement.

#include <cstdint>
#include <string>
#include <vector>

namespace blend::sql {

/// One operator in a planned statement's tree.
struct PlanNode {
  int depth = 0;         ///< indentation level under the root
  std::string op;        ///< operator name, e.g. "HashJoin"
  std::string detail;    ///< bound columns, predicates, morsel geometry
  int64_t est_rows = -1;       ///< plan-time cardinality (-1 = unknown)
  int64_t planned_tasks = -1;  ///< morsel/task count decided at plan time

  // EXPLAIN ANALYZE actuals recorded by the node's operator; -1 where it ran
  // no tasks of its own (time, tasks) or emitted no rows of its own.
  double actual_seconds = -1;
  int64_t actual_tasks = -1;
  int64_t actual_rows = -1;
};

/// A planned statement: its operator nodes in root-first order.
struct PlanDescription {
  std::vector<PlanNode> nodes;
  bool analyzed = false;

  /// Aligned table, one row per node ("operator" column indented by depth).
  /// Analyzed plans add actual time/tasks/rows columns.
  std::string Render() const;
};

/// One statement's SQL together with its executed plan and actuals — the
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
