#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/telemetry.h"
#include "core/context.h"
#include "core/optimizer.h"
#include "core/plan.h"
#include "sql/explain.h"

namespace blend::core {

/// Wall time and output size of one executed plan step, in step order.
/// All fields zeroed/empty by default.
struct PlanStepTiming {
  /// Plan node id of the step.
  std::string node;
  /// Seeker modality name ("KW", "SC", "C", "MC") or "combiner".
  std::string kind;
  double seconds = 0;
  size_t output_rows = 0;
};

/// Outcome of running a discovery plan. Every scalar field defaults to zero
/// and every container to empty, so reports compose by whole-struct copy or
/// move — never rebuild one field-by-field, or new telemetry fields (timings,
/// trace) silently drop.
struct ExecutionReport {
  /// Output of the plan's sink node.
  TableList output;
  /// Output of every node (keyed by node id), for debugging and combiners
  /// with multiple consumers.
  std::unordered_map<std::string, TableList> node_outputs;
  /// End-to-end execution time (excludes optimization when reported
  /// separately; see `optimize_seconds`).
  double seconds = 0;
  double optimize_seconds = 0;
  /// SQL statements the engine served during this run (the delta of
  /// sql::Engine::QueriesServed around execution). Exact when the engine
  /// serves only this plan; approximate under concurrent serving, where
  /// other threads' queries land in the same counter. Tests use it to pin
  /// per-operator query budgets, e.g. that a dedup-top-k seeker issues one
  /// exhaustive statement instead of a widening retry loop.
  uint64_t engine_queries = 0;
  /// Per-plan-step wall times and output sizes, in step order (steps of one
  /// wave overlap, so their times may sum to more than `seconds`).
  std::vector<PlanStepTiming> step_timings;
  /// The query's finished trace (stage wall times / task counts / rows plus
  /// event counters: posting blocks decoded, engine queries, MC validation
  /// funnel). All-zero when the run carried no trace.
  QueryTraceSummary trace;
  /// The steps that were executed, in order (for inspection and tests).
  ExecutionPlan executed_plan;
  /// Executed plans of every SQL statement the run's seekers issued, in
  /// step order (Blend::Options::capture_statement_plans). Each entry
  /// pairs the statement text with its EXPLAIN ANALYZE operator tree;
  /// a four-seeker discovery plan shows up as one report with all of its
  /// statements' plans. Empty when capture is off.
  std::vector<sql::CapturedStatementPlan> statement_plans;
  /// Per-morsel-task spans of the run's trace, sorted by start time
  /// (Blend::Options::capture_trace_spans). Feed to RenderChromeTrace for a
  /// Perfetto-loadable timeline. Empty when capture is off.
  std::vector<CapturedSpan> trace_spans;

  /// Renders every captured statement plan as one report: each statement's
  /// SQL followed by its annotated operator table. Empty string when no
  /// plans were captured.
  std::string RenderStatementPlans() const;
};

/// Runs optimized execution plans: executes seekers against the engine with
/// rewrite predicates built from intermediate results, then applies
/// combiners. The optimizer's steps run in waves on the context's scheduler:
/// a step waits only for the steps it reads (a seeker's rewrite sources, a
/// combiner's inputs), so independent seekers run side by side while each
/// one's statements stay morsel-parallel inside. Step timings, trace records
/// and captured statement plans keep step order, and the report is the same
/// for every pool size; a serial pool runs the waves' steps inline, in step
/// order.
class PlanExecutor {
 public:
  PlanExecutor(const DiscoveryContext* ctx, const CostModel* model)
      : ctx_(ctx), model_(model) {}

  /// Optimizes (unless `optimize` is false, the paper's B-NO mode) and runs
  /// the plan, returning the sink output and per-node intermediates.
  Result<ExecutionReport> Run(const Plan& plan, bool optimize = true) const;

 private:
  const DiscoveryContext* ctx_;
  const CostModel* model_;
};

}  // namespace blend::core
