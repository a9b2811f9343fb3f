#include "core/executor.h"

#include <algorithm>
#include <unordered_set>

#include "common/control.h"
#include "common/scheduler.h"
#include "common/str_util.h"
#include "common/timer.h"

namespace blend::core {

namespace {

/// Builds the SQL rewrite predicate from already-computed node outputs:
/// Intersection sources contribute the intersection of their id sets, NOT IN
/// sources their union.
std::string BuildRewrite(
    const RewriteSpec& spec,
    const std::unordered_map<std::string, TableList>& node_outputs) {
  if (spec.kind == RewriteSpec::Kind::kNone || spec.sources.empty()) return "";

  std::vector<int64_t> ids;
  if (spec.kind == RewriteSpec::Kind::kIn) {
    // Intersection of the sources' table-id sets.
    std::unordered_map<TableId, size_t> counts;
    for (const auto& src : spec.sources) {
      auto it = node_outputs.find(src);
      if (it == node_outputs.end()) continue;
      std::unordered_set<TableId> seen;
      for (const auto& e : it->second) {
        if (seen.insert(e.table).second) ++counts[e.table];
      }
    }
    // Membership test per table, order-independent; `ids` feeds an IN-list
    // whose scan order is fixed by the clustered index, not this loop.
    // blend-lint: allow(unordered-iter)
    for (const auto& [t, c] : counts) {
      if (c == spec.sources.size()) ids.push_back(t);
    }
    // Empty intersection selects nothing; the parser rejects `IN ()`, so use
    // a table id that never exists (ids are non-negative). The scan then
    // takes the clustered-index path and visits zero records.
    if (ids.empty()) return "AND TableId IN (-1)";
    std::sort(ids.begin(), ids.end());
    return "AND TableId IN (" + SqlInListInts(ids) + ")";
  }

  // Union for NOT IN.
  std::unordered_set<TableId> all;
  for (const auto& src : spec.sources) {
    auto it = node_outputs.find(src);
    if (it == node_outputs.end()) continue;
    for (const auto& e : it->second) all.insert(e.table);
  }
  ids.assign(all.begin(), all.end());
  std::sort(ids.begin(), ids.end());
  if (ids.empty()) return "";  // NOT IN () excludes nothing
  return "AND TableId NOT IN (" + SqlInListInts(ids) + ")";
}

/// The optimizer's steps grouped into waves. A step reads the outputs of the
/// steps it depends on: a seeker its rewrite sources, a combiner its inputs.
/// It runs in the wave after the latest of them, so the steps of one wave
/// read only outputs published by earlier waves. Waves list their steps in
/// step order.
Result<std::vector<std::vector<size_t>>> StepWaves(
    const Plan& plan, const std::vector<ExecutionStep>& steps) {
  std::unordered_map<std::string, size_t> wave_of;  // node id -> wave
  std::vector<std::vector<size_t>> waves;
  for (size_t i = 0; i < steps.size(); ++i) {
    const Plan::Node& node = plan.node(steps[i].node);
    size_t wave = 0;
    for (const auto& dep : node.is_seeker() ? steps[i].rewrite.sources : node.inputs) {
      auto it = wave_of.find(dep);
      if (it == wave_of.end()) {
        return Status::Internal("input '" + dep + "' of '" + node.id +
                                "' not computed");
      }
      wave = std::max(wave, it->second + 1);
    }
    wave_of.emplace(node.id, wave);
    if (wave == waves.size()) waves.emplace_back();
    waves[wave].push_back(i);
  }
  return waves;
}

/// What one step produced: filled by the task that ran it, read after its
/// wave.
struct StepRun {
  Status status;
  TableList output;
  /// Filled when the step completes (its node id is empty until then).
  PlanStepTiming timing;
  /// The step's own statement-plan sink: steps of one wave capture
  /// concurrently.
  sql::PlanCaptureSink plans;
};

}  // namespace

std::string ExecutionReport::RenderStatementPlans() const {
  std::string out;
  for (size_t i = 0; i < statement_plans.size(); ++i) {
    const sql::CapturedStatementPlan& entry = statement_plans[i];
    out += "-- statement " + std::to_string(i + 1) + " of " +
           std::to_string(statement_plans.size()) + " --\n";
    out += entry.sql;
    if (!entry.sql.empty() && entry.sql.back() != '\n') out += '\n';
    out += entry.plan.Render();
  }
  return out;
}

Result<ExecutionReport> PlanExecutor::Run(const Plan& plan, bool optimize) const {
  ExecutionReport report;
  QueryTrace* trace = ctx_->query_options.trace;

  StopWatch opt_watch;
  Optimizer optimizer(ctx_->stats);
  BLEND_ASSIGN_OR_RETURN(report.executed_plan, optimizer.Optimize(plan, optimize));
  report.optimize_seconds = opt_watch.ElapsedSeconds();
  if (trace != nullptr) {
    trace->AddStage(TraceStage::kOptimize,
                    static_cast<int64_t>(report.optimize_seconds * 1e9), 1);
  }

  const std::vector<ExecutionStep>& steps = report.executed_plan.steps;
  BLEND_ASSIGN_OR_RETURN(auto waves, StepWaves(plan, steps));
  Scheduler* sched = ctx_->query_options.scheduler != nullptr
                         ? ctx_->query_options.scheduler
                         : Scheduler::Serial();
  sql::PlanCaptureSink* capture = ctx_->query_options.plan_capture;
  std::vector<StepRun> runs(steps.size());

  // Runs step i. node_outputs is read-only while a wave runs; each step
  // writes only its own StepRun.
  auto run_step = [&](size_t i) {
    const Plan::Node& node = plan.node(steps[i].node);
    StepRun& run = runs[i];
    StopWatch step_watch;
    if (node.is_seeker()) {
      DiscoveryContext ctx = *ctx_;
      if (capture != nullptr) ctx.query_options.plan_capture = &run.plans;
      const std::string rewrite = BuildRewrite(steps[i].rewrite, report.node_outputs);
      Result<TableList> out = node.seeker->Execute(ctx, rewrite);
      if (!out.ok()) {
        run.status = out.status();
        return;
      }
      run.output = out.take();
    } else {
      std::vector<TableList> inputs;
      inputs.reserve(node.inputs.size());
      for (const auto& in : node.inputs) inputs.push_back(report.node_outputs.at(in));
      run.output = node.combiner->Combine(inputs);
    }
    run.timing = {node.id, node.is_seeker() ? node.seeker->name() : "combiner",
                  step_watch.ElapsedSeconds(), run.output.size()};
  };

  StopWatch run_watch;
  const uint64_t queries_before = ctx_->engine->QueriesServed();
  size_t finished = 0;  // steps [0, finished) are reported
  for (const std::vector<size_t>& wave : waves) {
    // Plan-step control boundary: a tripped deadline/cancel/budget stops the
    // plan before its next wave, complementing the finer-grained morsel
    // checks inside each seeker's queries.
    BLEND_RETURN_NOT_OK(CheckControl(ctx_->query_options.control, "plan step"));
    sched->ParallelFor(wave.size(), [&](size_t w) { run_step(wave[w]); });
    for (size_t i : wave) BLEND_RETURN_NOT_OK(runs[i].status);
    for (size_t i : wave) {
      report.node_outputs.emplace(steps[i].node, std::move(runs[i].output));
    }
    // Timings, trace records and statement plans follow step order: report
    // every step up to the first one a later wave still has to run.
    for (; finished < steps.size() && !runs[finished].timing.node.empty(); ++finished) {
      StepRun& run = runs[finished];
      if (trace != nullptr) {
        trace->AddStage(TraceStage::kPlanStep,
                        static_cast<int64_t>(run.timing.seconds * 1e9), 1);
        trace->AddRows(TraceStage::kPlanStep,
                       static_cast<int64_t>(run.timing.output_rows));
      }
      report.step_timings.push_back(std::move(run.timing));
      if (capture != nullptr) {
        for (auto& p : run.plans.plans) capture->plans.push_back(std::move(p));
      }
    }
  }
  report.seconds = run_watch.ElapsedSeconds();
  report.engine_queries = ctx_->engine->QueriesServed() - queries_before;
  if (trace != nullptr) report.trace = trace->Summary();

  BLEND_ASSIGN_OR_RETURN(auto sink, plan.SinkId());
  report.output = report.node_outputs.at(sink);
  return report;
}

}  // namespace blend::core
