#include "core/blend.h"

#include <optional>

#include "common/str_util.h"
#include "index/snapshot.h"

namespace blend::core {

namespace {
IndexBuildOptions BuildOptionsFor(const Blend::Options& options) {
  IndexBuildOptions build;
  build.layout = options.layout;
  build.shuffle_rows = options.shuffle_rows;
  build.shuffle_seed = options.shuffle_seed;
  return build;
}

/// Per-run outcome instruments, keyed by the Status a run returns so control
/// trips (deadline / cancel / budget) are distinguishable from genuine
/// failures on a dashboard. Recorded once per run in RunReportImpl — the
/// public Run/RunReport/RunMany surfaces all funnel through it.
struct BlendMetrics {
  Counter* runs_ok;
  Counter* runs_deadline;
  Counter* runs_cancelled;
  Counter* runs_exhausted;
  Counter* runs_error;
  Counter* run_many;
  Histogram* run_seconds;

  static const BlendMetrics& Get() {
    static const BlendMetrics m = [] {
      auto& reg = MetricsRegistry::Global();
      BlendMetrics out;
      out.runs_ok = reg.GetCounter("blend_runs_ok_total");
      out.runs_deadline = reg.GetCounter("blend_runs_deadline_exceeded_total");
      // Includes RunMany members cancelled after a sibling failed.
      out.runs_cancelled = reg.GetCounter("blend_runs_cancelled_total");
      out.runs_exhausted = reg.GetCounter("blend_runs_resource_exhausted_total");
      out.runs_error = reg.GetCounter("blend_runs_error_total");
      out.run_many = reg.GetCounter("blend_run_many_total");
      out.run_seconds = reg.GetHistogram("blend_run_seconds");
      return out;
    }();
    return m;
  }
};
}  // namespace

Blend::Blend(const DataLake* lake, Options options)
    : Blend(lake, options, IndexBuilder(BuildOptionsFor(options)).Build(*lake)) {}

Blend::Blend(const DataLake* lake, Options options, IndexBundle bundle)
    : options_(options),
      lake_(lake),
      owned_scheduler_(options.scheduler == nullptr && options.query_threads != 0
                           ? std::make_unique<Scheduler>(options.query_threads)
                           : nullptr),
      scheduler_(options.scheduler != nullptr
                     ? options.scheduler
                     : (owned_scheduler_ != nullptr ? owned_scheduler_.get()
                                                    : Scheduler::Default())),
      bundle_(std::move(bundle)),
      engine_(&bundle_, scheduler_),
      stats_(&bundle_) {
  options_.layout = bundle_.layout();
  ctx_.bundle = &bundle_;
  ctx_.engine = &engine_;
  ctx_.stats = &stats_;
  ctx_.query_options.scheduler = scheduler_;
}

Status Blend::SaveSnapshot(const std::string& path) const {
  SnapshotOptions opts;
  opts.scheduler = scheduler_;
  opts.codec = options_.snapshot_codec;
  return WriteSnapshot(bundle_, path, opts);
}

Result<std::unique_ptr<Blend>> Blend::OpenSnapshot(const std::string& path,
                                                   const DataLake* lake) {
  return OpenSnapshot(path, lake, Options());
}

Result<std::unique_ptr<Blend>> Blend::OpenSnapshot(const std::string& path,
                                                   const DataLake* lake,
                                                   Options options) {
  SnapshotOptions snap_opts;
  snap_opts.scheduler = options.scheduler;
  BLEND_ASSIGN_OR_RETURN(auto bundle, blend::OpenSnapshot(path, snap_opts));
  // unique_ptr: the ctor wires ctx_/engine_/stats_ to member addresses, so a
  // Blend must never move after construction.
  return std::unique_ptr<Blend>(new Blend(lake, options, std::move(bundle)));
}

Result<TableList> Blend::Run(const Plan& plan) const {
  BLEND_ASSIGN_OR_RETURN(auto report, RunReport(plan));
  return report.output;
}

Result<TableList> Blend::Run(const Plan& plan, const QueryControl& control) const {
  BLEND_ASSIGN_OR_RETURN(auto report, RunReport(plan, control));
  return report.output;
}

Result<std::vector<TableList>> Blend::RunMany(std::span<const Plan> plans) const {
  return RunMany(plans, QueryControl());
}

Result<std::vector<TableList>> Blend::RunMany(std::span<const Plan> plans,
                                              const QueryControl& control) const {
  // One task per plan on the engine scheduler; nested submission lets each
  // plan's own morsel-parallel queries fan out on the same pool without
  // oversubscribing. Slots are task-indexed, so output order (and the
  // selected error on failure) is independent of completion order.
  //
  // Every plan runs under a batch control nested below the caller's handle:
  // the first failing plan cancels its siblings through it, so an
  // already-doomed batch stops burning pool time instead of completing
  // results that would be thrown away.
  BlendMetrics::Get().run_many->Increment();
  const QueryControl batch = QueryControl::Nested(control);
  std::vector<std::optional<Result<TableList>>> slots(plans.size());
  scheduler_->ParallelFor(plans.size(), [&](size_t i) {
    slots[i] = Run(plans[i], batch);
    if (!slots[i]->ok()) batch.Cancel();
  });
  // Error selection: the lowest-indexed genuine failure wins. Siblings that
  // report kCancelled only because the batch abort reached them first are
  // skipped — unless every failure is a cancellation (the caller's own
  // handle was cancelled), in which case the lowest-indexed one is returned.
  // With several genuine failures racing the abort, the one reported may
  // differ from a strict lowest-index rule only when a lower-indexed plan
  // was converted to kCancelled by the abort itself.
  const Status* first_cancelled = nullptr;
  for (const auto& slot : slots) {
    if (slot->ok()) continue;
    if (slot->status().code() != StatusCode::kCancelled) return slot->status();
    if (first_cancelled == nullptr) first_cancelled = &slot->status();
  }
  if (first_cancelled != nullptr) return *first_cancelled;
  std::vector<TableList> outputs;
  outputs.reserve(plans.size());
  for (auto& slot : slots) outputs.push_back(std::move(*slot).take());
  return outputs;
}

Result<ExecutionReport> Blend::RunReport(const Plan& plan) const {
  return RunReportImpl(plan, nullptr);
}

Result<ExecutionReport> Blend::RunReport(const Plan& plan,
                                         const QueryControl& control) const {
  return RunReportImpl(plan, &control);
}

Result<ExecutionReport> Blend::RunReportImpl(const Plan& plan,
                                             const QueryControl* control) const {
  const BlendMetrics& metrics = BlendMetrics::Get();
  LatencyTimer timer(metrics.run_seconds);
  // Per-query context copy: the shared ctx_ stays control- and trace-free
  // (Blend is shared-immutable across serving threads); the copy carries the
  // caller's handle and this run's trace down through QueryOptions into every
  // executor stage and seeker. The trace outlives execution by construction:
  // PlanExecutor::Run summarizes it into the report before returning.
  QueryTrace trace;
  if (options_.capture_trace_spans) trace.EnableSpanCapture();
  sql::PlanCaptureSink plan_sink;
  DiscoveryContext ctx = ctx_;
  if (control != nullptr && control->active()) ctx.query_options.control = control;
  ctx.query_options.trace = &trace;
  if (options_.capture_statement_plans) {
    ctx.query_options.plan_capture = &plan_sink;
  }
  PlanExecutor executor(&ctx, model_ ? model_.get() : nullptr);
  Result<ExecutionReport> report = executor.Run(plan, options_.optimize);
  if (ExecutionReport* rep = report.ok() ? &report.value() : nullptr) {
    metrics.runs_ok->Increment();
    rep->statement_plans = std::move(plan_sink.plans);
    if (options_.capture_trace_spans) rep->trace_spans = trace.TakeSpans();
  } else {
    switch (report.status().code()) {
      case StatusCode::kDeadlineExceeded:
        metrics.runs_deadline->Increment();
        break;
      case StatusCode::kCancelled:
        metrics.runs_cancelled->Increment();
        break;
      case StatusCode::kResourceExhausted:
        metrics.runs_exhausted->Increment();
        break;
      default:
        metrics.runs_error->Increment();
        break;
    }
  }
  return report;
}

Status Blend::TrainCostModel(int samples_per_type, uint64_t seed) {
  if (lake_ == nullptr) {
    return Status::InvalidArgument(
        "TrainCostModel samples its inputs from the lake; this Blend was "
        "opened from a snapshot without one");
  }
  CostModelTrainer::Options opts;
  opts.samples_per_type = samples_per_type;
  opts.seed = seed;
  CostModelTrainer trainer(opts);
  BLEND_ASSIGN_OR_RETURN(auto model, trainer.Train(*lake_, ctx_));
  model_ = std::make_unique<CostModel>(std::move(model));
  return Status::OK();
}

namespace tasks {

Result<std::string> AddUnionSearch(Plan* plan, const Table& query, int k,
                                   int per_column_k, const std::string& prefix) {
  std::vector<std::string> seeker_ids;
  for (size_t c = 0; c < query.NumColumns(); ++c) {
    std::vector<std::string> values = query.column(c).cells;
    std::string id = prefix + "_sc" + std::to_string(c);
    BLEND_RETURN_NOT_OK(
        plan->Add(id, std::make_shared<SCSeeker>(std::move(values), per_column_k)));
    seeker_ids.push_back(std::move(id));
  }
  if (seeker_ids.empty()) {
    return Status::InvalidArgument("union search needs a non-empty query table");
  }
  std::string sink = prefix + "_counter";
  BLEND_RETURN_NOT_OK(
      plan->Add(sink, std::make_shared<CounterCombiner>(k), seeker_ids));
  return sink;
}

Result<std::string> AddNegativeExampleSearch(
    Plan* plan, const std::vector<std::vector<std::string>>& positives,
    const std::vector<std::vector<std::string>>& negatives, int k,
    const std::string& prefix) {
  BLEND_RETURN_NOT_OK(
      plan->Add(prefix + "_pos", std::make_shared<MCSeeker>(positives, k)));
  BLEND_RETURN_NOT_OK(
      plan->Add(prefix + "_neg", std::make_shared<MCSeeker>(negatives, k * 10)));
  std::string sink = prefix + "_diff";
  BLEND_RETURN_NOT_OK(plan->Add(sink, std::make_shared<DifferenceCombiner>(k),
                                {prefix + "_pos", prefix + "_neg"}));
  return sink;
}

Result<std::string> AddDataImputation(
    Plan* plan, const std::vector<std::vector<std::string>>& examples,
    const std::vector<std::string>& queries, int k, const std::string& prefix) {
  BLEND_RETURN_NOT_OK(
      plan->Add(prefix + "_examples", std::make_shared<MCSeeker>(examples, k)));
  BLEND_RETURN_NOT_OK(
      plan->Add(prefix + "_query", std::make_shared<SCSeeker>(queries, k)));
  std::string sink = prefix + "_intersection";
  BLEND_RETURN_NOT_OK(plan->Add(sink, std::make_shared<IntersectCombiner>(k),
                                {prefix + "_examples", prefix + "_query"}));
  return sink;
}

Result<std::string> AddFeatureDiscovery(
    Plan* plan, const std::vector<std::string>& join_keys,
    const std::vector<double>& target,
    const std::vector<std::vector<double>>& existing_features,
    const std::vector<std::vector<std::string>>& key_tuples, int k,
    const std::string& prefix) {
  // Correlation with the prediction target.
  BLEND_RETURN_NOT_OK(plan->Add(
      prefix + "_target",
      std::make_shared<CorrelationSeeker>(join_keys, target, k * 10)));
  // One correlation seeker per existing feature; tables correlating with an
  // existing feature are filtered out (multicollinearity check).
  std::string current = prefix + "_target";
  for (size_t f = 0; f < existing_features.size(); ++f) {
    std::string cid = prefix + "_collin" + std::to_string(f);
    BLEND_RETURN_NOT_OK(plan->Add(
        cid, std::make_shared<CorrelationSeeker>(join_keys, existing_features[f],
                                                 k * 10)));
    std::string did = prefix + "_diff" + std::to_string(f);
    BLEND_RETURN_NOT_OK(plan->Add(did, std::make_shared<DifferenceCombiner>(k * 10),
                                  {current, cid}));
    current = did;
  }
  std::string sink = current;
  if (!key_tuples.empty() && !key_tuples[0].empty() && key_tuples[0].size() >= 2) {
    BLEND_RETURN_NOT_OK(
        plan->Add(prefix + "_mc", std::make_shared<MCSeeker>(key_tuples, k * 10)));
    sink = prefix + "_join";
    BLEND_RETURN_NOT_OK(plan->Add(sink, std::make_shared<IntersectCombiner>(k),
                                  {current, prefix + "_mc"}));
  }
  return sink;
}

Result<std::string> AddMultiObjective(Plan* plan,
                                      const std::vector<std::string>& keywords,
                                      const Table& examples,
                                      const std::vector<std::string>& join_keys,
                                      const std::vector<double>& target, int k,
                                      const std::string& prefix) {
  // Keyword search.
  BLEND_RETURN_NOT_OK(
      plan->Add(prefix + "_kw", std::make_shared<KWSeeker>(keywords, k)));
  // Union search sub-plan.
  BLEND_ASSIGN_OR_RETURN(std::string counter,
                         AddUnionSearch(plan, examples, k, 100, prefix + "_union"));
  // Correlation search.
  BLEND_RETURN_NOT_OK(plan->Add(
      prefix + "_corr", std::make_shared<CorrelationSeeker>(join_keys, target, k)));
  // Results aggregation.
  std::string sink = prefix + "_out";
  BLEND_RETURN_NOT_OK(plan->Add(sink, std::make_shared<UnionCombiner>(4 * k),
                                {prefix + "_kw", counter, prefix + "_corr"}));
  return sink;
}

}  // namespace tasks

}  // namespace blend::core
