#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/executor.h"

namespace blend::core {

/// The top-level entry point of the library: builds the unified AllTables
/// index of a data lake offline (or opens a snapshot of one), hosts the
/// embedded SQL engine, and runs discovery plans through the optimizer.
/// Plans are answered from the index alone; the lake is needed only to
/// build the index and to train the cost model.
///
///   DataLake lake = ...;
///   Blend blend(&lake);
///   Plan plan;
///   plan.Add("dep", std::make_shared<SCSeeker>(departments, 10));
///   auto tables = blend.Run(plan).ValueOrDie();
///
/// Concurrent serving: after construction (and an optional TrainCostModel),
/// a Blend instance is shared-immutable, so any number of client threads may
/// call Run/RunReport/RunMany on one instance concurrently. All queries
/// share the engine-scoped work-stealing scheduler — a client thread helps
/// execute its own query's morsel tasks, so pool sizing caps total CPU use,
/// not the client count — and every result is byte-identical to a serial
/// run of the same plan. Seekers keep no per-execution state, so one Plan
/// (or one seeker under several node ids) may also be run concurrently.
class Blend {
 public:
  struct Options {
    /// Physical layout of AllTables: the paper's (Row)/(Column) deployments.
    StoreLayout layout = StoreLayout::kColumn;
    /// Enable the two-phase optimizer; `false` is the paper's B-NO ablation.
    bool optimize = true;
    /// Index rows in shuffled order (the BLEND(rand) correlation variant).
    bool shuffle_rows = false;
    uint64_t shuffle_seed = 17;
    /// Work-stealing pool for the online query engine (morsel-parallel
    /// scans, joins, aggregation; owned by the caller, may be shared by
    /// several Blend instances). When null, `query_threads` picks the pool:
    /// 0 = the process-wide default pool (one worker per hardware thread),
    /// N = a pool of N threads owned by this Blend (1 = serial). Results are
    /// byte-identical for every setting.
    Scheduler* scheduler = nullptr;
    int query_threads = 0;
    /// Postings codec SaveSnapshot writes (index/codec.h): kCompressed
    /// shrinks the artifact's dominant section via block containers at the
    /// cost of per-block decode on the serving path. Loading discovers the
    /// codec from the snapshot header, so this only affects writes.
    PostingCodec snapshot_codec = PostingCodec::kRaw;
    /// Capture the EXPLAIN ANALYZE plan of every SQL statement a run's
    /// seekers issue (ExecutionReport::statement_plans): the plan each
    /// statement ran, with the actuals its operators recorded. Recording
    /// never changes results; off by default because each statement then
    /// times its operators and renders its plan.
    bool capture_statement_plans = false;
    /// Capture per-morsel-task trace spans (ExecutionReport::trace_spans) for
    /// Chrome/Perfetto trace export. Span capture appends to a bounded
    /// side-buffer under its own lock and never changes morsel geometry or
    /// results; off by default.
    bool capture_trace_spans = false;
  };

  /// Builds the index for the lake (the offline phase, paper Fig. 2e). The
  /// lake must outlive this object only if TrainCostModel is called; plans
  /// never read it.
  explicit Blend(const DataLake* lake) : Blend(lake, Options()) {}
  Blend(const DataLake* lake, Options options);

  /// Persists the built index as a versioned snapshot file (see
  /// index/snapshot.h), so other processes can OpenSnapshot instead of
  /// re-indexing the lake.
  [[nodiscard]] Status SaveSnapshot(const std::string& path) const;

  /// Serves queries off a snapshot instead of rebuilding the index: the file
  /// is mmapped and the store arrays are read zero-copy out of the mapping.
  /// Every plan is answered from the snapshot alone, so `lake` may be null.
  /// It is kept only for TrainCostModel, which samples its training inputs
  /// from it; pass the lake the snapshot was built from to train. A snapshot
  /// records the postings codec, layout and row order the builder used, so
  /// `options.layout`, `shuffle_rows` and `shuffle_seed` are ignored.
  /// Returns a pointer (not a value) because a Blend pins internal
  /// cross-references and cannot be moved.
  [[nodiscard]] static Result<std::unique_ptr<Blend>> OpenSnapshot(const std::string& path,
                                                     const DataLake* lake,
                                                     Options options);
  [[nodiscard]] static Result<std::unique_ptr<Blend>> OpenSnapshot(const std::string& path,
                                                     const DataLake* lake);

  /// Runs a plan and returns the sink's top-k tables.
  Result<TableList> Run(const Plan& plan) const;

  /// Runs a plan under a QueryControl (deadline / cancellation / memory
  /// budget; see common/control.h). The control is checked cooperatively
  /// before every wave of plan steps and at every morsel boundary: a tripped
  /// constraint returns a descriptive kDeadlineExceeded / kCancelled /
  /// kResourceExhausted, never a partial result, and a run that completes is
  /// byte-identical to an unconstrained run. The control must outlive the
  /// call.
  Result<TableList> Run(const Plan& plan, const QueryControl& control) const;

  /// Runs a batch of plans concurrently on the engine scheduler, returning
  /// one TableList per plan in input order (byte-identical to running each
  /// plan serially). When any plan fails, the batch cancels its remaining
  /// sibling plans instead of burning pool time, and the error of the
  /// lowest-indexed *genuinely* failing plan is returned (sibling
  /// cancellations triggered by the batch abort never mask the root error).
  Result<std::vector<TableList>> RunMany(std::span<const Plan> plans) const;

  /// RunMany under a caller QueryControl: every plan observes the caller's
  /// deadline/cancellation/budget via a nested batch control, and a failing
  /// plan still cancels its siblings without cancelling the caller's handle.
  Result<std::vector<TableList>> RunMany(std::span<const Plan> plans,
                                         const QueryControl& control) const;

  /// Runs a plan and returns the full execution report (per-node outputs,
  /// timings, per-step wall times, executed step order, and the query's
  /// finished telemetry trace — see ExecutionReport::trace).
  Result<ExecutionReport> RunReport(const Plan& plan) const;
  Result<ExecutionReport> RunReport(const Plan& plan,
                                    const QueryControl& control) const;

  /// Trains the learned cost model by sampling random inputs from the lake
  /// (paper: offline, once per lake installation). Returns InvalidArgument
  /// on a Blend opened without a lake. Not thread-safe against concurrent
  /// Run* calls: train before serving.
  Status TrainCostModel(int samples_per_type = 40, uint64_t seed = 7);

  const DiscoveryContext& context() const { return ctx_; }
  const sql::Engine& engine() const { return engine_; }
  const IndexBundle& bundle() const { return bundle_; }
  const IndexStats& stats() const { return stats_; }
  const CostModel* cost_model() const { return model_ ? model_.get() : nullptr; }
  const Options& options() const { return options_; }
  Scheduler* scheduler() const { return scheduler_; }

  /// Index storage footprint in bytes (for the Table VIII experiment).
  size_t IndexBytes() const { return bundle_.ApproxBytes(); }

 private:
  /// Shared tail of the build and snapshot-load paths: adopts an already
  /// materialized bundle.
  Blend(const DataLake* lake, Options options, IndexBundle bundle);

  /// The single execution path behind both RunReport overloads (and hence
  /// every Run/RunMany): attaches the per-query trace, threads the optional
  /// control, and records each run's outcome exactly once in the metrics
  /// registry. `control` may be null or inactive.
  Result<ExecutionReport> RunReportImpl(const Plan& plan,
                                        const QueryControl* control) const;

  Options options_;
  const DataLake* lake_;  // null when opened from a snapshot without one
  std::unique_ptr<Scheduler> owned_scheduler_;
  Scheduler* scheduler_;
  IndexBundle bundle_;
  sql::Engine engine_;
  IndexStats stats_;
  std::unique_ptr<CostModel> model_;
  DiscoveryContext ctx_;
};

/// Ready-made discovery plans for the tasks evaluated in the paper (§VII-A,
/// §VIII-B). Each returns the id of the plan's sink node.
namespace tasks {

/// Union search: one SC seeker per query-table column plus a Counter
/// combiner; per-seeker k is chosen larger than the final k (paper §VII-A).
Result<std::string> AddUnionSearch(Plan* plan, const Table& query, int k,
                                   int per_column_k = 100,
                                   const std::string& prefix = "union");

/// Discovery with negative examples: MC(positive) \ MC(negative).
Result<std::string> AddNegativeExampleSearch(
    Plan* plan, const std::vector<std::vector<std::string>>& positives,
    const std::vector<std::vector<std::string>>& negatives, int k,
    const std::string& prefix = "neg");

/// Example-based data imputation: MC(complete examples) ∩ SC(query keys).
Result<std::string> AddDataImputation(
    Plan* plan, const std::vector<std::vector<std::string>>& examples,
    const std::vector<std::string>& queries, int k,
    const std::string& prefix = "imp");

/// Multicollinearity-aware feature discovery: C(target) minus C(each
/// existing feature), intersected with MC joinability on the key columns.
Result<std::string> AddFeatureDiscovery(
    Plan* plan, const std::vector<std::string>& join_keys,
    const std::vector<double>& target,
    const std::vector<std::vector<double>>& existing_features,
    const std::vector<std::vector<std::string>>& key_tuples, int k,
    const std::string& prefix = "feat");

/// Multi-objective discovery (paper Listing 4 without the imputation
/// sub-plan): keyword search + union search + correlation search, unioned.
Result<std::string> AddMultiObjective(Plan* plan,
                                      const std::vector<std::string>& keywords,
                                      const Table& examples,
                                      const std::vector<std::string>& join_keys,
                                      const std::vector<double>& target, int k,
                                      const std::string& prefix = "multi");

}  // namespace tasks

}  // namespace blend::core
