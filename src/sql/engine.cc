#include "sql/engine.h"

#include <utility>

#include "common/telemetry.h"
#include "sql/parser.h"

namespace blend::sql {

namespace {

/// Registry instruments of the SQL serving funnel; resolved once and cached.
/// These are the exact series the serving bench reports from, so the bench
/// exercises the production path.
struct EngineMetrics {
  Counter* queries;
  Counter* errors;
  Histogram* latency;

  static const EngineMetrics& Get() {
    static const EngineMetrics m = [] {
      auto& reg = MetricsRegistry::Global();
      EngineMetrics out;
      out.queries = reg.GetCounter("blend_sql_queries_total");
      // Non-OK Status of any kind: parse, plan, execution or control trips.
      out.errors = reg.GetCounter("blend_sql_query_errors_total");
      // Engine::Query end to end, parse through execute.
      out.latency = reg.GetHistogram("blend_sql_query_seconds");
      return out;
    }();
    return m;
  }
};

}  // namespace

Result<QueryResult> Engine::Query(const std::string& sql) const {
  return Query(sql, QueryOptions{});
}

Result<QueryResult> Engine::Query(const std::string& sql,
                                  const QueryOptions& options) const {
  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.queries->Increment();
  LatencyTimer timer(metrics.latency);
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (options.trace != nullptr) {
    options.trace->AddCounter(TraceCounter::kEngineQueries, 1);
  }
  auto run = [&]() -> Result<QueryResult> {
    BLEND_ASSIGN_OR_RETURN(Statement parsed, ParseStatement(sql));
    QueryOptions effective = options;
    if (effective.scheduler == nullptr) effective.scheduler = scheduler_;
    BLEND_ASSIGN_OR_RETURN(
        QueryResult out,
        bundle_->layout() == StoreLayout::kRow
            ? ExecuteSelect(parsed, bundle_->row_store(), bundle_->dictionary(),
                            effective)
            : ExecuteSelect(parsed, bundle_->column_store(), bundle_->dictionary(),
                            effective));
    if (parsed.explain == ExplainMode::kNone && effective.plan_capture != nullptr) {
      effective.plan_capture->plans.push_back(
          {sql, std::exchange(out.plan, PlanDescription{})});
    }
    return out;
  };
  Result<QueryResult> result = run();
  if (!result.ok()) metrics.errors->Increment();
  return result;
}

}  // namespace blend::sql
