#pragma once

#include "index/builder.h"
#include "index/stats.h"
#include "sql/engine.h"
#include "storage/data_lake.h"

namespace blend::core {

/// Everything an operator needs at execution time: the lake (for MC exact
/// validation), the unified index, the SQL engine hosting it, the token
/// statistics used by the optimizer's cost model, and the execution knobs
/// every seeker passes to Engine::Query (the work-stealing scheduler handle
/// and the per-query QueryControl — seekers inherit the
/// plan's deadline/cancellation/budget automatically through
/// query_options.control).
///
/// The context is shared-immutable during execution: many plans may run
/// against one context concurrently (the serving layer's contract), so
/// nothing here may be mutated by operators.
struct DiscoveryContext {
  const DataLake* lake = nullptr;
  const IndexBundle* bundle = nullptr;
  const sql::Engine* engine = nullptr;
  const IndexStats* stats = nullptr;
  sql::QueryOptions query_options;
};

/// Engine parallelism a query issued with `options` runs under (pool workers
/// + the submitting thread); the execution-environment feature of the cost
/// model.
inline double QueryParallelism(const sql::QueryOptions& options) {
  return options.scheduler != nullptr
             ? static_cast<double>(options.scheduler->parallelism())
             : 1.0;
}

}  // namespace blend::core
