#pragma once

#include "index/builder.h"
#include "index/stats.h"
#include "sql/engine.h"

namespace blend::core {

/// Everything an operator needs at execution time: the unified index, the
/// SQL engine hosting it, the token statistics the optimizer ranks seekers
/// by, and the execution knobs every seeker passes to Engine::Query (the
/// work-stealing scheduler handle and the per-query QueryControl — seekers
/// inherit the plan's deadline/cancellation/budget automatically through
/// query_options.control). There is no lake: every seeker, MC exact
/// validation included, answers from the index alone, so a Blend opened
/// from a snapshot serves without the lake it was built from.
///
/// The context is shared-immutable during execution: many plans may run
/// against one context concurrently (the serving layer's contract), and the
/// independent steps of one plan run concurrently too (PlanExecutor's
/// waves), so nothing here may be mutated by operators.
struct DiscoveryContext {
  const IndexBundle* bundle = nullptr;
  const sql::Engine* engine = nullptr;
  const IndexStats* stats = nullptr;
  sql::QueryOptions query_options;
};

}  // namespace blend::core
