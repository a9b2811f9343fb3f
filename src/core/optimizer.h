#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "core/plan.h"

namespace blend::core {

/// How a seeker's SQL is rewritten with the intermediate results of
/// previously executed siblings (paper §VII-B "Query rewriting"):
///   kIn     -> AND TableId IN (ids)       (Intersection)
///   kNotIn  -> AND TableId NOT IN (ids)   (Difference)
///
/// Top-k semantics: a rewritten seeker returns its top-k among the tables
/// its rewrite sources kept, not its own top-k cut down to them. So at
/// finite k an optimized plan can return tables that B-NO's earlier cut
/// dropped (a table ranked below k overall may be in the top k of those the
/// sources kept). Optimized and B-NO answers agree only with k unlimited
/// (Theorem 1).
struct RewriteSpec {
  enum class Kind { kNone, kIn, kNotIn };
  Kind kind = Kind::kNone;
  /// Node ids whose outputs feed the predicate. For kIn the intersection of
  /// the sources' table-id sets is injected; for kNotIn their union.
  std::vector<std::string> sources;
};

/// One step of the optimized execution plan.
struct ExecutionStep {
  std::string node;
  RewriteSpec rewrite;
};

/// The high-level execution plan the optimizer hands to the executor: a
/// ranked sequence of node executions with rewrite instructions.
struct ExecutionPlan {
  std::vector<ExecutionStep> steps;
};

/// BLEND's two-phase plan optimizer: execution-group identification, EG
/// ordering (topological), operator ranking (Rules 1-3, ties broken by
/// estimated work), and combiner-dependent query rewriting.
class Optimizer {
 public:
  /// `stats` feeds the work estimate; when null, seekers the rules tie keep
  /// their insertion order.
  explicit Optimizer(const IndexStats* stats) : stats_(stats) {}

  /// Produces the optimized step sequence. With `enable == false` (the
  /// paper's B-NO configuration) nodes run in insertion order without
  /// rewriting.
  Result<ExecutionPlan> Optimize(const Plan& plan, bool enable) const;

  /// Tie-break within an execution group, after the rule rank (KW < SC < C <
  /// MC): the index entries the seeker touches, estimated as cardinality x
  /// max(1, average frequency) x max(1, columns). Less work runs first.
  double EstimatedWork(const Seeker& seeker) const;

 private:
  const IndexStats* stats_;
};

}  // namespace blend::core
