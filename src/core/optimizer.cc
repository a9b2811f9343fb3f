#include "core/optimizer.h"

#include <algorithm>
#include <unordered_set>

namespace blend::core {

double Optimizer::EstimatedWork(const Seeker& seeker) const {
  if (stats_ == nullptr) return 1;
  const SeekerFeatures f = seeker.ComputeFeatures(*stats_);
  return f.cardinality * std::max(1.0, f.avg_frequency) * std::max(1.0, f.num_columns);
}

namespace {

/// Emission state shared by the recursive step emitter.
struct StepEmitter {
  const Plan* plan;
  const Optimizer* optimizer;
  std::unordered_set<std::string> emitted;
  std::vector<ExecutionStep> steps;

  bool IsEmitted(const std::string& id) const { return emitted.count(id) > 0; }

  void EmitStep(const std::string& id, RewriteSpec rewrite = {}) {
    steps.push_back({id, std::move(rewrite)});
    emitted.insert(id);
  }

  /// True when the node is a seeker whose SQL may be rewritten: rewriting is
  /// only safe when no other consumer observes its output.
  bool Rewritable(const Plan::Node& n) const {
    return n.is_seeker() && plan->ConsumersOf(n.id).size() == 1;
  }

  void Emit(const std::string& id) {
    if (IsEmitted(id)) return;
    const Plan::Node& n = plan->node(id);
    if (n.is_seeker()) {
      EmitStep(id);
      return;
    }

    switch (n.combiner->type()) {
      case Combiner::Type::kIntersect: {
        // Execution group: reorderable seekers feeding one Intersection.
        std::vector<std::string> ready;  // usable as rewrite sources
        std::vector<const Plan::Node*> group;
        for (const auto& in : n.inputs) {
          if (IsEmitted(in)) {
            ready.push_back(in);
            continue;
          }
          const Plan::Node& child = plan->node(in);
          if (Rewritable(child)) {
            group.push_back(&child);
          } else {
            Emit(in);
            ready.push_back(in);
          }
        }
        // Operator ranking: Rules 1-3 (type order), then estimated work.
        std::stable_sort(group.begin(), group.end(),
                         [&](const Plan::Node* a, const Plan::Node* b) {
                           int ra = Seeker::RuleRank(a->seeker->type());
                           int rb = Seeker::RuleRank(b->seeker->type());
                           if (ra != rb) return ra < rb;
                           return optimizer->EstimatedWork(*a->seeker) <
                                  optimizer->EstimatedWork(*b->seeker);
                         });
        for (const Plan::Node* s : group) {
          RewriteSpec rw;
          if (!ready.empty()) {
            rw.kind = RewriteSpec::Kind::kIn;
            rw.sources = ready;
          }
          EmitStep(s->id, std::move(rw));
          ready.push_back(s->id);
        }
        break;
      }
      case Combiner::Type::kDifference: {
        // Execute the negative inputs first, then push their table ids into
        // the positive seeker's SQL as a NOT IN predicate.
        std::vector<std::string> negatives(n.inputs.begin() + 1, n.inputs.end());
        for (const auto& neg : negatives) Emit(neg);
        const std::string& positive = n.inputs[0];
        if (!IsEmitted(positive)) {
          const Plan::Node& child = plan->node(positive);
          if (Rewritable(child)) {
            RewriteSpec rw;
            rw.kind = RewriteSpec::Kind::kNotIn;
            rw.sources = negatives;
            EmitStep(positive, std::move(rw));
          } else {
            Emit(positive);
          }
        }
        break;
      }
      case Combiner::Type::kUnion:
      case Combiner::Type::kCounter:
      case Combiner::Type::kCustom:
        // No rewriting potential (paper: "Union requires no rewriting").
        for (const auto& in : n.inputs) Emit(in);
        break;
    }
    EmitStep(id);
  }
};

}  // namespace

Result<ExecutionPlan> Optimizer::Optimize(const Plan& plan, bool enable) const {
  ExecutionPlan out;
  if (plan.NumNodes() == 0) return Status::InvalidArgument("empty plan");

  if (!enable) {
    // B-NO: insertion order (which is topological), no rewrites.
    for (const auto& n : plan.nodes()) out.steps.push_back({n.id, {}});
    return out;
  }

  StepEmitter sched;
  sched.plan = &plan;
  sched.optimizer = this;
  // Drive emission from the sinks so combiners control the ordering and
  // rewriting of their execution groups; stray nodes follow in plan order.
  for (const auto& n : plan.nodes()) {
    if (plan.ConsumersOf(n.id).empty()) sched.Emit(n.id);
  }
  for (const auto& n : plan.nodes()) sched.Emit(n.id);
  out.steps = std::move(sched.steps);
  return out;
}

}  // namespace blend::core
