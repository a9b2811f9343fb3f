#include "core/optimizer.h"

#include <gtest/gtest.h>

#include "core/blend.h"
#include "lakegen/join_lake.h"
#include "lakegen/workloads.h"

namespace blend::core {
namespace {

std::shared_ptr<Seeker> Sc(std::vector<std::string> vals = {"a"}, int k = 10) {
  return std::make_shared<SCSeeker>(std::move(vals), k);
}
std::shared_ptr<Seeker> Kw(int k = 10) {
  return std::make_shared<KWSeeker>(std::vector<std::string>{"a"}, k);
}
std::shared_ptr<Seeker> Mc(int k = 10) {
  return std::make_shared<MCSeeker>(
      std::vector<std::vector<std::string>>{{"a", "b"}}, k);
}
std::shared_ptr<Seeker> Corr(int k = 10) {
  return std::make_shared<CorrelationSeeker>(std::vector<std::string>{"a", "b"},
                                             std::vector<double>{1.0, 2.0}, k);
}

std::vector<std::string> StepOrder(const ExecutionPlan& p) {
  std::vector<std::string> out;
  for (const auto& s : p.steps) out.push_back(s.node);
  return out;
}

const ExecutionStep* FindStep(const ExecutionPlan& p, const std::string& id) {
  for (const auto& s : p.steps) {
    if (s.node == id) return &s;
  }
  return nullptr;
}

TEST(OptimizerTest, DisabledKeepsInsertionOrderWithoutRewrites) {
  Plan plan;
  ASSERT_TRUE(plan.Add("mc", Mc()).ok());
  ASSERT_TRUE(plan.Add("kw", Kw()).ok());
  ASSERT_TRUE(
      plan.Add("i", std::make_shared<IntersectCombiner>(10), {"mc", "kw"}).ok());
  Optimizer opt(nullptr);
  auto r = opt.Optimize(plan, /*enable=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(StepOrder(r.value()), (std::vector<std::string>{"mc", "kw", "i"}));
  for (const auto& s : r.value().steps) {
    EXPECT_EQ(s.rewrite.kind, RewriteSpec::Kind::kNone);
  }
}

TEST(OptimizerTest, RulesOrderSeekerTypes) {
  // Rule 1: KW first. Rule 2: MC last. Rule 3: SC before C.
  Plan plan;
  ASSERT_TRUE(plan.Add("mc", Mc()).ok());
  ASSERT_TRUE(plan.Add("c", Corr()).ok());
  ASSERT_TRUE(plan.Add("sc", Sc()).ok());
  ASSERT_TRUE(plan.Add("kw", Kw()).ok());
  ASSERT_TRUE(plan.Add("i", std::make_shared<IntersectCombiner>(10),
                       {"mc", "c", "sc", "kw"})
                  .ok());
  Optimizer opt(nullptr);
  auto r = opt.Optimize(plan, true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(StepOrder(r.value()),
            (std::vector<std::string>{"kw", "sc", "c", "mc", "i"}));
}

TEST(OptimizerTest, IntersectionRewritesLaterSeekers) {
  Plan plan;
  ASSERT_TRUE(plan.Add("sc", Sc()).ok());
  ASSERT_TRUE(plan.Add("mc", Mc()).ok());
  ASSERT_TRUE(
      plan.Add("i", std::make_shared<IntersectCombiner>(10), {"mc", "sc"}).ok());
  Optimizer opt(nullptr);
  auto r = opt.Optimize(plan, true);
  ASSERT_TRUE(r.ok());
  const ExecutionStep* sc = FindStep(r.value(), "sc");
  const ExecutionStep* mc = FindStep(r.value(), "mc");
  ASSERT_NE(sc, nullptr);
  ASSERT_NE(mc, nullptr);
  EXPECT_EQ(sc->rewrite.kind, RewriteSpec::Kind::kNone);
  EXPECT_EQ(mc->rewrite.kind, RewriteSpec::Kind::kIn);
  ASSERT_EQ(mc->rewrite.sources.size(), 1u);
  EXPECT_EQ(mc->rewrite.sources[0], "sc");
}

TEST(OptimizerTest, DifferenceExecutesNegativesFirstAndRewritesNotIn) {
  Plan plan;
  ASSERT_TRUE(plan.Add("pos", Mc()).ok());
  ASSERT_TRUE(plan.Add("neg", Mc()).ok());
  ASSERT_TRUE(
      plan.Add("d", std::make_shared<DifferenceCombiner>(10), {"pos", "neg"}).ok());
  Optimizer opt(nullptr);
  auto r = opt.Optimize(plan, true);
  ASSERT_TRUE(r.ok());
  auto order = StepOrder(r.value());
  EXPECT_EQ(order, (std::vector<std::string>{"neg", "pos", "d"}));
  const ExecutionStep* pos = FindStep(r.value(), "pos");
  EXPECT_EQ(pos->rewrite.kind, RewriteSpec::Kind::kNotIn);
  ASSERT_EQ(pos->rewrite.sources.size(), 1u);
  EXPECT_EQ(pos->rewrite.sources[0], "neg");
}

TEST(OptimizerTest, UnionAndCounterDoNotRewrite) {
  Plan plan;
  ASSERT_TRUE(plan.Add("a", Sc()).ok());
  ASSERT_TRUE(plan.Add("b", Sc()).ok());
  ASSERT_TRUE(plan.Add("u", std::make_shared<UnionCombiner>(10), {"a", "b"}).ok());
  ASSERT_TRUE(plan.Add("c", Sc()).ok());
  ASSERT_TRUE(plan.Add("d", Sc()).ok());
  ASSERT_TRUE(
      plan.Add("cnt", std::make_shared<CounterCombiner>(10), {"c", "d"}).ok());
  ASSERT_TRUE(
      plan.Add("out", std::make_shared<UnionCombiner>(10), {"u", "cnt"}).ok());
  Optimizer opt(nullptr);
  auto r = opt.Optimize(plan, true);
  ASSERT_TRUE(r.ok());
  for (const auto& s : r.value().steps) {
    EXPECT_EQ(s.rewrite.kind, RewriteSpec::Kind::kNone) << s.node;
  }
}

TEST(OptimizerTest, SharedSeekerIsNeverRewritten) {
  // A seeker feeding two combiners must not be rewritten: the other consumer
  // observes its full output.
  Plan plan;
  ASSERT_TRUE(plan.Add("shared", Sc()).ok());
  ASSERT_TRUE(plan.Add("other", Mc()).ok());
  ASSERT_TRUE(plan.Add("i", std::make_shared<IntersectCombiner>(10),
                       {"shared", "other"})
                  .ok());
  ASSERT_TRUE(
      plan.Add("u", std::make_shared<UnionCombiner>(10), {"shared", "i"}).ok());
  Optimizer opt(nullptr);
  auto r = opt.Optimize(plan, true);
  ASSERT_TRUE(r.ok());
  const ExecutionStep* shared = FindStep(r.value(), "shared");
  EXPECT_EQ(shared->rewrite.kind, RewriteSpec::Kind::kNone);
  // The single-consumer MC still benefits from the intersection rewrite.
  const ExecutionStep* other = FindStep(r.value(), "other");
  EXPECT_EQ(other->rewrite.kind, RewriteSpec::Kind::kIn);
}

TEST(OptimizerTest, EveryNodeEmittedExactlyOnce) {
  Plan plan;
  ASSERT_TRUE(plan.Add("a", Sc()).ok());
  ASSERT_TRUE(plan.Add("b", Sc()).ok());
  ASSERT_TRUE(plan.Add("i1", std::make_shared<IntersectCombiner>(10), {"a", "b"}).ok());
  ASSERT_TRUE(plan.Add("c", Sc()).ok());
  ASSERT_TRUE(plan.Add("i2", std::make_shared<IntersectCombiner>(10), {"i1", "c"}).ok());
  Optimizer opt(nullptr);
  auto r = opt.Optimize(plan, true);
  ASSERT_TRUE(r.ok());
  auto order = StepOrder(r.value());
  EXPECT_EQ(order.size(), plan.NumNodes());
  std::set<std::string> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), order.size());
  // Dependencies before consumers.
  auto pos = [&](const std::string& id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos("a"), pos("i1"));
  EXPECT_LT(pos("b"), pos("i1"));
  EXPECT_LT(pos("i1"), pos("i2"));
  EXPECT_LT(pos("c"), pos("i2"));
}

TEST(OptimizerTest, RuleTiesRunTheSeekerWithLessEstimatedWorkFirst) {
  // Both seekers are SC, so Rules 1-3 tie. The one with fewer and rarer
  // values touches fewer index entries: it runs first, unrewritten, and the
  // other is rewritten with its tables.
  auto fig1 = lakegen::MakeFig1Lake();
  Blend blend(&fig1.lake);
  auto big = Sc({"HR", "Marketing", "Finance", "IT", "R&D", "Sales"});
  auto small = Sc({"HR"});
  Plan plan;
  ASSERT_TRUE(plan.Add("big", big).ok());
  ASSERT_TRUE(plan.Add("small", small).ok());
  ASSERT_TRUE(
      plan.Add("i", std::make_shared<IntersectCombiner>(10), {"big", "small"}).ok());
  Optimizer opt(&blend.stats());
  ASSERT_LT(opt.EstimatedWork(*small), opt.EstimatedWork(*big));
  auto r = opt.Optimize(plan, true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(StepOrder(r.value()), (std::vector<std::string>{"small", "big", "i"}));
  EXPECT_EQ(FindStep(r.value(), "small")->rewrite.kind, RewriteSpec::Kind::kNone);
  const ExecutionStep* rewritten = FindStep(r.value(), "big");
  EXPECT_EQ(rewritten->rewrite.kind, RewriteSpec::Kind::kIn);
  EXPECT_EQ(rewritten->rewrite.sources, (std::vector<std::string>{"small"}));
}

TEST(OptimizerTest, EmptyPlanRejected) {
  Plan plan;
  Optimizer opt(nullptr);
  EXPECT_FALSE(opt.Optimize(plan, true).ok());
}

// Theorem 1: with unbounded k the optimizer must not alter plan outputs.
class Theorem1Test : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Theorem1Test, OptimizedAndUnoptimizedOutputsMatch) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 50;
  spec.num_domains = 6;
  spec.domain_vocab = 200;
  spec.seed = GetParam();
  DataLake lake = lakegen::MakeJoinLake(spec);

  Rng rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 4; ++trial) {
    // Random plan: 2-3 seekers under a random reorderable/rewritable combiner,
    // with unlimited k everywhere (where rewriting is exactly output-preserving).
    Plan plan;
    int n = 2 + static_cast<int>(rng.Uniform(2));
    std::vector<std::string> ids;
    for (int s = 0; s < n; ++s) {
      auto vals = lakegen::SampleColumnQuery(lake, 10 + rng.Uniform(10), &rng);
      if (vals.empty()) vals = {"d0_v1"};
      std::string id = "s" + std::to_string(s);
      ASSERT_TRUE(plan.Add(id, std::make_shared<SCSeeker>(vals, -1)).ok());
      ids.push_back(id);
    }
    std::shared_ptr<Combiner> comb;
    if (rng.Uniform(2) == 0) {
      comb = std::make_shared<IntersectCombiner>(-1);
    } else {
      comb = std::make_shared<DifferenceCombiner>(-1);
    }
    ASSERT_TRUE(plan.Add("out", comb, ids).ok());

    Blend::Options opt_on;
    Blend::Options opt_off;
    opt_off.optimize = false;
    Blend optimized(&lake, opt_on);
    Blend unoptimized(&lake, opt_off);
    auto a = optimized.Run(plan);
    auto b = unoptimized.Run(plan);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(IdSet(a.value()), IdSet(b.value())) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1Test, ::testing::Values(1, 2, 3, 4, 5));

// At finite k a rewritten seeker returns its top-k among the tables its
// rewrite sources kept (see RewriteSpec), so the optimized answer may hold a
// table that B-NO's earlier top-k cut dropped.
TEST(FiniteKTest, RewrittenSeekerRanksOnlyTheSourcesTables) {
  DataLake lake;
  auto add_table = [&](const std::string& name, const std::vector<std::string>& cells) {
    Table t(name);
    t.AddColumn("c");
    for (const auto& cell : cells) ASSERT_TRUE(t.AppendRow({cell}).ok());
    lake.AddTable(std::move(t));
  };
  add_table("t0", {"a1", "a2", "b1"});  // TableId 0
  add_table("t1", {"b1", "b2", "b3"});  // TableId 1
  // a's top-1 is t0; b's top-1 is t1 (3 values against t0's 1).
  auto a = Sc({"a1", "a2"}, 1);
  auto b = Sc({"b1", "b2", "b3"}, 1);
  Plan plan;
  ASSERT_TRUE(plan.Add("a", a).ok());
  ASSERT_TRUE(plan.Add("b", b).ok());
  ASSERT_TRUE(plan.Add("out", std::make_shared<IntersectCombiner>(1), {"a", "b"}).ok());

  Blend::Options off;
  off.optimize = false;
  Blend optimized(&lake);
  Blend unoptimized(&lake, off);
  auto bno = unoptimized.Run(plan);
  ASSERT_TRUE(bno.ok()) << bno.status().ToString();
  EXPECT_TRUE(bno.value().empty()) << "top-1 t0 and top-1 t1 do not intersect";

  auto report = optimized.RunReport(plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const auto& steps = report.value().executed_plan.steps;
  ASSERT_EQ(steps.size(), 3u);
  ASSERT_EQ(steps[0].node, "a");  // less estimated work
  ASSERT_EQ(steps[1].rewrite.kind, RewriteSpec::Kind::kIn);
  // b ranks only the tables a kept ({t0}); its top-1 there is t0.
  auto b_in_a = b->Execute(optimized.context(), "AND TableId IN (0)");
  ASSERT_TRUE(b_in_a.ok());
  ASSERT_EQ(IdSet(b_in_a.value()), (std::unordered_set<TableId>{0}));
  EXPECT_EQ(IdSet(report.value().output), IdSet(b_in_a.value()));
  EXPECT_NE(IdSet(report.value().output), IdSet(bno.value()));
}

}  // namespace
}  // namespace blend::core
