#include "core/executor.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "core/blend.h"
#include "lakegen/correlation_lake.h"
#include "lakegen/mc_lake.h"
#include "lakegen/union_lake.h"
#include "lakegen/workloads.h"
#include "sql/expr_eval.h"

namespace blend::core {
namespace {

class PlanExecutorFig1Test : public ::testing::TestWithParam<bool> {
 protected:
  PlanExecutorFig1Test() : fig1_(lakegen::MakeFig1Lake()) {
    Blend::Options opts;
    opts.optimize = GetParam();
    blend_ = std::make_unique<Blend>(&fig1_.lake, opts);
  }
  lakegen::Fig1 fig1_;
  std::unique_ptr<Blend> blend_;
};

TEST_P(PlanExecutorFig1Test, PaperExample1FindsT3) {
  // The find_dep_heads plan of Fig. 2a: tables containing the positive
  // example row and the department column but not the outdated negative row.
  Plan plan;
  ASSERT_TRUE(plan.Add("P_examples",
                       std::make_shared<MCSeeker>(
                           std::vector<std::vector<std::string>>{{"HR", "Firenze"}},
                           10))
                  .ok());
  ASSERT_TRUE(
      plan.Add("N_examples",
               std::make_shared<MCSeeker>(
                   std::vector<std::vector<std::string>>{{"IT", "Tom Riddle"}}, 10))
          .ok());
  ASSERT_TRUE(plan.Add("exclude", std::make_shared<DifferenceCombiner>(10),
                       {"P_examples", "N_examples"})
                  .ok());
  ASSERT_TRUE(plan.Add("dep",
                       std::make_shared<SCSeeker>(
                           std::vector<std::string>{"HR", "Marketing", "Finance",
                                                    "IT", "R&D", "Sales"},
                           10))
                  .ok());
  ASSERT_TRUE(plan.Add("intersect", std::make_shared<IntersectCombiner>(1),
                       {"exclude", "dep"})
                  .ok());

  auto report = blend_->RunReport(plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().output.size(), 1u);
  EXPECT_EQ(report.value().output[0].table, fig1_.t3);

  // Intermediates follow the paper's rs1/rs2/rs3 sets.
  const auto& outs = report.value().node_outputs;
  EXPECT_EQ(IdSet(outs.at("N_examples")),
            (std::unordered_set<TableId>{fig1_.t2}));
  EXPECT_TRUE(IdSet(outs.at("dep")).count(fig1_.t3) > 0);
}

TEST_P(PlanExecutorFig1Test, ReportContainsAllNodeOutputs) {
  Plan plan;
  ASSERT_TRUE(plan.Add("kw", std::make_shared<KWSeeker>(
                                 std::vector<std::string>{"Firenze"}, 10))
                  .ok());
  auto report = blend_->RunReport(plan);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().node_outputs.size(), 1u);
  EXPECT_GE(report.value().seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(OptimizeOnOff, PlanExecutorFig1Test,
                         ::testing::Values(true, false));

TEST(PlanExecutorTest, DedupTopKSeekersIssueExactlyOneEngineQuery) {
  // SC and correlation seekers push dedup-top-k into the engine: one
  // exhaustive statement per execution, no client-side widening/retry loop.
  // The report's engine-query counter pins that budget.
  auto fig1 = lakegen::MakeFig1Lake();
  Blend blend(&fig1.lake);
  {
    Plan plan;
    ASSERT_TRUE(plan.Add("sc", std::make_shared<SCSeeker>(
                                   std::vector<std::string>{"HR", "IT"}, 2))
                    .ok());
    auto report = blend.RunReport(plan);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().engine_queries, 1u);
  }
  {
    Plan plan;
    ASSERT_TRUE(plan.Add("corr", std::make_shared<CorrelationSeeker>(
                                     std::vector<std::string>{"HR", "IT", "Sales"},
                                     std::vector<double>{1.0, 2.0, 3.0}, 2))
                    .ok());
    auto report = blend.RunReport(plan);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().engine_queries, 1u);
  }
}

TEST(TasksTest, UnionSearchPlanRetrievesGroupMembers) {
  lakegen::UnionLakeSpec spec;
  spec.num_groups = 8;
  spec.noise_tables = 10;
  spec.seed = 42;
  auto union_lake = lakegen::MakeUnionLake(spec);
  Blend blend(&union_lake.lake);

  TableId query_id = union_lake.query_tables[0];
  const Table& query = union_lake.lake.table(query_id);
  Plan plan;
  auto sink = tasks::AddUnionSearch(&plan, query, 10, 50);
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();

  auto out = blend.Run(plan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_FALSE(out.value().empty());
  // The query table itself must rank first (it overlaps itself completely),
  // and most top results should be from its group.
  EXPECT_EQ(out.value()[0].table, query_id);
  size_t in_group = 0;
  for (const auto& e : out.value()) {
    if (union_lake.group_of[static_cast<size_t>(e.table)] == 0) ++in_group;
  }
  EXPECT_GT(in_group * 2, out.value().size());
}

TEST(TasksTest, NegativeExampleTaskBuildsValidPlan) {
  auto fig1 = lakegen::MakeFig1Lake();
  Blend blend(&fig1.lake);
  Plan plan;
  auto sink = tasks::AddNegativeExampleSearch(
      &plan, {{"HR", "Firenze"}}, {{"IT", "Tom Riddle"}}, 10);
  ASSERT_TRUE(sink.ok());
  auto out = blend.Run(plan);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value()[0].table, fig1.t3);
}

TEST(TasksTest, DataImputationTask) {
  auto fig1 = lakegen::MakeFig1Lake();
  Blend blend(&fig1.lake);
  Plan plan;
  auto sink = tasks::AddDataImputation(
      &plan, {{"HR", "Firenze"}}, {"Marketing", "Finance", "IT"}, 10);
  ASSERT_TRUE(sink.ok());
  auto out = blend.Run(plan);
  ASSERT_TRUE(out.ok());
  // T2 and T3 contain the example row and the query keys.
  EXPECT_TRUE(ContainsTable(out.value(), fig1.t2));
  EXPECT_TRUE(ContainsTable(out.value(), fig1.t3));
}

TEST(TasksTest, MultiObjectivePlanShape) {
  auto fig1 = lakegen::MakeFig1Lake();
  Blend blend(&fig1.lake);
  Plan plan;
  auto sink = tasks::AddMultiObjective(&plan, {"Firenze"}, fig1.s,
                                       {"HR", "IT", "Sales"}, {1.0, 2.0, 3.0}, 5);
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();
  // KW + per-column SC + counter + correlation + union.
  EXPECT_GE(plan.NumNodes(), 6u);
  auto out = blend.Run(plan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out.value().empty());
}

TEST(PlanExecutorTest, MissingInputIsInternalError) {
  // Executor guards against plans whose steps reference uncomputed inputs;
  // normal plans cannot trigger this, so just assert the plan API prevents it.
  Plan plan;
  EXPECT_FALSE(plan.Add("c", std::make_shared<UnionCombiner>(5), {"nope"}).ok());
}

/// "table:score|..." with scores at full precision.
std::string Dump(const TableList& list) {
  std::string out;
  char buf[64];
  for (const auto& e : list) {
    snprintf(buf, sizeof(buf), "%d:%.17g|", e.table, e.score);
    out += buf;
  }
  return out;
}

/// Everything a run reports except wall times: the output, every node's
/// output, the steps' nodes, kinds and output sizes in order, the engine
/// statement count and the captured statements' SQL in order.
std::string ReportFingerprint(const Result<ExecutionReport>& run) {
  if (!run.ok()) return "ERROR: " + run.status().ToString();
  const ExecutionReport& report = run.value();
  std::string out = "output " + Dump(report.output) + "\n";
  const std::map<std::string, TableList> nodes(report.node_outputs.begin(),
                                               report.node_outputs.end());
  for (const auto& [id, list] : nodes) out += "node " + id + " " + Dump(list) + "\n";
  for (const PlanStepTiming& step : report.step_timings) {
    out += "step " + step.node + " " + step.kind + " " +
           std::to_string(step.output_rows) + "\n";
  }
  out += "queries " + std::to_string(report.engine_queries) + "\n";
  for (const auto& stmt : report.statement_plans) out += "sql " + stmt.sql + "\n";
  return out;
}

/// A lake for all five Table III compositions: composite-key (MC) tables,
/// composite-key correlation tables and a small union lake, plus the inputs
/// of one plan per composition drawn from `seed`.
struct CompositionLake {
  DataLake lake{"compositions"};
  std::vector<Plan> plans;
};

CompositionLake MakeCompositionLake(uint64_t seed) {
  CompositionLake out;
  auto append = [&](DataLake* part) {
    const auto offset = static_cast<TableId>(out.lake.NumTables());
    for (size_t i = 0; i < part->NumTables(); ++i) {
      out.lake.AddTable(std::move(part->table(static_cast<TableId>(i))));
    }
    return offset;
  };
  lakegen::McLakeSpec mc;
  mc.num_tables = 60;
  mc.seed = seed * 8 + 2;
  lakegen::CorrLakeSpec corr;
  corr.num_tables = 60;
  corr.composite_key = true;
  corr.numeric_key_frac = 0.0;
  corr.seed = seed * 8 + 3;
  lakegen::UnionLakeSpec uni;
  uni.num_groups = 4;
  uni.noise_tables = 10;
  uni.seed = seed * 8 + 4;
  lakegen::McLake mc_lake = lakegen::MakeMcLake(mc);
  append(&mc_lake.lake);
  lakegen::CorrLake corr_lake = lakegen::MakeCorrLake(corr);
  append(&corr_lake.lake);
  lakegen::UnionLake union_lake = lakegen::MakeUnionLake(uni);
  const TableId union_query = append(&union_lake.lake) + union_lake.query_tables[0];

  Rng rng(seed);
  const int domain = static_cast<int>(rng.Uniform(mc.num_pair_domains));
  auto correlation_input = [&](size_t num_keys,
                               std::vector<std::vector<std::string>>* key_tuples) {
    const int corr_domain = static_cast<int>(rng.Uniform(corr.num_key_domains));
    Rng replay = rng;  // MakeCorrQuery draws its key indices first
    const std::vector<size_t> idx =
        replay.SampleIndices(corr.keys_per_domain, num_keys);
    lakegen::CorrQuery q =
        lakegen::MakeCorrQuery(corr, corr_domain, false, num_keys, &rng);
    for (size_t i = 0; key_tuples != nullptr && i < 10; ++i) {
      key_tuples->push_back(
          {q.keys[i], lakegen::CompositePartner(corr_domain, idx[i])});
    }
    return q;
  };
  const int k = 8;
  auto add = [&](auto&& build) {
    Plan plan;
    EXPECT_TRUE(build(&plan).ok());
    out.plans.push_back(std::move(plan));
  };
  add([&](Plan* plan) {
    return tasks::AddUnionSearch(plan, out.lake.table(union_query), k);
  });
  add([&](Plan* plan) {
    auto positives = lakegen::MakeMcQuery(mc, domain, 40, &rng);
    auto negatives = lakegen::MakeMcQuery(mc, domain, 8, &rng);
    return tasks::AddNegativeExampleSearch(plan, positives, negatives, k);
  });
  add([&](Plan* plan) {
    auto pairs = lakegen::MakeMcQuery(mc, domain, 60, &rng);
    std::vector<std::vector<std::string>> examples(pairs.begin(), pairs.begin() + 30);
    std::vector<std::string> queries;
    for (size_t i = 30; i < pairs.size(); ++i) queries.push_back(pairs[i][0]);
    return tasks::AddDataImputation(plan, examples, queries, k);
  });
  add([&](Plan* plan) {
    std::vector<std::vector<std::string>> key_tuples;
    lakegen::CorrQuery q = correlation_input(60, &key_tuples);
    std::vector<std::vector<double>> features(2);
    for (double t : q.targets) {
      features[0].push_back(0.9 * t + 0.2 * rng.Normal());
      features[1].push_back(-0.8 * t + 0.3 * rng.Normal());
    }
    return tasks::AddFeatureDiscovery(plan, q.keys, q.targets, features, key_tuples, k);
  });
  add([&](Plan* plan) {
    const Table& examples = out.lake.table(union_query);
    std::vector<std::string> keywords;
    for (size_t r = 0; r < 3 && r < examples.NumRows(); ++r) {
      keywords.push_back(examples.At(r, 0));
    }
    lakegen::CorrQuery q = correlation_input(50, nullptr);
    return tasks::AddMultiObjective(plan, keywords, examples, q.keys, q.targets, k);
  });
  return out;
}

TEST(PlanExecutorTest, ParallelWavesMatchSerial) {
  // Independent plan steps run side by side on a pool; the report must not
  // depend on it. Every composition, optimized (rewrite chains, execution
  // groups) and not (one wave for all seekers), reports the same on a
  // 4-thread pool as on a serial one.
  for (uint64_t seed : {1, 2, 3}) {
    const CompositionLake lake = MakeCompositionLake(seed);
    ASSERT_EQ(lake.plans.size(), 5u);
    for (StoreLayout layout : {StoreLayout::kRow, StoreLayout::kColumn}) {
      for (bool optimize : {true, false}) {
        Blend::Options opts;
        opts.layout = layout;
        opts.optimize = optimize;
        opts.capture_statement_plans = true;
        opts.query_threads = 1;
        Blend serial(&lake.lake, opts);
        opts.query_threads = 4;
        Blend pooled(&lake.lake, opts);
        for (size_t p = 0; p < lake.plans.size(); ++p) {
          SCOPED_TRACE("seed=" + std::to_string(seed) + " layout=" +
                       std::to_string(static_cast<int>(layout)) +
                       " optimize=" + std::to_string(optimize) +
                       " plan=" + std::to_string(p));
          const std::string want = ReportFingerprint(serial.RunReport(lake.plans[p]));
          EXPECT_EQ(want.rfind("ERROR", 0), std::string::npos) << want;
          EXPECT_NE(want.find("sql "), std::string::npos);  // plans were captured
          auto report = pooled.RunReport(lake.plans[p]);
          ASSERT_TRUE(report.ok()) << report.status().ToString();
          EXPECT_EQ(ReportFingerprint(report), want);
          // Steps report in step order, not in wave order.
          const auto& steps = report.value().executed_plan.steps;
          ASSERT_EQ(report.value().step_timings.size(), steps.size());
          for (size_t i = 0; i < steps.size(); ++i) {
            EXPECT_EQ(report.value().step_timings[i].node, steps[i].node);
          }
        }
      }
    }
  }
}

TEST(PlanExecutorTest, FailingWaveReturnsEarliestStepStatus) {
  // Two independent seekers fail in the same wave: the run reports the one
  // that comes first in step order, on every pool.
  auto fig1 = lakegen::MakeFig1Lake();
  auto one_column =
      std::make_shared<MCSeeker>(std::vector<std::vector<std::string>>{{"HR"}}, 5);
  std::vector<std::string> wide;
  for (int c = 0; c <= sql::kMaxRels; ++c) wide.push_back("v" + std::to_string(c));
  auto too_wide =
      std::make_shared<MCSeeker>(std::vector<std::vector<std::string>>{wide}, 5);
  for (bool wide_first : {false, true}) {
    Plan plan;
    ASSERT_TRUE(plan.Add("first", wide_first ? too_wide : one_column).ok());
    ASSERT_TRUE(plan.Add("second", wide_first ? one_column : too_wide).ok());
    ASSERT_TRUE(
        plan.Add("both", std::make_shared<UnionCombiner>(5), {"first", "second"}).ok());
    for (int threads : {1, 4}) {
      for (bool optimize : {true, false}) {
        Blend::Options opts;
        opts.query_threads = threads;
        opts.optimize = optimize;
        Blend blend(&fig1.lake, opts);
        auto out = blend.Run(plan);
        ASSERT_FALSE(out.ok());
        EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
        EXPECT_NE(out.status().message().find(wide_first ? "at most" : "at least two"),
                  std::string::npos)
            << out.status().ToString() << " threads=" << threads
            << " optimize=" << optimize;
      }
    }
  }
}

TEST(PlanExecutorTest, SharedSeekerInstanceInOneWave) {
  // One MC seeker added under two node ids: both steps share a wave and run
  // the same instance concurrently, which is safe because seekers keep no
  // per-execution state.
  lakegen::McLakeSpec spec;
  spec.num_tables = 60;
  spec.seed = 29;
  auto mc_lake = lakegen::MakeMcLake(spec);
  Rng rng(5);
  auto seeker = std::make_shared<MCSeeker>(lakegen::MakeMcQuery(spec, 1, 12, &rng), 8);
  Plan plan;
  ASSERT_TRUE(plan.Add("a", seeker).ok());
  ASSERT_TRUE(plan.Add("b", seeker).ok());
  ASSERT_TRUE(plan.Add("both", std::make_shared<UnionCombiner>(8), {"a", "b"}).ok());

  Blend::Options opts;
  opts.query_threads = 1;
  Blend serial(&mc_lake.lake, opts);
  const std::string want = ReportFingerprint(serial.RunReport(plan));
  ASSERT_EQ(want.rfind("ERROR", 0), std::string::npos) << want;
  opts.query_threads = 4;
  Blend pooled(&mc_lake.lake, opts);
  for (int round = 0; round < 8; ++round) {
    auto report = pooled.RunReport(plan);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(ReportFingerprint(report), want) << "round " << round;
    EXPECT_EQ(Dump(report.value().node_outputs.at("a")),
              Dump(report.value().node_outputs.at("b")));
    EXPECT_FALSE(report.value().output.empty());
  }
}

}  // namespace
}  // namespace blend::core
