// Table IV: optimizer effectiveness — runtime with random seeker order vs
// BLEND's ranked order (rules + learned cost model, including optimization
// overhead) vs an oracle that always runs the faster seeker first. Plans are
// pairs of seekers under an Intersection combiner; the second seeker is
// rewritten with the first one's intermediate result, exactly as §VII-B.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "common/str_util.h"
#include "common/table_printer.h"

using namespace blend;

namespace {

core::Blend* g_blend = nullptr;
const DataLake* g_lake = nullptr;  // the lake g_blend indexes

/// Executes the plan [first -> second(rewritten with first's tables)] and
/// returns the elapsed seconds.
double RunOrdered(const core::DiscoveryContext& ctx, const core::Seeker& first,
                  const core::Seeker& second) {
  StopWatch sw;
  auto first_out = first.Execute(ctx, "");
  std::string rewrite;
  if (first_out.ok()) {
    std::vector<int64_t> ids;
    for (const auto& e : first_out.value()) ids.push_back(e.table);
    rewrite = "AND TableId IN (" + SqlInListInts(ids) + ")";
  }
  auto second_out = second.Execute(ctx, rewrite);
  (void)second_out;
  return sw.ElapsedSeconds();
}

void BM_OptimizeTwoSeekerPlan(benchmark::State& state) {
  Rng rng(11);
  using core::Seeker;
  auto a = core::CostModelTrainer::SampleSeeker(*g_lake, Seeker::Type::kSC, 10, &rng);
  auto b = core::CostModelTrainer::SampleSeeker(*g_lake, Seeker::Type::kMC, 10, &rng);
  core::Plan plan;
  (void)plan.Add("a", a);
  (void)plan.Add("b", b);
  (void)plan.Add("i", std::make_shared<core::IntersectCombiner>(10), {"a", "b"});
  core::Optimizer opt(g_blend->cost_model(), &g_blend->stats());
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.Optimize(plan, true).ok());
  }
}
BENCHMARK(BM_OptimizeTwoSeekerPlan);

struct RowResult {
  double rand = 0, blend = 0, ideal = 0;
  int correct = 0, trials = 0;
};

}  // namespace

int main(int argc, char** argv) {
  lakegen::JoinLakeSpec spec;
  spec.name = "gittables-like";
  spec.num_tables = 500;
  spec.seed = 41;
  DataLake lake = lakegen::MakeJoinLake(spec);
  core::Blend blend(&lake);
  // Offline ML training (paper: once per lake installation).
  StopWatch train_watch;
  (void)blend.TrainCostModel(30, 5);
  std::printf("cost-model training: %.1fs\n", train_watch.ElapsedSeconds());
  g_blend = &blend;
  g_lake = &lake;

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  struct RowSpec {
    std::string name;
    std::vector<core::Seeker::Type> pool;  // pair drawn from this pool
    bool distinct_types;
  };
  using T = core::Seeker::Type;
  std::vector<RowSpec> rows = {
      {"Mixed", {T::kKW, T::kSC, T::kC, T::kMC}, true},
      {"SC", {T::kSC}, false},
      {"MC", {T::kMC}, false},
      {"C", {T::kC}, false},
  };

  const int trials = 20;
  TablePrinter tp({"Seeker", "Rand", "BLEND", "Ideal", "Gain BLEND", "Gain Ideal",
                   "Accuracy BLEND"});
  double total_correct = 0, total_trials = 0;
  for (const auto& row : rows) {
    Rng rng(1000 + row.name.size());
    RowResult res;
    for (int trial = 0; trial < trials; ++trial) {
      T ta = row.pool[rng.Uniform(row.pool.size())];
      T tb = row.pool[rng.Uniform(row.pool.size())];
      if (row.distinct_types) {
        while (tb == ta) tb = row.pool[rng.Uniform(row.pool.size())];
      }
      auto a = core::CostModelTrainer::SampleSeeker(lake, ta, 10, &rng);
      auto b = core::CostModelTrainer::SampleSeeker(lake, tb, 10, &rng);
      if (a == nullptr || b == nullptr) continue;

      // Measure both orders (rewriting included).
      double t_ab = RunOrdered(blend.context(), *a, *b);
      double t_ba = RunOrdered(blend.context(), *b, *a);

      // The optimizer's pick.
      core::Plan plan;
      (void)plan.Add("a", a);
      (void)plan.Add("b", b);
      (void)plan.Add("i", std::make_shared<core::IntersectCombiner>(10), {"a", "b"});
      StopWatch opt_watch;
      core::Optimizer opt(blend.cost_model(), &blend.stats());
      auto optimized = opt.Optimize(plan, true);
      double opt_overhead = opt_watch.ElapsedSeconds();
      if (!optimized.ok()) continue;
      bool picked_a_first = optimized.value().steps[0].node == "a";

      double chosen = picked_a_first ? t_ab : t_ba;
      double best = std::min(t_ab, t_ba);
      res.rand += (t_ab + t_ba) / 2;
      res.blend += chosen + opt_overhead;
      res.ideal += best;
      // Count near-ties (within 5%) as correct: order is immaterial there.
      bool correct = picked_a_first ? t_ab <= t_ba * 1.05 : t_ba <= t_ab * 1.05;
      res.correct += correct;
      ++res.trials;
    }
    double gain_blend = res.rand > 0 ? 1.0 - res.blend / res.rand : 0;
    double gain_ideal = res.rand > 0 ? 1.0 - res.ideal / res.rand : 0;
    double acc = res.trials > 0
                     ? static_cast<double>(res.correct) / res.trials
                     : 0;
    total_correct += res.correct;
    total_trials += res.trials;
    tp.AddRow({row.name, bench::FmtSeconds(res.rand / std::max(1, res.trials)),
               bench::FmtSeconds(res.blend / std::max(1, res.trials)),
               bench::FmtSeconds(res.ideal / std::max(1, res.trials)),
               TablePrinter::Pct(gain_blend), TablePrinter::Pct(gain_ideal),
               TablePrinter::Pct(acc)});
  }
  std::printf("\n%s", tp.Render("Table IV: optimizer effectiveness (avg per "
                                "2-seeker plan)").c_str());

  // Statistical significance of the observed accuracy vs a random (50%)
  // optimizer, as in §VIII-C4.
  double p_hat = total_correct / total_trials;
  double z = (p_hat - 0.5) / std::sqrt(0.25 / total_trials);
  std::printf("Overall accuracy %.1f%% over %.0f plans; z = %.2f vs. the 50%%\n"
              "null hypothesis (paper: z = 45.6 over 4000 plans; reject H0 when\n"
              "z > 1.96).\n",
              p_hat * 100, total_trials, z);
  return 0;
}
