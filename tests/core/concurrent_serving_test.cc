#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/blend.h"
#include "lakegen/join_lake.h"

namespace blend::core {
namespace {

/// Stress suite for the concurrent serving layer: N client threads issue a
/// mix of seeker plans against one shared Blend, and every result must be
/// byte-identical to the serial run — across pool sizes and both physical
/// layouts.
class ConcurrentServingTest : public ::testing::Test {
 protected:
  ConcurrentServingTest() {
    lakegen::JoinLakeSpec spec;
    spec.num_tables = 40;
    spec.num_domains = 6;
    spec.domain_vocab = 220;
    spec.seed = 11;
    lake_ = lakegen::MakeJoinLake(spec);
  }

  /// The mixed workload: SC, KW, MC join, correlation, a union-search task
  /// (counter combiner), and a negative-example task (difference rewrite).
  /// Plans are built fresh per call: Plan objects are not shared across
  /// serving threads (seekers record per-execution stats).
  std::vector<Plan> MakeWorkload() const {
    auto cells = [&](TableId t, size_t col, size_t n) {
      std::vector<std::string> vals;
      const Table& table = lake_.table(t);
      for (size_t r = 0; r < std::min(n, table.NumRows()); ++r) {
        vals.push_back(table.At(r, col % table.NumColumns()));
      }
      return vals;
    };

    std::vector<Plan> plans;
    {
      Plan p;
      EXPECT_TRUE(p.Add("sc", std::make_shared<SCSeeker>(cells(0, 0, 24), 8)).ok());
      plans.push_back(std::move(p));
    }
    {
      Plan p;
      EXPECT_TRUE(p.Add("kw", std::make_shared<KWSeeker>(cells(3, 1, 6), 10)).ok());
      plans.push_back(std::move(p));
    }
    {
      Plan p;
      std::vector<std::vector<std::string>> tuples;
      const Table& t5 = lake_.table(5);
      for (size_t r = 0; r < std::min<size_t>(12, t5.NumRows()); ++r) {
        tuples.push_back({t5.At(r, 0), t5.At(r, 1 % t5.NumColumns())});
      }
      EXPECT_TRUE(p.Add("mc", std::make_shared<MCSeeker>(tuples, 6)).ok());
      plans.push_back(std::move(p));
    }
    {
      Plan p;
      std::vector<std::string> keys = cells(7, 0, 20);
      std::vector<double> targets;
      for (size_t i = 0; i < keys.size(); ++i) {
        targets.push_back(static_cast<double>(i % 9) - 4.0);
      }
      EXPECT_TRUE(
          p.Add("corr", std::make_shared<CorrelationSeeker>(keys, targets, 6)).ok());
      plans.push_back(std::move(p));
    }
    {
      Plan p;
      Table query = lake_.table(2);
      EXPECT_TRUE(tasks::AddUnionSearch(&p, query, 5).ok());
      plans.push_back(std::move(p));
    }
    {
      Plan p;
      std::vector<std::vector<std::string>> pos, neg;
      const Table& t9 = lake_.table(9);
      const Table& t4 = lake_.table(4);
      for (size_t r = 0; r < std::min<size_t>(8, t9.NumRows()); ++r) {
        pos.push_back({t9.At(r, 0), t9.At(r, 1 % t9.NumColumns())});
      }
      for (size_t r = 0; r < std::min<size_t>(4, t4.NumRows()); ++r) {
        neg.push_back({t4.At(r, 0), t4.At(r, 1 % t4.NumColumns())});
      }
      EXPECT_TRUE(tasks::AddNegativeExampleSearch(&p, pos, neg, 5).ok());
      plans.push_back(std::move(p));
    }
    return plans;
  }

  static std::string Dump(const Result<TableList>& res) {
    if (!res.ok()) return "ERROR: " + res.status().ToString();
    std::string out;
    char buf[64];
    for (const auto& e : res.value()) {
      snprintf(buf, sizeof(buf), "%d:%.17g|", e.table, e.score);
      out += buf;
    }
    return out;
  }

  /// Reference outputs computed on a serial Blend (pool size 1, single
  /// client).
  std::vector<std::string> SerialReference(const Blend::Options& base) const {
    Blend::Options serial = base;
    serial.scheduler = nullptr;
    serial.query_threads = 1;
    Blend blend(&lake_, serial);
    std::vector<std::string> out;
    for (const Plan& p : MakeWorkload()) out.push_back(Dump(blend.Run(p)));
    return out;
  }

  void StressAgainstReference(const Blend::Options& opts, int clients,
                              int rounds) {
    const std::vector<std::string> want = SerialReference(opts);
    Blend blend(&lake_, opts);
    std::vector<std::vector<std::string>> got(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (int round = 0; round < rounds; ++round) {
          const std::vector<Plan> plans = MakeWorkload();
          for (const Plan& p : plans) got[c].push_back(Dump(blend.Run(p)));
        }
      });
    }
    for (auto& t : threads) t.join();
    for (int c = 0; c < clients; ++c) {
      for (size_t i = 0; i < got[c].size(); ++i) {
        EXPECT_EQ(want[i % want.size()], got[c][i])
            << "client " << c << " plan " << i % want.size() << " round "
            << i / want.size();
      }
    }
  }

  DataLake lake_;
};

TEST_F(ConcurrentServingTest, EightClientsColumnLayout) {
  Blend::Options opts;
  StressAgainstReference(opts, /*clients=*/8, /*rounds=*/2);
}

TEST_F(ConcurrentServingTest, EightClientsRowLayout) {
  Blend::Options opts;
  opts.layout = StoreLayout::kRow;
  StressAgainstReference(opts, /*clients=*/8, /*rounds=*/2);
}

TEST_F(ConcurrentServingTest, SmallOwnedPoolUnderManyClients) {
  // More clients than pool threads: admission degrades to clients helping
  // their own queries; results must not change.
  Blend::Options opts;
  opts.query_threads = 2;
  StressAgainstReference(opts, /*clients=*/8, /*rounds=*/1);
}

TEST_F(ConcurrentServingTest, RunManyMatchesPerPlanRuns) {
  Blend blend(&lake_);
  const std::vector<Plan> plans = MakeWorkload();
  auto batch = blend.RunMany(plans);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().size(), plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(Dump(blend.Run(plans[i])), Dump(Result<TableList>(batch.value()[i])))
        << "plan " << i;
  }
}

TEST_F(ConcurrentServingTest, RunManyReportsLowestIndexedError) {
  Blend blend(&lake_);
  std::vector<Plan> plans = MakeWorkload();
  {
    // An invalid plan (MC with one key column fails at execution).
    Plan bad;
    ASSERT_TRUE(
        bad.Add("bad", std::make_shared<MCSeeker>(
                           std::vector<std::vector<std::string>>{{"x"}}, 3))
            .ok());
    plans.insert(plans.begin() + 1, std::move(bad));
  }
  auto batch = blend.RunMany(plans);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ConcurrentServingTest, SharedExternalPoolAcrossBlends) {
  // One caller-owned pool serving two Blend instances (row + column).
  Scheduler pool(3);
  Blend::Options col_opts;
  col_opts.scheduler = &pool;
  Blend::Options row_opts = col_opts;
  row_opts.layout = StoreLayout::kRow;
  const std::vector<std::string> want_col = SerialReference(col_opts);
  const std::vector<std::string> want_row = SerialReference(row_opts);
  Blend col(&lake_, col_opts);
  Blend row(&lake_, row_opts);
  EXPECT_EQ(col.scheduler(), &pool);
  EXPECT_EQ(row.scheduler(), &pool);
  const std::vector<Plan> plans = MakeWorkload();
  for (size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(want_col[i], Dump(col.Run(plans[i]))) << "col plan " << i;
    EXPECT_EQ(want_row[i], Dump(row.Run(plans[i]))) << "row plan " << i;
  }
}

}  // namespace
}  // namespace blend::core
