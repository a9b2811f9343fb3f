#include "lakegen/workloads.h"

#include <gtest/gtest.h>

#include "lakegen/join_lake.h"

namespace blend::lakegen {
namespace {

TEST(Fig1Test, MatchesPaperFigure) {
  Fig1 f = MakeFig1Lake();
  EXPECT_EQ(f.lake.NumTables(), 3u);
  EXPECT_EQ(f.s.NumRows(), 6u);
  EXPECT_EQ(f.s.At(0, 1), "Firenze");
  EXPECT_EQ(f.lake.table(f.t1).NumColumns(), 2u);
  EXPECT_EQ(f.lake.table(f.t2).At(0, 0), "Tom Riddle");
  EXPECT_EQ(f.lake.table(f.t3).At(0, 0), "Ronald Weasley");
}

TEST(BruteForceOverlapTest, ColumnOverlapOnFig1) {
  Fig1 f = MakeFig1Lake();
  BruteForceOverlap brute(&f.lake);
  auto out = brute.TopKByColumnOverlap(
      {"HR", "Marketing", "Finance", "IT", "R&D", "Sales"}, 10);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0].score, 6.0);  // T2 or T3
  EXPECT_DOUBLE_EQ(out[2].score, 5.0);  // T1 misses R&D
  EXPECT_EQ(out[2].table, f.t1);
}

TEST(BruteForceOverlapTest, TableOverlapCountsWholeTables) {
  Fig1 f = MakeFig1Lake();
  BruteForceOverlap brute(&f.lake);
  auto out = brute.TopKByTableOverlap({"2022", "Firenze"}, 10);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].table, f.t2);
  EXPECT_DOUBLE_EQ(out[0].score, 2.0);
}

TEST(BruteForceOverlapTest, DistinctSemantics) {
  // Duplicate query values count once.
  Fig1 f = MakeFig1Lake();
  BruteForceOverlap brute(&f.lake);
  auto once = brute.TopKByColumnOverlap({"HR"}, 10);
  auto twice = brute.TopKByColumnOverlap({"HR", "hr "}, 10);
  ASSERT_EQ(once.size(), twice.size());
  for (size_t i = 0; i < once.size(); ++i) {
    EXPECT_DOUBLE_EQ(once[i].score, twice[i].score);
  }
}

TEST(SampleColumnQueryTest, DistinctNonEmptyValues) {
  JoinLakeSpec spec;
  spec.num_tables = 20;
  DataLake lake = MakeJoinLake(spec);
  Rng rng(3);
  auto q = SampleColumnQuery(lake, 15, &rng);
  ASSERT_FALSE(q.empty());
  EXPECT_LE(q.size(), 15u);
}

TEST(SampleColumnQueryTest, EmptyLakeYieldsEmptySample) {
  DataLake lake;
  Rng rng(3);
  EXPECT_TRUE(SampleColumnQuery(lake, 15, &rng).empty());
}

TEST(ExactCorrelationTest, PerfectCorrelationScoresOne) {
  DataLake lake;
  Table t("t");
  t.AddColumn("key");
  t.AddColumn("val");
  for (int i = 0; i < 20; ++i) {
    (void)t.AppendRow({"k" + std::to_string(i), std::to_string(i * 2)});
  }
  lake.AddTable(std::move(t));

  std::vector<std::string> keys;
  std::vector<double> targets;
  for (int i = 0; i < 20; ++i) {
    keys.push_back("k" + std::to_string(i));
    targets.push_back(i);
  }
  auto out = ExactCorrelationTopK(lake, keys, targets, 5);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].score, 1.0, 1e-9);
}

TEST(ExactCorrelationTest, RequiresMinOverlap) {
  DataLake lake;
  Table t("t");
  t.AddColumn("key");
  t.AddColumn("val");
  (void)t.AppendRow({"k1", "1"});
  (void)t.AppendRow({"k2", "2"});
  lake.AddTable(std::move(t));
  auto out = ExactCorrelationTopK(lake, {"k1", "k2"}, {1.0, 2.0}, 5,
                                  /*min_overlap=*/5);
  EXPECT_TRUE(out.empty());
}

TEST(ExactCorrelationTest, AntiCorrelationCountsByMagnitude) {
  DataLake lake;
  Table t("t");
  t.AddColumn("key");
  t.AddColumn("val");
  for (int i = 0; i < 10; ++i) {
    (void)t.AppendRow({"k" + std::to_string(i), std::to_string(-3 * i)});
  }
  lake.AddTable(std::move(t));
  std::vector<std::string> keys;
  std::vector<double> targets;
  for (int i = 0; i < 10; ++i) {
    keys.push_back("k" + std::to_string(i));
    targets.push_back(i);
  }
  auto out = ExactCorrelationTopK(lake, keys, targets, 5);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].score, 1.0, 1e-9);
}

}  // namespace
}  // namespace blend::lakegen
