#include "sql/executor.h"

#include <gtest/gtest.h>

#include <set>

#include "index/builder.h"
#include "sql/engine.h"

namespace blend::sql {
namespace {

/// Hand-built lake with exactly computable query answers.
///   Table 0 "ta": fruit={apple,banana,apple,cherry}, num={1,2,3,4} (mean 2.5)
///   Table 1 "tb": fruit={banana,banana,date}, tag={x,y,z}
///   Table 2 "tc": fruit={apple}
DataLake MakeLake() {
  DataLake lake("exec");
  Table a("ta");
  a.AddColumn("fruit");
  a.AddColumn("num");
  (void)a.AppendRow({"apple", "1"});
  (void)a.AppendRow({"banana", "2"});
  (void)a.AppendRow({"apple", "3"});
  (void)a.AppendRow({"cherry", "4"});
  lake.AddTable(std::move(a));
  Table b("tb");
  b.AddColumn("fruit");
  b.AddColumn("tag");
  (void)b.AppendRow({"banana", "x"});
  (void)b.AppendRow({"banana", "y"});
  (void)b.AppendRow({"date", "z"});
  lake.AddTable(std::move(b));
  Table c("tc");
  c.AddColumn("fruit");
  (void)c.AppendRow({"apple"});
  lake.AddTable(std::move(c));
  return lake;
}

class ExecutorTest : public ::testing::TestWithParam<StoreLayout> {
 protected:
  ExecutorTest() : lake_(MakeLake()) {
    IndexBuildOptions opts;
    opts.layout = GetParam();
    bundle_ = IndexBuilder(opts).Build(lake_);
    engine_ = std::make_unique<Engine>(&bundle_);
  }

  QueryResult Run(const std::string& sql) {
    auto r = engine_->Query(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nSQL: " << sql;
    return r.ok() ? r.take() : QueryResult{};
  }

  DataLake lake_;
  IndexBundle bundle_;
  std::unique_ptr<Engine> engine_;
};

TEST_P(ExecutorTest, CellValueInScan) {
  auto res = Run("SELECT TableId FROM AllTables WHERE CellValue IN ('apple')");
  ASSERT_EQ(res.NumRows(), 3u);  // 2 in ta, 1 in tc
  int count_ta = 0, count_tc = 0;
  for (size_t r = 0; r < res.NumRows(); ++r) {
    if (res.Int(r, 0) == 0) ++count_ta;
    if (res.Int(r, 0) == 2) ++count_tc;
  }
  EXPECT_EQ(count_ta, 2);
  EXPECT_EQ(count_tc, 1);
}

TEST_P(ExecutorTest, GroupByWithCountDistinctAndTieBreak) {
  auto res = Run(
      "SELECT TableId, COUNT(DISTINCT CellValue) AS score FROM AllTables "
      "WHERE CellValue IN ('apple','banana','date') "
      "GROUP BY TableId ORDER BY score DESC");
  ASSERT_EQ(res.NumRows(), 3u);
  // ta and tb tie at 2; deterministic tie-break puts the smaller TableId first.
  EXPECT_EQ(res.Int(0, 0), 0);
  EXPECT_EQ(res.Int(0, 1), 2);
  EXPECT_EQ(res.Int(1, 0), 1);
  EXPECT_EQ(res.Int(1, 1), 2);
  EXPECT_EQ(res.Int(2, 0), 2);
  EXPECT_EQ(res.Int(2, 1), 1);
}

TEST_P(ExecutorTest, TableIdAccessPath) {
  auto res = Run("SELECT COUNT(*) FROM AllTables WHERE TableId IN (1)");
  ASSERT_EQ(res.NumRows(), 1u);
  EXPECT_EQ(res.Int(0, 0), 6);
}

TEST_P(ExecutorTest, RowIdAndQuadrantFastPath) {
  auto res = Run(
      "SELECT COUNT(*) FROM AllTables WHERE RowId < 2 AND Quadrant IS NOT NULL");
  EXPECT_EQ(res.Int(0, 0), 2);
}

TEST_P(ExecutorTest, QuadrantComparison) {
  auto res = Run("SELECT COUNT(*) FROM AllTables WHERE Quadrant = 1");
  EXPECT_EQ(res.Int(0, 0), 2);  // num values 3 and 4 are >= mean 2.5
}

TEST_P(ExecutorTest, QuadrantNullNeverMatchesComparison) {
  // Quadrant = 0 must not match NULL quadrants (text cells).
  auto res = Run("SELECT COUNT(*) FROM AllTables WHERE Quadrant = 0");
  EXPECT_EQ(res.Int(0, 0), 2);  // num values 1 and 2
}

TEST_P(ExecutorTest, JoinOnTableAndRow) {
  auto res = Run(
      "SELECT a.TableId, COUNT(*) AS n FROM "
      "(SELECT * FROM AllTables WHERE CellValue IN ('apple')) AS a INNER JOIN "
      "(SELECT * FROM AllTables WHERE Quadrant IS NOT NULL) AS b "
      "ON a.TableId = b.TableId AND a.RowId = b.RowId "
      "GROUP BY a.TableId");
  ASSERT_EQ(res.NumRows(), 1u);
  EXPECT_EQ(res.Int(0, 0), 0);
  EXPECT_EQ(res.Int(0, 1), 2);
}

TEST_P(ExecutorTest, JoinWithColumnExclusionResidual) {
  auto res = Run(
      "SELECT COUNT(*) FROM "
      "(SELECT * FROM AllTables WHERE CellValue IN ('apple')) AS a INNER JOIN "
      "(SELECT * FROM AllTables WHERE Quadrant IS NOT NULL) AS b "
      "ON a.TableId = b.TableId AND a.RowId = b.RowId "
      "AND a.ColumnId <> b.ColumnId");
  EXPECT_EQ(res.Int(0, 0), 2);
}

TEST_P(ExecutorTest, NotInFilter) {
  auto res = Run(
      "SELECT COUNT(*) FROM AllTables "
      "WHERE CellValue IN ('banana') AND TableId NOT IN (1)");
  EXPECT_EQ(res.Int(0, 0), 1);
}

TEST_P(ExecutorTest, OrderByLimit) {
  auto res = Run(
      "SELECT RowId FROM AllTables WHERE TableId IN (0) AND ColumnId = 1 "
      "ORDER BY RowId DESC LIMIT 2");
  ASSERT_EQ(res.NumRows(), 2u);
  EXPECT_EQ(res.Int(0, 0), 3);
  EXPECT_EQ(res.Int(1, 0), 2);
}

TEST_P(ExecutorTest, SelectStarExposesSixColumns) {
  auto res = Run("SELECT * FROM AllTables WHERE TableId IN (2)");
  EXPECT_EQ(res.columns.size(), 6u);
  EXPECT_EQ(res.NumRows(), 1u);
}

TEST_P(ExecutorTest, SelectStarPrefixesEveryRelationOfAJoin) {
  // Three relations: every column name carries its relation's alias, so the
  // 18 names are distinct.
  auto res = Run(
      "SELECT * FROM (SELECT * FROM AllTables WHERE CellValue IN ('apple')) AS a "
      "INNER JOIN (SELECT * FROM AllTables) AS b "
      "ON a.TableId = b.TableId AND a.RowId = b.RowId "
      "INNER JOIN (SELECT * FROM AllTables WHERE Quadrant IS NOT NULL) AS c "
      "ON a.TableId = c.TableId AND a.RowId = c.RowId");
  ASSERT_EQ(res.columns.size(), 18u);
  std::set<std::string> names(res.columns.begin(), res.columns.end());
  EXPECT_EQ(names.size(), 18u);
  for (size_t i = 0; i < res.columns.size(); ++i) {
    const std::string prefix = std::string(1, static_cast<char>('a' + i / 6)) + ".";
    EXPECT_EQ(res.columns[i].rfind(prefix, 0), 0u) << res.columns[i];
  }
  EXPECT_EQ(res.columns[0], "a.CellValue");
  EXPECT_EQ(res.columns[7], "b.TableId");
  // apple sits in rows 0 and 2 of ta; each row joins its 2 cells in b and
  // its 1 numeric cell in c.
  EXPECT_EQ(res.NumRows(), 4u);
}

TEST_P(ExecutorTest, QcrStyleArithmetic) {
  auto res = Run(
      "SELECT (2 * SUM(Quadrant) - COUNT(*)) / COUNT(*) AS s "
      "FROM AllTables WHERE Quadrant IS NOT NULL");
  ASSERT_EQ(res.NumRows(), 1u);
  EXPECT_DOUBLE_EQ(res.Double(0, 0), 0.0);
}

TEST_P(ExecutorTest, SumOfBooleanExpression) {
  auto res = Run(
      "SELECT SUM(Quadrant = 1) FROM AllTables WHERE Quadrant IS NOT NULL");
  EXPECT_EQ(res.Int(0, 0), 2);
}

TEST_P(ExecutorTest, GlobalAggregateOverEmptyInput) {
  auto res = Run("SELECT COUNT(*) FROM AllTables WHERE CellValue IN ('zzz')");
  ASSERT_EQ(res.NumRows(), 1u);
  EXPECT_EQ(res.Int(0, 0), 0);
}

TEST_P(ExecutorTest, MinMaxAvg) {
  auto res = Run(
      "SELECT MIN(RowId), MAX(RowId), AVG(Quadrant) FROM AllTables "
      "WHERE TableId IN (0) AND Quadrant IS NOT NULL");
  EXPECT_EQ(res.Int(0, 0), 0);
  EXPECT_EQ(res.Int(0, 1), 3);
  EXPECT_DOUBLE_EQ(res.Double(0, 2), 0.5);
}

TEST_P(ExecutorTest, StringEqualityViaDictionary) {
  auto res = Run("SELECT COUNT(*) FROM AllTables WHERE CellValue = 'apple'");
  EXPECT_EQ(res.Int(0, 0), 3);
}

TEST_P(ExecutorTest, AbsentStringLiteralMatchesNothing) {
  auto res = Run("SELECT COUNT(*) FROM AllTables WHERE CellValue = 'unseen'");
  EXPECT_EQ(res.Int(0, 0), 0);
}

TEST_P(ExecutorTest, UnknownColumnFails) {
  EXPECT_FALSE(engine_->Query("SELECT Nope FROM AllTables").ok());
}

TEST_P(ExecutorTest, UnknownTableFails) {
  EXPECT_FALSE(engine_->Query("SELECT TableId FROM SomeTable").ok());
}

TEST_P(ExecutorTest, NonGroupedColumnInAggregateFails) {
  EXPECT_FALSE(
      engine_->Query("SELECT RowId, COUNT(*) FROM AllTables GROUP BY TableId").ok());
}

TEST_P(ExecutorTest, EmptyInListIsRejected) {
  auto r = engine_->Query("SELECT TableId FROM AllTables WHERE TableId IN ()");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("IN-list must not be empty"),
            std::string::npos)
      << r.status().ToString();
}

TEST_P(ExecutorTest, NanSortsLastDeterministically) {
  // Build +/-inf and NaN through double overflow: huge = 1e18^18 = inf, then
  // inf * (TableId - 1) is -inf for table 0, NaN for table 1, +inf for
  // table 2. Before Cmp ordered NaN, these keys broke strict weak ordering
  // (UB in std::sort); now NaN sorts last.
  std::string huge = "1000000000000000000.0";
  std::string prod = huge;
  for (int i = 0; i < 17; ++i) prod += " * " + huge;
  auto res = Run("SELECT TableId FROM AllTables WHERE ColumnId = 0 ORDER BY (" +
                 prod + ") * (TableId - 1) ASC");
  // fruit columns: 4 rows in t0 (-inf), 1 in t2 (+inf), 3 in t1 (NaN, last).
  ASSERT_EQ(res.NumRows(), 8u);
  std::vector<int64_t> got;
  for (size_t r = 0; r < res.NumRows(); ++r) got.push_back(res.Int(r, 0));
  EXPECT_EQ(got, (std::vector<int64_t>{0, 0, 0, 0, 2, 1, 1, 1}));
}

TEST_P(ExecutorTest, CountDistinctTreatsNegativeZeroAsZero) {
  // 0 / (RowId - 1) over t0's fruit column: row 0 gives -0.0, row 1 divides
  // by zero (NULL, skipped), rows 2 and 3 give +0.0. `==` says -0.0 == 0.0,
  // so DISTINCT must count one value, not two bit patterns.
  auto res = Run(
      "SELECT COUNT(DISTINCT 0 / (RowId - 1)) FROM AllTables "
      "WHERE TableId = 0 AND ColumnId = 0");
  ASSERT_EQ(res.NumRows(), 1u);
  EXPECT_EQ(res.Int(0, 0), 1);
}

TEST_P(ExecutorTest, OrKeepsBothSides) {
  auto res = Run(
      "SELECT COUNT(*) FROM AllTables "
      "WHERE CellValue IN ('cherry') OR CellValue IN ('date')");
  EXPECT_EQ(res.Int(0, 0), 2);
}

TEST_P(ExecutorTest, QuadrantIndexPathMatchesFilterSemantics) {
  // `Quadrant IS NOT NULL` alone is served by the partial quadrant index;
  // it must count exactly the numeric cells (4 in table 'ta').
  auto res = Run("SELECT COUNT(*) FROM AllTables WHERE Quadrant IS NOT NULL");
  EXPECT_EQ(res.Int(0, 0), 4);
}

TEST_P(ExecutorTest, QuadrantIndexPathWithRowBound) {
  auto res = Run(
      "SELECT COUNT(*) FROM AllTables WHERE Quadrant IS NOT NULL AND RowId < 1");
  EXPECT_EQ(res.Int(0, 0), 1);
}

TEST_P(ExecutorTest, GroupByQuadrantUsesGenericPath) {
  // Quadrant is nullable, so this GROUP BY cannot use the packed-key fast
  // path; the generic path must produce the same counts.
  auto res = Run(
      "SELECT Quadrant, COUNT(*) AS n FROM AllTables "
      "WHERE Quadrant IS NOT NULL GROUP BY Quadrant ORDER BY Quadrant");
  ASSERT_EQ(res.NumRows(), 2u);
  EXPECT_EQ(res.Int(0, 0), 0);
  EXPECT_EQ(res.Int(0, 1), 2);
  EXPECT_EQ(res.Int(1, 0), 1);
  EXPECT_EQ(res.Int(1, 1), 2);
}

TEST_P(ExecutorTest, GroupBySuperKeyUsesGenericPath) {
  // SuperKey is 64-bit wide, unpackable; rows of the same (table,row) share a
  // super key, so grouping by it yields one group per distinct row signature.
  auto res = Run(
      "SELECT SuperKey, COUNT(*) FROM AllTables WHERE TableId IN (1) "
      "GROUP BY SuperKey");
  EXPECT_EQ(res.NumRows(), 3u);  // tb has 3 rows with distinct signatures
}

TEST_P(ExecutorTest, PackedAndGenericGroupByAgree) {
  // Same aggregation grouped by TableId (packed path) must equal the result
  // reconstructed from grouping by (TableId, ColumnId) (also packed) and
  // summing, and from a nullable-key query forced down the generic path.
  auto by_table = Run(
      "SELECT TableId, COUNT(*) AS n FROM AllTables GROUP BY TableId "
      "ORDER BY TableId");
  auto by_pair = Run(
      "SELECT TableId, ColumnId, COUNT(*) AS n FROM AllTables "
      "GROUP BY TableId, ColumnId ORDER BY TableId, ColumnId");
  std::unordered_map<int64_t, int64_t> sums;
  for (size_t r = 0; r < by_pair.NumRows(); ++r) {
    sums[by_pair.Int(r, 0)] += by_pair.Int(r, 2);
  }
  ASSERT_EQ(by_table.NumRows(), sums.size());
  for (size_t r = 0; r < by_table.NumRows(); ++r) {
    EXPECT_EQ(by_table.Int(r, 1), sums[by_table.Int(r, 0)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, ExecutorTest,
                         ::testing::Values(StoreLayout::kRow, StoreLayout::kColumn));

}  // namespace
}  // namespace blend::sql
