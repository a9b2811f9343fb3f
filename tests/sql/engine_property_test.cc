#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "common/scheduler.h"
#include "common/str_util.h"
#include "index/builder.h"
#include "index/snapshot.h"
#include "lakegen/join_lake.h"
#include "lakegen/workloads.h"
#include "sql/engine.h"

namespace blend::sql {
namespace {

/// Property suite: for randomly generated queries, the row-store and the
/// column-store deployments must return byte-identical results, and
/// SC-shaped queries must agree with an independently computed brute-force
/// ranking.
class EnginePropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  EnginePropertyTest() {
    lakegen::JoinLakeSpec spec;
    spec.num_tables = 60;
    spec.num_domains = 8;
    spec.domain_vocab = 300;
    spec.seed = GetParam();
    lake_ = lakegen::MakeJoinLake(spec);

    IndexBuildOptions row_opts;
    row_opts.layout = StoreLayout::kRow;
    row_bundle_ = IndexBuilder(row_opts).Build(lake_);
    col_bundle_ = IndexBuilder().Build(lake_);
    row_engine_ = std::make_unique<Engine>(&row_bundle_);
    col_engine_ = std::make_unique<Engine>(&col_bundle_);
  }

  static std::string ResultToString(const QueryResult& r) {
    std::string out;
    for (const auto& c : r.columns) out += c + "|";
    out += "\n";
    for (const auto& row : r.rows) {
      for (const auto& v : row) {
        if (v.is_null()) {
          out += "NULL,";
        } else if (v.kind == SqlValue::Kind::kInt) {
          out += std::to_string(v.i) + ",";
        } else {
          char buf[32];
          snprintf(buf, sizeof(buf), "%.9g,", v.d);
          out += buf;
        }
      }
      out += "\n";
    }
    return out;
  }

  void ExpectSameOnBothLayouts(const std::string& sql) {
    auto row_res = row_engine_->Query(sql);
    auto col_res = col_engine_->Query(sql);
    ASSERT_TRUE(row_res.ok()) << row_res.status().ToString() << "\n" << sql;
    ASSERT_TRUE(col_res.ok()) << col_res.status().ToString() << "\n" << sql;
    EXPECT_EQ(ResultToString(row_res.value()), ResultToString(col_res.value()))
        << sql;
  }

  std::string RandomInList(Rng* rng, size_t max_items) {
    std::vector<std::string> vals =
        lakegen::SampleColumnQuery(lake_, 1 + rng->Uniform(max_items), rng);
    return SqlInList(vals);
  }

  DataLake lake_;
  IndexBundle row_bundle_, col_bundle_;
  std::unique_ptr<Engine> row_engine_, col_engine_;
};

TEST_P(EnginePropertyTest, ScShapedQueriesMatchAcrossLayouts) {
  Rng rng(GetParam() * 7 + 1);
  for (int i = 0; i < 10; ++i) {
    std::string sql =
        "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
        "FROM AllTables WHERE CellValue IN (" +
        RandomInList(&rng, 30) +
        ") GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 20;";
    ExpectSameOnBothLayouts(sql);
  }
}

TEST_P(EnginePropertyTest, KwShapedQueriesMatchAcrossLayouts) {
  Rng rng(GetParam() * 13 + 2);
  for (int i = 0; i < 10; ++i) {
    std::string sql =
        "SELECT TableId, COUNT(DISTINCT CellValue) AS score FROM AllTables "
        "WHERE CellValue IN (" +
        RandomInList(&rng, 8) +
        ") GROUP BY TableId ORDER BY score DESC LIMIT 10;";
    ExpectSameOnBothLayouts(sql);
  }
}

TEST_P(EnginePropertyTest, JoinShapedQueriesMatchAcrossLayouts) {
  Rng rng(GetParam() * 17 + 3);
  for (int i = 0; i < 5; ++i) {
    std::string sql =
        "SELECT a.TableId, a.RowId, a.SuperKey FROM "
        "(SELECT TableId, RowId, SuperKey FROM AllTables WHERE CellValue IN (" +
        RandomInList(&rng, 20) +
        ")) AS a INNER JOIN (SELECT TableId, RowId FROM AllTables "
        "WHERE CellValue IN (" +
        RandomInList(&rng, 20) +
        ")) AS b ON a.TableId = b.TableId AND a.RowId = b.RowId "
        "ORDER BY a.TableId, a.RowId LIMIT 100;";
    ExpectSameOnBothLayouts(sql);
  }
}

TEST_P(EnginePropertyTest, CorrelationShapedQueriesMatchAcrossLayouts) {
  Rng rng(GetParam() * 19 + 4);
  for (int i = 0; i < 3; ++i) {
    std::string keys = RandomInList(&rng, 25);
    std::string sql =
        "SELECT keys.TableId AS TableId, keys.ColumnId AS KeyCol, "
        "nums.ColumnId AS NumCol, "
        "ABS((2 * SUM((keys.CellValue IN (" +
        keys + ") AND nums.Quadrant = 0) OR (keys.CellValue IN (" + keys +
        ") AND nums.Quadrant = 1)) - COUNT(*)) / COUNT(*)) AS score "
        "FROM (SELECT TableId, RowId, ColumnId, CellValue FROM AllTables "
        "WHERE RowId < 64 AND CellValue IN (" +
        keys +
        ")) AS keys INNER JOIN (SELECT TableId, RowId, ColumnId, Quadrant "
        "FROM AllTables WHERE RowId < 64 AND Quadrant IS NOT NULL) AS nums "
        "ON keys.TableId = nums.TableId AND keys.RowId = nums.RowId "
        "AND keys.ColumnId <> nums.ColumnId "
        "GROUP BY keys.TableId, keys.ColumnId, nums.ColumnId "
        "ORDER BY score DESC LIMIT 15;";
    ExpectSameOnBothLayouts(sql);
  }
}

TEST_P(EnginePropertyTest, ScQueryAgreesWithBruteForce) {
  Rng rng(GetParam() * 23 + 5);
  lakegen::BruteForceOverlap brute(&lake_);
  for (int i = 0; i < 5; ++i) {
    auto values = lakegen::SampleColumnQuery(lake_, 15, &rng);
    if (values.empty()) continue;
    std::string sql =
        "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
        "FROM AllTables WHERE CellValue IN (" +
        SqlInList(values) + ") GROUP BY TableId, ColumnId ORDER BY score DESC;";
    auto res = col_engine_->Query(sql);
    ASSERT_TRUE(res.ok()) << res.status().ToString();

    // Reduce to best score per table and compare score multisets with the
    // brute-force ranking (full, un-truncated).
    std::unordered_map<TableId, double> best;
    for (size_t r = 0; r < res.value().NumRows(); ++r) {
      TableId t = static_cast<TableId>(res.value().Int(r, 0));
      double s = res.value().Double(r, 2);
      auto& b = best[t];
      if (s > b) b = s;
    }
    auto gt = brute.TopKByColumnOverlap(values, -1);
    ASSERT_EQ(best.size(), gt.size());
    for (const auto& e : gt) {
      ASSERT_TRUE(best.count(e.table) > 0) << "missing table " << e.table;
      EXPECT_DOUBLE_EQ(best[e.table], e.score) << "table " << e.table;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginePropertyTest, ::testing::Values(1, 2, 3, 4));

TEST(LongPostingListTest, ScAndCountDistinctOverA20000ValueList) {
  // Column 0 of each of 50 tables holds "hot" in all 400 rows: one posting
  // list of 20,000 values. The scan cuts it into several morsels and walks
  // each in batches that the block aggregate gathers into fixed
  // kPostingBlockLen-slot buffers, so a batch longer than that would
  // overflow them (ASan) or miscount. Column 1 varies per table.
  DataLake lake("long-list");
  for (int t = 0; t < 50; ++t) {
    Table table("t" + std::to_string(t));
    table.AddColumn("hot");
    table.AddColumn("mixed");
    for (int r = 0; r < 400; ++r) {
      const std::string mixed =
          (t % 2 == 0 ? "v" : "w") + std::to_string((r + t) % 5);
      ASSERT_TRUE(table.AppendRow({"hot", mixed}).ok());
    }
    lake.AddTable(std::move(table));
  }
  const std::vector<std::string> query = {"hot", "v1", "v3", "w2", "absent"};
  const std::string in_list = SqlInList(query);

  // Expected answers, read off the lake's cells.
  const std::set<std::string> wanted(query.begin(), query.end());
  std::map<std::pair<int64_t, int64_t>, std::set<std::string>> column_hits;
  std::map<int64_t, std::pair<std::set<std::string>, int64_t>> table_hits;
  for (size_t t = 0; t < lake.NumTables(); ++t) {
    const Table& table = lake.table(static_cast<TableId>(t));
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      for (size_t r = 0; r < table.NumRows(); ++r) {
        const std::string v = NormalizeCell(table.At(r, c));
        if (wanted.count(v) == 0) continue;
        column_hits[{static_cast<int64_t>(t), static_cast<int64_t>(c)}].insert(v);
        table_hits[static_cast<int64_t>(t)].first.insert(v);
        ++table_hits[static_cast<int64_t>(t)].second;
      }
    }
  }
  std::set<std::tuple<int64_t, int64_t, int64_t>> want_sc, want_counts;
  for (const auto& [key, values] : column_hits) {
    want_sc.insert({key.first, key.second, static_cast<int64_t>(values.size())});
  }
  for (const auto& [t, hits] : table_hits) {
    want_counts.insert({t, static_cast<int64_t>(hits.first.size()), hits.second});
  }

  const std::string sc_sql =
      "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score FROM AllTables "
      "WHERE CellValue IN (" + in_list + ") GROUP BY TableId, ColumnId;";
  const std::string count_sql =
      "SELECT TableId, COUNT(DISTINCT CellValue), COUNT(*) FROM AllTables "
      "WHERE CellValue IN (" + in_list + ") GROUP BY TableId;";
  auto rows_of = [](const QueryResult& res) {
    std::set<std::tuple<int64_t, int64_t, int64_t>> rows;
    for (size_t r = 0; r < res.NumRows(); ++r) {
      rows.insert({res.Int(r, 0), res.Int(r, 1), res.Int(r, 2)});
    }
    EXPECT_EQ(rows.size(), res.NumRows());
    return rows;
  };

  Scheduler pool4(4);
  const std::string path = ::testing::TempDir() + "blend_long_list_" +
                           std::to_string(getpid()) + ".snapshot";
  for (StoreLayout layout : {StoreLayout::kColumn, StoreLayout::kRow}) {
    IndexBuildOptions opts;
    opts.layout = layout;
    const IndexBundle built = IndexBuilder(opts).Build(lake);
    const CellId hot = built.dictionary().Find("hot");
    const size_t hot_count = layout == StoreLayout::kRow
                                 ? built.row_store().PostingList(hot).size()
                                 : built.column_store().PostingList(hot).size();
    ASSERT_EQ(hot_count, 20000u);
    // The same answers from a bundle opened off a compressed snapshot.
    SnapshotOptions compressed;
    compressed.codec = PostingCodec::kCompressed;
    ASSERT_TRUE(WriteSnapshot(built, path, compressed).ok());
    auto opened = OpenSnapshot(path);
    std::remove(path.c_str());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const IndexBundle& served = opened.value();
    for (const IndexBundle* bundle : {&built, &served}) {
      const Engine engine(bundle);
      for (Scheduler* pool : {Scheduler::Serial(), static_cast<Scheduler*>(&pool4)}) {
        SCOPED_TRACE("layout=" + std::to_string(static_cast<int>(layout)) +
                     " opened=" + std::to_string(bundle != &built) +
                     " pool=" + std::to_string(pool->parallelism()));
        QueryOptions qopts;
        qopts.scheduler = pool;
        auto sc = engine.Query(sc_sql, qopts);
        ASSERT_TRUE(sc.ok()) << sc.status().ToString();
        EXPECT_EQ(rows_of(sc.value()), want_sc);
        auto counts = engine.Query(count_sql, qopts);
        ASSERT_TRUE(counts.ok()) << counts.status().ToString();
        EXPECT_EQ(rows_of(counts.value()), want_counts);
      }
    }
  }
}

}  // namespace
}  // namespace blend::sql
