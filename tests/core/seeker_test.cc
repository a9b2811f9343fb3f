#include "core/seeker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <functional>
#include <set>

#include "common/str_util.h"
#include "core/blend.h"
#include "lakegen/correlation_lake.h"
#include "lakegen/join_lake.h"
#include "lakegen/mc_lake.h"
#include "lakegen/workloads.h"

namespace blend::core {
namespace {

class SeekerFig1Test : public ::testing::TestWithParam<StoreLayout> {
 protected:
  SeekerFig1Test() : fig1_(lakegen::MakeFig1Lake()) {
    Blend::Options opts;
    opts.layout = GetParam();
    blend_ = std::make_unique<Blend>(&fig1_.lake, opts);
  }
  lakegen::Fig1 fig1_;
  std::unique_ptr<Blend> blend_;
};

TEST_P(SeekerFig1Test, ScFindsDepartmentColumns) {
  SCSeeker sc({"HR", "Marketing", "Finance", "IT", "R&D", "Sales"}, 10);
  auto r = sc.Execute(blend_->context(), "");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const TableList& out = r.value();
  ASSERT_EQ(out.size(), 3u);
  // T2/T3 contain all 6 departments in their Team column; T1 only 5.
  EXPECT_DOUBLE_EQ(out[0].score, 6.0);
  EXPECT_DOUBLE_EQ(out[1].score, 6.0);
  EXPECT_EQ(out[2].table, fig1_.t1);
  EXPECT_DOUBLE_EQ(out[2].score, 5.0);
}

TEST_P(SeekerFig1Test, ScRespectsRewritePredicate) {
  SCSeeker sc({"HR", "Marketing", "Finance", "IT", "R&D", "Sales"}, 10);
  std::string rewrite = "AND TableId IN (" + std::to_string(fig1_.t3) + ")";
  auto r = sc.Execute(blend_->context(), rewrite);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0].table, fig1_.t3);
}

TEST_P(SeekerFig1Test, ScNotInRewrite) {
  SCSeeker sc({"HR", "IT"}, 10);
  std::string rewrite = "AND TableId NOT IN (" + std::to_string(fig1_.t2) + "," +
                        std::to_string(fig1_.t3) + ")";
  auto r = sc.Execute(blend_->context(), rewrite);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0].table, fig1_.t1);
}

TEST_P(SeekerFig1Test, KwCountsWholeTableOverlap) {
  // "2022" appears only in T2; "firenze" in T2 and T3.
  KWSeeker kw({"2022", "Firenze"}, 10);
  auto r = kw.Execute(blend_->context(), "");
  ASSERT_TRUE(r.ok());
  const TableList& out = r.value();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].table, fig1_.t2);
  EXPECT_DOUBLE_EQ(out[0].score, 2.0);
  EXPECT_EQ(out[1].table, fig1_.t3);
}

TEST_P(SeekerFig1Test, McFindsAlignedRows) {
  MCSeeker mc({{"HR", "Firenze"}}, 10);
  auto r = mc.Execute(blend_->context(), "");
  ASSERT_TRUE(r.ok());
  const TableList& out = r.value();
  ASSERT_EQ(out.size(), 2u);  // T2 and T3 contain the (HR, Firenze) row
  EXPECT_TRUE(ContainsTable(out, fig1_.t2));
  EXPECT_TRUE(ContainsTable(out, fig1_.t3));
  EXPECT_FALSE(ContainsTable(out, fig1_.t1));
}

TEST_P(SeekerFig1Test, McRejectsMisalignedTuples) {
  // "HR" and "Tom Riddle" both exist in T2 but never in the same row.
  MCSeeker mc({{"HR", "Tom Riddle"}}, 10);
  auto r = mc.Execute(blend_->context(), "");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
  EXPECT_EQ(mc.last_stats().true_positives, 0u);
}

TEST_P(SeekerFig1Test, McNeedsTwoColumns) {
  MCSeeker mc(std::vector<std::vector<std::string>>{{"HR"}}, 10);
  EXPECT_FALSE(mc.Execute(blend_->context(), "").ok());
}

TEST_P(SeekerFig1Test, EmptyNormalizedInputShortCircuits) {
  // All-empty cells normalize away entirely; seekers must return an empty
  // TableList instead of emitting the unparseable `CellValue IN ()`.
  SCSeeker sc({"", "   ", ""}, 10);
  auto sr = sc.Execute(blend_->context(), "");
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  EXPECT_TRUE(sr.value().empty());

  KWSeeker kw({"", "  "}, 10);
  auto kr = kw.Execute(blend_->context(), "");
  ASSERT_TRUE(kr.ok()) << kr.status().ToString();
  EXPECT_TRUE(kr.value().empty());

  MCSeeker mc({{"", ""}, {"HR", ""}}, 10);
  auto mr = mc.Execute(blend_->context(), "");
  ASSERT_TRUE(mr.ok()) << mr.status().ToString();
  EXPECT_TRUE(mr.value().empty());

  CorrelationSeeker corr({"", ""}, {1.0, 2.0}, 10);
  auto cr = corr.Execute(blend_->context(), "");
  ASSERT_TRUE(cr.ok()) << cr.status().ToString();
  EXPECT_TRUE(cr.value().empty());
}

TEST_P(SeekerFig1Test, CorrelationOneSidedTargetsStillExecute) {
  // Every target lands on the >= mean side, so the k0 list is empty; the
  // generated SQL must replace `CellValue IN ()` with a never-true literal
  // and still parse and run.
  CorrelationSeeker corr({"HR", "Marketing", "Finance"}, {5.0, 5.0, 5.0}, 10);
  auto r = corr.Execute(blend_->context(), "");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST_P(SeekerFig1Test, McThreeColumnTuple) {
  MCSeeker mc({{"HR", "Firenze", "2024"}}, 10);
  auto r = mc.Execute(blend_->context(), "");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0].table, fig1_.t3);
}

INSTANTIATE_TEST_SUITE_P(Layouts, SeekerFig1Test,
                         ::testing::Values(StoreLayout::kRow, StoreLayout::kColumn));

TEST(SeekerSqlTest, GeneratedSqlContainsPaperClauses) {
  SCSeeker sc({"a", "b"}, 10);
  std::string sql = sc.GenerateSql("", 40);
  EXPECT_NE(sql.find("GROUP BY TableId, ColumnId"), std::string::npos);
  EXPECT_NE(sql.find("ORDER BY score DESC"), std::string::npos);
  EXPECT_NE(sql.find("LIMIT 40"), std::string::npos);

  KWSeeker kw({"a"}, 5);
  std::string kw_sql = kw.GenerateSql("", 5);
  EXPECT_NE(kw_sql.find("GROUP BY TableId "), std::string::npos);
  EXPECT_EQ(kw_sql.find("ColumnId"), std::string::npos);

  MCSeeker mc({{"x", "y"}}, 5);
  std::string mc_sql = mc.GenerateSql("", -1);
  EXPECT_NE(mc_sql.find("INNER JOIN"), std::string::npos);
  EXPECT_NE(mc_sql.find("SuperKey"), std::string::npos);

  CorrelationSeeker c({"k1", "k2"}, {1.0, 2.0}, 5, 128);
  std::string c_sql = c.GenerateSql("", 5);
  EXPECT_NE(c_sql.find("Quadrant IS NOT NULL"), std::string::npos);
  EXPECT_NE(c_sql.find("RowId < 128"), std::string::npos);
  EXPECT_NE(c_sql.find("ABS"), std::string::npos);
}

TEST(SeekerSqlTest, RewriteIsInjectedIntoSql) {
  SCSeeker sc({"a"}, 10);
  std::string sql = sc.GenerateSql("AND TableId IN (1,2)", 10);
  EXPECT_NE(sql.find("AND TableId IN (1,2)"), std::string::npos);
}

TEST(SeekerSqlTest, CorrelationRewriteReachesOnlyTheKeysSubquery) {
  // The intersection rewrite prunes the key scan. The numeric cells are read
  // by a lookup join on (TableId, RowId) of the key rows, so they already
  // inherit the restriction and the nums side carries no copy of it.
  CorrelationSeeker c({"k1"}, {1.0}, 5, 64);
  std::string sql = c.GenerateSql("AND TableId IN (3,4)", 5);
  size_t first = sql.find("AND TableId IN (3,4)");
  ASSERT_NE(first, std::string::npos);
  EXPECT_LT(first, sql.find(") AS keys"));
  EXPECT_EQ(sql.find("AND TableId IN (3,4)", first + 1), std::string::npos);
}

TEST(SeekerTest, CorrelationRewriteRestrictsOutput) {
  lakegen::CorrLakeSpec spec;
  spec.num_tables = 40;
  spec.numeric_key_frac = 0.0;
  spec.seed = 41;
  auto corr = lakegen::MakeCorrLake(spec);
  Blend blend(&corr.lake);
  Rng rng(13);
  auto query = lakegen::MakeCorrQuery(spec, 2, false, 50, &rng);
  CorrelationSeeker seeker(query.keys, query.targets, 20, 256);
  auto full = seeker.Execute(blend.context(), "").ValueOrDie();
  ASSERT_GE(full.size(), 2u);
  TableId keep = full[0].table;
  auto restricted =
      seeker
          .Execute(blend.context(), "AND TableId IN (" + std::to_string(keep) + ")")
          .ValueOrDie();
  ASSERT_EQ(restricted.size(), 1u);
  EXPECT_EQ(restricted[0].table, keep);
  EXPECT_DOUBLE_EQ(restricted[0].score, full[0].score);
}

TEST(SeekerTest, ScAgainstBruteForceOnRandomLake) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 80;
  spec.seed = 11;
  DataLake lake = lakegen::MakeJoinLake(spec);
  Blend blend(&lake);
  lakegen::BruteForceOverlap brute(&lake);

  Rng rng(3);
  for (int q = 0; q < 5; ++q) {
    auto values = lakegen::SampleColumnQuery(lake, 20, &rng);
    SCSeeker sc(values, 10);
    auto r = sc.Execute(blend.context(), "");
    ASSERT_TRUE(r.ok());
    auto gt = brute.TopKByColumnOverlap(values, 10);
    ASSERT_EQ(r.value().size(), gt.size());
    for (size_t i = 0; i < gt.size(); ++i) {
      EXPECT_EQ(r.value()[i].table, gt[i].table) << "rank " << i;
      EXPECT_DOUBLE_EQ(r.value()[i].score, gt[i].score);
    }
  }
}

TEST(SeekerTest, McNoFalseNegativesOnMcLake) {
  lakegen::McLakeSpec spec;
  spec.num_tables = 60;
  spec.seed = 21;
  auto mc_lake = lakegen::MakeMcLake(spec);
  Blend blend(&mc_lake.lake);

  Rng rng(5);
  auto tuples = lakegen::MakeMcQuery(spec, /*domain=*/2, 12, &rng);
  MCSeeker mc(tuples, -1);
  auto r = mc.Execute(blend.context(), "");
  ASSERT_TRUE(r.ok());
  auto found = IdSet(r.value());

  // Every table with at least one exactly joinable row must be found.
  for (TableId t = 0; t < static_cast<TableId>(mc_lake.lake.NumTables()); ++t) {
    const Table& table = mc_lake.lake.table(t);
    bool joinable = false;
    for (size_t row = 0; row < table.NumRows() && !joinable; ++row) {
      joinable = lakegen::RowJoinsTuples(table, row, tuples);
    }
    EXPECT_EQ(found.count(t) > 0, joinable) << "table " << t;
  }
}

TEST(SeekerTest, McStatsAreConsistent) {
  lakegen::McLakeSpec spec;
  spec.num_tables = 40;
  spec.seed = 23;
  auto mc_lake = lakegen::MakeMcLake(spec);
  Blend blend(&mc_lake.lake);
  Rng rng(7);
  auto tuples = lakegen::MakeMcQuery(spec, 1, 10, &rng);
  MCSeeker mc(tuples, 10);
  ASSERT_TRUE(mc.Execute(blend.context(), "").ok());
  const auto& st = mc.last_stats();
  EXPECT_EQ(st.true_positives + st.false_positives, st.bloom_pass_rows);
  EXPECT_LE(st.bloom_pass_rows, st.candidate_rows);
}

/// Brute-force MC seeker over the raw DataLake, sharing no code with the
/// index or the SQL engine. A table `keep` accepts scores the number of its
/// rows that contain some query tuple exactly (lakegen::RowJoinsTuples:
/// every value, each in a distinct column). Top k by score descending, ties
/// by ascending TableId.
TableList BruteForceMc(const DataLake& lake,
                       const std::vector<std::vector<std::string>>& tuples, int k,
                       const std::function<bool(TableId)>& keep) {
  TableList out;
  for (TableId t = 0; t < static_cast<TableId>(lake.NumTables()); ++t) {
    if (!keep(t)) continue;
    const Table& table = lake.table(t);
    double rows = 0;
    for (size_t r = 0; r < table.NumRows(); ++r) {
      if (lakegen::RowJoinsTuples(table, r, tuples)) rows += 1;
    }
    if (rows > 0) out.push_back({t, rows});
  }
  std::sort(out.begin(), out.end(), [](const ScoredTable& a, const ScoredTable& b) {
    return a.score != b.score ? a.score > b.score : a.table < b.table;
  });
  if (k >= 0 && out.size() > static_cast<size_t>(k)) out.resize(static_cast<size_t>(k));
  return out;
}

TEST(SeekerTest, McMatchesBruteForceOracle) {
  // Two- and three-column tuples, k below and above the number of joinable
  // tables, no rewrite and the optimizer's TableId IN rewrite, on both
  // layouts with raw and compressed in-memory postings: the seeker must
  // reproduce the oracle's tables and row counts exactly.
  lakegen::McLakeSpec spec;
  spec.num_tables = 60;
  spec.num_pair_domains = 4;
  spec.pairs_per_domain = 200;
  spec.seed = 53;
  auto mc_lake = lakegen::MakeMcLake(spec);
  const DataLake& lake = mc_lake.lake;

  Rng rng(19);
  std::vector<std::vector<std::vector<std::string>>> queries;
  for (int domain = 0; domain < 2; ++domain) {
    queries.push_back(lakegen::MakeMcQuery(spec, domain, 40, &rng));
  }
  // Three-column tuples: (left, right, payload) of sampled lake rows, so
  // some align exactly; the values' cross products make candidate rows that
  // validation must reject.
  for (int domain = 2; domain < 4; ++domain) {
    std::vector<std::vector<std::string>> tuples;
    for (TableId t = 0; t < static_cast<TableId>(lake.NumTables()); ++t) {
      if (mc_lake.table_domain[static_cast<size_t>(t)] != domain) continue;
      const Table& table = lake.table(t);
      for (int i = 0; i < 3; ++i) {
        const size_t r = rng.Uniform(table.NumRows());
        tuples.push_back({table.At(r, 0), table.At(r, 1), table.At(r, 2)});
      }
    }
    queries.push_back(std::move(tuples));
  }

  size_t checked = 0;
  uint64_t rejected = 0;
  for (StoreLayout layout : {StoreLayout::kRow, StoreLayout::kColumn}) {
    for (bool compressed : {false, true}) {
      Blend::Options opts;
      opts.layout = layout;
      opts.serve_compressed = compressed;
      Blend blend(&lake, opts);
      for (size_t q = 0; q < queries.size(); ++q) {
        const auto& tuples = queries[q];
        const TableList all =
            BruteForceMc(lake, tuples, -1, [](TableId) { return true; });
        ASSERT_GT(all.size(), 5u) << "query " << q << " joins too few tables";
        // The rewrite list: every other table the unrestricted oracle ranks,
        // plus one table no tuple joins.
        std::set<TableId> listed;
        for (size_t i = 0; i < all.size(); i += 2) listed.insert(all[i].table);
        const auto ranked = IdSet(all);
        for (TableId t = 0; t < static_cast<TableId>(lake.NumTables()); ++t) {
          if (ranked.count(t) == 0) {
            listed.insert(t);
            break;
          }
        }
        std::string ids;
        for (TableId t : listed) ids += (ids.empty() ? "" : ",") + std::to_string(t);
        const std::vector<std::pair<std::string, std::function<bool(TableId)>>>
            rewrites = {
                {"", [](TableId) { return true; }},
                {"AND TableId IN (" + ids + ")",
                 [&](TableId t) { return listed.count(t) > 0; }},
            };
        for (int k : {5, -1}) {
          MCSeeker mc(tuples, k);
          for (const auto& [rewrite, keep] : rewrites) {
            SCOPED_TRACE("layout=" + std::to_string(static_cast<int>(layout)) +
                         " compressed=" + std::to_string(compressed) +
                         " q=" + std::to_string(q) + " k=" + std::to_string(k) +
                         " rewrite=" + rewrite);
            const TableList want = BruteForceMc(lake, tuples, k, keep);
            auto got = mc.Execute(blend.context(), rewrite);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            ASSERT_EQ(got.value().size(), want.size());
            for (size_t i = 0; i < want.size(); ++i) {
              EXPECT_EQ(got.value()[i].table, want[i].table) << "rank " << i;
              EXPECT_EQ(got.value()[i].score, want[i].score) << "rank " << i;
            }
            checked += want.size();
            rejected += mc.last_stats().false_positives;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 200u);  // the oracle ranked real tables, not empty lists
  EXPECT_GT(rejected, 0u);   // exact validation rejected some candidate rows
}

/// Brute-force KW seeker over the raw DataLake, sharing no code with the
/// index or the SQL engine. A table `keep` accepts scores the number of
/// distinct normalized keywords among its normalized cells. Top k by score
/// descending, ties by ascending TableId (the engine's ORDER BY breaks ties
/// on the output row, whose first value is the TableId).
TableList BruteForceKw(const DataLake& lake, const std::vector<std::string>& keywords,
                       int k, const std::function<bool(TableId)>& keep) {
  std::set<std::string> wanted;
  for (const std::string& kw : keywords) {
    const std::string n = NormalizeCell(kw);
    if (!n.empty()) wanted.insert(n);
  }
  TableList out;
  for (TableId t = 0; t < static_cast<TableId>(lake.NumTables()); ++t) {
    if (!keep(t)) continue;
    const Table& table = lake.table(t);
    std::set<std::string> found;
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      for (size_t r = 0; r < table.NumRows(); ++r) {
        const std::string n = NormalizeCell(table.At(r, c));
        if (wanted.count(n) > 0) found.insert(n);
      }
    }
    if (!found.empty()) out.push_back({t, static_cast<double>(found.size())});
  }
  std::sort(out.begin(), out.end(), [](const ScoredTable& a, const ScoredTable& b) {
    return a.score != b.score ? a.score > b.score : a.table < b.table;
  });
  if (k >= 0 && out.size() > static_cast<size_t>(k)) out.resize(static_cast<size_t>(k));
  return out;
}

TEST(SeekerTest, KeywordMatchesBruteForceOracle) {
  // Keywords from two random columns (so scores spread and tie), a case and
  // whitespace variant of one, and a keyword no table holds; k below and
  // above the number of matching tables; no rewrite and the optimizer's
  // TableId IN / NOT IN rewrites; both layouts with raw and compressed
  // in-memory postings: the seeker must reproduce the oracle's tables and
  // scores exactly.
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 80;
  spec.num_domains = 5;
  spec.domain_vocab = 300;
  spec.seed = 29;
  const DataLake lake = lakegen::MakeJoinLake(spec);

  Rng rng(31);
  std::vector<std::vector<std::string>> queries;
  for (int q = 0; q < 3; ++q) {
    std::vector<std::string> keywords = lakegen::SampleColumnQuery(lake, 12, &rng);
    for (std::string& v : lakegen::SampleColumnQuery(lake, 6, &rng)) {
      keywords.push_back(std::move(v));
    }
    std::string variant = keywords[0];
    for (char& ch : variant) ch = static_cast<char>(std::toupper(ch));
    keywords.push_back("  " + variant + " ");
    keywords.push_back("no-such-keyword");
    queries.push_back(std::move(keywords));
  }

  size_t checked = 0;
  for (StoreLayout layout : {StoreLayout::kRow, StoreLayout::kColumn}) {
    for (bool compressed : {false, true}) {
      Blend::Options opts;
      opts.layout = layout;
      opts.serve_compressed = compressed;
      Blend blend(&lake, opts);
      for (size_t q = 0; q < queries.size(); ++q) {
        const auto& keywords = queries[q];
        const TableList all =
            BruteForceKw(lake, keywords, -1, [](TableId) { return true; });
        ASSERT_GT(all.size(), 5u) << "query " << q << " matches too few tables";
        // The rewrite list: every other table the unrestricted oracle ranks,
        // plus one table no keyword reaches.
        std::set<TableId> listed;
        for (size_t i = 0; i < all.size(); i += 2) listed.insert(all[i].table);
        const auto ranked = IdSet(all);
        for (TableId t = 0; t < static_cast<TableId>(lake.NumTables()); ++t) {
          if (ranked.count(t) == 0) {
            listed.insert(t);
            break;
          }
        }
        std::string ids;
        for (TableId t : listed) ids += (ids.empty() ? "" : ",") + std::to_string(t);
        const std::vector<std::pair<std::string, std::function<bool(TableId)>>>
            rewrites = {
                {"", [](TableId) { return true; }},
                {"AND TableId IN (" + ids + ")",
                 [&](TableId t) { return listed.count(t) > 0; }},
                {"AND TableId NOT IN (" + ids + ")",
                 [&](TableId t) { return listed.count(t) == 0; }},
            };
        for (int k : {5, -1}) {
          KWSeeker kw(keywords, k);
          for (const auto& [rewrite, keep] : rewrites) {
            SCOPED_TRACE("layout=" + std::to_string(static_cast<int>(layout)) +
                         " compressed=" + std::to_string(compressed) +
                         " q=" + std::to_string(q) + " k=" + std::to_string(k) +
                         " rewrite=" + rewrite);
            const TableList want = BruteForceKw(lake, keywords, k, keep);
            auto got = kw.Execute(blend.context(), rewrite);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            ASSERT_EQ(got.value().size(), want.size());
            for (size_t i = 0; i < want.size(); ++i) {
              EXPECT_EQ(got.value()[i].table, want[i].table) << "rank " << i;
              EXPECT_EQ(got.value()[i].score, want[i].score) << "rank " << i;
            }
            checked += want.size();
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 200u);  // the oracle ranked real tables, not empty lists
}

/// Brute-force correlation seeker over the raw DataLake, sharing no code
/// with the index or the SQL engine. For every table `keep` accepts, every
/// key column and every other numeric column (Column::IsNumeric), over the
/// rows r < h whose key cell normalizes to a query key and whose numeric
/// cell is non-blank: a row agrees when its key's target is below the target
/// mean and its value below the column mean (Column::NumericMean), or the
/// target at or above the mean and the value at or above the column mean.
/// The pair scores the QCR |2 * agreeing - rows| / rows; a table scores its
/// best pair. Top k by score descending, ties by ascending TableId.
TableList BruteForceCorrelation(const DataLake& lake,
                                const std::vector<std::string>& keys,
                                const std::vector<double>& targets, int k, int h,
                                const std::function<bool(TableId)>& keep) {
  const size_t n = std::min(keys.size(), targets.size());
  double mean = 0;
  for (size_t i = 0; i < n; ++i) mean += targets[i];
  if (n > 0) mean /= static_cast<double>(n);
  std::set<std::string> below, above;
  for (size_t i = 0; i < n; ++i) {
    const std::string key = NormalizeCell(keys[i]);
    if (key.empty()) continue;
    (targets[i] < mean ? below : above).insert(key);
  }
  TableList out;
  for (TableId t = 0; t < static_cast<TableId>(lake.NumTables()); ++t) {
    if (!keep(t)) continue;
    const Table& table = lake.table(t);
    const size_t rows = std::min(table.NumRows(), static_cast<size_t>(h));
    bool found = false;
    double best = 0;
    for (size_t nc = 0; nc < table.NumColumns(); ++nc) {
      const Column& num = table.column(nc);
      if (!num.IsNumeric()) continue;
      const double col_mean = num.NumericMean().value();
      for (size_t kc = 0; kc < table.NumColumns(); ++kc) {
        if (kc == nc) continue;
        int64_t count = 0, agree = 0;
        for (size_t r = 0; r < rows; ++r) {
          const std::string key = NormalizeCell(table.At(r, kc));
          const bool is_below = below.count(key) > 0;
          const bool is_above = above.count(key) > 0;
          if (!is_below && !is_above) continue;
          const auto value = ParseNumeric(table.At(r, nc));
          if (!value.has_value()) continue;  // blank numeric cell
          const bool high = *value >= col_mean;
          ++count;
          if ((is_below && !high) || (is_above && high)) ++agree;
        }
        if (count == 0) continue;
        const double score = std::abs(static_cast<double>(2 * agree - count) /
                                      static_cast<double>(count));
        if (!found || score > best) best = score;
        found = true;
      }
    }
    if (found) out.push_back({t, best});
  }
  std::sort(out.begin(), out.end(), [](const ScoredTable& a, const ScoredTable& b) {
    return a.score != b.score ? a.score > b.score : a.table < b.table;
  });
  if (k >= 0 && out.size() > static_cast<size_t>(k)) out.resize(static_cast<size_t>(k));
  return out;
}

TEST(SeekerTest, CorrelationMatchesBruteForceOracle) {
  // Categorical and numeric join keys, composite-key tables (three or more
  // columns, so several key/numeric column pairs per table), a sample size
  // below and above the run-sorted tables' row counts, and the optimizer's
  // TableId IN / NOT IN rewrites: the seeker must reproduce the oracle's
  // tables and scores exactly.
  lakegen::CorrLakeSpec spec;
  spec.num_tables = 60;
  spec.numeric_key_frac = 0.4;
  spec.composite_key = true;
  spec.seed = 43;
  auto corr = lakegen::MakeCorrLake(spec);
  Blend blend(&corr.lake);
  Rng rng(17);
  size_t checked = 0;
  for (int q = 0; q < 6; ++q) {
    const int domain = q % 3;
    const bool numeric_key = q >= 3;
    auto query = lakegen::MakeCorrQuery(spec, domain, numeric_key, 60, &rng);
    for (int h : {16, 256}) {
      for (int k : {5, 1000}) {
        CorrelationSeeker seeker(query.keys, query.targets, k, h);
        const TableList all = BruteForceCorrelation(
            corr.lake, query.keys, query.targets, -1, h, [](TableId) { return true; });
        // The rewrite list: every other table the unrestricted oracle ranks,
        // plus one table no key joins.
        std::set<TableId> listed;
        std::string ids;
        for (size_t i = 0; i < all.size(); i += 2) listed.insert(all[i].table);
        listed.insert(static_cast<TableId>(spec.num_tables - 1));
        for (TableId t : listed) ids += (ids.empty() ? "" : ",") + std::to_string(t);
        const std::vector<std::pair<std::string, std::function<bool(TableId)>>>
            rewrites = {
                {"", [](TableId) { return true; }},
                {"AND TableId IN (" + ids + ")",
                 [&](TableId t) { return listed.count(t) > 0; }},
                {"AND TableId NOT IN (" + ids + ")",
                 [&](TableId t) { return listed.count(t) == 0; }},
            };
        for (const auto& [rewrite, keep] : rewrites) {
          SCOPED_TRACE("q=" + std::to_string(q) + " h=" + std::to_string(h) +
                       " k=" + std::to_string(k) + " rewrite=" + rewrite);
          const TableList want = BruteForceCorrelation(corr.lake, query.keys,
                                                       query.targets, k, h, keep);
          auto got = seeker.Execute(blend.context(), rewrite);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_EQ(got.value().size(), want.size());
          for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got.value()[i].table, want[i].table) << "rank " << i;
            EXPECT_EQ(got.value()[i].score, want[i].score) << "rank " << i;
          }
          checked += want.size();
        }
      }
    }
  }
  EXPECT_GT(checked, 100u);  // the oracle ranked real tables, not empty lists
}

TEST(SeekerTest, CorrelationSeekerFindsCorrelatedTables) {
  lakegen::CorrLakeSpec spec;
  spec.num_tables = 60;
  spec.numeric_key_frac = 0.0;  // categorical keys only for this test
  spec.seed = 31;
  auto corr = lakegen::MakeCorrLake(spec);
  Blend blend(&corr.lake);

  Rng rng(9);
  auto query = lakegen::MakeCorrQuery(spec, /*domain=*/3, /*numeric_key=*/false,
                                      60, &rng);
  CorrelationSeeker seeker(query.keys, query.targets, 10, 256);
  auto r = seeker.Execute(blend.context(), "");
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r.value().empty());

  // All returned tables must belong to the queried key domain (others cannot
  // join), and scores must be valid |QCR| values in [0, 1].
  for (const auto& e : r.value()) {
    EXPECT_EQ(corr.table_domain[static_cast<size_t>(e.table)], 3);
    EXPECT_GE(e.score, 0.0);
    EXPECT_LE(e.score, 1.0 + 1e-9);
  }

  // The top result should be a genuinely correlated table per exact Pearson.
  auto gt = lakegen::ExactCorrelationTopK(corr.lake, query.keys, query.targets, 10);
  ASSERT_FALSE(gt.empty());
  auto gt_ids = IdSet(gt);
  EXPECT_TRUE(gt_ids.count(r.value()[0].table) > 0);
}

TEST(SeekerTest, CorrelationSupportsNumericKeys) {
  lakegen::CorrLakeSpec spec;
  spec.num_tables = 50;
  spec.numeric_key_frac = 1.0;  // all numeric join keys
  spec.seed = 37;
  auto corr = lakegen::MakeCorrLake(spec);
  Blend blend(&corr.lake);

  Rng rng(11);
  auto query = lakegen::MakeCorrQuery(spec, 1, /*numeric_key=*/true, 50, &rng);
  CorrelationSeeker seeker(query.keys, query.targets, 10, 256);
  auto r = seeker.Execute(blend.context(), "");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().empty()) << "numeric join keys must be supported";
}

TEST(SeekerTest, FeaturesReflectInput) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 20;
  DataLake lake = lakegen::MakeJoinLake(spec);
  Blend blend(&lake);

  SCSeeker sc({"d0_v1", "d0_v2", "d0_v3"}, 10);
  auto f = sc.ComputeFeatures(blend.stats());
  EXPECT_DOUBLE_EQ(f.cardinality, 3.0);
  EXPECT_DOUBLE_EQ(f.num_columns, 1.0);

  MCSeeker mc({{"a", "b"}, {"c", "d"}}, 10);
  auto fm = mc.ComputeFeatures(blend.stats());
  EXPECT_DOUBLE_EQ(fm.num_columns, 2.0);
  EXPECT_DOUBLE_EQ(fm.cardinality, 4.0);
}

TEST(SeekerTest, NormalizationDeduplicatesInput) {
  SCSeeker sc({"HR", "hr ", " hr"}, 10);
  EXPECT_EQ(sc.values().size(), 1u);
}

}  // namespace
}  // namespace blend::core
