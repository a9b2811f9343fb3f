#include "core/seeker.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
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
  MCExecutionStats stats;
  auto r = mc.Execute(blend_->context(), "", &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
  EXPECT_EQ(stats.true_positives, 0u);
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
  MCExecutionStats st;
  ASSERT_TRUE(mc.Execute(blend.context(), "", &st).ok());
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

/// A Blend over `lake` built with `opts`. With `compressed` it serves
/// block-compressed postings: the built index round-trips through a
/// compressed snapshot, opened without the lake.
std::unique_ptr<Blend> MakeBlend(const DataLake& lake, Blend::Options opts,
                                 bool compressed) {
  if (!compressed) return std::make_unique<Blend>(&lake, opts);
  opts.snapshot_codec = PostingCodec::kCompressed;
  const std::string path = ::testing::TempDir() + "blend_seeker_" +
                           std::to_string(getpid()) + ".snapshot";
  EXPECT_TRUE(Blend(&lake, opts).SaveSnapshot(path).ok());
  auto opened = Blend::OpenSnapshot(path, nullptr, opts);
  std::remove(path.c_str());
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return opened.ok() ? std::move(opened).take() : nullptr;
}

TEST(SeekerTest, McMatchesBruteForceOracle) {
  // Two- and three-column tuples, k below and above the number of joinable
  // tables, no rewrite and the optimizer's TableId IN rewrite, on both
  // layouts, with rows indexed in lake or shuffled order, serving raw or
  // compressed postings: the seeker must reproduce the oracle's tables and
  // row counts exactly.
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
    for (bool shuffle : {false, true}) {
      for (bool compressed : {false, true}) {
        Blend::Options opts;
        opts.layout = layout;
        opts.shuffle_rows = shuffle;
        const std::unique_ptr<Blend> blend = MakeBlend(lake, opts, compressed);
        ASSERT_NE(blend, nullptr);
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
                           " shuffle=" + std::to_string(shuffle) +
                           " compressed=" + std::to_string(compressed) +
                           " q=" + std::to_string(q) + " k=" + std::to_string(k) +
                           " rewrite=" + rewrite);
              const TableList want = BruteForceMc(lake, tuples, k, keep);
              MCExecutionStats stats;
              auto got = mc.Execute(blend->context(), rewrite, &stats);
              ASSERT_TRUE(got.ok()) << got.status().ToString();
              ASSERT_EQ(got.value().size(), want.size());
              for (size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(got.value()[i].table, want[i].table) << "rank " << i;
                EXPECT_EQ(got.value()[i].score, want[i].score) << "rank " << i;
              }
              checked += want.size();
              rejected += stats.false_positives;
            }
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
  // TableId IN / NOT IN rewrites; both layouts serving raw or compressed
  // postings: the seeker must reproduce the oracle's tables and scores
  // exactly.
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
      const std::unique_ptr<Blend> blend = MakeBlend(lake, opts, compressed);
      ASSERT_NE(blend, nullptr);
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
            auto got = kw.Execute(blend->context(), rewrite);
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

/// A lake whose rows hold different numbers of indexed cells. Each row
/// draws a cell density from empty to full; keys mix text (upper case, so
/// queries exercise normalization) and numbers, which numeric columns hold
/// too; numeric columns have blank cells and mixed text/number columns are
/// not numeric. Every third table is
/// wide (64-79 columns), the others are tall (257-756 rows), so (TableId,
/// RowId) groups sit far from where an even spread of rows would put them.
DataLake MakeRaggedLake(uint64_t seed) {
  Rng rng(seed);
  DataLake lake("ragged");
  auto key = [&] {
    const uint64_t i = rng.Uniform(120);
    return i % 3 == 0 ? std::to_string(1000 + i) : "K" + std::to_string(i);
  };
  auto number = [&] {
    if (rng.Uniform(8) == 0) return std::to_string(1000 + 3 * rng.Uniform(40));
    char buf[32];
    snprintf(buf, sizeof(buf), "%.3f", 10 * rng.Normal());
    return std::string(buf);
  };
  enum Kind { kKey, kNumeric, kMixed, kText };
  const double densities[] = {0.0, 0.1, 0.5, 0.9, 1.0};
  for (int t = 0; t < 24; ++t) {
    const bool wide = t % 3 == 0;
    const size_t cols = wide ? 64 + rng.Uniform(16) : 3 + rng.Uniform(5);
    const size_t rows = wide ? 20 + rng.Uniform(300) : 257 + rng.Uniform(500);
    Table table("ragged" + std::to_string(t));
    std::vector<Kind> kinds(cols);
    for (size_t c = 0; c < cols; ++c) {
      kinds[c] = c == 0 ? kKey : static_cast<Kind>(rng.Uniform(4));
      table.AddColumn("c" + std::to_string(c));
    }
    for (size_t r = 0; r < rows; ++r) {
      const double density = densities[rng.Uniform(5)];
      std::vector<std::string> row(cols);
      for (size_t c = 0; c < cols; ++c) {
        if (rng.UniformDouble() >= density) {
          row[c] = rng.Uniform(2) == 0 ? "" : "  ";
          continue;
        }
        switch (kinds[c]) {
          case kKey: row[c] = key(); break;
          case kNumeric: row[c] = number(); break;
          case kMixed: row[c] = rng.Uniform(4) == 0 ? "x" + key() : number(); break;
          case kText: row[c] = "w" + std::to_string(rng.Uniform(50)); break;
        }
      }
      EXPECT_TRUE(table.AppendRow(row).ok());
    }
    lake.AddTable(std::move(table));
  }
  return lake;
}

/// Rows a (TableId, RowId) join of key cells with numeric cells emits,
/// counted on the raw lake: pairs of a cell in row r < h that normalizes to
/// a query key and a non-blank cell of a numeric column of the same row —
/// another column (the correlation statement's `<>` residual) or, with
/// `same_column`, the key's own column (an extra ColumnId join key).
int64_t BruteForceKeyNumericPairs(const DataLake& lake,
                                  const std::vector<std::string>& keys, int h,
                                  bool same_column) {
  std::set<std::string> wanted;
  for (const auto& k : keys) wanted.insert(NormalizeCell(k));
  wanted.erase("");
  int64_t joined = 0;
  for (TableId t = 0; t < static_cast<TableId>(lake.NumTables()); ++t) {
    const Table& table = lake.table(t);
    std::vector<bool> numeric(table.NumColumns());
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      numeric[c] = table.column(c).IsNumeric();
    }
    const size_t rows = std::min(table.NumRows(), static_cast<size_t>(h));
    for (size_t r = 0; r < rows; ++r) {
      for (size_t kc = 0; kc < table.NumColumns(); ++kc) {
        if (wanted.count(NormalizeCell(table.At(r, kc))) == 0) continue;
        for (size_t nc = 0; nc < table.NumColumns(); ++nc) {
          if ((nc == kc) == same_column && numeric[nc] &&
              !NormalizeCell(table.At(r, nc)).empty()) {
            ++joined;
          }
        }
      }
    }
  }
  return joined;
}

TEST(SeekerTest, CorrelationMatchesBruteForceOracleOnRaggedRows) {
  // The correlation statement looks each key row's numeric cells up by
  // (TableId, RowId) group. On ragged rows, tall tables and wide rows the
  // group search must still find exactly the lake's cells: the seeker's
  // answer matches the oracle, and the LookupJoin emits as many rows as a
  // brute-force join of the raw tables — also when the ON carries a join
  // key beyond the (TableId, RowId) pair the group guarantees.
  const DataLake lake = MakeRaggedLake(71);
  std::vector<std::unique_ptr<Blend>> blends;
  for (StoreLayout layout : {StoreLayout::kRow, StoreLayout::kColumn}) {
    Blend::Options opts;
    opts.layout = layout;
    blends.push_back(std::make_unique<Blend>(&lake, opts));
  }
  Rng rng(13);
  size_t checked = 0;
  for (int q = 0; q < 4; ++q) {
    std::vector<std::string> keys;
    std::vector<double> targets;
    for (int i = 0; i < 60; ++i) {
      const uint64_t v = rng.Uniform(130);  // a few keys match no cell
      keys.push_back(v % 3 == 0 ? std::to_string(1000 + v) : "k" + std::to_string(v));
      targets.push_back(rng.Normal());
    }
    for (int h : {256, 1024}) {
      const TableList all = BruteForceCorrelation(lake, keys, targets, -1, h,
                                                  [](TableId) { return true; });
      std::vector<std::string> normalized;
      for (const auto& key : keys) normalized.push_back(NormalizeCell(key));
      const std::string same_column_join =
          "SELECT keys.TableId FROM (SELECT TableId, RowId, ColumnId FROM AllTables "
          "WHERE RowId < " +
          std::to_string(h) + " AND CellValue IN (" + SqlInList(normalized) +
          ")) AS keys INNER JOIN (SELECT TableId, RowId, ColumnId FROM AllTables "
          "WHERE RowId < " +
          std::to_string(h) +
          " AND Quadrant IS NOT NULL) AS nums ON keys.TableId = nums.TableId AND "
          "keys.RowId = nums.RowId AND keys.ColumnId = nums.ColumnId;";
      const std::vector<std::pair<std::string, int64_t>> joins = {
          {CorrelationSeeker(keys, targets, 5, h).GenerateSql("", -1),
           BruteForceKeyNumericPairs(lake, keys, h, false)},
          {same_column_join, BruteForceKeyNumericPairs(lake, keys, h, true)},
      };
      EXPECT_GT(joins[0].second, 1000);
      EXPECT_GT(joins[1].second, 10);
      for (const auto& blend : blends) {
        const int layout = static_cast<int>(blend->options().layout);
        SCOPED_TRACE("layout=" + std::to_string(layout) + " q=" + std::to_string(q) +
                     " h=" + std::to_string(h));
        for (int k : {5, 1000}) {
          CorrelationSeeker seeker(keys, targets, k, h);
          const TableList want(all.begin(),
                               all.begin() + std::min<size_t>(all.size(), k));
          auto got = seeker.Execute(blend->context(), "");
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_EQ(got.value().size(), want.size()) << "k=" << k;
          for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got.value()[i].table, want[i].table) << "k=" << k << " #" << i;
            EXPECT_EQ(got.value()[i].score, want[i].score) << "k=" << k << " #" << i;
          }
          checked += want.size();
        }
        for (const auto& [join, want_rows] : joins) {
          auto analyzed = blend->context().engine->Query("EXPLAIN ANALYZE " + join,
                                                         sql::QueryOptions{});
          ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
          int64_t lookup_rows = -1;
          for (const sql::PlanNode& node : analyzed.value().plan.nodes) {
            if (node.op == "LookupJoin") lookup_rows = node.actual_rows;
          }
          EXPECT_EQ(lookup_rows, want_rows) << analyzed.value().explain_text;
        }
      }
    }
  }
  EXPECT_GT(checked, 100u);
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
