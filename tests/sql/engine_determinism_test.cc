#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include <cstdio>

#include "common/control.h"
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

/// Shared work-stealing pools of the sizes the acceptance matrix calls for
/// ({1, 2, 4, hardware}); function-local statics so every suite in this
/// binary reuses the same worker threads.
std::vector<Scheduler*> TestPools() {
  static Scheduler pool2(2);
  static Scheduler pool4(4);
  std::vector<Scheduler*> pools = {Scheduler::Serial(), &pool2, &pool4};
  if (std::thread::hardware_concurrency() > 4) pools.push_back(Scheduler::Default());
  return pools;
}

/// `bundle` round-tripped through a compressed snapshot and read back onto
/// the heap, which decodes its postings once; `file_bytes`, when given,
/// receives the snapshot's size.
IndexBundle CompressedTwin(const IndexBundle& bundle, size_t* file_bytes = nullptr) {
  const std::string path = ::testing::TempDir() + "blend_determinism_" +
                           std::to_string(getpid()) + ".snapshot";
  SnapshotOptions opts;
  opts.codec = PostingCodec::kCompressed;
  EXPECT_TRUE(WriteSnapshot(bundle, path, opts).ok());
  if (file_bytes != nullptr) *file_bytes = std::filesystem::file_size(path);
  auto loaded = ReadSnapshot(path);
  std::remove(path.c_str());
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return loaded.ok() ? std::move(loaded).take() : IndexBundle();
}

/// Property suite for the engine's determinism contract: for representative
/// seeker-shaped SQL, Query over a pool of N threads must return rows
/// byte-identical (values *and* order) to the serial run, for N in
/// {2, 4, hardware}, on both physical layouts, and when the bundle was
/// loaded from a compressed snapshot (its postings decoded at open).
class EngineDeterminismTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  EngineDeterminismTest() {
    lakegen::JoinLakeSpec spec;
    spec.num_tables = 50;
    spec.num_domains = 6;
    spec.domain_vocab = 250;
    spec.seed = GetParam();
    lake_ = lakegen::MakeJoinLake(spec);

    IndexBuildOptions row_opts;
    row_opts.layout = StoreLayout::kRow;
    row_bundle_ = IndexBuilder(row_opts).Build(lake_);
    col_bundle_ = IndexBuilder().Build(lake_);
    row_c_bundle_ = CompressedTwin(row_bundle_, &row_c_file_bytes_);
    col_c_bundle_ = CompressedTwin(col_bundle_, &col_c_file_bytes_);
    row_engine_ = std::make_unique<Engine>(&row_bundle_);
    col_engine_ = std::make_unique<Engine>(&col_bundle_);
    row_c_engine_ = std::make_unique<Engine>(&row_c_bundle_);
    col_c_engine_ = std::make_unique<Engine>(&col_c_bundle_);
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
          char buf[40];
          // Full round-trip precision: the contract is byte-identity, not
          // approximate equality.
          snprintf(buf, sizeof(buf), "%.17g,", v.d);
          out += buf;
        }
      }
      out += "\n";
    }
    return out;
  }

  /// Per-layout engine pair: the same physical record order, built and
  /// loaded from a compressed snapshot, so one serial run over the built
  /// bundle is the reference for both.
  struct EnginePair {
    Engine* raw;
    Engine* compressed;
  };
  std::vector<EnginePair> EnginePairs() {
    return {{row_engine_.get(), row_c_engine_.get()},
            {col_engine_.get(), col_c_engine_.get()}};
  }

  /// Runs `sql` serially on the raw-served engine as the reference, then
  /// asserts every (serving codec, pool) combination reproduces it exactly on
  /// both layouts.
  void ExpectDeterministic(const std::string& sql) {
    for (const EnginePair& pair : EnginePairs()) {
      QueryOptions serial;
      serial.scheduler = Scheduler::Serial();
      auto ref = pair.raw->Query(sql, serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
      const std::string want = ResultToString(ref.value());
      for (Engine* engine : {pair.raw, pair.compressed}) {
        for (Scheduler* pool : TestPools()) {
          QueryOptions opts;
          opts.scheduler = pool;
          auto got = engine->Query(sql, opts);
          ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << sql;
          EXPECT_EQ(want, ResultToString(got.value()))
              << "compressed=" << (engine == pair.compressed)
              << " pool=" << pool->parallelism() << "\n"
              << sql;
        }
      }
    }
  }

  std::string RandomInList(Rng* rng, size_t max_items) {
    std::vector<std::string> vals =
        lakegen::SampleColumnQuery(lake_, 1 + rng->Uniform(max_items), rng);
    if (vals.empty()) vals.push_back("determinism-probe");
    return SqlInList(vals);
  }

  DataLake lake_;
  IndexBundle row_bundle_, col_bundle_;
  IndexBundle row_c_bundle_, col_c_bundle_;
  size_t row_c_file_bytes_ = 0, col_c_file_bytes_ = 0;
  std::unique_ptr<Engine> row_engine_, col_engine_;
  std::unique_ptr<Engine> row_c_engine_, col_c_engine_;
};

TEST_P(EngineDeterminismTest, ScShape) {
  Rng rng(GetParam() * 31 + 1);
  for (int i = 0; i < 4; ++i) {
    ExpectDeterministic(
        "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
        "FROM AllTables WHERE CellValue IN (" +
        RandomInList(&rng, 40) +
        ") GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 25;");
  }
}

TEST_P(EngineDeterminismTest, ScShapeWithoutOrderByExposesGroupOrder) {
  // No ORDER BY: the raw group order (first-appearance order) is the output
  // order, so this shape catches any scheduling-dependent ordering directly.
  Rng rng(GetParam() * 37 + 2);
  ExpectDeterministic(
      "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
      "FROM AllTables WHERE CellValue IN (" +
      RandomInList(&rng, 30) + ") GROUP BY TableId, ColumnId;");
}

TEST_P(EngineDeterminismTest, KwShape) {
  Rng rng(GetParam() * 41 + 3);
  for (int i = 0; i < 3; ++i) {
    ExpectDeterministic(
        "SELECT TableId, COUNT(DISTINCT CellValue) AS score FROM AllTables "
        "WHERE CellValue IN (" +
        RandomInList(&rng, 10) +
        ") GROUP BY TableId ORDER BY score DESC LIMIT 10;");
  }
}

TEST_P(EngineDeterminismTest, McJoinShape) {
  Rng rng(GetParam() * 43 + 4);
  for (int i = 0; i < 3; ++i) {
    ExpectDeterministic(
        "SELECT a.TableId, a.RowId, a.SuperKey FROM "
        "(SELECT TableId, RowId, SuperKey FROM AllTables WHERE CellValue IN (" +
        RandomInList(&rng, 25) +
        ")) AS a INNER JOIN (SELECT TableId, RowId FROM AllTables "
        "WHERE CellValue IN (" +
        RandomInList(&rng, 25) + ")) AS b ON a.TableId = b.TableId AND "
        "a.RowId = b.RowId;");
  }
}

TEST_P(EngineDeterminismTest, McJoinShapeExplainsAsGenericHashJoins) {
  // Every relation of the MC phase-1 join reads the CellValue index, so each
  // join step is a HashJoin on every layout and codec.
  Rng rng(GetParam() * 53 + 6);
  const std::string sql =
      "EXPLAIN SELECT a.TableId, a.RowId, a.SuperKey FROM "
      "(SELECT TableId, RowId, SuperKey FROM AllTables WHERE CellValue IN (" +
      RandomInList(&rng, 20) +
      ")) AS a INNER JOIN (SELECT TableId, RowId FROM AllTables "
      "WHERE CellValue IN (" +
      RandomInList(&rng, 20) +
      ")) AS b ON a.TableId = b.TableId AND a.RowId = b.RowId "
      "INNER JOIN (SELECT TableId, RowId FROM AllTables "
      "WHERE CellValue IN (" +
      RandomInList(&rng, 20) + ")) AS c ON a.TableId = c.TableId AND "
      "a.RowId = c.RowId;";
  for (const EnginePair& pair : EnginePairs()) {
    for (Engine* engine : {pair.raw, pair.compressed}) {
      auto plan = engine->Query(sql);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      size_t hash_joins = 0;
      for (const PlanNode& node : plan.value().plan.nodes) {
        hash_joins += node.op == "HashJoin" ? 1 : 0;
        EXPECT_NE(node.op, "LookupJoin");
      }
      EXPECT_EQ(hash_joins, 2u) << plan.value().explain_text;
    }
  }
}

TEST_P(EngineDeterminismTest, McJoinShapeWithLimitAndThreeRelations) {
  // LIMIT cuts the joined row stream mid-way; the three-way join runs a
  // second hash-join step whose build side can be either input.
  Rng rng(GetParam() * 67 + 9);
  ExpectDeterministic(
      "SELECT a.TableId, a.RowId, a.SuperKey FROM "
      "(SELECT TableId, RowId, SuperKey FROM AllTables WHERE CellValue IN (" +
      RandomInList(&rng, 25) +
      ")) AS a INNER JOIN (SELECT TableId, RowId FROM AllTables "
      "WHERE CellValue IN (" +
      RandomInList(&rng, 25) +
      ")) AS b ON a.TableId = b.TableId AND a.RowId = b.RowId LIMIT 100;");
  ExpectDeterministic(
      "SELECT a.TableId, a.RowId, a.SuperKey FROM "
      "(SELECT TableId, RowId, SuperKey FROM AllTables WHERE CellValue IN (" +
      RandomInList(&rng, 20) +
      ")) AS a INNER JOIN (SELECT TableId, RowId FROM AllTables "
      "WHERE CellValue IN (" +
      RandomInList(&rng, 20) +
      ")) AS b ON a.TableId = b.TableId AND a.RowId = b.RowId "
      "INNER JOIN (SELECT TableId, RowId FROM AllTables "
      "WHERE CellValue IN (" +
      RandomInList(&rng, 20) +
      ")) AS c ON a.TableId = c.TableId AND a.RowId = c.RowId;");
}

TEST_P(EngineDeterminismTest, CorrelationShape) {
  Rng rng(GetParam() * 47 + 5);
  std::string keys = RandomInList(&rng, 25);
  ExpectDeterministic(
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
      "ORDER BY score DESC LIMIT 15;");
}

TEST_P(EngineDeterminismTest, FullScanAggregatesWithDoubleSums) {
  // SUM/AVG over a full scan exercises the chunk-merge order of the parallel
  // aggregation (floating-point addition is where nondeterminism would show
  // first); MIN/MAX exercise the first-seen tie rule across chunk merges.
  ExpectDeterministic(
      "SELECT TableId, COUNT(*), SUM(RowId), AVG(RowId * 1.5), "
      "MIN(ColumnId), MAX(RowId) FROM AllTables GROUP BY TableId;");
}

TEST_P(EngineDeterminismTest, QueryControlPreservesByteIdentity) {
  // The control dimension of the determinism matrix: a query that completes
  // under a generous deadline (and memory budget) must be byte-identical to
  // the unconstrained serial run across serving codecs and pools — the
  // cooperative checks may not alter morsel geometry or merge order — and an
  // already-expired deadline must return kDeadlineExceeded, never a partial
  // result. The SC statement runs the scan-fed aggregate and the MC join
  // statement the hash join, so both run under the control here.
  Rng rng(GetParam() * 61 + 8);
  const std::vector<std::string> sqls = {
      "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
      "FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 30) +
          ") GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 25;",
      "SELECT a.TableId, a.RowId, a.SuperKey FROM "
      "(SELECT TableId, RowId, SuperKey FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 20) +
          ")) AS a INNER JOIN (SELECT TableId, RowId FROM AllTables "
          "WHERE CellValue IN (" +
          RandomInList(&rng, 20) +
          ")) AS b ON a.TableId = b.TableId AND a.RowId = b.RowId;",
  };
  for (const std::string& sql : sqls) {
    for (const EnginePair& pair : EnginePairs()) {
      QueryOptions serial;
      serial.scheduler = Scheduler::Serial();
      auto ref = pair.raw->Query(sql, serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
      const std::string want = ResultToString(ref.value());
      for (Engine* engine : {pair.raw, pair.compressed}) {
        for (Scheduler* pool : TestPools()) {
          QueryOptions opts;
          opts.scheduler = pool;

          QueryControl generous =
              QueryControl::WithDeadline(std::chrono::seconds(300));
          generous.SetMemoryBudget(int64_t{1} << 40);
          opts.control = &generous;
          auto got = engine->Query(sql, opts);
          ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << sql;
          EXPECT_EQ(want, ResultToString(got.value()))
              << "compressed=" << (engine == pair.compressed)
              << " pool=" << pool->parallelism();

          const QueryControl expired =
              QueryControl::WithDeadline(std::chrono::nanoseconds(0));
          opts.control = &expired;
          auto dead = engine->Query(sql, opts);
          ASSERT_FALSE(dead.ok());
          EXPECT_EQ(dead.status().code(), StatusCode::kDeadlineExceeded)
              << dead.status().ToString();
        }
      }
    }
  }
}

TEST_P(EngineDeterminismTest, TraceTelemetryPreservesByteIdentity) {
  // The telemetry dimension of the determinism matrix: attaching a QueryTrace
  // must be pure observation — byte-identical results vs the untraced serial
  // reference across serving codecs and pools.
  // Spans record what the executor already decided; morsel geometry, task
  // order, and merge order are untouched. The traced runs must also actually
  // record (non-zero engine queries, at least one stage) when telemetry is
  // compiled in, so this cannot silently degrade into tracing nothing.
  Rng rng(GetParam() * 71 + 10);
  const std::vector<std::string> sqls = {
      "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
      "FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 30) +
          ") GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 25;",
      "SELECT a.TableId, a.RowId, a.SuperKey FROM "
      "(SELECT TableId, RowId, SuperKey FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 20) +
          ")) AS a INNER JOIN (SELECT TableId, RowId FROM AllTables "
          "WHERE CellValue IN (" +
          RandomInList(&rng, 20) +
          ")) AS b ON a.TableId = b.TableId AND a.RowId = b.RowId;",
  };
  for (const std::string& sql : sqls) {
    for (const EnginePair& pair : EnginePairs()) {
      QueryOptions serial;
      serial.scheduler = Scheduler::Serial();
      auto ref = pair.raw->Query(sql, serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
      const std::string want = ResultToString(ref.value());
      for (Engine* engine : {pair.raw, pair.compressed}) {
        for (Scheduler* pool : TestPools()) {
          QueryOptions opts;
          opts.scheduler = pool;

          QueryTrace trace;
          opts.trace = &trace;
          auto traced = engine->Query(sql, opts);
          ASSERT_TRUE(traced.ok()) << traced.status().ToString() << "\n"
                                   << sql;
          EXPECT_EQ(want, ResultToString(traced.value()))
              << "traced run diverged: compressed="
              << (engine == pair.compressed)
              << " pool=" << pool->parallelism() << "\n"
              << sql;

          opts.trace = nullptr;
          auto untraced = engine->Query(sql, opts);
          ASSERT_TRUE(untraced.ok()) << untraced.status().ToString();
          EXPECT_EQ(want, ResultToString(untraced.value()));

          const QueryTraceSummary s = trace.Summary();
          EXPECT_EQ(s.CounterValue(TraceCounter::kEngineQueries), 1);
          EXPECT_FALSE(s.stages.empty());
        }
      }
    }
  }
}

TEST_P(EngineDeterminismTest, ExplainAnalyzePreservesByteIdentity) {
  // The introspection dimension of the determinism matrix: `EXPLAIN ANALYZE
  // <q>` executes the bare statement unchanged, so its rows must be
  // byte-identical to `<q>` across serving codecs and pools — describing and
  // annotating the plan may not perturb morsel geometry, task order, or merge
  // order. Every annotated run must also carry a non-empty plan, the same
  // operators bare EXPLAIN reports, so the dimension cannot silently degrade
  // into explaining nothing.
  Rng rng(GetParam() * 73 + 11);
  const std::vector<std::string> sqls = {
      "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
      "FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 30) +
          ") GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 25;",
      "SELECT a.TableId, a.RowId, a.SuperKey FROM "
      "(SELECT TableId, RowId, SuperKey FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 20) +
          ")) AS a INNER JOIN (SELECT TableId, RowId FROM AllTables "
          "WHERE CellValue IN (" +
          RandomInList(&rng, 20) +
          ")) AS b ON a.TableId = b.TableId AND a.RowId = b.RowId;",
      "SELECT TableId, COUNT(*), SUM(RowId), AVG(RowId * 1.5) FROM AllTables "
      "GROUP BY TableId;",
  };
  for (const std::string& sql : sqls) {
    for (const EnginePair& pair : EnginePairs()) {
      QueryOptions serial;
      serial.scheduler = Scheduler::Serial();
      auto ref = pair.raw->Query(sql, serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
      const std::string want = ResultToString(ref.value());
      for (Engine* engine : {pair.raw, pair.compressed}) {
        for (Scheduler* pool : TestPools()) {
          QueryOptions opts;
          opts.scheduler = pool;
          auto analyzed = engine->Query("EXPLAIN ANALYZE " + sql, opts);
          ASSERT_TRUE(analyzed.ok())
              << analyzed.status().ToString() << "\n" << sql;
          EXPECT_EQ(want, ResultToString(analyzed.value()))
              << "EXPLAIN ANALYZE diverged: compressed="
              << (engine == pair.compressed)
              << " pool=" << pool->parallelism() << "\n"
              << sql;
          EXPECT_FALSE(analyzed.value().plan.nodes.empty()) << sql;
          EXPECT_FALSE(analyzed.value().explain_text.empty()) << sql;

          // Bare EXPLAIN never executes: a plan, no rows.
          auto described = engine->Query("EXPLAIN " + sql, opts);
          ASSERT_TRUE(described.ok())
              << described.status().ToString() << "\n" << sql;
          EXPECT_TRUE(described.value().rows.empty()) << sql;
          ASSERT_EQ(described.value().plan.nodes.size(),
                    analyzed.value().plan.nodes.size())
              << sql;
          for (size_t i = 0; i < described.value().plan.nodes.size(); ++i) {
            EXPECT_EQ(described.value().plan.nodes[i].op,
                      analyzed.value().plan.nodes[i].op)
                << sql;
          }
        }
      }
    }
  }
}

TEST_P(EngineDeterminismTest, ExplainAnalyzeReportsPerNodeActuals) {
  // EXPLAIN ANALYZE reports what each node's own operator did: every Scan its
  // relation's filtered scan count, every HashJoin its step's output, the
  // Project and a SortLimit the rows they emitted, an Aggregate its groups.
  Rng rng(GetParam() * 89 + 14);
  const std::vector<std::string> rels = {
      "SELECT TableId, RowId, SuperKey FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 20) + ")",
      "SELECT TableId, RowId FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 20) + ")",
      "SELECT TableId, RowId FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 20) + ")",
  };
  auto join = [&](const std::string& select, size_t n) {
    std::string sql = select + " FROM (" + rels[0] + ") AS r0";
    for (size_t r = 1; r < n; ++r) {
      const std::string alias = "r" + std::to_string(r);
      sql += " INNER JOIN (" + rels[r] + ") AS " + alias + " ON r0.TableId = " +
             alias + ".TableId AND r0.RowId = " + alias + ".RowId";
    }
    return sql;
  };
  const std::string mc = join("SELECT r0.TableId, r0.RowId, r0.SuperKey", 3);
  const std::string kw =
      "SELECT TableId, COUNT(DISTINCT CellValue) AS score FROM AllTables "
      "WHERE CellValue IN (" +
      RandomInList(&rng, 30) + ") GROUP BY TableId";
  auto count = [](Engine* engine, const std::string& sql) {
    auto res = engine->Query(sql);
    EXPECT_TRUE(res.ok()) << res.status().ToString() << "\n" << sql;
    return res.ok() ? static_cast<int64_t>(res.value().NumRows()) : -1;
  };
  for (const EnginePair& pair : EnginePairs()) {
    for (Engine* engine : {pair.raw, pair.compressed}) {
      std::vector<int64_t> scan_rows, step_rows;
      for (size_t r = 0; r < rels.size(); ++r) {
        scan_rows.push_back(count(engine, rels[r]));
        if (r > 0) step_rows.push_back(count(engine, join("SELECT r0.RowId", r + 1)));
      }
      const int64_t groups = count(engine, kw);
      for (Scheduler* pool : TestPools()) {
        QueryOptions opts;
        opts.scheduler = pool;
        auto analyzed = engine->Query("EXPLAIN ANALYZE " + mc, opts);
        ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
        const QueryResult& res = analyzed.value();
        ASSERT_EQ(static_cast<int64_t>(res.NumRows()), step_rows.back());
        size_t scans = 0, joins = 0;
        for (const PlanNode& node : res.plan.nodes) {
          if (node.op == "Scan") {
            const size_t r = static_cast<size_t>(node.detail[4] - '0');
            ASSERT_LT(r, rels.size()) << node.detail;
            EXPECT_EQ(node.actual_rows, scan_rows[r]) << res.explain_text;
            if (node.planned_tasks > 0) {
              EXPECT_EQ(node.actual_tasks, node.planned_tasks) << res.explain_text;
            }
            ++scans;
          } else if (node.op == "HashJoin") {
            const size_t step = static_cast<size_t>(node.detail[5] - '0');
            ASSERT_GE(step, 1u) << node.detail;
            ASSERT_LE(step, step_rows.size()) << node.detail;
            EXPECT_EQ(node.actual_rows, step_rows[step - 1]) << res.explain_text;
            ++joins;
          } else if (node.op == "Project") {
            EXPECT_EQ(node.actual_rows, static_cast<int64_t>(res.NumRows()))
                << res.explain_text;
          }
        }
        EXPECT_EQ(scans, 3u) << res.explain_text;
        EXPECT_EQ(joins, 2u) << res.explain_text;

        auto agg = engine->Query(
            "EXPLAIN ANALYZE " + kw + " ORDER BY score DESC LIMIT 5", opts);
        ASSERT_TRUE(agg.ok()) << agg.status().ToString();
        const QueryResult& agg_res = agg.value();
        ASSERT_GE(agg_res.plan.nodes.size(), 2u);
        EXPECT_EQ(agg_res.plan.nodes[0].op, "Aggregate");
        EXPECT_EQ(agg_res.plan.nodes[0].actual_rows, groups) << agg_res.explain_text;
        EXPECT_EQ(agg_res.plan.nodes[1].op, "SortLimit");
        EXPECT_EQ(agg_res.plan.nodes[1].actual_rows,
                  static_cast<int64_t>(agg_res.NumRows()))
            << agg_res.explain_text;
        EXPECT_EQ(static_cast<int64_t>(agg_res.NumRows()),
                  std::min<int64_t>(groups, 5));
      }
    }
  }
}

TEST_P(EngineDeterminismTest, ServeCompressedActuallyServesCompressed) {
  // Guard against the dimension silently testing raw-vs-raw files: the
  // twins must come from snapshots smaller than a raw save, and their
  // decoded postings must be their originals', element for element.
  EXPECT_LT(row_c_file_bytes_, SnapshotBytes(row_bundle_));
  EXPECT_LT(col_c_file_bytes_, SnapshotBytes(col_bundle_));
  for (auto [twin, original] :
       {std::pair{&row_c_bundle_.row_store().secondary(),
                  &row_bundle_.row_store().secondary()},
        std::pair{&col_c_bundle_.column_store().secondary(),
                  &col_bundle_.column_store().secondary()}}) {
    EXPECT_TRUE(std::equal(twin->posting_positions.begin(),
                           twin->posting_positions.end(),
                           original->posting_positions.begin(),
                           original->posting_positions.end()));
  }
}

TEST_P(EngineDeterminismTest, NonAggregateProjectionAndTableInScan) {
  ExpectDeterministic(
      "SELECT TableId, ColumnId, RowId FROM AllTables "
      "WHERE TableId IN (0, 3, 7, 11, 19) AND RowId < 40;");
}

TEST_P(EngineDeterminismTest, SnapshotLoadedBundlesReproduceEveryShape) {
  // The persistence dimension of the determinism matrix: for both layouts x
  // shuffle_rows on/off x postings codec, an engine over a ReadSnapshot
  // (heap) or OpenSnapshot (mmap zero-copy) bundle must answer the
  // representative seeker shapes byte-identically to the freshly built
  // bundle — i.e. the decode at open reproduces the built postings exactly.
  Rng rng(GetParam() * 59 + 7);
  const std::vector<std::string> sqls = {
      "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
      "FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 30) +
          ") GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 25;",
      "SELECT a.TableId, a.RowId, a.SuperKey FROM "
      "(SELECT TableId, RowId, SuperKey FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 20) +
          ")) AS a INNER JOIN (SELECT TableId, RowId FROM AllTables "
          "WHERE CellValue IN (" +
          RandomInList(&rng, 20) +
          ")) AS b ON a.TableId = b.TableId AND a.RowId = b.RowId;",
      "SELECT TableId, COUNT(*), SUM(RowId), AVG(RowId * 1.5) FROM AllTables "
      "GROUP BY TableId;",
  };
  for (StoreLayout layout : {StoreLayout::kColumn, StoreLayout::kRow}) {
    for (bool shuffle : {false, true}) {
      for (PostingCodec codec : {PostingCodec::kRaw, PostingCodec::kCompressed}) {
        SCOPED_TRACE("layout=" + std::to_string(static_cast<int>(layout)) +
                     " shuffle=" + std::to_string(shuffle) + " codec=" +
                     PostingCodecName(codec));
        IndexBuildOptions opts;
        opts.layout = layout;
        opts.shuffle_rows = shuffle;
        IndexBundle built = IndexBuilder(opts).Build(lake_);
        const std::string path = ::testing::TempDir() + "blend_determinism_" +
                                 std::to_string(getpid()) + "_" +
                                 std::to_string(GetParam());
        SnapshotOptions snap_opts;
        snap_opts.codec = codec;
        ASSERT_TRUE(WriteSnapshot(built, path, snap_opts).ok());
        auto heap = ReadSnapshot(path);
        ASSERT_TRUE(heap.ok()) << heap.status().ToString();
        auto mapped = OpenSnapshot(path);
        ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

        Engine fresh(&built);
        Engine heap_engine(&heap.value());
        Engine mapped_engine(&mapped.value());
        for (const auto& sql : sqls) {
          auto ref = fresh.Query(sql);
          ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
          const std::string want = ResultToString(ref.value());
          for (Engine* loaded : {&heap_engine, &mapped_engine}) {
            auto got = loaded->Query(sql);
            ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << sql;
            EXPECT_EQ(want, ResultToString(got.value())) << sql;
          }
        }
        std::remove(path.c_str());
      }
    }
  }
}

TEST_P(EngineDeterminismTest, ConcurrentClientsShareOnePool) {
  // The serving dimension of the determinism matrix: 8 client threads issue
  // a mixed query workload against one shared engine and pool, every query
  // morsel-parallel itself (nested submission). Every client must observe
  // exactly the serial result.
  Rng rng(GetParam() * 53 + 6);
  std::vector<std::string> sqls;
  for (int i = 0; i < 3; ++i) {
    sqls.push_back(
        "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
        "FROM AllTables WHERE CellValue IN (" +
        RandomInList(&rng, 30) +
        ") GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 25;");
  }
  sqls.push_back(
      "SELECT TableId, COUNT(*), SUM(RowId), AVG(RowId * 1.5) FROM AllTables "
      "GROUP BY TableId;");
  for (Engine* engine : {row_engine_.get(), col_engine_.get()}) {
    QueryOptions serial;
    serial.scheduler = Scheduler::Serial();
    std::vector<std::string> want;
    for (const auto& sql : sqls) {
      auto ref = engine->Query(sql, serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
      want.push_back(ResultToString(ref.value()));
    }
    constexpr int kClients = 8;
    std::vector<std::vector<std::string>> got(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (const auto& sql : sqls) {
          auto res = engine->Query(sql);  // engine pool (default options)
          got[c].push_back(res.ok() ? ResultToString(res.value())
                                    : "ERROR: " + res.status().ToString());
        }
      });
    }
    for (auto& t : clients) t.join();
    for (int c = 0; c < kClients; ++c) {
      for (size_t q = 0; q < sqls.size(); ++q) {
        EXPECT_EQ(want[q], got[c][q]) << "client=" << c << "\n" << sqls[q];
      }
    }
  }
}

TEST_P(EngineDeterminismTest, LookupJoinEmitsExactlyWhatHashJoinEmits) {
  // A join step keyed on TableId = TableId and RowId = RowId whose relation
  // is on the clustered TableId index, the Quadrant partial index or a full
  // scan runs as a lookup join. Writing the RowId key as `RowId + 0 = RowId`
  // turns it into an ON residual, so the same statement runs HashJoinStep;
  // both must emit the same rows in the same order (no GROUP BY or ORDER BY
  // to hide the join's emission order), for both orientations, every
  // eligible access path, a lookup as the second step of three, and LIMIT.
  Rng rng(GetParam() * 79 + 12);
  struct Case {
    std::string prefix;  // relation a's WHERE
    std::string right;   // relation b's WHERE
    bool right_larger;   // filtered right side larger than the prefix
    std::string limit;
  };
  // Key values whose rows also hold a numeric cell in another column, so
  // the Quadrant lookups below have matches to emit.
  std::string keys;
  for (int attempt = 0; attempt < 50; ++attempt) {
    keys = RandomInList(&rng, 25);
    auto n = row_engine_->Query(
        "SELECT COUNT(*) FROM (SELECT TableId, RowId, ColumnId FROM AllTables "
        "WHERE RowId < 64 AND CellValue IN (" +
        keys +
        ")) AS a INNER JOIN (SELECT TableId, RowId, ColumnId FROM AllTables "
        "WHERE Quadrant IS NOT NULL) AS b ON a.TableId = b.TableId AND "
        "a.RowId = b.RowId AND a.ColumnId <> b.ColumnId;");
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    if (n.value().Int(0, 0) > 0) break;
  }
  const std::vector<Case> cases = {
      {"RowId < 64 AND CellValue IN (" + keys + ")",
       "RowId < 64 AND Quadrant IS NOT NULL", true, ""},
      {"RowId < 64 AND CellValue IN (" + keys + ")",
       "RowId < 64 AND Quadrant IS NOT NULL", true, " LIMIT 50"},
      {"RowId < 30", "TableId IN (0, 3, 7, 11) AND Quadrant IS NOT NULL", false,
       ""},
      {"CellValue IN (" + keys + ")", "TableId IN (1, 2, 4, 8, 16, 32)", true,
       ""},
      {"RowId < 30", "ColumnId = 1 AND RowId < 6", false, ""},
      {"CellValue IN (" + keys + ")", "ColumnId <> 0", true, " LIMIT 7"},
  };
  auto two_way = [](const Case& c, const std::string& row_key) {
    return "SELECT a.TableId, a.RowId, a.ColumnId, b.ColumnId, b.Quadrant FROM "
           "(SELECT TableId, RowId, ColumnId FROM AllTables WHERE " +
           c.prefix +
           ") AS a INNER JOIN (SELECT TableId, RowId, ColumnId, Quadrant FROM "
           "AllTables WHERE " +
           c.right + ") AS b ON a.TableId = b.TableId AND " + row_key +
           " = b.RowId AND a.ColumnId <> b.ColumnId" + c.limit + ";";
  };
  std::vector<std::pair<std::string, std::string>> sqls;  // lookup, reference
  for (const Case& c : cases) {
    sqls.emplace_back(two_way(c, "a.RowId"), two_way(c, "a.RowId + 0"));
  }
  // Three relations: step 1 joins two CellValue relations (a hash join; the
  // `<=` keeps every record's match with itself, so the prefix is never
  // empty), step 2 looks the Quadrant relation up.
  auto three_way = [&](const std::string& row_key) {
    return "SELECT a.TableId, a.RowId, b.ColumnId, c.ColumnId, c.Quadrant FROM "
           "(SELECT TableId, RowId, ColumnId FROM AllTables WHERE CellValue IN (" +
           keys +
           ")) AS a INNER JOIN (SELECT TableId, RowId, ColumnId FROM AllTables "
           "WHERE CellValue IN (" +
           keys +
           ")) AS b ON a.TableId = b.TableId AND a.RowId = b.RowId AND "
           "a.ColumnId <= b.ColumnId "
           "INNER JOIN (SELECT TableId, RowId, ColumnId, Quadrant FROM AllTables "
           "WHERE Quadrant IS NOT NULL) AS c ON b.TableId = c.TableId AND " +
           row_key + " = c.RowId;";
  };
  sqls.emplace_back(three_way("a.RowId"), three_way("a.RowId + 0"));

  // Every (layout, serving codec, shuffle_rows) build of the lake.
  std::vector<std::unique_ptr<IndexBundle>> shuffled;
  std::vector<Engine*> engines = {row_engine_.get(), col_engine_.get(),
                                  row_c_engine_.get(), col_c_engine_.get()};
  std::vector<std::unique_ptr<Engine>> shuffled_engines;
  for (StoreLayout layout : {StoreLayout::kRow, StoreLayout::kColumn}) {
    for (bool compressed : {false, true}) {
      IndexBuildOptions opts;
      opts.layout = layout;
      opts.shuffle_rows = true;
      IndexBundle bundle = IndexBuilder(opts).Build(lake_);
      if (compressed) bundle = CompressedTwin(bundle);
      shuffled.push_back(std::make_unique<IndexBundle>(std::move(bundle)));
      shuffled_engines.push_back(std::make_unique<Engine>(shuffled.back().get()));
      engines.push_back(shuffled_engines.back().get());
    }
  }

  // The cases cover both orientations (HashJoinStep probes with the prefix
  // iff the filtered right side is at most the prefix).
  auto count = [&](const std::string& where) {
    auto r = row_engine_->Query("SELECT COUNT(*) FROM AllTables WHERE " + where);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value().Int(0, 0) : 0;
  };
  for (const Case& c : cases) {
    EXPECT_EQ(count(c.right) > count(c.prefix), c.right_larger)
        << c.prefix << " | " << c.right;
  }

  for (const auto& [sql, reference] : sqls) {
    auto plan = row_engine_->Query("EXPLAIN " + sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan.value().explain_text.find("LookupJoin"), std::string::npos)
        << sql;
    auto ref_plan = row_engine_->Query("EXPLAIN " + reference);
    ASSERT_TRUE(ref_plan.ok()) << ref_plan.status().ToString();
    EXPECT_EQ(ref_plan.value().explain_text.find("LookupJoin"), std::string::npos)
        << reference;
    for (Engine* engine : engines) {
      for (Scheduler* pool : TestPools()) {
        QueryOptions opts;
        opts.scheduler = pool;
        auto want = engine->Query(reference, opts);
        ASSERT_TRUE(want.ok()) << want.status().ToString() << "\n" << reference;
        auto got = engine->Query(sql, opts);
        ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << sql;
        EXPECT_FALSE(want.value().rows.empty()) << reference;
        EXPECT_EQ(ResultToString(want.value()), ResultToString(got.value()))
            << "pool=" << pool->parallelism() << "\n"
            << sql;
      }
    }
  }
}

TEST_P(EngineDeterminismTest, ScanFedAggregateEmitsExactlyWhatRowStreamAggregateEmits) {
  // An aggregate over one relation with no residual WHERE and no SUM/AVG
  // reads the scan morsels in place and counts COUNT(DISTINCT CellValue) per
  // posting list. Reading the same relation through a subquery with an
  // always-true outer WHERE makes the same statement aggregate the
  // materialized row stream, which counts distinct cell ids instead; both
  // must emit the same rows in the same order. Two added tables hold a "hot"
  // value whose posting list spans several scan morsels, so a list reaches
  // a group from more than one morsel (long_a's column 0 from morsels that
  // are not adjacent) and must still count once. Grouping every row by
  // (TableId, RowId) makes enough groups for the partitioned parallel merge.
  DataLake lake = lake_;
  Table long_a("long_a");
  Table long_b("long_b");
  for (Table* t : {&long_a, &long_b}) {
    for (const char* c : {"c0", "c1", "c2"}) t->AddColumn(c);
  }
  for (int r = 0; r < 20000; ++r) {
    const bool hot0 = r < 100 || r >= 17000;
    ASSERT_TRUE(long_a
                    .AppendRow({hot0 ? "hot" : "a" + std::to_string(r),
                                hot0 ? "b" + std::to_string(r) : "hot",
                                "v" + std::to_string(r % 7)})
                    .ok());
  }
  for (int r = 0; r < 12000; ++r) {
    ASSERT_TRUE(long_b
                    .AppendRow({r % 2 == 0 ? "hot" : "x" + std::to_string(r),
                                "v" + std::to_string(r % 5), "w" + std::to_string(r)})
                    .ok());
  }
  const TableId a = lake.AddTable(std::move(long_a));
  const TableId b = lake.AddTable(std::move(long_b));

  std::vector<std::unique_ptr<IndexBundle>> bundles;
  std::vector<std::unique_ptr<Engine>> engines;
  for (StoreLayout layout : {StoreLayout::kRow, StoreLayout::kColumn}) {
    for (bool compressed : {false, true}) {
      IndexBuildOptions opts;
      opts.layout = layout;
      IndexBundle bundle = IndexBuilder(opts).Build(lake);
      if (compressed) bundle = CompressedTwin(bundle);
      bundles.push_back(std::make_unique<IndexBundle>(std::move(bundle)));
      engines.push_back(std::make_unique<Engine>(bundles.back().get()));
    }
  }

  Rng rng(GetParam() * 83 + 13);
  const std::string values =
      SqlInList({"hot", "v1", "v4", "w7"}) + ", " + RandomInList(&rng, 20);
  const std::string tables = std::to_string(a) + ", " + std::to_string(b) + ", 1, 4";
  struct Case {
    std::string select;  // SELECT list
    std::string where;   // the relation's WHERE
    std::string tail;    // GROUP BY, ORDER BY, LIMIT
    int dedup_column;    // QueryOptions::dedup_column (top 5 when >= 0)
  };
  const std::string sc = "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score";
  const std::string kw = "SELECT TableId, COUNT(DISTINCT CellValue) AS score";
  const std::string in = "CellValue IN (" + values + ")";
  const std::vector<Case> cases = {
      {sc, in, " GROUP BY TableId, ColumnId", -1},
      {sc, in, " GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 25", -1},
      {sc, in, " GROUP BY TableId, ColumnId ORDER BY score DESC", 0},
      {sc, in + " AND TableId IN (" + tables + ")", " GROUP BY TableId, ColumnId", -1},
      {sc, in + " AND TableId NOT IN (" + tables + ")",
       " GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 10", -1},
      {sc, in + " AND RowId < 15000", " GROUP BY TableId, ColumnId", -1},
      {kw, in, " GROUP BY TableId ORDER BY score DESC LIMIT 10", -1},
      {kw, in + " AND TableId NOT IN (" + tables + ") AND RowId < 9000",
       " GROUP BY TableId", -1},
      {"SELECT TableId, RowId, COUNT(*) AS n, MIN(ColumnId) AS c", "RowId >= 0",
       " GROUP BY TableId, RowId", -1},
  };
  for (const Case& c : cases) {
    const std::string scan_fed = c.select + " FROM AllTables WHERE " + c.where + c.tail;
    const std::string row_stream =
        c.select +
        " FROM (SELECT TableId, ColumnId, RowId, CellValue FROM AllTables WHERE " +
        c.where + ") AS s WHERE TableId >= 0" + c.tail;
    const bool counts_cells = c.select.find("COUNT(DISTINCT") != std::string::npos;
    for (const auto& engine : engines) {
      auto fed_plan = engine->Query("EXPLAIN " + scan_fed);
      ASSERT_TRUE(fed_plan.ok()) << fed_plan.status().ToString();
      const PlanNode& fed_root = fed_plan.value().plan.nodes[0];
      EXPECT_EQ(fed_root.op, "Aggregate");
      EXPECT_NE(fed_root.detail.find("input: scan morsels"), std::string::npos)
          << fed_plan.value().explain_text;
      EXPECT_EQ(fed_root.detail.find("per posting list") != std::string::npos,
                counts_cells)
          << fed_plan.value().explain_text;
      if (c.where == in) {
        EXPECT_GE(fed_root.planned_tasks, 4) << fed_plan.value().explain_text;
      }
      auto row_plan = engine->Query("EXPLAIN " + row_stream);
      ASSERT_TRUE(row_plan.ok()) << row_plan.status().ToString();
      EXPECT_NE(row_plan.value().plan.nodes[0].detail.find("input: row stream"),
                std::string::npos)
          << row_plan.value().explain_text;

      for (Scheduler* pool : TestPools()) {
        QueryOptions opts;
        opts.scheduler = pool;
        opts.dedup_column = c.dedup_column;
        opts.dedup_limit = c.dedup_column >= 0 ? 5 : -1;
        auto want = engine->Query(row_stream, opts);
        ASSERT_TRUE(want.ok()) << want.status().ToString() << "\n" << row_stream;
        QueryTrace trace;
        opts.trace = &trace;
        auto got = engine->Query(scan_fed, opts);
        ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << scan_fed;
        EXPECT_FALSE(want.value().rows.empty()) << row_stream;
        if (!counts_cells) {
          // More groups than kAggChunkRows: the 16-partition merge ran.
          int64_t merge_tasks = 0;
          for (const StageSummary& st : trace.Summary().stages) {
            if (st.stage == TraceStage::kAggregationMerge) merge_tasks = st.tasks;
          }
          EXPECT_EQ(merge_tasks, 16) << scan_fed;
        }
        EXPECT_EQ(ResultToString(want.value()), ResultToString(got.value()))
            << "pool=" << pool->parallelism() << "\n"
            << scan_fed;
      }
    }
  }
}

TEST_P(EngineDeterminismTest, SortLimitKeepsScoreThenTableThenColumnOrder) {
  // SortLimit must keep exactly the rows of the full order: score
  // descending, ties by TableId and then ColumnId, and under dedup the first
  // row per table. The lake crowds the boundary: 40 tables whose columns
  // hold 3 to 5 of 12 query values (random subsets, so first appearance does
  // not follow TableId), every fourth table with two columns of equal score,
  // and a table whose one query value repeats over several posting blocks.
  // The expected rows follow from how the lake was built, not from the
  // engine.
  Rng rng(GetParam() * 97 + 19);
  std::vector<std::string> values;
  for (int v = 0; v < 12; ++v) values.push_back("tie" + std::to_string(v));
  auto pick = [&](size_t n) {  // n distinct query values in random order
    std::vector<std::string> pool = values, out;
    while (out.size() < n) {
      const size_t i = rng.Uniform(pool.size());
      out.push_back(pool[i]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
    }
    return out;
  };
  struct Group {
    int64_t table, column, score;
  };
  std::vector<Group> groups;
  DataLake lake;
  for (int t = 0; t < 40; ++t) {
    Table table("tie_" + std::to_string(t));
    table.AddColumn("c0");
    table.AddColumn("c1");
    const size_t s0 = 3 + rng.Uniform(3);
    const size_t s1 = t % 4 == 0 ? s0 : rng.Uniform(6);
    std::vector<std::string> cols[2] = {pick(s0), pick(s1)};
    cols[0].push_back(cols[0][0]);  // a repeated value counts once
    const size_t num_rows = std::max(cols[0].size(), cols[1].size()) + 1;
    for (size_t r = 0; r < num_rows; ++r) {
      std::vector<std::string> row;
      for (int c = 0; c < 2; ++c) {
        const std::string pad = "pad" + std::to_string(t) + "_" + std::to_string(c) +
                                "_" + std::to_string(r);
        row.push_back(r < cols[c].size() ? cols[c][r] : pad);
      }
      ASSERT_TRUE(table.AppendRow(row).ok());
    }
    const TableId id = lake.AddTable(std::move(table));
    groups.push_back({id, 0, static_cast<int64_t>(s0)});
    if (s1 > 0) groups.push_back({id, 1, static_cast<int64_t>(s1)});
  }
  Table long_table("tie_long");
  long_table.AddColumn("c0");
  long_table.AddColumn("c1");
  for (int r = 0; r < 300; ++r) {
    ASSERT_TRUE(long_table.AppendRow({values[0], "long" + std::to_string(r)}).ok());
  }
  groups.push_back({lake.AddTable(std::move(long_table)), 0, 1});
  std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.table != b.table ? a.table < b.table : a.column < b.column;
  });

  std::vector<std::unique_ptr<IndexBundle>> bundles;
  std::vector<std::unique_ptr<Engine>> engines;
  for (StoreLayout layout : {StoreLayout::kRow, StoreLayout::kColumn}) {
    for (bool compressed : {false, true}) {
      IndexBuildOptions opts;
      opts.layout = layout;
      IndexBundle bundle = IndexBuilder(opts).Build(lake);
      if (compressed) bundle = CompressedTwin(bundle);
      bundles.push_back(std::make_unique<IndexBundle>(std::move(bundle)));
      engines.push_back(std::make_unique<Engine>(bundles.back().get()));
    }
  }
  const std::string sql =
      "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score FROM AllTables "
      "WHERE CellValue IN (" +
      SqlInList(values) + ") GROUP BY TableId, ColumnId ORDER BY score DESC";
  for (int dedup_limit : {-2, 1, 5, -1}) {  // -2: no dedup; -1: unlimited
    for (int limit : {-1, 3}) {
      std::vector<Group> want;
      std::set<int64_t> tables;
      for (const Group& g : groups) {
        if (limit >= 0 && want.size() == static_cast<size_t>(limit)) break;
        if (dedup_limit >= 0 && tables.size() == static_cast<size_t>(dedup_limit)) {
          break;
        }
        if (dedup_limit != -2 && !tables.insert(g.table).second) continue;
        want.push_back(g);
      }
      const std::string stmt =
          sql + (limit >= 0 ? " LIMIT " + std::to_string(limit) : "") + ";";
      for (const auto& engine : engines) {
        for (Scheduler* pool : TestPools()) {
          QueryOptions opts;
          opts.scheduler = pool;
          opts.dedup_column = dedup_limit == -2 ? -1 : 0;
          opts.dedup_limit = dedup_limit == -2 ? -1 : dedup_limit;
          auto got = engine->Query(stmt, opts);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          const auto& rows = got.value().rows;
          ASSERT_EQ(rows.size(), want.size())
              << "dedup_limit=" << dedup_limit << " limit=" << limit;
          for (size_t r = 0; r < rows.size(); ++r) {
            EXPECT_EQ(rows[r][0].i, want[r].table) << "row " << r;
            EXPECT_EQ(rows[r][1].i, want[r].column) << "row " << r;
            EXPECT_EQ(rows[r][2].i, want[r].score) << "row " << r;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDeterminismTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace blend::sql
