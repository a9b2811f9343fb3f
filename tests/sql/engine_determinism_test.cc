#include <gtest/gtest.h>

#include <chrono>
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

/// Property suite for the engine's determinism contract: for representative
/// seeker-shaped SQL, Query over a pool of N threads must return rows
/// byte-identical (values *and* order) to the serial run, for N in
/// {2, 4, hardware}, on both physical layouts, with the fused fast paths on
/// or off, with the galloping join on or off (join shapes), and when the
/// bundle serves block-compressed postings in memory instead of raw ones.
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
    IndexBuildOptions row_copts = row_opts;
    row_copts.serve_compressed = true;
    row_c_bundle_ = IndexBuilder(row_copts).Build(lake_);
    IndexBuildOptions col_copts;
    col_copts.serve_compressed = true;
    col_c_bundle_ = IndexBuilder(col_copts).Build(lake_);
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

  /// Per-layout engine pair: the same physical record order served raw and
  /// block-compressed, so one serial raw run is the reference for both.
  struct EnginePair {
    Engine* raw;
    Engine* compressed;
  };
  std::vector<EnginePair> EnginePairs() {
    return {{row_engine_.get(), row_c_engine_.get()},
            {col_engine_.get(), col_c_engine_.get()}};
  }

  /// Runs `sql` serially on the raw-served engine as the reference, then
  /// asserts every (serving codec, pool, fused, galloping) combination
  /// reproduces it exactly on both layouts. The galloping dimension is only
  /// swept for join statements — it cannot engage anywhere else.
  void ExpectDeterministic(const std::string& sql) {
    const bool has_join = sql.find("JOIN") != std::string::npos;
    const std::vector<bool> gallop_dims =
        has_join ? std::vector<bool>{true, false} : std::vector<bool>{true};
    for (const EnginePair& pair : EnginePairs()) {
      QueryOptions serial;
      serial.scheduler = Scheduler::Serial();
      auto ref = pair.raw->Query(sql, serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
      const std::string want = ResultToString(ref.value());
      for (Engine* engine : {pair.raw, pair.compressed}) {
        for (Scheduler* pool : TestPools()) {
          for (bool fused : {true, false}) {
            for (bool gallop : gallop_dims) {
              QueryOptions opts;
              opts.scheduler = pool;
              opts.enable_fused_scan_agg = fused;
              opts.enable_galloping_join = gallop;
              auto got = engine->Query(sql, opts);
              ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << sql;
              EXPECT_EQ(want, ResultToString(got.value()))
                  << "compressed=" << (engine == pair.compressed)
                  << " pool=" << pool->parallelism() << " fused=" << fused
                  << " gallop=" << gallop << "\n"
                  << sql;
            }
          }
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

TEST_P(EngineDeterminismTest, McJoinShapeWithLimitAndThreeRelations) {
  // LIMIT exercises the galloping join's run-capped emission; the three-way
  // join exercises its later leapfrog steps (keys-vs-cursors) and both
  // orientations of the step replay.
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
  // the unconstrained serial run across serving codecs, pools, and fused /
  // galloping settings — the cooperative checks may not alter morsel
  // geometry or merge order — and an already-expired deadline must return
  // kDeadlineExceeded, never a partial result. The MC join statement routes
  // through the galloping intersection when it is enabled, so both the fused
  // and the compressed-domain operators run under the control here.
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
          for (bool fused : {true, false}) {
            QueryOptions opts;
            opts.scheduler = pool;
            opts.enable_fused_scan_agg = fused;

            QueryControl generous =
                QueryControl::WithDeadline(std::chrono::seconds(300));
            generous.SetMemoryBudget(int64_t{1} << 40);
            opts.control = &generous;
            auto got = engine->Query(sql, opts);
            ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << sql;
            EXPECT_EQ(want, ResultToString(got.value()))
                << "compressed=" << (engine == pair.compressed)
                << " pool=" << pool->parallelism() << " fused=" << fused;

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
}

TEST_P(EngineDeterminismTest, TraceTelemetryPreservesByteIdentity) {
  // The telemetry dimension of the determinism matrix: attaching a QueryTrace
  // must be pure observation — byte-identical results vs the untraced serial
  // reference across serving codecs, pools, and fused / galloping settings.
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
    const bool has_join = sql.find("JOIN") != std::string::npos;
    const std::vector<bool> gallop_dims =
        has_join ? std::vector<bool>{true, false} : std::vector<bool>{true};
    for (const EnginePair& pair : EnginePairs()) {
      QueryOptions serial;
      serial.scheduler = Scheduler::Serial();
      auto ref = pair.raw->Query(sql, serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
      const std::string want = ResultToString(ref.value());
      for (Engine* engine : {pair.raw, pair.compressed}) {
        for (Scheduler* pool : TestPools()) {
          for (bool fused : {true, false}) {
            for (bool gallop : gallop_dims) {
              QueryOptions opts;
              opts.scheduler = pool;
              opts.enable_fused_scan_agg = fused;
              opts.enable_galloping_join = gallop;

              QueryTrace trace;
              opts.trace = &trace;
              auto traced = engine->Query(sql, opts);
              ASSERT_TRUE(traced.ok()) << traced.status().ToString() << "\n"
                                       << sql;
              EXPECT_EQ(want, ResultToString(traced.value()))
                  << "traced run diverged: compressed="
                  << (engine == pair.compressed)
                  << " pool=" << pool->parallelism() << " fused=" << fused
                  << " gallop=" << gallop << "\n"
                  << sql;

              opts.trace = nullptr;
              auto untraced = engine->Query(sql, opts);
              ASSERT_TRUE(untraced.ok()) << untraced.status().ToString();
              EXPECT_EQ(want, ResultToString(untraced.value()));

              if constexpr (kTelemetryEnabled) {
                const QueryTraceSummary s = trace.Summary();
                EXPECT_EQ(s.CounterValue(TraceCounter::kEngineQueries), 1);
                EXPECT_FALSE(s.stages.empty());
              }
            }
          }
        }
      }
    }
  }
}

TEST_P(EngineDeterminismTest, ExplainAnalyzePreservesByteIdentity) {
  // The introspection dimension of the determinism matrix: `EXPLAIN ANALYZE
  // <q>` executes the bare statement unchanged, so its rows must be
  // byte-identical to `<q>` across serving codecs, pools, and fused /
  // galloping settings — describing and annotating the plan may not perturb
  // morsel geometry, task order, or merge order. Every annotated run must
  // also carry a non-empty plan (pipeline named, at least one node), so the
  // dimension cannot silently degrade into explaining nothing.
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
    const bool has_join = sql.find("JOIN") != std::string::npos;
    const std::vector<bool> gallop_dims =
        has_join ? std::vector<bool>{true, false} : std::vector<bool>{true};
    for (const EnginePair& pair : EnginePairs()) {
      QueryOptions serial;
      serial.scheduler = Scheduler::Serial();
      auto ref = pair.raw->Query(sql, serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
      const std::string want = ResultToString(ref.value());
      for (Engine* engine : {pair.raw, pair.compressed}) {
        for (Scheduler* pool : TestPools()) {
          for (bool fused : {true, false}) {
            for (bool gallop : gallop_dims) {
              QueryOptions opts;
              opts.scheduler = pool;
              opts.enable_fused_scan_agg = fused;
              opts.enable_galloping_join = gallop;
              auto analyzed = engine->Query("EXPLAIN ANALYZE " + sql, opts);
              ASSERT_TRUE(analyzed.ok())
                  << analyzed.status().ToString() << "\n" << sql;
              EXPECT_EQ(want, ResultToString(analyzed.value()))
                  << "EXPLAIN ANALYZE diverged: compressed="
                  << (engine == pair.compressed)
                  << " pool=" << pool->parallelism() << " fused=" << fused
                  << " gallop=" << gallop << "\n"
                  << sql;
              EXPECT_FALSE(analyzed.value().plan.nodes.empty()) << sql;
              EXPECT_FALSE(analyzed.value().plan.pipeline.empty()) << sql;
              EXPECT_FALSE(analyzed.value().explain_text.empty()) << sql;

              // Bare EXPLAIN never executes: a plan, no rows.
              auto described = engine->Query("EXPLAIN " + sql, opts);
              ASSERT_TRUE(described.ok())
                  << described.status().ToString() << "\n" << sql;
              EXPECT_TRUE(described.value().rows.empty()) << sql;
              EXPECT_EQ(described.value().plan.pipeline,
                        analyzed.value().plan.pipeline)
                  << sql;
            }
          }
        }
      }
    }
  }
}

TEST_P(EngineDeterminismTest, ServeCompressedActuallyServesCompressed) {
  // Guard against the dimension silently testing raw-vs-raw: the
  // serve_compressed builds must hold block-compressed postings and a
  // smaller resident index than their raw twins.
  EXPECT_EQ(row_c_bundle_.row_store().secondary().codec,
            PostingCodec::kCompressed);
  EXPECT_EQ(col_c_bundle_.column_store().secondary().codec,
            PostingCodec::kCompressed);
  EXPECT_EQ(row_bundle_.row_store().secondary().codec, PostingCodec::kRaw);
  EXPECT_LT(row_c_bundle_.ApproxBytes(), row_bundle_.ApproxBytes());
  EXPECT_LT(col_c_bundle_.ApproxBytes(), col_bundle_.ApproxBytes());
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
  // bundle — i.e. the compressed cursor path reproduces the raw span path
  // exactly.
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
            for (bool fused : {true, false}) {
              QueryOptions qo;
              qo.enable_fused_scan_agg = fused;
              auto got = loaded->Query(sql, qo);
              ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << sql;
              EXPECT_EQ(want, ResultToString(got.value()))
                  << "fused=" << fused << "\n" << sql;
            }
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
      opts.serve_compressed = compressed;
      shuffled.push_back(
          std::make_unique<IndexBundle>(IndexBuilder(opts).Build(lake_)));
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

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDeterminismTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace blend::sql
