// Online query engine: seeker-shape QPS, serial vs morsel-parallel (shared
// work-stealing pool), and a concurrent-QPS serving mode (M client threads
// replaying a mixed seeker workload against one shared engine + pool). The
// SC/KW shape is the hot path of every figure/table bench (union search
// alone fans out one SC query per query-table column), so this harness
// tracks the single biggest wall-clock lever in the repo — and doubles as a
// regression gate that parallelism never changes a result.
//
// `--smoke` runs a 1-iteration pass on a small lake (wired into CI so the
// parallel and serving paths are exercised on every PR); the summaries and
// the BENCH_query.json / BENCH_serving.json lines are emitted either way.
// `--deadline-ms=N` attaches a per-query QueryControl deadline to every
// serving-mode query: timed-out queries must return kDeadlineExceeded (never
// a partial result), are counted, and are reported as "deadline_hits" in
// BENCH_serving.json instead of failing the byte-identity gate.
// `--serving` runs only the concurrent-serving section. Serving latency
// percentiles (p50/p95/p99 in BENCH_serving.json) are derived from the
// metrics registry's `blend_sql_query_seconds` histogram, not from a
// bench-private sample sort, so the bench exercises and validates the
// telemetry path it reports from.
// The serving section also replays the mix with a per-query trace attached
// and summarized, and reports the overhead vs the plain replay; `--smoke`
// enforces the <= 2% overhead budget.
// `--trace-out=FILE` additionally exports one serving query's morsel-task
// timeline as validated Chrome trace-event JSON (Perfetto loadable).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/control.h"
#include "common/scheduler.h"
#include "common/str_util.h"
#include "common/table_printer.h"
#include "common/telemetry.h"
#include "index/builder.h"
#include "sql/engine.h"

using namespace blend;

namespace {

IndexBundle* g_col_bundle = nullptr;
IndexBundle* g_row_bundle = nullptr;
std::vector<std::string>* g_sc_values = nullptr;

/// Work-stealing pool for a given parallelism (1 = serial); pools persist
/// for the whole run so per-query numbers never include pool spin-up.
Scheduler* PoolFor(int threads) {
  static Scheduler pool2(2);
  static Scheduler pool4(4);
  switch (threads) {
    case 1: return Scheduler::Serial();
    case 2: return &pool2;
    case 4: return &pool4;
    default: return Scheduler::Default();
  }
}

std::string ScSql(const std::vector<std::string>& values, int limit) {
  return "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
         "FROM AllTables WHERE CellValue IN (" +
         SqlInList(values) + ") GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT " +
         std::to_string(limit) + ";";
}

std::string KwSql(const std::vector<std::string>& values, int limit) {
  return "SELECT TableId, COUNT(DISTINCT CellValue) AS score "
         "FROM AllTables WHERE CellValue IN (" +
         SqlInList(values) + ") GROUP BY TableId ORDER BY score DESC LIMIT " +
         std::to_string(limit) + ";";
}

/// The MC seeker's phase-1 join shape (seeker.cc GenerateSql): posting-backed
/// derived tables joined on (TableId, RowId), run as a generic-pipeline hash
/// join.
std::string McJoinSql(const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
  return "SELECT T0.TableId AS TableId, T0.RowId AS RowId, T0.SuperKey AS "
         "SuperKey FROM (SELECT TableId, RowId, SuperKey FROM AllTables "
         "WHERE CellValue IN (" +
         SqlInList(a) +
         ")) AS T0 INNER JOIN (SELECT TableId, RowId FROM AllTables WHERE "
         "CellValue IN (" +
         SqlInList(b) +
         ")) AS T1 ON T0.TableId = T1.TableId AND T0.RowId = T1.RowId;";
}

/// Bytes of the posting payload actually resident for the store's codec:
/// flat positions for raw, partition offsets + encoded blob for compressed.
/// (CSR offsets are common to both and excluded.)
size_t ResidentPostingBytes(const SecondaryIndexes& s) {
  if (s.codec == PostingCodec::kRaw) {
    return s.posting_positions.size() * sizeof(RecordPos);
  }
  return s.posting_partitions.size() * sizeof(uint64_t) +
         s.posting_blob.size() * sizeof(uint8_t);
}

/// Canonical dump used to assert byte-identity across thread counts.
std::string ResultToString(const sql::QueryResult& r) {
  std::string out;
  for (const auto& c : r.columns) out += c + "|";
  out += "\n";
  for (const auto& row : r.rows) {
    for (const auto& v : row) {
      if (v.is_null()) {
        out += "NULL,";
      } else if (v.kind == sql::SqlValue::Kind::kInt) {
        out += std::to_string(v.i) + ",";
      } else {
        char buf[40];
        snprintf(buf, sizeof(buf), "%.17g,", v.d);
        out += buf;
      }
    }
    out += "\n";
  }
  return out;
}

void BM_ScSeekerShape(benchmark::State& state) {
  const IndexBundle* bundle = state.range(1) ? g_row_bundle : g_col_bundle;
  sql::Engine engine(bundle);
  sql::QueryOptions opts;
  opts.scheduler = PoolFor(static_cast<int>(state.range(0)));
  const std::string sqltext = ScSql(*g_sc_values, 100);
  for (auto _ : state) {
    auto r = engine.Query(sqltext, opts);
    benchmark::DoNotOptimize(r.ValueOrDie().NumRows());
  }
}
BENCHMARK(BM_ScSeekerShape)
    ->ArgsProduct({{1, 2, 4}, {0, 1}})
    ->ArgNames({"threads", "row_layout"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool serving_only = false;
  long deadline_ms = 0;  // 0 = unconstrained serving mode
  std::string trace_out;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--serving") == 0) {
      serving_only = true;
    } else if (std::strncmp(argv[i], "--deadline-ms=", 14) == 0) {
      deadline_ms = std::strtol(argv[i] + 14, nullptr, 10);
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;

  lakegen::JoinLakeSpec spec;
  spec.num_tables = smoke ? 120 : 800;
  spec.seed = 90;
  DataLake lake = lakegen::MakeJoinLake(spec);

  IndexBundle col_bundle = IndexBuilder().Build(lake);
  IndexBuildOptions row_opts;
  row_opts.layout = StoreLayout::kRow;
  IndexBundle row_bundle = IndexBuilder(row_opts).Build(lake);
  g_col_bundle = &col_bundle;
  g_row_bundle = &row_bundle;

  Rng rng(91);
  std::vector<std::string> sc_values =
      bench::SampleDomainQuery(lake, smoke ? 16 : 64, &rng);
  std::vector<std::string> kw_values =
      bench::SampleDomainQuery(lake, smoke ? 8 : 24, &rng);
  g_sc_values = &sc_values;

  if (!smoke && !serving_only) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const int reps = smoke ? 1 : 5;
  std::vector<int> thread_counts = {1, 2, 4};
  if (hw > 4) thread_counts.push_back(static_cast<int>(hw));

  const std::string sc_sql = ScSql(sc_values, 100);
  const std::string kw_sql = KwSql(kw_values, 50);

  double sc_serial_seconds = 0, sc_speedup_2t = 0, sc_speedup_4t = 0;
  double kw_serial_seconds = 0;
  bool identical = true;

  if (!serving_only) {
    TablePrinter tp({"Shape", "Layout", "Threads", "Query", "QPS", "Speedup"});
    for (StoreLayout layout : {StoreLayout::kColumn, StoreLayout::kRow}) {
      const IndexBundle* bundle =
          layout == StoreLayout::kColumn ? &col_bundle : &row_bundle;
      sql::Engine engine(bundle);
      const char* layout_name = layout == StoreLayout::kColumn ? "column" : "row";

      for (const auto& [shape, sqltext] :
           {std::pair<const char*, const std::string*>{"SC", &sc_sql},
            std::pair<const char*, const std::string*>{"KW", &kw_sql}}) {
        std::string reference;
        double serial_seconds = 0;
        for (int threads : thread_counts) {
          sql::QueryOptions opts;
          opts.scheduler = PoolFor(threads);
          auto res = engine.Query(*sqltext, opts);
          if (!res.ok()) {
            std::fprintf(stderr, "query failed: %s\n", res.status().ToString().c_str());
            return 1;
          }
          const std::string dump = ResultToString(res.value());
          if (threads == 1) {
            reference = dump;
          } else if (dump != reference) {
            identical = false;
          }
          double seconds = bench::MeasureSeconds(
              [&] { (void)engine.Query(*sqltext, opts); }, reps);
          if (threads == 1) serial_seconds = seconds;
          tp.AddRow({shape, layout_name, std::to_string(threads),
                     bench::FmtSeconds(seconds),
                     TablePrinter::Fmt(1.0 / seconds, 1),
                     TablePrinter::Fmt(serial_seconds / seconds, 2) + "x"});
          if (layout == StoreLayout::kColumn && std::strcmp(shape, "SC") == 0) {
            if (threads == 1) sc_serial_seconds = seconds;
            if (threads == 2) sc_speedup_2t = serial_seconds / seconds;
            if (threads == 4) sc_speedup_4t = serial_seconds / seconds;
          }
          if (layout == StoreLayout::kColumn && std::strcmp(shape, "KW") == 0 &&
              threads == 1) {
            kw_serial_seconds = seconds;
          }
        }
      }
    }

    std::printf("\n%s",
                tp.Render("Seeker-shape query execution (lake cells: " +
                          std::to_string(lake.TotalCells()) +
                          ", hardware threads: " + std::to_string(hw) + ")")
                    .c_str());
    std::printf("Results are %s across thread counts.\n",
                identical ? "byte-identical" : "DIVERGENT (BUG)");
    std::printf(
        "BENCH_query.json {\"bench\":\"query_engine\",\"smoke\":%s,"
        "\"lake_cells\":%zu,\"hw_threads\":%u,"
        "\"sc_serial_qps\":%.2f,\"sc_speedup_2t\":%.2f,\"sc_speedup_4t\":%.2f,"
        "\"kw_serial_qps\":%.2f,\"identical_across_threads\":%s}\n",
        smoke ? "true" : "false", lake.TotalCells(), hw,
        sc_serial_seconds > 0 ? 1.0 / sc_serial_seconds : 0.0, sc_speedup_2t,
        sc_speedup_4t, kw_serial_seconds > 0 ? 1.0 / kw_serial_seconds : 0.0,
        identical ? "true" : "false");
  }

  // -------------------------------------------------------------------------
  // Concurrent-QPS serving mode: M client threads replay a mixed SC/KW
  // workload against one shared engine and the shared default pool; every
  // client helps drain its own query's morsel tasks. Each client's results
  // are checked byte-identical against the serial reference.
  // -------------------------------------------------------------------------
  bool thresholds_ok = true;
  {
    sql::Engine engine(g_col_bundle);  // engine pool = Scheduler::Default()
    std::vector<std::string> mix;
    Rng mix_rng(417);
    for (int i = 0; i < (smoke ? 4 : 8); ++i) {
      std::vector<std::string> vals =
          bench::SampleDomainQuery(lake, smoke ? 12 : 48, &mix_rng);
      mix.push_back(i % 2 == 0 ? ScSql(vals, 100) : KwSql(vals, 50));
    }
    sql::QueryOptions serial;
    serial.scheduler = Scheduler::Serial();
    std::vector<std::string> reference;
    for (const auto& sqltext : mix) {
      auto res = engine.Query(sqltext, serial);
      if (!res.ok()) {
        std::fprintf(stderr, "serving query failed: %s\n",
                     res.status().ToString().c_str());
        return 1;
      }
      reference.push_back(ResultToString(res.value()));
    }

    const int rounds = smoke ? 1 : 4;
    bool serving_identical = true;
    double qps_1 = 0, qps_4 = 0, qps_hw = 0;
    double p50_ms = 0, p95_ms = 0, p99_ms = 0;
    std::atomic<int64_t> deadline_hits{0};
    std::vector<int> client_counts = {1, 2, 4};
    if (hw > 4) client_counts.push_back(static_cast<int>(hw));
    // Latency percentiles come from the registry histogram the engine itself
    // records into (the production telemetry path), never a bench-private
    // sample sort. Per-client-count stats are interval deltas of the
    // process-wide cumulative series.
    Histogram* latency =
        MetricsRegistry::Global().GetHistogram("blend_sql_query_seconds");
    TablePrinter sp(
        {"Clients", "Total queries", "Wall", "QPS", "p50", "p95", "p99"});
    for (int clients : client_counts) {
      std::vector<uint8_t> ok(static_cast<size_t>(clients), 1);
      const HistogramSnapshot lat_before = latency->Snapshot();
      StopWatch sw;
      std::vector<std::thread> threads;
      threads.reserve(static_cast<size_t>(clients));
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          for (int r = 0; r < rounds; ++r) {
            for (size_t q = 0; q < mix.size(); ++q) {
              sql::QueryOptions opts;  // default shared pool
              QueryControl control;
              if (deadline_ms > 0) {
                control = QueryControl::WithDeadline(
                    std::chrono::milliseconds(deadline_ms));
                opts.control = &control;
              }
              auto res = engine.Query(mix[q], opts);
              if (res.ok()) {
                if (ResultToString(res.value()) != reference[q]) {
                  ok[static_cast<size_t>(c)] = 0;
                }
              } else if (res.status().code() ==
                         StatusCode::kDeadlineExceeded) {
                // A timed-out query is a valid serving outcome under
                // --deadline-ms; it must never surface a partial result.
                deadline_hits.fetch_add(1, std::memory_order_relaxed);
              } else {
                ok[static_cast<size_t>(c)] = 0;
              }
            }
          }
        });
      }
      for (auto& t : threads) t.join();
      const double wall = sw.ElapsedSeconds();
      const size_t total = static_cast<size_t>(clients) * mix.size() *
                           static_cast<size_t>(rounds);
      const double qps = wall > 0 ? static_cast<double>(total) / wall : 0;
      for (uint8_t o : ok) serving_identical = serving_identical && o != 0;
      const HistogramSnapshot lat = latency->Snapshot().Delta(lat_before);
      sp.AddRow({std::to_string(clients), std::to_string(total),
                 bench::FmtSeconds(wall), TablePrinter::Fmt(qps, 1),
                 bench::FmtSeconds(lat.Quantile(0.50)),
                 bench::FmtSeconds(lat.Quantile(0.95)),
                 bench::FmtSeconds(lat.Quantile(0.99))});
      if (clients == 1) qps_1 = qps;
      if (clients == 4) qps_4 = qps;
      if (clients == client_counts.back()) {
        qps_hw = qps;
        p50_ms = lat.Quantile(0.50) * 1e3;
        p95_ms = lat.Quantile(0.95) * 1e3;
        p99_ms = lat.Quantile(0.99) * 1e3;
      }
    }
    std::printf("\n%s", sp.Render("Concurrent serving (shared engine + pool)").c_str());
    std::printf("Serving results are %s across client counts.\n",
                serving_identical ? "byte-identical" : "DIVERGENT (BUG)");

    // -----------------------------------------------------------------------
    // Introspection overhead: replay the mix with a per-query trace attached
    // and summarized, as a run report does, vs the plain replay, min-of-3
    // each. The budget is <= 2% (`--smoke` enforces it below): tracing must
    // be cheap enough to leave on in production serving.
    // -----------------------------------------------------------------------
    auto replay_plain = [&] {
      for (const auto& sqltext : mix) (void)engine.Query(sqltext);
    };
    double plain_s = bench::MeasureSeconds(replay_plain, 3);
    for (int repeat = 0; repeat < 2; ++repeat) {
      plain_s = std::min(plain_s, bench::MeasureSeconds(replay_plain, 3));
    }
    auto replay_introspected = [&] {
      for (const auto& sqltext : mix) {
        QueryTrace qtrace;
        sql::QueryOptions opts;
        opts.trace = &qtrace;
        (void)engine.Query(sqltext, opts);
        QueryTraceSummary summary = qtrace.Summary();
        benchmark::DoNotOptimize(summary);
      }
    };
    double introspected_s = bench::MeasureSeconds(replay_introspected, 3);
    for (int repeat = 0; repeat < 2; ++repeat) {
      introspected_s = std::min(introspected_s,
                                bench::MeasureSeconds(replay_introspected, 3));
    }
    const double introspection_overhead =
        plain_s > 0 ? std::max(0.0, introspected_s / plain_s - 1.0) : 0.0;
    std::printf("Introspection overhead %.2f%% (trace + summary vs plain).\n",
                introspection_overhead * 100.0);
    if (smoke && introspection_overhead > 0.02) {
      std::fprintf(stderr,
                   "THRESHOLD FAIL: introspection overhead %.2f%% > 2%% "
                   "(observability must stay cheap enough to leave on)\n",
                   introspection_overhead * 100.0);
      thresholds_ok = false;
    }

    // Optional Chrome trace export of one serving query's morsel timeline.
    if (!trace_out.empty()) {
      QueryTrace qtrace;
      qtrace.EnableSpanCapture();
      sql::QueryOptions opts;
      opts.trace = &qtrace;
      auto res = engine.Query(mix.empty() ? sc_sql : mix.front(), opts);
      if (!res.ok()) {
        std::fprintf(stderr, "trace-out query failed: %s\n",
                     res.status().ToString().c_str());
        return 1;
      }
      const std::string json = RenderChromeTrace(qtrace.TakeSpans());
      Status valid = ValidateChromeTraceJson(json);
      if (!valid.ok()) {
        std::fprintf(stderr, "INVALID Chrome trace JSON: %s\n",
                     valid.ToString().c_str());
        return 1;
      }
      std::ofstream out(trace_out, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
        return 1;
      }
      out << json;
      std::printf("Chrome trace: %zu bytes, validated OK -> %s\n", json.size(),
                  trace_out.c_str());
    }
    if (deadline_ms > 0) {
      std::printf("Deadline %ld ms: %lld queries timed out (descriptive "
                  "Status, no partial results).\n",
                  deadline_ms,
                  static_cast<long long>(
                      deadline_hits.load(std::memory_order_relaxed)));
    }
    std::printf(
        "BENCH_serving.json {\"bench\":\"serving\",\"smoke\":%s,"
        "\"hw_threads\":%u,\"mix_size\":%zu,\"qps_1_client\":%.2f,"
        "\"qps_4_clients\":%.2f,\"qps_max_clients\":%.2f,"
        "\"p50_ms\":%.4f,\"p95_ms\":%.4f,\"p99_ms\":%.4f,"
        "\"deadline_ms\":%ld,\"deadline_hits\":%lld,"
        "\"introspection_overhead\":%.4f,"
        "\"identical_across_clients\":%s}\n",
        smoke ? "true" : "false", hw, mix.size(), qps_1, qps_4, qps_hw, p50_ms,
        p95_ms, p99_ms, deadline_ms,
        static_cast<long long>(deadline_hits.load(std::memory_order_relaxed)),
        introspection_overhead,
        serving_identical ? "true" : "false");
    identical = identical && serving_identical;
  }

  // -------------------------------------------------------------------------
  // Compressed-domain execution: the MC phase-1 hash join on the raw bundle
  // and on a serve_compressed twin (the decode gap of compressed serving),
  // plus the resident posting footprint per codec. `--smoke` enforces the
  // acceptance threshold (compressed resident posting bytes <= 0.5x raw) so
  // CI fails if the codec regresses.
  // -------------------------------------------------------------------------
  if (!serving_only) {
    IndexBuildOptions comp_opts;
    comp_opts.serve_compressed = true;
    IndexBundle comp_bundle = IndexBuilder(comp_opts).Build(lake);

    // Smoke queries are tens of microseconds; average more reps so the
    // raw vs compressed ratio measures the join path, not timer noise.
    const int mc_reps = smoke ? 30 : 10;
    // Selective-key shape: a handful of rare probe keys against the lake's
    // most frequent values. The join decodes and hashes every posting of
    // both derived tables, so the wide side dominates and the compressed
    // run pays for decoding all of its blocks. This is the MC tuple-search
    // case: specific example tuples filtered against broad columns.
    const size_t wide = smoke ? 384 : 1024;
    const size_t probe = smoke ? 12 : 24;
    std::unordered_map<std::string, size_t> freq;
    for (TableId t = 0; t < static_cast<TableId>(lake.NumTables()); ++t) {
      const Table& tab = lake.table(t);
      for (size_t c = 0; c < tab.NumColumns(); ++c) {
        for (const std::string& cell : tab.column(c).cells) {
          if (!cell.empty()) ++freq[cell];
        }
      }
    }
    std::vector<std::pair<std::string, size_t>> by_freq(freq.begin(),
                                                        freq.end());
    std::sort(by_freq.begin(), by_freq.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second > b.second
                                            : a.first < b.first;
              });
    std::vector<std::string> side_a, side_b;
    for (size_t i = 0; i < by_freq.size() && side_b.size() < wide; ++i) {
      side_b.push_back(by_freq[i].first);
    }
    for (size_t i = by_freq.size(); i-- > 0 && side_a.size() < probe;) {
      side_a.push_back(by_freq[i].first);
    }
    const std::string mc_sql = McJoinSql(side_a, side_b);

    sql::QueryOptions serial;
    serial.scheduler = Scheduler::Serial();
    sql::QueryOptions pool;  // morsel-parallel join, shared pool

    sql::Engine raw_engine(g_col_bundle);
    sql::Engine comp_engine(&comp_bundle);

    std::string reference;
    bool mc_identical = true;
    double raw_s = 0, comp_s = 0, comp_pool_s = 0;
    TablePrinter mp({"Codec", "Threads", "Query", "vs raw"});
    struct Combo {
      const char* codec;
      sql::Engine* engine;
      const sql::QueryOptions* opts;
      const char* threads;
      double* slot;
    };
    const Combo combos[] = {
        {"raw", &raw_engine, &serial, "1", &raw_s},
        {"compressed", &comp_engine, &serial, "1", &comp_s},
        {"compressed", &comp_engine, &pool, "pool", &comp_pool_s},
    };
    for (const Combo& c : combos) {
      auto res = c.engine->Query(mc_sql, *c.opts);
      if (!res.ok()) {
        std::fprintf(stderr, "MC query failed: %s\n",
                     res.status().ToString().c_str());
        return 1;
      }
      const std::string dump = ResultToString(res.value());
      if (reference.empty()) {
        reference = dump;
      } else if (dump != reference) {
        mc_identical = false;
      }
      // Min-of-3 means: the minimum is the contention-robust estimator for
      // microsecond-scale queries on a shared CI runner, and the raw vs
      // compressed ratio needs to be stable, not a throughput estimate.
      *c.slot = bench::MeasureSeconds(
          [&] { (void)c.engine->Query(mc_sql, *c.opts); }, mc_reps);
      for (int repeat = 0; repeat < 2; ++repeat) {
        *c.slot = std::min(
            *c.slot, bench::MeasureSeconds(
                         [&] { (void)c.engine->Query(mc_sql, *c.opts); },
                         mc_reps));
      }
      mp.AddRow({c.codec, c.threads, bench::FmtSeconds(*c.slot),
                 TablePrinter::Fmt(*c.slot / raw_s, 2) + "x"});
    }

    const size_t raw_posting =
        ResidentPostingBytes(g_col_bundle->column_store().secondary());
    const size_t comp_posting =
        ResidentPostingBytes(comp_bundle.column_store().secondary());
    const double posting_ratio =
        raw_posting > 0 ? static_cast<double>(comp_posting) /
                              static_cast<double>(raw_posting)
                        : 1.0;
    const double compressed_over_raw = raw_s > 0 ? comp_s / raw_s : 0.0;

    std::printf("\n%s", mp.Render("MC join (hash join): raw vs compressed "
                                  "postings")
                            .c_str());
    std::printf("MC join results are %s across codecs and pools.\n",
                mc_identical ? "byte-identical" : "DIVERGENT (BUG)");
    std::printf("Resident postings: raw %s, compressed %s (%.2fx); "
                "whole index %s -> %s.\n",
                bench::FmtBytes(raw_posting).c_str(),
                bench::FmtBytes(comp_posting).c_str(), posting_ratio,
                bench::FmtBytes(g_col_bundle->ApproxBytes()).c_str(),
                bench::FmtBytes(comp_bundle.ApproxBytes()).c_str());
    std::printf(
        "BENCH_compressed_exec.json {\"bench\":\"compressed_exec\","
        "\"smoke\":%s,\"mc_probe_keys\":%zu,\"mc_wide_keys\":%zu,"
        "\"mc_join_raw_seconds\":%.6f,\"mc_join_compressed_seconds\":%.6f,"
        "\"mc_join_compressed_pool_seconds\":%.6f,"
        "\"mc_join_compressed_over_raw\":%.2f,"
        "\"raw_posting_bytes\":%zu,\"compressed_posting_bytes\":%zu,"
        "\"posting_ratio\":%.3f,\"raw_index_bytes\":%zu,"
        "\"compressed_index_bytes\":%zu,\"identical\":%s}\n",
        smoke ? "true" : "false", probe, wide, raw_s, comp_s, comp_pool_s,
        compressed_over_raw, raw_posting, comp_posting, posting_ratio,
        g_col_bundle->ApproxBytes(), comp_bundle.ApproxBytes(),
        mc_identical ? "true" : "false");
    identical = identical && mc_identical;

    if (smoke && posting_ratio > 0.5) {
      std::fprintf(stderr,
                   "THRESHOLD FAIL: compressed/raw resident posting bytes "
                   "%.3f > 0.5\n",
                   posting_ratio);
      thresholds_ok = false;
    }
  }
  return identical && thresholds_ok ? 0 : 1;
}
