// Persistent index snapshots: the one-build-many-servers workflow.
//
//   1. build  — index a lake (the expensive offline phase, paper Fig. 2e)
//   2. save   — persist the IndexBundle as a versioned snapshot file
//   3. load   — mmap it back zero-copy without the lake (and heap-load it,
//               for comparison)
//   4. query  — serve SC and MC discovery plans off the loaded bundles and
//               assert the results are byte-identical to the freshly built
//               index
//
// Exits non-zero on any mismatch, so CI runs this binary as the snapshot
// round-trip smoke check.
//
// Usage: blend_snapshot [--tables=N] [--layout=row|column]
//                       [--codec=raw|compressed] [--path=FILE]
//                       [--introspect] [--trace-out=FILE]
//
// The served Blend is opened with no lake: every plan, MC exact validation
// included, is answered from the snapshot alone. With --codec=compressed the
// open decodes the block-compressed postings once onto the heap, and every
// other array is still served out of the mapping.
//
// --introspect replaces the snapshot round-trip with the introspection smoke
// check: it runs one discovery plan off the built index and prints its trace
// anatomy and the EXPLAIN ANALYZE plan of every statement its seekers
// issued, exiting non-zero if no statement plan was captured.
//
// --trace-out=FILE runs one discovery plan with per-morsel-task span capture
// and exports the timeline as Chrome trace-event JSON (load it in Perfetto
// or chrome://tracing: one track per worker thread, one slice per morsel
// task). The binary validates the JSON in-process before writing and exits
// non-zero if the export is malformed.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "core/blend.h"
#include "index/snapshot.h"
#include "lakegen/join_lake.h"
#include "lakegen/workloads.h"
#include "sql/engine.h"

using namespace blend;

namespace {

std::string PlanResult(const core::Blend& blend, const DataLake& lake,
                       const core::Plan& plan) {
  auto res = blend.Run(plan);
  if (!res.ok()) return "ERROR: " + res.status().ToString();
  return core::ToString(res.value(), &lake);
}

/// Two-column key tuples for an MC plan: the first two cells of a few rows
/// of a random table, so some candidate rows validate.
std::vector<std::vector<std::string>> McTuples(const DataLake& lake, Rng* rng) {
  const Table& table = lake.table(static_cast<TableId>(rng->Uniform(lake.NumTables())));
  std::vector<std::vector<std::string>> tuples;
  for (int i = 0; i < 4 && table.NumColumns() >= 2 && table.NumRows() > 0; ++i) {
    const size_t r = rng->Uniform(table.NumRows());
    tuples.push_back({table.At(r, 0), table.At(r, 1)});
  }
  return tuples;
}

std::string SqlResult(const sql::Engine& engine, const std::string& sqltext) {
  auto res = engine.Query(sqltext);
  if (!res.ok()) return "ERROR: " + res.status().ToString();
  std::string out;
  for (const auto& row : res.value().rows) {
    for (const auto& v : row) {
      out += v.is_null() ? "NULL|"
                         : (v.kind == sql::SqlValue::Kind::kInt
                                ? std::to_string(v.i) + "|"
                                : std::to_string(v.d) + "|");
    }
    out += "\n";
  }
  return out;
}

/// The introspection smoke check behind `--introspect` (see file header).
int RunIntrospect(const core::Blend& blend, const DataLake& lake) {
  Rng rng(5);
  std::vector<std::string> values = lakegen::SampleColumnQuery(lake, 12, &rng);
  core::Plan plan;
  (void)plan.Add("sc", std::make_shared<core::SCSeeker>(values, 10));
  auto report = blend.RunReport(plan);
  if (!report.ok()) {
    std::fprintf(stderr, "introspection run failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  // Trace anatomy: stage wall times, rows, query counters.
  std::printf("%s\n", report.value().trace.ToString().c_str());

  // Every SQL statement the plan's seekers issued, with its EXPLAIN ANALYZE
  // operator tree.
  const std::string plans = report.value().RenderStatementPlans();
  if (plans.empty()) {
    std::fprintf(stderr, "no statement plans captured\n");
    return 1;
  }
  std::printf("%s\n", plans.c_str());
  return 0;
}

/// The Chrome trace export behind `--trace-out=FILE` (see file header).
int RunTraceExport(const core::Blend& blend, const DataLake& lake,
                   const std::string& out_path) {
  Rng rng(5);
  std::vector<std::string> values = lakegen::SampleColumnQuery(lake, 12, &rng);
  core::Plan plan;
  (void)plan.Add("sc", std::make_shared<core::SCSeeker>(values, 10));
  auto report = blend.RunReport(plan);
  if (!report.ok()) {
    std::fprintf(stderr, "trace-export run failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  if (report.value().trace_spans.empty()) {
    std::fprintf(stderr, "no trace spans captured\n");
    return 1;
  }
  const std::string json = RenderChromeTrace(report.value().trace_spans);
  // Validate before writing, so CI catches a malformed export without a
  // browser in the loop.
  Status valid = ValidateChromeTraceJson(json);
  if (!valid.ok()) {
    std::fprintf(stderr, "INVALID Chrome trace JSON: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  out.close();
  std::printf("Chrome trace: %zu spans, %zu bytes, validated OK -> %s\n",
              report.value().trace_spans.size(), json.size(),
              out_path.c_str());
  return 0;
}

/// Parses a whole-string positive decimal integer (no sign, no trailing
/// bytes, no overflow).
bool ParsePositive(const char* text, size_t* out) {
  const char* end = text + std::strlen(text);
  size_t value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value == 0) return false;
  *out = value;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--tables=N] [--layout=row|column] "
               "[--codec=raw|compressed] [--path=FILE] [--introspect] "
               "[--trace-out=FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_tables = 60;
  StoreLayout layout = StoreLayout::kColumn;
  PostingCodec codec = PostingCodec::kRaw;
  bool introspect = false;
  std::string path = "blend_index.snapshot";
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--tables=", 9) == 0) {
      if (!ParsePositive(argv[i] + 9, &num_tables)) return Usage(argv[0]);
    } else if (std::strcmp(argv[i], "--introspect") == 0) {
      introspect = true;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--layout=row") == 0) {
      layout = StoreLayout::kRow;
    } else if (std::strcmp(argv[i], "--layout=column") == 0) {
      layout = StoreLayout::kColumn;
    } else if (std::strncmp(argv[i], "--codec=", 8) == 0) {
      auto parsed = ParsePostingCodec(argv[i] + 8);
      if (!parsed.ok()) {
        std::fprintf(stderr, "--codec: %s\n",
                     parsed.status().message().c_str());
        return 2;
      }
      codec = parsed.value();
    } else if (std::strncmp(argv[i], "--path=", 7) == 0) {
      path = argv[i] + 7;
    } else {
      return Usage(argv[0]);
    }
  }

  lakegen::JoinLakeSpec spec;
  spec.num_tables = num_tables;
  spec.seed = 101;
  DataLake lake = lakegen::MakeJoinLake(spec);
  std::printf("Lake: %zu tables, %zu cells\n", lake.NumTables(), lake.TotalCells());

  // 1. build: the expensive offline phase every cold-started server would
  // otherwise repeat.
  core::Blend::Options options;
  options.layout = layout;
  options.snapshot_codec = codec;
  // Introspection capture for the observability modes; off for the snapshot
  // round-trip so it exercises the plain serving configuration.
  options.capture_statement_plans = introspect;
  options.capture_trace_spans = !trace_out.empty();
  StopWatch build_sw;
  core::Blend built(&lake, options);
  const double build_s = build_sw.ElapsedSeconds();
  std::printf("Built index: %zu records, %zu distinct values (%.1f ms)\n",
              built.bundle().NumRecords(), built.bundle().dictionary().Size(),
              build_s * 1e3);

  if (introspect) return RunIntrospect(built, lake);
  if (!trace_out.empty()) return RunTraceExport(built, lake, trace_out);

  // 2. save.
  StopWatch save_sw;
  Status saved = built.SaveSnapshot(path);
  if (!saved.ok()) {
    std::fprintf(stderr, "SaveSnapshot: %s\n", saved.ToString().c_str());
    return 1;
  }
  SnapshotOptions snap_opts;
  snap_opts.codec = codec;
  std::printf("Saved snapshot: %zu bytes (%s postings: %zu bytes) at %s "
              "(%.1f ms)\n",
              SnapshotBytes(built.bundle(), snap_opts),
              PostingCodecName(codec),
              SnapshotPostingBytes(built.bundle(), snap_opts), path.c_str(),
              save_sw.ElapsedSeconds() * 1e3);

  // 3. load, both paths: a heap copy and the zero-copy mapping. The server
  // gets no lake: the snapshot alone answers every plan.
  StopWatch read_sw;
  auto heap_bundle = ReadSnapshot(path);
  const double read_s = read_sw.ElapsedSeconds();
  if (!heap_bundle.ok()) {
    std::fprintf(stderr, "ReadSnapshot: %s\n", heap_bundle.status().ToString().c_str());
    return 1;
  }
  StopWatch open_sw;
  auto served = core::Blend::OpenSnapshot(path, nullptr, options);
  const double open_s = open_sw.ElapsedSeconds();
  if (!served.ok()) {
    std::fprintf(stderr, "OpenSnapshot: %s\n", served.status().ToString().c_str());
    return 1;
  }
  std::printf("Loaded: heap read %.1f ms, mmap open %.1f ms (%.0fx faster than "
              "rebuild)\n",
              read_s * 1e3, open_s * 1e3, build_s / open_s);

  // 4. query both and compare byte-for-byte.
  Rng rng(5);
  bool identical = true;
  sql::Engine heap_engine(&heap_bundle.value());
  for (int q = 0; q < 5; ++q) {
    std::vector<std::string> values = lakegen::SampleColumnQuery(lake, 12, &rng);
    if (values.empty()) continue;
    core::Plan sc_plan;
    (void)sc_plan.Add("sc", std::make_shared<core::SCSeeker>(values, 10));
    core::Plan mc_plan;
    (void)mc_plan.Add("mc", std::make_shared<core::MCSeeker>(McTuples(lake, &rng), 10));
    for (const core::Plan* plan : {&sc_plan, &mc_plan}) {
      const std::string want_plan = PlanResult(built, lake, *plan);
      const std::string got_plan = PlanResult(*served.value(), lake, *plan);
      if (want_plan != got_plan) {
        identical = false;
        std::printf("MISMATCH (plan %d, %s):\n  built:  %s\n  loaded: %s\n", q,
                    plan == &sc_plan ? "SC" : "MC", want_plan.c_str(),
                    got_plan.c_str());
      }
    }
    const std::string sqltext =
        "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
        "FROM AllTables WHERE CellValue IN (" +
        SqlInList(values) + ") GROUP BY TableId, ColumnId "
        "ORDER BY score DESC LIMIT 10;";
    const std::string want_sql = SqlResult(built.engine(), sqltext);
    if (want_sql != SqlResult(heap_engine, sqltext) ||
        want_sql != SqlResult(served.value()->engine(), sqltext)) {
      identical = false;
      std::printf("MISMATCH (sql %d)\n", q);
    }
  }
  std::remove(path.c_str());
  std::printf("Query results on the snapshot-served index are %s.\n",
              identical ? "byte-identical to the built index"
                        : "DIVERGENT (BUG)");
  return identical ? 0 : 1;
}
