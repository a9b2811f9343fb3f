// SQL harness. The parser consumes arbitrary query text (the serving layer
// accepts it over the wire); it must reject malformed input with a Status,
// never crash or read out of bounds. Every accepted statement also runs on a
// tiny fixed in-memory engine, serially and under a memory budget with no
// deadline, so each outcome is deterministic. A plain statement runs bare
// and as EXPLAIN ANALYZE: both must return the same Status code, the same
// rows byte for byte when they succeed, and EXPLAIN must list the operators
// EXPLAIN ANALYZE ran.
#include <cstdint>
#include <cstring>
#include <string>

#include "common/control.h"
#include "common/scheduler.h"
#include "fuzz_util.h"
#include "index/builder.h"
#include "sql/engine.h"
#include "sql/parser.h"

namespace {

constexpr size_t kMaxInput = 1 << 16;
/// Large enough for every statement over the lake below except runaway
/// multi-way joins, which trip it deterministically.
constexpr int64_t kMemoryBudget = 1 << 20;

const blend::sql::Engine& TinyEngine() {
  static const blend::IndexBundle bundle = [] {
    blend::DataLake lake("fuzz");
    blend::Table a("a");
    a.AddColumn("name");
    a.AddColumn("num");
    (void)a.AppendRow({"apple", "1"});
    (void)a.AppendRow({"banana", "-2.5"});
    (void)a.AppendRow({"apple", "3"});
    lake.AddTable(std::move(a));
    blend::Table b("b");
    b.AddColumn("name");
    b.AddColumn("tag");
    (void)b.AppendRow({"banana", "x"});
    (void)b.AppendRow({"cherry", "7"});
    lake.AddTable(std::move(b));
    return blend::IndexBuilder().Build(lake);
  }();
  static const blend::sql::Engine engine(&bundle, blend::Scheduler::Serial());
  return engine;
}

blend::Result<blend::sql::QueryResult> Run(const std::string& sql) {
  const blend::QueryControl control =
      blend::QueryControl::WithMemoryBudget(kMemoryBudget);
  blend::sql::QueryOptions options;
  options.control = &control;
  return TinyEngine().Query(sql, options);
}

/// Column names and rows, with doubles as their bit patterns.
std::string Bytes(const blend::sql::QueryResult& r) {
  std::string out;
  for (const std::string& c : r.columns) out += c + '\0';
  for (const auto& row : r.rows) {
    for (const blend::sql::SqlValue& v : row) {
      out += static_cast<char>(v.kind);
      uint64_t bits = static_cast<uint64_t>(v.i);
      if (v.kind == blend::sql::SqlValue::Kind::kDouble) {
        std::memcpy(&bits, &v.d, sizeof(bits));
      }
      out.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
    }
  }
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > kMaxInput) return 0;
  const std::string text(reinterpret_cast<const char*>(data), size);
  auto parsed = blend::sql::Parse(text);
  if (parsed.ok()) {
    FUZZ_CHECK(parsed.value() != nullptr, "ok parse returned null statement");
  }
  // The top-level grammar (EXPLAIN [ANALYZE] prefix) over the same input: an
  // accepted statement always carries a SELECT body.
  auto stmt = blend::sql::ParseStatement(text);
  if (!stmt.ok()) return 0;
  FUZZ_CHECK(stmt.value().select != nullptr, "ok ParseStatement returned null select");
  if (stmt.value().explain != blend::sql::ExplainMode::kNone) {
    (void)Run(text);
    return 0;
  }

  auto bare = Run(text);
  auto analyzed = Run("EXPLAIN ANALYZE " + text);
  FUZZ_CHECK(bare.ok() == analyzed.ok(), "EXPLAIN ANALYZE changed the outcome");
  if (!bare.ok()) {
    FUZZ_CHECK(bare.status().code() == analyzed.status().code(),
               "EXPLAIN ANALYZE changed the error code");
  } else {
    FUZZ_CHECK(Bytes(bare.value()) == Bytes(analyzed.value()),
               "EXPLAIN ANALYZE changed the rows");
  }
  auto explained = Run("EXPLAIN " + text);
  if (!explained.ok()) {
    // EXPLAIN fails only while planning, where the executed runs fail too.
    FUZZ_CHECK(!analyzed.ok() && analyzed.status().code() == explained.status().code(),
               "EXPLAIN failed where EXPLAIN ANALYZE did not");
  } else if (analyzed.ok()) {
    const auto& planned = explained.value().plan.nodes;
    const auto& ran = analyzed.value().plan.nodes;
    FUZZ_CHECK(planned.size() == ran.size(), "EXPLAIN and ANALYZE node counts differ");
    for (size_t i = 0; i < planned.size(); ++i) {
      FUZZ_CHECK(planned[i].op == ran[i].op, "EXPLAIN and ANALYZE operators differ");
    }
  }
  return 0;
}
