#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "common/control.h"
#include "common/eventlog.h"
#include "common/json_check.h"
#include "common/telemetry.h"
#include "core/blend.h"
#include "lakegen/join_lake.h"

namespace blend::core {
namespace {

/// Suite for the query introspection layer at the Blend driver level:
/// per-statement plan capture, the structured event log (including slow-query
/// trace capture and failure outcomes), Chrome trace export from captured
/// spans, and the self-validating JSON surfaces. The contract throughout:
/// introspection is pure observation — results stay byte-identical with every
/// knob on or off.
class IntrospectionTest : public ::testing::Test {
 protected:
  IntrospectionTest() {
    lakegen::JoinLakeSpec spec;
    spec.num_tables = 30;
    spec.num_domains = 5;
    spec.domain_vocab = 150;
    spec.seed = 17;
    lake_ = lakegen::MakeJoinLake(spec);
  }

  std::vector<std::string> SampleCells(TableId t, size_t col, size_t n) const {
    std::vector<std::string> vals;
    const Table& table = lake_.table(t);
    for (size_t r = 0; r < std::min(n, table.NumRows()); ++r) {
      vals.push_back(table.At(r, col % table.NumColumns()));
    }
    return vals;
  }

  Plan ScPlan() const {
    Plan p;
    EXPECT_TRUE(
        p.Add("sc", std::make_shared<SCSeeker>(SampleCells(0, 0, 20), 8)).ok());
    return p;
  }

  Plan McPlan() const {
    Plan p;
    std::vector<std::vector<std::string>> tuples;
    const Table& t5 = lake_.table(5);
    for (size_t r = 0; r < std::min<size_t>(10, t5.NumRows()); ++r) {
      tuples.push_back({t5.At(r, 0), t5.At(r, 1 % t5.NumColumns())});
    }
    EXPECT_TRUE(p.Add("mc", std::make_shared<MCSeeker>(tuples, 6)).ok());
    return p;
  }

  static std::string Dump(const Result<ExecutionReport>& res) {
    if (!res.ok()) return "ERROR: " + res.status().ToString();
    std::string out;
    char buf[64];
    for (const auto& e : res.value().output) {
      snprintf(buf, sizeof(buf), "%d:%.17g|", e.table, e.score);
      out += buf;
    }
    return out;
  }

  DataLake lake_;
};

TEST_F(IntrospectionTest, RunReportCapturesAnnotatedStatementPlans) {
  Blend::Options opts;
  opts.capture_statement_plans = true;
  Blend blend(&lake_, opts);
  auto report = blend.RunReport(ScPlan());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ExecutionReport& rep = report.value();
  ASSERT_FALSE(rep.statement_plans.empty());
  for (const auto& entry : rep.statement_plans) {
    EXPECT_FALSE(entry.sql.empty());
    EXPECT_FALSE(entry.plan.nodes.empty());
    if constexpr (kTelemetryEnabled) {
      // The driver always attaches a trace, so captured plans carry actuals.
      EXPECT_TRUE(entry.plan.analyzed);
    }
  }
  const std::string rendered = rep.RenderStatementPlans();
  EXPECT_NE(rendered.find("-- statement 1 of "), std::string::npos);
  EXPECT_NE(rendered.find(rep.statement_plans[0].plan.nodes[0].op),
            std::string::npos);
}

TEST_F(IntrospectionTest, PlanCaptureIsPureObservation) {
  Blend::Options plain_opts;
  Blend plain(&lake_, plain_opts);
  Blend::Options capture_opts;
  capture_opts.capture_statement_plans = true;
  capture_opts.capture_trace_spans = true;
  Blend captured(&lake_, capture_opts);
  for (const Plan& p : {ScPlan(), McPlan()}) {
    EXPECT_EQ(Dump(plain.RunReport(p)), Dump(captured.RunReport(p)));
  }
}

TEST_F(IntrospectionTest, EventLogRecordsOneEventPerRunWithoutAlteringResults) {
  if constexpr (!kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
  EventLog log(64);
  Blend::Options logged_opts;
  logged_opts.event_log = &log;
  Blend logged(&lake_, logged_opts);
  Blend plain(&lake_, Blend::Options{});

  const std::string sc_plain = Dump(plain.RunReport(ScPlan()));
  const std::string sc_logged = Dump(logged.RunReport(ScPlan()));
  EXPECT_EQ(sc_plain, sc_logged);
  const std::string sc_again = Dump(logged.RunReport(ScPlan()));
  EXPECT_EQ(sc_plain, sc_again);
  (void)Dump(logged.RunReport(McPlan()));

  EXPECT_EQ(log.recorded(), 3);
  EXPECT_EQ(log.dropped(), 0);
  StringEventSink sink;
  EXPECT_EQ(log.Drain(&sink), 3u);
  ASSERT_TRUE(ValidateEventLogJson(sink.text()).ok())
      << ValidateEventLogJson(sink.text()).ToString() << "\n" << sink.text();

  // Same plan shape => same fingerprint; the MC plan must differ.
  std::vector<std::string> lines;
  size_t begin = 0;
  for (size_t end = sink.text().find('\n', begin); end != std::string::npos;
       begin = end + 1, end = sink.text().find('\n', begin)) {
    lines.push_back(sink.text().substr(begin, end - begin));
  }
  ASSERT_EQ(lines.size(), 3u);
  const auto fingerprint = [](const std::string& line) -> std::string {
    const size_t at = line.find("\"fingerprint\":\"");
    if (at == std::string::npos) return "";
    return line.substr(at, 31);
  };
  EXPECT_NE(fingerprint(lines[0]), "");
  EXPECT_EQ(fingerprint(lines[0]), fingerprint(lines[1]));
  EXPECT_NE(fingerprint(lines[0]), fingerprint(lines[2]));
  EXPECT_NE(lines[0].find("\"outcome\":\"OK\""), std::string::npos)
      << lines[0];
}

TEST_F(IntrospectionTest, SlowQueryThresholdCapturesFullTrace) {
  if constexpr (!kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
  EventLog log(64);
  Blend::Options opts;
  opts.event_log = &log;
  opts.slow_query_log_seconds = 1e-12;  // everything is slow
  Blend blend(&lake_, opts);
  ASSERT_TRUE(blend.RunReport(ScPlan()).ok());
  EXPECT_EQ(log.slow_captures(), 1);
  StringEventSink sink;
  ASSERT_EQ(log.Drain(&sink), 1u);
  EXPECT_NE(sink.text().find("\"slow\":true"), std::string::npos)
      << sink.text();
  EXPECT_NE(sink.text().find("\"trace\":"), std::string::npos) << sink.text();
  ASSERT_TRUE(ValidateEventLogJson(sink.text()).ok());
}

TEST_F(IntrospectionTest, EventLogRecordsFailureOutcomes) {
  if constexpr (!kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
  EventLog log(64);
  Blend::Options opts;
  opts.event_log = &log;
  Blend blend(&lake_, opts);
  const QueryControl expired =
      QueryControl::WithDeadline(std::chrono::nanoseconds(0));
  auto res = blend.RunReport(ScPlan(), expired);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kDeadlineExceeded);
  StringEventSink sink;
  ASSERT_EQ(log.Drain(&sink), 1u);
  EXPECT_NE(sink.text().find("\"outcome\":\"DeadlineExceeded\""),
            std::string::npos)
      << sink.text();
  EXPECT_NE(sink.text().find("\"control_tripped\":true"), std::string::npos)
      << sink.text();
  ASSERT_TRUE(ValidateEventLogJson(sink.text()).ok());
}

TEST_F(IntrospectionTest, EventLogRingDropsWhenFullAndNeverBlocks) {
  if constexpr (!kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
  EventLog log(2);  // capacity 2
  for (int i = 0; i < 5; ++i) {
    QueryEvent e;
    e.fingerprint = static_cast<uint64_t>(i + 1);
    log.Record(std::move(e));
  }
  EXPECT_EQ(log.recorded(), 2);
  EXPECT_EQ(log.dropped(), 3);
  StringEventSink sink;
  EXPECT_EQ(log.Drain(&sink), 2u);
  EXPECT_EQ(log.Drain(&sink), 0u);
  ASSERT_TRUE(ValidateEventLogJson(sink.text()).ok());
  // After draining, the ring accepts events again.
  log.Record(QueryEvent{});
  EXPECT_EQ(log.Drain(nullptr), 1u);
}

TEST_F(IntrospectionTest, RenderJsonIsValidAndValidatorRejectsBadLines) {
  QueryEvent e;
  e.fingerprint = 0xdeadbeefcafe1234ull;
  e.outcome = StatusCode::kOk;
  e.seconds = 0.0125;
  e.peak_memory = 4096;
  e.slow = true;
  e.trace_text = "anatomy \"quoted\"\nsecond line";
  const std::string line = EventLog::RenderJson(e);
  EXPECT_TRUE(ValidateJson(line).ok()) << line;
  EXPECT_NE(line.find("\"fingerprint\":\"deadbeefcafe1234\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"peak_memory\":4096"), std::string::npos) << line;
  ASSERT_TRUE(ValidateEventLogJson(line + "\n").ok());

  EXPECT_FALSE(ValidateEventLogJson("not json\n").ok());
  EXPECT_FALSE(ValidateEventLogJson("{\"fingerprint\":\"00\"}\n").ok())
      << "missing required fields must be rejected";
  EXPECT_FALSE(
      ValidateEventLogJson(line + "\n{\"truncated\":\n").ok());
}

TEST_F(IntrospectionTest, ValidateJsonAcceptsAndRejects) {
  EXPECT_TRUE(
      ValidateJson("{\"a\":[1,2.5,{\"b\":null},\"s\"],\"c\":true}").ok());
  EXPECT_TRUE(ValidateJson("[]").ok());
  EXPECT_FALSE(ValidateJson("{").ok());
  EXPECT_FALSE(ValidateJson("{\"a\":1} extra").ok());
  EXPECT_FALSE(ValidateJson("{\"a\" 1}").ok());
}

TEST_F(IntrospectionTest, TraceSpansExportAsValidChromeTrace) {
  if constexpr (!kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
  Blend::Options opts;
  opts.capture_trace_spans = true;
  Blend blend(&lake_, opts);
  auto report = blend.RunReport(ScPlan());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report.value().trace_spans.empty());
  const std::string trace = RenderChromeTrace(report.value().trace_spans);
  ASSERT_TRUE(ValidateChromeTraceJson(trace).ok())
      << ValidateChromeTraceJson(trace).ToString() << "\n" << trace;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);

  EXPECT_FALSE(ValidateChromeTraceJson("{]").ok());
  EXPECT_FALSE(
      ValidateChromeTraceJson("{\"traceEvents\":[{\"ph\":\"X\"}]}").ok())
      << "events without name/pid/tid must be rejected";
}

TEST_F(IntrospectionTest, SpanCaptureOffByDefault) {
  Blend blend(&lake_, Blend::Options{});
  auto report = blend.RunReport(ScPlan());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().trace_spans.empty());
  EXPECT_TRUE(report.value().statement_plans.empty());
}

}  // namespace
}  // namespace blend::core
