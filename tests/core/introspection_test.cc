#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "common/control.h"
#include "common/json_check.h"
#include "common/telemetry.h"
#include "core/blend.h"
#include "lakegen/join_lake.h"
#include "sql/expr_eval.h"

namespace blend::core {
namespace {

/// Suite for the query introspection layer at the Blend driver level:
/// per-statement plan capture, per-outcome run counters, Chrome trace export
/// from captured spans, and the JSON validator behind it. The contract
/// throughout: introspection is pure observation — results stay
/// byte-identical with every knob on or off.
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
    // The driver always attaches a trace, so captured plans carry actuals.
    EXPECT_TRUE(entry.plan.analyzed);
    // SortLimit's sort and row build run inline and are timed as one task.
    for (const auto& node : entry.plan.nodes) {
      if (node.op != "SortLimit") continue;
      EXPECT_GE(node.actual_seconds, 0) << entry.sql;
      EXPECT_EQ(node.actual_tasks, 1) << entry.sql;
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

TEST_F(IntrospectionTest, RunOutcomeCountersRecordEachStatus) {
  static constexpr const char* kCounters[] = {
      "blend_runs_ok_total",
      "blend_runs_deadline_exceeded_total",
      "blend_runs_cancelled_total",
      "blend_runs_resource_exhausted_total",
      "blend_runs_error_total",
  };
  const auto values = [] {
    const RegistrySnapshot snap = MetricsRegistry::Global().Collect();
    std::vector<int64_t> out;
    for (const char* name : kCounters) {
      const MetricSample* s = snap.Find(name);
      out.push_back(s != nullptr ? s->value : 0);
    }
    return out;
  };

  std::vector<std::string> wide;
  for (int c = 0; c <= sql::kMaxRels; ++c) wide.push_back("v" + std::to_string(c));
  Plan too_wide;
  ASSERT_TRUE(too_wide
                  .Add("mc", std::make_shared<MCSeeker>(
                                 std::vector<std::vector<std::string>>{wide}, 5))
                  .ok());
  QueryControl cancelled = QueryControl::Cancellable();
  cancelled.Cancel();

  Blend blend(&lake_, Blend::Options{});
  const auto code = [](const Result<ExecutionReport>& res) {
    return res.ok() ? StatusCode::kOk : res.status().code();
  };
  const std::vector<std::function<StatusCode()>> runs = {
      [&] { return code(blend.RunReport(ScPlan())); },
      [&] {
        return code(blend.RunReport(
            ScPlan(), QueryControl::WithDeadline(std::chrono::nanoseconds(0))));
      },
      [&] { return code(blend.RunReport(ScPlan(), cancelled)); },
      [&] {
        return code(blend.RunReport(ScPlan(), QueryControl::WithMemoryBudget(1)));
      },
      [&] { return code(blend.RunReport(too_wide)); },
  };
  const StatusCode expected[] = {StatusCode::kOk, StatusCode::kDeadlineExceeded,
                                 StatusCode::kCancelled,
                                 StatusCode::kResourceExhausted,
                                 StatusCode::kInvalidArgument};
  for (size_t i = 0; i < runs.size(); ++i) {
    const std::vector<int64_t> before = values();
    EXPECT_EQ(runs[i](), expected[i]) << kCounters[i];
    const std::vector<int64_t> after = values();
    for (size_t c = 0; c < before.size(); ++c) {
      EXPECT_EQ(after[c] - before[c], c == i ? 1 : 0)
          << "run " << kCounters[i] << " moved " << kCounters[c];
    }
  }
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
