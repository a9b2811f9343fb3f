#include "common/telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace blend {
namespace {

// ---------------------------------------------------------------------------
// Counter / Gauge: sharded cells, concurrent increments, merged reads
// ---------------------------------------------------------------------------

TEST(TelemetryCounter, ConcurrentIncrementsMergeExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), int64_t{kThreads} * kPerThread);
}

TEST(TelemetryCounter, AddAccumulates) {
  Counter c;
  c.Add(5);
  c.Add(7);
  EXPECT_EQ(c.Value(), 12);
}

TEST(TelemetryGauge, SignedDeltasConcurrently) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPairs = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPairs; ++i) {
        g.Add(3);
        g.Add(-3);
      }
      g.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(g.Value(), kThreads);
}

// ---------------------------------------------------------------------------
// Histogram: geometry, bucket boundaries, quantiles, deltas, concurrency
// ---------------------------------------------------------------------------

TEST(TelemetryHistogram, BoundsAreAscendingSqrt2Ladder) {
  const auto& bounds = HistogramBounds();
  ASSERT_EQ(bounds.size(), kHistogramFiniteBounds);
  EXPECT_DOUBLE_EQ(bounds[0], 1e-6);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
    // Each step multiplies by ~sqrt(2); every second bound is an exact power
    // of two times 1µs.
    EXPECT_NEAR(bounds[i] / bounds[i - 1], std::sqrt(2.0), 1e-6);
  }
  EXPECT_GT(bounds.back(), 100.0);  // covers multi-minute queries
}

TEST(TelemetryHistogram, BucketBoundariesUseLeSemantics) {
  const auto& bounds = HistogramBounds();
  Histogram h;
  // A value exactly on a bound belongs to that bound's bucket (bounds are
  // inclusive upper edges); the next representable value above it spills over.
  h.Observe(bounds[3]);
  h.Observe(std::nextafter(bounds[3], 1e9));
  h.Observe(0.0);                        // below the first bound
  h.Observe(bounds.back() * 10);         // beyond every finite bound -> +Inf
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.buckets[3], 1);
  EXPECT_EQ(s.buckets[4], 1);
  EXPECT_EQ(s.buckets[0], 1);
  EXPECT_EQ(s.buckets[kHistogramBuckets - 1], 1);
  EXPECT_EQ(s.count, 4);
  EXPECT_NEAR(s.sum_seconds,
              bounds[3] + std::nextafter(bounds[3], 1e9) + bounds.back() * 10,
              1e-6);
}

TEST(TelemetryHistogram, QuantilePropertyRandomObservations) {
  const auto& bounds = HistogramBounds();
  Rng rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    Histogram h;
    std::vector<double> values;
    const int n = 1 + static_cast<int>(rng.Uniform(200));
    for (int i = 0; i < n; ++i) {
      // Spread observations over the full microseconds..minutes range.
      const double v = 1e-6 * std::pow(10.0, 7.0 * rng.UniformDouble());
      values.push_back(v);
      h.Observe(v);
    }
    std::sort(values.begin(), values.end());
    const HistogramSnapshot s = h.Snapshot();
    ASSERT_EQ(s.count, n);
    double prev_q = 0;
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
      const double est = s.Quantile(q);
      // Monotone in q, and never outside the histogram's representable range.
      EXPECT_GE(est, prev_q);
      EXPECT_LE(est, bounds.back());
      prev_q = est;
      // The estimate may be off by at most one bucket: it must be >= the
      // bucket bound *below* the true value's bucket (bucket resolution is
      // the accuracy contract of a fixed-bucket histogram).
      const double true_val =
          values[std::min(values.size() - 1,
                          static_cast<size_t>(q * static_cast<double>(n)))];
      const auto it =
          std::lower_bound(bounds.begin(), bounds.end(), true_val);
      if (it != bounds.begin() && it != bounds.end()) {
        EXPECT_GE(est, *(it - 1) * 0.999)
            << "q=" << q << " true=" << true_val;
      }
    }
  }
}

TEST(TelemetryHistogram, QuantileEmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.Snapshot().Quantile(0.5), 0.0);
}

TEST(TelemetryHistogram, DeltaIsIntervalOnly) {
  Histogram h;
  h.Observe(1e-5);
  h.Observe(2e-5);
  const HistogramSnapshot before = h.Snapshot();
  h.Observe(3e-3);
  const HistogramSnapshot delta = h.Snapshot().Delta(before);
  EXPECT_EQ(delta.count, 1);
  EXPECT_NEAR(delta.sum_seconds, 3e-3, 1e-9);
  int64_t total = 0;
  for (int64_t b : delta.buckets) total += b;
  EXPECT_EQ(total, 1);
}

TEST(TelemetryHistogram, ConcurrentObserveCountsAll) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(1e-6 * static_cast<double>(1 + ((t + i) % 1000)));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Snapshot().count, int64_t{kThreads} * kPerThread);
}

// ---------------------------------------------------------------------------
// Registry: registration, collection
// ---------------------------------------------------------------------------

TEST(TelemetryRegistry, ReRegistrationReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("test_total");
  Counter* b = reg.GetCounter("test_total");
  EXPECT_EQ(a, b);
  Histogram* h1 = reg.GetHistogram("test_seconds");
  Histogram* h2 = reg.GetHistogram("test_seconds");
  EXPECT_EQ(h1, h2);
}

TEST(TelemetryRegistry, CollectIsSortedAndFindable) {
  MetricsRegistry reg;
  reg.GetCounter("zzz_total")->Add(3);
  reg.GetGauge("aaa_gauge")->Add(-2);
  reg.GetHistogram("mmm_seconds")->Observe(0.001);
  const RegistrySnapshot snap = reg.Collect();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].name, "aaa_gauge");
  EXPECT_EQ(snap.samples[1].name, "mmm_seconds");
  EXPECT_EQ(snap.samples[2].name, "zzz_total");
  ASSERT_NE(snap.Find("zzz_total"), nullptr);
  EXPECT_EQ(snap.Find("zzz_total")->value, 3);
  ASSERT_NE(snap.Find("aaa_gauge"), nullptr);
  EXPECT_EQ(snap.Find("aaa_gauge")->value, -2);
  EXPECT_EQ(snap.Find("missing"), nullptr);
}

// ---------------------------------------------------------------------------
// QueryTrace / TraceSpan / QueueWaitProbe
// ---------------------------------------------------------------------------

TEST(TelemetryTrace, StageNamesMatchLegacyControlLabels) {
  // These strings appear verbatim in Status error messages ("deadline
  // exceeded at scan"); renaming a stage is an API break, pin them.
  EXPECT_STREQ(TraceStageName(TraceStage::kScan), "scan");
  EXPECT_STREQ(TraceStageName(TraceStage::kJoinBuild), "join build");
  EXPECT_STREQ(TraceStageName(TraceStage::kJoinProbe), "join probe");
  EXPECT_STREQ(TraceStageName(TraceStage::kGallopIntersect), "gallop intersect");
  EXPECT_STREQ(TraceStageName(TraceStage::kGallopEmit), "gallop emit");
  EXPECT_STREQ(TraceStageName(TraceStage::kFusedScan), "fused scan");
  EXPECT_STREQ(TraceStageName(TraceStage::kFusedProject), "fused project");
  EXPECT_STREQ(TraceStageName(TraceStage::kFilter), "filter");
  EXPECT_STREQ(TraceStageName(TraceStage::kProjection), "projection");
  EXPECT_STREQ(TraceStageName(TraceStage::kAggregation), "aggregation");
  EXPECT_STREQ(TraceStageName(TraceStage::kAggregationMerge),
               "aggregation merge");
  EXPECT_STREQ(TraceStageName(TraceStage::kPlanStep), "plan step");
  EXPECT_STREQ(TraceStageName(TraceStage::kMcValidation), "mc validation");
}

TEST(TelemetryTrace, SummarySkipsUntouchedStages) {
  QueryTrace trace;
  trace.AddStage(TraceStage::kScan, 1500, 3);
  trace.AddRows(TraceStage::kScan, 100);
  trace.AddCounter(TraceCounter::kGallopSeeks, 7);
  const QueryTraceSummary s = trace.Summary();
  ASSERT_EQ(s.stages.size(), 1u);
  EXPECT_EQ(s.stages[0].stage, TraceStage::kScan);
  EXPECT_EQ(s.stages[0].tasks, 3);
  EXPECT_EQ(s.stages[0].rows, 100);
  EXPECT_NEAR(s.StageSeconds(TraceStage::kScan), 1.5e-6, 1e-12);
  EXPECT_EQ(s.StageRows(TraceStage::kScan), 100);
  EXPECT_EQ(s.StageSeconds(TraceStage::kFilter), 0.0);
  EXPECT_EQ(s.CounterValue(TraceCounter::kGallopSeeks), 7);
  const std::string text = s.ToString();
  EXPECT_NE(text.find("scan"), std::string::npos);
  EXPECT_NE(text.find("gallop_seeks=7"), std::string::npos);
}

TEST(TelemetryTrace, ConcurrentRecordingMergesExactly) {
  QueryTrace trace;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace] {
      for (int i = 0; i < kPerThread; ++i) {
        trace.AddStage(TraceStage::kScan, 10, 1);
        trace.AddRows(TraceStage::kScan, 2);
        trace.AddCounter(TraceCounter::kEngineQueries, 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const QueryTraceSummary s = trace.Summary();
  constexpr int64_t kTotal = int64_t{kThreads} * kPerThread;
  ASSERT_EQ(s.stages.size(), 1u);
  EXPECT_EQ(s.stages[0].tasks, kTotal);
  EXPECT_EQ(s.stages[0].rows, 2 * kTotal);
  EXPECT_EQ(s.CounterValue(TraceCounter::kEngineQueries), kTotal);
}

TEST(TelemetryTrace, SpanRecordsOneTaskAndElapsedTime) {
  QueryTrace trace;
  { TraceSpan span(&trace, TraceStage::kAggregation); }
  const QueryTraceSummary s = trace.Summary();
  ASSERT_EQ(s.stages.size(), 1u);
  EXPECT_EQ(s.stages[0].stage, TraceStage::kAggregation);
  EXPECT_EQ(s.stages[0].tasks, 1);
  EXPECT_GE(s.stages[0].seconds, 0.0);
}

TEST(TelemetryTrace, NullTraceSpanIsInert) {
  // Must not crash or record anywhere; this is the untraced serving path.
  TraceSpan span(nullptr, TraceStage::kScan);
  QueueWaitProbe probe(nullptr);
  probe.NoteTaskStart();
  LatencyTimer timer(nullptr);
}

TEST(TelemetryTrace, QueueWaitProbeRecordsFirstTaskOnly) {
  QueryTrace trace;
  QueueWaitProbe probe(&trace);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&probe] {
      for (int i = 0; i < 100; ++i) probe.NoteTaskStart();
    });
  }
  for (auto& t : threads) t.join();
  const QueryTraceSummary s = trace.Summary();
  ASSERT_EQ(s.stages.size(), 1u);
  EXPECT_EQ(s.stages[0].stage, TraceStage::kQueueWait);
  EXPECT_EQ(s.stages[0].tasks, 1);
}

TEST(TelemetryLatencyTimer, ObservesIntoHistogram) {
  Histogram h;
  { LatencyTimer timer(&h); }
  EXPECT_EQ(h.Snapshot().count, 1);
}

}  // namespace
}  // namespace blend
