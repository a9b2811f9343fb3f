#include "common/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <set>

#include "common/json_check.h"
#include "common/table_printer.h"

namespace blend {

namespace telemetry_internal {

size_t ShardIndex() {
  // Distinct threads get consecutive shard slots; the counter only matters
  // for distribution, so relaxed is enough.
  static std::atomic<size_t> next{0};
  thread_local const size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

uint32_t TrackId() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace telemetry_internal

namespace {

std::array<double, kHistogramFiniteBounds> MakeBounds() {
  // √2-multiplicative ladder from 1µs: bounds[k] = 1e-6 * 2^(k/2).
  std::array<double, kHistogramFiniteBounds> b{};
  const double sqrt2 = std::sqrt(2.0);
  double v = 1e-6;
  for (size_t i = 0; i < b.size(); ++i) {
    b[i] = v;
    v *= sqrt2;
  }
  return b;
}

/// Exact microseconds with nanosecond decimals ("1234.567") for a
/// non-negative span offset or duration.
std::string Micros(int64_t nanos) {
  return std::to_string(nanos / 1000) + "." +
         std::to_string(1000 + nanos % 1000).substr(1);
}

}  // namespace

const std::array<double, kHistogramFiniteBounds>& HistogramBounds() {
  static const std::array<double, kHistogramFiniteBounds> bounds = MakeBounds();
  return bounds;
}

HistogramSnapshot HistogramSnapshot::Delta(
    const HistogramSnapshot& earlier) const {
  HistogramSnapshot d;
  for (size_t i = 0; i < buckets.size(); ++i) {
    d.buckets[i] = buckets[i] - earlier.buckets[i];
  }
  d.count = count - earlier.count;
  d.sum_seconds = sum_seconds - earlier.sum_seconds;
  return d;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count <= 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(count);
  const auto& bounds = HistogramBounds();
  double cum = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket <= 0) continue;
    if (cum + in_bucket >= target) {
      // +Inf bucket: no finite upper edge, report the largest finite bound.
      if (i >= bounds.size()) return bounds.back();
      const double lower = (i == 0) ? 0.0 : bounds[i - 1];
      const double upper = bounds[i];
      const double frac = (target - cum) / in_bucket;
      return lower + frac * (upper - lower);
    }
    cum += in_bucket;
  }
  return bounds.back();
}

void Histogram::Observe(double seconds) {
  const auto& bounds = HistogramBounds();
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), seconds) - bounds.begin());
  Shard& s = shards_[telemetry_internal::ShardIndex()];
  s.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  s.sum_nanos.fetch_add(static_cast<int64_t>(seconds * 1e9),
                        std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  int64_t sum_nanos = 0;
  for (const Shard& s : shards_) {
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      snap.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
    sum_nanos += s.sum_nanos.load(std::memory_order_relaxed);
  }
  for (int64_t b : snap.buckets) snap.count += b;
  snap.sum_seconds = static_cast<double>(sum_nanos) * 1e-9;
  return snap;
}

const MetricSample* RegistrySnapshot::Find(const std::string& name) const {
  for (const auto& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = MetricKind::kCounter;
    e.counter = std::make_unique<Counter>();
    it = entries_.emplace(name, std::move(e)).first;
  }
  BLEND_CHECK(it->second.kind == MetricKind::kCounter,
              "metric re-registered with a different kind");
  return it->second.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = MetricKind::kGauge;
    e.gauge = std::make_unique<Gauge>();
    it = entries_.emplace(name, std::move(e)).first;
  }
  BLEND_CHECK(it->second.kind == MetricKind::kGauge,
              "metric re-registered with a different kind");
  return it->second.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = MetricKind::kHistogram;
    e.histogram = std::make_unique<Histogram>();
    it = entries_.emplace(name, std::move(e)).first;
  }
  BLEND_CHECK(it->second.kind == MetricKind::kHistogram,
              "metric re-registered with a different kind");
  return it->second.histogram.get();
}

RegistrySnapshot MetricsRegistry::Collect() const {
  RegistrySnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.samples.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    MetricSample s;
    s.name = name;
    s.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter: s.value = entry.counter->Value(); break;
      case MetricKind::kGauge: s.value = entry.gauge->Value(); break;
      case MetricKind::kHistogram: s.hist = entry.histogram->Snapshot(); break;
    }
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked intentionally: instrument pointers cached by call sites must
  // outlive every thread, including detached static-teardown order.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

double QueryTraceSummary::StageSeconds(TraceStage s) const {
  for (const StageSummary& st : stages) {
    if (st.stage == s) return st.seconds;
  }
  return 0;
}

int64_t QueryTraceSummary::StageRows(TraceStage s) const {
  for (const StageSummary& st : stages) {
    if (st.stage == s) return st.rows;
  }
  return 0;
}

std::string QueryTraceSummary::ToString() const {
  TablePrinter table({"stage", "wall_ms", "tasks", "rows"});
  for (const StageSummary& st : stages) {
    table.AddRow({TraceStageName(st.stage), TablePrinter::Fmt(st.seconds * 1e3, 3),
                  std::to_string(st.tasks), std::to_string(st.rows)});
  }
  std::string out = table.Render("query trace");
  out += "counters:";
  for (size_t i = 0; i < counters.size(); ++i) {
    out += " ";
    out += TraceCounterName(static_cast<TraceCounter>(i));
    out += "=" + std::to_string(counters[i]);
  }
  out += "\n";
  return out;
}

/// Mutex-guarded bounded buffer behind the opt-in span capture. The mutex is
/// fine here: capture is off on the serving hot path and only enabled for
/// explicit trace-export runs.
struct QueryTrace::SpanCapture {
  std::mutex mu;
  std::chrono::steady_clock::time_point epoch;
  size_t max_spans = 0;
  std::vector<CapturedSpan> spans;
  int64_t dropped = 0;
};

QueryTrace::QueryTrace() = default;
QueryTrace::~QueryTrace() = default;

void QueryTrace::EnableSpanCapture(size_t max_spans) {
  if (capture_ != nullptr) return;
  capture_ = std::make_unique<SpanCapture>();
  capture_->epoch = std::chrono::steady_clock::now();
  capture_->max_spans = max_spans == 0 ? 1 : max_spans;
}

void QueryTrace::CaptureSpan(TraceStage stage,
                             std::chrono::steady_clock::time_point start,
                             std::chrono::steady_clock::time_point end) {
  if (capture_ == nullptr) return;
  CapturedSpan span;
  span.stage = stage;
  span.start_nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         start - capture_->epoch)
                         .count();
  span.dur_nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
  span.track = telemetry_internal::TrackId();
  std::lock_guard<std::mutex> lock(capture_->mu);
  if (capture_->spans.size() >= capture_->max_spans) {
    ++capture_->dropped;
    return;
  }
  capture_->spans.push_back(span);
}

std::vector<CapturedSpan> QueryTrace::TakeSpans() {
  if (capture_ == nullptr) return {};
  std::vector<CapturedSpan> spans;
  {
    std::lock_guard<std::mutex> lock(capture_->mu);
    spans = std::move(capture_->spans);
    capture_->spans.clear();
  }
  std::sort(spans.begin(), spans.end(),
            [](const CapturedSpan& a, const CapturedSpan& b) {
              if (a.start_nanos != b.start_nanos) {
                return a.start_nanos < b.start_nanos;
              }
              if (a.track != b.track) return a.track < b.track;
              return static_cast<int>(a.stage) < static_cast<int>(b.stage);
            });
  return spans;
}

int64_t QueryTrace::DroppedSpans() const {
  if (capture_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(capture_->mu);
  return capture_->dropped;
}

QueryTraceSummary QueryTrace::Summary() const {
  QueryTraceSummary summary;
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    const StageCell& cell = stages_[i];
    const int64_t nanos = cell.nanos.load(std::memory_order_relaxed);
    const int64_t tasks = cell.tasks.load(std::memory_order_relaxed);
    const int64_t rows = cell.rows.load(std::memory_order_relaxed);
    if (nanos == 0 && tasks == 0 && rows == 0) continue;
    StageSummary st;
    st.stage = static_cast<TraceStage>(i);
    st.seconds = static_cast<double>(nanos) * 1e-9;
    st.tasks = tasks;
    st.rows = rows;
    summary.stages.push_back(st);
  }
  for (size_t i = 0; i < kNumTraceCounters; ++i) {
    summary.counters[i] = counters_[i].load(std::memory_order_relaxed);
  }
  return summary;
}

std::string RenderChromeTrace(const std::vector<CapturedSpan>& spans) {
  // Stable track order: one metadata event per distinct worker track.
  std::set<uint32_t> tracks;
  for (const CapturedSpan& s : spans) tracks.insert(s.track);

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto append_event = [&](const std::string& body) {
    if (!first) out += ",";
    first = false;
    out += "{" + body + "}";
  };
  append_event(
      "\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"blend\"}");
  for (const uint32_t t : tracks) {
    append_event("\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" +
                 std::to_string(t) + ",\"args\":{\"name\":\"worker-" +
                 std::to_string(t) + "\"}");
  }
  for (const CapturedSpan& s : spans) {
    std::string name;
    AppendJsonString(TraceStageName(s.stage), &name);
    append_event("\"ph\":\"X\",\"name\":" + name +
                 ",\"cat\":\"blend\",\"pid\":1,\"tid\":" +
                 std::to_string(s.track) + ",\"ts\":" +
                 Micros(s.start_nanos) + ",\"dur\":" + Micros(s.dur_nanos));
  }
  out += "]}";
  return out;
}

namespace {

/// Extracts the top-level objects of the JSON array starting at `begin`
/// (the byte after '['). Assumes the document already passed ValidateJson,
/// so only quote/brace tracking is needed. Returns the object substrings.
std::vector<std::string> SplitArrayObjects(const std::string& text,
                                           size_t begin) {
  std::vector<std::string> objects;
  int depth = 0;
  bool in_string = false;
  size_t obj_start = 0;
  for (size_t i = begin; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth == 0) obj_start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) objects.push_back(text.substr(obj_start, i - obj_start + 1));
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  return objects;
}

/// The integer value of `"key":<int>` inside one flat event object, or -1.
int64_t EventIntField(const std::string& obj, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = obj.find(needle);
  if (at == std::string::npos) return -1;
  return std::atoll(obj.c_str() + at + needle.size());
}

/// The one-character `"ph"` phase of an event object, or '\0'.
char EventPhase(const std::string& obj) {
  const size_t at = obj.find("\"ph\":\"");
  if (at == std::string::npos || at + 6 >= obj.size()) return '\0';
  return obj[at + 6];
}

}  // namespace

Status ValidateChromeTraceJson(const std::string& text) {
  BLEND_RETURN_NOT_OK(ValidateJson(text));
  const size_t events_key = text.find("\"traceEvents\"");
  if (events_key == std::string::npos) {
    return Status::InvalidArgument("trace document has no traceEvents array");
  }
  const size_t open = text.find('[', events_key);
  if (open == std::string::npos) {
    return Status::InvalidArgument("traceEvents is not an array");
  }
  const std::vector<std::string> events = SplitArrayObjects(text, open + 1);
  if (events.empty()) {
    return Status::InvalidArgument("traceEvents array has no events");
  }
  std::set<int64_t> named_tracks;
  std::set<int64_t> span_tracks;
  for (size_t i = 0; i < events.size(); ++i) {
    const std::string& ev = events[i];
    const std::string where = "event " + std::to_string(i);
    if (ev.find("\"name\":") == std::string::npos) {
      return Status::InvalidArgument(where + ": missing name");
    }
    const char ph = EventPhase(ev);
    if (ph == '\0') {
      return Status::InvalidArgument(where + ": missing ph");
    }
    if (ph != 'X' && ph != 'M') {
      return Status::InvalidArgument(where + ": unexpected phase '" +
                                     std::string(1, ph) + "'");
    }
    if (EventIntField(ev, "pid") < 0) {
      return Status::InvalidArgument(where + ": missing pid");
    }
    const int64_t tid = EventIntField(ev, "tid");
    if (tid < 0) {
      return Status::InvalidArgument(where + ": missing tid");
    }
    if (ph == 'X') {
      if (ev.find("\"ts\":") == std::string::npos ||
          ev.find("\"dur\":") == std::string::npos) {
        return Status::InvalidArgument(where + ": X event missing ts/dur");
      }
      span_tracks.insert(tid);
    } else if (ev.find("\"name\":\"thread_name\"") != std::string::npos) {
      named_tracks.insert(tid);
    }
  }
  for (const int64_t tid : span_tracks) {
    if (named_tracks.count(tid) == 0) {
      return Status::InvalidArgument("track " + std::to_string(tid) +
                                     " has spans but no thread_name metadata");
    }
  }
  return Status::OK();
}

}  // namespace blend
