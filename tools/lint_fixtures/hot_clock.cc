// Fixture: the hot-clock rule. Raw monotonic-clock reads in a query/index
// hot path bypass the telemetry layer; timing belongs to TraceSpan /
// LatencyTimer / StopWatch, which are centrally accounted.
#include <chrono>

namespace blend {

double Bad() {
  const auto t0 = std::chrono::steady_clock::now();  // expect-violation(hot-clock)
  auto t1 = std::chrono::high_resolution_clock::now();  // expect-violation(hot-clock)
  return std::chrono::duration<double>(t1 - t0).count();
}

// The bare type name is free: time_point declarations and template arguments
// never read the clock.
struct Deadline {
  std::chrono::steady_clock::time_point at;
  bool Expired(std::chrono::steady_clock::time_point now) const {
    return now >= at;
  }
};

struct FakeClock {
  int ticks = 0;
  int now() { return ++ticks; }
};

int Good(FakeClock& clock) {
  // A member named now() on something that is not a std clock is fine.
  return clock.now();
}

double GoodAllowed() {
  // Deliberate clock read (e.g. a control-path deadline check) carries the
  // annotation.
  auto t = std::chrono::steady_clock::now();  // blend-lint: allow(hot-clock)
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

}  // namespace blend
