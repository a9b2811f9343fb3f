#pragma once

#include <chrono>

namespace blend {

/// Monotonic wall-clock stopwatch: times plan optimization and steps, MC
/// validation and snapshot phases, and the benchmark harnesses.
class StopWatch {
 public:
  StopWatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace blend
