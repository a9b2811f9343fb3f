#pragma once

#include <chrono>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace blend {

/// Per-query execution controls: a deadline, a cooperative cancellation
/// token, and an atomic memory budget, shared by every thread working on one
/// query. A QueryControl is a cheap copyable handle over shared state; all
/// methods are const and thread-safe. The default-constructed handle is
/// inactive (no constraints, no allocation), so unconstrained queries pay a
/// single null check per control point.
///
/// Checks are cooperative: the executor's operators and the seekers call
/// Check()/ShouldStop() at morsel boundaries (task entry in the scheduler's
/// loops, serial chunk intervals), never mid-record. Every tripped constraint
/// is sticky, which is what preserves the determinism contract: once any
/// worker observes ShouldStop(), the query is guaranteed to return a
/// descriptive Status, so work skipped by other workers is discarded — a
/// query that *completes* took the exact same morsel geometry and merge order
/// as an unconstrained run and is byte-identical to it.
class QueryControl {
 public:
  /// Inactive handle: every check is a no-op.
  QueryControl() = default;

  /// Active handle with only a cancellation token.
  static QueryControl Cancellable();
  /// Active handle that trips kDeadlineExceeded once `budget` has elapsed
  /// (measured on steady_clock from this call).
  static QueryControl WithDeadline(std::chrono::nanoseconds budget);
  /// Active handle that trips kResourceExhausted when tracked materialization
  /// charges exceed `bytes`.
  static QueryControl WithMemoryBudget(int64_t bytes);

  /// Child handle for a batch member: observes every constraint of `parent`
  /// and adds an independently trippable cancellation token, so a batch can
  /// abort its own members (RunMany cancelling siblings of a failed plan)
  /// without cancelling the caller's handle.
  static QueryControl Nested(const QueryControl& parent);

  /// Adds/tightens a deadline on this handle (activates it if needed).
  QueryControl& SetDeadline(std::chrono::nanoseconds budget);
  /// Adds a memory budget on this handle (activates it if needed).
  QueryControl& SetMemoryBudget(int64_t bytes);

  bool active() const { return state_ != nullptr; }

  /// Requests cooperative cancellation; safe from any thread, idempotent.
  /// No-op on an inactive handle.
  void Cancel() const;
  bool cancelled() const;

  /// True once any constraint has tripped (cancelled, past deadline, or
  /// budget exhausted). The fast path for morsel loops; sticky.
  bool ShouldStop() const;

  /// OK, or a descriptive kCancelled / kDeadlineExceeded /
  /// kResourceExhausted naming the tripped constraint and `where` —
  /// the stage label at the check site, e.g. "scan" or "join probe".
  Status Check(const char* where) const;

  /// Accounts `bytes` of query-local materialization against the budget (and
  /// the parent chain's). On overflow the budget trips sticky and a
  /// descriptive kResourceExhausted is returned; the failed charge is rolled
  /// back so ReleaseMemory stays balanced.
  Status ChargeMemory(int64_t bytes) const;
  void ReleaseMemory(int64_t bytes) const;

  /// Currently charged bytes (0 for an inactive handle).
  int64_t MemoryUsed() const;

 private:
  struct State;
  static std::shared_ptr<State> EnsureState(QueryControl* c);

  std::shared_ptr<State> state_;
};

/// Null-safe helpers for the executor hot paths, where the common case is "no
/// control attached" (a null pointer in QueryOptions).
inline bool ShouldStop(const QueryControl* control) {
  return control != nullptr && control->ShouldStop();
}
inline Status CheckControl(const QueryControl* control, const char* where) {
  if (control == nullptr) return Status::OK();
  return control->Check(where);
}

/// RAII tracker for one operator's dominant materialization: ChargeTo(total)
/// charges only the delta above the previous high-water mark, and the
/// destructor releases everything charged, so budgets measure live peak
/// bytes, not cumulative traffic. Null-safe: with no control every call is a
/// no-op.
class ScopedMemoryCharge {
 public:
  explicit ScopedMemoryCharge(const QueryControl* control)
      : control_(control) {}
  ~ScopedMemoryCharge() {
    if (control_ != nullptr && charged_ > 0) control_->ReleaseMemory(charged_);
  }
  ScopedMemoryCharge(const ScopedMemoryCharge&) = delete;
  ScopedMemoryCharge& operator=(const ScopedMemoryCharge&) = delete;

  [[nodiscard]] Status ChargeTo(int64_t total_bytes) {
    if (control_ == nullptr || total_bytes <= charged_) return Status::OK();
    const int64_t delta = total_bytes - charged_;
    BLEND_RETURN_NOT_OK(control_->ChargeMemory(delta));
    charged_ = total_bytes;
    return Status::OK();
  }

  int64_t charged() const { return charged_; }

 private:
  const QueryControl* control_;
  int64_t charged_ = 0;
};

}  // namespace blend
