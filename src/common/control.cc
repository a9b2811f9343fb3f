#include "common/control.h"

#include <atomic>
#include <string>

namespace blend {
namespace {

double ToMillis(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

std::string FormatMillis(double ms) {
  char buf[48];
  // Formatting into a returned string, not a terminal write.
  // blend-lint: allow(no-raw-stdio)
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

}  // namespace

/// Shared, thread-safe constraint state. Handles in one query (and nested
/// batch handles) point at a chain of these; the chain is at most two deep in
/// practice (caller control -> batch control). All flags are sticky and use
/// relaxed atomics: cancellation/exhaustion only need eventual visibility,
/// not ordering of surrounding memory, and the query's own result is
/// discarded once any flag trips.
struct QueryControl::State {
  std::shared_ptr<State> parent;

  std::atomic<bool> cancelled{false};

  bool has_deadline = false;
  std::chrono::steady_clock::time_point start{};
  std::chrono::steady_clock::time_point deadline{};
  std::chrono::nanoseconds budget{0};

  int64_t mem_limit = 0;  // 0 = untracked
  std::atomic<int64_t> mem_used{0};
  std::atomic<bool> exhausted{false};
  std::atomic<int64_t> exhausted_request{0};
};

std::shared_ptr<QueryControl::State> QueryControl::EnsureState(
    QueryControl* c) {
  if (c->state_ == nullptr) c->state_ = std::make_shared<State>();
  return c->state_;
}

QueryControl QueryControl::Cancellable() {
  QueryControl c;
  EnsureState(&c);
  return c;
}

QueryControl QueryControl::WithDeadline(std::chrono::nanoseconds budget) {
  QueryControl c;
  c.SetDeadline(budget);
  return c;
}

QueryControl QueryControl::WithMemoryBudget(int64_t bytes) {
  QueryControl c;
  c.SetMemoryBudget(bytes);
  return c;
}

QueryControl QueryControl::Nested(const QueryControl& parent) {
  QueryControl c;
  EnsureState(&c)->parent = parent.state_;
  return c;
}

QueryControl& QueryControl::SetDeadline(std::chrono::nanoseconds budget) {
  auto s = EnsureState(this);
  s->has_deadline = true;
  s->start = std::chrono::steady_clock::now();
  s->deadline = s->start + budget;
  s->budget = budget;
  return *this;
}

QueryControl& QueryControl::SetMemoryBudget(int64_t bytes) {
  EnsureState(this)->mem_limit = bytes;
  return *this;
}

void QueryControl::Cancel() const {
  if (state_ != nullptr) state_->cancelled.store(true, std::memory_order_relaxed);
}

bool QueryControl::cancelled() const {
  for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
    if (s->cancelled.load(std::memory_order_relaxed)) return true;
  }
  return false;
}

bool QueryControl::ShouldStop() const {
  bool any_deadline = false;
  for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
    if (s->cancelled.load(std::memory_order_relaxed) ||
        s->exhausted.load(std::memory_order_relaxed)) {
      return true;
    }
    any_deadline = any_deadline || s->has_deadline;
  }
  if (!any_deadline) return false;
  const auto now = std::chrono::steady_clock::now();
  for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
    if (s->has_deadline && now >= s->deadline) return true;
  }
  return false;
}

Status QueryControl::Check(const char* where) const {
  if (state_ == nullptr) return Status::OK();
  for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
    if (s->cancelled.load(std::memory_order_relaxed)) {
      return Status::Cancelled(std::string("query cancelled during ") + where);
    }
    if (s->exhausted.load(std::memory_order_relaxed)) {
      return Status::ResourceExhausted(
          "query memory budget exhausted during " + std::string(where) +
          " (budget " + std::to_string(s->mem_limit) + " bytes, used " +
          std::to_string(s->mem_used.load(std::memory_order_relaxed)) +
          ", last request " +
          std::to_string(s->exhausted_request.load(std::memory_order_relaxed)) +
          ")");
    }
  }
  const auto now = std::chrono::steady_clock::now();
  for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
    if (s->has_deadline && now >= s->deadline) {
      return Status::DeadlineExceeded(
          "query deadline exceeded during " + std::string(where) + " (" +
          FormatMillis(ToMillis(now - s->start)) + " ms elapsed, budget " +
          FormatMillis(ToMillis(s->budget)) + " ms)");
    }
  }
  return Status::OK();
}

Status QueryControl::ChargeMemory(int64_t bytes) const {
  if (state_ == nullptr || bytes <= 0) return Status::OK();
  for (State* s = state_.get(); s != nullptr; s = s->parent.get()) {
    const int64_t used =
        s->mem_used.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (s->mem_limit > 0 && used > s->mem_limit) {
      // Roll the failed charge back everywhere it was applied (this state
      // and every ancestor already charged), then trip sticky.
      s->exhausted_request.store(bytes, std::memory_order_relaxed);
      s->exhausted.store(true, std::memory_order_relaxed);
      for (State* r = state_.get(); r != nullptr; r = r->parent.get()) {
        r->mem_used.fetch_sub(bytes, std::memory_order_relaxed);
        if (r == s) break;
      }
      return Status::ResourceExhausted(
          "query memory budget exhausted (budget " +
          std::to_string(s->mem_limit) + " bytes, requested " +
          std::to_string(bytes) + " more after " +
          std::to_string(used - bytes) + " in use)");
    }
  }
  return Status::OK();
}

void QueryControl::ReleaseMemory(int64_t bytes) const {
  if (state_ == nullptr || bytes <= 0) return;
  for (State* s = state_.get(); s != nullptr; s = s->parent.get()) {
    s->mem_used.fetch_sub(bytes, std::memory_order_relaxed);
  }
}

int64_t QueryControl::MemoryUsed() const {
  if (state_ == nullptr) return 0;
  return state_->mem_used.load(std::memory_order_relaxed);
}

}  // namespace blend
