#include "common/scheduler.h"

#include <chrono>
#include <exception>
#include <system_error>

#include "common/telemetry.h"

namespace blend {

namespace {

/// Identifies the pool (if any) the current thread belongs to. A worker
/// belongs to exactly one scheduler; threads of other schedulers and client
/// threads are "external" and steal instead of owning a deque.
thread_local const Scheduler* tls_owner = nullptr;
thread_local size_t tls_index = 0;

/// Pool utilization metrics, summed over every live Scheduler in the
/// process. Cached pointers: registration happens once, recording is a
/// relaxed sharded add.
struct SchedulerMetrics {
  Counter* tasks;
  Counter* local_pops;
  Counter* steals;
  Gauge* workers;
  Gauge* sleeping;

  static const SchedulerMetrics& Get() {
    static const SchedulerMetrics m = [] {
      auto& reg = MetricsRegistry::Global();
      SchedulerMetrics out;
      out.tasks = reg.GetCounter("blend_scheduler_tasks_total");
      // Chunks a worker claimed from its own deque (LIFO pop) vs from
      // another worker's (FIFO steal).
      out.local_pops = reg.GetCounter("blend_scheduler_local_pops_total");
      out.steals = reg.GetCounter("blend_scheduler_steals_total");
      out.workers = reg.GetGauge("blend_scheduler_workers");
      // Workers blocked on the idle condvar.
      out.sleeping = reg.GetGauge("blend_scheduler_sleeping_workers");
      return out;
    }();
    return m;
  }
};

}  // namespace

/// One parallel-for invocation. Stack-allocated by the waiter; workers only
/// touch it between claiming a chunk and the final `done` increment.
struct Scheduler::Group {
  InvokeFn invoke = nullptr;
  void* ctx = nullptr;
  size_t num_tasks = 0;
  std::atomic<size_t> done{0};
  /// Set by the first failing task; publication to the waiter rides the
  /// release sequence of `done` (every later increment is an RMW).
  std::atomic<bool> failed{false};
  std::exception_ptr error;
};

struct Scheduler::WorkerQueue {
  std::mutex mu;
  std::deque<Chunk> items;
};

void RunDetached(std::function<void()> fn) {
  try {
    std::thread(fn).detach();
  } catch (const std::system_error&) {
    fn();
  }
}

Scheduler::Scheduler(int num_threads) {
  const size_t total = ResolveThreads(num_threads);
  const size_t num_workers = total > 1 ? total - 1 : 0;
  queues_.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
  SchedulerMetrics::Get().workers->Add(static_cast<int64_t>(num_workers));
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lk(idle_mu_);
    stop_ = true;
  }
  idle_cv_.notify_all();
  for (auto& w : workers_) w.join();
  SchedulerMetrics::Get().workers->Add(-static_cast<int64_t>(workers_.size()));
}

Scheduler* Scheduler::Default() {
  // Leaked deliberately: joining pool threads during static destruction
  // deadlocks if any static destructor still runs queries.
  static Scheduler* pool = new Scheduler(0);
  return pool;
}

Scheduler* Scheduler::Serial() {
  static Scheduler* serial = new Scheduler(1);
  return serial;
}

size_t Scheduler::SelfIndex() const {
  return tls_owner == this ? tls_index : kExternal;
}

void Scheduler::PushChunk(size_t self, Chunk c) {
  WorkerQueue& q = self != kExternal
                       ? *queues_[self]
                       : *queues_[rr_.fetch_add(1) % queues_.size()];
  // pending_ rises before the chunk is visible so it can never dip below the
  // true queue population (TryAcquire decrements after removal).
  pending_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lk(q.mu);
    q.items.push_back(c);
  }
  // Wake one sleeper. The sleepers_ gate keeps the hot path (everyone busy,
  // splits flowing) free of the wakeup mutex; the sleep path re-checks
  // pending_ under idle_mu_ before blocking, so the gate cannot lose a
  // wakeup.
  if (sleepers_.load() > 0) {
    std::lock_guard<std::mutex> lk(idle_mu_);
    idle_cv_.notify_one();
  }
}

bool Scheduler::TryAcquire(size_t self, const Group* filter, Chunk* out) {
  const size_t n = queues_.size();
  if (self != kExternal) {
    WorkerQueue& q = *queues_[self];
    std::lock_guard<std::mutex> lk(q.mu);
    for (auto it = q.items.rbegin(); it != q.items.rend(); ++it) {
      if (filter == nullptr || it->group == filter) {
        *out = *it;
        q.items.erase(std::next(it).base());
        pending_.fetch_sub(1);
        SchedulerMetrics::Get().local_pops->Increment();
        return true;
      }
    }
  }
  const size_t start = self != kExternal ? self + 1 : rr_.fetch_add(1);
  for (size_t i = 0; i < n; ++i) {
    const size_t victim = (start + i) % n;
    if (victim == self) continue;
    WorkerQueue& q = *queues_[victim];
    std::lock_guard<std::mutex> lk(q.mu);
    for (auto it = q.items.begin(); it != q.items.end(); ++it) {
      if (filter == nullptr || it->group == filter) {
        *out = *it;
        q.items.erase(it);
        pending_.fetch_sub(1);
        SchedulerMetrics::Get().steals->Increment();
        return true;
      }
    }
  }
  return false;
}

bool Scheduler::RunTask(Group* g, size_t index) {
  SchedulerMetrics::Get().tasks->Increment();
  if (!g->failed.load(std::memory_order_acquire)) {
    try {
      g->invoke(g->ctx, index);
    } catch (...) {
      bool expected = false;
      if (g->failed.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
        g->error = std::current_exception();
      }
    }
  }
  // Everything needed after the increment is read before it: the waiter is
  // free to destroy the (stack-allocated) group the instant it observes
  // done == num_tasks, so the final incrementer must not touch *g again.
  const size_t num_tasks = g->num_tasks;
  return g->done.fetch_add(1, std::memory_order_acq_rel) + 1 == num_tasks;
}

void Scheduler::RunChunk(size_t self, Chunk c) {
  // Eager binary splitting: share the upper half at every level so thieves
  // find large contiguous ranges, then run exactly one task. The owner pops
  // the remainder back newest-first, walking its range in ascending task
  // order.
  while (c.end - c.begin > 1) {
    const size_t mid = c.begin + (c.end - c.begin) / 2;
    PushChunk(self, {c.group, mid, c.end});
    c.end = mid;
  }
  if (RunTask(c.group, c.begin)) NotifyGroupDone();
}

void Scheduler::NotifyGroupDone() {
  // Touches only scheduler members (the group may be a waiter's dead stack
  // frame by now). notify under the lock so a waiter checking its predicate
  // cannot slip between the check and the wait.
  std::lock_guard<std::mutex> lk(done_mu_);
  done_cv_.notify_all();
}

void Scheduler::Execute(size_t num_tasks, InvokeFn invoke, void* ctx) {
  Group g;
  g.invoke = invoke;
  g.ctx = ctx;
  g.num_tasks = num_tasks;

  const size_t self = SelfIndex();
  PushChunk(self, {&g, 0, num_tasks});

  // Wait by helping: claim chunks of this group only (own deque first, then
  // steal), so a nested submitter never buries its stack under unrelated
  // long-running tasks. When nothing is claimable the stragglers are already
  // running on other threads; yield for a few ms (a morsel is tens of µs, a
  // discovery plan's step a few ms), then block on the completion condvar.
  // Yielding hands the CPU to any runnable thread but keeps the waiter on
  // it: a waiter that sleeps through a plan step tends to wake on another
  // CPU, away from the caches its next serial work needs.
  Chunk c;
  int idle_rounds = 0;
  while (g.done.load(std::memory_order_acquire) < num_tasks) {
    if (TryAcquire(self, &g, &c)) {
      RunChunk(self, c);
      idle_rounds = 0;
      continue;
    }
    if (++idle_rounds < 4096) {
      std::this_thread::yield();
      continue;
    }
    std::unique_lock<std::mutex> lk(done_mu_);
    done_cv_.wait_for(lk, std::chrono::milliseconds(1), [&] {
      return g.done.load(std::memory_order_acquire) >= num_tasks;
    });
  }
  if (g.failed.load(std::memory_order_acquire)) {
    std::rethrow_exception(g.error);
  }
}

void Scheduler::WorkerLoop(size_t self) {
  tls_owner = this;
  tls_index = self;
  Chunk c;
  while (true) {
    if (TryAcquire(self, nullptr, &c)) {
      RunChunk(self, c);
      continue;
    }
    std::unique_lock<std::mutex> lk(idle_mu_);
    sleepers_.fetch_add(1);
    SchedulerMetrics::Get().sleeping->Add(1);
    idle_cv_.wait(lk, [&] { return stop_ || pending_.load() > 0; });
    sleepers_.fetch_sub(1);
    SchedulerMetrics::Get().sleeping->Add(-1);
    if (stop_) return;
  }
}

}  // namespace blend
