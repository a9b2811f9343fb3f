#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace blend {

/// Resolves a user-facing thread-count knob: 0 means "one per hardware
/// thread"; 1 and any negative value force serial execution. Shared by the
/// offline index build and the online query engine so both knobs read the
/// same way.
inline size_t ResolveThreads(int num_threads) {
  if (num_threads > 1) return static_cast<size_t>(num_threads);
  if (num_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
  }
  return 1;
}

/// Concatenates per-task output buffers in task order — the second half of
/// the ParallelFor determinism idiom: workers write only their own
/// task-indexed slot, and the ordered concatenation makes the result
/// independent of which worker ran which task.
template <typename T>
std::vector<T> ConcatParts(std::vector<std::vector<T>> parts) {
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<T> out;
  out.reserve(total);
  for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

/// Runs `fn` once on a new detached thread and returns at once: for cleanup
/// no caller waits for, such as freeing the file a snapshot save replaced
/// (index/snapshot.cc). Each call starts one thread, so call it only when
/// there is work to hand off. The process may exit while `fn` still runs,
/// so `fn` must touch nothing that static destruction tears down. When no
/// thread can be started, `fn` runs inline.
void RunDetached(std::function<void()> fn);

/// A shared work-stealing task scheduler: a persistent pool of worker
/// threads, each owning a deque of task chunks. Owners pop their newest
/// chunk (LIFO keeps recursively split ranges cache-hot); idle workers and
/// external waiters steal the oldest chunk from a victim (FIFO takes the
/// largest undivided range). Replaces the per-stage `std::thread` spawning
/// of the old `ParallelFor`, whose tens-of-µs setup dominated small seeker
/// queries.
///
/// Execution model:
///   - `ParallelFor(n, fn)` runs fn(t) for every t in [0, n) and blocks
///     until all tasks finished. The calling thread participates, so a pool
///     is never idle while its submitter spins.
///   - Nested submission is supported and cannot deadlock or oversubscribe:
///     a task that itself calls ParallelFor pushes the nested chunks onto
///     the worker's own deque and waits *by helping* — it only ever executes
///     chunks of the group it is waiting on, so blocked stacks stay bounded
///     by the nesting depth and no thread sleeps while its group has
///     claimable work.
///   - Any number of external (non-pool) threads may call ParallelFor
///     concurrently; groups share the pool and each caller helps drain its
///     own group. This is what the concurrent serving layer builds on.
///
/// Determinism is the caller's contract, unchanged from the old
/// ParallelFor: fn must write only to task-id-indexed slots, so the result
/// never depends on which worker ran which task or in what order tasks
/// finished.
///
/// Exceptions thrown by tasks are captured (first one wins; later tasks of
/// the group are skipped) and rethrown on the submitting thread.
class Scheduler {
 public:
  /// `num_threads` counts the submitting thread: a Scheduler(4) runs 3
  /// background workers plus the caller. 0 = one per hardware thread;
  /// 1 (and negative) spawns nothing and runs every ParallelFor inline.
  explicit Scheduler(int num_threads = 0);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Maximum number of threads a ParallelFor can occupy (workers + caller).
  size_t parallelism() const { return queues_.size() + 1; }

  /// Runs fn(t) for every t in [0, num_tasks); returns when all tasks have
  /// finished. Callable from any thread, including from inside a task.
  template <typename Fn>
  void ParallelFor(size_t num_tasks, const Fn& fn) {
    if (num_tasks == 0) return;
    if (queues_.empty() || num_tasks == 1) {
      for (size_t t = 0; t < num_tasks; ++t) fn(t);
      return;
    }
    Execute(
        num_tasks,
        [](void* f, size_t t) { (*static_cast<const Fn*>(f))(t); },
        const_cast<void*>(static_cast<const void*>(&fn)));
  }

  /// The process-wide pool, one worker per hardware thread: what engines use
  /// unless the caller supplies its own. Lazily constructed, never
  /// destroyed (worker threads must not be joined from static teardown).
  static Scheduler* Default();

  /// A process-wide zero-worker scheduler: ParallelFor runs inline. The
  /// explicit way to request serial execution through a `Scheduler*` knob.
  static Scheduler* Serial();

 private:
  struct Group;
  struct Chunk {
    Group* group;
    size_t begin;
    size_t end;
  };
  struct WorkerQueue;

  using InvokeFn = void (*)(void*, size_t);

  /// Index passed for threads that are not pool workers of this scheduler.
  static constexpr size_t kExternal = static_cast<size_t>(-1);

  void Execute(size_t num_tasks, InvokeFn invoke, void* ctx);
  void WorkerLoop(size_t self);
  /// Own-queue index of the calling thread, or kExternal.
  size_t SelfIndex() const;
  void PushChunk(size_t self, Chunk c);
  /// Claims one chunk: own queue newest-first, then steals oldest-first.
  /// With `filter` set, only chunks of that group are taken (help-first
  /// waiting).
  bool TryAcquire(size_t self, const Group* filter, Chunk* out);
  /// Splits a chunk down to single tasks (sharing the halves) and runs one.
  void RunChunk(size_t self, Chunk c);
  /// Returns true when this call performed the group's final task.
  static bool RunTask(Group* g, size_t index);
  void NotifyGroupDone();

  std::vector<std::unique_ptr<WorkerQueue>> queues_;  // one per worker
  std::vector<std::thread> workers_;

  /// Chunks currently sitting in deques (claimed chunks excluded).
  std::atomic<size_t> pending_{0};
  /// Workers asleep on idle_cv_; lets PushChunk skip the wakeup mutex when
  /// everyone is already running.
  std::atomic<size_t> sleepers_{0};
  /// Round-robin victim cursor for external pushes and steal starts.
  std::atomic<size_t> rr_{0};

  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  bool stop_ = false;  // guarded by idle_mu_

  /// Completion signaling for group waiters lives on the scheduler, not the
  /// group: a finishing worker must never touch group memory after its final
  /// `done` increment, or it would race the waiter destroying the group.
  std::mutex done_mu_;
  std::condition_variable done_cv_;
};

}  // namespace blend
