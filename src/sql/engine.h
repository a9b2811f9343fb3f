#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/scheduler.h"
#include "index/builder.h"
#include "sql/executor.h"

namespace blend::sql {

/// The embedded database engine hosting the AllTables relation. Seekers are
/// compiled to SQL text, sent here, and executed against the bundle's
/// physical store (row or column layout) — BLEND's "push the operators down
/// to the database" design.
///
/// Thread-safe: the engine is shared-immutable (it only reads the bundle),
/// so any number of threads may call Query concurrently on one instance.
/// Concurrent queries share the engine-scoped work-stealing pool — each
/// caller helps drain its own query's morsel tasks — and every result is
/// byte-identical to a serial run.
class Engine {
 public:
  /// `scheduler` is the engine-scoped pool for morsel-parallel execution;
  /// null selects the process-wide default pool (one worker per hardware
  /// thread). The bundle and the scheduler must outlive this object.
  explicit Engine(const IndexBundle* bundle, Scheduler* scheduler = nullptr)
      : bundle_(bundle),
        scheduler_(scheduler != nullptr ? scheduler : Scheduler::Default()) {}

  /// Parses and executes one statement with default QueryOptions
  /// (morsel-parallel on the engine pool). A statement is a SELECT,
  /// optionally prefixed with EXPLAIN (return the planned operator tree
  /// without executing) or EXPLAIN ANALYZE (execute, then return the
  /// executed tree with the actuals each operator recorded; the result rows
  /// are byte-identical to the bare statement's).
  Result<QueryResult> Query(const std::string& sql) const;

  /// Parses and executes one SELECT statement with explicit execution knobs.
  /// A null options.scheduler is replaced by the engine pool; pass
  /// Scheduler::Serial() to force serial execution. Results are
  /// byte-identical for every pool size.
  Result<QueryResult> Query(const std::string& sql,
                            const QueryOptions& options) const;

  const IndexBundle& bundle() const { return *bundle_; }
  const Dictionary& dictionary() const { return bundle_->dictionary(); }
  Scheduler* scheduler() const { return scheduler_; }

  /// Total statements this engine has executed (parsed or not), monotonically
  /// increasing. Counting is exact; a *delta* taken around a plan step is
  /// approximate when other threads serve queries on the same engine
  /// concurrently. Plan reports use it to pin per-operator query budgets
  /// (e.g. the SC seeker's one-exhaustive-query contract).
  uint64_t QueriesServed() const {
    return queries_.load(std::memory_order_relaxed);
  }

 private:
  const IndexBundle* bundle_;
  Scheduler* scheduler_;
  /// mutable + relaxed: Query is logically const (shared-immutable serving);
  /// the counter is observability, not synchronization.
  mutable std::atomic<uint64_t> queries_{0};
};

}  // namespace blend::sql
