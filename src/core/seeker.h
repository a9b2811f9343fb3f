#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/context.h"
#include "core/result.h"

namespace blend::core {

/// Cost-model features of a seeker input (paper §VII-B): cardinality of Q,
/// number of columns in Q, and the average frequency of Q's values in the
/// database (product of per-column averages for MC), plus the engine
/// parallelism the query would run under. Seekers compute the first three
/// from the input and the stats; the execution-environment feature is
/// stamped on by the trainer/optimizer, so predictions reflect parallel
/// runtimes instead of being calibrated for serial execution only.
struct SeekerFeatures {
  double cardinality = 0;
  double num_columns = 0;
  double avg_frequency = 0;
  /// Scheduler parallelism (pool threads incl. the caller); 1 = serial.
  double parallelism = 1;
};

/// A seeker: the atomic search operator of BLEND. Receives a set of columns Q
/// and returns the top-k most relevant tables. Seekers compile to SQL over
/// AllTables; the `$REWRITE$` placeholder in the generated statement is where
/// the optimizer injects combiner-dependent predicates
/// (`AND TableId [NOT] IN (...)`).
class Seeker {
 public:
  enum class Type { kKW = 0, kSC = 1, kC = 2, kMC = 3 };

  explicit Seeker(int k) : k_(k) {}
  virtual ~Seeker() = default;

  virtual Type type() const = 0;
  virtual std::string name() const = 0;

  /// The SQL this seeker sends to the engine, with `rewrite` substituted for
  /// the `$REWRITE$` placeholder. Exposed for inspection and tests.
  virtual std::string GenerateSql(const std::string& rewrite,
                                  int fetch_limit) const = 0;

  /// Executes against the context's engine; `rewrite` is empty or an
  /// `AND TableId [NOT] IN (...)` predicate.
  virtual Result<TableList> Execute(const DiscoveryContext& ctx,
                                    const std::string& rewrite) const = 0;

  /// Cost-model features of this seeker's input.
  virtual SeekerFeatures ComputeFeatures(const IndexStats& stats) const = 0;

  int k() const { return k_; }

  /// Rule-based rank (paper Rules 1-3): KW first, then SC, then C, MC last.
  static int RuleRank(Type t) { return static_cast<int>(t); }

 protected:
  int k_;
};

/// Single-Column seeker (paper Listing 1): top-k tables containing a column
/// overlapping the most (distinct values) with the input column.
class SCSeeker : public Seeker {
 public:
  SCSeeker(std::vector<std::string> values, int k);

  Type type() const override { return Type::kSC; }
  std::string name() const override { return "SC"; }
  std::string GenerateSql(const std::string& rewrite, int fetch_limit) const override;
  Result<TableList> Execute(const DiscoveryContext& ctx,
                            const std::string& rewrite) const override;
  SeekerFeatures ComputeFeatures(const IndexStats& stats) const override;

  const std::vector<std::string>& values() const { return values_; }

 private:
  std::vector<std::string> values_;  // distinct, normalized
};

/// Keyword seeker: like SC but overlap is measured over whole tables
/// (ColumnId dropped from the GROUP BY).
class KWSeeker : public Seeker {
 public:
  KWSeeker(std::vector<std::string> keywords, int k);

  Type type() const override { return Type::kKW; }
  std::string name() const override { return "KW"; }
  std::string GenerateSql(const std::string& rewrite, int fetch_limit) const override;
  Result<TableList> Execute(const DiscoveryContext& ctx,
                            const std::string& rewrite) const override;
  SeekerFeatures ComputeFeatures(const IndexStats& stats) const override;

 private:
  std::vector<std::string> keywords_;
};

/// Row-level true/false-positive counts of one MC execution (consumed by the
/// Table V experiment).
struct MCExecutionStats {
  size_t candidate_rows = 0;   // rows surviving the SQL join phase
  size_t bloom_pass_rows = 0;  // rows also passing the super-key filter
  size_t true_positives = 0;   // rows validated by exact matching
  size_t false_positives = 0;  // bloom_pass_rows - true_positives
};

/// Multi-Column seeker (paper Listing 2 + XASH filtering): top-k tables
/// joinable with Q on a composite key, with value alignment enforced by the
/// SQL self-join, the super-key Bloom filter, and exact validation.
class MCSeeker : public Seeker {
 public:
  /// `tuples` is row-major: tuples[i] is the i-th composite key of Q.
  MCSeeker(std::vector<std::vector<std::string>> tuples, int k);

  Type type() const override { return Type::kMC; }
  std::string name() const override { return "MC"; }
  std::string GenerateSql(const std::string& rewrite, int fetch_limit) const override;
  Result<TableList> Execute(const DiscoveryContext& ctx,
                            const std::string& rewrite) const override;
  /// Execute that also reports this execution's validation funnel in
  /// `*stats` (zeroed first; plan runs read the same counts from the trace).
  Result<TableList> Execute(const DiscoveryContext& ctx, const std::string& rewrite,
                            MCExecutionStats* stats) const;
  SeekerFeatures ComputeFeatures(const IndexStats& stats) const override;

  size_t num_key_columns() const { return num_columns_; }

 private:
  std::vector<std::vector<std::string>> tuples_;      // normalized
  std::vector<std::vector<std::string>> col_values_;  // distinct values per column
  size_t num_columns_ = 0;
};

/// Correlation seeker (paper Listing 3): top-k tables joining on Q's key and
/// containing a numeric column whose QCR-estimated correlation with the
/// target is largest in absolute value.
class CorrelationSeeker : public Seeker {
 public:
  /// `join_keys[i]` pairs with `targets[i]`. `h` is the per-query sample size
  /// (the paper's dynamically chosen sketch size).
  CorrelationSeeker(std::vector<std::string> join_keys, std::vector<double> targets,
                    int k, int h = 256);

  Type type() const override { return Type::kC; }
  std::string name() const override { return "C"; }
  std::string GenerateSql(const std::string& rewrite, int fetch_limit) const override;
  Result<TableList> Execute(const DiscoveryContext& ctx,
                            const std::string& rewrite) const override;
  SeekerFeatures ComputeFeatures(const IndexStats& stats) const override;

  int h() const { return h_; }

 private:
  std::vector<std::string> keys_below_;  // join keys whose target < mean (k0)
  std::vector<std::string> keys_above_;  // join keys whose target >= mean (k1)
  std::vector<std::string> all_keys_;    // distinct union
  int h_;
};

}  // namespace blend::core
