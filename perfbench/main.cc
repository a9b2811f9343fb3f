// The discovery benchmark: one process that generates a lakegen lake from a
// seed, drives the blend library's public API through one workload, checks
// every answer against a serial reference, and prints end-to-end metrics
// (untraced run) or per-layer metrics (traced run) as one JSON line.
//
//   blend_perfbench --workload {cold_start,seek,tasks} --seed N --seconds S
//                   --trace {0,1} --out-dir DIR [--commit SHA]
//
// Layers are measured from outside: the benchmark times its calls into each
// module's public functions, reads the ExecutionReport that Blend::RunReport
// returns, and diffs the process-wide MetricsRegistry. perfbench/README.md
// maps every metric to the layer it measures and the workload it moves.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/rng.h"
#include "common/scheduler.h"
#include "common/telemetry.h"
#include "core/blend.h"
#include "index/builder.h"
#include "index/codec.h"
#include "index/snapshot.h"
#include "lakegen/correlation_lake.h"
#include "lakegen/join_lake.h"
#include "lakegen/mc_lake.h"
#include "lakegen/union_lake.h"
#include "lakegen/workloads.h"
#include "sql/parser.h"

namespace {

using namespace blend;
using Clock = std::chrono::steady_clock;

constexpr int kTopK = 10;
/// Set-up repetitions per run; set-up times report the median.
constexpr int kSetupReps = 3;
/// Offline-path repetitions of the traced run's module-by-module probe.
constexpr int kOfflineProbeReps = 3;
/// Plans in cold_start's per-cycle probe.
constexpr size_t kProbePlans = 32;
/// Seek pool: groups of {SC, KW, SC, MC}, so any prefix keeps the 2:1:1 mix.
constexpr size_t kSeekGroups = 128;
/// Tasks pool: inputs per composition.
constexpr size_t kTasksPerComposition = 12;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Lake and inputs
// ---------------------------------------------------------------------------

/// One merged lake: lakegen join tables, composite-key (MC) tables,
/// composite-key correlation tables and a union lake.
struct Lake {
  DataLake lake{"perfbench"};
  lakegen::McLakeSpec mc;
  lakegen::CorrLakeSpec corr;
  /// Merged-lake ids of the union groups' designated query tables.
  std::vector<TableId> union_queries;
  size_t cells = 0;
};

TableId Append(DataLake* part, DataLake* into) {
  const auto offset = static_cast<TableId>(into->NumTables());
  for (size_t i = 0; i < part->NumTables(); ++i) {
    into->AddTable(std::move(part->table(static_cast<TableId>(i))));
  }
  return offset;
}

Lake MakeLake(uint64_t seed) {
  Lake out;
  lakegen::JoinLakeSpec join;
  join.num_tables = 4000;
  join.seed = seed * 8 + 1;
  out.mc.num_tables = 1000;
  out.mc.seed = seed * 8 + 2;
  out.corr.num_tables = 1000;
  out.corr.composite_key = true;
  out.corr.numeric_key_frac = 0.0;
  out.corr.seed = seed * 8 + 3;
  lakegen::UnionLakeSpec uni;
  uni.num_groups = 40;
  uni.seed = seed * 8 + 4;

  DataLake join_lake = lakegen::MakeJoinLake(join);
  Append(&join_lake, &out.lake);
  lakegen::McLake mc_lake = lakegen::MakeMcLake(out.mc);
  Append(&mc_lake.lake, &out.lake);
  lakegen::CorrLake corr_lake = lakegen::MakeCorrLake(out.corr);
  Append(&corr_lake.lake, &out.lake);
  lakegen::UnionLake union_lake = lakegen::MakeUnionLake(uni);
  const TableId union_offset = Append(&union_lake.lake, &out.lake);
  for (TableId q : union_lake.query_tables) out.union_queries.push_back(union_offset + q);
  out.cells = out.lake.TotalCells();
  return out;
}

enum class Kind { kSC, kKW, kMC, kNegative, kImputation, kFeature, kMultiObjective, kUnion };

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kSC: return "SC";
    case Kind::kKW: return "KW";
    case Kind::kMC: return "MC";
    case Kind::kNegative: return "negative_examples";
    case Kind::kImputation: return "data_imputation";
    case Kind::kFeature: return "feature_discovery";
    case Kind::kMultiObjective: return "multi_objective";
    case Kind::kUnion: return "union_search";
  }
  return "?";
}

/// The input of one pooled plan. Plans are rebuilt from specs per client
/// because seekers carry per-execution stats and must not be shared.
struct OpSpec {
  Kind kind = Kind::kSC;
  std::vector<std::string> values;               // SC/KW values, keywords, keys
  std::vector<std::vector<std::string>> tuples;  // MC tuples, positives, examples
  std::vector<std::vector<std::string>> negatives;
  std::vector<std::string> join_keys;
  std::vector<double> target;
  std::vector<std::vector<double>> features;
  TableId table = -1;  // union / multi-objective query table

  std::string Fingerprint() const {
    std::string f = KindName(kind);
    f += "|" + std::to_string(table);
    for (const auto& v : values) f += "|" + v;
    for (const auto& t : tuples) {
      for (const auto& v : t) f += "|" + v;
    }
    for (const auto& k : join_keys) f += "|" + k;
    return f;
  }
};

OpSpec DrawSeekSpec(const Lake& L, Kind kind, Rng* rng) {
  OpSpec s;
  s.kind = kind;
  switch (kind) {
    case Kind::kSC: s.values = lakegen::SampleColumnQuery(L.lake, 64, rng); break;
    case Kind::kKW: s.values = lakegen::SampleColumnQuery(L.lake, 16, rng); break;
    default: {
      const int domain = static_cast<int>(rng->Uniform(L.mc.num_pair_domains));
      s.tuples = lakegen::MakeMcQuery(L.mc, domain, 20, rng);
      break;
    }
  }
  return s;
}

/// A correlation query plus the composite-key tuples that identify its keys
/// (the correlation lake's `key2` column is CompositePartner(domain, index)).
void DrawCorrelationInput(const Lake& L, size_t num_keys, Rng* rng, OpSpec* s,
                          std::vector<std::vector<std::string>>* key_tuples) {
  const int domain = static_cast<int>(rng->Uniform(L.corr.num_key_domains));
  Rng replay = *rng;  // MakeCorrQuery draws its key indices first
  const std::vector<size_t> idx = replay.SampleIndices(L.corr.keys_per_domain, num_keys);
  lakegen::CorrQuery q = lakegen::MakeCorrQuery(L.corr, domain, false, num_keys, rng);
  s->join_keys = q.keys;
  s->target = q.targets;
  if (key_tuples != nullptr) {
    for (size_t i = 0; i < 10 && i < q.keys.size(); ++i) {
      key_tuples->push_back({q.keys[i], lakegen::CompositePartner(domain, idx[i])});
    }
  }
}

OpSpec DrawTaskSpec(const Lake& L, Kind kind, Rng* rng) {
  OpSpec s;
  s.kind = kind;
  switch (kind) {
    case Kind::kNegative: {
      const int domain = static_cast<int>(rng->Uniform(L.mc.num_pair_domains));
      s.tuples = lakegen::MakeMcQuery(L.mc, domain, 12, rng);
      s.negatives = lakegen::MakeMcQuery(L.mc, domain, 12, rng);
      break;
    }
    case Kind::kImputation: {
      const int domain = static_cast<int>(rng->Uniform(L.mc.num_pair_domains));
      auto pairs = lakegen::MakeMcQuery(L.mc, domain, 12, rng);
      s.tuples.assign(pairs.begin(), pairs.begin() + 5);
      for (size_t i = 5; i < pairs.size(); ++i) s.values.push_back(pairs[i][0]);
      break;
    }
    case Kind::kFeature: {
      DrawCorrelationInput(L, 60, rng, &s, &s.tuples);
      s.features.resize(2);
      for (double t : s.target) {
        s.features[0].push_back(0.9 * t + 0.2 * rng->Normal());
        s.features[1].push_back(-0.8 * t + 0.3 * rng->Normal());
      }
      break;
    }
    case Kind::kMultiObjective: {
      s.table = L.union_queries[rng->Uniform(L.union_queries.size())];
      const Table& t = L.lake.table(s.table);
      for (size_t r = 0; r < 3 && r < t.NumRows(); ++r) s.values.push_back(t.At(r, 0));
      DrawCorrelationInput(L, 50, rng, &s, nullptr);
      break;
    }
    default:
      s.table = L.union_queries[rng->Uniform(L.union_queries.size())];
      break;
  }
  return s;
}

/// Draws `rounds` x pattern specs, redrawing duplicates so every pooled input
/// is distinct.
std::vector<OpSpec> MakePool(const std::vector<Kind>& pattern, size_t rounds,
                             const std::function<OpSpec(Kind)>& draw) {
  std::vector<OpSpec> pool;
  std::set<std::string> seen;
  for (size_t r = 0; r < rounds; ++r) {
    for (Kind kind : pattern) {
      OpSpec s = draw(kind);
      for (int attempt = 0; attempt < 64 && !seen.insert(s.Fingerprint()).second;
           ++attempt) {
        s = draw(kind);
      }
      pool.push_back(std::move(s));
    }
  }
  return pool;
}

Result<core::Plan> BuildPlan(const OpSpec& s, const DataLake& lake) {
  core::Plan plan;
  Status st = Status::OK();
  auto sink = [&](const Result<std::string>& r) {
    if (!r.ok()) st = r.status();
  };
  switch (s.kind) {
    case Kind::kSC:
      st = plan.Add("sc", std::make_shared<core::SCSeeker>(s.values, kTopK));
      break;
    case Kind::kKW:
      st = plan.Add("kw", std::make_shared<core::KWSeeker>(s.values, kTopK));
      break;
    case Kind::kMC:
      st = plan.Add("mc", std::make_shared<core::MCSeeker>(s.tuples, kTopK));
      break;
    case Kind::kNegative:
      sink(core::tasks::AddNegativeExampleSearch(&plan, s.tuples, s.negatives, kTopK));
      break;
    case Kind::kImputation:
      sink(core::tasks::AddDataImputation(&plan, s.tuples, s.values, kTopK));
      break;
    case Kind::kFeature:
      sink(core::tasks::AddFeatureDiscovery(&plan, s.join_keys, s.target, s.features,
                                            s.tuples, kTopK));
      break;
    case Kind::kMultiObjective:
      sink(core::tasks::AddMultiObjective(&plan, s.values, lake.table(s.table),
                                          s.join_keys, s.target, kTopK));
      break;
    case Kind::kUnion:
      sink(core::tasks::AddUnionSearch(&plan, lake.table(s.table), kTopK));
      break;
  }
  if (!st.ok()) return st;
  return plan;
}

std::vector<core::Plan> BuildPlans(const std::vector<OpSpec>& specs, const DataLake& lake) {
  std::vector<core::Plan> plans;
  plans.reserve(specs.size());
  for (const OpSpec& s : specs) {
    auto plan = BuildPlan(s, lake);
    if (!plan.ok()) {
      std::fprintf(stderr, "perfbench: cannot build %s plan: %s\n", KindName(s.kind),
                   plan.status().ToString().c_str());
      std::exit(1);
    }
    plans.push_back(std::move(plan.value()));
  }
  return plans;
}

/// The seekers' SQL for every seeker node of the given specs' plans.
std::vector<std::string> SeekerStatements(const std::vector<OpSpec>& specs,
                                          const DataLake& lake) {
  std::vector<std::string> out;
  for (const core::Plan& plan : BuildPlans(specs, lake)) {
    for (const auto& node : plan.nodes()) {
      if (node.is_seeker()) out.push_back(node.seeker->GenerateSql("", kTopK));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reference answers (computed in a child process, so the oracle's memory
// never counts toward the measured process's peak RSS)
// ---------------------------------------------------------------------------

struct Reference {
  bool ok = false;
  core::TableList list;
};

struct Oracle {
  std::vector<Reference> refs;
  int64_t brute_checks = 0;
  int64_t brute_mismatches = 0;
};

bool WriteAll(int fd, const void* data, size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t n) {
  auto* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

std::vector<double> Scores(const core::TableList& list) {
  std::vector<double> out;
  for (const auto& e : list) out.push_back(e.score);
  return out;
}

/// Child side: a serial in-memory Blend answers every pooled plan; SC and KW
/// answers are also checked against lakegen's brute-force overlap scores.
int RunOracle(const Lake& L, const std::vector<OpSpec>& specs, int fd) {
  core::Blend::Options serial;
  serial.query_threads = 1;
  core::Blend blend(&L.lake, serial);
  std::optional<lakegen::BruteForceOverlap> brute;
  int64_t checks = 0;
  int64_t mismatches = 0;
  for (const OpSpec& s : specs) {
    auto plan = BuildPlan(s, L.lake);
    auto got = plan.ok() ? blend.Run(plan.value()) : Result<core::TableList>(plan.status());
    const uint32_t ok = got.ok() ? 1 : 0;
    const uint32_t n = got.ok() ? static_cast<uint32_t>(got.value().size()) : 0;
    if (!WriteAll(fd, &ok, sizeof ok) || !WriteAll(fd, &n, sizeof n)) return 1;
    for (uint32_t i = 0; i < n; ++i) {
      const core::ScoredTable& e = got.value()[i];
      if (!WriteAll(fd, &e.table, sizeof e.table) || !WriteAll(fd, &e.score, sizeof e.score)) {
        return 1;
      }
    }
    if (got.ok() && (s.kind == Kind::kSC || s.kind == Kind::kKW)) {
      if (!brute) brute.emplace(&L.lake);
      const core::TableList truth = s.kind == Kind::kSC
                                        ? brute->TopKByColumnOverlap(s.values, kTopK)
                                        : brute->TopKByTableOverlap(s.values, kTopK);
      ++checks;
      if (Scores(truth) != Scores(got.value()) && ++mismatches <= 5) {
        std::fprintf(stderr, "perfbench: %s reference disagrees with brute force\n",
                     KindName(s.kind));
      }
    }
  }
  if (!WriteAll(fd, &checks, sizeof checks) || !WriteAll(fd, &mismatches, sizeof mismatches)) {
    return 1;
  }
  return 0;
}

Oracle ComputeOracle(const Lake& L, const std::vector<OpSpec>& specs) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("perfbench: pipe");
    std::exit(1);
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench: fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(fds[0]);
    const int code = RunOracle(L, specs, fds[1]);
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  Oracle out;
  out.refs.resize(specs.size());
  bool read_ok = true;
  for (Reference& ref : out.refs) {
    uint32_t ok = 0;
    uint32_t n = 0;
    read_ok = read_ok && ReadAll(fds[0], &ok, sizeof ok) && ReadAll(fds[0], &n, sizeof n);
    if (!read_ok) break;
    ref.ok = ok != 0;
    ref.list.resize(n);
    for (auto& e : ref.list) {
      read_ok = read_ok && ReadAll(fds[0], &e.table, sizeof e.table) &&
                ReadAll(fds[0], &e.score, sizeof e.score);
    }
  }
  read_ok = read_ok && ReadAll(fds[0], &out.brute_checks, sizeof out.brute_checks) &&
            ReadAll(fds[0], &out.brute_mismatches, sizeof out.brute_mismatches);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!read_ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "perfbench: reference process failed\n");
    std::exit(1);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tracing: the benchmark's own spans around its public calls
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  int64_t op;
};

/// Per-thread span buffer, kept in memory and written out at exit. Inert
/// (no clock reads) when disabled.
class SpanLog {
 public:
  SpanLog(Clock::time_point epoch, bool enabled) : epoch_(epoch), enabled_(enabled) {
    if (enabled_) spans.reserve(1 << 14);
  }
  int32_t Begin(const char* name, int32_t parent, int64_t op) {
    if (!enabled_) return -1;
    spans.push_back({name, Now(), 0, parent, op});
    return static_cast<int32_t>(spans.size() - 1);
  }
  void End(int32_t idx) {
    if (idx >= 0) spans[static_cast<size_t>(idx)].end_ns = Now();
  }
  std::vector<Span> spans;

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }
  Clock::time_point epoch_;
  bool enabled_;
};

class ScopedSpan {
 public:
  /// A null `log` records nothing.
  ScopedSpan(SpanLog* log, const char* name, int32_t parent = -1, int64_t op = -1)
      : log_(log), idx_(log != nullptr ? log->Begin(name, parent, op) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return idx_; }

 private:
  SpanLog* log_;
  int32_t idx_;
};

// ---------------------------------------------------------------------------
// Per-layer accounting
// ---------------------------------------------------------------------------

/// Totals over the traced plan runs, read from each ExecutionReport.
struct LayerTotals {
  int64_t runs = 0;
  double optimize_s = 0;
  std::map<std::string, std::pair<double, int64_t>> steps;  // kind -> (s, count)
  std::array<double, kNumTraceStages> stage_s{};
  std::array<int64_t, kNumTraceStages> stage_rows{};
  std::array<int64_t, kNumTraceCounters> counters{};
  int64_t seeker_rows = 0;

  void Add(const core::ExecutionReport& r) {
    ++runs;
    optimize_s += r.optimize_seconds;
    for (const core::PlanStepTiming& t : r.step_timings) {
      auto& slot = steps[t.kind];
      slot.first += t.seconds;
      ++slot.second;
      if (t.kind != "combiner") seeker_rows += static_cast<int64_t>(t.output_rows);
    }
    for (const StageSummary& s : r.trace.stages) {
      stage_s[static_cast<size_t>(s.stage)] += s.seconds;
      stage_rows[static_cast<size_t>(s.stage)] += s.rows;
    }
    for (size_t i = 0; i < kNumTraceCounters; ++i) counters[i] += r.trace.counters[i];
  }
  void Merge(const LayerTotals& o) {
    runs += o.runs;
    optimize_s += o.optimize_s;
    for (const auto& [k, v] : o.steps) {
      steps[k].first += v.first;
      steps[k].second += v.second;
    }
    for (size_t i = 0; i < kNumTraceStages; ++i) {
      stage_s[i] += o.stage_s[i];
      stage_rows[i] += o.stage_rows[i];
    }
    for (size_t i = 0; i < kNumTraceCounters; ++i) counters[i] += o.counters[i];
    seeker_rows += o.seeker_rows;
  }
  double Stage(TraceStage s) const { return stage_s[static_cast<size_t>(s)]; }
  int64_t Rows(TraceStage s) const { return stage_rows[static_cast<size_t>(s)]; }
  int64_t Counter(TraceCounter c) const { return counters[static_cast<size_t>(c)]; }
};

/// The registry series the benchmark diffs around its measured loop.
struct RegistryPoint {
  double run_s = 0;
  double sql_s = 0;
  int64_t sql_stmts = 0;
  int64_t sched_tasks = 0;
  int64_t local_pops = 0;
  int64_t steals = 0;

  static RegistryPoint Read() {
    const RegistrySnapshot snap = MetricsRegistry::Global().Collect();
    RegistryPoint p;
    auto value = [&](const char* name) -> int64_t {
      const MetricSample* s = snap.Find(name);
      return s != nullptr ? s->value : 0;
    };
    auto seconds = [&](const char* name) -> double {
      const MetricSample* s = snap.Find(name);
      return s != nullptr ? s->hist.sum_seconds : 0;
    };
    p.run_s = seconds("blend_run_seconds");
    p.sql_s = seconds("blend_sql_query_seconds");
    p.sql_stmts = value("blend_sql_queries_total");
    p.sched_tasks = value("blend_scheduler_tasks_total");
    p.local_pops = value("blend_scheduler_local_pops_total");
    p.steals = value("blend_scheduler_steals_total");
    return p;
  }
  void Add(const RegistryPoint& d) {
    run_s += d.run_s;
    sql_s += d.sql_s;
    sql_stmts += d.sql_stmts;
    sched_tasks += d.sched_tasks;
    local_pops += d.local_pops;
    steals += d.steals;
  }
  RegistryPoint Minus(const RegistryPoint& o) const {
    return {run_s - o.run_s,         sql_s - o.sql_s,
            sql_stmts - o.sql_stmts, sched_tasks - o.sched_tasks,
            local_pops - o.local_pops, steals - o.steals};
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------------------
// Run context and shared measurement pieces
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

/// Everything one run accumulates; the end-to-end and per-layer metric lists
/// are filled by the workload and printed by main.
struct Run {
  const Args* args = nullptr;
  const Lake* lake = nullptr;
  std::vector<OpSpec> specs;
  Oracle oracle;
  Clock::time_point epoch = Clock::now();
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  /// Workload-specific figures printed in the record line only.
  std::vector<Metric> extra;
  std::vector<std::vector<Span>> span_logs;
  int clients = 1;

  /// True when `got` is the reference answer of pooled plan `i`.
  bool Matches(size_t i, const Result<core::TableList>& got) const {
    const Reference& ref = oracle.refs[i];
    return got.ok() && ref.ok && got.value() == ref.list;
  }
  /// Counts one checked answer of pooled plan `i`.
  void Count(size_t i, bool ok) {
    ++attempted;
    if (!ok && ++failed <= 5) {
      std::fprintf(stderr, "perfbench: wrong answer for pooled %s plan %zu\n",
                   KindName(specs[i].kind), i);
    }
  }
  void Check(size_t i, const Result<core::TableList>& got) { Count(i, Matches(i, got)); }
  std::string Path(const char* what) const {
    return args->out_dir + "/" + args->workload + "-" + std::to_string(args->seed) + what;
  }
};

/// Progress line on stderr: seconds since the run started, then the phase.
void Progress(const Run& run, const char* phase) {
  std::fprintf(stderr, "perfbench: %8.3fs %s\n", Seconds(run.epoch, Clock::now()), phase);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Times one call, recording it as a span when `log` is tracing.
template <typename Call>
double Timed(SpanLog* log, const char* name, int32_t parent, const Call& call) {
  ScopedSpan span(log, name, parent);
  const auto t0 = Clock::now();
  call();
  return Seconds(t0, Clock::now());
}

/// Module-by-module offline path (traced runs only): IndexBuilder::Build,
/// EncodePostingsCsr, WriteSnapshot, blend::OpenSnapshot, Blend::OpenSnapshot
/// and TrainCostModel, each timed on its own.
void OfflineProbe(Run* run, SpanLog* log) {
  const Lake& L = *run->lake;
  const std::string path = run->Path("-probe.snap");
  SnapshotOptions compressed;
  compressed.codec = PostingCodec::kCompressed;
  std::vector<double> build, encode, write, open, guard, train;
  double raw_bytes = 0;
  double compressed_bytes = 0;
  bool ok = true;
  for (int rep = 0; rep < kOfflineProbeReps && ok; ++rep) {
    ScopedSpan cycle(log, "offline_probe");
    IndexBundle bundle;
    build.push_back(Timed(log, "index.build", cycle.id(), [&] {
      bundle = IndexBuilder(IndexBuildOptions()).Build(L.lake);
    }));
    const SecondaryIndexes& sec = bundle.column_store().secondary();
    EncodedPostingsCsr encoded;
    encode.push_back(Timed(log, "index.encode_postings", cycle.id(), [&] {
      encoded = EncodePostingsCsr(sec.posting_offsets.span(), sec.posting_positions.span(),
                                  Scheduler::Default());
    }));
    Status written;
    write.push_back(Timed(log, "index.snapshot_write", cycle.id(),
                          [&] { written = WriteSnapshot(bundle, path, compressed); }));
    raw_bytes = static_cast<double>(SnapshotPostingBytes(bundle, SnapshotOptions()));
    compressed_bytes = static_cast<double>(SnapshotPostingBytes(bundle, compressed));
    bundle = IndexBundle();
    Result<IndexBundle> opened = Status::OK();
    open.push_back(Timed(log, "index.snapshot_open", cycle.id(),
                         [&] { opened = blend::OpenSnapshot(path); }));
    const bool index_open_ok = opened.ok();
    opened = Status::OK();
    Result<std::unique_ptr<core::Blend>> served = Status::OK();
    guard.push_back(Timed(log, "core.open_snapshot", cycle.id(), [&] {
      served = core::Blend::OpenSnapshot(path, &L.lake);
    }) - open.back());
    Status trained;
    if (served.ok()) {
      train.push_back(Timed(log, "core.train_cost_model", cycle.id(),
                            [&] { trained = served.value()->TrainCostModel(); }));
    }
    run->attempted += 4;
    ok = !encoded.blob.empty() && written.ok() && index_open_ok && served.ok() && trained.ok();
    if (!ok) {
      ++run->failed;
      std::fprintf(stderr, "perfbench: offline probe failed\n");
    }
  }
  std::filesystem::remove(path);
  const double cells = static_cast<double>(L.cells);
  run->layer.push_back({"index.build_s", Median(build), "s"});
  run->layer.push_back({"index.encode_postings_s", Median(encode), "s"});
  run->layer.push_back({"index.snapshot_write_s", Median(write), "s"});
  run->layer.push_back({"index.snapshot_open_s", Median(open), "s"});
  run->layer.push_back({"index.posting_bytes_per_cell.raw", raw_bytes / cells, "B"});
  run->layer.push_back(
      {"index.posting_bytes_per_cell.compressed", compressed_bytes / cells, "B"});
  run->layer.push_back({"core.open_guard_s", Median(guard), "s"});
  run->layer.push_back({"core.cost_model_train_s", Median(train), "s"});
}

/// sql::ParseStatement cost on the workload's seeker statements.
double ParseMicrosPerStatement(const std::vector<std::string>& stmts, int64_t* failures) {
  std::vector<double> rounds;
  const auto stop = Clock::now() + std::chrono::milliseconds(300);
  while (Clock::now() < stop || rounds.size() < 3) {
    const auto t0 = Clock::now();
    for (const std::string& sql : stmts) {
      if (!sql::ParseStatement(sql).ok()) ++*failures;
    }
    rounds.push_back(Seconds(t0, Clock::now()) * 1e6 / static_cast<double>(stmts.size()));
  }
  return Median(rounds);
}

/// Fixed per-statement cost of attaching a QueryTrace: Engine::Query on the
/// seek statements, each statement run untraced and traced back to back (the
/// order alternating between rounds), reporting the median difference.
double TraceNanosPerStatement(const sql::Engine& engine,
                              const std::vector<std::string>& stmts, int64_t* failures) {
  auto once = [&](const std::string& sql, bool traced) {
    sql::QueryOptions opts;
    bool ok = false;
    const auto t0 = Clock::now();
    if (traced) {
      QueryTrace trace;
      opts.trace = &trace;
      ok = engine.Query(sql, opts).ok();
      (void)trace.Summary();
    } else {
      ok = engine.Query(sql, opts).ok();
    }
    const double seconds = Seconds(t0, Clock::now());
    if (!ok) ++*failures;
    return seconds;
  };
  for (const std::string& sql : stmts) once(sql, false);
  // diffs[o]: traced minus untraced, with the traced run first when o == 1.
  // Averaging the two orders' medians cancels the second run's warmer cache.
  std::vector<double> diffs[2];
  const auto stop = Clock::now() + std::chrono::milliseconds(1500);
  for (size_t round = 0; Clock::now() < stop || round < 2; ++round) {
    const size_t traced_first = round % 2;
    for (const std::string& sql : stmts) {
      const double first = once(sql, traced_first == 1);
      const double second = once(sql, traced_first == 0);
      diffs[traced_first].push_back((traced_first == 1 ? first - second : second - first) *
                                    1e9);
    }
  }
  return 0.5 * (Median(diffs[0]) + Median(diffs[1]));
}

/// Per-layer metrics of the online path, per plan run.
void OnlineLayers(Run* run, const LayerTotals& t, const RegistryPoint& reg,
                  int64_t plan_runs) {
  const double runs = std::max<double>(1, static_cast<double>(t.runs));
  const double all_runs = std::max<double>(1, static_cast<double>(plan_runs));
  auto per_run_ms = [&](TraceStage s) { return t.Stage(s) * 1e3 / runs; };
  auto step_ms = [&](const char* kind) {
    auto it = t.steps.find(kind);
    if (it == t.steps.end() || it->second.second == 0) return 0.0;
    return it->second.first * 1e3 / static_cast<double>(it->second.second);
  };
  auto& L = run->layer;
  L.push_back({"index.posting_blocks_decoded",
               static_cast<double>(t.Counter(TraceCounter::kPostingBlocksDecoded)) / runs,
               "count"});
  L.push_back({"index.gallop_seeks",
               static_cast<double>(t.Counter(TraceCounter::kGallopSeeks)) / runs, "count"});
  L.push_back({"sql.self_ms", reg.sql_s * 1e3 / all_runs, "ms"});
  L.push_back({"sql.stmts", static_cast<double>(reg.sql_stmts) / all_runs, "count"});
  // Stages every workload runs go to the result line; the generic
  // pipeline's stages, the correlation seeker and combiners run only in
  // `tasks`, so they are printed in the record line instead.
  const std::pair<const char*, TraceStage> stages[] = {
      {"sql.fused_scan_ms", TraceStage::kFusedScan},
      {"sql.gallop_intersect_ms", TraceStage::kGallopIntersect},
      {"sql.gallop_emit_ms", TraceStage::kGallopEmit},
  };
  for (const auto& [name, stage] : stages) L.push_back({name, per_run_ms(stage), "ms"});
  const std::pair<const char*, TraceStage> tasks_only_stages[] = {
      {"sql.scan_ms", TraceStage::kScan},
      {"sql.fused_project_ms", TraceStage::kFusedProject},
      {"sql.join_build_ms", TraceStage::kJoinBuild},
      {"sql.join_probe_ms", TraceStage::kJoinProbe},
      {"sql.filter_ms", TraceStage::kFilter},
      {"sql.projection_ms", TraceStage::kProjection},
      {"sql.aggregation_ms", TraceStage::kAggregation},
      {"sql.aggregation_merge_ms", TraceStage::kAggregationMerge},
  };
  for (const auto& [name, stage] : tasks_only_stages) {
    run->extra.push_back({name, per_run_ms(stage), "ms"});
  }
  const int64_t stage_rows = t.Rows(TraceStage::kScan) + t.Rows(TraceStage::kJoinProbe) +
                             t.Rows(TraceStage::kGallopEmit) +
                             t.Rows(TraceStage::kFusedScan) +
                             t.Rows(TraceStage::kFusedProject);
  L.push_back({"sql.stage_rows_per_result_row",
               static_cast<double>(stage_rows) /
                   std::max<double>(1, static_cast<double>(t.seeker_rows)),
               "ratio"});
  L.push_back({"core.self_ms", (reg.run_s - reg.sql_s) * 1e3 / all_runs, "ms"});
  L.push_back({"core.optimize_ms", t.optimize_s * 1e3 / runs, "ms"});
  for (const char* kind : {"KW", "SC", "MC"}) {
    L.push_back({std::string("core.seeker_ms.") + kind, step_ms(kind), "ms"});
  }
  run->extra.push_back({"core.seeker_ms.C", step_ms("C"), "ms"});
  run->extra.push_back({"core.combiner_ms", step_ms("combiner"), "ms"});
  L.push_back({"core.mc_validation_ms", per_run_ms(TraceStage::kMcValidation), "ms"});
  const double candidates =
      std::max<double>(1, static_cast<double>(t.Counter(TraceCounter::kMcCandidateRows)));
  L.push_back({"core.mc_precision",
               static_cast<double>(t.Counter(TraceCounter::kMcValidatedRows)) / candidates,
               "ratio"});
  L.push_back({"core.mc_bloom_pass_ratio",
               static_cast<double>(t.Counter(TraceCounter::kMcBloomPassRows)) / candidates,
               "ratio"});
  L.push_back({"scheduler.queue_wait_ms", per_run_ms(TraceStage::kQueueWait), "ms"});
  L.push_back({"scheduler.tasks", static_cast<double>(reg.sched_tasks) / all_runs, "count"});
  L.push_back({"scheduler.steal_frac",
               static_cast<double>(reg.steals) /
                   std::max<double>(1, static_cast<double>(reg.steals + reg.local_pops)),
               "ratio"});
}

/// Microbenchmarks shared by every traced run: statement parsing and the
/// fixed cost of a query trace, both on the seek statements.
void StatementLayers(Run* run, const sql::Engine& engine,
                     const std::vector<std::string>& seek_stmts) {
  int64_t failures = 0;
  run->layer.push_back(
      {"sql.parse_us_per_stmt", ParseMicrosPerStatement(seek_stmts, &failures), "us"});
  run->layer.push_back({"telemetry.trace_ns_per_stmt",
                        TraceNanosPerStatement(engine, seek_stmts, &failures), "ns"});
  run->attempted += 2;
  run->failed += failures > 0 ? 1 : 0;
}

/// Latencies of the measured operations.
struct Latencies {
  int64_t ops = 0;                              // traced and untraced
  std::vector<double> op_ms;                    // untraced operations
  std::map<Kind, std::vector<double>> plan_ms;  // untraced plan runs, by kind
  // The tracing-overhead comparison: operations (plans in cold_start) by mode.
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
};

void AddLatencyMetrics(Run* run, const Latencies& lat, double elapsed_s) {
  run->e2e.push_back({"p50_ms", Percentile(lat.op_ms, 0.5), "ms"});
  // The tail and the throughput are reported, not gated: on a shared host,
  // phases of CPU steal lasting minutes move them by 30-75% on sub-ms seek
  // operations, against ~13% for the median.
  const double ops = static_cast<double>(lat.ops);
  run->extra.push_back({"p95_ms", Percentile(lat.op_ms, 0.95), "ms"});
  run->extra.push_back({"p99_ms", Percentile(lat.op_ms, 0.99), "ms"});
  run->extra.push_back({"ops_per_s", ops / elapsed_s, "1/s"});
  run->extra.push_back({"ops", ops, "count"});
}

void AddPlanP50s(Run* run, const std::map<Kind, std::vector<double>>& plan_ms) {
  for (const auto& [kind, ms] : plan_ms) {
    std::string name = KindName(kind);
    std::transform(name.begin(), name.end(), name.begin(), ::tolower);
    run->extra.push_back({name + "_p50_ms", Percentile(ms, 0.5), "ms"});
  }
}

/// The benchmark's own tracing overhead: traced minus untraced median
/// latency, from the interleaved blocks of one traced run.
void AddOverhead(Run* run, const Latencies& lat) {
  if (!run->args->trace || lat.traced_ms.empty() || lat.untraced_ms.empty()) return;
  const double diff = Percentile(lat.traced_ms, 0.5) - Percentile(lat.untraced_ms, 0.5);
  run->extra.push_back({"bench.trace_overhead_ns_per_op", diff * 1e6, "ns"});
  run->extra.push_back({"bench.untraced_p50_ms", Percentile(lat.untraced_ms, 0.5), "ms"});
  run->extra.push_back({"bench.traced_p50_ms", Percentile(lat.traced_ms, 0.5), "ms"});
}

/// One plan run, traced (RunReport + span) or not (Run).
Result<core::TableList> RunPlan(const core::Blend& blend, const core::Plan& plan,
                                bool traced, SpanLog* log, const char* name, int32_t parent,
                                int64_t op, LayerTotals* totals) {
  if (!traced) return blend.Run(plan);
  ScopedSpan span(log, name, parent, op);
  auto report = blend.RunReport(plan);
  if (!report.ok()) return report.status();
  totals->Add(report.value());
  return std::move(report.value().output);
}

struct LoopResult {
  Latencies lat;
  LayerTotals totals;
  RegistryPoint registry;
  int64_t plan_runs = 0;
  double elapsed_s = 0;
};

/// Closed-loop clients sharing one Blend. The pool is `rounds x pattern`
/// (see MakePool); each client owns its plans and a seeded order that cycles
/// the pattern's kinds in equal shares with a random input of each kind. One
/// operation is `plans_per_op` consecutive plans of that order. Traced runs
/// alternate untraced and traced blocks of `block` operations. Measurement
/// may be split into segments, each on a freshly set-up Blend.
class ClientLoop {
 public:
  ClientLoop(Run* run, int clients, size_t pattern, size_t plans_per_op, size_t block)
      : run_(run), plans_per_op_(plans_per_op), block_(block) {
    const size_t n = run->specs.size();
    clients_.resize(static_cast<size_t>(clients));
    for (size_t c = 0; c < clients_.size(); ++c) {
      Client& cl = clients_[c];
      cl.plans = BuildPlans(run->specs, run->lake->lake);
      Rng rng(run->args->seed * 1000003 + c);
      cl.order.resize(1 << 16);
      for (size_t j = 0; j < cl.order.size(); ++j) {
        cl.order[j] = rng.Uniform(n / pattern) * pattern + j % pattern;
      }
      cl.log = std::make_unique<SpanLog>(run->epoch, run->args->trace);
    }
  }

  /// Every pooled plan once, split across the clients, answers checked.
  void Warmup(const core::Blend& blend) {
    const size_t n = run_->specs.size();
    std::vector<std::vector<uint8_t>> ok(clients_.size(), std::vector<uint8_t>(n, 1));
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = c; i < n; i += clients_.size()) {
          ok[c][i] = run_->Matches(i, blend.Run(clients_[c].plans[i])) ? 1 : 0;
        }
      });
    }
    for (auto& t : threads) t.join();
    for (size_t c = 0; c < clients_.size(); ++c) {
      for (size_t i = c; i < n; i += clients_.size()) run_->Count(i, ok[c][i] != 0);
    }
  }

  /// One measured segment of `seconds`.
  void Measure(const core::Blend& blend, double seconds) {
    const RegistryPoint before = RegistryPoint::Read();
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (Client& cl : clients_) {
      threads.emplace_back([&] { RunClient(&cl, blend, deadline); });
    }
    for (auto& t : threads) t.join();
    res_.elapsed_s += Seconds(start, Clock::now());
    res_.registry.Add(RegistryPoint::Read().Minus(before));
  }

  LoopResult Finish() {
    std::set<size_t> used;
    for (Client& cl : clients_) {
      for (const auto& [i, ok] : cl.checks) {
        used.insert(i);
        run_->Count(i, ok);
      }
      for (size_t j = 0; j < cl.op_ms.size(); ++j) {
        const bool traced = cl.op_traced[j] != 0;
        (traced ? res_.lat.traced_ms : res_.lat.untraced_ms).push_back(cl.op_ms[j]);
        if (!traced) res_.lat.op_ms.push_back(cl.op_ms[j]);
      }
      res_.lat.ops += static_cast<int64_t>(cl.op_ms.size());
      for (const auto& [i, ms] : cl.plan_ms) {
        res_.lat.plan_ms[run_->specs[i].kind].push_back(ms);
      }
      res_.plan_runs += static_cast<int64_t>(cl.checks.size());
      res_.totals.Merge(cl.totals);
      run_->span_logs.push_back(std::move(cl.log->spans));
    }
    run_->extra.push_back(
        {"repeat_share",
         1.0 - static_cast<double>(used.size()) /
                   std::max(1.0, static_cast<double>(res_.plan_runs)),
         "ratio"});
    return std::move(res_);
  }

 private:
  struct Client {
    std::vector<core::Plan> plans;
    std::vector<size_t> order;
    size_t next = 0;
    int64_t op = 0;
    std::vector<double> op_ms;
    std::vector<uint8_t> op_traced;
    std::vector<std::pair<size_t, double>> plan_ms;  // untraced (pool index, ms)
    std::vector<std::pair<size_t, bool>> checks;     // (pool index, answer ok)
    LayerTotals totals;
    std::unique_ptr<SpanLog> log;
  };

  void RunClient(Client* cl, const core::Blend& blend, Clock::time_point deadline) {
    const bool tracing = run_->args->trace;
    while (Clock::now() < deadline) {
      const bool traced = tracing && (cl->op / static_cast<int64_t>(block_)) % 2 == 1;
      ScopedSpan op_span(traced ? cl->log.get() : nullptr, "op", -1, cl->op);
      const auto t0 = Clock::now();
      for (size_t p = 0; p < plans_per_op_; ++p) {
        const size_t i = cl->order[cl->next++ % cl->order.size()];
        const auto p0 = Clock::now();
        auto got = RunPlan(blend, cl->plans[i], traced, cl->log.get(),
                           KindName(run_->specs[i].kind), op_span.id(), cl->op, &cl->totals);
        if (!traced) cl->plan_ms.emplace_back(i, Seconds(p0, Clock::now()) * 1e3);
        cl->checks.emplace_back(i, run_->Matches(i, got));
      }
      cl->op_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
      cl->op_traced.push_back(traced ? 1 : 0);
      ++cl->op;
    }
  }

  Run* run_;
  size_t plans_per_op_;
  size_t block_;
  std::vector<Client> clients_;
  LoopResult res_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct SetupTimes {
  std::vector<double> setup, build, save, open, train;
  double index_bytes = 0;
  double snapshot_bytes = 0;
};

/// Set-up from the lake in memory to the first answered plan over a
/// compressed snapshot: Blend constructor, SaveSnapshot, Blend::OpenSnapshot,
/// first pooled plan. Returns null (counted as a failure) on error.
std::unique_ptr<core::Blend> SnapshotSetup(Run* run, const core::Plan& first, SpanLog* log,
                                           int32_t parent, SetupTimes* t) {
  const Lake& L = *run->lake;
  const std::string path = run->Path(".snap");
  core::Blend::Options opts;
  opts.snapshot_codec = PostingCodec::kCompressed;
  ScopedSpan span(log, "setup", parent);
  const auto t0 = Clock::now();
  std::unique_ptr<core::Blend> built;
  Status saved;
  Result<std::unique_ptr<core::Blend>> opened = Status::OK();
  const double build = Timed(log, "core.blend_build", span.id(), [&] {
    built = std::make_unique<core::Blend>(&L.lake, opts);
  });
  const double save =
      Timed(log, "core.save_snapshot", span.id(), [&] { saved = built->SaveSnapshot(path); });
  const double open = Timed(log, "core.open_snapshot", span.id(), [&] {
    if (saved.ok()) opened = core::Blend::OpenSnapshot(path, &L.lake);
  });
  if (!saved.ok() || !opened.ok()) {
    std::fprintf(stderr, "perfbench: snapshot round trip: %s\n",
                 (saved.ok() ? opened.status() : saved).ToString().c_str());
    ++run->attempted;
    ++run->failed;
    return nullptr;
  }
  std::unique_ptr<core::Blend> served = std::move(opened.value());
  Result<core::TableList> answer = Status::OK();
  Timed(log, "first_plan", span.id(), [&] { answer = served->Run(first); });
  t->setup.push_back(Seconds(t0, Clock::now()));
  run->Check(0, answer);
  t->build.push_back(build);
  t->save.push_back(save);
  t->open.push_back(open);
  t->index_bytes = static_cast<double>(built->IndexBytes());
  t->snapshot_bytes = static_cast<double>(std::filesystem::file_size(path));
  return served;
}

/// Set-up of the in-memory Blend: constructor (raw postings), TrainCostModel,
/// first pooled plan.
std::unique_ptr<core::Blend> MemorySetup(Run* run, const core::Plan& first, SpanLog* log,
                                         SetupTimes* t) {
  ScopedSpan span(log, "setup");
  const auto t0 = Clock::now();
  std::unique_ptr<core::Blend> blend;
  Status trained;
  t->build.push_back(Timed(log, "core.blend_build", span.id(), [&] {
    blend = std::make_unique<core::Blend>(&run->lake->lake);
  }));
  t->train.push_back(Timed(log, "core.train_cost_model", span.id(),
                           [&] { trained = blend->TrainCostModel(); }));
  if (!trained.ok()) {
    std::fprintf(stderr, "perfbench: TrainCostModel: %s\n", trained.ToString().c_str());
    ++run->attempted;
    ++run->failed;
    return nullptr;
  }
  Result<core::TableList> answer = Status::OK();
  Timed(log, "first_plan", span.id(), [&] { answer = blend->Run(first); });
  t->setup.push_back(Seconds(t0, Clock::now()));
  run->Check(0, answer);
  t->index_bytes = static_cast<double>(blend->IndexBytes());
  return blend;
}

/// The per-layer metrics every traced run reports after its measured loop.
void TracedLayers(Run* run, const LayerTotals& totals, const RegistryPoint& registry,
                  int64_t plan_runs, std::unique_ptr<core::Blend> blend,
                  const std::vector<std::string>& seek_stmts) {
  OnlineLayers(run, totals, registry, plan_runs);
  StatementLayers(run, blend->engine(), seek_stmts);
  blend.reset();
  SpanLog log(run->epoch, true);
  OfflineProbe(run, &log);
  run->span_logs.push_back(std::move(log.spans));
}

/// seek and tasks: set-up repeated kSetupReps times, each followed by an
/// equal share of the measured loop on the Blend it produced, so set-up and
/// serving samples spread over the whole run.
void RunServing(Run* run, const std::vector<std::string>& seek_stmts) {
  const bool seek = run->args->workload == "seek";
  const std::vector<core::Plan> first = BuildPlans({run->specs[0]}, run->lake->lake);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int clients = seek ? 1 : static_cast<int>(std::max(1u, hw / 2));
  run->clients = clients;
  // seek: one plan per operation over {SC, KW, SC, MC}; tasks: one operation
  // is a session running each of the five compositions once.
  ClientLoop loop(run, clients, seek ? 4 : 5, seek ? 1 : 5, seek ? 32 : 2);
  SpanLog setup_log(run->epoch, run->args->trace);
  SetupTimes times;
  std::unique_ptr<core::Blend> blend;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    blend.reset();
    blend = seek ? SnapshotSetup(run, first[0], &setup_log, -1, &times)
                 : MemorySetup(run, first[0], &setup_log, &times);
    if (blend == nullptr) return;
    if (rep == 0) loop.Warmup(*blend);
    loop.Measure(*blend, run->args->seconds / kSetupReps);
  }
  run->span_logs.push_back(std::move(setup_log.spans));
  LoopResult res = loop.Finish();
  const double cells = static_cast<double>(run->lake->cells);
  run->e2e.push_back({"setup_s", Median(times.setup), "s"});
  run->e2e.push_back({"build_s", Median(times.build), "s"});
  AddLatencyMetrics(run, res.lat, res.elapsed_s);
  run->e2e.push_back({"index_bytes_per_cell", times.index_bytes / cells, "B"});
  if (seek) {
    run->extra.push_back({"save_s", Median(times.save), "s"});
    run->extra.push_back({"open_s", Median(times.open), "s"});
    run->extra.push_back({"snapshot_bytes_per_cell", times.snapshot_bytes / cells, "B"});
    std::filesystem::remove(run->Path(".snap"));
  } else {
    run->extra.push_back({"train_s", Median(times.train), "s"});
  }
  AddPlanP50s(run, res.lat.plan_ms);
  AddOverhead(run, res.lat);
  if (run->args->trace) {
    TracedLayers(run, res.totals, res.registry, res.plan_runs, std::move(blend), seek_stmts);
  }
}

/// cold_start: repeated offline cycles — Blend constructor, compressed
/// SaveSnapshot, Blend::OpenSnapshot, then the fixed probe of pooled plans.
/// One operation is one whole cycle.
void RunColdStart(Run* run, const std::vector<std::string>& seek_stmts) {
  const std::vector<core::Plan> plans = BuildPlans(run->specs, run->lake->lake);
  SpanLog log(run->epoch, run->args->trace);
  SetupTimes times;
  Latencies lat;
  LayerTotals totals;
  int64_t plan_runs = 0;
  std::unique_ptr<core::Blend> last;
  const RegistryPoint before = RegistryPoint::Read();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(run->args->seconds);
  for (int64_t c = 0; Clock::now() < deadline || c < 2; ++c) {
    last.reset();
    const bool traced = run->args->trace && c % 2 == 1;
    ScopedSpan cycle(&log, "cycle", -1, c);
    const auto t0 = Clock::now();
    last = SnapshotSetup(run, plans[0], &log, cycle.id(), &times);
    if (last == nullptr) return;
    for (size_t i = 1; i < plans.size(); ++i) {
      const auto p0 = Clock::now();
      run->Check(i, RunPlan(*last, plans[i], traced, &log, KindName(run->specs[i].kind),
                            cycle.id(), c, &totals));
      const double ms = Seconds(p0, Clock::now()) * 1e3;
      (traced ? lat.traced_ms : lat.untraced_ms).push_back(ms);
      if (!traced) lat.plan_ms[run->specs[i].kind].push_back(ms);
    }
    plan_runs += static_cast<int64_t>(plans.size());
    ++lat.ops;
    if (!traced) lat.op_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
  }
  const double elapsed = Seconds(start, Clock::now());
  const RegistryPoint registry = RegistryPoint::Read().Minus(before);
  run->span_logs.push_back(std::move(log.spans));
  const double cells = static_cast<double>(run->lake->cells);
  run->e2e.push_back({"setup_s", Median(times.setup), "s"});
  run->e2e.push_back({"build_s", Median(times.build), "s"});
  AddLatencyMetrics(run, lat, elapsed);
  run->e2e.push_back({"index_bytes_per_cell", times.index_bytes / cells, "B"});
  run->extra.push_back({"save_s", Median(times.save), "s"});
  run->extra.push_back({"open_s", Median(times.open), "s"});
  run->extra.push_back({"snapshot_bytes_per_cell", times.snapshot_bytes / cells, "B"});
  run->extra.push_back(
      {"repeat_share", 1.0 - static_cast<double>(plans.size()) / static_cast<double>(plan_runs),
       "ratio"});
  AddPlanP50s(run, lat.plan_ms);
  AddOverhead(run, lat);
  std::filesystem::remove(run->Path(".snap"));
  if (run->args->trace) {
    TracedLayers(run, totals, registry, plan_runs, std::move(last), seek_stmts);
  }
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();
    const size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Writes the spans as JSON and prints a per-name self-time table.
void DumpSpans(const Run& run) {
  struct Agg {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Agg> agg;
  const std::string path = run.Path("-spans.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f != nullptr) std::fputs("{\"spans\":[", f);
  bool first = true;
  for (size_t t = 0; t < run.span_logs.size(); ++t) {
    const std::vector<Span>& spans = run.span_logs[t];
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      Agg& a = agg[s.name];
      ++a.count;
      a.total_ns += s.end_ns - s.start_ns;
      a.self_ns += s.end_ns - s.start_ns - child_ns[i];
      if (f != nullptr) {
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"log\":%zu,\"id\":%zu,\"parent\":%d,\"op\":%lld,"
                     "\"start_ns\":%lld,\"end_ns\":%lld}",
                     first ? "" : ",", s.name, t, i, s.parent,
                     static_cast<long long>(s.op), static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
        first = false;
      }
    }
  }
  if (f != nullptr) {
    std::fputs("]}\n", f);
    std::fclose(f);
  }
  std::printf("# spans written to %s\n", path.c_str());
  std::printf("# %-24s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, a] : agg) {
    std::printf("# %-24s %10lld %14.3f %14.3f\n", name.c_str(),
                static_cast<long long>(a.count), static_cast<double>(a.total_ns) / 1e6,
                static_cast<double>(a.self_ns) / 1e6);
  }
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      if (std::from_chars(val.data(), val.data() + val.size(), a->seed).ec != std::errc()) {
        return false;
      }
    } else if (key == "--seconds") {
      if (std::from_chars(val.data(), val.data() + val.size(), a->seconds).ec != std::errc()) {
        return false;
      }
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--out-dir") {
      a->out_dir = val;
    } else if (key == "--commit") {
      a->commit = val;
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) &&
         (a->workload == "cold_start" || a->workload == "seek" || a->workload == "tasks") &&
         a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: blend_perfbench --workload {cold_start,seek,tasks} --seed N "
                 "--seconds S --trace {0,1} --out-dir DIR [--commit SHA]\n");
    return 2;
  }
  const Lake lake = MakeLake(args.seed);
  Run run;
  run.args = &args;
  run.lake = &lake;

  Rng rng(args.seed);
  const std::vector<OpSpec> seek_pool =
      MakePool({Kind::kSC, Kind::kKW, Kind::kSC, Kind::kMC}, kSeekGroups,
               [&](Kind k) { return DrawSeekSpec(lake, k, &rng); });
  if (args.workload == "tasks") {
    run.specs = MakePool({Kind::kNegative, Kind::kImputation, Kind::kFeature,
                          Kind::kMultiObjective, Kind::kUnion},
                         kTasksPerComposition,
                         [&](Kind k) { return DrawTaskSpec(lake, k, &rng); });
  } else if (args.workload == "cold_start") {
    run.specs.assign(seek_pool.begin(), seek_pool.begin() + kProbePlans);
  } else {
    run.specs = seek_pool;
  }
  // Statements for the parse / trace-cost microbenchmarks: 64 seek plans.
  const std::vector<OpSpec> stmt_specs(seek_pool.begin(), seek_pool.begin() + 64);
  const std::vector<std::string> seek_stmts = SeekerStatements(stmt_specs, lake.lake);

  Progress(run, "lake and pool ready");
  run.oracle = ComputeOracle(lake, run.specs);
  Progress(run, "reference answers ready");
  run.attempted += run.oracle.brute_checks;
  run.failed += run.oracle.brute_mismatches;
  std::filesystem::create_directories(args.out_dir);

  if (args.workload == "cold_start") {
    RunColdStart(&run, seek_stmts);
  } else {
    RunServing(&run, seek_stmts);
  }
  Progress(run, "workload done");
  run.e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB"});

  const double error_rate = static_cast<double>(run.failed) /
                            static_cast<double>(std::max<int64_t>(1, run.attempted));
  run.extra.push_back({"error_rate", error_rate, "ratio"});
  if (args.trace) DumpSpans(run);

  // The record: how, where and on what this result was measured.
  std::printf(
      "{\"record\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"commit\": %s, \"nproc\": %u, \"cpu\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"telemetry\": %s, \"lake_tables\": %zu, \"lake_cells\": %zu, \"pool_size\": %zu, "
      "\"clients\": %d, \"flush_policy\": \"WriteSnapshot fsyncs; page cache not dropped\", "
      "\"extra\": %s}}\n",
      Quote(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      Num(args.seconds).c_str(), args.trace ? 1 : 0, Quote(args.commit).c_str(),
      std::thread::hardware_concurrency(), Quote(CpuModel()).c_str(), Quote(Compiler()).c_str(),
      Quote(PERFBENCH_BUILD_TYPE).c_str(), kTelemetryEnabled ? "true" : "false",
      lake.lake.NumTables(), lake.cells, run.specs.size(), run.clients,
      MetricsJson(run.extra).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              run.failed == 0 ? "true" : "false", static_cast<long long>(run.attempted),
              static_cast<long long>(run.failed),
              MetricsJson(args.trace ? run.layer : run.e2e).c_str());
  std::fflush(stdout);
  return run.failed == 0 ? 0 : 1;
}
