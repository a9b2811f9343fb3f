#include "core/cost_model.h"

#include <cmath>

#include "common/str_util.h"
#include "common/timer.h"

namespace blend::core {

namespace {

constexpr int kDim = CostModel::kNumWeights;

/// Solves A x = b for a kDim x kDim system with Gaussian elimination
/// (partial pivot).
bool SolveDense(double a[kDim][kDim], double b[kDim], double x[kDim]) {
  int perm[kDim];
  for (int i = 0; i < kDim; ++i) perm[i] = i;
  for (int col = 0; col < kDim; ++col) {
    int pivot = col;
    for (int r = col + 1; r < kDim; ++r) {
      if (std::fabs(a[perm[r]][col]) > std::fabs(a[perm[pivot]][col])) pivot = r;
    }
    std::swap(perm[col], perm[pivot]);
    double p = a[perm[col]][col];
    if (std::fabs(p) < 1e-12) return false;
    for (int r = col + 1; r < kDim; ++r) {
      double f = a[perm[r]][col] / p;
      for (int c = col; c < kDim; ++c) a[perm[r]][c] -= f * a[perm[col]][c];
      b[perm[r]] -= f * b[perm[col]];
    }
  }
  for (int col = kDim - 1; col >= 0; --col) {
    double s = b[perm[col]];
    for (int c = col + 1; c < kDim; ++c) s -= a[perm[col]][c] * x[c];
    x[col] = s / a[perm[col]][col];
  }
  return true;
}

void FeatureVector(const SeekerFeatures& f, double out[kDim]) {
  out[0] = 1.0;
  out[1] = f.cardinality;
  out[2] = f.num_columns;
  out[3] = f.avg_frequency;
  // Runtime scales roughly with serial-work / threads, so the reciprocal is
  // the feature a linear model can use.
  out[4] = 1.0 / std::max(1.0, f.parallelism);
}

}  // namespace

void CostModel::Fit(Seeker::Type type, const std::vector<SeekerFeatures>& x,
                    const std::vector<double>& y) {
  // Fewer samples than unknowns would leave the ridge-regularized system
  // effectively rank-deficient yet still "trained"; keep the heuristic
  // instead.
  if (x.size() != y.size() || x.size() < static_cast<size_t>(kNumWeights)) return;
  double xtx[kDim][kDim] = {};
  double xty[kDim] = {};
  for (size_t i = 0; i < x.size(); ++i) {
    double v[kDim];
    FeatureVector(x[i], v);
    for (int r = 0; r < kDim; ++r) {
      for (int c = 0; c < kDim; ++c) xtx[r][c] += v[r] * v[c];
      xty[r] += v[r] * y[i];
    }
  }
  // Ridge regularization keeps the system well conditioned when a feature is
  // constant across samples (e.g. num_columns for SC, or 1/parallelism when
  // every training run used the same pool).
  for (int r = 0; r < kDim; ++r) xtx[r][r] += 1e-6;

  LinearModel& m = models_[static_cast<int>(type)];
  double w[kDim];
  if (SolveDense(xtx, xty, w)) {
    for (int i = 0; i < kDim; ++i) m.w[i] = w[i];
    m.trained = true;
  }
}

double CostModel::Predict(Seeker::Type type, const SeekerFeatures& f) const {
  const LinearModel& m = models_[static_cast<int>(type)];
  if (!m.trained) {
    // Untrained heuristic: work proportional to the index entries touched,
    // divided across the pool (morsel parallelism is near-linear for the
    // scan-dominated seeker shapes).
    return 1e-7 * f.cardinality * std::max(1.0, f.avg_frequency) *
           std::max(1.0, f.num_columns) / std::max(1.0, f.parallelism);
  }
  double v[kDim];
  FeatureVector(f, v);
  double p = 0;
  for (int i = 0; i < kDim; ++i) p += m.w[i] * v[i];
  return p;
}

// ---------------------------------------------------------------------------
// Trainer
// ---------------------------------------------------------------------------

std::shared_ptr<Seeker> CostModelTrainer::SampleSeeker(const DataLake& lake,
                                                       Seeker::Type type, int k,
                                                       Rng* rng) {
  for (int attempt = 0; attempt < 300; ++attempt) {
    if (lake.NumTables() == 0) return nullptr;
    const Table& t = lake.table(static_cast<TableId>(rng->Uniform(lake.NumTables())));
    if (t.NumRows() < 4 || t.NumColumns() == 0) continue;

    auto sample_column_values = [&](size_t col, size_t want) {
      std::vector<std::string> vals;
      auto idx = rng->SampleIndices(t.NumRows(), want);
      for (size_t r : idx) {
        const std::string& c = t.At(r, col);
        if (!NormalizeCell(c).empty()) vals.push_back(c);
      }
      return vals;
    };

    switch (type) {
      case Seeker::Type::kSC: {
        size_t col = rng->Uniform(t.NumColumns());
        auto vals = sample_column_values(col, 5 + rng->Uniform(36));
        if (vals.size() < 3) continue;
        return std::make_shared<SCSeeker>(std::move(vals), k);
      }
      case Seeker::Type::kKW: {
        size_t col = rng->Uniform(t.NumColumns());
        auto vals = sample_column_values(col, 1 + rng->Uniform(5));
        if (vals.empty()) continue;
        return std::make_shared<KWSeeker>(std::move(vals), k);
      }
      case Seeker::Type::kMC: {
        if (t.NumColumns() < 2) continue;
        size_t c0 = rng->Uniform(t.NumColumns());
        size_t c1 = rng->Uniform(t.NumColumns());
        if (c0 == c1) continue;
        std::vector<std::vector<std::string>> tuples;
        // MC queries are whole tables in the MATE benchmark: draw dozens of
        // rows, which is what gives MC its place at the top of the cost rules.
        auto idx = rng->SampleIndices(t.NumRows(), 20 + rng->Uniform(80));
        for (size_t r : idx) {
          std::vector<std::string> tup = {t.At(r, c0), t.At(r, c1)};
          if (!NormalizeCell(tup[0]).empty() && !NormalizeCell(tup[1]).empty()) {
            tuples.push_back(std::move(tup));
          }
        }
        if (tuples.size() < 2) continue;
        return std::make_shared<MCSeeker>(std::move(tuples), k);
      }
      case Seeker::Type::kC: {
        if (t.NumColumns() < 2) continue;
        int num_col = -1;
        for (size_t c = 0; c < t.NumColumns(); ++c) {
          if (t.column(c).IsNumeric()) {
            num_col = static_cast<int>(c);
            break;
          }
        }
        if (num_col < 0) continue;
        size_t key_col = rng->Uniform(t.NumColumns());
        if (static_cast<int>(key_col) == num_col) continue;
        std::vector<std::string> keys;
        std::vector<double> targets;
        size_t want = std::min<size_t>(t.NumRows(), 20 + rng->Uniform(60));
        for (size_t r = 0; r < want; ++r) {
          auto v = ParseNumeric(t.At(r, static_cast<size_t>(num_col)));
          if (!v.has_value() || NormalizeCell(t.At(r, key_col)).empty()) continue;
          keys.push_back(t.At(r, key_col));
          targets.push_back(*v);
        }
        if (keys.size() < 5) continue;
        return std::make_shared<CorrelationSeeker>(std::move(keys), std::move(targets),
                                                   k);
      }
    }
  }
  return nullptr;
}

Result<CostModel> CostModelTrainer::Train(const DataLake& lake,
                                          const DiscoveryContext& ctx) const {
  CostModel model;
  Rng rng(options_.seed);
  const Seeker::Type types[] = {Seeker::Type::kKW, Seeker::Type::kSC,
                                Seeker::Type::kC, Seeker::Type::kMC};
  for (Seeker::Type type : types) {
    std::vector<SeekerFeatures> features;
    std::vector<double> runtimes;
    for (int s = 0; s < options_.samples_per_type; ++s) {
      auto seeker = SampleSeeker(lake, type, options_.k, &rng);
      if (seeker == nullptr) continue;
      StopWatch sw;
      auto res = seeker->Execute(ctx, "");
      if (!res.ok()) continue;
      runtimes.push_back(sw.ElapsedSeconds());
      // The measured runtime is whatever the context's scheduler delivered;
      // stamping the parallelism keeps the sample self-describing.
      SeekerFeatures f = seeker->ComputeFeatures(*ctx.stats);
      f.parallelism = QueryParallelism(ctx.query_options);
      features.push_back(f);
    }
    model.Fit(type, features, runtimes);
  }
  return model;
}

}  // namespace blend::core
