#pragma once

#include <vector>

#include "common/rng.h"
#include "core/context.h"
#include "core/seeker.h"

namespace blend::core {

/// The learned part of BLEND's two-step operator ranking (paper §VII-B):
/// one linear regression per seeker type over four features (cardinality of
/// Q, number of columns, average value frequency, and the inverse of the
/// engine parallelism — runtimes shrink roughly with 1/threads, so the
/// reciprocal is the linear-friendly encoding), fit with ridge-regularized
/// normal equations. Falls back to a frequency heuristic until trained.
class CostModel {
 public:
  static constexpr int kNumTypes = 4;
  /// Intercept + cardinality + columns + frequency + 1/parallelism.
  static constexpr int kNumWeights = 5;

  /// Fits the model for one seeker type from (features, runtime-seconds).
  void Fit(Seeker::Type type, const std::vector<SeekerFeatures>& x,
           const std::vector<double>& y);

  bool IsTrained(Seeker::Type type) const {
    return models_[static_cast<int>(type)].trained;
  }

  /// Predicted runtime in seconds; heuristic (cardinality x frequency,
  /// scaled) when the type has not been trained.
  double Predict(Seeker::Type type, const SeekerFeatures& f) const;

 private:
  struct LinearModel {
    bool trained = false;
    double w[kNumWeights] = {0, 0, 0, 0, 0};
  };
  LinearModel models_[kNumTypes];
};

/// Offline training harness (paper: "we randomly sample 1000 input Qs from
/// the lake ... training occurs offline during deployment"). Samples random
/// query inputs from the lake, executes each seeker type, measures runtimes
/// and fits the per-type regressions.
class CostModelTrainer {
 public:
  struct Options {
    int samples_per_type = 40;
    uint64_t seed = 7;
    int k = 10;
  };

  CostModelTrainer() : options_() {}
  explicit CostModelTrainer(Options options) : options_(options) {}

  /// Samples training workloads from `lake`, runs them against `ctx` (the
  /// index built from that lake) and fits the model.
  Result<CostModel> Train(const DataLake& lake, const DiscoveryContext& ctx) const;

  /// Draws one random seeker of the given type from the lake (exposed for
  /// the optimizer-effectiveness experiment, Table IV).
  static std::shared_ptr<Seeker> SampleSeeker(const DataLake& lake, Seeker::Type type,
                                              int k, Rng* rng);

 private:
  Options options_;
};

}  // namespace blend::core
