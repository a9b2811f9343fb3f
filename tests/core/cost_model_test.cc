#include "core/cost_model.h"

#include <gtest/gtest.h>

#include "core/blend.h"
#include "lakegen/join_lake.h"

namespace blend::core {
namespace {

TEST(CostModelTest, UntrainedFallsBackToHeuristic) {
  CostModel m;
  EXPECT_FALSE(m.IsTrained(Seeker::Type::kSC));
  SeekerFeatures small{10, 1, 2};
  SeekerFeatures big{10000, 1, 50};
  EXPECT_LT(m.Predict(Seeker::Type::kSC, small), m.Predict(Seeker::Type::kSC, big));
}

TEST(CostModelTest, FitRecoversLinearRelationship) {
  CostModel m;
  // y = 0.5 + 2*card + 3*cols + 4*freq
  std::vector<SeekerFeatures> x;
  std::vector<double> y;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    SeekerFeatures f{static_cast<double>(rng.Uniform(100)),
                     static_cast<double>(1 + rng.Uniform(4)),
                     rng.UniformDouble() * 10};
    x.push_back(f);
    y.push_back(0.5 + 2 * f.cardinality + 3 * f.num_columns + 4 * f.avg_frequency);
  }
  m.Fit(Seeker::Type::kMC, x, y);
  ASSERT_TRUE(m.IsTrained(Seeker::Type::kMC));
  SeekerFeatures probe{50, 2, 5};
  EXPECT_NEAR(m.Predict(Seeker::Type::kMC, probe), 0.5 + 100 + 6 + 20, 1e-6);
}

TEST(CostModelTest, FitRequiresEnoughSamples) {
  CostModel m;
  m.Fit(Seeker::Type::kSC, {SeekerFeatures{1, 1, 1}}, {1.0});
  EXPECT_FALSE(m.IsTrained(Seeker::Type::kSC));
}

TEST(CostModelTest, FitPerTypeIsIndependent) {
  CostModel m;
  std::vector<SeekerFeatures> x(10, SeekerFeatures{1, 1, 1});
  std::vector<double> y(10, 2.0);
  m.Fit(Seeker::Type::kKW, x, y);
  EXPECT_TRUE(m.IsTrained(Seeker::Type::kKW));
  EXPECT_FALSE(m.IsTrained(Seeker::Type::kMC));
}

TEST(CostModelTrainerTest, SampleSeekerProducesValidSeekers) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 30;
  DataLake lake = lakegen::MakeJoinLake(spec);
  Rng rng(3);
  for (auto type : {Seeker::Type::kKW, Seeker::Type::kSC, Seeker::Type::kC,
                    Seeker::Type::kMC}) {
    auto seeker = CostModelTrainer::SampleSeeker(lake, type, 10, &rng);
    ASSERT_NE(seeker, nullptr) << "type " << static_cast<int>(type);
    EXPECT_EQ(seeker->type(), type);
  }
}

TEST(CostModelTrainerTest, TrainsOnLake) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 40;
  DataLake lake = lakegen::MakeJoinLake(spec);
  Blend blend(&lake);
  CostModelTrainer::Options opts;
  opts.samples_per_type = 10;
  CostModelTrainer trainer(opts);
  auto model = trainer.Train(lake, blend.context());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_TRUE(model.value().IsTrained(Seeker::Type::kSC));
  EXPECT_TRUE(model.value().IsTrained(Seeker::Type::kKW));
}

TEST(BlendTest, TrainCostModelIntegration) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 30;
  DataLake lake = lakegen::MakeJoinLake(spec);
  Blend blend(&lake);
  EXPECT_EQ(blend.cost_model(), nullptr);
  ASSERT_TRUE(blend.TrainCostModel(8, 3).ok());
  ASSERT_NE(blend.cost_model(), nullptr);
  EXPECT_TRUE(blend.cost_model()->IsTrained(Seeker::Type::kSC));
}

}  // namespace
}  // namespace blend::core
