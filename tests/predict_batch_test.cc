// PredictBatch must equal per-point Predict bit-for-bit for every surrogate
// implementation — fitted and unfitted (prior path) alike.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "forest/random_forest.h"
#include "meta/meta_surrogate.h"
#include "model/gp.h"

namespace sparktune {
namespace {

struct MixedData {
  std::vector<FeatureKind> schema;
  std::vector<std::vector<double>> x;
  std::vector<double> y;
};

MixedData MakeMixedData(size_t n, uint64_t seed) {
  MixedData d;
  d.schema = {FeatureKind::kNumeric, FeatureKind::kNumeric,
              FeatureKind::kNumeric, FeatureKind::kCategorical,
              FeatureKind::kDataSize};
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row(5);
    for (int k = 0; k < 3; ++k) row[static_cast<size_t>(k)] = rng.Uniform();
    row[3] = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    row[4] = rng.Uniform();
    double y = std::sin(3.0 * row[0]) + row[1] * row[1] - 0.5 * row[2] +
               0.3 * row[3] + 0.7 * row[4] + 0.05 * rng.Normal();
    d.x.push_back(std::move(row));
    d.y.push_back(y);
  }
  return d;
}

// Probe pool sized to cross both the triangular-solve column-block boundary
// (48) and the tree-batch chunk boundary (64).
std::vector<std::vector<double>> MakeProbes(size_t m, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> probes;
  probes.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    std::vector<double> row(5);
    for (int k = 0; k < 3; ++k) row[static_cast<size_t>(k)] = rng.Uniform();
    row[3] = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    row[4] = rng.Uniform();
    probes.push_back(std::move(row));
  }
  return probes;
}

// An acquisition-pool shape: the probes of one sub-space search share
// their pinned coordinates and the data size, and vary only in the free
// ones (here features 1 and 2).
std::vector<std::vector<double>> MakeSharedProbes(size_t m, uint64_t seed) {
  std::vector<std::vector<double>> probes = MakeProbes(m, seed);
  for (auto& row : probes) {
    row[0] = 0.625;
    row[3] = 1.0;
    row[4] = 0.4;
  }
  return probes;
}

void ExpectBatchMatchesPerPoint(
    const Surrogate& s, const std::vector<std::vector<double>>& probes) {
  std::vector<Prediction> batch = s.PredictBatch(probes);
  ASSERT_EQ(batch.size(), probes.size());
  for (size_t j = 0; j < probes.size(); ++j) {
    Prediction p = s.Predict(probes[j]);
    EXPECT_EQ(batch[j].mean, p.mean) << "j=" << j;
    EXPECT_EQ(batch[j].variance, p.variance) << "j=" << j;
  }
}

TEST(PredictBatchTest, GpMatchesPerPoint) {
  MixedData d = MakeMixedData(48, 7);
  GaussianProcess gp(d.schema);
  ASSERT_TRUE(gp.Fit(d.x, d.y).ok());
  ExpectBatchMatchesPerPoint(gp, MakeProbes(97, 11));
  ExpectBatchMatchesPerPoint(gp, MakeSharedProbes(97, 53));
}

TEST(PredictBatchTest, GpPriorPathMatchesPerPoint) {
  MixedData d = MakeMixedData(4, 3);
  GaussianProcess gp(d.schema);  // never fitted -> prior
  std::vector<std::vector<double>> probes = MakeProbes(9, 5);
  std::vector<Prediction> batch = gp.PredictBatch(probes);
  ASSERT_EQ(batch.size(), probes.size());
  for (size_t j = 0; j < probes.size(); ++j) {
    Prediction p = gp.Predict(probes[j]);
    EXPECT_EQ(batch[j].mean, p.mean);
    EXPECT_EQ(batch[j].variance, p.variance);
  }
}

std::vector<BaseSurrogate> MakeBases() {
  std::vector<BaseSurrogate> bases;
  // Base 1: full-width GP from another "task".
  {
    MixedData bd = MakeMixedData(30, 101);
    auto gp = std::make_shared<GaussianProcess>(bd.schema);
    EXPECT_TRUE(gp->Fit(bd.x, bd.y).ok());
    BaseSurrogate b;
    b.model = gp;
    b.similarity = 0.8;
    b.input_dims = 5;
    b.y_mean = 0.4;
    b.y_scale = 1.7;
    bases.push_back(std::move(b));
  }
  // Base 2: config-only GP over the first three features, exercising the
  // input-truncation path.
  {
    MixedData bd = MakeMixedData(24, 202);
    std::vector<FeatureKind> schema3 = {FeatureKind::kNumeric,
                                        FeatureKind::kNumeric,
                                        FeatureKind::kNumeric};
    std::vector<std::vector<double>> x3;
    for (const auto& row : bd.x) {
      x3.push_back({row[0], row[1], row[2]});
    }
    auto gp = std::make_shared<GaussianProcess>(schema3);
    EXPECT_TRUE(gp->Fit(x3, bd.y).ok());
    BaseSurrogate b;
    b.model = gp;
    b.similarity = 0.4;
    b.input_dims = 3;
    b.y_mean = -0.2;
    b.y_scale = 0.9;
    bases.push_back(std::move(b));
  }
  return bases;
}

TEST(PredictBatchTest, MetaEnsembleMatchesPerPoint) {
  MixedData d = MakeMixedData(36, 13);
  MetaEnsembleSurrogate meta(d.schema, MakeBases());
  ASSERT_TRUE(meta.Fit(d.x, d.y).ok());
  ExpectBatchMatchesPerPoint(meta, MakeProbes(71, 17));
  ExpectBatchMatchesPerPoint(meta, MakeSharedProbes(71, 59));
}

TEST(PredictBatchTest, MetaEnsemblePriorPathMatchesPerPoint) {
  MixedData d = MakeMixedData(4, 19);
  MetaEnsembleSurrogate meta(d.schema, MakeBases());  // never fitted
  std::vector<std::vector<double>> probes = MakeProbes(13, 23);
  std::vector<Prediction> batch = meta.PredictBatch(probes);
  ASSERT_EQ(batch.size(), probes.size());
  for (size_t j = 0; j < probes.size(); ++j) {
    Prediction p = meta.Predict(probes[j]);
    EXPECT_EQ(batch[j].mean, p.mean) << "j=" << j;
    EXPECT_EQ(batch[j].variance, p.variance) << "j=" << j;
  }
}

TEST(PredictBatchTest, ForestMatchesPerPoint) {
  MixedData d = MakeMixedData(120, 29);
  std::vector<std::vector<double>> probes = MakeProbes(130, 31);
  ForestOptions opts;
  opts.num_trees = 40;
  opts.seed = 9;
  RandomForest rf(opts);
  ASSERT_TRUE(rf.Fit(d.x, d.y).ok());
  std::vector<Prediction> batch = rf.PredictBatch(probes);
  ASSERT_EQ(batch.size(), probes.size());
  for (size_t j = 0; j < probes.size(); ++j) {
    Prediction p = rf.Predict(probes[j]);
    EXPECT_EQ(batch[j].mean, p.mean) << "j=" << j;
    EXPECT_EQ(batch[j].variance, p.variance) << "j=" << j;
  }
}

TEST(PredictBatchTest, EmptyForestMatchesPerPoint) {
  RandomForest rf;  // never fitted -> no trees
  std::vector<std::vector<double>> probes = MakeProbes(5, 37);
  std::vector<Prediction> batch = rf.PredictBatch(probes);
  ASSERT_EQ(batch.size(), probes.size());
  for (size_t j = 0; j < probes.size(); ++j) {
    Prediction p = rf.Predict(probes[j]);
    EXPECT_EQ(batch[j].mean, p.mean);
    EXPECT_EQ(batch[j].variance, p.variance);
  }
}

}  // namespace
}  // namespace sparktune
