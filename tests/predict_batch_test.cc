// PredictBatch must equal per-point Predict bit-for-bit for every surrogate
// implementation — fitted and unfitted (prior path) alike, on random
// probes, acquisition pools, cross-validation folds and identical probes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "forest/random_forest.h"
#include "meta/meta_surrogate.h"
#include "model/gp.h"
#include "model/kernel.h"

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

// The meta ensemble's cross-validation folds: 2 to 8 held-out training
// rows, every feature free, the data size included.
TEST(PredictBatchTest, GpMatchesPerPointOnCrossValidationFolds) {
  MixedData d = MakeMixedData(14, 71);
  GaussianProcess gp(d.schema);
  ASSERT_TRUE(gp.Fit(d.x, d.y).ok());
  for (size_t m = 2; m <= 8; ++m) {
    SCOPED_TRACE(m);
    ExpectBatchMatchesPerPoint(gp, MakeProbes(m, 73 + m));
  }
}

// Identical probes span a sub-space with nothing free.
std::vector<std::vector<double>> IdenticalProbes(size_t m, uint64_t seed) {
  return std::vector<std::vector<double>>(m, MakeProbes(1, seed)[0]);
}

TEST(PredictBatchTest, GpMatchesPerPointOnIdenticalProbes) {
  MixedData d = MakeMixedData(20, 79);
  GaussianProcess gp(d.schema);
  ASSERT_TRUE(gp.Fit(d.x, d.y).ok());
  ExpectBatchMatchesPerPoint(gp, IdenticalProbes(9, 83));
  ExpectBatchMatchesPerPoint(gp, IdenticalProbes(1, 89));
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

TEST(PredictBatchTest, MetaEnsembleMatchesPerPointOnCrossValidationFolds) {
  // Few observations, so the bases still carry weight.
  MixedData d = MakeMixedData(12, 97);
  MetaEnsembleSurrogate meta(d.schema, MakeBases());
  ASSERT_TRUE(meta.Fit(d.x, d.y).ok());
  ASSERT_GT(meta.base_weights()[0], 0.0);
  ASSERT_GT(meta.base_weights()[1], 0.0);
  for (size_t m = 2; m <= 8; ++m) {
    SCOPED_TRACE(m);
    ExpectBatchMatchesPerPoint(meta, MakeProbes(m, 101 + m));
  }
}

TEST(PredictBatchTest, MetaEnsembleMatchesPerPointOnIdenticalProbes) {
  MixedData d = MakeMixedData(12, 103);
  MetaEnsembleSurrogate meta(d.schema, MakeBases());
  ASSERT_TRUE(meta.Fit(d.x, d.y).ok());
  ExpectBatchMatchesPerPoint(meta, IdenticalProbes(9, 107));
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

// ---- Predictions conditioned on a searched sub-space ----

// The sub-space of MakeSharedProbes: features 1 and 2 free, the rest
// pinned at the shared values.
FeatureSubspace SharedSubspace() {
  FeatureSubspace sub;
  sub.base = {0.625, 0.5, 0.5, 1.0, 0.4};
  sub.free = {1, 2};
  return sub;
}

// Candidates of `sub`: its base with the free features of random probes.
std::vector<std::vector<double>> Candidates(const FeatureSubspace& sub,
                                            size_t m, uint64_t seed) {
  std::vector<std::vector<double>> cs;
  for (const auto& probe : MakeProbes(m, seed)) {
    std::vector<double> c = sub.base;
    for (size_t f : sub.free) c[f] = probe[f];
    cs.push_back(std::move(c));
  }
  return cs;
}

bool SameBits(const Prediction& a, const Prediction& b) {
  return std::bit_cast<uint64_t>(a.mean) == std::bit_cast<uint64_t>(b.mean) &&
         std::bit_cast<uint64_t>(a.variance) ==
             std::bit_cast<uint64_t>(b.variance);
}

// `s` conditioned on `sub` predicts every candidate as s.Predict does, per
// point and as a pool. Returns the conditioned model's rows().
const ConditionedRows* ExpectConditionedMatchesPredict(
    const Surrogate& s, const FeatureSubspace& sub,
    const ConditionedRows* shared,
    const std::vector<std::vector<double>>& cs) {
  const std::unique_ptr<ConditionedSurrogate> c = s.Condition(sub, shared);
  const ConditionedRows* rows = c->rows();
  const size_t k = sub.free.size();
  const size_t m = cs.size();
  std::vector<double> cols(k * m);
  std::vector<KernelPairStats> stats(rows != nullptr ? rows->size() : 0);
  for (size_t j = 0; j < m; ++j) {
    std::vector<double> f(k);
    for (size_t t = 0; t < k; ++t) {
      f[t] = cs[j][sub.free[t]];
      cols[t * m + j] = f[t];
    }
    if (rows != nullptr) rows->Stats(f.data(), stats.data());
    EXPECT_TRUE(SameBits(c->Predict(f.data(), stats.data()), s.Predict(cs[j])))
        << "candidate " << j;
  }
  const std::vector<Prediction> batch = c->PredictBatch(cols.data(), m);
  EXPECT_EQ(batch.size(), m);
  for (size_t j = 0; j < m && j < batch.size(); ++j) {
    EXPECT_TRUE(SameBits(batch[j], s.Predict(cs[j]))) << "candidate " << j;
  }
  return rows;
}

TEST(ConditionedPredictTest, GpMatchesPredict) {
  MixedData d = MakeMixedData(48, 7);
  GaussianProcess gp(d.schema);
  ASSERT_TRUE(gp.Fit(d.x, d.y).ok());
  const FeatureSubspace sub = SharedSubspace();
  EXPECT_NE(ExpectConditionedMatchesPredict(gp, sub, nullptr,
                                            Candidates(sub, 97, 11)),
            nullptr);
  // Subspace::Full: only the data size is pinned.
  FeatureSubspace full = sub;
  full.free = {0, 1, 2, 3};
  ExpectConditionedMatchesPredict(gp, full, nullptr, Candidates(full, 53, 13));
  // No free numeric.
  FeatureSubspace categorical = sub;
  categorical.free = {3};
  ExpectConditionedMatchesPredict(gp, categorical, nullptr,
                                  Candidates(categorical, 9, 15));
  // The base itself, and an empty pool.
  ExpectConditionedMatchesPredict(gp, sub, nullptr, {sub.base});
  ExpectConditionedMatchesPredict(gp, sub, nullptr, {});
}

TEST(ConditionedPredictTest, GpsFitOnTheSameRowsShareOneView) {
  MixedData d = MakeMixedData(40, 41);
  GaussianProcess runtime(d.schema);
  ASSERT_TRUE(runtime.Fit(d.x, d.y).ok());
  std::vector<double> other_y;
  for (const auto& row : d.x) other_y.push_back(row[1] - row[2] * row[0]);
  GaussianProcess objective(d.schema);
  ASSERT_TRUE(objective.Fit(d.x, other_y).ok());
  const FeatureSubspace sub = SharedSubspace();
  const auto cs = Candidates(sub, 61, 43);
  const std::unique_ptr<ConditionedSurrogate> rt =
      runtime.Condition(sub, nullptr);
  ASSERT_NE(rt->rows(), nullptr);
  EXPECT_EQ(ExpectConditionedMatchesPredict(objective, sub, rt->rows(), cs),
            rt->rows());
  // A GP fit on other rows conditions its own.
  MixedData e = MakeMixedData(40, 47);
  GaussianProcess elsewhere(e.schema);
  ASSERT_TRUE(elsewhere.Fit(e.x, e.y).ok());
  const ConditionedRows* own =
      ExpectConditionedMatchesPredict(elsewhere, sub, rt->rows(), cs);
  EXPECT_NE(own, nullptr);
  EXPECT_NE(own, rt->rows());
}

TEST(ConditionedPredictTest, UnfittedGpPredictsThePrior) {
  MixedData d = MakeMixedData(4, 3);
  GaussianProcess gp(d.schema);  // never fitted -> prior
  const FeatureSubspace sub = SharedSubspace();
  EXPECT_EQ(ExpectConditionedMatchesPredict(gp, sub, nullptr,
                                            Candidates(sub, 9, 5)),
            nullptr);
}

TEST(ConditionedPredictTest, MetaEnsembleMatchesPredict) {
  // One full-width base (truncated to 5 features: all of them) and one
  // config-only base over the first three, which has no data size. Few
  // observations, so the base weights have not decayed to zero.
  MixedData d = MakeMixedData(12, 13);
  MetaEnsembleSurrogate meta(d.schema, MakeBases());
  ASSERT_TRUE(meta.Fit(d.x, d.y).ok());
  ASSERT_GT(meta.base_weights()[0], 0.0);
  ASSERT_GT(meta.base_weights()[1], 0.0);
  GaussianProcess runtime(d.schema);
  ASSERT_TRUE(runtime.Fit(d.x, d.y).ok());
  for (const std::vector<size_t>& free :
       {std::vector<size_t>{1, 2}, std::vector<size_t>{0, 1, 2, 3},
        std::vector<size_t>{2, 3}}) {
    FeatureSubspace sub = SharedSubspace();
    sub.free = free;
    const auto cs = Candidates(sub, 71, 17);
    const std::unique_ptr<ConditionedSurrogate> rt =
        runtime.Condition(sub, nullptr);
    // The current-task GP reads the runtime GP's view.
    EXPECT_EQ(ExpectConditionedMatchesPredict(meta, sub, rt->rows(), cs),
              rt->rows());
    EXPECT_NE(ExpectConditionedMatchesPredict(meta, sub, nullptr, cs),
              nullptr);
  }
}

TEST(ConditionedPredictTest, UnfittedMetaEnsemblePredictsThePriorMix) {
  MixedData d = MakeMixedData(4, 19);
  MetaEnsembleSurrogate meta(d.schema, MakeBases());  // never fitted
  const FeatureSubspace sub = SharedSubspace();
  EXPECT_EQ(ExpectConditionedMatchesPredict(meta, sub, nullptr,
                                            Candidates(sub, 13, 23)),
            nullptr);
}

TEST(ConditionedPredictTest, OtherModelsPredictFromFullFeatures) {
  MixedData d = MakeMixedData(60, 29);
  ForestOptions opts;
  opts.num_trees = 12;
  opts.seed = 9;
  RandomForest rf(opts);
  ASSERT_TRUE(rf.Fit(d.x, d.y).ok());
  const FeatureSubspace sub = SharedSubspace();
  EXPECT_EQ(ExpectConditionedMatchesPredict(rf, sub, nullptr,
                                            Candidates(sub, 30, 31)),
            nullptr);
}

void ExpectSamePredictions(const MetaEnsembleSurrogate& got,
                           const MetaEnsembleSurrogate& want,
                           const std::vector<std::vector<double>>& probes) {
  const std::vector<Prediction> batch = got.PredictBatch(probes);
  const std::vector<Prediction> want_batch = want.PredictBatch(probes);
  ASSERT_EQ(batch.size(), probes.size());
  for (size_t j = 0; j < probes.size(); ++j) {
    EXPECT_TRUE(SameBits(got.Predict(probes[j]), want.Predict(probes[j])))
        << "probe " << j;
    EXPECT_TRUE(SameBits(batch[j], want_batch[j])) << "probe " << j;
  }
}

TEST(MetaEnsembleTest, FailedFitPredictsThePriorMix) {
  // A NaN feature row makes the current-task GP's Cholesky fail. A failed
  // first fit used to leave the base weights empty (Predict read past
  // them); a failed re-fit used to mix in the previous fit's weights.
  MixedData d = MakeMixedData(24, 61);
  std::vector<std::vector<double>> bad_x = d.x;
  bad_x[5][1] = std::nan("");
  const std::vector<std::vector<double>> probes = MakeProbes(19, 67);
  const MetaEnsembleSurrogate never(d.schema, MakeBases());

  MetaEnsembleSurrogate first(d.schema, MakeBases());
  EXPECT_FALSE(first.Fit(bad_x, d.y).ok());
  ExpectSamePredictions(first, never, probes);

  MetaEnsembleSurrogate refit(d.schema, MakeBases());
  ASSERT_TRUE(refit.Fit(d.x, d.y).ok());
  EXPECT_FALSE(refit.Fit(bad_x, d.y).ok());
  ExpectSamePredictions(refit, never, probes);
  EXPECT_EQ(refit.num_observations(), 0u);
  EXPECT_TRUE(refit.base_weights().empty());
}

}  // namespace
}  // namespace sparktune
