// Tests for Gaussian process regression: interpolation, uncertainty
// behavior, hyperparameter optimization, mixed/datasize inputs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "common/rng.h"
#include "common/stats.h"
#include "model/gp.h"

namespace sparktune {
namespace {

std::vector<FeatureKind> Numeric1D() { return {FeatureKind::kNumeric}; }

// Log marginal likelihood of the standardized targets under `params` with
// the default noise floor: the objective the hyperparameter sweep
// maximizes (gp.h).
double LogMarginalLikelihood(const std::vector<std::vector<double>>& x,
                             const std::vector<double>& y,
                             const KernelParams& params) {
  const size_t n = x.size();
  MixedKernel kernel(Numeric1D(), params);
  Matrix k(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) k(i, j) = kernel.Eval(x[i], x[j]);
  }
  k.AddDiagonal(params.noise_variance + GpOptions{}.noise_floor);
  auto chol = Cholesky::Factor(k);
  if (!chol.ok()) {
    ADD_FAILURE() << chol.status().ToString();
    return std::nan("");
  }
  const double mean = Mean(y);
  const double scale = Stddev(y);
  Vector y_std(n);
  for (size_t i = 0; i < n; ++i) y_std[i] = (y[i] - mean) / scale;
  return -0.5 * Dot(y_std, chol->Solve(y_std)) - 0.5 * chol->LogDet() -
         0.5 * static_cast<double>(n) * std::log(2.0 * std::numbers::pi);
}

TEST(GpTest, RejectsBadInputs) {
  GaussianProcess gp(Numeric1D());
  EXPECT_FALSE(gp.Fit({}, {}).ok());
  EXPECT_FALSE(gp.Fit({{0.1}}, {1.0, 2.0}).ok());
  EXPECT_FALSE(gp.Fit({{0.1, 0.2}}, {1.0}).ok());  // row width mismatch
}

TEST(GpTest, PriorBeforeFit) {
  GaussianProcess gp(Numeric1D());
  Prediction p = gp.Predict({0.5});
  EXPECT_DOUBLE_EQ(p.mean, 0.0);
  EXPECT_GT(p.variance, 0.0);
  EXPECT_EQ(gp.num_observations(), 0u);
}

TEST(GpTest, InterpolatesTrainingPoints) {
  GaussianProcess gp(Numeric1D());
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (double t = 0.0; t <= 1.0; t += 0.1) {
    x.push_back({t});
    y.push_back(std::sin(6.0 * t));
  }
  ASSERT_TRUE(gp.Fit(x, y).ok());
  for (size_t i = 0; i < x.size(); ++i) {
    Prediction p = gp.Predict(x[i]);
    EXPECT_NEAR(p.mean, y[i], 0.12) << "at " << x[i][0];
  }
}

TEST(GpTest, PredictsHeldOutPoints) {
  GaussianProcess gp(Numeric1D());
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (double t = 0.0; t <= 1.0; t += 0.05) {
    x.push_back({t});
    y.push_back(std::sin(6.0 * t));
  }
  ASSERT_TRUE(gp.Fit(x, y).ok());
  // Held-out midpoints.
  for (double t = 0.025; t < 1.0; t += 0.1) {
    Prediction p = gp.Predict({t});
    EXPECT_NEAR(p.mean, std::sin(6.0 * t), 0.15);
  }
}

TEST(GpTest, UncertaintyGrowsAwayFromData) {
  GaussianProcess gp(Numeric1D());
  ASSERT_TRUE(gp.Fit({{0.4}, {0.45}, {0.5}}, {1.0, 1.2, 1.1}).ok());
  double var_near = gp.Predict({0.45}).variance;
  double var_far = gp.Predict({0.99}).variance;
  EXPECT_LT(var_near, var_far);
}

TEST(GpTest, RobustToNoise) {
  Rng rng(7);
  GaussianProcess gp(Numeric1D());
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 40; ++i) {
    double t = rng.Uniform();
    x.push_back({t});
    y.push_back(2.0 * t + rng.Normal(0.0, 0.1));
  }
  ASSERT_TRUE(gp.Fit(x, y).ok());
  // Recovers the underlying trend within noise.
  EXPECT_NEAR(gp.Predict({0.25}).mean, 0.5, 0.2);
  EXPECT_NEAR(gp.Predict({0.75}).mean, 1.5, 0.2);
}

TEST(GpTest, HyperOptImprovesLikelihood) {
  Rng rng(9);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 25; ++i) {
    double t = rng.Uniform();
    x.push_back({t});
    y.push_back(std::sin(10.0 * t));
  }
  GpOptions fixed;
  fixed.optimize_hypers = false;
  GaussianProcess gp_fixed(Numeric1D(), fixed);
  ASSERT_TRUE(gp_fixed.Fit(x, y).ok());
  GaussianProcess gp_opt(Numeric1D());
  ASSERT_TRUE(gp_opt.Fit(x, y).ok());
  EXPECT_GT(LogMarginalLikelihood(x, y, gp_opt.kernel_params()),
            LogMarginalLikelihood(x, y, gp_fixed.kernel_params()));
}

TEST(GpTest, ConstantTargetsHandled) {
  GaussianProcess gp(Numeric1D());
  ASSERT_TRUE(gp.Fit({{0.1}, {0.5}, {0.9}}, {3.0, 3.0, 3.0}).ok());
  EXPECT_NEAR(gp.Predict({0.3}).mean, 3.0, 1e-6);
}

TEST(GpTest, CategoricalFeatureSeparatesLevels) {
  std::vector<FeatureKind> schema = {FeatureKind::kCategorical};
  GaussianProcess gp(schema);
  // Category encodings at bucket centers; two levels with distinct values.
  std::vector<std::vector<double>> x = {{0.25}, {0.25}, {0.75}, {0.75}};
  std::vector<double> y = {1.0, 1.1, 5.0, 5.2};
  ASSERT_TRUE(gp.Fit(x, y).ok());
  EXPECT_LT(gp.Predict({0.25}).mean, 2.5);
  EXPECT_GT(gp.Predict({0.75}).mean, 3.5);
}

TEST(GpTest, DataSizeFeatureInforms) {
  std::vector<FeatureKind> schema = {FeatureKind::kNumeric,
                                     FeatureKind::kDataSize};
  GaussianProcess gp(schema);
  // Runtime grows with datasize regardless of the config coordinate.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(11);
  for (int i = 0; i < 30; ++i) {
    double c = rng.Uniform(), ds = rng.Uniform();
    x.push_back({c, ds});
    y.push_back(10.0 * ds + rng.Normal(0.0, 0.05));
  }
  ASSERT_TRUE(gp.Fit(x, y).ok());
  EXPECT_GT(gp.Predict({0.5, 0.9}).mean, gp.Predict({0.5, 0.1}).mean + 4.0);
}

TEST(GpTest, VarianceIsNonNegativeEverywhere) {
  GaussianProcess gp(Numeric1D());
  ASSERT_TRUE(gp.Fit({{0.0}, {0.5}, {1.0}}, {0.0, 1.0, 0.0}).ok());
  for (double t = 0.0; t <= 1.0; t += 0.01) {
    EXPECT_GE(gp.Predict({t}).variance, 0.0);
  }
}

TEST(GpTest, FailedRefitPredictsThePrior) {
  // A re-Fit whose factorization fails leaves the model unfitted, exactly
  // like a fresh GP whose first fit fails: both predict the prior of the
  // new targets. The earlier 3-row factor must not be paired with the 40
  // new rows, or Predict reads past alpha.
  GaussianProcess gp(Numeric1D());
  ASSERT_TRUE(gp.Fit({{0.1}, {0.5}, {0.9}}, {1.0, 2.0, 0.5}).ok());
  Rng rng(13);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 40; ++i) {
    double t = rng.Uniform();
    x.push_back({t});
    y.push_back(std::sin(4.0 * t));
  }
  x[17][0] = std::nan("");
  Status refit = gp.Fit(x, y);
  EXPECT_EQ(refit.code(), Status::Code::kInternal) << refit.ToString();
  GaussianProcess fresh(Numeric1D());
  ASSERT_FALSE(fresh.Fit(x, y).ok());

  const std::vector<std::vector<double>> probes = {{0.3}, {0.77}, {0.5}};
  std::vector<Prediction> batch = gp.PredictBatch(probes);
  std::vector<Prediction> fresh_batch = fresh.PredictBatch(probes);
  ASSERT_EQ(batch.size(), probes.size());
  for (size_t j = 0; j < probes.size(); ++j) {
    Prediction p = gp.Predict(probes[j]);
    Prediction q = fresh.Predict(probes[j]);
    EXPECT_EQ(p.mean, Mean(y));
    EXPECT_EQ(p.mean, q.mean);
    EXPECT_EQ(p.variance, q.variance);
    EXPECT_EQ(batch[j].mean, q.mean);
    EXPECT_EQ(batch[j].variance, q.variance);
    EXPECT_EQ(fresh_batch[j].variance, q.variance);
  }
}

// The hyperparameter sweep builds each grid point's kernel matrix from
// factor tables. Every entry must equal EvalStats on the pair's statistics
// at every grid point a fit can visit — the product of the grids, which
// contains the defaults — visited twice, as two sweeps do, so the second
// pass reads only tables built by the first.
void ExpectFactorTablesMatchEvalStats(const std::vector<FeatureKind>& schema,
                                      uint64_t seed) {
  const MixedKernel kernel(schema);
  Rng rng(seed);
  const size_t n = 13;
  std::vector<std::vector<double>> x(n, std::vector<double>(schema.size()));
  for (auto& row : x) {
    for (size_t f = 0; f < schema.size(); ++f) {
      row[f] = schema[f] == FeatureKind::kCategorical
                   ? static_cast<double>(rng.UniformInt(0, 2)) / 3.0
                   : rng.Uniform();
    }
  }
  std::vector<KernelPairStats> pairs;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) pairs.push_back(kernel.Stats(x[i], x[j]));
  }
  MixedKernel::FactorTables tables(&kernel, pairs);
  ASSERT_EQ(tables.num_pairs(), pairs.size());
  std::vector<double> values(pairs.size());
  size_t points = 0, mismatches = 0;
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (double length_numeric : GaussianProcess::kLengthGrid) {
      for (double length_datasize : GaussianProcess::kLengthGrid) {
        for (double hamming_weight : GaussianProcess::kHammingGrid) {
          KernelParams p;
          p.signal_variance = sweep == 0 ? 1.0 : 1.9;
          p.length_numeric = length_numeric;
          p.length_datasize = length_datasize;
          p.hamming_weight = hamming_weight;
          tables.Values(p, values.data());
          ++points;
          for (size_t i = 0; i < pairs.size(); ++i) {
            if (std::bit_cast<uint64_t>(values[i]) !=
                std::bit_cast<uint64_t>(kernel.EvalStats(pairs[i], p))) {
              ++mismatches;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(points, 2u * 8u * 8u * 5u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(GpTest, FactorTableGramMatchesEvalStatsOnMixedSchema) {
  ExpectFactorTablesMatchEvalStats(
      {FeatureKind::kNumeric, FeatureKind::kCategorical, FeatureKind::kNumeric,
       FeatureKind::kCategorical, FeatureKind::kCategorical,
       FeatureKind::kDataSize},
      31);
}

TEST(GpTest, FactorTableGramMatchesEvalStatsWithoutCategoricals) {
  ExpectFactorTablesMatchEvalStats(
      {FeatureKind::kNumeric, FeatureKind::kNumeric, FeatureKind::kDataSize},
      37);
}

TEST(GpTest, FactorTableGramMatchesEvalStatsWithoutDataSize) {
  ExpectFactorTablesMatchEvalStats(
      {FeatureKind::kNumeric, FeatureKind::kCategorical,
       FeatureKind::kNumeric},
      41);
}

}  // namespace
}  // namespace sparktune
