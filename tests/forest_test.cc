// Tests for CART trees, random forests and GBDT.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "forest/gbdt.h"
#include "forest/random_forest.h"
#include "forest/tree.h"

namespace sparktune {
namespace {

// Fits `tree` on rows `x` through the columns SortedColumns::Build sorts.
Status FitRows(RegressionTree* tree, const std::vector<std::vector<double>>& x,
               const std::vector<double>& y,
               const std::vector<int>& sample_indices = {},
               Rng* rng = nullptr) {
  Result<SortedColumns> columns = SortedColumns::Build(x);
  if (!columns.ok()) return columns.status();
  return tree->Fit(*columns, y, sample_indices, rng);
}

// y = step function of x0: 1 if x0 > 0.5 else 0; x1 is noise.
void StepData(int n, std::vector<std::vector<double>>* x,
              std::vector<double>* y, uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    x->push_back({a, b});
    y->push_back(a > 0.5 ? 1.0 : 0.0);
  }
}

TEST(TreeTest, FitsStepFunctionExactly) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  StepData(200, &x, &y, 1);
  RegressionTree tree;
  ASSERT_TRUE(FitRows(&tree, x, y).ok());
  EXPECT_NEAR(tree.Predict({0.2, 0.5}), 0.0, 1e-9);
  EXPECT_NEAR(tree.Predict({0.9, 0.5}), 1.0, 1e-9);
}

TEST(TreeTest, RejectsBadInputs) {
  RegressionTree tree;
  EXPECT_FALSE(FitRows(&tree, {}, {}).ok());
  EXPECT_FALSE(FitRows(&tree, {{1.0}}, {1.0, 2.0}).ok());
  // A row narrower than the first, and sample indices outside [0, n).
  const std::vector<std::vector<double>> x = {{0.1, 0.2}, {0.3}, {0.5, 0.6}};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  EXPECT_EQ(FitRows(&tree, x, y).code(), Status::Code::kInvalidArgument);
  const std::vector<std::vector<double>> square = {{0.1}, {0.3}, {0.5}};
  EXPECT_EQ(FitRows(&tree, square, y, {0, 3}).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(FitRows(&tree, square, y, {-1, 1}).code(),
            Status::Code::kInvalidArgument);
  EXPECT_TRUE(FitRows(&tree, square, y, {0, 2, 2}).ok());
}

TEST(TreeTest, DepthLimitProducesStumpAtZeroDepth) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  StepData(100, &x, &y, 2);
  TreeOptions opts;
  opts.max_depth = 0;
  RegressionTree tree(opts);
  ASSERT_TRUE(FitRows(&tree, x, y).ok());
  EXPECT_EQ(tree.nodes().size(), 1u);
  EXPECT_TRUE(tree.nodes()[0].is_leaf);
  EXPECT_NEAR(tree.nodes()[0].value, 0.5, 0.1);
}

TEST(TreeTest, MinSamplesLeafRespected) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  StepData(60, &x, &y, 3);
  TreeOptions opts;
  opts.min_samples_leaf = 10;
  RegressionTree tree(opts);
  ASSERT_TRUE(FitRows(&tree, x, y).ok());
  for (const auto& node : tree.nodes()) {
    if (node.is_leaf) {
      EXPECT_GE(node.num_samples, 10);
    }
  }
}

TEST(TreeTest, ImportanceIdentifiesActiveFeature) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  StepData(300, &x, &y, 4);
  RegressionTree tree;
  ASSERT_TRUE(FitRows(&tree, x, y).ok());
  auto imp = tree.FeatureImportance();
  ASSERT_EQ(imp.size(), 2u);
  EXPECT_GT(imp[0], 0.9);
  EXPECT_LT(imp[1], 0.1);
}

TEST(TreeTest, FeatureSubsamplingNeedsRng) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  StepData(50, &x, &y, 5);
  TreeOptions opts;
  opts.max_features = 1;
  RegressionTree tree(opts);
  EXPECT_FALSE(FitRows(&tree, x, y).ok());  // no rng provided
  Rng rng(6);
  EXPECT_TRUE(FitRows(&tree, x, y, {}, &rng).ok());
}

TEST(ForestTest, PredictsSmoothFunction) {
  Rng rng(7);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 400; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    x.push_back({a, b});
    y.push_back(std::sin(3.0 * a) + 0.5 * b);
  }
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  double sse = 0.0;
  for (int i = 0; i < 50; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    double pred = forest.Predict({a, b}).mean;
    double truth = std::sin(3.0 * a) + 0.5 * b;
    sse += (pred - truth) * (pred - truth);
  }
  EXPECT_LT(std::sqrt(sse / 50.0), 0.15);
}

TEST(ForestTest, VarianceHigherOffManifold) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  StepData(200, &x, &y, 8);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  // Near the decision boundary trees disagree more than deep inside a
  // region.
  double var_boundary = forest.Predict({0.5, 0.5}).variance;
  double var_inside = forest.Predict({0.05, 0.5}).variance;
  EXPECT_GE(var_boundary, var_inside);
}

TEST(ForestTest, ImportanceAggregatesAcrossTrees) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  StepData(300, &x, &y, 9);
  ForestOptions opts;
  opts.num_trees = 16;
  RandomForest forest(opts);
  ASSERT_TRUE(forest.Fit(x, y).ok());
  auto imp = forest.FeatureImportance();
  ASSERT_EQ(imp.size(), 2u);
  EXPECT_GT(imp[0], imp[1]);
}

TEST(ForestTest, DeterministicForSameSeed) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  StepData(100, &x, &y, 10);
  ForestOptions opts;
  opts.seed = 123;
  RandomForest f1(opts), f2(opts);
  ASSERT_TRUE(f1.Fit(x, y).ok());
  ASSERT_TRUE(f2.Fit(x, y).ok());
  for (int i = 0; i < 20; ++i) {
    std::vector<double> q = {i / 20.0, 0.3};
    EXPECT_DOUBLE_EQ(f1.Predict(q).mean, f2.Predict(q).mean);
  }
}

TEST(GbdtTest, OutperformsSingleShallowTree) {
  Rng rng(11);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 400; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    x.push_back({a, b});
    y.push_back(std::sin(5.0 * a) * std::cos(3.0 * b));
  }
  GbdtRegressor gbdt;
  ASSERT_TRUE(gbdt.Fit(x, y).ok());
  TreeOptions sopts;
  sopts.max_depth = 4;
  RegressionTree shallow(sopts);
  ASSERT_TRUE(FitRows(&shallow, x, y).ok());
  double sse_gbdt = 0.0, sse_tree = 0.0;
  for (int i = 0; i < 100; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    double truth = std::sin(5.0 * a) * std::cos(3.0 * b);
    sse_gbdt += std::pow(gbdt.Predict({a, b}) - truth, 2);
    sse_tree += std::pow(shallow.Predict({a, b}) - truth, 2);
  }
  EXPECT_LT(sse_gbdt, sse_tree);
}

TEST(GbdtTest, BasePredictionIsTargetMean) {
  GbdtRegressor gbdt;
  ASSERT_TRUE(gbdt.Fit({{0.1}, {0.9}}, {2.0, 4.0}).ok());
  EXPECT_DOUBLE_EQ(gbdt.base_prediction(), 3.0);
}

TEST(GbdtTest, EarlyStopLimitsRounds) {
  // Constant target: no residual improvement after round 1.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    x.push_back({i / 50.0});
    y.push_back(1.0);
  }
  GbdtOptions opts;
  opts.num_rounds = 200;
  opts.early_stop_rounds = 3;
  GbdtRegressor gbdt(opts);
  ASSERT_TRUE(gbdt.Fit(x, y).ok());
  EXPECT_LT(gbdt.num_trees(), 20);
}

TEST(GbdtTest, RejectsEmpty) {
  GbdtRegressor gbdt;
  EXPECT_FALSE(gbdt.Fit({}, {}).ok());
}

}  // namespace
}  // namespace sparktune
