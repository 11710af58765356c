// Tests for descriptive statistics and rank correlations.
#include <gtest/gtest.h>

#include <cmath>

#include "common/normal.h"
#include "common/rng.h"
#include "common/stats.h"

namespace sparktune {
namespace {

TEST(StatsTest, MeanVarianceStddev) {
  std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_DOUBLE_EQ(Variance(v), 4.0);
  EXPECT_DOUBLE_EQ(Stddev(v), 2.0);
}

TEST(StatsTest, EmptyAndSingleton) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(Variance({1.0}), 0.0);
  EXPECT_EQ(Min({}), 0.0);
  EXPECT_EQ(SortedQuantile({}, 0.5), 0.0);
}

TEST(StatsTest, Quantiles) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(SortedQuantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(SortedQuantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(SortedQuantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(SortedQuantile(v, 0.25), 2.0);
  // Out-of-range q clamps.
  EXPECT_DOUBLE_EQ(SortedQuantile(v, 1.5), 5.0);
}

double SkewnessOf(const std::vector<double>& v) {
  return Skewness(v, Mean(v), Stddev(v));
}

TEST(StatsTest, SkewnessSign) {
  EXPECT_GT(SkewnessOf({1, 1, 1, 1, 10}), 0.5);
  EXPECT_LT(SkewnessOf({-10, 1, 1, 1, 1}), -0.5);
  EXPECT_NEAR(SkewnessOf({1, 2, 3, 4, 5}), 0.0, 1e-12);
  // Degenerate inputs: fewer than three samples, or no spread.
  EXPECT_EQ(SkewnessOf({1, 10}), 0.0);
  EXPECT_EQ(SkewnessOf({2, 2, 2}), 0.0);
}

TEST(KendallTest, PerfectAgreementAndReversal) {
  std::vector<double> a = {1, 2, 3, 4, 5};
  std::vector<double> b = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(KendallTau(a, b), 1.0);
  std::vector<double> r = {50, 40, 30, 20, 10};
  EXPECT_DOUBLE_EQ(KendallTau(a, r), -1.0);
}

TEST(KendallTest, KnownMixedValue) {
  // 1 discordant pair out of 6 -> tau = (5-1)/6.
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {1, 2, 4, 3};
  EXPECT_NEAR(KendallTau(a, b), 4.0 / 6.0, 1e-12);
}

TEST(KendallTest, DegenerateInputs) {
  EXPECT_EQ(KendallTau({1.0}, {2.0}), 0.0);
  // Constant vector: no concordant/discordant pairs.
  EXPECT_EQ(KendallTau({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(SpearmanTest, MonotoneNonlinearIsPerfect) {
  std::vector<double> a = {1, 2, 3, 4, 5};
  std::vector<double> b;
  for (double x : a) b.push_back(std::exp(x));
  EXPECT_NEAR(SpearmanRho(a, b), 1.0, 1e-12);
}

TEST(SpearmanTest, TiesUseAverageRanks) {
  std::vector<double> v = {1, 2, 2, 3};
  auto ranks = AverageRanks(v);
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 2.5);
  EXPECT_DOUBLE_EQ(ranks[2], 2.5);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(PearsonTest, ConstantSideGivesZero) {
  EXPECT_EQ(PearsonR({1, 1, 1}, {1, 2, 3}), 0.0);
}

// Property sweep: NormInvCdf inverts NormCdf across the unit interval.
class NormInvTest : public ::testing::TestWithParam<double> {};

TEST_P(NormInvTest, InverseProperty) {
  double p = GetParam();
  double x = NormInvCdf(p);
  EXPECT_NEAR(NormCdf(x), p, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Quantiles, NormInvTest,
                         ::testing::Values(1e-6, 0.001, 0.01, 0.1, 0.25, 0.5,
                                           0.75, 0.9, 0.99, 0.999, 1.0 - 1e-6));

TEST(NormalTest, PdfPeakAndSymmetry) {
  EXPECT_NEAR(NormPdf(0.0), 0.3989422804, 1e-9);
  EXPECT_DOUBLE_EQ(NormPdf(1.3), NormPdf(-1.3));
  EXPECT_NEAR(NormCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormCdf(1.96) - NormCdf(-1.96), 0.95, 1e-3);
}

}  // namespace
}  // namespace sparktune
