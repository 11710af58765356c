// Tests for the deterministic RNG: reproducibility, distribution moments,
// sampling helpers. Property sweeps run across seeds via TEST_P.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"

namespace sparktune {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(7);
  Rng child = a.Fork();
  // The child should not replay the parent stream.
  Rng a2(7);
  a2.Fork();
  EXPECT_NE(child.Next(), a.Next());
}

class RngSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeedTest, UniformInUnitInterval) {
  Rng rng(GetParam());
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST_P(RngSeedTest, NormalMoments) {
  Rng rng(GetParam());
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST_P(RngSeedTest, UniformIntCoversRangeInclusive) {
  Rng rng(GetParam());
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST_P(RngSeedTest, LogNormalMean) {
  Rng rng(GetParam());
  // mu = -sigma^2/2 gives E = 1.
  const double sigma = 0.4;
  double sum = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    sum += rng.LogNormal(-0.5 * sigma * sigma, sigma);
  }
  EXPECT_NEAR(sum / n, 1.0, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedTest,
                         ::testing::Values(1u, 42u, 12345u, 0xDEADBEEFu));

TEST(RngTest, PermutationIsValid) {
  Rng rng(5);
  auto p = rng.Permutation(50);
  std::vector<int> sorted = p;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(5);
  auto s = rng.SampleWithoutReplacement(20, 10);
  std::set<int> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
  for (int v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 20);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

}  // namespace
}  // namespace sparktune
