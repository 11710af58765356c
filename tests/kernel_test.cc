// Tests for the mixed GP kernel: symmetry, PSD, group behaviors, and its
// training rows conditioned on a sub-space or on the span of a probe set.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "linalg/cholesky.h"
#include "model/kernel.h"
#include "model/surrogate.h"

namespace sparktune {
namespace {

std::vector<FeatureKind> MixedSchema() {
  return {FeatureKind::kNumeric, FeatureKind::kNumeric,
          FeatureKind::kCategorical, FeatureKind::kCategorical,
          FeatureKind::kDataSize};
}

std::vector<double> RandomPoint(const std::vector<FeatureKind>& schema,
                                Rng* rng) {
  std::vector<double> x(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema[i] == FeatureKind::kCategorical) {
      x[i] = static_cast<double>(rng->UniformInt(0, 2)) / 3.0 + 1.0 / 6.0;
    } else {
      x[i] = rng->Uniform();
    }
  }
  return x;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Hyperparameters away from the defaults, so no factor is trivially 1.
KernelParams SkewedParams() {
  KernelParams p;
  p.signal_variance = 1.7;
  p.length_numeric = 0.3;
  p.length_datasize = 0.8;
  p.hamming_weight = 2.0;
  return p;
}

TEST(KernelTest, SelfSimilarityEqualsSignalVariance) {
  // Each factor is exactly 1 at distance 0, so k(x, x) is the signal
  // variance to the bit for any finite x — the prior variance the GP uses
  // in place of evaluating it.
  const std::vector<std::vector<FeatureKind>> schemas = {
      MixedSchema(),
      {FeatureKind::kCategorical, FeatureKind::kDataSize},
      {FeatureKind::kNumeric, FeatureKind::kNumeric, FeatureKind::kDataSize},
      {FeatureKind::kNumeric, FeatureKind::kCategorical},
  };
  std::vector<KernelParams> params(3);
  params[1] = SkewedParams();
  params[2].signal_variance = 0.37;
  params[2].length_numeric = 0.08;
  params[2].length_datasize = 3.0;
  params[2].hamming_weight = 4.0;
  Rng rng(167);
  for (const auto& schema : schemas) {
    for (const KernelParams& p : params) {
      MixedKernel k(schema, p);
      for (int i = 0; i < 50; ++i) {
        auto x = RandomPoint(schema, &rng);
        // Finite values well outside the unit cube too.
        if (i % 5 == 0) {
          for (double& v : x) v = rng.Normal(0.0, 1e3);
        }
        EXPECT_EQ(Bits(k.Eval(x, x)), Bits(p.signal_variance));
      }
    }
  }
}

TEST(KernelTest, Symmetry) {
  MixedKernel k(MixedSchema());
  Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    auto a = RandomPoint(k.schema(), &rng);
    auto b = RandomPoint(k.schema(), &rng);
    EXPECT_DOUBLE_EQ(k.Eval(a, b), k.Eval(b, a));
  }
}

TEST(KernelTest, Matern52Properties) {
  EXPECT_DOUBLE_EQ(MixedKernel::Matern52(0.0), 1.0);
  double prev = 1.0;
  for (double r = 0.1; r < 5.0; r += 0.1) {
    double v = MixedKernel::Matern52(r);
    EXPECT_LT(v, prev);
    EXPECT_GT(v, 0.0);
    prev = v;
  }
}

TEST(KernelTest, NumericDistanceDecaysCorrelation) {
  std::vector<FeatureKind> schema = {FeatureKind::kNumeric};
  MixedKernel k(schema);
  double near = k.Eval({0.5}, {0.52});
  double far = k.Eval({0.5}, {0.95});
  EXPECT_GT(near, far);
}

TEST(KernelTest, HammingCountsMismatches) {
  std::vector<FeatureKind> schema = {FeatureKind::kCategorical,
                                     FeatureKind::kCategorical};
  KernelParams params;
  params.hamming_weight = 1.0;
  MixedKernel k(schema, params);
  double same = k.Eval({0.2, 0.8}, {0.2, 0.8});
  double one = k.Eval({0.2, 0.8}, {0.2, 0.3});
  double two = k.Eval({0.2, 0.8}, {0.7, 0.3});
  EXPECT_DOUBLE_EQ(same, 1.0);
  EXPECT_NEAR(one, std::exp(-0.5), 1e-12);
  EXPECT_NEAR(two, std::exp(-1.0), 1e-12);
}

TEST(KernelTest, DataSizeUsesSquaredExponential) {
  std::vector<FeatureKind> schema = {FeatureKind::kDataSize};
  KernelParams params;
  params.length_datasize = 0.5;
  MixedKernel k(schema, params);
  double d = 0.3;
  EXPECT_NEAR(k.Eval({0.1}, {0.1 + d}),
              std::exp(-0.5 * d * d / 0.25), 1e-12);
}

TEST(KernelTest, GramMatrixIsPsd) {
  MixedKernel k(MixedSchema());
  Rng rng(3);
  const size_t n = 24;
  std::vector<std::vector<double>> pts;
  for (size_t i = 0; i < n; ++i) pts.push_back(RandomPoint(k.schema(), &rng));
  Matrix gram(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) gram(i, j) = k.Eval(pts[i], pts[j]);
  }
  gram.AddDiagonal(1e-8);
  EXPECT_TRUE(Cholesky::Factor(gram).ok());
}

TEST(KernelTest, LengthscaleControlsSmoothing) {
  std::vector<FeatureKind> schema = {FeatureKind::kNumeric};
  KernelParams shortp, longp;
  shortp.length_numeric = 0.1;
  longp.length_numeric = 2.0;
  MixedKernel ks(schema, shortp), kl(schema, longp);
  // With a longer lengthscale distant points stay correlated.
  EXPECT_LT(ks.Eval({0.0}, {0.5}), kl.Eval({0.0}, {0.5}));
}

// ---- Training rows conditioned on a sub-space ----

// An acquisition-pool schema: numerics with categoricals interleaved, as
// the configuration space orders them, and the data size last.
std::vector<FeatureKind> PoolSchema() {
  std::vector<FeatureKind> schema;
  for (int i = 0; i < 16; ++i) {
    schema.push_back(i % 4 == 3 ? FeatureKind::kCategorical
                                : FeatureKind::kNumeric);
  }
  schema.push_back(FeatureKind::kDataSize);
  return schema;
}

// Probes that copy `base` except at the `free` features, which are drawn
// at random per probe.
std::vector<std::vector<double>> PinnedProbes(
    const std::vector<FeatureKind>& schema, const std::vector<double>& base,
    const std::vector<size_t>& free, size_t m, Rng* rng) {
  std::vector<std::vector<double>> bs;
  for (size_t j = 0; j < m; ++j) {
    std::vector<double> b = base;
    const std::vector<double> draw = RandomPoint(schema, rng);
    for (size_t f : free) b[f] = draw[f];
    bs.push_back(std::move(b));
  }
  return bs;
}

// Candidates of the sub-space: `base` with the free features drawn at
// random, plus the base itself.
std::vector<std::vector<double>> SubspaceCandidates(
    const std::vector<FeatureKind>& schema, const std::vector<double>& base,
    const std::vector<size_t>& free, size_t m, Rng* rng) {
  std::vector<std::vector<double>> cs =
      PinnedProbes(schema, base, free, m, rng);
  cs.push_back(base);
  return cs;
}

// The view of `rows` against every candidate holds Stats and Eval to the
// bit, per point and column by column, and counts the pinned terms it
// skipped as zero. A free data-size feature gives each candidate its own
// data-size distance and factor.
void ExpectConditionedMatchesStats(
    const MixedKernel& k, const std::vector<std::vector<double>>& rows,
    const std::vector<double>& base, const std::vector<size_t>& free,
    const std::vector<std::vector<double>>& cs) {
  const ConditionedRows view(k, rows, base, free);
  ASSERT_EQ(view.size(), rows.size());
  EXPECT_TRUE(view.Conditions(k.schema(), rows));
  bool datasize_free = false;
  for (size_t f : free) {
    datasize_free |= k.schema()[f] == FeatureKind::kDataSize;
  }
  EXPECT_EQ(view.datasize_free(), datasize_free);
  const size_t m = cs.size();
  std::vector<double> cols(free.size() * m);
  for (size_t j = 0; j < m; ++j) {
    for (size_t s = 0; s < free.size(); ++s) cols[s * m + j] = cs[j][free[s]];
  }
  std::vector<KernelPairStats> stats(rows.size());
  for (size_t j = 0; j < m; ++j) {
    std::vector<double> f(free.size());
    for (size_t s = 0; s < free.size(); ++s) f[s] = cs[j][free[s]];
    view.Stats(f.data(), stats.data());
    for (size_t i = 0; i < rows.size(); ++i) {
      const KernelPairStats want = k.Stats(rows[i], cs[j]);
      EXPECT_EQ(Bits(stats[i].numeric_dist), Bits(want.numeric_dist))
          << "row " << i << ", candidate " << j;
      EXPECT_EQ(Bits(stats[i].mismatches), Bits(want.mismatches))
          << "row " << i << ", candidate " << j;
      EXPECT_EQ(Bits(stats[i].datasize_d2), Bits(want.datasize_d2))
          << "row " << i << ", candidate " << j;
      const double factor = k.DataSizeFactorOf(
          datasize_free ? stats[i].datasize_d2 : view.datasize_d2(i));
      EXPECT_EQ(Bits(k.EvalConditioned(stats[i], factor)),
                Bits(k.Eval(rows[i], cs[j])))
          << "row " << i << ", candidate " << j;
    }
  }
  std::vector<double> num_d2(m), mismatches(m), ds_d2(m), values(m);
  double* ds = datasize_free ? ds_d2.data() : nullptr;
  for (size_t i = 0; i < rows.size(); ++i) {
    view.RowStats(i, cols.data(), m, num_d2.data(), mismatches.data(), ds);
    // With per-candidate distances the row's factor goes unread: a NaN
    // there would show in every value.
    const double row_factor = datasize_free
                                  ? std::nan("")
                                  : k.DataSizeFactorOf(view.datasize_d2(i));
    k.EvalConditionedRow(num_d2.data(), mismatches.data(), ds, m, row_factor,
                         values.data());
    for (size_t j = 0; j < m; ++j) {
      const KernelPairStats want = k.Stats(rows[i], cs[j]);
      EXPECT_EQ(Bits(std::sqrt(num_d2[j])), Bits(want.numeric_dist))
          << "row " << i << ", candidate " << j;
      EXPECT_EQ(Bits(mismatches[j]), Bits(want.mismatches))
          << "row " << i << ", candidate " << j;
      if (datasize_free) {
        EXPECT_EQ(Bits(ds_d2[j]), Bits(want.datasize_d2))
            << "row " << i << ", candidate " << j;
      }
      EXPECT_EQ(Bits(values[j]), Bits(k.Eval(rows[i], cs[j])))
          << "row " << i << ", candidate " << j;
    }
  }
}

// Training rows: random ones, and ones holding the base's value in most
// pinned features, so their terms there are exactly zero.
std::vector<std::vector<double>> ConditionedTrainingRows(
    const std::vector<FeatureKind>& schema, const std::vector<double>& base,
    size_t n, Rng* rng) {
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> x = RandomPoint(schema, rng);
    if (i % 2 == 1) {
      for (size_t f = 0; f < schema.size(); ++f) {
        if (rng->Bernoulli(0.7)) x[f] = base[f];
      }
    }
    rows.push_back(std::move(x));
  }
  return rows;
}

TEST(ConditionedRowsTest, MatchesStatsOnAnAcquisitionPool) {
  // Free numerics early, late and adjacent, one free categorical: every
  // row has a leading pinned sum, pinned terms between free ones and
  // trailing ones.
  const std::vector<FeatureKind> schema = PoolSchema();
  MixedKernel k(schema, SkewedParams());
  Rng rng(211);
  const auto base = RandomPoint(schema, &rng);
  const std::vector<size_t> free = {4, 5, 7, 9, 13};
  const auto rows = ConditionedTrainingRows(schema, base, 23, &rng);
  ExpectConditionedMatchesStats(
      k, rows, base, free, SubspaceCandidates(schema, base, free, 31, &rng));
}

TEST(ConditionedRowsTest, MatchesStatsOnTheFullSpace) {
  // Subspace::Full: every configuration feature is free and only the
  // context is pinned.
  const std::vector<FeatureKind> schema = PoolSchema();
  MixedKernel k(schema, SkewedParams());
  Rng rng(223);
  const auto base = RandomPoint(schema, &rng);
  std::vector<size_t> free;
  for (size_t f = 0; f + 1 < schema.size(); ++f) free.push_back(f);
  const auto rows = ConditionedTrainingRows(schema, base, 17, &rng);
  ExpectConditionedMatchesStats(
      k, rows, base, free, SubspaceCandidates(schema, base, free, 13, &rng));
}

TEST(ConditionedRowsTest, MatchesStatsWithNoFreeNumeric) {
  // Only categoricals free (and then nothing free): the numeric distance
  // is the pinned sum alone, the same for every candidate.
  const std::vector<FeatureKind> schema = PoolSchema();
  MixedKernel k(schema, SkewedParams());
  Rng rng(227);
  const auto base = RandomPoint(schema, &rng);
  const auto rows = ConditionedTrainingRows(schema, base, 11, &rng);
  for (const std::vector<size_t>& free :
       {std::vector<size_t>{3, 11}, std::vector<size_t>{}}) {
    ExpectConditionedMatchesStats(
        k, rows, base, free, SubspaceCandidates(schema, base, free, 9, &rng));
  }
}

TEST(ConditionedRowsTest, SkipsPinnedTermsEqualToTheBase) {
  // A row equal to the base in every pinned feature has only zero pinned
  // terms; one off it in a single feature after the first free numeric
  // keeps exactly that term.
  const std::vector<FeatureKind> schema = PoolSchema();
  MixedKernel k(schema, SkewedParams());
  Rng rng(229);
  const auto base = RandomPoint(schema, &rng);
  const std::vector<size_t> free = {1, 6};
  std::vector<std::vector<double>> rows(3, base);
  rows[0][1] = 0.125;
  rows[1][10] += 0.5;
  rows[2] = RandomPoint(schema, &rng);
  ExpectConditionedMatchesStats(
      k, rows, base, free, SubspaceCandidates(schema, base, free, 15, &rng));
}

TEST(ConditionedRowsTest, MatchesStatsOnSignedZerosInPinnedFeatures) {
  // 0.0 and -0.0 differ in their bits but make the same +0.0 term, which
  // the view skips after the first free numeric and sums before it.
  const std::vector<FeatureKind> schema = {
      FeatureKind::kNumeric, FeatureKind::kNumeric, FeatureKind::kNumeric,
      FeatureKind::kCategorical, FeatureKind::kDataSize};
  MixedKernel k(schema, SkewedParams());
  Rng rng(233);
  for (double zero : {0.0, -0.0}) {
    std::vector<double> base = RandomPoint(schema, &rng);
    base[0] = zero;
    base[2] = zero;
    base[3] = -zero;
    base[4] = zero;
    std::vector<std::vector<double>> rows;
    for (double row_zero : {0.0, -0.0}) {
      std::vector<double> x = RandomPoint(schema, &rng);
      x[0] = row_zero;
      x[2] = row_zero;
      x[3] = -row_zero;
      x[4] = row_zero;
      rows.push_back(std::move(x));
    }
    const std::vector<size_t> free = {1};
    ExpectConditionedMatchesStats(
        k, rows, base, free, SubspaceCandidates(schema, base, free, 7, &rng));
  }
}

TEST(ConditionedRowsTest, MatchesStatsWithTheTimeOfDayContext) {
  // Without a data size the context is hour of day and day of week: two
  // data-size-kind features, both pinned.
  const std::vector<FeatureKind> schema = {
      FeatureKind::kNumeric, FeatureKind::kCategorical, FeatureKind::kNumeric,
      FeatureKind::kNumeric, FeatureKind::kDataSize, FeatureKind::kDataSize};
  MixedKernel k(schema, SkewedParams());
  Rng rng(239);
  const auto base = RandomPoint(schema, &rng);
  const std::vector<size_t> free = {0, 1, 3};
  const auto rows = ConditionedTrainingRows(schema, base, 13, &rng);
  ExpectConditionedMatchesStats(
      k, rows, base, free, SubspaceCandidates(schema, base, free, 17, &rng));
}

TEST(ConditionedRowsTest, MatchesStatsWithAFreeDataSize) {
  // A probe span frees the data size when its probes differ there, as a
  // cross-validation fold's held-out rows do: alone, with free numerics
  // before it, and with every feature free.
  const std::vector<FeatureKind> schema = PoolSchema();
  MixedKernel k(schema, SkewedParams());
  Rng rng(243);
  const auto base = RandomPoint(schema, &rng);
  const auto rows = ConditionedTrainingRows(schema, base, 15, &rng);
  std::vector<size_t> all;
  for (size_t f = 0; f < schema.size(); ++f) all.push_back(f);
  for (const std::vector<size_t>& free :
       {std::vector<size_t>{16}, std::vector<size_t>{4, 5, 7, 16}, all}) {
    ExpectConditionedMatchesStats(
        k, rows, base, free, SubspaceCandidates(schema, base, free, 11, &rng));
  }
}

TEST(ConditionedRowsTest, MatchesStatsWithAFreeTimeOfDayFeature) {
  // Two data-size-kind features: the first free with the second's pinned
  // term after it, the second free after the first's pinned lead, and
  // both free.
  const std::vector<FeatureKind> schema = {
      FeatureKind::kNumeric, FeatureKind::kCategorical, FeatureKind::kNumeric,
      FeatureKind::kNumeric, FeatureKind::kDataSize, FeatureKind::kDataSize};
  MixedKernel k(schema, SkewedParams());
  Rng rng(245);
  const auto base = RandomPoint(schema, &rng);
  const auto rows = ConditionedTrainingRows(schema, base, 13, &rng);
  for (const std::vector<size_t>& free :
       {std::vector<size_t>{0, 4}, std::vector<size_t>{1, 5},
        std::vector<size_t>{2, 4, 5}}) {
    ExpectConditionedMatchesStats(
        k, rows, base, free, SubspaceCandidates(schema, base, free, 17, &rng));
  }
}

TEST(ConditionedRowsTest, MatchesStatsOnAConfigOnlySchema) {
  // The meta-ensemble's base models read configuration features only: no
  // data-size feature, so no data-size factor.
  std::vector<FeatureKind> schema = PoolSchema();
  schema.pop_back();
  MixedKernel k(schema, SkewedParams());
  Rng rng(241);
  const auto base = RandomPoint(schema, &rng);
  const std::vector<size_t> free = {0, 2, 3, 8, 14};
  const auto rows = ConditionedTrainingRows(schema, base, 19, &rng);
  ExpectConditionedMatchesStats(
      k, rows, base, free, SubspaceCandidates(schema, base, free, 21, &rng));
  const ConditionedRows view(k, rows, base, free);
  EXPECT_EQ(k.DataSizeFactorOf(view.datasize_d2(0)), 1.0);
}

TEST(ConditionedRowsTest, ConditionsOnlyEqualRowsUnderTheSameSchema) {
  const std::vector<FeatureKind> schema = PoolSchema();
  MixedKernel k(schema);
  Rng rng(251);
  const auto base = RandomPoint(schema, &rng);
  const auto rows = ConditionedTrainingRows(schema, base, 5, &rng);
  const std::vector<size_t> free = {2};
  const ConditionedRows view(k, rows, base, free);
  const std::vector<std::vector<double>> copy = rows;
  EXPECT_TRUE(view.Conditions(schema, copy));
  std::vector<std::vector<double>> other = rows;
  other[3][0] += 0.25;
  EXPECT_FALSE(view.Conditions(schema, other));
  EXPECT_FALSE(view.Conditions(schema, {rows.begin(), rows.end() - 1}));
  std::vector<FeatureKind> flipped = schema;
  flipped[0] = FeatureKind::kCategorical;
  EXPECT_FALSE(view.Conditions(flipped, rows));
}

// ---- Probe spans ----

// The sub-space the probes `bs` span conditions the training rows: its
// base is the first probe, its free features are those where some probe
// differs from the first, and every probe's statistics and kernel values
// through the view equal Stats and Eval to the bit, per point and column
// by column. Returns the span.
ProbeSpan ExpectSpanMatchesEval(const MixedKernel& k,
                                const std::vector<std::vector<double>>& rows,
                                const std::vector<std::vector<double>>& bs) {
  const ProbeSpan span = SpanOfProbes(bs);
  const size_t m = bs.size();
  const std::vector<size_t>& free = span.sub.free;
  EXPECT_EQ(span.sub.base, bs[0]);
  size_t s = 0;
  for (size_t f = 0; f < k.schema().size(); ++f) {
    const bool varies = std::any_of(
        bs.begin(), bs.end(),
        [&](const std::vector<double>& b) { return b[f] != bs[0][f]; });
    const bool is_free = s < free.size() && free[s] == f;
    EXPECT_EQ(is_free, varies) << "feature " << f;
    if (is_free) ++s;
  }
  EXPECT_EQ(s, free.size());
  EXPECT_EQ(span.cols.size(), free.size() * m);
  for (s = 0; s < free.size() && span.cols.size() == free.size() * m; ++s) {
    for (size_t j = 0; j < m; ++j) {
      EXPECT_EQ(Bits(span.cols[s * m + j]), Bits(bs[j][free[s]]))
          << "free feature " << s << ", probe " << j;
    }
  }
  ExpectConditionedMatchesStats(k, rows, span.sub.base, free, bs);
  return span;
}

// The number of the span's free features of `kind`.
size_t CountFree(const MixedKernel& k, const ProbeSpan& span,
                 FeatureKind kind) {
  return static_cast<size_t>(
      std::count_if(span.sub.free.begin(), span.sub.free.end(),
                    [&](size_t f) { return k.schema()[f] == kind; }));
}

// Random training rows and random probes: every feature, the data size
// included, is free.
void ExpectRandomSpanMatchesEval(const std::vector<FeatureKind>& schema,
                                 size_t num_probes, uint64_t seed) {
  MixedKernel k(schema, SkewedParams());
  Rng rng(seed);
  std::vector<std::vector<double>> rows, bs;
  for (int i = 0; i < 3; ++i) rows.push_back(RandomPoint(schema, &rng));
  for (size_t j = 0; j < num_probes; ++j) {
    bs.push_back(RandomPoint(schema, &rng));
  }
  const ProbeSpan span = ExpectSpanMatchesEval(k, rows, bs);
  EXPECT_EQ(span.sub.free.size(), schema.size());
}

TEST(KernelTest, SpanMatchesEvalOnMixedSchema) {
  ExpectRandomSpanMatchesEval(MixedSchema(), 37, 101);
}

TEST(KernelTest, SpanMatchesEvalWithoutCategoricals) {
  ExpectRandomSpanMatchesEval({FeatureKind::kNumeric, FeatureKind::kNumeric,
                               FeatureKind::kDataSize},
                              19, 103);
}

TEST(KernelTest, SpanMatchesEvalWithoutNumerics) {
  ExpectRandomSpanMatchesEval(
      {FeatureKind::kCategorical, FeatureKind::kCategorical}, 23, 107);
}

TEST(KernelTest, SpanMatchesEvalDataSizeOnly) {
  ExpectRandomSpanMatchesEval({FeatureKind::kDataSize}, 11, 109);
}

TEST(KernelTest, ConditionedRowsWriteNothingForAnEmptyPool) {
  // An empty probe set has no span (PredictBatch returns before taking
  // one); the view's pool loops over zero candidates touch nothing.
  MixedKernel k(MixedSchema(), SkewedParams());
  Rng rng(113);
  const std::vector<std::vector<double>> rows = {RandomPoint(k.schema(), &rng)};
  const ProbeSpan span = SpanOfProbes(
      {RandomPoint(k.schema(), &rng), RandomPoint(k.schema(), &rng)});
  const ConditionedRows view(k, rows, span.sub.base, span.sub.free);
  ASSERT_TRUE(view.datasize_free());
  double num_d2 = -1.0, mismatches = -2.0, ds_d2 = -3.0, value = -4.0;
  view.RowStats(0, nullptr, 0, &num_d2, &mismatches, &ds_d2);
  k.EvalConditionedRow(&num_d2, &mismatches, &ds_d2, 0, 1.0, &value);
  EXPECT_EQ(num_d2, -1.0);
  EXPECT_EQ(mismatches, -2.0);
  EXPECT_EQ(ds_d2, -3.0);
  EXPECT_EQ(value, -4.0);
}

TEST(KernelTest, SpanMatchesEvalOnAnAcquisitionPool) {
  // The sub-space shape: a few free numerics (the first follows a pinned
  // run, and pinned features follow it) plus one free categorical; every
  // other feature and the data size pinned.
  const std::vector<FeatureKind> schema = PoolSchema();
  MixedKernel k(schema, SkewedParams());
  Rng rng(131);
  const auto base = RandomPoint(schema, &rng);
  const auto bs = PinnedProbes(schema, base, {4, 5, 7, 9, 13}, 41, &rng);
  // Training rows both far from the pool and on its pinned values.
  const std::vector<std::vector<double>> rows = {
      RandomPoint(schema, &rng), bs[1], RandomPoint(schema, &rng), bs[3]};
  const ProbeSpan span = ExpectSpanMatchesEval(k, rows, bs);
  EXPECT_EQ(CountFree(k, span, FeatureKind::kNumeric), 4u);
  EXPECT_EQ(CountFree(k, span, FeatureKind::kCategorical), 1u);
  EXPECT_EQ(CountFree(k, span, FeatureKind::kDataSize), 0u);
}

TEST(KernelTest, SpanMatchesEvalWhenEveryCategoricalIsPinned) {
  const std::vector<FeatureKind> schema = PoolSchema();
  MixedKernel k(schema, SkewedParams());
  Rng rng(137);
  const auto base = RandomPoint(schema, &rng);
  const auto bs = PinnedProbes(schema, base, {0, 1, 10}, 23, &rng);
  const ProbeSpan span =
      ExpectSpanMatchesEval(k, {RandomPoint(schema, &rng), base}, bs);
  EXPECT_EQ(CountFree(k, span, FeatureKind::kNumeric), 3u);
  EXPECT_EQ(CountFree(k, span, FeatureKind::kCategorical), 0u);
}

TEST(KernelTest, SpanMatchesEvalWhenEveryFeatureIsPinned) {
  MixedKernel k(MixedSchema(), SkewedParams());
  Rng rng(139);
  const auto b = RandomPoint(k.schema(), &rng);
  const std::vector<std::vector<double>> bs(9, b);
  const ProbeSpan span =
      ExpectSpanMatchesEval(k, {RandomPoint(k.schema(), &rng), b}, bs);
  EXPECT_TRUE(span.sub.free.empty());
}

TEST(KernelTest, SpanMatchesEvalOnASingleProbe) {
  MixedKernel k(MixedSchema(), SkewedParams());
  Rng rng(149);
  const std::vector<std::vector<double>> bs = {RandomPoint(k.schema(), &rng)};
  const ProbeSpan span =
      ExpectSpanMatchesEval(k, {RandomPoint(k.schema(), &rng)}, bs);
  EXPECT_TRUE(span.sub.free.empty());
}

TEST(KernelTest, SpanMatchesEvalWhenOnlyTheLastProbeDiffers) {
  // One feature of each kind differs in the last probe only: the scan
  // must reach the last probe to see it.
  const std::vector<FeatureKind> schema = MixedSchema();
  for (size_t f = 0; f < schema.size(); ++f) {
    MixedKernel k(schema, SkewedParams());
    Rng rng(151 + f);
    const auto b = RandomPoint(schema, &rng);
    std::vector<std::vector<double>> bs(17, b);
    bs.back()[f] = schema[f] == FeatureKind::kCategorical
                       ? (b[f] < 0.5 ? b[f] + 1.0 / 3.0 : b[f] - 1.0 / 3.0)
                       : b[f] + 0.125;
    const ProbeSpan span =
        ExpectSpanMatchesEval(k, {RandomPoint(schema, &rng), b}, bs);
    EXPECT_EQ(span.sub.free, std::vector<size_t>{f}) << "feature " << f;
  }
}

TEST(KernelTest, SpanMatchesEvalOnAPinnedFeatureOfSignedZeros) {
  // 0.0 == -0.0, so a feature holding both is pinned; its squared and
  // absolute differences do not see the sign, whichever zero the row
  // holds.
  const std::vector<FeatureKind> schema = {
      FeatureKind::kNumeric, FeatureKind::kNumeric, FeatureKind::kCategorical,
      FeatureKind::kCategorical, FeatureKind::kDataSize};
  MixedKernel k(schema, SkewedParams());
  Rng rng(157);
  std::vector<std::vector<double>> bs;
  for (size_t j = 0; j < 12; ++j) {
    auto b = RandomPoint(schema, &rng);
    const double zero = j % 2 == 0 ? 0.0 : -0.0;
    b[0] = zero;
    b[2] = -zero;
    b[4] = zero;
    bs.push_back(std::move(b));
  }
  std::vector<std::vector<double>> rows;
  for (double a0 : {0.0, -0.0, 0.25}) {
    auto a = RandomPoint(schema, &rng);
    a[0] = a0;
    a[2] = -a0;
    a[4] = a0;
    rows.push_back(std::move(a));
  }
  const ProbeSpan span = ExpectSpanMatchesEval(k, rows, bs);
  EXPECT_EQ(span.sub.free, (std::vector<size_t>{1, 3}));
}

TEST(KernelTest, SpanMatchesEvalWithOneOfTwoTimeOfDayFeaturesFree) {
  // Without a data size the context is hour of day and day of week: two
  // data-size-kind features, here one pinned and one free, in both orders.
  const std::vector<FeatureKind> schema = {
      FeatureKind::kNumeric, FeatureKind::kCategorical, FeatureKind::kNumeric,
      FeatureKind::kDataSize, FeatureKind::kDataSize};
  for (size_t free : {3u, 4u}) {
    MixedKernel k(schema, SkewedParams());
    Rng rng(163 + free);
    const auto base = RandomPoint(schema, &rng);
    const auto bs = PinnedProbes(schema, base, {0, free}, 19, &rng);
    const ProbeSpan span =
        ExpectSpanMatchesEval(k, {RandomPoint(schema, &rng), base}, bs);
    EXPECT_EQ(span.sub.free, (std::vector<size_t>{0, free}));
  }
}

}  // namespace
}  // namespace sparktune
