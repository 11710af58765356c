// Tests for EI, EIC, safe-region math and the acquisition optimizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "acquisition_reference.h"
#include "bo/acq_optimizer.h"
#include "bo/acquisition.h"
#include "meta/meta_surrogate.h"
#include "model/features.h"
#include "model/gp.h"
#include "sparksim/cluster.h"
#include "sparksim/spark_conf.h"

namespace sparktune {
namespace {

TEST(EiTest, NonNegativeEverywhere) {
  for (double mean : {-2.0, 0.0, 3.0}) {
    for (double var : {0.0, 0.1, 4.0}) {
      for (double best : {-1.0, 0.0, 1.0}) {
        EXPECT_GE(ExpectedImprovement(mean, var, best), 0.0);
      }
    }
  }
}

TEST(EiTest, ZeroVarianceReducesToHingeLoss) {
  EXPECT_DOUBLE_EQ(ExpectedImprovement(5.0, 0.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(ExpectedImprovement(1.0, 0.0, 3.0), 2.0);
}

TEST(EiTest, GrowsWithVarianceAtIncumbentMean) {
  double lo = ExpectedImprovement(1.0, 0.01, 1.0);
  double hi = ExpectedImprovement(1.0, 1.0, 1.0);
  EXPECT_GT(hi, lo);
  // Known closed form: EI = sigma * phi(0).
  EXPECT_NEAR(hi, std::sqrt(1.0) * 0.3989422804, 1e-6);
}

TEST(EiTest, LowerMeanGivesHigherEi) {
  EXPECT_GT(ExpectedImprovement(0.5, 0.5, 1.0),
            ExpectedImprovement(0.9, 0.5, 1.0));
}

TEST(ProbabilityBelowTest, Basics) {
  EXPECT_NEAR(ProbabilityBelow(0.0, 1.0, 0.0), 0.5, 1e-12);
  EXPECT_GT(ProbabilityBelow(0.0, 1.0, 2.0), 0.97);
  EXPECT_LT(ProbabilityBelow(0.0, 1.0, -2.0), 0.03);
  // Degenerate variance: deterministic indicator.
  EXPECT_DOUBLE_EQ(ProbabilityBelow(1.0, 0.0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(ProbabilityBelow(3.0, 0.0, 2.0), 0.0);
}

class FakeSurrogate final : public Surrogate {
 public:
  FakeSurrogate(std::function<Prediction(const std::vector<double>&)> fn)
      : fn_(std::move(fn)) {}
  Status Fit(const std::vector<std::vector<double>>&,
             const std::vector<double>&) override {
    return Status::OK();
  }
  Prediction Predict(const std::vector<double>& x) const override {
    return fn_(x);
  }
  size_t num_observations() const override { return 1; }

 private:
  std::function<Prediction(const std::vector<double>&)> fn_;
};

bool BitEqual(double a, double b) {
  uint64_t x = 0;
  uint64_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitEqual(a[i], b[i])) return false;
  }
  return true;
}

TEST(SafeRegionTest, UpperBoundUsesGamma) {
  FakeSurrogate surrogate([](const std::vector<double>&) {
    return Prediction{10.0, 4.0};  // sigma = 2
  });
  ProbabilisticConstraint c;
  c.surrogate = &surrogate;
  c.threshold = 11.5;
  // u = 10 + 0.5*2 = 11 <= 11.5: safe.
  EXPECT_TRUE(c.InSafeRegion({0.0}, 0.5));
  // u = 10 + 1.0*2 = 12 > 11.5: unsafe at gamma 1.
  EXPECT_FALSE(c.InSafeRegion({0.0}, 1.0));
  EXPECT_DOUBLE_EQ(c.UpperBound({0.0}, 1.0), 12.0);
}

TEST(EicTest, ConstraintProbabilityScalesEi) {
  FakeSurrogate objective([](const std::vector<double>&) {
    return Prediction{0.0, 1.0};
  });
  FakeSurrogate safe_constraint([](const std::vector<double>&) {
    return Prediction{-100.0, 1.0};  // essentially always satisfied
  });
  FakeSurrogate unsafe_constraint([](const std::vector<double>&) {
    return Prediction{100.0, 1.0};  // essentially never satisfied
  });

  EicAcquisition plain(&objective, 1.0);
  double base = plain.Eval({0.0});
  EXPECT_GT(base, 0.0);
  EXPECT_DOUBLE_EQ(base, plain.RawEi({0.0}));

  EicAcquisition with_safe(&objective, 1.0);
  with_safe.AddConstraint({&safe_constraint, 0.0});
  EXPECT_NEAR(with_safe.Eval({0.0}), base, 1e-6);

  EicAcquisition with_unsafe(&objective, 1.0);
  with_unsafe.AddConstraint({&unsafe_constraint, 0.0});
  EXPECT_LT(with_unsafe.Eval({0.0}), base * 1e-6);
}

ConfigSpace TwoDSpace() {
  ConfigSpace s;
  EXPECT_TRUE(s.Add(Parameter::Float("a", 0.0, 1.0, 0.5)).ok());
  EXPECT_TRUE(s.Add(Parameter::Float("b", 0.0, 1.0, 0.5)).ok());
  return s;
}

TEST(AcqOptimizerTest, FindsHighAcquisitionRegion) {
  ConfigSpace space = TwoDSpace();
  // Objective surrogate: mean lowest near (0.8, 0.2) => EI peaks there.
  FakeSurrogate objective([](const std::vector<double>& x) {
    double d = std::pow(x[0] - 0.8, 2) + std::pow(x[1] - 0.2, 2);
    return Prediction{d * 10.0, 0.01};
  });
  EicAcquisition acq(&objective, 5.0);
  Subspace full = Subspace::Full(&space);
  AcquisitionOptimizer opt;
  Rng rng(1);
  auto encode = [&](const Configuration& c) { return space.ToUnit(c); };
  AcqOptResult res =
      opt.Maximize(full, encode, acq, nullptr, nullptr, nullptr, &rng);
  EXPECT_NEAR(res.config[0], 0.8, 0.15);
  EXPECT_NEAR(res.config[1], 0.2, 0.15);
  EXPECT_FALSE(res.safe_fallback_used);
  EXPECT_GT(res.acq_value, 0.0);
}

TEST(AcqOptimizerTest, RespectsSafeFilter) {
  ConfigSpace space = TwoDSpace();
  FakeSurrogate objective([](const std::vector<double>& x) {
    return Prediction{-x[0], 0.01};  // EI wants a = 1
  });
  EicAcquisition acq(&objective, 0.0);
  Subspace full = Subspace::Full(&space);
  AcquisitionOptimizer opt;
  Rng rng(2);
  auto encode = [&](const Configuration& c) { return space.ToUnit(c); };
  // Safe region: a <= 0.5 only.
  auto safe = [](const Configuration& c) { return c[0] <= 0.5; };
  auto unsafety = [](const Configuration& c) { return c[0] - 0.5; };
  AcqOptResult res = opt.Maximize(full, encode, acq, safe, unsafety,
                                  nullptr, &rng);
  EXPECT_LE(res.config[0], 0.5);
}

TEST(AcqOptimizerTest, FallsBackToLeastUnsafeWhenNothingSafe) {
  ConfigSpace space = TwoDSpace();
  FakeSurrogate objective([](const std::vector<double>&) {
    return Prediction{0.0, 1.0};
  });
  EicAcquisition acq(&objective, 1.0);
  Subspace full = Subspace::Full(&space);
  AcquisitionOptimizer opt;
  Rng rng(3);
  auto encode = [&](const Configuration& c) { return space.ToUnit(c); };
  auto safe = [](const Configuration&) { return false; };
  // Unsafety decreases with a: the fallback should pick large a.
  auto unsafety = [](const Configuration& c) { return 2.0 - c[0]; };
  AcqOptResult res = opt.Maximize(full, encode, acq, safe, unsafety,
                                  nullptr, &rng);
  EXPECT_TRUE(res.safe_fallback_used);
  EXPECT_GT(res.config[0], 0.8);
}

TEST(AcqOptimizerTest, SkipsAlreadyEvaluatedConfigs) {
  ConfigSpace space = TwoDSpace();
  FakeSurrogate objective([](const std::vector<double>&) {
    return Prediction{0.0, 1.0};
  });
  EicAcquisition acq(&objective, 1.0);
  Subspace full = Subspace::Full(&space);
  AcquisitionOptimizer opt;
  Rng probe_rng(4);
  // Pre-populate history with many configs; the chosen one must be new.
  RunHistory history;
  for (int i = 0; i < 20; ++i) {
    Observation o;
    o.config = full.Sample(&probe_rng);
    o.feasible = true;
    history.Add(o);
  }
  Rng rng(4);  // same seed as probe: candidates collide with history
  auto encode = [&](const Configuration& c) { return space.ToUnit(c); };
  AcqOptResult res =
      opt.Maximize(full, encode, acq, nullptr, nullptr, &history, &rng);
  EXPECT_FALSE(history.Contains(res.config));
}

TEST(AcqOptimizerTest, SmallPoolsStillGetIncumbentNeighbors) {
  // Regression: num_candidates < 8 used to truncate num_candidates / 8 to
  // zero incumbent neighbors, silently disabling local exploitation. Count
  // candidate evaluations via the safe callback, which the pool screen
  // calls once per non-duplicate candidate (no hill climbs here): 4
  // scattered + 1 incumbent neighbor + 1 recent neighbor = 6 (the pre-fix
  // code saw 5).
  ConfigSpace space = TwoDSpace();
  FakeSurrogate objective([](const std::vector<double>&) {
    return Prediction{0.0, 1.0};
  });
  EicAcquisition acq(&objective, 1.0);
  Subspace full = Subspace::Full(&space);
  AcqOptOptions opts;
  opts.num_candidates = 4;
  opts.num_local_starts = 0;  // no hill climbs: count candidates only
  AcquisitionOptimizer opt(opts);
  RunHistory history;
  Observation o;
  o.config = space.Default();
  o.feasible = true;
  history.Add(o);
  int safe_calls = 0;
  auto safe = [&](const Configuration&) {
    ++safe_calls;
    return true;  // everything safe
  };
  Rng rng(9);
  auto encode = [&](const Configuration& c) { return space.ToUnit(c); };
  opt.Maximize(full, encode, acq, safe, nullptr, &history, &rng);
  EXPECT_EQ(safe_calls, 6);
}

// Counts the unsafety hooks' work: per-point calls and batch calls plus the
// candidates the batch calls saw.
struct UnsafetyCounter {
  int calls = 0;
  int batch_calls = 0;
  int batch_elements = 0;
};

// Unsafety in a few coarse levels, so many candidates tie.
double CoarseUnsafety(const Configuration& c) {
  return std::floor(4.0 * (1.0 - c[0])) - 2.0;
}

TEST(AcqOptimizerTest, UnsafetyIsNotScoredWhenACandidateIsSafe) {
  ConfigSpace space = TwoDSpace();
  FakeSurrogate objective([](const std::vector<double>& x) {
    return Prediction{x[0], 1.0};
  });
  EicAcquisition acq(&objective, 1.0);
  Subspace full = Subspace::Full(&space);
  auto encode = [&](const Configuration& c) { return space.ToUnit(c); };
  auto safe = [](const Configuration& c) { return c[0] <= 0.5; };
  auto safe_batch = [&](const std::vector<Configuration>& cs) {
    std::vector<char> out;
    for (const Configuration& c : cs) out.push_back(safe(c) ? 1 : 0);
    return out;
  };
  for (bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batched" : "per-point");
    AcqOptOptions opts;
    opts.num_candidates = 64;
    AcquisitionOptimizer opt(opts);
    UnsafetyCounter count;
    auto unsafety = [&](const Configuration& c) {
      ++count.calls;
      return CoarseUnsafety(c);
    };
    auto unsafety_batch = [&](const std::vector<Configuration>& cs) {
      ++count.batch_calls;
      count.batch_elements += static_cast<int>(cs.size());
      std::vector<double> out;
      for (const Configuration& c : cs) out.push_back(CoarseUnsafety(c));
      return out;
    };
    Rng rng(31);
    AcqOptResult res = opt.Maximize(
        full, encode, acq, safe, unsafety, nullptr, &rng,
        batched ? AcquisitionOptimizer::SafeBatchFn(safe_batch) : nullptr,
        batched ? AcquisitionOptimizer::UnsafetyBatchFn(unsafety_batch)
                : nullptr);
    EXPECT_FALSE(res.safe_fallback_used);
    EXPECT_LE(res.config[0], 0.5);
    EXPECT_EQ(count.calls, 0);
    EXPECT_EQ(count.batch_calls, 0);
  }
}

TEST(AcqOptimizerTest, NoSafeCandidateScoresUnsafetyOncePerCandidate) {
  // Nothing is safe: unsafety is scored once per non-duplicate candidate,
  // and the fallback is the eager scorer's pick — minimum unsafety, first
  // in candidate order on ties — with per-point or batched hooks.
  ConfigSpace space = TwoDSpace();
  FakeSurrogate objective([](const std::vector<double>&) {
    return Prediction{0.0, 1.0};
  });
  EicAcquisition acq(&objective, 1.0);
  Subspace full = Subspace::Full(&space);
  auto encode = [&](const Configuration& c) { return space.ToUnit(c); };
  // The history holds the first 5 scattered candidates of Rng(21), so
  // those 5 are duplicates. Candidates: 64 scattered + 8 incumbent
  // neighbors + 3 recent neighbors = 75, of which 70 are new.
  RunHistory history;
  Rng probe(21);
  for (int i = 0; i < 5; ++i) {
    Observation o;
    o.config = full.Sample(&probe);
    o.feasible = true;
    history.Add(o);
  }
  constexpr int kLive = 70;
  // The batched screen sees the non-duplicate candidates in candidate
  // order; every run draws the same candidates from Rng(21).
  std::vector<Configuration> screened;
  std::vector<Configuration> picks;
  for (bool batched : {true, false}) {
    SCOPED_TRACE(batched ? "batched" : "per-point");
    AcqOptOptions opts;
    opts.num_candidates = 64;
    AcquisitionOptimizer opt(opts);
    int safe_calls = 0;
    auto safe = [&](const Configuration&) {
      ++safe_calls;
      return false;
    };
    auto safe_batch = [&](const std::vector<Configuration>& cs) {
      screened = cs;
      return std::vector<char>(cs.size(), 0);
    };
    UnsafetyCounter count;
    auto unsafety = [&](const Configuration& c) {
      ++count.calls;
      return CoarseUnsafety(c);
    };
    auto unsafety_batch = [&](const std::vector<Configuration>& cs) {
      ++count.batch_calls;
      count.batch_elements += static_cast<int>(cs.size());
      std::vector<double> out;
      for (const Configuration& c : cs) out.push_back(CoarseUnsafety(c));
      return out;
    };
    Rng rng(21);
    AcqOptResult res = opt.Maximize(
        full, encode, acq, safe, unsafety, &history, &rng,
        batched ? AcquisitionOptimizer::SafeBatchFn(safe_batch) : nullptr,
        batched ? AcquisitionOptimizer::UnsafetyBatchFn(unsafety_batch)
                : nullptr);
    EXPECT_TRUE(res.safe_fallback_used);
    if (batched) {
      EXPECT_EQ(count.calls, 0);
      EXPECT_EQ(count.batch_calls, 1);
      EXPECT_EQ(count.batch_elements, kLive);
      EXPECT_EQ(screened.size(), static_cast<size_t>(kLive));
    } else {
      EXPECT_EQ(safe_calls, kLive);
      EXPECT_EQ(count.calls, kLive);
      EXPECT_EQ(count.batch_calls, 0);
    }
    picks.push_back(res.config);
  }
  ASSERT_EQ(screened.size(), static_cast<size_t>(kLive));
  size_t eager = 0;
  for (size_t i = 1; i < screened.size(); ++i) {
    if (CoarseUnsafety(screened[i]) < CoarseUnsafety(screened[eager])) {
      eager = i;
    }
  }
  for (const Configuration& pick : picks) {
    EXPECT_TRUE(pick == screened[eager]);
  }
}

TEST(AcqOptimizerTest, RejectedClimbStepsRetryWithAnnealedSigma) {
  // Regression: hill-climb draws rejected by the safe predicate used to
  // forfeit the whole step. Now each rejected draw is retried (up to
  // kMaxRejectedRetries times) with annealed sigma, so the safe predicate
  // is consulted strictly more often than the no-retry floor of one call
  // per candidate plus one per climb step.
  ConfigSpace space = TwoDSpace();
  FakeSurrogate objective([](const std::vector<double>& x) {
    return Prediction{x[0], 1.0};  // EI prefers small a — deep inside safe
  });
  EicAcquisition acq(&objective, 1.0);
  Subspace full = Subspace::Full(&space);
  AcqOptOptions opts;
  opts.num_candidates = 64;
  opts.num_local_starts = 1;
  opts.local_steps = 20;
  opts.local_sigma = 0.5;  // wide draws: many land outside the safe region
  AcquisitionOptimizer opt(opts);
  int safe_calls = 0;
  auto safe = [&](const Configuration& c) {
    ++safe_calls;
    return c[0] <= 0.3;
  };
  Rng rng(17);
  auto encode = [&](const Configuration& c) { return space.ToUnit(c); };
  AcqOptResult res =
      opt.Maximize(full, encode, acq, safe, nullptr, nullptr, &rng);
  // No-retry floor: 64 candidate checks + 20 climb-step checks = 84.
  EXPECT_GT(safe_calls, 64 + 20);
  EXPECT_LE(res.config[0], 0.3);
}

TEST(EicScorerTest, UnsafetyRisesWithTheUpperBoundAtThresholdsAtOrBelowZero) {
  // With log targets the runtime threshold is log(runtime_max): below 0
  // for a bound under 1, and 0 at 1. Ranking runtime violation as
  // u(x) / threshold - 1 there scores every runtime-unsafe candidate <= 0
  // (erased by the max with 0) or +inf, so the fallback took the first
  // candidate instead of the least unsafe one.
  ConfigSpace space = TwoDSpace();
  FakeSurrogate objective([](const std::vector<double>&) {
    return Prediction{0.0, 1.0};
  });
  // u(x) = 0.5 + 2a + 0.5 * 0.1: above both thresholds everywhere.
  FakeSurrogate runtime([](const std::vector<double>& x) {
    return Prediction{0.5 + 2.0 * x[0], 0.01};
  });
  const Subspace full = Subspace::Full(&space);
  for (double runtime_max : {0.5, 1.0}) {
    SCOPED_TRACE("runtime_max " + std::to_string(runtime_max));
    EicScorerOptions o;
    o.objective = &objective;
    o.incumbent = 1.0;
    o.runtime = {&runtime, std::log(runtime_max)};
    o.safety = true;
    const EicScorer scorer(SubspaceEncoder(full, {}), o);
    std::vector<Configuration> cs;
    for (double a : {0.0, 0.1, 0.3, 0.6, 1.0}) {
      cs.push_back(Configuration(std::vector<double>{a, 0.5}));
    }
    const std::vector<double> u = scorer.Unsafety(cs);
    for (size_t i = 0; i < cs.size(); ++i) {
      EXPECT_FALSE(scorer.Score(cs[i]).safe);
      EXPECT_GT(u[i], 0.0);
      if (i > 0) {
        EXPECT_GT(u[i], u[i - 1]);
      }
    }
    // Nothing is safe, so the fallback is the candidate with the smallest
    // bound: the smallest a among the 64 scattered draws of Rng(5).
    AcqOptOptions opts;
    opts.num_candidates = 64;
    Rng rng(5);
    AcqOptResult res =
        AcquisitionOptimizer(opts).Maximize(full, scorer, nullptr, &rng);
    EXPECT_TRUE(res.safe_fallback_used);
    Rng probe(5);
    double least = std::numeric_limits<double>::infinity();
    for (int i = 0; i < opts.num_candidates; ++i) {
      least = std::min(least, full.Sample(&probe)[0]);
    }
    EXPECT_EQ(res.config[0], least);
  }
}

// Real surrogates for the scorer's equivalence cases: GPs for the
// objective and the log runtime over three float parameters, fitted on 14
// observations that also form the history.
class ScorerFixture {
 public:
  ScorerFixture()
      : objective_(Schema(), {}), runtime_(Schema(), {}) {
    for (int k = 0; k < 3; ++k) {
      EXPECT_TRUE(
          space_.Add(Parameter::Float("p" + std::to_string(k), 0.0, 1.0, 0.5))
              .ok());
    }
    Rng rng(1234);
    const Subspace full = Subspace::Full(&space_);
    std::vector<std::vector<double>> x;
    std::vector<double> y, log_runtime;
    for (int i = 0; i < 14; ++i) {
      Observation o;
      o.config = full.Sample(&rng);
      const std::vector<double> u = space_.ToUnit(o.config);
      o.objective = std::sin(3.0 * u[0]) + std::pow(u[1] - 0.3, 2) + 0.5 * u[2];
      o.feasible = true;
      x.push_back(u);
      y.push_back(o.objective);
      log_runtime.push_back(1.0 + 1.5 * u[0] + u[1] * u[1]);
      history_.Add(o);
    }
    EXPECT_TRUE(objective_.Fit(x, y).ok());
    EXPECT_TRUE(runtime_.Fit(x, log_runtime).ok());
    incumbent_ = *std::min_element(y.begin(), y.end());
  }

  const ConfigSpace& space() const { return space_; }
  const RunHistory& history() const { return history_; }
  std::vector<double> Encode(const Configuration& c) const {
    return space_.ToUnit(c);
  }

  // The advisor's ways of wiring the constraints.
  struct Mode {
    const char* name;
    bool runtime;
    bool resource;
    bool safety;
    double threshold;
    double resource_max;
    bool nothing_safe;
  };
  static std::vector<Mode> Modes() {
    return {
        {"safety with runtime and resource", true, true, true, 2.2, 1.8,
         false},
        {"safety with runtime only", true, false, true, 2.2, 1.8, false},
        {"resource without safety", true, true, false, 2.2, 1.8, false},
        {"EIC without safety", true, false, false, 2.2, 1.8, false},
        {"no constraints", false, false, false, 0.0, 1.8, false},
        // The threshold lies just below every runtime bound (and stays
        // positive, where the reference ranks unsafety as EicScorer does),
        // and the resource bound is tight where the runtime is low, so the
        // two violations compete for the fallback.
        {"nothing safe", true, true, true, 0.9, 1.2, true},
    };
  }

  EicScorerOptions Options(const Mode& m) const {
    EicScorerOptions o;
    o.objective = &objective_;
    o.incumbent = incumbent_;
    if (m.runtime) o.runtime = {&runtime_, m.threshold};
    if (m.resource) {
      // Falls as the runtime rises, so in the fallback the two
      // violations compete for the max.
      o.resource_fn = [](const Configuration& c) {
        return 1.5 - c[0] + c[2];
      };
      o.resource_max = m.resource_max;
    }
    o.safety = m.safety;
    return o;
  }

 private:
  static std::vector<FeatureKind> Schema() {
    return std::vector<FeatureKind>(3, FeatureKind::kNumeric);
  }

  ConfigSpace space_;
  GaussianProcess objective_;
  GaussianProcess runtime_;
  RunHistory history_;
  double incumbent_ = 0.0;
};

bool SameBits(const AcqOptResult& a, const AcqOptResult& b) {
  return a.config == b.config && a.acq_value == b.acq_value &&
         a.raw_ei == b.raw_ei && a.safe_fallback_used == b.safe_fallback_used;
}

TEST(EicScorerTest, MaximizeMatchesTheAdvisorsHookWiring) {
  ScorerFixture f;
  const Subspace full = Subspace::Full(&f.space());
  auto encode = [&](const Configuration& c) { return f.Encode(c); };
  for (const ScorerFixture::Mode& mode : ScorerFixture::Modes()) {
    const EicScorerOptions o = f.Options(mode);
    const EicScorer scorer(SubspaceEncoder(full, {}), o);
    for (uint64_t seed : {3u, 17u, 29u}) {
      SCOPED_TRACE(std::string(mode.name) + ", seed " +
                   std::to_string(seed));
      AcqOptOptions opts;
      opts.num_candidates = 96;
      opts.num_local_starts = 4;
      opts.local_steps = 10;
      AcquisitionOptimizer opt(opts);
      Rng hook_rng(seed);
      Rng scorer_rng(seed);
      AcqOptResult hooks = reference::MaximizeWithHooks(
          opt, full, encode, o, &f.history(), &hook_rng);
      AcqOptResult scored =
          opt.Maximize(full, scorer, &f.history(), &scorer_rng);
      EXPECT_TRUE(SameBits(hooks, scored));
      EXPECT_EQ(scored.safe_fallback_used, mode.nothing_safe);
      // Both forms drew the same numbers from the shared stream.
      EXPECT_EQ(hook_rng.Next(), scorer_rng.Next());
    }
  }
}

TEST(EicScorerTest, BatchedScoresMatchPerCandidateScoresHoweverSplit) {
  ScorerFixture f;
  const Subspace full = Subspace::Full(&f.space());
  Rng rng(77);
  std::vector<Configuration> pool;
  for (int i = 0; i < 61; ++i) pool.push_back(full.Sample(&rng));
  auto same = [](const CandidateScore& a, const CandidateScore& b) {
    return a.safe == b.safe && a.acq == b.acq;
  };
  auto same_unsafety = [](const CandidateScore& a, const CandidateScore& b) {
    return a.unsafety.has_value() == b.unsafety.has_value() &&
           (!a.unsafety || BitEqual(*a.unsafety, *b.unsafety));
  };
  for (const ScorerFixture::Mode& mode : ScorerFixture::Modes()) {
    SCOPED_TRACE(mode.name);
    const EicScorerOptions o = f.Options(mode);
    const EicScorer scorer(SubspaceEncoder(full, {}), o);
    const std::vector<CandidateScore> whole = scorer.ScoreBatch(pool);
    ASSERT_EQ(whole.size(), pool.size());
    const std::vector<double> unsafety = scorer.Unsafety(pool);
    size_t safe = 0;
    size_t known = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
      EXPECT_TRUE(same(whole[i], scorer.Score(pool[i]))) << "candidate " << i;
      if (whole[i].safe) ++safe;
      // The screen knows the unsafety of exactly the candidates it
      // predicted the runtime for, and it is Unsafety's, bit for bit.
      const bool within_rx = !o.resource_fn || o.resource_fn(pool[i]) <=
                                                   o.resource_max;
      EXPECT_EQ(whole[i].unsafety.has_value(),
                mode.safety && mode.runtime && within_rx)
          << "candidate " << i;
      if (whole[i].unsafety.has_value()) {
        ++known;
        EXPECT_TRUE(BitEqual(*whole[i].unsafety, unsafety[i]))
            << "candidate " << i;
      }
    }
    // In the nothing-safe mode, candidates R(x) rejected compete with
    // runtime-unsafe ones for the fallback.
    if (mode.nothing_safe) {
      EXPECT_GT(known, 0u);
      EXPECT_LT(known, pool.size());
    }
    // Each mode screens what it claims to.
    const bool screens = mode.resource || (mode.safety && mode.runtime);
    if (mode.nothing_safe) {
      EXPECT_EQ(safe, 0u);
    } else if (screens) {
      EXPECT_GT(safe, 0u);
      EXPECT_LT(safe, pool.size());
    } else {
      EXPECT_EQ(safe, pool.size());
    }
    for (size_t chunk : {1u, 2u, 5u, 16u, 60u}) {
      for (size_t start = 0; start < pool.size(); start += chunk) {
        const size_t end = std::min(pool.size(), start + chunk);
        const std::vector<CandidateScore> part = scorer.ScoreBatch(
            std::vector<Configuration>(pool.begin() + start,
                                       pool.begin() + end));
        for (size_t k = 0; k < part.size(); ++k) {
          EXPECT_TRUE(same(part[k], whole[start + k]) &&
                      same_unsafety(part[k], whole[start + k]))
              << "chunk " << chunk << ", candidate " << start + k;
        }
      }
    }
  }
}

// ---- Scoring in the sub-space (the base with its free coordinates
// overwritten) ----

// A sub-space of `space` with `k` free parameters drawn at random around
// `base`.
Subspace RandomSubspace(const ConfigSpace* space, size_t k,
                        const Configuration& base, Rng* rng) {
  std::vector<int> idx(space->size());
  std::iota(idx.begin(), idx.end(), 0);
  for (size_t i = idx.size(); i > 1; --i) {
    std::swap(idx[i - 1],
              idx[static_cast<size_t>(
                  rng->UniformInt(0, static_cast<int64_t>(i) - 1))]);
  }
  idx.resize(k);
  return Subspace(space, std::move(idx), base);
}

// Candidates of every kind Maximize draws: Sample, Neighbor, Project and
// FromFreeUnit, the unit cube's corners included.
std::vector<Configuration> DrawCandidates(const Subspace& sub, Rng* rng) {
  std::vector<Configuration> cs;
  for (int i = 0; i < 30; ++i) {
    Configuration c = sub.Sample(rng);
    cs.push_back(sub.Neighbor(c, 0.08, rng));
    cs.push_back(std::move(c));
    cs.push_back(sub.Project(sub.space().Sample(rng)));
    std::vector<double> u(sub.num_free());
    for (double& v : u) v = rng->Uniform();
    cs.push_back(sub.FromFreeUnit(u));
  }
  cs.push_back(sub.FromFreeUnit(std::vector<double>(sub.num_free(), 0.0)));
  cs.push_back(sub.FromFreeUnit(std::vector<double>(sub.num_free(), 1.0)));
  return cs;
}

std::vector<size_t> PinnedIndices(const Subspace& sub) {
  std::vector<size_t> pinned;
  for (size_t p = 0; p < sub.space().size(); ++p) {
    if (!sub.IsFree(static_cast<int>(p))) pinned.push_back(p);
  }
  return pinned;
}

TEST(SubspaceEncoderTest, MatchesEncodeFeaturesBitForBit) {
  const ConfigSpace space = BuildSparkSpace(ClusterSpec::ProductionGroup());
  ASSERT_EQ(space.size(), 30u);
  const std::vector<std::vector<double>> contexts = {
      {}, {NormalizeDataSize(37.5, 1024.0)}, TimeOfDayContext(1234.5)};
  Rng rng(606);
  for (size_t k : {1u, 9u, 30u}) {
    for (const std::vector<double>& context : contexts) {
      for (int trial = 0; trial < 3; ++trial) {
        SCOPED_TRACE("k " + std::to_string(k) + ", context size " +
                     std::to_string(context.size()) + ", trial " +
                     std::to_string(trial));
        const Configuration base =
            trial == 0 ? space.Default() : space.Sample(&rng);
        const Subspace sub = RandomSubspace(&space, k, base, &rng);
        const SubspaceEncoder encode(sub, context);
        const FeatureSubspace& features = encode.subspace();
        ASSERT_EQ(features.free.size(), k);
        EXPECT_TRUE(
            std::is_sorted(features.free.begin(), features.free.end()));
        for (const Configuration& c : DrawCandidates(sub, &rng)) {
          // The free features, alone and strided as a pool packs them.
          std::vector<double> free(k), strided(3 * k, -1.0);
          encode(c, free.data());
          encode(c, strided.data() + 1, 3);
          std::vector<double> x = features.base;
          for (size_t s = 0; s < k; ++s) {
            x[features.free[s]] = free[s];
            EXPECT_TRUE(BitEqual(strided[3 * s + 1], free[s]));
          }
          EXPECT_TRUE(BitEqual(x, EncodeFeatures(space, c, context)));
        }
      }
    }
  }
}

// Spark-space observations encoded as the advisor encodes them, half
// inside `sub` (so many of their pinned terms are zero) and half anywhere,
// each with its own context; the history holds the same configurations.
struct SparkRows {
  std::vector<std::vector<double>> x;
  std::vector<double> log_objective;
  std::vector<double> log_runtime;
  RunHistory history;
};

SparkRows MakeSparkRows(const Subspace& sub, size_t n, bool time_of_day,
                        Rng* rng) {
  const ConfigSpace& space = sub.space();
  SparkRows r;
  for (size_t i = 0; i < n; ++i) {
    Observation o;
    o.config = i % 2 == 0 ? sub.Sample(rng) : space.Sample(rng);
    const std::vector<double> context =
        time_of_day
            ? TimeOfDayContext(rng->Uniform(0.0, 500.0))
            : std::vector<double>{
                  NormalizeDataSize(rng->Uniform(1.0, 800.0), 1024.0)};
    const std::vector<double> x = EncodeFeatures(space, o.config, context);
    double y = 0.5 * x.back();
    for (size_t f = 0; f < 6; ++f) y += std::sin(3.0 * x[f]);
    o.objective = std::exp(y);
    o.feasible = true;
    r.log_objective.push_back(y);
    r.log_runtime.push_back(1.0 + x[0] + 0.5 * x[1] * x[2] + x.back());
    r.x.push_back(x);
    r.history.Add(o);
  }
  return r;
}

// EicScorer and the pre-change scorer maximize to the same bits over `sub`
// with the objective and runtime surrogates of `rows`: with safety, R(x)
// and the runtime constraint; with nothing safe; and with no constraint.
void ExpectMaximizeMatchesPreChange(const Subspace& sub,
                                    const std::vector<double>& context,
                                    const Surrogate* objective,
                                    const Surrogate* runtime,
                                    const SparkRows& rows) {
  const ConfigSpace& space = sub.space();
  std::vector<double> sorted = rows.log_runtime;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> rates;
  Rng rate_rng(13);
  auto resource = [&space](const Configuration& c) {
    return ResourceFunction(DecodeSparkConf(space, c));
  };
  for (int i = 0; i < 31; ++i) rates.push_back(resource(sub.Sample(&rate_rng)));
  std::sort(rates.begin(), rates.end());
  struct Mode {
    const char* name;
    bool runtime;
    bool resource;
    double threshold;
    bool nothing_safe;
  };
  const Mode modes[] = {
      {"safety with runtime and resource", true, true,
       sorted[sorted.size() / 2], false},
      {"nothing safe", true, true, sorted.front() - 4.0, true},
      {"no constraints", false, false, 0.0, false},
  };
  auto full_features = [&](const Configuration& c) {
    return EncodeFeatures(space, c, context);
  };
  for (const Mode& mode : modes) {
    EicScorerOptions o;
    o.objective = objective;
    o.incumbent =
        *std::min_element(rows.log_objective.begin(), rows.log_objective.end());
    if (mode.runtime) o.runtime = {runtime, mode.threshold};
    if (mode.resource) {
      o.resource_fn = resource;
      o.resource_max = rates[rates.size() / 2];
    }
    o.safety = mode.runtime;
    const EicScorer scorer(SubspaceEncoder(sub, context), o);
    const reference::FullFeatureScorer before(full_features, o);
    for (uint64_t seed : {3u, 17u}) {
      SCOPED_TRACE(std::string(mode.name) + ", seed " + std::to_string(seed));
      AcqOptOptions opts;
      opts.num_candidates = 80;
      opts.num_local_starts = 3;
      opts.local_steps = 8;
      AcquisitionOptimizer opt(opts);
      Rng scorer_rng(seed), before_rng(seed);
      const AcqOptResult got =
          opt.Maximize(sub, scorer, &rows.history, &scorer_rng);
      const AcqOptResult want =
          opt.Maximize(sub, before, &rows.history, &before_rng);
      EXPECT_TRUE(SameBits(got, want));
      EXPECT_EQ(got.safe_fallback_used, mode.nothing_safe);
      EXPECT_EQ(scorer_rng.Next(), before_rng.Next());
    }
  }
}

TEST(EicScorerTest, MaximizeMatchesThePreChangeScorerWithAGpObjective) {
  const ConfigSpace space = BuildSparkSpace(ClusterSpec::ProductionGroup());
  Rng rng(909);
  for (bool time_of_day : {false, true}) {
    SCOPED_TRACE(time_of_day ? "time of day" : "data size");
    const std::vector<FeatureKind> schema =
        BuildFeatureSchema(space, time_of_day ? 2 : 1);
    const Subspace sub = RandomSubspace(&space, 9, space.Sample(&rng), &rng);
    const SparkRows rows = MakeSparkRows(sub, 40, time_of_day, &rng);
    GaussianProcess objective(schema), runtime(schema);
    ASSERT_TRUE(objective.Fit(rows.x, rows.log_objective).ok());
    ASSERT_TRUE(runtime.Fit(rows.x, rows.log_runtime).ok());
    const std::vector<double> context =
        time_of_day ? TimeOfDayContext(77.5)
                    : std::vector<double>{NormalizeDataSize(200.0, 1024.0)};
    ExpectMaximizeMatchesPreChange(sub, context, &objective, &runtime, rows);
    ExpectMaximizeMatchesPreChange(Subspace::Full(&space), context,
                                   &objective, &runtime, rows);
  }
}

TEST(EicScorerTest, MaximizeMatchesThePreChangeScorerWithAMetaEnsemble) {
  // The transfer objective: the current-task GP on the advisor's rows and
  // two config-only base GPs from other tasks, still weighted after 12
  // observations.
  const ConfigSpace space = BuildSparkSpace(ClusterSpec::ProductionGroup());
  Rng rng(919);
  const std::vector<FeatureKind> schema = BuildFeatureSchema(space, 1);
  const Subspace sub = RandomSubspace(&space, 9, space.Sample(&rng), &rng);
  const SparkRows rows = MakeSparkRows(sub, 12, false, &rng);
  std::vector<BaseSurrogate> bases;
  for (double similarity : {0.8, 0.3}) {
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 20; ++i) {
      x.push_back(space.ToUnit(i % 3 == 0 ? sub.Sample(&rng)
                                          : space.Sample(&rng)));
      y.push_back(std::cos(2.0 * x.back()[1]) + x.back()[4] * x.back()[7]);
    }
    auto gp = std::make_shared<GaussianProcess>(BuildFeatureSchema(space, 0));
    ASSERT_TRUE(gp->Fit(x, y).ok());
    BaseSurrogate b;
    b.model = gp;
    b.similarity = similarity;
    b.input_dims = space.size();
    b.y_mean = 0.2;
    b.y_scale = 1.3;
    bases.push_back(std::move(b));
  }
  MetaEnsembleSurrogate objective(schema, std::move(bases));
  ASSERT_TRUE(objective.Fit(rows.x, rows.log_objective).ok());
  ASSERT_GT(objective.base_weights()[0], 0.0);
  ASSERT_GT(objective.base_weights()[1], 0.0);
  GaussianProcess runtime(schema);
  ASSERT_TRUE(runtime.Fit(rows.x, rows.log_runtime).ok());
  const std::vector<double> context = {NormalizeDataSize(200.0, 1024.0)};
  ExpectMaximizeMatchesPreChange(sub, context, &objective, &runtime, rows);
  ExpectMaximizeMatchesPreChange(Subspace::Full(&space), context, &objective,
                                 &runtime, rows);
}

TEST(SubspaceHistoryTest, MatchesRunHistoryContainsOnEveryCandidate) {
  const ConfigSpace space = BuildSparkSpace(ClusterSpec::ProductionGroup());
  Rng rng(707);
  for (size_t k : {1u, 9u, 30u}) {
    SCOPED_TRACE("k " + std::to_string(k));
    // A base holding 0.0 (a category index) in a pinned coordinate.
    const Subspace drawn = RandomSubspace(&space, k, space.Sample(&rng), &rng);
    const std::vector<size_t> pinned = PinnedIndices(drawn);
    Configuration base = drawn.base();
    size_t zero = space.size();
    for (size_t p : pinned) {
      if (!space.param(p).is_numeric()) {
        zero = p;
        base[p] = 0.0;
        break;
      }
    }
    ASSERT_TRUE(pinned.empty() || zero < space.size());
    const Subspace sub(&space, drawn.free_indices(), base);
    const std::vector<Configuration> cands = DrawCandidates(sub, &rng);

    // Each case is a history of one kind of row, and whether a row of that
    // kind can match a candidate and shares the base.
    struct Case {
      std::string name;
      std::vector<Configuration> rows;
      bool matches;
      bool shares;
    };
    std::vector<Case> cases;
    Case sharing{"rows sharing the base", {}, true, true};
    for (size_t i = 0; i < cands.size(); i += 3) sharing.rows.push_back(cands[i]);
    cases.push_back(sharing);
    Case free_nan{"NaN in a free coordinate", {}, false, true};
    Case free_zero{"-0.0 where a candidate holds 0.0 freely", {}, true, true};
    for (size_t i = 0; i < cands.size(); i += 4) {
      const size_t f = static_cast<size_t>(sub.free_indices()[0]);
      Configuration c = cands[i];
      c[f] = std::numeric_limits<double>::quiet_NaN();
      free_nan.rows.push_back(c);
      for (int idx : sub.free_indices()) {
        Configuration z = cands[i];
        if (z[static_cast<size_t>(idx)] != 0.0) continue;
        z[static_cast<size_t>(idx)] = -0.0;
        free_zero.rows.push_back(z);
      }
    }
    cases.push_back(free_nan);
    if (!free_zero.rows.empty()) cases.push_back(free_zero);
    Case other_length{"rows of another length", {}, false, false};
    for (size_t i = 0; i < cands.size(); i += 5) {
      std::vector<double> longer = cands[i].values();
      longer.push_back(0.5);
      other_length.rows.push_back(Configuration(longer));
      std::vector<double> shorter = cands[i].values();
      shorter.pop_back();
      other_length.rows.push_back(Configuration(shorter));
    }
    cases.push_back(other_length);
    if (!pinned.empty()) {
      Case one_pinned{"one pinned coordinate differs", {}, false, false};
      Case pinned_nan{"NaN in a pinned coordinate", {}, false, false};
      Case pinned_zero{"-0.0 where the base holds 0.0", {}, true, true};
      for (size_t i = 0; i < cands.size(); i += 4) {
        const size_t p = pinned[i % pinned.size()];
        Configuration c = cands[i];
        c[p] = std::nextafter(c[p], std::numeric_limits<double>::infinity());
        one_pinned.rows.push_back(c);
        c = cands[i];
        c[p] = std::numeric_limits<double>::quiet_NaN();
        pinned_nan.rows.push_back(c);
        c = cands[i];
        c[zero] = -0.0;
        pinned_zero.rows.push_back(c);
      }
      cases.push_back(one_pinned);
      cases.push_back(pinned_nan);
      cases.push_back(pinned_zero);
    }
    Case all{"every kind at once", {}, true, true};
    for (const Case& c : cases) {
      all.rows.insert(all.rows.end(), c.rows.begin(), c.rows.end());
    }
    cases.push_back(all);

    for (const Case& c : cases) {
      SCOPED_TRACE(c.name);
      RunHistory history;
      size_t sharing_rows = 0;
      for (const Configuration& row : c.rows) {
        Observation o;
        o.config = row;
        history.Add(o);
        bool shares = row.size() == base.size();
        for (size_t p : pinned) shares = shares && row[p] == base[p];
        sharing_rows += shares ? 1 : 0;
      }
      const SubspaceHistory seen(&history, sub);
      EXPECT_EQ(sharing_rows > 0, c.shares);
      size_t dups = 0;
      for (size_t i = 0; i < cands.size(); ++i) {
        const bool dup = history.Contains(cands[i]);
        EXPECT_EQ(seen.Contains(cands[i]), dup) << "candidate " << i;
        dups += dup ? 1 : 0;
      }
      EXPECT_EQ(dups > 0, c.matches);
    }
    const SubspaceHistory none(nullptr, sub);
    for (const Configuration& c : cands) EXPECT_FALSE(none.Contains(c));
  }
}

// Records every configuration Maximize hands each scorer method, then
// scores through `inner`.
class RecordingScorer final : public CandidateScorer {
 public:
  explicit RecordingScorer(const CandidateScorer& inner) : inner_(inner) {}

  std::vector<CandidateScore> ScoreBatch(
      const std::vector<Configuration>& cs) const override {
    batches_.push_back(cs);
    return inner_.ScoreBatch(cs);
  }
  CandidateScore Score(const Configuration& c) const override {
    scored_.push_back(c);
    return inner_.Score(c);
  }
  std::vector<double> Unsafety(
      const std::vector<Configuration>& cs) const override {
    unsafety_calls_.push_back(cs);
    return inner_.Unsafety(cs);
  }
  double RawEi(const Configuration& c) const override {
    raw_ei_.push_back(c);
    return inner_.RawEi(c);
  }

  const std::vector<std::vector<Configuration>>& batches() const {
    return batches_;
  }
  const std::vector<Configuration>& scored() const { return scored_; }
  const std::vector<std::vector<Configuration>>& unsafety_calls() const {
    return unsafety_calls_;
  }
  const std::vector<Configuration>& raw_ei() const { return raw_ei_; }

 private:
  const CandidateScorer& inner_;
  mutable std::vector<std::vector<Configuration>> batches_;
  mutable std::vector<Configuration> scored_;
  mutable std::vector<std::vector<Configuration>> unsafety_calls_;
  mutable std::vector<Configuration> raw_ei_;
};

// A runtime surrogate that records the inputs of every prediction call.
class RecordingSurrogate final : public Surrogate {
 public:
  explicit RecordingSurrogate(
      std::function<Prediction(const std::vector<double>&)> fn)
      : fn_(std::move(fn)) {}
  Status Fit(const std::vector<std::vector<double>>&,
             const std::vector<double>&) override {
    return Status::OK();
  }
  Prediction Predict(const std::vector<double>& x) const override {
    calls_.push_back({x});
    return fn_(x);
  }
  std::vector<Prediction> PredictBatch(
      const std::vector<std::vector<double>>& xs) const override {
    calls_.push_back(xs);
    std::vector<Prediction> out;
    for (const auto& x : xs) out.push_back(fn_(x));
    return out;
  }
  size_t num_observations() const override { return 1; }

  const std::vector<std::vector<std::vector<double>>>& calls() const {
    return calls_;
  }

 private:
  std::function<Prediction(const std::vector<double>&)> fn_;
  mutable std::vector<std::vector<std::vector<double>>> calls_;
};

size_t FirstLeast(const std::vector<double>& u) {
  size_t least = 0;
  for (size_t t = 1; t < u.size(); ++t) {
    if (u[t] < u[least]) least = t;
  }
  return least;
}

TEST(EicScorerTest, FallbackPredictsOnlyTheCandidatesRxRejected) {
  // Nothing is safe: the runtime bound exceeds the (positive) threshold
  // everywhere, and R(x) rejects part of the pool. The screen predicts
  // the runtime of the candidates within R(x) and keeps their unsafety,
  // so the fallback predicts exactly the ones R(x) rejected.
  ConfigSpace space = TwoDSpace();
  FakeSurrogate objective([](const std::vector<double>&) {
    return Prediction{0.0, 1.0};
  });
  RecordingSurrogate runtime([](const std::vector<double>& x) {
    return Prediction{1.0 + x[0] + x[1], 0.01};
  });
  auto encode = [&](const Configuration& c) { return space.ToUnit(c); };
  EicScorerOptions o;
  o.objective = &objective;
  o.incumbent = 1.0;
  o.runtime = {&runtime, 0.9};
  o.resource_fn = [](const Configuration& c) { return 1.0 + c[1] - c[0]; };
  o.resource_max = 1.1;
  o.safety = true;
  const EicScorer scorer(SubspaceEncoder(Subspace::Full(&space), {}), o);
  const RecordingScorer recorder(scorer);
  AcqOptOptions opts;
  opts.num_candidates = 64;
  Rng rng(44);
  const AcqOptResult res = AcquisitionOptimizer(opts).Maximize(
      Subspace::Full(&space), recorder, nullptr, &rng);
  EXPECT_TRUE(res.safe_fallback_used);

  ASSERT_EQ(recorder.batches().size(), 1u);
  const std::vector<Configuration>& live = recorder.batches()[0];
  std::vector<Configuration> within, rejected;
  for (const Configuration& c : live) {
    (o.resource_fn(c) <= o.resource_max ? within : rejected).push_back(c);
  }
  ASSERT_GT(within.size(), 0u);
  ASSERT_GT(rejected.size(), 0u);
  auto encoded = [&](const std::vector<Configuration>& cs) {
    std::vector<std::vector<double>> xs;
    for (const Configuration& c : cs) xs.push_back(encode(c));
    return xs;
  };
  // One prediction pass for the screen, one for the fallback: every live
  // candidate is predicted exactly once.
  ASSERT_EQ(runtime.calls().size(), 2u);
  EXPECT_EQ(runtime.calls()[0], encoded(within));
  EXPECT_EQ(runtime.calls()[1], encoded(rejected));
  ASSERT_EQ(recorder.unsafety_calls().size(), 1u);
  EXPECT_TRUE(recorder.unsafety_calls()[0] == rejected);
  // The pick is the eager scorer's.
  EXPECT_TRUE(res.config == live[FirstLeast(scorer.Unsafety(live))]);
}

TEST(EicScorerTest, FallbackPicksTheLeastUnsafeAtEveryThresholdSign) {
  // Coarse runtime and resource levels make many candidates tie, so the
  // first-in-candidate-order rule decides too. The runtime bound is above
  // each threshold everywhere; R(x) rejects part of every pool.
  ConfigSpace space = TwoDSpace();
  FakeSurrogate objective([](const std::vector<double>&) {
    return Prediction{0.0, 1.0};
  });
  FakeSurrogate runtime([](const std::vector<double>& x) {
    return Prediction{0.6 + 0.25 * std::floor(4.0 * x[0]), 0.01};
  });
  const Subspace full = Subspace::Full(&space);
  for (double threshold : {0.5, 0.0, -0.5}) {
    for (uint64_t seed : {5u, 6u, 7u}) {
      SCOPED_TRACE("threshold " + std::to_string(threshold) + ", seed " +
                   std::to_string(seed));
      EicScorerOptions o;
      o.objective = &objective;
      o.incumbent = 1.0;
      o.runtime = {&runtime, threshold};
      o.resource_fn = [](const Configuration& c) {
        return 1.0 + 0.25 * std::floor(4.0 * c[1]) - 0.5 * c[0];
      };
      o.resource_max = 1.2;
      o.safety = true;
      const EicScorer scorer(SubspaceEncoder(full, {}), o);
      const RecordingScorer recorder(scorer);
      AcqOptOptions opts;
      opts.num_candidates = 96;
      Rng rng(seed);
      const AcqOptResult res = AcquisitionOptimizer(opts).Maximize(
          full, recorder, nullptr, &rng);
      EXPECT_TRUE(res.safe_fallback_used);
      ASSERT_EQ(recorder.batches().size(), 1u);
      const std::vector<Configuration>& live = recorder.batches()[0];
      ASSERT_EQ(recorder.unsafety_calls().size(), 1u);
      EXPECT_GT(recorder.unsafety_calls()[0].size(), 0u);
      EXPECT_LT(recorder.unsafety_calls()[0].size(), live.size());
      EXPECT_TRUE(res.config == live[FirstLeast(scorer.Unsafety(live))]);
    }
  }
}

TEST(AcqOptimizerTest, EveryScoredCandidateHoldsTheBasesPinnedBits) {
  // Whatever Maximize hands the scorer (pool, climb steps, the fallback's
  // candidates and its Sample, the winner's RawEi) is the base with its
  // free coordinates overwritten: the pinned coordinates hold the base's
  // bits, which the sub-space encoder and duplicate check rely on.
  const ConfigSpace space = BuildSparkSpace(ClusterSpec::ProductionGroup());
  Rng rng(808);
  // Objective and runtime over the encoded features.
  FakeSurrogate objective([](const std::vector<double>& x) {
    double m = 0.0;
    for (size_t i = 0; i < x.size(); ++i) m += (i % 3 == 0 ? 1.0 : -0.5) * x[i];
    return Prediction{m, 0.2};
  });
  FakeSurrogate runtime([](const std::vector<double>& x) {
    return Prediction{x[0] + x[5] + x[17], 0.04};
  });
  size_t batches = 0, scored = 0, unsafety = 0, raw_ei = 0;
  auto check = [&](const Subspace& sub, const RecordingScorer& recorder) {
    const std::vector<size_t> pinned = PinnedIndices(sub);
    auto holds_base = [&](const Configuration& c) {
      if (c.size() != sub.base().size()) return false;
      for (size_t p : pinned) {
        if (!BitEqual(c[p], sub.base()[p])) return false;
      }
      return true;
    };
    for (const auto& batch : recorder.batches()) {
      for (const Configuration& c : batch) EXPECT_TRUE(holds_base(c));
    }
    for (const Configuration& c : recorder.scored()) {
      EXPECT_TRUE(holds_base(c));
    }
    for (const auto& call : recorder.unsafety_calls()) {
      for (const Configuration& c : call) EXPECT_TRUE(holds_base(c));
    }
    for (const Configuration& c : recorder.raw_ei()) {
      EXPECT_TRUE(holds_base(c));
    }
    batches += recorder.batches().size();
    scored += recorder.scored().size();
    unsafety += recorder.unsafety_calls().size();
    raw_ei += recorder.raw_ei().size();
  };
  for (size_t k : {1u, 9u, 30u}) {
    const Subspace sub = RandomSubspace(&space, k, space.Sample(&rng), &rng);
    // A history of rows inside and outside the sub-space, so the
    // incumbent and recent neighbours go through Project.
    RunHistory history;
    for (int i = 0; i < 8; ++i) {
      Observation o;
      o.config = i % 2 == 0 ? sub.Sample(&rng) : space.Sample(&rng);
      o.objective = 1.0 + rng.Uniform();
      history.Add(o);
    }
    const size_t first_free = static_cast<size_t>(sub.free_indices()[0]);
    // Some candidates safe (threshold 1.4, unless the pinned coordinates
    // alone push the bound over it), then none (threshold 0.05: every
    // bound is at least 0.1).
    for (double threshold : {1.4, 0.05}) {
      SCOPED_TRACE("k " + std::to_string(k) + ", threshold " +
                   std::to_string(threshold));
      EicScorerOptions o;
      o.objective = &objective;
      o.incumbent = 0.5;
      o.runtime = {&runtime, threshold};
      o.resource_fn = [&space, first_free](const Configuration& c) {
        return 1.0 + space.param(first_free).ToUnit(c[first_free]);
      };
      o.resource_max = 1.5;
      o.safety = true;
      const EicScorer scorer(SubspaceEncoder(sub, {0.25}), o);
      const RecordingScorer recorder(scorer);
      AcqOptOptions opts;
      opts.num_candidates = 48;
      opts.local_steps = 6;
      const AcqOptResult res =
          AcquisitionOptimizer(opts).Maximize(sub, recorder, &history, &rng);
      if (threshold < 1.0) {
        EXPECT_TRUE(res.safe_fallback_used);
      }
      check(sub, recorder);
    }
  }
  // Every candidate a duplicate: one free boolean whose two values are in
  // the history, so the fallback draws its own Sample.
  size_t flag = space.size();
  for (size_t p = 0; p < space.size(); ++p) {
    if (space.param(p).type() == ParamType::kBool) flag = p;
  }
  ASSERT_LT(flag, space.size());
  const Subspace one(&space, {static_cast<int>(flag)}, space.Default());
  RunHistory both;
  for (double v : {0.0, 1.0}) {
    Observation o;
    o.config = space.Default();
    o.config[flag] = v;
    both.Add(o);
  }
  EicScorerOptions o;
  o.objective = &objective;
  o.incumbent = 0.5;
  const EicScorer scorer(SubspaceEncoder(one, {}), o);
  const RecordingScorer recorder(scorer);
  const AcqOptResult res =
      AcquisitionOptimizer().Maximize(one, recorder, &both, &rng);
  EXPECT_TRUE(res.safe_fallback_used);
  EXPECT_TRUE(recorder.batches().empty());
  EXPECT_EQ(recorder.raw_ei().size(), 1u);
  check(one, recorder);
  // Each method was exercised.
  EXPECT_GT(batches, 0u);
  EXPECT_GT(scored, 0u);
  EXPECT_GT(unsafety, 0u);
  EXPECT_GT(raw_ei, 0u);
}

}  // namespace
}  // namespace sparktune
