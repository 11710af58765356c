// Tests for EI, EIC, safe-region math and the acquisition optimizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <vector>

#include "bo/acq_optimizer.h"
#include "bo/acquisition.h"
#include "model/gp.h"

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

TEST(EicTest, DeterministicConstraintZeroesOut) {
  FakeSurrogate objective([](const std::vector<double>&) {
    return Prediction{0.0, 1.0};
  });
  EicAcquisition acq(&objective, 1.0);
  acq.AddDeterministicConstraint(
      [](const std::vector<double>&) { return false; });
  EXPECT_DOUBLE_EQ(acq.Eval({0.0}), 0.0);
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
// candidates the batch calls saw. Thread-safe, since the per-point hook
// runs inside ParallelFor.
struct UnsafetyCounter {
  std::atomic<int> calls{0};
  std::atomic<int> batch_calls{0};
  std::atomic<int> batch_elements{0};
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
  for (int threads : {1, 4}) {
    for (bool batched : {false, true}) {
      SCOPED_TRACE("threads " + std::to_string(threads) +
                   (batched ? " batched" : " per-point"));
      AcqOptOptions opts;
      opts.num_candidates = 64;
      opts.num_threads = threads;
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
      EXPECT_EQ(count.calls.load(), 0);
      EXPECT_EQ(count.batch_calls.load(), 0);
    }
  }
}

TEST(AcqOptimizerTest, NoSafeCandidateScoresUnsafetyOncePerCandidate) {
  // Nothing is safe: unsafety is scored once per non-duplicate candidate,
  // and the fallback is the eager scorer's pick — minimum unsafety, first
  // in candidate order on ties — with per-point or batched hooks at 1 and
  // 4 threads.
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
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads) +
                   (batched ? " batched" : " per-point"));
      AcqOptOptions opts;
      opts.num_candidates = 64;
      opts.num_threads = threads;
      AcquisitionOptimizer opt(opts);
      std::atomic<int> safe_calls{0};
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
        EXPECT_EQ(count.calls.load(), 0);
        EXPECT_EQ(count.batch_calls.load(), 1);
        EXPECT_EQ(count.batch_elements.load(), kLive);
        EXPECT_EQ(screened.size(), static_cast<size_t>(kLive));
      } else {
        EXPECT_EQ(safe_calls.load(), kLive);
        EXPECT_EQ(count.calls.load(), kLive);
        EXPECT_EQ(count.batch_calls.load(), 0);
      }
      picks.push_back(res.config);
    }
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
  // max_rejected_retries times) with annealed sigma, so the safe predicate
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

}  // namespace
}  // namespace sparktune
