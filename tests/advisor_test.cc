// Tests for the Advisor (Algorithm 1+2) against a synthetic evaluator with
// a known optimum and a known unsafe region.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "bo/advisor.h"
#include "service/checkpoint.h"

namespace sparktune {
namespace {

ConfigSpace SynthSpace() {
  ConfigSpace s;
  EXPECT_TRUE(s.Add(Parameter::Float("x0", 0.0, 1.0, 0.5)).ok());
  EXPECT_TRUE(s.Add(Parameter::Float("x1", 0.0, 1.0, 0.5)).ok());
  EXPECT_TRUE(s.Add(Parameter::Float("x2", 0.0, 1.0, 0.5)).ok());
  EXPECT_TRUE(s.Add(Parameter::Bool("flag", false)).ok());
  return s;
}

// Synthetic black box: runtime quadratic around (0.2, 0.7); resource is
// linear in x2. Optimum well inside the space.
struct SynthBlackBox {
  double Runtime(const Configuration& c) const {
    double d = std::pow(c[0] - 0.2, 2) + std::pow(c[1] - 0.7, 2);
    return 50.0 + 400.0 * d;
  }
  double Resource(const Configuration& c) const { return 10.0 + 20.0 * c[2]; }

  Observation Evaluate(const Configuration& c, const TuningObjective& obj,
                       int iter) const {
    Observation o;
    o.config = c;
    o.runtime_sec = Runtime(c);
    o.resource_rate = Resource(c);
    o.objective = obj.Value(o.runtime_sec, o.resource_rate);
    o.feasible = obj.Feasible(o.runtime_sec, o.resource_rate);
    o.failure = FailureKind::kNone;
    o.iteration = iter;
    o.data_size_gb = 100.0;
    return o;
  }
};

AdvisorOptions BaseOptions(const SynthBlackBox* box) {
  AdvisorOptions opts;
  opts.objective.beta = 0.5;
  opts.resource_fn = [box](const Configuration& c) {
    return box->Resource(c);
  };
  opts.init_samples = 3;
  opts.subspace.k_init = 4;
  opts.subspace.k_min = 2;
  opts.seed = 7;
  return opts;
}

TEST(AdvisorTest, SuggestionsAreAlwaysValidAndFresh) {
  ConfigSpace space = SynthSpace();
  SynthBlackBox box;
  AdvisorOptions opts = BaseOptions(&box);
  Advisor advisor(&space, opts);
  for (int i = 0; i < 15; ++i) {
    Configuration c = advisor.Suggest(100.0);
    ASSERT_TRUE(space.Validate(c).ok());
    EXPECT_FALSE(advisor.history().Contains(c));
    advisor.Observe(box.Evaluate(c, opts.objective, i));
  }
  EXPECT_EQ(advisor.history().size(), 15u);
}

TEST(AdvisorTest, ConvergesTowardOptimum) {
  ConfigSpace space = SynthSpace();
  SynthBlackBox box;
  AdvisorOptions opts = BaseOptions(&box);
  Advisor advisor(&space, opts);
  for (int i = 0; i < 25; ++i) {
    Configuration c = advisor.Suggest(100.0);
    advisor.Observe(box.Evaluate(c, opts.objective, i));
  }
  // Best found should beat the default config clearly.
  double default_obj = opts.objective.Value(
      box.Runtime(space.Default()), box.Resource(space.Default()));
  EXPECT_LT(advisor.BestObjective(), default_obj);
  Configuration best = advisor.BestConfig();
  // Rough convergence toward the runtime optimum and low resource.
  EXPECT_LT(box.Runtime(best), 110.0);
}

TEST(AdvisorTest, WarmStartConfigsUsedFirst) {
  ConfigSpace space = SynthSpace();
  SynthBlackBox box;
  AdvisorOptions opts = BaseOptions(&box);
  Advisor advisor(&space, opts);
  Configuration w1 = space.Default();
  w1[0] = 0.21;
  Configuration w2 = space.Default();
  w2[0] = 0.91;
  advisor.SetWarmStartConfigs({w1, w2});
  Configuration first = advisor.Suggest(100.0);
  EXPECT_TRUE(first == w1);
  advisor.Observe(box.Evaluate(first, opts.objective, 0));
  Configuration second = advisor.Suggest(100.0);
  EXPECT_TRUE(second == w2);
  EXPECT_TRUE(advisor.last_was_initial());
}

TEST(AdvisorTest, AgdFiresOnSchedule) {
  ConfigSpace space = SynthSpace();
  SynthBlackBox box;
  AdvisorOptions opts = BaseOptions(&box);
  opts.agd.period = 5;
  Advisor advisor(&space, opts);
  std::vector<bool> agd_flags;
  for (int i = 0; i < 15; ++i) {
    Configuration c = advisor.Suggest(100.0);
    agd_flags.push_back(advisor.last_was_agd());
    advisor.Observe(box.Evaluate(c, opts.objective, i));
  }
  // AGD replaces BO when (|D|+1) % 5 == 0, i.e. before the 5th, 10th, ...
  // observation (0-indexed suggestion 4, 9, 14).
  EXPECT_TRUE(agd_flags[4]);
  EXPECT_TRUE(agd_flags[9]);
  EXPECT_TRUE(agd_flags[14]);
  EXPECT_FALSE(agd_flags[5]);
  int agd_count = 0;
  for (bool b : agd_flags) agd_count += b ? 1 : 0;
  EXPECT_EQ(agd_count, 3);
}

TEST(AdvisorTest, AgdCanBeDisabled) {
  ConfigSpace space = SynthSpace();
  SynthBlackBox box;
  AdvisorOptions opts = BaseOptions(&box);
  opts.enable_agd = false;
  Advisor advisor(&space, opts);
  for (int i = 0; i < 12; ++i) {
    Configuration c = advisor.Suggest(100.0);
    EXPECT_FALSE(advisor.last_was_agd());
    advisor.Observe(box.Evaluate(c, opts.objective, i));
  }
}

TEST(AdvisorTest, SafetyAvoidsKnownUnsafeRegion) {
  ConfigSpace space = SynthSpace();
  SynthBlackBox box;
  // Runtime constraint: forbid configs far from the optimum.
  AdvisorOptions safe_opts = BaseOptions(&box);
  safe_opts.objective.runtime_max = 150.0;
  safe_opts.enable_safety = true;
  safe_opts.safety_gamma = 1.0;

  AdvisorOptions unsafe_opts = safe_opts;
  unsafe_opts.enable_safety = false;

  auto run = [&](AdvisorOptions opts) {
    Advisor advisor(&space, opts);
    int violations = 0;
    for (int i = 0; i < 25; ++i) {
      Configuration c = advisor.Suggest(100.0);
      Observation o = box.Evaluate(c, opts.objective, i);
      if (!o.feasible) ++violations;
      advisor.Observe(o);
    }
    return violations;
  };
  int v_safe = run(safe_opts);
  int v_unsafe = run(unsafe_opts);
  EXPECT_LE(v_safe, v_unsafe + 1);
  // The safe advisor should keep violations low after warm-up.
  EXPECT_LT(v_safe, 12);
}

TEST(AdvisorTest, ResourceConstraintHonoredExactly) {
  ConfigSpace space = SynthSpace();
  SynthBlackBox box;
  AdvisorOptions opts = BaseOptions(&box);
  opts.objective.resource_max = 20.0;  // x2 <= 0.5
  Advisor advisor(&space, opts);
  int violations = 0;
  for (int i = 0; i < 20; ++i) {
    Configuration c = advisor.Suggest(100.0);
    Observation o = box.Evaluate(c, opts.objective, i);
    if (i >= opts.init_samples && box.Resource(c) > 20.0) ++violations;
    advisor.Observe(o);
  }
  // The resource constraint is white-box: after the initial design no
  // suggestion should violate it.
  EXPECT_EQ(violations, 0);
}

TEST(AdvisorTest, BestConfigFallsBackToDefault) {
  ConfigSpace space = SynthSpace();
  SynthBlackBox box;
  AdvisorOptions opts = BaseOptions(&box);
  Advisor advisor(&space, opts);
  EXPECT_TRUE(advisor.BestConfig() == space.Default());
  EXPECT_TRUE(std::isinf(advisor.BestObjective()));
}

TEST(AdvisorTest, FailedObservationsDoNotBecomeIncumbent) {
  ConfigSpace space = SynthSpace();
  SynthBlackBox box;
  AdvisorOptions opts = BaseOptions(&box);
  Advisor advisor(&space, opts);
  Observation bad;
  bad.config = space.Default();
  bad.objective = 0.001;  // absurdly good but failed
  bad.failure = FailureKind::kOom;
  bad.feasible = false;
  advisor.Observe(bad);
  Observation good = box.Evaluate(space.Default(), opts.objective, 1);
  // Make the config distinct so both entries coexist.
  Configuration other = space.Default();
  other[0] = 0.3;
  good.config = other;
  advisor.Observe(good);
  EXPECT_DOUBLE_EQ(advisor.BestObjective(), good.objective);
}

// A GP whose Fit fails on chosen calls, numbered from 1 across every
// instance one factory builds — the way Cholesky jitter exhaustion fails
// a real fit.
class FlakyGp final : public Surrogate {
 public:
  FlakyGp(std::vector<FeatureKind> schema, std::shared_ptr<int> calls,
          std::set<int> fail_on)
      : gp_(std::move(schema)), calls_(std::move(calls)),
        fail_on_(std::move(fail_on)) {}

  Status Fit(const std::vector<std::vector<double>>& x,
             const std::vector<double>& y) override {
    if (fail_on_.count(++*calls_)) return Status::Internal("injected");
    return gp_.Fit(x, y);
  }
  Prediction Predict(const std::vector<double>& x) const override {
    return gp_.Predict(x);
  }
  size_t num_observations() const override { return gp_.num_observations(); }

 private:
  GaussianProcess gp_;
  std::shared_ptr<int> calls_;
  std::set<int> fail_on_;
};

void ExpectSameCounters(const DegradationStats& a, const DegradationStats& b) {
  EXPECT_EQ(a.fit_failures, b.fit_failures);
  EXPECT_EQ(a.previous_model_reuses, b.previous_model_reuses);
  EXPECT_EQ(a.prior_only_fits, b.prior_only_fits);
  EXPECT_EQ(a.fallback_suggestions, b.fallback_suggestions);
}

TEST(AdvisorTest, SurrogateFitFailuresWalkTheDegradationLadder) {
  ConfigSpace space = SynthSpace();
  SynthBlackBox box;
  AdvisorOptions opts = BaseOptions(&box);
  Advisor advisor(&space, opts);
  auto calls = std::make_shared<int>(0);
  // Objective fits 1 and 3 fail; the runtime surrogate always fits.
  advisor.SetObjectiveSurrogateFactory(
      [calls](const std::vector<FeatureKind>& schema) {
        return std::make_unique<FlakyGp>(schema, calls, std::set<int>{1, 3});
      });
  auto step = [&](int i) {
    Configuration c = advisor.Suggest(100.0);
    ASSERT_TRUE(space.Validate(c).ok());
    advisor.Observe(box.Evaluate(c, opts.objective, i));
  };
  for (int i = 0; i < opts.init_samples; ++i) step(i);  // no fits yet
  EXPECT_EQ(*calls, 0);

  // Fit 1 fails with no previous model: prior-only rung, and the
  // suggestion falls back to a neighbor of the incumbent.
  step(3);
  EXPECT_EQ(advisor.degradation().fit_failures, 1);
  EXPECT_EQ(advisor.degradation().prior_only_fits, 1);
  EXPECT_EQ(advisor.degradation().fallback_suggestions, 1);
  EXPECT_EQ(advisor.degradation().previous_model_reuses, 0);

  // Fit 2 succeeds; fit 3 fails with that model in the slot and the same
  // schema, so the advisor keeps suggesting from it.
  step(4);
  step(5);
  EXPECT_EQ(*calls, 3);
  EXPECT_EQ(advisor.degradation().fit_failures, 2);
  EXPECT_EQ(advisor.degradation().previous_model_reuses, 1);
  EXPECT_EQ(advisor.degradation().prior_only_fits, 1);
  EXPECT_EQ(advisor.degradation().fallback_suggestions, 1);

  // The counters survive SaveState/RestoreState and the checkpoint JSON.
  Advisor restored(&space, opts);
  restored.RestoreState(advisor.SaveState());
  ExpectSameCounters(restored.degradation(), advisor.degradation());
  TaskCheckpoint ckpt;
  ckpt.id = "synth";
  ckpt.tuner.has_advisor = true;
  ckpt.tuner.advisor = advisor.SaveState();
  auto decoded = TaskCheckpointFromJson(TaskCheckpointToJson(ckpt), space);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameCounters(decoded->tuner.advisor.degradation,
                     advisor.degradation());
}

TEST(AdvisorTest, SchemaIncludesDataSizeWhenAware) {
  ConfigSpace space = SynthSpace();
  SynthBlackBox box;
  AdvisorOptions opts = BaseOptions(&box);
  opts.datasize_aware = true;
  Advisor a1(&space, opts);
  EXPECT_EQ(a1.Schema().size(), space.size() + 1);
  opts.datasize_aware = false;
  Advisor a2(&space, opts);
  EXPECT_EQ(a2.Schema().size(), space.size());
}

}  // namespace
}  // namespace sparktune
