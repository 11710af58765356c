// Tests for the generic black-box Optimizer facade.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "bo/optimizer.h"

namespace sparktune {
namespace {

ConfigSpace Box2D() {
  ConfigSpace s;
  EXPECT_TRUE(s.Add(Parameter::Float("x", -5.0, 10.0, 0.0)).ok());
  EXPECT_TRUE(s.Add(Parameter::Float("y", 0.0, 15.0, 5.0)).ok());
  return s;
}

// Branin function; global minimum ~0.3979 at three points.
double Branin(const Configuration& c) {
  double x = c[0], y = c[1];
  double a = 1.0, b = 5.1 / (4.0 * M_PI * M_PI), cc = 5.0 / M_PI;
  double r = 6.0, s = 10.0, t = 1.0 / (8.0 * M_PI);
  double term = y - b * x * x + cc * x - r;
  return a * term * term + s * (1.0 - t) * std::cos(x) + s;
}

struct Report {
  Configuration best_config;
  double best_value = std::numeric_limits<double>::infinity();
  int evaluations = 0;
  int violations = 0;  // values above the safety bound
};

// `budget` rounds of Suggest, evaluate, Observe. The best is the best
// feasible observation, or the smallest finite value when none is
// feasible.
template <typename Fn>
Report RunBudget(Optimizer* optimizer, int budget, double safety_bound, Fn fn) {
  Report report;
  for (int i = 0; i < budget; ++i) {
    Configuration c = optimizer->Suggest();
    double value = fn(c);
    optimizer->Observe(c, value);
    ++report.evaluations;
    if (std::isfinite(value) && value > safety_bound) ++report.violations;
  }
  const RunHistory& h = optimizer->history();
  int best = h.BestFeasibleIndex();
  if (best >= 0) {
    report.best_config = h.config(static_cast<size_t>(best));
    report.best_value = h.runtime_sec(static_cast<size_t>(best));
    return report;
  }
  for (size_t i = 0; i < h.size(); ++i) {
    if (!h.failed(i) && h.runtime_sec(i) < report.best_value) {
      report.best_value = h.runtime_sec(i);
      report.best_config = h.config(i);
    }
  }
  return report;
}

TEST(OptimizerTest, MinimizesBranin) {
  ConfigSpace space = Box2D();
  OptimizerOptions opts;
  opts.seed = 3;
  Optimizer optimizer(&space, opts);
  Report report = RunBudget(&optimizer, 40, opts.safety_bound, Branin);
  EXPECT_EQ(report.evaluations, 40);
  // Global optimum is ~0.398; demand solid progress within 40 evals.
  EXPECT_LT(report.best_value, 3.0);
}

TEST(OptimizerTest, HonorsSafetyBoundMostly) {
  ConfigSpace space = Box2D();
  OptimizerOptions opts;
  opts.safety_bound = 60.0;  // Branin ranges ~0.4..300 on this box
  opts.seed = 5;
  Optimizer optimizer(&space, opts);
  Report report = RunBudget(&optimizer, 30, opts.safety_bound, Branin);
  EXPECT_LT(report.best_value, 60.0);
  // The safe generator keeps most evaluations under the bound.
  EXPECT_LT(report.violations, 12);
  // An unconstrained run for comparison must not violate-count anything.
  OptimizerOptions free_opts;
  Optimizer free(&space, free_opts);
  EXPECT_EQ(RunBudget(&free, 10, free_opts.safety_bound, Branin).violations, 0);
}

TEST(OptimizerTest, InfiniteValuesTreatedAsFailures) {
  ConfigSpace space = Box2D();
  OptimizerOptions opts;
  opts.seed = 7;
  Optimizer optimizer(&space, opts);
  // A crash region: x > 5 "fails".
  Report report = RunBudget(&optimizer, 15, opts.safety_bound,
                      [](const Configuration& c) {
                        if (c[0] > 5.0) {
                          return std::numeric_limits<double>::infinity();
                        }
                        return Branin(c);
                      });
  EXPECT_TRUE(std::isfinite(report.best_value));
  EXPECT_LE(report.best_config[0], 5.0);
}

TEST(OptimizerTest, FailedObservationsRecordPenalizedRuntime) {
  // Regression: a failed evaluation must look worse than anything observed,
  // not like a zero-latency success (which would attract the safe region).
  ConfigSpace space = Box2D();
  OptimizerOptions opts;
  Optimizer optimizer(&space, opts);
  Configuration a = space.Default();
  optimizer.Observe(a, 10.0);
  Configuration b = space.Default();
  b[0] = 1.0;
  optimizer.Observe(b, std::numeric_limits<double>::infinity());
  const Observation& failed = optimizer.history().back();
  EXPECT_TRUE(failed.failed());
  EXPECT_GE(failed.runtime_sec, 20.0);  // 2x the worst real value
}

TEST(OptimizerTest, WhiteBoxResourceTermShiftsOptimum) {
  // Minimize f = value^0.5 * cost^0.5 where cost grows with y: the chosen
  // point should sit at lower y than the pure minimum would.
  ConfigSpace space = Box2D();
  OptimizerOptions pure_opts;
  pure_opts.seed = 11;
  Optimizer pure(&space, pure_opts);
  auto value = [](const Configuration& c) {
    return 1.0 + std::pow(c[0] - 2.0, 2) + 0.05 * std::pow(c[1] - 12.0, 2);
  };
  Report pure_report = RunBudget(&pure, 35, pure_opts.safety_bound, value);

  OptimizerOptions cost_opts = pure_opts;
  cost_opts.beta = 0.5;
  cost_opts.resource_fn = [](const Configuration& c) {
    return 1.0 + c[1];  // y is expensive
  };
  Optimizer costed(&space, cost_opts);
  Report cost_report = RunBudget(&costed, 35, cost_opts.safety_bound, value);
  EXPECT_LT(cost_report.best_config[1], pure_report.best_config[1]);
}

TEST(OptimizerTest, StepwiseApiMatchesHistory) {
  ConfigSpace space = Box2D();
  OptimizerOptions opts;
  Optimizer optimizer(&space, opts);
  for (int i = 0; i < 5; ++i) {
    Configuration c = optimizer.Suggest();
    optimizer.Observe(c, Branin(c));
  }
  EXPECT_EQ(optimizer.history().size(), 5u);
  EXPECT_TRUE(optimizer.history().BestFeasible().has_value());
}

}  // namespace
}  // namespace sparktune
