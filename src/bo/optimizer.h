// Generic black-box optimization facade — the paper's framework detached
// from Spark (its BO engine came from the generalized OpenBox service, and
// the conclusion plans to "extend this framework to support more data
// analytics systems"). Minimizes any function over a ConfigSpace with the
// same machinery the Spark tuner uses: GP surrogates in (optionally) log
// space, EI/EIC acquisition, safe region, adaptive sub-space, AGD.
//
// Mapping: the black-box value is treated as the runtime T(x); the resource
// rate R(x) defaults to 1 (pure minimization; beta has no effect then), or
// can be supplied as a white-box cost term. A safety bound on the black-box
// value maps to the runtime constraint T(x) <= bound.
#pragma once

#include <functional>

#include "bo/advisor.h"

namespace sparktune {

struct OptimizerOptions {
  // Safe exploration bound: observed values are expected to stay at or
  // below this (infinity = unconstrained).
  double safety_bound = std::numeric_limits<double>::infinity();
  // Optional white-box resource/cost term and its trade-off beta (Eq. 1).
  std::function<double(const Configuration&)> resource_fn;
  double beta = 1.0;
  double resource_bound = std::numeric_limits<double>::infinity();
  AdvisorOptions advisor;  // objective/resource/seed fields are overwritten
  uint64_t seed = 1;
};

class Optimizer {
 public:
  Optimizer(const ConfigSpace* space, OptimizerOptions options);

  // The caller owns the evaluation loop: Suggest, evaluate the black box,
  // Observe its value. Encode a failed evaluation as +infinity: it is
  // recorded as a failed, penalized observation.
  Configuration Suggest();
  void Observe(const Configuration& config, double value);

  const RunHistory& history() const { return advisor_.history(); }
  const Advisor& advisor() const { return advisor_; }

 private:
  const ConfigSpace* space_;
  OptimizerOptions options_;
  TuningObjective objective_;
  Advisor advisor_;
  int iteration_ = 0;
};

}  // namespace sparktune
