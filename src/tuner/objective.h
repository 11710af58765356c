// Generalized tuning objective (paper §3.2, Eq. 1):
//
//   min f(x) = T(x)^beta * R(x)^(1-beta)
//   s.t. T(x) <= T_max,  R(x) <= R_max
//
// beta = 1 minimizes runtime; beta = 0 minimizes the resource rate;
// beta = 0.5 is execution cost (sqrt(T*R), monotone in T*R); other values
// express user tendency (e.g. 0.7 leans toward runtime).
#pragma once

#include <limits>

#include "common/result.h"

namespace sparktune {

struct TuningObjective {
  double beta = 0.5;
  // Constraint thresholds; infinity = unconstrained.
  double runtime_max = std::numeric_limits<double>::infinity();
  double resource_max = std::numeric_limits<double>::infinity();

  // f(x) from observed runtime T and resource rate R.
  double Value(double runtime_sec, double resource_rate) const;

  // Partial derivatives of f wrt T and R (Eq. 9 building blocks).
  double DfDt(double runtime_sec, double resource_rate) const;
  double DfDr(double runtime_sec, double resource_rate) const;

  bool RuntimeFeasible(double runtime_sec) const {
    return runtime_sec <= runtime_max;
  }
  bool ResourceFeasible(double resource_rate) const {
    return resource_rate <= resource_max;
  }
  bool Feasible(double runtime_sec, double resource_rate) const {
    return RuntimeFeasible(runtime_sec) && ResourceFeasible(resource_rate);
  }

  bool has_runtime_constraint() const {
    return runtime_max < std::numeric_limits<double>::infinity();
  }
  bool has_resource_constraint() const {
    return resource_max < std::numeric_limits<double>::infinity();
  }

  Status Validate() const;
};

}  // namespace sparktune
