// Approximate gradient descent within BO (paper §4.3, Eq. 9-11): every
// N_AGD iterations the next configuration is produced by a gradient step
// from the incumbent, with dT/dx estimated by central differences on the
// runtime surrogate and dR/dx taken from the white-box resource function.
//
// Gradients are computed in normalized unit-cube coordinates and the
// objective derivative is scaled by 1/f(incumbent), making the learning
// rate eta scale-free across tasks (the paper applies eta on raw parameter
// values; normalized coordinates are the equivalent for our mixed space).
// Categorical/bool parameters have no derivative and are held fixed.
#pragma once

#include <functional>

#include "model/surrogate.h"
#include "space/config_space.h"
#include "tuner/objective.h"

namespace sparktune {

struct AgdOptions {
  int period = 5;              // N_AGD: AGD replaces BO every `period` iters
  double learning_rate = 0.05; // eta on the normalized gradient
};

class Agd {
 public:
  using EncodeFn = std::function<std::vector<double>(const Configuration&)>;
  using ResourceFn = std::function<double(const Configuration&)>;

  Agd(const ConfigSpace* space, AgdOptions options = {});

  // One AGD step (Eq. 11) from `base` using runtime surrogate predictions
  // and the exact resource function. The incumbent and all 2d central-
  // difference probes are scored in one PredictBatch call. Returns a
  // legalized configuration differing from `base` whenever any numeric
  // parameter has nonzero gradient.
  Configuration Step(const Configuration& base,
                     const Surrogate& runtime_surrogate,
                     const EncodeFn& encode, const ResourceFn& resource_fn,
                     const TuningObjective& objective) const;

  const AgdOptions& options() const { return options_; }

 private:
  const ConfigSpace* space_;
  AgdOptions options_;
};

}  // namespace sparktune
