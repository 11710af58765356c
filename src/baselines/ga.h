// Genetic algorithm over unit-cube configuration encodings — the search
// engine inside the RFHOC and DAC baselines (they explore a learned
// performance model with a GA instead of an acquisition function).
#pragma once

#include <functional>
#include <vector>

#include "common/rng.h"
#include "space/config_space.h"

namespace sparktune {

struct GaOptions {
  int generations = 30;
  int elites = 2;
};

class GeneticAlgorithm {
 public:
  // Fitness: lower is better (we minimize predicted cost/runtime).
  using FitnessFn = std::function<double(const Configuration&)>;

  explicit GeneticAlgorithm(GaOptions options = {});

  // Evolve and return the best configuration found. `seeds` (optional) are
  // injected into the initial population.
  Configuration Minimize(const ConfigSpace& space, const FitnessFn& fitness,
                         Rng* rng,
                         const std::vector<Configuration>& seeds = {}) const;

 private:
  GaOptions options_;
};

}  // namespace sparktune
