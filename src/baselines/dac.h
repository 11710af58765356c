// DAC baseline (Yu et al. 2018): Datasize-Aware Configuration tuning with
// hierarchical regression-tree models plus a genetic algorithm. The
// hierarchy is modeled as a two-level ensemble: a forest per data-size
// bucket with a global fallback forest; predictions for a configuration use
// the bucket of the upcoming execution's data size.
#pragma once

#include "baselines/ga.h"
#include "baselines/tuning_method.h"
#include "forest/random_forest.h"

namespace sparktune {

struct DacOptions {
  double init_fraction = 0.4;
  ForestOptions forest = {.num_trees = 20,
                          .tree = {.max_depth = 12, .min_samples_leaf = 2,
                                   .min_samples_split = 4,
                                   .max_features = -1},
                          .feature_fraction = 0.7,
                          .bootstrap_fraction = 1.0,
                          .seed = 11};
  GaOptions ga;
};

class Dac final : public TuningMethod {
 public:
  explicit Dac(DacOptions options = {}) : options_(options) {}

  std::string name() const override { return "DAC"; }

  RunHistory Tune(const ConfigSpace& space, JobEvaluator* evaluator,
                  const TuningObjective& objective, int budget,
                  uint64_t seed) override;

 private:
  DacOptions options_;
};

}  // namespace sparktune
