// Tuneful baseline (Fekry et al. 2020): online GP-BO with staged
// significance-driven dimensionality reduction — after warm rounds a
// random-forest (Gini) importance analysis shrinks the tuned parameter set
// in two stages; remaining parameters stay at their incumbent values.
#pragma once

#include "baselines/tuning_method.h"

namespace sparktune {

struct TunefulOptions {
  int init_samples = 3;
  // First reduction after this many observations, to `stage1_params`.
  int stage1_at = 10;
  int stage1_params = 12;
  // Second reduction.
  int stage2_at = 20;
  int stage2_params = 8;
};

class Tuneful final : public TuningMethod {
 public:
  explicit Tuneful(TunefulOptions options = {}) : options_(options) {}

  std::string name() const override { return "Tuneful"; }

  RunHistory Tune(const ConfigSpace& space, JobEvaluator* evaluator,
                  const TuningObjective& objective, int budget,
                  uint64_t seed) override;

 private:
  TunefulOptions options_;
};

}  // namespace sparktune
