// Meta-learning surrogate ensemble (paper §5.2, Eq. 12):
//   mu(x)    = sum_i w_i mu_i(x)
//   sigma^2  = sum_i w_i^2 sigma_i^2(x)
// Base surrogates come from similar past tasks with weights
// w_i = 1 - Dist(M^i, M^t); the current-task surrogate's weight is set by
// cross-validated ranking accuracy on its own observations and all weights
// are normalized to sum to 1. Base surrogates are trained on config-only
// features; predictive inputs are truncated accordingly.
#pragma once

#include <memory>
#include <vector>

#include "model/gp.h"
#include "model/surrogate.h"

namespace sparktune {

struct BaseSurrogate {
  std::shared_ptr<const Surrogate> model;
  // 1 - predicted distance to the current task, in [0, 1].
  double similarity = 0.0;
  // Number of leading features the base model expects.
  size_t input_dims = 0;
  // Scale normalizers: base tasks' objectives can live on wildly different
  // scales, so base predictions are standardized by their own training
  // statistics before mixing, then mapped into the current task's scale.
  double y_mean = 0.0;
  double y_scale = 1.0;
};

struct MetaEnsembleOptions {
  GpOptions gp;
  // Self weight floor/ceiling before normalization.
  double min_self_weight = 0.1;
};

class MetaEnsembleSurrogate final : public Surrogate {
 public:
  MetaEnsembleSurrogate(std::vector<FeatureKind> schema,
                        std::vector<BaseSurrogate> bases,
                        MetaEnsembleOptions options = {});

  // Fits the current-task GP and computes the self weight via k-fold
  // cross-validated Kendall rank accuracy. A failed fit leaves the
  // ensemble unfitted: it predicts the prior mix of its bases, as before
  // any fit.
  Status Fit(const std::vector<std::vector<double>>& x,
             const std::vector<double>& y) override;

  Prediction Predict(const std::vector<double>& x) const override;

  // Batched mix: the conditioned PredictBatch over the sub-space the
  // probes span (SpanOfProbes). Bit-identical to per-point Predict.
  std::vector<Prediction> PredictBatch(
      const std::vector<std::vector<double>>& xs) const override;

  // The mix over one sub-space's candidates: the current-task GP
  // conditioned with `shared` (its rows()), each mixed base conditioned
  // on the sub-space's leading input_dims features once, mixed in
  // Predict's order. A pool's PredictBatch runs one PredictBatch per
  // model instead of a per-point fan-out over the whole ensemble.
  std::unique_ptr<ConditionedSurrogate> Condition(
      const FeatureSubspace& sub,
      const ConditionedRows* shared) const override;

  size_t num_observations() const override { return n_obs_; }

  double self_weight() const { return self_weight_; }
  const std::vector<double>& base_weights() const { return base_weights_; }

 private:
  class Conditioned;

  // Whether base i enters the mix: every base before a fit, the bases
  // with positive weight after one.
  bool Mixes(size_t i) const;
  // Adds base i's prediction `p` (of its truncated input) to `out`: with
  // weight 1 / number of bases in the base's standardized scale before a
  // fit, with its weight in the current task's scale after one.
  void MixBase(size_t i, const Prediction& p, Prediction* out) const;
  // The fitted mix's start: the current-task GP's prediction, weighted.
  Prediction MixSelf(const Prediction& self) const;

  std::vector<FeatureKind> schema_;
  std::vector<BaseSurrogate> bases_;
  MetaEnsembleOptions options_;

  std::unique_ptr<GaussianProcess> current_;
  double self_weight_ = 0.0;
  std::vector<double> base_weights_;  // normalized, aligned with bases_
  double target_mean_ = 0.0;
  double target_scale_ = 1.0;
  size_t n_obs_ = 0;
};

}  // namespace sparktune
