// Gaussian process regression with the mixed kernel (paper §3.3, Eq. 2/4).
// Targets are standardized internally; kernel hyperparameters are fit by
// maximizing the log marginal likelihood with two rounds of coordinate
// descent over log-spaced grids (robust at small n, no gradients needed).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "linalg/cholesky.h"
#include "model/kernel.h"
#include "model/surrogate.h"

namespace sparktune {

struct GpOptions {
  // Fixed observation noise floor added to the diagonal (tau^2 in Eq. 2).
  double noise_floor = 1e-6;
  // Optimize hyperparameters by log-marginal-likelihood coordinate descent.
  bool optimize_hypers = true;
};

class GaussianProcess final : public Surrogate {
 public:
  // The log-spaced grids the coordinate descent sweeps.
  static constexpr std::array<double, 8> kLengthGrid = {
      0.08, 0.15, 0.3, 0.5, 0.8, 1.2, 2.0, 3.0};
  static constexpr std::array<double, 5> kNoiseGrid = {1e-6, 1e-4, 1e-3,
                                                       1e-2, 5e-2};
  static constexpr std::array<double, 5> kHammingGrid = {0.25, 0.5, 1.0, 2.0,
                                                         4.0};

  GaussianProcess(std::vector<FeatureKind> schema, GpOptions options = {});

  Status Fit(const std::vector<std::vector<double>>& x,
             const std::vector<double>& y) override;

  // Predictive mean/variance in the original (unstandardized) target units.
  // The prior variance k(x, x) is the signal variance, which holds for
  // every finite x (MixedKernel); GP inputs are EncodeFeatures of
  // legalized configurations, so they are finite. Until a Fit succeeds —
  // including after a failed re-Fit — the model is unfitted and predicts
  // the prior.
  Prediction Predict(const std::vector<double>& x) const override;

  // Batched posterior: the conditioned PredictBatch over the sub-space
  // the probes span (SpanOfProbes). Bit-identical to per-point Predict.
  std::vector<Prediction> PredictBatch(
      const std::vector<std::vector<double>>& xs) const override;

  // The GP over one sub-space's candidates: kernel values from the
  // statistics of a ConditionedRows view of the training rows (`shared`
  // when it conditions them, else its own) and, when the sub-space pins
  // the data size, a data-size factor per row computed once. A pool's
  // PredictBatch builds the n x m cross-kernel matrix row by row, then
  // runs one blocked triangular solve for all variances and one gemv
  // against alpha for all means. A climb step's Predict allocates nothing.
  std::unique_ptr<ConditionedSurrogate> Condition(
      const FeatureSubspace& sub,
      const ConditionedRows* shared) const override;

  size_t num_observations() const override { return x_.size(); }

  const KernelParams& kernel_params() const { return kernel_.params(); }
  const std::vector<FeatureKind>& schema() const { return kernel_.schema(); }

 private:
  // Fit-time state that Predict never needs: the standardized targets and
  // the kernel factor tables of the training pairs. It lives for one Fit.
  struct FitScratch;
  // The factorization of K + (noise + floor) I under one set of
  // hyperparameters, with its log marginal likelihood.
  struct Factorization {
    Cholesky chol;
    Vector alpha;  // (K + tau^2 I)^-1 y_std
    double lml = 0.0;
  };

  class Conditioned;

  // Factorizes the kernel matrix under `params`. Touches no members, so a
  // grid point that loses leaves the model as it was.
  Result<Factorization> Factorize(const KernelParams& params,
                                  FitScratch* scratch) const;

  bool fitted() const { return chol_.has_value() && !x_.empty(); }
  Prediction Prior() const;
  // The posterior of one candidate from its cross-kernel column
  // kstar[0, n); `v` is n doubles of scratch. Predict and the conditioned
  // Predict share it.
  Prediction Posterior(const double* kstar, double* v) const;
  // The posteriors of the n x m cross-kernel matrix's columns, for the
  // conditioned PredictBatch.
  std::vector<Prediction> Posteriors(const Matrix& kstar) const;

  MixedKernel kernel_;
  GpOptions options_;

  std::vector<std::vector<double>> x_;
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;

  std::optional<Cholesky> chol_;
  Vector alpha_;  // (K + tau^2 I)^-1 y_std
};

}  // namespace sparktune
