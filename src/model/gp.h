// Gaussian process regression with the mixed kernel (paper §3.3, Eq. 2/4).
// Targets are standardized internally; kernel hyperparameters are fit by
// maximizing the log marginal likelihood with two rounds of coordinate
// descent over log-spaced grids (robust at small n, no gradients needed).
#pragma once

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
  // Number of coordinate-descent sweeps.
  int hyper_sweeps = 2;
};

class GaussianProcess final : public Surrogate {
 public:
  GaussianProcess(std::vector<FeatureKind> schema, GpOptions options = {});

  Status Fit(const std::vector<std::vector<double>>& x,
             const std::vector<double>& y) override;

  // Predictive mean/variance in the original (unstandardized) target units.
  Prediction Predict(const std::vector<double>& x) const override;

  // Batched posterior: builds the n x m cross-kernel matrix in one pass,
  // runs a single blocked triangular solve for all variances and one gemv
  // against alpha for all means. Bit-identical to per-point Predict.
  std::vector<Prediction> PredictBatch(
      const std::vector<std::vector<double>>& xs) const override;

  size_t num_observations() const override { return x_.size(); }

  const KernelParams& kernel_params() const { return kernel_.params(); }
  const std::vector<FeatureKind>& schema() const { return kernel_.schema(); }

 private:
  // Fit-time state that Predict never needs: the standardized targets, the
  // pairwise kernel statistics and the Gram cache. It lives for one Fit.
  struct FitScratch;

  // Refactor the kernel matrix + alpha for given params; returns LML or
  // error. Mutates model state — serial use only.
  Result<double> Refit(const KernelParams& params, FitScratch* scratch);

  // Log marginal likelihood of `params` on an independent scratch state:
  // touches no members, so a grid point that loses leaves the model as it
  // was. When `gram` is non-null it is used as the (noise-free) kernel
  // matrix instead of rebuilding it — noise-only refits share one Gram
  // matrix.
  Result<double> EvalLml(const KernelParams& params, const Matrix* gram,
                         const FitScratch& scratch) const;

  // Kernel matrix (no noise diagonal) from the cached pairwise statistics.
  Matrix BuildGram(const KernelParams& params,
                   const FitScratch& scratch) const;

  // True when `a` and `b` produce the same Gram matrix (all hyperparameters
  // equal except the noise variance, which only enters the diagonal).
  static bool SameGramKey(const KernelParams& a, const KernelParams& b);

  MixedKernel kernel_;
  GpOptions options_;

  std::vector<std::vector<double>> x_;
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;

  std::optional<Cholesky> chol_;
  Vector alpha_;  // (K + tau^2 I)^-1 y_std
};

}  // namespace sparktune
