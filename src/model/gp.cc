#include "model/gp.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/stats.h"

namespace sparktune {

struct GaussianProcess::FitScratch {
  std::vector<double> y_std;  // standardized targets
  // Hyperparameter-independent pairwise kernel statistics, packed lower
  // triangle (row i, col j <= i at i*(i+1)/2 + j).
  std::vector<KernelPairStats> pair_stats;
  // Last Gram matrix built by Refit and its parameters, reused when only
  // the noise changes.
  Matrix gram;
  std::optional<KernelParams> gram_key;
};

GaussianProcess::GaussianProcess(std::vector<FeatureKind> schema,
                                 GpOptions options)
    : kernel_(std::move(schema)), options_(options) {}

bool GaussianProcess::SameGramKey(const KernelParams& a,
                                  const KernelParams& b) {
  return a.signal_variance == b.signal_variance &&
         a.length_numeric == b.length_numeric &&
         a.length_datasize == b.length_datasize &&
         a.hamming_weight == b.hamming_weight;
}

Matrix GaussianProcess::BuildGram(const KernelParams& params,
                                  const FitScratch& scratch) const {
  size_t n = x_.size();
  Matrix k(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double v = kernel_.EvalStats(scratch.pair_stats[i * (i + 1) / 2 + j],
                                   params);
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  return k;
}

Result<double> GaussianProcess::EvalLml(const KernelParams& params,
                                        const Matrix* gram,
                                        const FitScratch& scratch) const {
  size_t n = x_.size();
  Matrix k = gram != nullptr ? *gram : BuildGram(params, scratch);
  k.AddDiagonal(params.noise_variance + options_.noise_floor);
  auto chol = Cholesky::Factor(k);
  if (!chol.ok()) return chol.status();
  Vector alpha = chol->Solve(scratch.y_std);
  double fit_term = -0.5 * Dot(scratch.y_std, alpha);
  return fit_term - 0.5 * chol->LogDet() -
         0.5 * static_cast<double>(n) *
             std::log(2.0 * std::numbers::pi);
}

Result<double> GaussianProcess::Refit(const KernelParams& params,
                                      FitScratch* scratch) {
  kernel_.set_params(params);
  if (!scratch->gram_key || !SameGramKey(*scratch->gram_key, params)) {
    scratch->gram = BuildGram(params, *scratch);
    scratch->gram_key = params;
  }
  Matrix k = scratch->gram;
  k.AddDiagonal(params.noise_variance + options_.noise_floor);
  auto chol = Cholesky::Factor(k);
  if (!chol.ok()) return chol.status();
  Vector alpha = chol->Solve(scratch->y_std);
  double fit_term = -0.5 * Dot(scratch->y_std, alpha);
  double lml = fit_term - 0.5 * chol->LogDet() -
               0.5 * static_cast<double>(x_.size()) *
                   std::log(2.0 * std::numbers::pi);
  chol_.emplace(std::move(*chol));
  alpha_ = std::move(alpha);
  return lml;
}

Status GaussianProcess::Fit(const std::vector<std::vector<double>>& x,
                            const std::vector<double>& y) {
  if (x.empty() || x.size() != y.size()) {
    return Status::InvalidArgument("GP needs matching non-empty X and y");
  }
  for (const auto& row : x) {
    if (row.size() != kernel_.schema().size()) {
      return Status::InvalidArgument("GP feature row size mismatch");
    }
  }
  x_ = x;
  y_mean_ = Mean(y);
  y_scale_ = Stddev(y);
  if (y_scale_ < 1e-12) y_scale_ = 1.0;
  FitScratch scratch;
  scratch.y_std.resize(y.size());
  for (size_t i = 0; i < y.size(); ++i) {
    scratch.y_std[i] = (y[i] - y_mean_) / y_scale_;
  }

  // Pairwise statistics are hyperparameter-independent: compute them once
  // and every grid refit drops from O(n^2 d) to O(n^2) kernel work.
  size_t n = x_.size();
  scratch.pair_stats.resize(n * (n + 1) / 2);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      scratch.pair_stats[i * (i + 1) / 2 + j] = kernel_.Stats(x_[i], x_[j]);
    }
  }

  KernelParams best = kernel_.params();
  auto first = Refit(best, &scratch);
  if (!first.ok()) return first.status();
  if (!options_.optimize_hypers || x_.size() < 3) return Status::OK();

  double best_lml = *first;
  const std::vector<double> length_grid = {0.08, 0.15, 0.3, 0.5, 0.8,
                                           1.2,  2.0,  3.0};
  const std::vector<double> noise_grid = {1e-6, 1e-4, 1e-3, 1e-2, 5e-2};
  const std::vector<double> hamming_grid = {0.25, 0.5, 1.0, 2.0, 4.0};

  // One coordinate of the descent: score each grid point in grid order
  // and keep it on strict improvement.
  auto sweep_coordinate = [&](const std::vector<double>& grid,
                              void (*assign)(KernelParams*, double),
                              bool noise_only) {
    // Noise enters only the diagonal, and a noise candidate differs from
    // `best` only in the noise: all noise candidates share one Gram matrix
    // instead of re-evaluating the full O(n^2) kernel each.
    Matrix shared;
    if (noise_only) shared = BuildGram(best, scratch);
    for (double v : grid) {
      KernelParams cand = best;
      assign(&cand, v);
      auto lml = EvalLml(cand, noise_only ? &shared : nullptr, scratch);
      if (lml.ok() && *lml > best_lml) {
        best_lml = *lml;
        best = cand;
      }
    }
  };

  bool has_ds = std::any_of(
      kernel_.schema().begin(), kernel_.schema().end(),
      [](FeatureKind k) { return k == FeatureKind::kDataSize; });
  bool has_cat = std::any_of(
      kernel_.schema().begin(), kernel_.schema().end(),
      [](FeatureKind k) { return k == FeatureKind::kCategorical; });

  for (int sweep = 0; sweep < options_.hyper_sweeps; ++sweep) {
    // Coordinate 1: numeric lengthscale.
    sweep_coordinate(
        length_grid, [](KernelParams* p, double v) { p->length_numeric = v; },
        false);
    // Coordinate 2: datasize lengthscale (only if present).
    if (has_ds) {
      sweep_coordinate(
          length_grid,
          [](KernelParams* p, double v) { p->length_datasize = v; }, false);
    }
    // Coordinate 3: hamming weight (only if categorical present).
    if (has_cat) {
      sweep_coordinate(
          hamming_grid,
          [](KernelParams* p, double v) { p->hamming_weight = v; }, false);
    }
    // Coordinate 4: noise.
    sweep_coordinate(
        noise_grid, [](KernelParams* p, double v) { p->noise_variance = v; },
        true);
  }
  // Leave the model refit at the best parameters.
  auto final_fit = Refit(best, &scratch);
  if (!final_fit.ok()) return final_fit.status();
  return Status::OK();
}

Prediction GaussianProcess::Predict(const std::vector<double>& x) const {
  Prediction pred;
  if (!chol_.has_value() || x_.empty()) {
    // Prior.
    pred.mean = y_mean_;
    pred.variance = y_scale_ * y_scale_ * kernel_.params().signal_variance;
    return pred;
  }
  size_t n = x_.size();
  Vector kstar(n);
  for (size_t i = 0; i < n; ++i) kstar[i] = kernel_.Eval(x_[i], x);
  double mean_std = Dot(kstar, alpha_);
  // v = L^-1 k*; var = k** - v'v.
  Vector v = chol_->SolveLower(kstar);
  double kss = kernel_.Eval(x, x) + kernel_.params().noise_variance;
  double var_std = kss - Dot(v, v);
  var_std = std::max(var_std, 1e-12);
  pred.mean = y_mean_ + y_scale_ * mean_std;
  pred.variance = y_scale_ * y_scale_ * var_std;
  return pred;
}

std::vector<Prediction> GaussianProcess::PredictBatch(
    const std::vector<std::vector<double>>& xs) const {
  std::vector<Prediction> out(xs.size());
  if (xs.empty()) return out;
  if (!chol_.has_value() || x_.empty()) {
    // Prior.
    for (Prediction& pred : out) {
      pred.mean = y_mean_;
      pred.variance = y_scale_ * y_scale_ * kernel_.params().signal_variance;
    }
    return out;
  }
  const size_t n = x_.size();
  const size_t m = xs.size();
  // Cross-kernel matrix K*: row i holds k(x_i, xs[j]) for every candidate
  // j. Candidates are repacked feature-major once, then each training row
  // streams per-kind columns (EvalRowColumnar == EvalRow bit-for-bit).
  const MixedKernel::ProbeColumns cols = kernel_.PackProbes(xs);
  Matrix kstar(n, m);
  MixedKernel::ColumnarScratch scratch;
  for (size_t i = 0; i < n; ++i) {
    kernel_.EvalRowColumnar(x_[i], cols, &scratch, kstar.row(i));
  }
  // Means: one gemv alpha^T K*, accumulated over rows in increasing order —
  // per candidate the exact op sequence of Dot(kstar_j, alpha_).
  std::vector<double> mean_std(m, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double* ki = kstar.row(i);
    const double ai = alpha_[i];
    for (size_t j = 0; j < m; ++j) mean_std[j] += ki[j] * ai;
  }
  // Variances: one blocked triangular solve L V = K* for all candidates at
  // once, then column squared norms accumulated in row order (== Dot(v, v)).
  Matrix v = chol_->SolveLowerMatrix(kstar);
  std::vector<double> vv(m, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double* vi = v.row(i);
    for (size_t j = 0; j < m; ++j) vv[j] += vi[j] * vi[j];
  }
  for (size_t j = 0; j < m; ++j) {
    double kss = kernel_.Eval(xs[j], xs[j]) + kernel_.params().noise_variance;
    double var_std = std::max(kss - vv[j], 1e-12);
    out[j].mean = y_mean_ + y_scale_ * mean_std[j];
    out[j].variance = y_scale_ * y_scale_ * var_std;
  }
  return out;
}

}  // namespace sparktune
