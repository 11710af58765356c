#include "model/gp.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>

#include "common/stats.h"

namespace sparktune {

namespace {

// Coordinate-descent sweeps over the hyperparameter grids.
constexpr int kHyperSweeps = 2;

}  // namespace

struct GaussianProcess::FitScratch {
  FitScratch(const MixedKernel* kernel, std::vector<KernelPairStats> pairs)
      : factors(kernel, std::move(pairs)) {}

  std::vector<double> y_std;  // standardized targets
  // Kernel factors of every training pair, packed lower triangle (row i,
  // col j <= i at i*(i+1)/2 + j), one table per hyperparameter value the
  // sweep meets.
  MixedKernel::FactorTables factors;
  std::vector<double> pair_values;  // one grid point's kernel values
};

GaussianProcess::GaussianProcess(std::vector<FeatureKind> schema,
                                 GpOptions options)
    : kernel_(std::move(schema)), options_(options) {}

Result<GaussianProcess::Factorization> GaussianProcess::Factorize(
    const KernelParams& params, FitScratch* scratch) const {
  const size_t n = x_.size();
  scratch->pair_values.resize(scratch->factors.num_pairs());
  scratch->factors.Values(params, scratch->pair_values.data());
  Matrix k(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      const double v = scratch->pair_values[i * (i + 1) / 2 + j];
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  k.AddDiagonal(params.noise_variance + options_.noise_floor);
  auto chol = Cholesky::Factor(k);
  if (!chol.ok()) return chol.status();
  Factorization f;
  f.alpha = chol->Solve(scratch->y_std);
  double fit_term = -0.5 * Dot(scratch->y_std, f.alpha);
  f.lml = fit_term - 0.5 * chol->LogDet() -
          0.5 * static_cast<double>(n) * std::log(2.0 * std::numbers::pi);
  f.chol = std::move(*chol);
  return f;
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
  // Unfitted until the factorization below succeeds: a failed re-Fit
  // predicts the prior, as a failed first Fit does.
  chol_.reset();
  alpha_.clear();
  x_ = x;
  y_mean_ = Mean(y);
  y_scale_ = Stddev(y);
  if (y_scale_ < 1e-12) y_scale_ = 1.0;

  // Pairwise statistics are hyperparameter-independent: compute them once,
  // and each factor once per hyperparameter value, so a grid point's
  // kernel matrix is lookups and multiplies.
  const size_t n = x_.size();
  std::vector<KernelPairStats> pairs(n * (n + 1) / 2);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      pairs[i * (i + 1) / 2 + j] = kernel_.Stats(x_[i], x_[j]);
    }
  }
  FitScratch scratch(&kernel_, std::move(pairs));
  scratch.y_std.resize(y.size());
  for (size_t i = 0; i < y.size(); ++i) {
    scratch.y_std[i] = (y[i] - y_mean_) / y_scale_;
  }

  KernelParams best = kernel_.params();
  auto fit = Factorize(best, &scratch);
  if (!fit.ok()) return fit.status();

  if (options_.optimize_hypers && n >= 3) {
    // One coordinate of the descent: score each grid point in grid order
    // and keep it on strict improvement.
    auto sweep_coordinate = [&](std::span<const double> grid,
                                void (*assign)(KernelParams*, double)) {
      for (double v : grid) {
        KernelParams cand = best;
        assign(&cand, v);
        auto cand_fit = Factorize(cand, &scratch);
        if (cand_fit.ok() && cand_fit->lml > fit->lml) {
          best = cand;
          fit = std::move(cand_fit);
        }
      }
    };

    bool has_ds = std::any_of(
        kernel_.schema().begin(), kernel_.schema().end(),
        [](FeatureKind k) { return k == FeatureKind::kDataSize; });
    bool has_cat = std::any_of(
        kernel_.schema().begin(), kernel_.schema().end(),
        [](FeatureKind k) { return k == FeatureKind::kCategorical; });

    for (int sweep = 0; sweep < kHyperSweeps; ++sweep) {
      // Coordinate 1: numeric lengthscale.
      sweep_coordinate(kLengthGrid, [](KernelParams* p, double v) {
        p->length_numeric = v;
      });
      // Coordinate 2: datasize lengthscale (only if present).
      if (has_ds) {
        sweep_coordinate(kLengthGrid, [](KernelParams* p, double v) {
          p->length_datasize = v;
        });
      }
      // Coordinate 3: hamming weight (only if categorical present).
      if (has_cat) {
        sweep_coordinate(kHammingGrid, [](KernelParams* p, double v) {
          p->hamming_weight = v;
        });
      }
      // Coordinate 4: noise.
      sweep_coordinate(kNoiseGrid, [](KernelParams* p, double v) {
        p->noise_variance = v;
      });
    }
  }
  // The best grid point's factorization is the fitted model.
  kernel_.set_params(best);
  chol_.emplace(std::move(fit->chol));
  alpha_ = std::move(fit->alpha);
  return Status::OK();
}

Prediction GaussianProcess::Prior() const {
  Prediction pred;
  pred.mean = y_mean_;
  pred.variance = y_scale_ * y_scale_ * kernel_.params().signal_variance;
  return pred;
}

Prediction GaussianProcess::Posterior(const double* kstar, double* v) const {
  const size_t n = x_.size();
  double mean_std = 0.0;
  for (size_t i = 0; i < n; ++i) mean_std += kstar[i] * alpha_[i];
  // v = L^-1 k*; var = k** - v'v.
  std::copy(kstar, kstar + n, v);
  chol_->SolveLowerInPlace(v);
  double vv = 0.0;
  for (size_t i = 0; i < n; ++i) vv += v[i] * v[i];
  // k(x, x) is the signal variance for every finite x.
  const double kss =
      kernel_.params().signal_variance + kernel_.params().noise_variance;
  const double var_std = std::max(kss - vv, 1e-12);
  Prediction pred;
  pred.mean = y_mean_ + y_scale_ * mean_std;
  pred.variance = y_scale_ * y_scale_ * var_std;
  return pred;
}

std::vector<Prediction> GaussianProcess::Posteriors(const Matrix& kstar) const {
  const size_t n = x_.size();
  const size_t m = kstar.cols();
  // Means: one gemv alpha^T K*, accumulated over rows in increasing order —
  // per candidate the exact op sequence of Posterior's mean.
  std::vector<double> mean_std(m, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double* ki = kstar.row(i);
    const double ai = alpha_[i];
    for (size_t j = 0; j < m; ++j) mean_std[j] += ki[j] * ai;
  }
  // Variances: one blocked triangular solve L V = K* for all candidates at
  // once, then column squared norms accumulated in row order.
  Matrix v = chol_->SolveLowerMatrix(kstar);
  std::vector<double> vv(m, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double* vi = v.row(i);
    for (size_t j = 0; j < m; ++j) vv[j] += vi[j] * vi[j];
  }
  // k(x, x) is the signal variance for every finite x.
  const double kss =
      kernel_.params().signal_variance + kernel_.params().noise_variance;
  std::vector<Prediction> out(m);
  for (size_t j = 0; j < m; ++j) {
    double var_std = std::max(kss - vv[j], 1e-12);
    out[j].mean = y_mean_ + y_scale_ * mean_std[j];
    out[j].variance = y_scale_ * y_scale_ * var_std;
  }
  return out;
}

Prediction GaussianProcess::Predict(const std::vector<double>& x) const {
  if (!fitted()) return Prior();
  const size_t n = x_.size();
  Vector kstar(n);
  for (size_t i = 0; i < n; ++i) kstar[i] = kernel_.Eval(x_[i], x);
  Vector v(n);
  return Posterior(kstar.data(), v.data());
}

std::vector<Prediction> GaussianProcess::PredictBatch(
    const std::vector<std::vector<double>>& xs) const {
  if (xs.empty()) return {};
  const ProbeSpan span = SpanOfProbes(xs);
  return Condition(span.sub, nullptr)
      ->PredictBatch(span.cols.data(), xs.size());
}

class GaussianProcess::Conditioned final : public ConditionedSurrogate {
 public:
  Conditioned(const GaussianProcess* gp, const FeatureSubspace& sub,
              const ConditionedRows* shared)
      : gp_(gp) {
    // An unfitted GP predicts the prior and reads no statistics.
    if (!gp->fitted()) return;
    if (shared != nullptr && shared->Conditions(gp->schema(), gp->x_)) {
      rows_ = shared;
    } else {
      rows_ = &own_.emplace(gp->kernel_, gp->x_, sub.base, sub.free);
    }
    const size_t n = gp->x_.size();
    // A pinned data size has one factor per row. A free one (only a probe
    // span frees it) has one per candidate, filled in per prediction.
    datasize_factors_.resize(n);
    if (!rows_->datasize_free()) {
      for (size_t i = 0; i < n; ++i) {
        datasize_factors_[i] =
            gp->kernel_.DataSizeFactorOf(rows_->datasize_d2(i));
      }
    }
    kstar_.resize(n);
    v_.resize(n);
  }

  const ConditionedRows* rows() const override { return rows_; }

  Prediction Predict(const double*,
                     const KernelPairStats* stats) const override {
    if (rows_ == nullptr) return gp_->Prior();
    const MixedKernel& kernel = gp_->kernel_;
    if (rows_->datasize_free()) {
      for (size_t i = 0; i < kstar_.size(); ++i) {
        datasize_factors_[i] = kernel.DataSizeFactorOf(stats[i].datasize_d2);
      }
    }
    for (size_t i = 0; i < kstar_.size(); ++i) {
      kstar_[i] = kernel.EvalConditioned(stats[i], datasize_factors_[i]);
    }
    return gp_->Posterior(kstar_.data(), v_.data());
  }

  std::vector<Prediction> PredictBatch(const double* cols,
                                       size_t m) const override {
    if (m == 0) return {};
    if (rows_ == nullptr) return std::vector<Prediction>(m, gp_->Prior());
    // Row by row: the row's statistics against every candidate, then its
    // kernel values, so no n x m statistics are held.
    const size_t n = kstar_.size();
    Matrix kstar(n, m);
    std::vector<double> num_d2(m), mismatches(m);
    std::vector<double> ds_d2(rows_->datasize_free() ? m : 0);
    double* ds = ds_d2.empty() ? nullptr : ds_d2.data();
    for (size_t i = 0; i < n; ++i) {
      rows_->RowStats(i, cols, m, num_d2.data(), mismatches.data(), ds);
      gp_->kernel_.EvalConditionedRow(num_d2.data(), mismatches.data(), ds,
                                      m, datasize_factors_[i], kstar.row(i));
    }
    return gp_->Posteriors(kstar);
  }

 private:
  const GaussianProcess* gp_;
  std::optional<ConditionedRows> own_;
  const ConditionedRows* rows_ = nullptr;
  // Per row; Predict's scratch when the data size is free.
  mutable std::vector<double> datasize_factors_;
  // Per-candidate scratch of Predict.
  mutable std::vector<double> kstar_;
  mutable std::vector<double> v_;
};

std::unique_ptr<ConditionedSurrogate> GaussianProcess::Condition(
    const FeatureSubspace& sub, const ConditionedRows* shared) const {
  return std::make_unique<Conditioned>(this, sub, shared);
}

}  // namespace sparktune
