#include "meta/meta_surrogate.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/stats.h"

namespace sparktune {

namespace {

// Folds of the cross-validation that sets the self weight.
constexpr int kCvFolds = 3;
// Base-surrogate weights decay linearly to zero as the current task
// accumulates this many observations: transfer dominates the cold start
// and fades once the task's own evidence suffices.
constexpr int kBaseDecayHorizon = 30;

}  // namespace

MetaEnsembleSurrogate::MetaEnsembleSurrogate(std::vector<FeatureKind> schema,
                                             std::vector<BaseSurrogate> bases,
                                             MetaEnsembleOptions options)
    : schema_(std::move(schema)),
      bases_(std::move(bases)),
      options_(options) {}

Status MetaEnsembleSurrogate::Fit(const std::vector<std::vector<double>>& x,
                                  const std::vector<double>& y) {
  n_obs_ = x.size();
  target_mean_ = Mean(y);
  target_scale_ = Stddev(y);
  if (target_scale_ < 1e-12) target_scale_ = 1.0;

  current_ = std::make_unique<GaussianProcess>(schema_, options_.gp);
  SPARKTUNE_RETURN_IF_ERROR(current_->Fit(x, y));

  // ---- Self weight via k-fold CV rank correlation ----
  double self_raw = options_.min_self_weight;
  if (static_cast<int>(x.size()) >= 2 * kCvFolds) {
    std::vector<double> predicted(x.size(), 0.0);
    for (int f = 0; f < kCvFolds; ++f) {
      std::vector<std::vector<double>> train_x;
      std::vector<double> train_y;
      std::vector<size_t> test_idx;
      for (size_t i = 0; i < x.size(); ++i) {
        if (static_cast<int>(i) % kCvFolds == f) {
          test_idx.push_back(i);
        } else {
          train_x.push_back(x[i]);
          train_y.push_back(y[i]);
        }
      }
      GaussianProcess fold_gp(schema_, options_.gp);
      if (!fold_gp.Fit(train_x, train_y).ok()) continue;
      std::vector<std::vector<double>> test_x;
      test_x.reserve(test_idx.size());
      for (size_t i : test_idx) test_x.push_back(x[i]);
      std::vector<Prediction> preds = fold_gp.PredictBatch(test_x);
      for (size_t t = 0; t < test_idx.size(); ++t) {
        predicted[test_idx[t]] = preds[t].mean;
      }
    }
    double tau = KendallTau(predicted, y);
    self_raw = std::clamp(tau, options_.min_self_weight, 1.0);
  }

  // ---- Normalize ----
  const double decay =
      std::max(0.0, 1.0 - static_cast<double>(n_obs_) / kBaseDecayHorizon);
  base_weights_.resize(bases_.size());
  double base_mass = 0.0;
  for (size_t i = 0; i < bases_.size(); ++i) {
    base_weights_[i] = std::max(0.0, bases_[i].similarity) * decay;
    base_mass += base_weights_[i];
  }
  // The combined base mass never exceeds the self model's full confidence:
  // many similar sources share their vote instead of out-voting the
  // current task's own evidence.
  if (base_mass > 1.0) {
    for (auto& w : base_weights_) w /= base_mass;
    base_mass = 1.0;
  }
  double total = self_raw + base_mass;
  if (total <= 0.0) {
    self_weight_ = 1.0;
    std::fill(base_weights_.begin(), base_weights_.end(), 0.0);
  } else {
    self_weight_ = self_raw / total;
    for (auto& w : base_weights_) w /= total;
  }
  return Status::OK();
}

Prediction MetaEnsembleSurrogate::Predict(const std::vector<double>& x) const {
  Prediction out;
  if (current_ == nullptr) {
    // Not fitted: pure prior mix of base models in current scale (identity
    // scale since no target stats).
    double w = bases_.empty() ? 0.0 : 1.0 / static_cast<double>(bases_.size());
    for (const auto& b : bases_) {
      std::vector<double> xb(x.begin(),
                             x.begin() + static_cast<long>(std::min(
                                             b.input_dims, x.size())));
      Prediction p = b.model->Predict(xb);
      double std_mean = (p.mean - b.y_mean) / b.y_scale;
      out.mean += w * std_mean;
      out.variance += w * w * p.variance / (b.y_scale * b.y_scale);
    }
    return out;
  }

  Prediction self = current_->Predict(x);
  out.mean = self_weight_ * self.mean;
  out.variance = self_weight_ * self_weight_ * self.variance;
  for (size_t i = 0; i < bases_.size(); ++i) {
    double w = base_weights_[i];
    if (w <= 0.0) continue;
    const BaseSurrogate& b = bases_[i];
    std::vector<double> xb(x.begin(),
                           x.begin() + static_cast<long>(std::min(
                                           b.input_dims, x.size())));
    Prediction p = b.model->Predict(xb);
    // Standardize in the base task's scale, re-express in the current
    // task's scale.
    double std_mean = (p.mean - b.y_mean) / b.y_scale;
    double mean_here = target_mean_ + target_scale_ * std_mean;
    double var_here =
        p.variance / (b.y_scale * b.y_scale) * (target_scale_ * target_scale_);
    out.mean += w * mean_here;
    out.variance += w * w * var_here;
  }
  out.variance = std::max(out.variance, 1e-12);
  return out;
}

std::vector<Prediction> MetaEnsembleSurrogate::PredictBatch(
    const std::vector<std::vector<double>>& xs) const {
  std::vector<Prediction> out(xs.size());
  if (xs.empty()) return out;
  // Inputs truncated to one base model's feature width.
  auto truncated = [&](size_t input_dims) {
    std::vector<std::vector<double>> xb;
    xb.reserve(xs.size());
    for (const auto& x : xs) {
      xb.emplace_back(
          x.begin(),
          x.begin() + static_cast<long>(std::min(input_dims, x.size())));
    }
    return xb;
  };
  if (current_ == nullptr) {
    // Not fitted: pure prior mix of base models.
    double w = bases_.empty() ? 0.0 : 1.0 / static_cast<double>(bases_.size());
    for (const auto& b : bases_) {
      std::vector<Prediction> preds =
          b.model->PredictBatch(truncated(b.input_dims));
      for (size_t j = 0; j < xs.size(); ++j) {
        double std_mean = (preds[j].mean - b.y_mean) / b.y_scale;
        out[j].mean += w * std_mean;
        out[j].variance += w * w * preds[j].variance / (b.y_scale * b.y_scale);
      }
    }
    return out;
  }

  std::vector<Prediction> selfs = current_->PredictBatch(xs);
  for (size_t j = 0; j < xs.size(); ++j) {
    out[j].mean = self_weight_ * selfs[j].mean;
    out[j].variance = self_weight_ * self_weight_ * selfs[j].variance;
  }
  // Each base model scores the whole batch once; per-candidate the mix
  // accumulates self-then-bases in index order, exactly like Predict.
  for (size_t i = 0; i < bases_.size(); ++i) {
    double w = base_weights_[i];
    if (w <= 0.0) continue;
    const BaseSurrogate& b = bases_[i];
    std::vector<Prediction> preds =
        b.model->PredictBatch(truncated(b.input_dims));
    for (size_t j = 0; j < xs.size(); ++j) {
      double std_mean = (preds[j].mean - b.y_mean) / b.y_scale;
      double mean_here = target_mean_ + target_scale_ * std_mean;
      double var_here = preds[j].variance / (b.y_scale * b.y_scale) *
                        (target_scale_ * target_scale_);
      out[j].mean += w * mean_here;
      out[j].variance += w * w * var_here;
    }
  }
  for (Prediction& p : out) p.variance = std::max(p.variance, 1e-12);
  return out;
}

}  // namespace sparktune
