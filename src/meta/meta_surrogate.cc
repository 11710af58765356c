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
  // Unfitted until the current-task GP fits: a failed fit, first or not,
  // predicts the prior mix, as an ensemble never fitted does.
  current_.reset();
  self_weight_ = 0.0;
  base_weights_.clear();
  target_mean_ = 0.0;
  target_scale_ = 1.0;
  n_obs_ = 0;
  auto current = std::make_unique<GaussianProcess>(schema_, options_.gp);
  SPARKTUNE_RETURN_IF_ERROR(current->Fit(x, y));
  current_ = std::move(current);
  n_obs_ = x.size();
  target_mean_ = Mean(y);
  target_scale_ = Stddev(y);
  if (target_scale_ < 1e-12) target_scale_ = 1.0;

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

bool MetaEnsembleSurrogate::Mixes(size_t i) const {
  return current_ == nullptr || base_weights_[i] > 0.0;
}

void MetaEnsembleSurrogate::MixBase(size_t i, const Prediction& p,
                                    Prediction* out) const {
  const BaseSurrogate& b = bases_[i];
  // Standardize in the base task's scale.
  const double std_mean = (p.mean - b.y_mean) / b.y_scale;
  if (current_ == nullptr) {
    // Not fitted: pure prior mix of base models (identity scale, since
    // there are no target statistics).
    const double w = 1.0 / static_cast<double>(bases_.size());
    out->mean += w * std_mean;
    out->variance += w * w * p.variance / (b.y_scale * b.y_scale);
    return;
  }
  // Re-express in the current task's scale.
  const double w = base_weights_[i];
  const double mean_here = target_mean_ + target_scale_ * std_mean;
  const double var_here =
      p.variance / (b.y_scale * b.y_scale) * (target_scale_ * target_scale_);
  out->mean += w * mean_here;
  out->variance += w * w * var_here;
}

Prediction MetaEnsembleSurrogate::MixSelf(const Prediction& self) const {
  Prediction out;
  out.mean = self_weight_ * self.mean;
  out.variance = self_weight_ * self_weight_ * self.variance;
  return out;
}

namespace {

// The leading input_dims features a base model reads.
std::vector<double> Truncated(const std::vector<double>& x,
                              size_t input_dims) {
  return std::vector<double>(
      x.begin(), x.begin() + static_cast<long>(std::min(input_dims, x.size())));
}

}  // namespace

Prediction MetaEnsembleSurrogate::Predict(const std::vector<double>& x) const {
  Prediction out;
  if (current_ != nullptr) out = MixSelf(current_->Predict(x));
  for (size_t i = 0; i < bases_.size(); ++i) {
    if (!Mixes(i)) continue;
    const BaseSurrogate& b = bases_[i];
    MixBase(i, b.model->Predict(Truncated(x, b.input_dims)), &out);
  }
  if (current_ != nullptr) out.variance = std::max(out.variance, 1e-12);
  return out;
}

std::vector<Prediction> MetaEnsembleSurrogate::PredictBatch(
    const std::vector<std::vector<double>>& xs) const {
  if (xs.empty()) return {};
  const ProbeSpan span = SpanOfProbes(xs);
  return Condition(span.sub, nullptr)
      ->PredictBatch(span.cols.data(), xs.size());
}

class MetaEnsembleSurrogate::Conditioned final : public ConditionedSurrogate {
 public:
  Conditioned(const MetaEnsembleSurrogate* meta, const FeatureSubspace& sub,
              const ConditionedRows* shared)
      : meta_(meta), bases_(meta->bases_.size()) {
    if (meta->current_ != nullptr) {
      current_ = meta->current_->Condition(sub, shared);
    }
    size_t most_rows = 0;
    for (size_t i = 0; i < bases_.size(); ++i) {
      if (!meta->Mixes(i)) continue;
      // The base reads the leading input_dims features; the free ones
      // among them are a prefix of sub.free, so a candidate's free
      // features serve the base as they are.
      const size_t dims = meta->bases_[i].input_dims;
      FeatureSubspace truncated;
      truncated.base = Truncated(sub.base, dims);
      for (size_t f : sub.free) {
        if (f < truncated.base.size()) truncated.free.push_back(f);
      }
      bases_[i] = meta->bases_[i].model->Condition(truncated, nullptr);
      if (const ConditionedRows* rows = bases_[i]->rows()) {
        most_rows = std::max(most_rows, rows->size());
      }
    }
    base_stats_.resize(most_rows);
  }

  const ConditionedRows* rows() const override {
    return current_ != nullptr ? current_->rows() : nullptr;
  }

  Prediction Predict(const double* free,
                     const KernelPairStats* stats) const override {
    Prediction out;
    if (current_ != nullptr) {
      out = meta_->MixSelf(current_->Predict(free, stats));
    }
    for (size_t i = 0; i < bases_.size(); ++i) {
      if (bases_[i] == nullptr) continue;
      if (const ConditionedRows* rows = bases_[i]->rows()) {
        rows->Stats(free, base_stats_.data());
      }
      meta_->MixBase(i, bases_[i]->Predict(free, base_stats_.data()), &out);
    }
    if (current_ != nullptr) out.variance = std::max(out.variance, 1e-12);
    return out;
  }

  std::vector<Prediction> PredictBatch(const double* cols,
                                       size_t m) const override {
    std::vector<Prediction> out(m);
    if (m == 0) return out;
    if (current_ != nullptr) {
      std::vector<Prediction> selfs = current_->PredictBatch(cols, m);
      for (size_t j = 0; j < m; ++j) out[j] = meta_->MixSelf(selfs[j]);
    }
    for (size_t i = 0; i < bases_.size(); ++i) {
      if (bases_[i] == nullptr) continue;
      std::vector<Prediction> preds = bases_[i]->PredictBatch(cols, m);
      for (size_t j = 0; j < m; ++j) meta_->MixBase(i, preds[j], &out[j]);
    }
    if (current_ != nullptr) {
      for (Prediction& p : out) p.variance = std::max(p.variance, 1e-12);
    }
    return out;
  }

 private:
  const MetaEnsembleSurrogate* meta_;
  std::unique_ptr<ConditionedSurrogate> current_;
  // Aligned with the ensemble's bases; null for a base the mix skips.
  std::vector<std::unique_ptr<ConditionedSurrogate>> bases_;
  // Per-candidate scratch of Predict: one base's row statistics.
  mutable std::vector<KernelPairStats> base_stats_;
};

std::unique_ptr<ConditionedSurrogate> MetaEnsembleSurrogate::Condition(
    const FeatureSubspace& sub, const ConditionedRows* shared) const {
  return std::make_unique<Conditioned>(this, sub, shared);
}

}  // namespace sparktune
