#include "model/surrogate.h"

#include <algorithm>
#include <cassert>

namespace sparktune {

namespace {

// Surrogate::Condition's default: the candidates' full features, rebuilt
// from the base, through the model's own Predict and PredictBatch.
class FullFeatures final : public ConditionedSurrogate {
 public:
  FullFeatures(const Surrogate* model, const FeatureSubspace& sub)
      : model_(model), sub_(sub) {}

  const ConditionedRows* rows() const override { return nullptr; }

  Prediction Predict(const double* free,
                     const KernelPairStats*) const override {
    std::vector<double> x = sub_.base;
    for (size_t s = 0; s < sub_.free.size(); ++s) x[sub_.free[s]] = free[s];
    return model_->Predict(x);
  }

  std::vector<Prediction> PredictBatch(const double* cols,
                                       size_t m) const override {
    std::vector<std::vector<double>> xs(m, sub_.base);
    for (size_t s = 0; s < sub_.free.size(); ++s) {
      for (size_t j = 0; j < m; ++j) xs[j][sub_.free[s]] = cols[s * m + j];
    }
    return model_->PredictBatch(xs);
  }

 private:
  const Surrogate* model_;
  FeatureSubspace sub_;
};

}  // namespace

ProbeSpan SpanOfProbes(const std::vector<std::vector<double>>& xs) {
  assert(!xs.empty());
  const std::vector<double>& first = xs[0];
  const size_t m = xs.size();
  assert(std::all_of(xs.begin(), xs.end(), [&](const std::vector<double>& x) {
    return x.size() == first.size();
  }));
  ProbeSpan span;
  span.sub.base = first;
  for (size_t f = 0; f < first.size(); ++f) {
    size_t j = 1;
    while (j < m && xs[j][f] == first[f]) ++j;
    if (j < m) span.sub.free.push_back(f);
  }
  span.cols.resize(span.sub.free.size() * m);
  for (size_t s = 0; s < span.sub.free.size(); ++s) {
    const size_t f = span.sub.free[s];
    for (size_t j = 0; j < m; ++j) span.cols[s * m + j] = xs[j][f];
  }
  return span;
}

std::unique_ptr<ConditionedSurrogate> Surrogate::Condition(
    const FeatureSubspace& sub, const ConditionedRows*) const {
  return std::make_unique<FullFeatures>(this, sub);
}

}  // namespace sparktune
