#include "model/surrogate.h"

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

std::unique_ptr<ConditionedSurrogate> Surrogate::Condition(
    const FeatureSubspace& sub, const ConditionedRows*) const {
  return std::make_unique<FullFeatures>(this, sub);
}

}  // namespace sparktune
