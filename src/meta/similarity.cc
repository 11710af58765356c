#include "meta/similarity.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/stats.h"

namespace sparktune {

double SurrogateDistance(const Surrogate& a, const Surrogate& b,
                         const std::vector<std::vector<double>>& probes) {
  assert(!probes.empty());
  // One batched pass per surrogate over the shared probe set.
  std::vector<Prediction> pa = a.PredictBatch(probes);
  std::vector<Prediction> pb = b.PredictBatch(probes);
  std::vector<double> ya, yb;
  ya.reserve(probes.size());
  yb.reserve(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    ya.push_back(pa[i].mean);
    yb.push_back(pb[i].mean);
  }
  return RankingDistance(ya, yb);
}

double RankingDistance(const std::vector<double>& means_a,
                       const std::vector<double>& means_b) {
  double tau = KendallTau(means_a, means_b);
  return std::clamp((1.0 - tau) / 2.0, 0.0, 1.0);
}

SimilarityModel::SimilarityModel(SimilarityModelOptions options)
    : options_(options), gbdt_(options.gbdt) {}

std::vector<double> SimilarityModel::PairFeatures(
    const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  std::vector<double> f;
  f.reserve(a.size() * 3);
  f.insert(f.end(), a.begin(), a.end());
  f.insert(f.end(), b.begin(), b.end());
  for (size_t i = 0; i < a.size(); ++i) f.push_back(std::fabs(a[i] - b[i]));
  return f;
}

Status SimilarityModel::Train(const std::vector<LabelledPair>& pairs) {
  if (pairs.empty()) {
    return Status::InvalidArgument("no labelled pairs to train on");
  }
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  x.reserve(pairs.size() * 2);
  y.reserve(pairs.size() * 2);
  for (const auto& p : pairs) {
    x.push_back(PairFeatures(p.meta_a, p.meta_b));
    y.push_back(p.distance);
    x.push_back(PairFeatures(p.meta_b, p.meta_a));
    y.push_back(p.distance);
  }
  SPARKTUNE_RETURN_IF_ERROR(gbdt_.Fit(x, y));
  trained_ = true;
  return Status::OK();
}

double SimilarityModel::PredictDistance(const std::vector<double>& meta_a,
                                        const std::vector<double>& meta_b) const {
  assert(trained_);
  double d1 = gbdt_.Predict(PairFeatures(meta_a, meta_b));
  double d2 = gbdt_.Predict(PairFeatures(meta_b, meta_a));
  return std::clamp(0.5 * (d1 + d2), 0.0, 1.0);
}

}  // namespace sparktune
