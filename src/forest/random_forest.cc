#include "forest/random_forest.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"

namespace sparktune {

RandomForest::RandomForest(ForestOptions options) : options_(options) {}

Status RandomForest::Fit(const std::vector<std::vector<double>>& x,
                         const std::vector<double>& y) {
  if (x.empty() || x.size() != y.size()) {
    return Status::InvalidArgument("forest needs matching non-empty X and y");
  }
  SPARKTUNE_ASSIGN_OR_RETURN(columns, SortedColumns::Build(x));
  n_obs_ = x.size();
  int nf = static_cast<int>(x[0].size());
  int max_features;
  if (options_.feature_fraction > 0.0) {
    max_features = std::max(1, static_cast<int>(options_.feature_fraction * nf));
  } else {
    max_features = std::max(1, static_cast<int>(std::sqrt(nf)));
  }

  Rng rng(options_.seed);
  int n = static_cast<int>(x.size());
  int boot_n =
      std::max(1, static_cast<int>(options_.bootstrap_fraction * n));
  TreeOptions topts = options_.tree;
  topts.max_features = max_features < nf ? max_features : -1;

  // Fork every tree's RNG off the master stream before the first fit:
  // bootstrap draws and feature subsampling read only the tree's own
  // stream, so one tree's draws never shift another's.
  size_t num_trees = static_cast<size_t>(options_.num_trees);
  std::vector<Rng> tree_rngs = ForkRngs(&rng, num_trees);
  std::vector<RegressionTree> trees(num_trees, RegressionTree(topts));
  trees_.clear();
  for (size_t t = 0; t < num_trees; ++t) {
    Rng& tree_rng = tree_rngs[t];
    std::vector<int> sample(static_cast<size_t>(boot_n));
    for (auto& s : sample) {
      s = static_cast<int>(tree_rng.UniformInt(0, n - 1));
    }
    SPARKTUNE_RETURN_IF_ERROR(trees[t].Fit(columns, y, sample, &tree_rng));
  }
  trees_ = std::move(trees);
  return Status::OK();
}

std::vector<double> RandomForest::FeatureImportance() const {
  std::vector<double> imp;
  if (trees_.empty()) return imp;
  imp.assign(trees_[0].num_features(), 0.0);
  for (const auto& tree : trees_) {
    std::vector<double> ti = tree.FeatureImportance();
    for (size_t i = 0; i < imp.size(); ++i) imp[i] += ti[i];
  }
  for (auto& v : imp) v /= static_cast<double>(trees_.size());
  return imp;
}

Prediction RandomForest::Predict(const std::vector<double>& x) const {
  Prediction pred;
  if (trees_.empty()) return pred;
  double sum = 0.0, sq = 0.0;
  for (const auto& tree : trees_) {
    double v = tree.Predict(x);
    sum += v;
    sq += v * v;
  }
  double n = static_cast<double>(trees_.size());
  pred.mean = sum / n;
  pred.variance = std::max(0.0, sq / n - pred.mean * pred.mean);
  return pred;
}

std::vector<Prediction> RandomForest::PredictBatch(
    const std::vector<std::vector<double>>& xs) const {
  std::vector<Prediction> out(xs.size());
  if (trees_.empty() || xs.empty()) return out;
  const size_t m = xs.size();
  constexpr size_t kChunk = 64;
  const double n = static_cast<double>(trees_.size());
  for (size_t j0 = 0; j0 < m; j0 += kChunk) {
    const size_t j1 = std::min(m, j0 + kChunk);
    std::vector<double> sum(j1 - j0, 0.0);
    std::vector<double> sq(j1 - j0, 0.0);
    for (const auto& tree : trees_) {
      for (size_t j = j0; j < j1; ++j) {
        double v = tree.Predict(xs[j]);
        sum[j - j0] += v;
        sq[j - j0] += v * v;
      }
    }
    for (size_t j = j0; j < j1; ++j) {
      double mean = sum[j - j0] / n;
      out[j].mean = mean;
      out[j].variance = std::max(0.0, sq[j - j0] / n - mean * mean);
    }
  }
  return out;
}

}  // namespace sparktune
