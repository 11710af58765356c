// Bootstrap random forest regressor: the model behind fANOVA importance
// (paper §4.1) and the RFHOC/DAC baselines. Predicts mean and across-tree
// variance (SMAC-style uncertainty).
#pragma once

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "forest/tree.h"
#include "model/surrogate.h"

namespace sparktune {

struct ForestOptions {
  int num_trees = 32;
  TreeOptions tree;
  // Fraction of features per split; <=0 means sqrt(num_features).
  double feature_fraction = -1.0;
  double bootstrap_fraction = 1.0;
  uint64_t seed = 17;
};

class RandomForest final : public Surrogate {
 public:
  explicit RandomForest(ForestOptions options = {});

  Status Fit(const std::vector<std::vector<double>>& x,
             const std::vector<double>& y) override;

  // Mean prediction and variance across trees.
  Prediction Predict(const std::vector<double>& x) const override;

  // Batched traversal: candidates are split into chunks and each chunk
  // walks the trees in the outer loop, so one tree's nodes stay hot across
  // the whole chunk. Per candidate the accumulation order over trees
  // matches Predict — bit-identical.
  std::vector<Prediction> PredictBatch(
      const std::vector<std::vector<double>>& xs) const override;

  size_t num_observations() const override { return n_obs_; }

  // Mean impurity feature importance across trees (sums to ~1).
  std::vector<double> FeatureImportance() const;

  const std::vector<RegressionTree>& trees() const { return trees_; }

 private:
  ForestOptions options_;
  std::vector<RegressionTree> trees_;
  size_t n_obs_ = 0;
};

}  // namespace sparktune
