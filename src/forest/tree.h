// CART regression tree: exact greedy variance-reduction splits. Exposes its
// node structure so fANOVA can walk leaf cells and compute marginals.
#pragma once

#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace sparktune {

struct TreeOptions {
  int max_depth = 14;
  int min_samples_leaf = 2;
  int min_samples_split = 4;
  // Features considered per split; -1 = all (set by RandomForest for
  // feature bagging).
  int max_features = -1;
};

// A training matrix sorted once, feature by feature: rank r of feature f
// is the r-th row in (value, row) order. The trees of one forest or
// boosting fit share it, so no node sorts.
class SortedColumns {
 public:
  // InvalidArgument when `x` is empty or its rows differ in width.
  static Result<SortedColumns> Build(const std::vector<std::vector<double>>& x);

  size_t num_rows() const { return num_rows_; }
  size_t num_features() const { return num_features_; }
  double value(size_t f, size_t rank) const {
    return values_[f * num_rows_ + rank];
  }
  int row(size_t f, size_t rank) const { return rows_[f * num_rows_ + rank]; }

 private:
  SortedColumns(size_t num_rows, size_t num_features);

  size_t num_rows_;
  size_t num_features_;
  std::vector<double> values_;  // feature-major, num_features × num_rows
  std::vector<int> rows_;       // same layout
};

class RegressionTree {
 public:
  struct Node {
    bool is_leaf = true;
    int feature = -1;
    double threshold = 0.0;
    int left = -1;   // node index, x[feature] <= threshold
    int right = -1;  // node index, x[feature] >  threshold
    double value = 0.0;  // leaf prediction (mean of samples)
    int num_samples = 0;
    // SSE decrease achieved by this node's split (0 for leaves); basis of
    // impurity feature importance.
    double impurity_decrease = 0.0;
  };

  explicit RegressionTree(TreeOptions options = {});

  // Fit on rows `x` (all the same width) and targets `y`. `sample_indices`
  // selects a bootstrap subset (empty = all rows; repeats allowed). `rng`
  // drives feature subsampling; required when options.max_features != -1.
  Status Fit(const std::vector<std::vector<double>>& x,
             const std::vector<double>& y,
             const std::vector<int>& sample_indices = {},
             Rng* rng = nullptr);
  // The same fit on columns sorted by SortedColumns::Build(x).
  Status Fit(const SortedColumns& columns, const std::vector<double>& y,
             const std::vector<int>& sample_indices = {},
             Rng* rng = nullptr);

  double Predict(const std::vector<double>& x) const;

  // Total impurity (SSE) decrease attributed to each feature, normalized to
  // sum to 1 (all zeros for a stump).
  std::vector<double> FeatureImportance() const;

  const std::vector<Node>& nodes() const { return nodes_; }
  int root() const { return nodes_.empty() ? -1 : 0; }
  size_t num_features() const { return num_features_; }

 private:
  struct Workspace;
  int Build(Workspace& ws, size_t lo, size_t hi, int depth, Rng* rng);

  TreeOptions options_;
  std::vector<Node> nodes_;
  size_t num_features_ = 0;
};

}  // namespace sparktune
