// Test-only reference for the presorted tree core (forest/tree.h): the
// original CART fit that re-sorts each node's rows per feature, with the
// sort in (value, row) order. RegressionTree must reproduce its nodes bit
// for bit; tests/tree_equivalence_test.cc checks that.
#pragma once

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "forest/tree.h"

namespace sparktune::reference {

struct SplitResult {
  bool found = false;
  int feature = -1;
  double threshold = 0.0;
  double score = std::numeric_limits<double>::infinity();  // weighted SSE
};

// Best split for one feature by exhaustive scan of sorted unique midpoints.
inline void BestSplitForFeature(const std::vector<std::vector<double>>& x,
                                const std::vector<double>& y,
                                const std::vector<int>& indices, int feature,
                                int min_leaf, SplitResult* best) {
  size_t n = indices.size();
  std::vector<int> order(indices);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double va = x[static_cast<size_t>(a)][static_cast<size_t>(feature)];
    const double vb = x[static_cast<size_t>(b)][static_cast<size_t>(feature)];
    return va < vb || (va == vb && a < b);
  });
  double total_sum = 0.0, total_sq = 0.0;
  for (int i : order) {
    total_sum += y[static_cast<size_t>(i)];
    total_sq += y[static_cast<size_t>(i)] * y[static_cast<size_t>(i)];
  }
  double left_sum = 0.0, left_sq = 0.0;
  for (size_t k = 0; k + 1 < n; ++k) {
    double yi = y[static_cast<size_t>(order[k])];
    left_sum += yi;
    left_sq += yi * yi;
    double xv = x[static_cast<size_t>(order[k])][static_cast<size_t>(feature)];
    double xn =
        x[static_cast<size_t>(order[k + 1])][static_cast<size_t>(feature)];
    if (xn <= xv) continue;  // same value, no valid threshold
    size_t nl = k + 1, nr = n - nl;
    if (nl < static_cast<size_t>(min_leaf) ||
        nr < static_cast<size_t>(min_leaf)) {
      continue;
    }
    double right_sum = total_sum - left_sum;
    double right_sq = total_sq - left_sq;
    double sse_left = left_sq - left_sum * left_sum / static_cast<double>(nl);
    double sse_right =
        right_sq - right_sum * right_sum / static_cast<double>(nr);
    double score = sse_left + sse_right;
    if (score < best->score - 1e-15) {
      best->found = true;
      best->feature = feature;
      best->threshold = 0.5 * (xv + xn);
      best->score = score;
    }
  }
}

class NaiveTree {
 public:
  NaiveTree(const TreeOptions& options,
            const std::vector<std::vector<double>>& x,
            const std::vector<double>& y, Rng* rng)
      : options_(options), x_(x), y_(y), rng_(rng) {}

  // Nodes of the tree fitted on `sample` (empty = all rows), in the order
  // RegressionTree stores them (depth first, left before right).
  std::vector<RegressionTree::Node> Fit(const std::vector<int>& sample) {
    std::vector<int> indices = sample;
    if (indices.empty()) {
      indices.resize(x_.size());
      std::iota(indices.begin(), indices.end(), 0);
    }
    nodes_.clear();
    Build(indices, 0);
    return nodes_;
  }

 private:
  int Build(std::vector<int>& indices, int depth) {
    int node_id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    double sum = 0.0, sq = 0.0;
    for (int i : indices) {
      sum += y_[static_cast<size_t>(i)];
      sq += y_[static_cast<size_t>(i)] * y_[static_cast<size_t>(i)];
    }
    double mean = sum / static_cast<double>(indices.size());
    double node_sse = sq - sum * mean;
    nodes_[static_cast<size_t>(node_id)].value = mean;
    nodes_[static_cast<size_t>(node_id)].num_samples =
        static_cast<int>(indices.size());

    if (depth >= options_.max_depth ||
        static_cast<int>(indices.size()) < options_.min_samples_split) {
      return node_id;
    }

    std::vector<int> features;
    int nf = static_cast<int>(x_[0].size());
    if (options_.max_features > 0 && options_.max_features < nf) {
      features = rng_->SampleWithoutReplacement(nf, options_.max_features);
    } else {
      features.resize(static_cast<size_t>(nf));
      std::iota(features.begin(), features.end(), 0);
    }

    SplitResult best;
    for (int f : features) {
      BestSplitForFeature(x_, y_, indices, f, options_.min_samples_leaf,
                          &best);
    }
    if (!best.found) return node_id;

    std::vector<int> left_idx, right_idx;
    for (int i : indices) {
      if (x_[static_cast<size_t>(i)][static_cast<size_t>(best.feature)] <=
          best.threshold) {
        left_idx.push_back(i);
      } else {
        right_idx.push_back(i);
      }
    }
    if (left_idx.empty() || right_idx.empty()) return node_id;

    int left = Build(left_idx, depth + 1);
    int right = Build(right_idx, depth + 1);
    RegressionTree::Node& node = nodes_[static_cast<size_t>(node_id)];
    node.is_leaf = false;
    node.feature = best.feature;
    node.threshold = best.threshold;
    node.left = left;
    node.right = right;
    node.impurity_decrease = std::max(0.0, node_sse - best.score);
    return node_id;
  }

  TreeOptions options_;
  const std::vector<std::vector<double>>& x_;
  const std::vector<double>& y_;
  Rng* rng_;
  std::vector<RegressionTree::Node> nodes_;
};

// Prediction of a reference tree; same walk as RegressionTree::Predict.
inline double PredictNodes(const std::vector<RegressionTree::Node>& nodes,
                           const std::vector<double>& x) {
  int cur = 0;
  while (!nodes[static_cast<size_t>(cur)].is_leaf) {
    const RegressionTree::Node& n = nodes[static_cast<size_t>(cur)];
    cur = x[static_cast<size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return nodes[static_cast<size_t>(cur)].value;
}

}  // namespace sparktune::reference
