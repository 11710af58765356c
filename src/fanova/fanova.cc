#include "fanova/fanova.h"

#include <algorithm>
#include <cmath>

namespace sparktune {

namespace {

// Axis-aligned leaf cell within the unit cube.
struct LeafCell {
  std::vector<double> lo;
  std::vector<double> hi;
  double value = 0.0;
  double volume = 1.0;
};

void CollectLeaves(const RegressionTree& tree, int node_id,
                   std::vector<double>& lo, std::vector<double>& hi,
                   std::vector<LeafCell>* out) {
  const auto& node = tree.nodes()[static_cast<size_t>(node_id)];
  if (node.is_leaf) {
    LeafCell cell;
    cell.lo = lo;
    cell.hi = hi;
    cell.value = node.value;
    cell.volume = 1.0;
    for (size_t d = 0; d < lo.size(); ++d) {
      cell.volume *= std::max(0.0, hi[d] - lo[d]);
    }
    if (cell.volume > 0.0) out->push_back(std::move(cell));
    return;
  }
  size_t f = static_cast<size_t>(node.feature);
  double old_hi = hi[f], old_lo = lo[f];
  // Left: x[f] <= threshold.
  hi[f] = std::min(old_hi, node.threshold);
  if (hi[f] > lo[f]) CollectLeaves(tree, node.left, lo, hi, out);
  hi[f] = old_hi;
  // Right: x[f] > threshold.
  lo[f] = std::max(old_lo, node.threshold);
  if (hi[f] > lo[f]) CollectLeaves(tree, node.right, lo, hi, out);
  lo[f] = old_lo;
}

// Sorted unique interval boundaries for dimension d across leaves.
std::vector<double> BoundariesFor(const std::vector<LeafCell>& leaves,
                                  size_t d) {
  std::vector<double> b = {0.0, 1.0};
  for (const auto& leaf : leaves) {
    b.push_back(leaf.lo[d]);
    b.push_back(leaf.hi[d]);
  }
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end(),
                      [](double a, double c) { return std::fabs(a - c) < 1e-12; }),
          b.end());
  return b;
}

struct TreeDecomposition {
  double mean = 0.0;
  double variance = 0.0;
  std::vector<double> main_var;          // V_d
  std::vector<std::vector<double>> pair_var;  // V_{de} (interaction only)
};

TreeDecomposition DecomposeTree(const RegressionTree& tree, size_t dims,
                                bool pairwise) {
  TreeDecomposition out;
  out.main_var.assign(dims, 0.0);
  if (pairwise) {
    out.pair_var.assign(dims, std::vector<double>(dims, 0.0));
  }

  std::vector<double> lo(dims, 0.0), hi(dims, 1.0);
  std::vector<LeafCell> leaves;
  CollectLeaves(tree, tree.root(), lo, hi, &leaves);
  if (leaves.empty()) return out;

  double mu = 0.0, second = 0.0;
  for (const auto& leaf : leaves) {
    mu += leaf.volume * leaf.value;
    second += leaf.volume * leaf.value * leaf.value;
  }
  out.mean = mu;
  out.variance = std::max(0.0, second - mu * mu);
  if (out.variance <= 0.0) return out;

  // Main effects.
  std::vector<std::vector<double>> bounds(dims);
  for (size_t d = 0; d < dims; ++d) {
    bounds[d] = BoundariesFor(leaves, d);
    const auto& b = bounds[d];
    double var_acc = 0.0;
    for (size_t i = 0; i + 1 < b.size(); ++i) {
      double mid = 0.5 * (b[i] + b[i + 1]);
      double len = b[i + 1] - b[i];
      // Marginal prediction at x_d = mid: integrate out other dims.
      double a = 0.0;
      for (const auto& leaf : leaves) {
        if (mid >= leaf.lo[d] && mid < leaf.hi[d]) {
          double vol_rest = leaf.volume / (leaf.hi[d] - leaf.lo[d]);
          a += vol_rest * leaf.value;
        }
      }
      var_acc += len * (a - mu) * (a - mu);
    }
    out.main_var[d] = var_acc;
  }

  if (!pairwise) return out;

  for (size_t d = 0; d + 1 < dims; ++d) {
    for (size_t e = d + 1; e < dims; ++e) {
      const auto& bd = bounds[d];
      const auto& be = bounds[e];
      double var_acc = 0.0;
      for (size_t i = 0; i + 1 < bd.size(); ++i) {
        double mid_d = 0.5 * (bd[i] + bd[i + 1]);
        double len_d = bd[i + 1] - bd[i];
        for (size_t j = 0; j + 1 < be.size(); ++j) {
          double mid_e = 0.5 * (be[j] + be[j + 1]);
          double len_e = be[j + 1] - be[j];
          double a = 0.0;
          for (const auto& leaf : leaves) {
            if (mid_d >= leaf.lo[d] && mid_d < leaf.hi[d] &&
                mid_e >= leaf.lo[e] && mid_e < leaf.hi[e]) {
              double vol_rest = leaf.volume /
                                ((leaf.hi[d] - leaf.lo[d]) *
                                 (leaf.hi[e] - leaf.lo[e]));
              a += vol_rest * leaf.value;
            }
          }
          var_acc += len_d * len_e * (a - mu) * (a - mu);
        }
      }
      // Subtract the contained main effects (functional ANOVA).
      double inter =
          std::max(0.0, var_acc - out.main_var[d] - out.main_var[e]);
      out.pair_var[d][e] = inter;
      out.pair_var[e][d] = inter;
    }
  }
  return out;
}

}  // namespace

std::vector<double> FanovaResult::CombinedImportance() const {
  std::vector<double> combined = main_effect;
  if (interaction.rows() == combined.size()) {
    for (size_t d = 0; d < combined.size(); ++d) {
      for (size_t e = 0; e < combined.size(); ++e) {
        combined[d] += 0.5 * interaction(d, e);
      }
    }
  }
  return combined;
}

Result<FanovaResult> Fanova::Analyze(const std::vector<std::vector<double>>& x,
                                     const std::vector<double>& y,
                                     const FanovaOptions& options) {
  if (x.size() < 4 || x.size() != y.size()) {
    return Status::InvalidArgument("fANOVA needs >= 4 matching observations");
  }
  size_t dims = x[0].size();
  for (const auto& row : x) {
    for (double v : row) {
      if (v < -1e-9 || v > 1.0 + 1e-9) {
        return Status::InvalidArgument("fANOVA inputs must be in [0,1]");
      }
    }
  }

  RandomForest forest(options.forest);
  SPARKTUNE_RETURN_IF_ERROR(forest.Fit(x, y));

  FanovaResult result;
  result.main_effect.assign(dims, 0.0);
  if (options.compute_pairwise) {
    result.interaction = Matrix(dims, dims, 0.0);
  }

  int counted = 0;
  for (const RegressionTree& tree : forest.trees()) {
    const TreeDecomposition dec =
        DecomposeTree(tree, dims, options.compute_pairwise);
    if (dec.variance <= 0.0) continue;
    ++counted;
    result.total_variance += dec.variance;
    for (size_t d = 0; d < dims; ++d) {
      result.main_effect[d] += dec.main_var[d] / dec.variance;
    }
    if (options.compute_pairwise) {
      for (size_t d = 0; d < dims; ++d) {
        for (size_t e = 0; e < dims; ++e) {
          result.interaction(d, e) += dec.pair_var[d][e] / dec.variance;
        }
      }
    }
  }
  if (counted > 0) {
    double inv = 1.0 / counted;
    result.total_variance *= inv;
    for (auto& v : result.main_effect) v *= inv;
    if (options.compute_pairwise) {
      for (size_t d = 0; d < dims; ++d) {
        for (size_t e = 0; e < dims; ++e) result.interaction(d, e) *= inv;
      }
    }
  }
  return result;
}

}  // namespace sparktune
