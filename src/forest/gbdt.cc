#include "forest/gbdt.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/stats.h"

namespace sparktune {

GbdtRegressor::GbdtRegressor(GbdtOptions options) : options_(options) {}

Status GbdtRegressor::Fit(const std::vector<std::vector<double>>& x,
                          const std::vector<double>& y) {
  if (x.empty() || x.size() != y.size()) {
    return Status::InvalidArgument("gbdt needs matching non-empty X and y");
  }
  SPARKTUNE_ASSIGN_OR_RETURN(columns, SortedColumns::Build(x));
  trees_.clear();
  base_ = Mean(y);
  std::vector<double> pred(y.size(), base_);
  std::vector<double> residual(y.size());
  Rng rng(options_.seed);

  double best_rmse = std::numeric_limits<double>::infinity();
  int stall = 0;
  int n = static_cast<int>(x.size());
  int sub_n = std::max(2, static_cast<int>(options_.subsample * n));

  for (int round = 0; round < options_.num_rounds; ++round) {
    for (size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - pred[i];
    Rng round_rng = rng.Fork();
    std::vector<int> sample;
    if (sub_n < n) {
      sample = round_rng.SampleWithoutReplacement(n, sub_n);
    }
    RegressionTree tree(options_.tree);
    SPARKTUNE_RETURN_IF_ERROR(
        tree.Fit(columns, residual, sample, &round_rng));
    for (size_t i = 0; i < y.size(); ++i) {
      pred[i] += options_.learning_rate * tree.Predict(x[i]);
    }
    trees_.push_back(std::move(tree));

    if (options_.early_stop_rounds > 0) {
      double sse = 0.0;
      for (size_t i = 0; i < y.size(); ++i) {
        double e = y[i] - pred[i];
        sse += e * e;
      }
      double rmse = std::sqrt(sse / static_cast<double>(y.size()));
      if (rmse < best_rmse - 1e-9) {
        best_rmse = rmse;
        stall = 0;
      } else if (++stall >= options_.early_stop_rounds) {
        break;
      }
    }
  }
  return Status::OK();
}

double GbdtRegressor::Predict(const std::vector<double>& x) const {
  double out = base_;
  for (const auto& tree : trees_) {
    out += options_.learning_rate * tree.Predict(x);
  }
  return out;
}

}  // namespace sparktune
