// fANOVA parameter importance (paper §4.1, Hutter et al. 2014): fit a
// random forest on (unit-cube config, performance) observations, then
// decompose each tree's prediction variance into per-parameter main effects
// and pairwise interaction effects via exact tree marginals under the
// uniform distribution over the unit cube.
#pragma once

#include "common/result.h"
#include "forest/random_forest.h"
#include "linalg/matrix.h"

namespace sparktune {

struct FanovaOptions {
  ForestOptions forest = {.num_trees = 24,
                          .tree = {.max_depth = 10, .min_samples_leaf = 2,
                                   .min_samples_split = 4,
                                   .max_features = -1},
                          .feature_fraction = 0.8,
                          .bootstrap_fraction = 1.0,
                          .seed = 41};
  bool compute_pairwise = true;
};

struct FanovaResult {
  // Fraction of prediction variance explained by each parameter's main
  // effect, averaged over trees. Sums to <= 1.
  std::vector<double> main_effect;
  // Pairwise interaction fractions (symmetric, zero diagonal); empty when
  // compute_pairwise is false.
  Matrix interaction;
  // Mean total variance across trees (0 when the forest is constant).
  double total_variance = 0.0;

  // Combined importance used for ranking: main effect plus half of every
  // interaction the parameter participates in.
  std::vector<double> CombinedImportance() const;
};

class Fanova {
 public:
  // `x` rows must lie in the unit cube. Requires >= 4 observations.
  static Result<FanovaResult> Analyze(const std::vector<std::vector<double>>& x,
                                      const std::vector<double>& y,
                                      const FanovaOptions& options = {});
};

}  // namespace sparktune
