// Task similarity learning (paper §5.1). Ground-truth distance between two
// tasks is computed from their fitted surrogates: the fraction of discordant
// pairs when ranking a shared set of random configurations,
//     Dist(M^i, M^j) = (1 - KendallTau(M^i(D_rand), M^j(D_rand))) / 2,
// scaled to [0, 1]. A GBDT regressor M_reg (the LightGBM stand-in) is then
// trained to predict this distance from the two tasks' meta-features, so a
// brand-new task (with no surrogate yet) can be compared against history.
#pragma once

#include <memory>
#include <vector>

#include "common/result.h"
#include "forest/gbdt.h"
#include "model/surrogate.h"

namespace sparktune {

// Surrogate-ranking distance on a shared probe set of encoded
// configurations; result in [0, 1] (0 = identical ranking).
double SurrogateDistance(const Surrogate& a, const Surrogate& b,
                         const std::vector<std::vector<double>>& probes);

// The same distance from the two surrogates' predicted means over the
// probe set, so callers that keep those means skip the predictions.
double RankingDistance(const std::vector<double>& means_a,
                       const std::vector<double>& means_b);

struct SimilarityModelOptions {
  // Leaf minimums are small so the model stays usable when the knowledge
  // base holds only a few tasks (few labelled pairs).
  GbdtOptions gbdt = {.num_rounds = 150,
                      .learning_rate = 0.07,
                      .tree = {.max_depth = 4, .min_samples_leaf = 1,
                               .min_samples_split = 2, .max_features = -1},
                      .subsample = 1.0,
                      .seed = 29,
                      .early_stop_rounds = 0};
};

// M_reg: (meta_features_a, meta_features_b) -> distance in [0, 1].
// Features are symmetrized as [a, b, |a-b|]; both (a,b) and (b,a) orderings
// are included at training time.
class SimilarityModel {
 public:
  explicit SimilarityModel(SimilarityModelOptions options = {});

  // Train on labelled pairs. Each entry: meta features of both tasks and
  // the ground-truth surrogate distance.
  struct LabelledPair {
    std::vector<double> meta_a;
    std::vector<double> meta_b;
    double distance;
  };
  Status Train(const std::vector<LabelledPair>& pairs);

  // Predicted distance, clamped to [0, 1]. Symmetric by construction
  // (averages both orderings).
  double PredictDistance(const std::vector<double>& meta_a,
                         const std::vector<double>& meta_b) const;

  bool trained() const { return trained_; }

 private:
  static std::vector<double> PairFeatures(const std::vector<double>& a,
                                          const std::vector<double>& b);

  SimilarityModelOptions options_;
  GbdtRegressor gbdt_;
  bool trained_ = false;
};

}  // namespace sparktune
