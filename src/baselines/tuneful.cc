#include "baselines/tuneful.h"

#include <cmath>
#include <numeric>

#include "bo/acq_optimizer.h"
#include "bo/acquisition.h"
#include "forest/random_forest.h"
#include "model/features.h"
#include "model/gp.h"
#include "space/sobol.h"

namespace sparktune {

RunHistory Tuneful::Tune(const ConfigSpace& space, JobEvaluator* evaluator,
                         const TuningObjective& objective, int budget,
                         uint64_t seed) {
  Rng rng(seed);
  RunHistory history;
  QuasiRandomSampler init(static_cast<int>(space.size()), seed ^ 0x7713);
  AcquisitionOptimizer acq_opt;

  auto free_params = [&](int target) {
    std::vector<int> all(space.size());
    std::iota(all.begin(), all.end(), 0);
    if (target >= static_cast<int>(space.size()) ||
        history.size() < 4) {
      return all;
    }
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (const auto& o : history.observations()) {
      x.push_back(space.ToUnit(o.config));
      y.push_back(o.objective);
    }
    ForestOptions fopts;
    fopts.num_trees = 24;
    fopts.seed = seed ^ 0x51u;
    RandomForest forest(fopts);
    if (!forest.Fit(x, y).ok()) return all;
    std::vector<double> imp = forest.FeatureImportance();
    std::stable_sort(all.begin(), all.end(), [&](int a, int b) {
      return imp[static_cast<size_t>(a)] > imp[static_cast<size_t>(b)];
    });
    all.resize(static_cast<size_t>(target));
    return all;
  };

  for (int i = 0; i < budget; ++i) {
    Configuration next;
    if (static_cast<int>(history.size()) < options_.init_samples) {
      next = space.FromUnit(init.Next());
    } else {
      std::vector<std::vector<double>> x;
      std::vector<double> y;
      for (const auto& o : history.observations()) {
        x.push_back(space.ToUnit(o.config));
        // Log targets: standard practice for positive multiplicative costs.
        y.push_back(std::log(std::max(o.objective, 1e-9)));
      }
      GaussianProcess gp(BuildFeatureSchema(space, 0));
      if (gp.Fit(x, y).ok()) {
        int target = static_cast<int>(space.size());
        if (static_cast<int>(history.size()) >= options_.stage2_at) {
          target = options_.stage2_params;
        } else if (static_cast<int>(history.size()) >= options_.stage1_at) {
          target = options_.stage1_params;
        }
        int best = history.BestFeasibleIndex();
        Configuration base = best >= 0
            ? history.config(static_cast<size_t>(best))
            : space.Default();
        Subspace sub(&space, free_params(target), base);
        double incumbent = history.BestObjective();
        if (!std::isfinite(incumbent)) {
          incumbent = history.at(0).objective;
          for (const auto& o : history.observations()) {
            incumbent = std::min(incumbent, o.objective);
          }
        }
        incumbent = std::log(std::max(incumbent, 1e-9));
        EicScorerOptions scoring;
        scoring.objective = &gp;
        scoring.incumbent = incumbent;
        AcqOptResult res = acq_opt.Maximize(
            sub, EicScorer(SubspaceEncoder(sub, {}), scoring), &history,
            &rng);
        next = res.config;
      } else {
        next = space.Sample(&rng);
      }
    }
    history.Add(EvaluateConfig(space, evaluator, objective, next, i));
  }
  return history;
}

}  // namespace sparktune
