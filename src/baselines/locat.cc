#include "baselines/locat.h"

#include <cmath>
#include <numeric>

#include "bo/acq_optimizer.h"
#include "bo/acquisition.h"
#include "common/stats.h"
#include "model/features.h"
#include "model/gp.h"
#include "space/sobol.h"

namespace sparktune {

RunHistory Locat::Tune(const ConfigSpace& space, JobEvaluator* evaluator,
                       const TuningObjective& objective, int budget,
                       uint64_t seed) {
  Rng rng(seed);
  RunHistory history;
  QuasiRandomSampler init(static_cast<int>(space.size()), seed ^ 0x10CA7);
  AcquisitionOptimizer acq_opt;
  const double ds_ref = 1024.0;

  // QCSA: rank parameters by |Spearman| between parameter value and
  // objective across the history.
  auto sensitive_params = [&](int keep) {
    std::vector<int> all(space.size());
    std::iota(all.begin(), all.end(), 0);
    if (static_cast<int>(history.size()) < options_.qcsa_at ||
        keep >= static_cast<int>(space.size())) {
      return all;
    }
    std::vector<double> obj;
    for (const auto& o : history.observations()) obj.push_back(o.objective);
    std::vector<double> score(space.size(), 0.0);
    for (size_t p = 0; p < space.size(); ++p) {
      std::vector<double> vals;
      for (const auto& o : history.observations()) {
        vals.push_back(space.param(p).ToUnit(o.config[p]));
      }
      score[p] = std::fabs(SpearmanRho(vals, obj));
    }
    std::stable_sort(all.begin(), all.end(), [&](int a, int b) {
      return score[static_cast<size_t>(a)] > score[static_cast<size_t>(b)];
    });
    all.resize(static_cast<size_t>(keep));
    return all;
  };

  auto encode = [&](const Configuration& c, double ds) {
    std::vector<double> f = space.ToUnit(c);
    f.push_back(NormalizeDataSize(std::max(0.0, ds), ds_ref));
    return f;
  };

  for (int i = 0; i < budget; ++i) {
    Configuration next;
    double hint = evaluator->NextDataSizeHintGb();
    if (static_cast<int>(history.size()) < options_.init_samples) {
      next = space.FromUnit(init.Next());
    } else {
      std::vector<std::vector<double>> x;
      std::vector<double> y;
      for (const auto& o : history.observations()) {
        x.push_back(encode(o.config, o.data_size_gb));
        // Log targets: standard practice for positive multiplicative costs.
        y.push_back(std::log(std::max(o.objective, 1e-9)));
      }
      GaussianProcess gp(BuildFeatureSchema(space, 1));
      if (gp.Fit(x, y).ok()) {
        int best = history.BestFeasibleIndex();
        Configuration base = best >= 0
            ? history.config(static_cast<size_t>(best))
            : space.Default();
        Subspace sub(&space, sensitive_params(options_.keep_params), base);
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
        const std::vector<double> context = {
            NormalizeDataSize(std::max(0.0, hint), ds_ref)};
        AcqOptResult res = acq_opt.Maximize(
            sub, EicScorer(SubspaceEncoder(sub, context), scoring), &history,
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
