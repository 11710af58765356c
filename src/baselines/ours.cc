#include "baselines/ours.h"

#include "sparksim/spark_conf.h"

namespace sparktune {

RunHistory OursMethod::Tune(const ConfigSpace& space, JobEvaluator* evaluator,
                            const TuningObjective& objective, int budget,
                            uint64_t seed) {
  AdvisorOptions opts = options_.advisor;
  opts.objective = objective;
  opts.seed = seed;
  if (opts.expert_ranking.empty()) {
    opts.expert_ranking = ExpertParameterRanking();
  }
  if (!opts.resource_fn) {
    opts.resource_fn = [evaluator](const Configuration& c) {
      return evaluator->ResourceRate(c);
    };
  }

  Advisor advisor(&space, opts);
  if (!options_.warm_start.empty()) {
    advisor.SetWarmStartConfigs(options_.warm_start);
  }
  if (options_.surrogate_factory) {
    advisor.SetObjectiveSurrogateFactory(options_.surrogate_factory);
  }

  for (int i = 0; i < budget; ++i) {
    Configuration c = advisor.Suggest(evaluator->NextDataSizeHintGb(),
                                      evaluator->NextHours());
    Observation obs = EvaluateConfig(space, evaluator, objective, c, i);
    advisor.Observe(obs);
  }
  return advisor.history();
}

}  // namespace sparktune
