// "Ours": the paper's full framework (safe EIC + adaptive sub-space + AGD,
// optionally meta-learning warm start / ensemble) packaged behind the
// TuningMethod interface for head-to-head comparisons.
#pragma once

#include "baselines/tuning_method.h"
#include "bo/advisor.h"

namespace sparktune {

struct OursOptions {
  AdvisorOptions advisor;  // objective/constraints are overwritten per Tune
  // Optional meta hooks applied to each run.
  std::vector<Configuration> warm_start;
  SurrogateFactory surrogate_factory;
};

class OursMethod final : public TuningMethod {
 public:
  explicit OursMethod(OursOptions options = {},
                      std::string label = "Ours")
      : options_(std::move(options)), label_(std::move(label)) {}

  std::string name() const override { return label_; }

  RunHistory Tune(const ConfigSpace& space, JobEvaluator* evaluator,
                  const TuningObjective& objective, int budget,
                  uint64_t seed) override;

 private:
  OursOptions options_;
  std::string label_;
};

}  // namespace sparktune
