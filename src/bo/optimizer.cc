#include "bo/optimizer.h"

#include <cmath>

namespace sparktune {

namespace {

AdvisorOptions BuildAdvisorOptions(const OptimizerOptions& options) {
  AdvisorOptions aopts = options.advisor;
  aopts.objective.beta = options.resource_fn ? options.beta : 1.0;
  aopts.objective.runtime_max = options.safety_bound;
  aopts.objective.resource_max = options.resource_bound;
  aopts.resource_fn = options.resource_fn;  // may be null -> constant 1
  aopts.seed = options.seed;
  // Generic problems carry no data-size context.
  aopts.datasize_aware = false;
  return aopts;
}

}  // namespace

Optimizer::Optimizer(const ConfigSpace* space, OptimizerOptions options)
    : space_(space),
      options_(std::move(options)),
      advisor_(space, BuildAdvisorOptions(options_)) {
  objective_ = advisor_.options().objective;
}

Configuration Optimizer::Suggest() { return advisor_.Suggest(); }

void Optimizer::Observe(const Configuration& config, double value) {
  Observation obs;
  obs.config = space_->Legalize(config);
  obs.iteration = ++iteration_;
  // A non-finite value means the evaluation blew up under this
  // configuration — a config-induced failure, so it is safety-label
  // eligible (infra faults never reach Observe; the watchdog owns those).
  obs.failure =
      std::isfinite(value) ? FailureKind::kNone : FailureKind::kOom;
  double runtime = value;
  if (obs.failed()) {
    // A failed evaluation must look *bad* to the value surrogate, not fast:
    // pin it above everything observed (or the safety bound when set).
    double worst = std::isfinite(options_.safety_bound)
                       ? options_.safety_bound
                       : 1.0;
    const RunHistory& h = advisor_.history();
    for (size_t i = 0; i < h.size(); ++i) {
      if (!h.failed(i)) worst = std::max(worst, h.runtime_sec(i));
    }
    runtime = worst * 2.0;
  }
  double resource =
      options_.resource_fn ? options_.resource_fn(obs.config) : 1.0;
  obs.runtime_sec = runtime;
  obs.resource_rate = resource;
  obs.objective =
      obs.failed() ? std::numeric_limits<double>::infinity()
                   : objective_.Value(runtime, resource);
  obs.feasible = !obs.failed() && objective_.Feasible(runtime, resource);
  advisor_.Observe(std::move(obs));
}

}  // namespace sparktune
