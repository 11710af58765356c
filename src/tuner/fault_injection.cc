#include "tuner/fault_injection.h"

#include <cassert>
#include <limits>

#include "common/rng.h"

namespace sparktune {

FaultInjectingEvaluator::FaultInjectingEvaluator(JobEvaluator* inner,
                                                 FaultInjectionOptions options)
    : inner_(inner), options_(options) {
  assert(inner_ != nullptr);
}

FaultInjectingEvaluator::Fault FaultInjectingEvaluator::DrawFault(
    long long index) const {
  // Per-index derived stream (same idiom as SimulatorEvaluator's run seed):
  // the draw depends only on (seed, index), never on who called first.
  Rng rng(options_.seed * 0x9E3779B97F4A7C15ULL +
          static_cast<uint64_t>(index));
  double u = rng.Uniform();
  double edge = options_.crash_prob;
  if (u < edge) return Fault::kCrash;
  edge += options_.transient_error_prob;
  if (u < edge) return Fault::kTransient;
  edge += options_.hang_prob;
  if (u < edge) return Fault::kHang;
  edge += options_.corrupt_log_prob;
  if (u < edge) return Fault::kCorruptLog;
  edge += options_.truncate_log_prob;
  if (u < edge) return Fault::kTruncateLog;
  return Fault::kNone;
}

JobEvaluator::Outcome FaultInjectingEvaluator::Run(
    const Configuration& config) {
  const long long index = runs_++;
  const Fault fault = DrawFault(index);
  switch (fault) {
    case Fault::kCrash:
    case Fault::kTransient: {
      // The execution never happened: the inner clock must not advance, so
      // a later retry of this suggestion sees the exact outcome the
      // fault-free schedule would have produced.
      if (fault == Fault::kCrash) {
        ++counters_.crashes;
      } else {
        ++counters_.transient_errors;
      }
      Outcome out;
      out.failure = FailureKind::kInfra;
      out.runtime_sec = 0.0;
      out.resource_rate = 0.0;
      out.data_size_gb = -1.0;
      out.hours = inner_->NextHours();
      return out;
    }
    case Fault::kHang: {
      Outcome out = inner_->Run(config);
      out.failure = FailureKind::kTimeout;
      out.runtime_sec *= options_.hang_runtime_factor;
      // The watchdog killed the container; nothing useful was flushed.
      out.event_log.stages.clear();
      return out;
    }
    case Fault::kCorruptLog: {
      Outcome out = inner_->Run(config);
      // The run itself succeeded; only the log is garbage. Deterministic
      // corruption: poison the stage metrics that EventLogLooksSane vets.
      for (auto& stage : out.event_log.stages) {
        stage.duration_sec = std::numeric_limits<double>::quiet_NaN();
        stage.input_mb = -stage.input_mb - 1.0;
      }
      return out;
    }
    case Fault::kTruncateLog: {
      Outcome out = inner_->Run(config);
      out.event_log.stages.clear();
      return out;
    }
    case Fault::kNone:
      break;
  }
  ++counters_.clean_runs;
  return inner_->Run(config);
}

double FaultInjectingEvaluator::ResourceRate(const Configuration& config)
    const {
  return inner_->ResourceRate(config);
}

double FaultInjectingEvaluator::NextDataSizeHintGb() const {
  return inner_->NextDataSizeHintGb();
}

double FaultInjectingEvaluator::NextHours() const {
  return inner_->NextHours();
}

void FaultInjectingEvaluator::SkipExecutions(int n) {
  for (int i = 0; i < n; ++i) {
    const long long index = runs_++;
    Fault f = DrawFault(index);
    // Crash/transient slots never reached the inner evaluator; every other
    // slot consumed exactly one inner execution.
    if (f != Fault::kCrash && f != Fault::kTransient) {
      inner_->SkipExecutions(1);
    }
  }
}

}  // namespace sparktune
