// FaultInjectingEvaluator: deterministic chaos at the evaluation boundary
// (DESIGN.md §7).
//
// Wraps any JobEvaluator and injects the infrastructure faults a production
// tuning service must survive: evaluator crashes, transient cluster errors,
// hung executions (killed by the watchdog and reported as timeout outcomes),
// and corrupted or truncated event logs. The fault for run index i is drawn
// from an RNG stream derived only from (seed, i), so the fault schedule is
// bit-identical at any thread count and replayable after a restart.
//
// Crash/transient faults return before touching the wrapped evaluator: the
// execution "never happened", the inner clock does not advance, and a retry
// of the same suggestion observes exactly the outcome a fault-free run would
// have. That property is what lets the service keep the advisor's view of
// the world identical to a fault-free run's.
#pragma once

#include <cstdint>

#include "tuner/evaluator.h"

namespace sparktune {

struct FaultInjectionOptions {
  uint64_t seed = 99;
  // Evaluator process dies before launching the job. No execution, kInfra.
  double crash_prob = 0.0;
  // Transient cluster/submission error (queue full, RM hiccup). No
  // execution, kInfra.
  double transient_error_prob = 0.0;
  // Job launches but wedges; the watchdog kills it after the runtime bound.
  // The execution happened, outcome is kTimeout (configuration-blamed,
  // exactly like a genuine straggler-induced hang).
  double hang_prob = 0.0;
  // Job completes but the event log comes back with garbage metrics.
  double corrupt_log_prob = 0.0;
  // Job completes but the event log is cut off (no stages survive).
  double truncate_log_prob = 0.0;
  // Reported runtime multiplier for a killed hang.
  double hang_runtime_factor = 10.0;
};

class FaultInjectingEvaluator final : public JobEvaluator {
 public:
  struct Counters {
    long long crashes = 0;
    long long transient_errors = 0;
    long long clean_runs = 0;
  };

  // `inner` must outlive this evaluator.
  FaultInjectingEvaluator(JobEvaluator* inner, FaultInjectionOptions options);

  Outcome Run(const Configuration& config) override;
  double ResourceRate(const Configuration& config) const override;
  double NextDataSizeHintGb() const override;
  double NextHours() const override;
  // Replays the fault schedule for the skipped indices so the inner clock
  // advances exactly as it did in the original run (crash/transient slots
  // consumed no inner execution).
  void SkipExecutions(int n) override;

  const Counters& counters() const { return counters_; }
  // Outer Run() calls so far == the fault-schedule cursor.
  long long runs() const { return runs_; }

 private:
  enum class Fault {
    kNone,
    kCrash,
    kTransient,
    kHang,
    kCorruptLog,
    kTruncateLog,
  };

  Fault DrawFault(long long index) const;

  JobEvaluator* inner_;
  FaultInjectionOptions options_;
  long long runs_ = 0;
  // lint:allow(write-only-member) the only observable of the drawn faults; tests assert on it
  Counters counters_;
};

}  // namespace sparktune
