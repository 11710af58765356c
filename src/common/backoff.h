// Retry policy, exponential backoff, and circuit breaker for the service
// watchdog (DESIGN.md §7).
//
// Time is counted in *simulated periods*: one ExecutePeriodic call on a task
// is one period. All clocks here are integer period counts, so the watchdog
// schedule is deterministic and independent of wall time or thread count.
#pragma once

#include "common/failure.h"

namespace sparktune {

struct RetryPolicy {
  // Max times the tuner re-runs the same pending suggestion after infra
  // failures (counting the first attempt) before abandoning it.
  int max_attempts = 3;
  // Backoff after the k-th consecutive infra failure is
  // min(base << (k-1), max) skipped periods.
  int base_backoff_periods = 1;
  int max_backoff_periods = 8;
  // Consecutive infra failures that open the circuit breaker.
  int circuit_break_failures = 4;
  // Periods a parked (circuit-open) task runs its incumbent configuration
  // before the breaker closes again.
  int park_periods = 6;

  int BackoffPeriods(int consecutive_failures) const;
};

// Per-task watchdog state. Checkpointed with the task so a restart resumes
// mid-backoff / mid-park exactly where it left off.
struct RetryState {
  int consecutive_infra = 0;   // current streak feeding the breaker
  int backoff_remaining = 0;   // periods left to skip
  bool parked = false;         // circuit breaker open
  int park_cooldown = 0;       // degraded periods left before unpark
  // Lifetime counters (diagnostics; also checkpointed).
  long long infra_failures = 0;
  long long backoff_skips = 0;
  long long park_events = 0;
  long long degraded_runs = 0;
};

// What the watchdog does with a task this period.
enum class PeriodDecision {
  kRun,          // normal tuner step
  kSkipBackoff,  // backing off: no execution at all this period
  kRunDegraded,  // parked: execute the incumbent/baseline config only
};

// Decides the current period's action and advances the backoff/park clocks.
PeriodDecision DecidePeriod(RetryState* state);

// Records the failure kind of a *normal* executed period (kRun decisions
// only): an infra failure extends the streak and schedules backoff or opens
// the breaker; anything else closes the streak.
void RecordPeriodOutcome(const RetryPolicy& policy, RetryState* state,
                         FailureKind kind);

}  // namespace sparktune
