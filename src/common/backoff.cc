#include "common/backoff.h"

#include <algorithm>

namespace sparktune {

int RetryPolicy::BackoffPeriods(int consecutive_failures) const {
  if (consecutive_failures <= 0) return 0;
  const long long cap = std::max(max_backoff_periods, 0);
  const long long base = std::max(base_backoff_periods, 0);
  if (base == 0 || cap == 0) return 0;
  // Clamp the exponent *before* shifting: `base << (k-1)` is undefined once
  // the shift reaches the operand width, and a long failure streak (or an
  // int-sized base) would get there. Any shift that can exceed the cap is
  // the cap; 62 keeps base << shift inside a non-negative long long.
  const int shift = consecutive_failures - 1;
  if (shift >= 62 || base > (cap >> std::min(shift, 61))) {
    return static_cast<int>(cap);
  }
  return static_cast<int>(std::min(base << shift, cap));
}

PeriodDecision DecidePeriod(RetryState* state) {
  if (state->backoff_remaining > 0) {
    --state->backoff_remaining;
    ++state->backoff_skips;
    return PeriodDecision::kSkipBackoff;
  }
  if (state->parked) {
    ++state->degraded_runs;
    if (--state->park_cooldown <= 0) {
      // Breaker closes after this degraded period; the streak restarts so
      // the next infra failure backs off from scratch.
      state->parked = false;
      state->park_cooldown = 0;
      state->consecutive_infra = 0;
    }
    return PeriodDecision::kRunDegraded;
  }
  return PeriodDecision::kRun;
}

void RecordPeriodOutcome(const RetryPolicy& policy, RetryState* state,
                         FailureKind kind) {
  if (kind != FailureKind::kInfra) {
    state->consecutive_infra = 0;
    return;
  }
  ++state->consecutive_infra;
  ++state->infra_failures;
  if (state->consecutive_infra >= policy.circuit_break_failures) {
    state->parked = true;
    state->park_cooldown = policy.park_periods;
    state->backoff_remaining = 0;
    ++state->park_events;
  } else {
    state->backoff_remaining =
        policy.BackoffPeriods(state->consecutive_infra);
  }
}

}  // namespace sparktune
