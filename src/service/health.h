// Heartbeat-driven shard liveness (DESIGN.md §9): a per-shard state
// machine — healthy → suspect → down → quarantined — advanced only by
// integer tick counts and explicit events (probe/call failures, confirmed
// process death, restart outcomes), so every transition is deterministic
// and independent of wall time.
//
// Auto-restart pacing rides the same RetryPolicy::BackoffPeriods curve the
// watchdog and reconnect layers use: after the k-th consecutive failed
// restart the next attempt waits BackoffPeriods(k) ticks. Flap detection
// parks a shard that restarted `flap_max_restarts` times within
// `flap_window_ticks`: it enters kQuarantined for `quarantine_ticks`
// (a strictly longer pause than any single backoff step is expected to
// be), after which the window clears and restarts resume.
#pragma once

#include <deque>

#include "common/backoff.h"

namespace sparktune {

enum class ShardHealth {
  kHealthy = 0,
  kSuspect = 1,      // failures seen, not yet presumed dead
  kDown = 2,         // presumed/confirmed dead; restart-eligible
  kQuarantined = 3,  // flapping: restarts parked until the window expires
};

struct HealthPolicy {
  // Auto-restart of down shards inside ProcessSupervisor::Tick. Off by
  // default so the manual KillShard/RestartShard chaos workflow (and every
  // pre-existing test) keeps its exact semantics; the self-healing soak
  // and the tools turn it on.
  bool auto_restart = false;
  // Consecutive failures that move kHealthy → kSuspect → kDown.
  int suspect_after = 1;
  int down_after = 2;
  // Tick-domain pacing between restart attempts after failures.
  RetryPolicy restart_backoff{/*max_attempts=*/1 << 20,
                              /*base_backoff_periods=*/1,
                              /*max_backoff_periods=*/16,
                              /*circuit_break_failures=*/4,
                              /*park_periods=*/6};
  // Flap detection: this many successful restarts within the window parks
  // the shard in kQuarantined for quarantine_ticks.
  int flap_max_restarts = 3;
  int flap_window_ticks = 32;
  int quarantine_ticks = 16;
  // Ping-probe cadence: probe on ticks where tick % cadence == 0 (<=1
  // probes every tick).
  int heartbeat_every_ticks = 1;
};

class ShardHealthMonitor {
 public:
  ShardHealthMonitor() = default;
  explicit ShardHealthMonitor(HealthPolicy policy) : policy_(policy) {}

  ShardHealth state() const { return state_; }
  int consecutive_failures() const { return consecutive_failures_; }
  int restart_failures() const { return restart_failures_; }
  long long restarts() const { return restarts_; }
  long long quarantines() const { return quarantines_; }
  long long quarantined_until_tick() const { return quarantine_until_; }

  // True on ticks where the supervisor should spend a ping probe.
  bool ShouldProbe(long long tick) const;

  // A successful exchange (probe or call): the shard is demonstrably
  // serving, so any suspect/down presumption clears.
  void RecordSuccess();
  // A probe or call failure.
  void RecordFailure();
  // The worker process is confirmed gone (reaped or SIGKILLed).
  void RecordDeath();
  // A successful respawn at `tick` (manual or automatic). Feeds the flap
  // window and resets the failure streaks.
  void RecordRestart(long long tick);
  // A failed respawn attempt: schedules the next one on the backoff curve.
  void RecordRestartFailure(long long tick);

  // True when a kDown shard should attempt a restart this tick. Advances
  // the quarantine state machine: entering when the flap window overflows,
  // leaving (back to kDown, window cleared) once quarantine_ticks elapse.
  bool ShouldAttemptRestart(long long tick);

 private:
  void PruneWindow(long long tick);

  HealthPolicy policy_;
  ShardHealth state_ = ShardHealth::kHealthy;
  int consecutive_failures_ = 0;
  int restart_failures_ = 0;
  long long next_restart_tick_ = 0;
  long long quarantine_until_ = 0;
  long long restarts_ = 0;
  long long quarantines_ = 0;
  std::deque<long long> recent_restart_ticks_;
};

}  // namespace sparktune
