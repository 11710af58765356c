#include "service/health.h"

namespace sparktune {

bool ShardHealthMonitor::ShouldProbe(long long tick) const {
  if (policy_.heartbeat_every_ticks <= 1) return true;
  return tick % policy_.heartbeat_every_ticks == 0;
}

void ShardHealthMonitor::RecordSuccess() {
  consecutive_failures_ = 0;
  // A serving shard is healthy whatever we presumed — including a
  // quarantined one that came back on its own (e.g. a manual restart).
  state_ = ShardHealth::kHealthy;
  quarantine_until_ = 0;
}

void ShardHealthMonitor::RecordFailure() {
  // Failures advance the streak; pacing is restart-side.
  ++consecutive_failures_;
  if (state_ == ShardHealth::kQuarantined) return;
  if (consecutive_failures_ >= policy_.down_after) {
    state_ = ShardHealth::kDown;
  } else if (consecutive_failures_ >= policy_.suspect_after) {
    state_ = ShardHealth::kSuspect;
  }
}

void ShardHealthMonitor::RecordDeath() {
  if (consecutive_failures_ < policy_.down_after) {
    consecutive_failures_ = policy_.down_after;
  }
  if (state_ != ShardHealth::kQuarantined) state_ = ShardHealth::kDown;
}

void ShardHealthMonitor::RecordRestart(long long tick) {
  ++restarts_;
  recent_restart_ticks_.push_back(tick);
  restart_failures_ = 0;
  consecutive_failures_ = 0;
  next_restart_tick_ = 0;
  state_ = ShardHealth::kHealthy;
  quarantine_until_ = 0;
}

void ShardHealthMonitor::RecordRestartFailure(long long tick) {
  ++restart_failures_;
  next_restart_tick_ =
      tick + policy_.restart_backoff.BackoffPeriods(restart_failures_);
  if (state_ != ShardHealth::kQuarantined) state_ = ShardHealth::kDown;
}

void ShardHealthMonitor::PruneWindow(long long tick) {
  const long long horizon = tick - policy_.flap_window_ticks;
  while (!recent_restart_ticks_.empty() &&
         recent_restart_ticks_.front() <= horizon) {
    recent_restart_ticks_.pop_front();
  }
}

bool ShardHealthMonitor::ShouldAttemptRestart(long long tick) {
  if (state_ == ShardHealth::kQuarantined) {
    if (tick < quarantine_until_) return false;
    // Quarantine served: back to kDown with a clean slate.
    state_ = ShardHealth::kDown;
    recent_restart_ticks_.clear();
    restart_failures_ = 0;
    next_restart_tick_ = 0;
  }
  if (state_ != ShardHealth::kDown) return false;
  PruneWindow(tick);
  if (policy_.flap_max_restarts > 0 &&
      static_cast<int>(recent_restart_ticks_.size()) >=
          policy_.flap_max_restarts) {
    state_ = ShardHealth::kQuarantined;
    quarantine_until_ = tick + policy_.quarantine_ticks;
    ++quarantines_;
    return false;
  }
  return tick >= next_restart_tick_;
}

}  // namespace sparktune
