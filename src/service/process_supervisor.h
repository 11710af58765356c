// ProcessSupervisor (DESIGN.md §7, §9): the control plane of the sharded
// tuning service. It fork/execs one sparktune_shardd worker per shard,
// speaks the framed protocol (net/) to each over a Unix-domain socket, and
// drives the global periodic tick over the wire — pipelined, one kExecute
// per live shard per tick.
//
// Placement is *static* rendezvous over all shard indices (dead or alive):
// a task's home shard never moves. When its shard is down the task parks —
// its tick slots come back as typed kUnavailable within the call deadline,
// never a hang — until RestartShard respawns the worker, which restores
// each task from its newest intact checkpoint generation and replays the
// gap up to the control plane's acked period count. Because all task state
// is deterministic in (task seed, period index), the post-recovery
// trajectory is bit-identical to an undisturbed run.
//
// Crash consistency: a worker can execute a period, auto-checkpoint, and
// die before its response is read — leaving its on-disk state AHEAD of the
// control plane's acked count. kExecute responses therefore carry per-task
// post-execution period clocks which the control plane adopts as
// authoritative, and recovery never rewinds a checkpoint: a restored clock
// past the replay target is adopted and counted in stats().lost_results.
#pragma once

#include <sys/types.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/client.h"
#include "service/health.h"
#include "service/tuning_service.h"
#include "service/wire.h"

namespace sparktune {

struct ProcessSupervisorOptions {
  // Worker binary (tools/sparktune_shardd) and the directory that holds
  // the per-shard socket files (shard-<i>.sock).
  std::string shardd_path;
  std::string socket_dir;
  int num_shards = 2;
  // Shared per-shard service configuration; all workers see the same
  // repository_dir (per-task files are single-writer, so they never
  // conflict). Empty repository_dir disables recovery: a restarted shard
  // replays every task from period zero.
  ServiceConfig service;
  // Per-connection deadlines. `call_timeout_ms` bounds one full exchange
  // (a whole shard batch executes within it); a breach marks the worker
  // down and parks its tasks — the tick never hangs.
  int connect_timeout_ms = 1000;
  int call_timeout_ms = 30000;
  // Reconnect schedule after spawn/restart: attempt k waits
  // RetryPolicy::BackoffPeriods(k-1) * backoff_unit_ms (net/client.h).
  // The default policy stretches to 8 attempts so a fresh fork/exec has
  // ~2.5 s to reach its listener.
  RetryPolicy reconnect{/*max_attempts=*/8, /*base_backoff_periods=*/1,
                        /*max_backoff_periods=*/64,
                        /*circuit_break_failures=*/4, /*park_periods=*/6};
  int backoff_unit_ms = 20;
  // Deterministic wire chaos (net/chaos.h): on when chaos_seed != 0 and
  // chaos_prob > 0. Then every request write (supervisor side) and every
  // response write (worker side, via --chaos_seed) draws faults from the
  // (seed, shard, direction, exchange index) schedule. Each freshly
  // spawned channel gets chaos_arm_exchanges exempt exchanges so
  // configure/recovery traffic on a new incarnation can land.
  uint64_t chaos_seed = 0;
  double chaos_prob = 0.0;
  int chaos_arm_exchanges = 16;
  // Heartbeat liveness + auto-restart policy (service/health.h).
  // health.auto_restart=false preserves manual-restart-only semantics.
  HealthPolicy health;
  // Supervisor manifest path; empty derives
  // "<socket_dir>/supervisor.manifest". The manifest is what Recover()
  // reads after a supervisor crash.
  std::string manifest_path;
};

struct ProcessSupervisorStats {
  long long ticks = 0;
  long long kills = 0;              // SIGKILLs delivered via KillShard
  long long restarts = 0;           // successful RestartShard respawns
  long long restored_tasks = 0;     // recoveries resumed from a checkpoint
  long long fresh_replays = 0;      // recoveries replayed from period zero
  long long replayed_periods = 0;   // periods re-executed worker-side
  long long parked_slots = 0;       // kUnavailable slots for down shards
  long long lost_results = 0;       // periods a dead worker computed but
                                    // never delivered (clock ran ahead)
  long long worker_failures = 0;    // transport failures marking a worker
                                    // down outside KillShard
  long long probes = 0;             // heartbeat pings spent
  long long probe_failures = 0;     // probes that failed or were fenced
  long long auto_restarts = 0;      // health-monitor-driven respawns
  long long recoveries = 0;         // successful Recover() runs
  long long adopted_workers = 0;    // live workers re-adopted by Recover()
  long long adopted_tasks = 0;      // worker-known tasks missing from the
                                    // manifest, adopted on recovery
  long long fenced_workers = 0;     // stale incarnations killed/fenced
  long long manifest_failures = 0;  // best-effort manifest writes that failed
};

class ProcessSupervisor {
 public:
  explicit ProcessSupervisor(ProcessSupervisorOptions options);
  // Reaps every child: graceful Shutdown() first, SIGKILL stragglers.
  ~ProcessSupervisor();
  ProcessSupervisor(const ProcessSupervisor&) = delete;
  ProcessSupervisor& operator=(const ProcessSupervisor&) = delete;

  // Spawn + connect + configure every worker. Idempotent per live worker.
  Status Start();

  // Register a periodic task fleet-wide on its static rendezvous shard.
  // The spec is retained for recovery respawns. Fails when the home shard
  // is down (registration is not parked — recovery re-registers).
  Status RegisterTask(const std::string& id, const SimTaskSpec& spec);

  // One global tick: kExecute pipelined to every live shard (all batches
  // written before any response is read), slots stitched back into task
  // registration order. Tasks on down shards get kUnavailable slots; a
  // worker that fails mid-tick is marked down and its slots degrade the
  // same way. Worker-reported period clocks are adopted per task.
  std::vector<Result<Observation>> Tick();

  // Chaos: SIGKILL the worker process (no warning, no flush) and reap it.
  // Its tasks park until RestartShard (or the health monitor's
  // auto-restart). The last live shard can be killed — parking degrades
  // every slot but nothing hangs.
  Status KillShard(int shard);
  // Respawn the worker on the same socket at epoch+1, reconfigure it,
  // reload the repository, then re-register + restore + replay every
  // parked task of this shard up to its acked period count. All-or-
  // nothing: any failure after the spawn kills the fresh child again so
  // the shard returns to cleanly-dead (a half-recovered worker running
  // fresh clocks against acked history would fork the trajectory).
  Status RestartShard(int shard);

  // Simulate supervisor death: drop every connection and forget every
  // child WITHOUT signaling or reaping — workers keep running as orphans,
  // exactly as if this process had been SIGKILLed. A fresh supervisor
  // (same options) must Recover() from the manifest to take over.
  void Abandon();
  // Take over a crashed supervisor's fleet from its manifest: rebuild the
  // placement map and acked clocks, re-adopt still-running workers via a
  // ping + epoch handshake (reconciling worker-reported period clocks via
  // kTaskStatus — never rewinding), and fence + respawn the rest at
  // epoch+1. kNotFound when no manifest exists (call Start() instead);
  // kDataLoss when the manifest is torn.
  Status Recover();

  // Routed to every live shard; aggregated.
  CheckpointReport CheckpointAll();
  HarvestReport HarvestDirty(int max_tasks_per_shard = 0);
  // Best incumbent configuration of a task, fetched over the wire.
  Result<Configuration> FetchSuggestion(const std::string& id);
  // Health probe: one kPing round trip to the worker. kUnavailable when
  // the shard is down or disconnected; bench_rpc uses this as the minimal
  // full-exchange latency sample.
  Status Ping(int shard);

  // Graceful stop: kShutdown to every live worker, then reap. Safe to call
  // repeatedly; the destructor calls it.
  Status Shutdown();

  int num_shards() const { return static_cast<int>(workers_.size()); }
  // lint:allow(test-only-function) tests count live workers after kills
  int num_live_shards() const;
  bool shard_alive(int shard) const;
  int shard_of(const std::string& id) const;  // -1 if unknown
  long long periods(const std::string& id) const;
  size_t num_tasks() const { return tasks_.size(); }
  std::vector<std::string> task_ids() const;
  const ProcessSupervisorStats& stats() const { return stats_; }
  std::string socket_path(int shard) const;
  const std::string& manifest_path() const { return options_.manifest_path; }
  // lint:allow(test-only-function) chaos_net_test checks health states
  ShardHealth shard_health(int shard) const;
  // lint:allow(test-only-function) chaos_net_test checks respawn fencing
  long long shard_epoch(int shard) const;
  long long total_quarantines() const;
  // Aggregated client-side chaos counters across every shard channel.
  net::ChaosStats chaos_stats() const;

 private:
  struct Worker {
    pid_t pid = -1;          // -1 = never spawned / reaped
    bool alive = false;      // process believed up and configured
    // Fencing epoch: 0 = never started; Start() assigns 1; every respawn
    // (manual, auto, or recovery fence) increments. Carried by
    // kConfigure/kExecute so a stale incarnation gets kFailedPrecondition.
    long long epoch = 0;
    std::unique_ptr<net::ShardClient> client;
    // Tick-domain reconnect pacing for transient disconnects of a live
    // process (net/client.h ReconnectState, RetryPolicy-driven).
    net::ReconnectState reconnect;
    // Heartbeat liveness state machine (service/health.h).
    ShardHealthMonitor health;
  };
  struct TaskEntry {
    std::string id;
    SimTaskSpec spec;
    int shard = -1;          // static rendezvous home, never moves
    long long periods = 0;   // acked period clock (worker-authoritative)
  };

  int PreferredShard(const std::string& id) const;
  // Resolves the cluster + config space the control plane decodes
  // observations against (lazily; Start and RegisterTask call it).
  Status InitSpace();
  // Fresh ShardClient for `shard` with this supervisor's deadlines,
  // reconnect schedule, and chaos options.
  std::unique_ptr<net::ShardClient> MakeClient(int shard) const;
  Status SpawnWorker(int shard);
  Status ConfigureWorker(int shard);
  // RestartShard minus health bookkeeping (shared with auto-restart and
  // the recovery fence path). Kill-on-failure: see RestartShard.
  Status RestartShardInternal(int shard);
  // Register + restore + replay every task homed on `shard`.
  Status RecoverShardTasks(int shard);
  // Fold a worker's kTaskStatus reply into the placement map: clocks adopt
  // max(acked, reported) and worker-known tasks missing from the manifest
  // are adopted outright.
  void ReconcileTaskStatus(int shard, const Json& env);
  // Send `kind` to every live shard and merge the "report" each returns.
  // A failed call, or a report `decode` rejects, counts as a failed shard.
  template <typename Report>
  Report MergeShardReports(net::MsgKind kind, const Json& body,
                           Result<Report> (*decode)(const Json&));
  // Mark a worker down after a transport failure and reap it if the
  // process actually exited.
  void MarkWorkerDown(int shard);
  void ReapWorker(int shard, bool block);
  // Best-effort durable snapshot of the control plane (supervisor
  // manifest); failures only bump stats_.manifest_failures.
  void SaveManifest();

  ProcessSupervisorOptions options_;
  ClusterSpec cluster_;
  ConfigSpace space_;
  bool space_ready_ = false;
  std::vector<Worker> workers_;
  std::vector<TaskEntry> tasks_;         // registration order
  std::map<std::string, size_t> index_;  // id -> tasks_ index
  ProcessSupervisorStats stats_;
};

}  // namespace sparktune
