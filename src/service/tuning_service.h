// TuningService: the independent cloud service of §6.2. It multiplexes
// OnlineTuners across registered periodic tasks, wires the meta-knowledge
// learner into new tasks (warm start, ensemble surrogate, importance
// transfer — once the task's first event log yields meta-features), and
// harvests finished tuning histories into the knowledge base / data
// repository.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/backoff.h"
#include "meta/knowledge_base.h"
#include "service/data_repository.h"
#include "service/meta_sample_window.h"
#include "tuner/online_tuner.h"

namespace sparktune {

struct TuningServiceOptions {
  TunerOptions tuner;  // per-task defaults (objective, budget, safety...)
  KnowledgeBaseOptions knowledge;
  bool enable_meta = true;
  // Transfer only kicks in once the knowledge base holds this many tasks.
  int min_tasks_for_transfer = 2;
  // Directory for persistence; empty = in-memory only.
  std::string repository_dir;
  // Checkpoint GC: generations kept per task after each write.
  CheckpointRetention checkpoint_retention;
  // Automatic checkpoint cadence (DESIGN.md §7), replacing caller-driven
  // snapshots: with a repository configured, a task re-checkpoints itself
  // every `auto_checkpoint_periods` periods (0 disables; backoff-skip
  // periods count) and, independently, whenever the tuner phase machine
  // transitions (baseline -> tuning -> applying) when
  // `checkpoint_on_phase_change` is set. Auto-checkpoints are best-effort:
  // a failed write is retried implicitly at the next due period.
  int auto_checkpoint_periods = 0;
  bool checkpoint_on_phase_change = false;
  // Threads for ExecutePeriodicAll batches: 1 = serial, 0 = global pool
  // default width, k > 1 = up to k threads. Tasks are independent (own
  // tuner + evaluator), so the batch result equals calling ExecutePeriodic
  // per id in order.
  int num_threads = 1;
  // Fleet diet: release each task's retained event log right after
  // meta-feature extraction, keeping only an EventLogSummary digest. Off
  // by default so external callers reading tuner()->last_event_log()
  // between periods keep seeing the full log. The suggestion trajectory is
  // unaffected either way (the log is consumed before compaction).
  bool compact_event_logs = false;
};

// Aggregated result of a fleet checkpoint pass (mirrors RestoreReport):
// every task is attempted; per-task failures are collected, not fatal.
struct CheckpointReport {
  int written = 0;  // tasks whose checkpoint was (re)written
  int skipped = 0;  // tasks unchanged since their last checkpoint
  int failed = 0;   // tasks whose checkpoint write failed
  std::vector<Status> errors;

  bool ok() const { return failed == 0; }
  void Merge(const CheckpointReport& other);
};

// Result of one streaming-harvest pass (HarvestDirty).
struct HarvestReport {
  int attempted = 0;  // tasks popped from the harvest queue this pass
  int harvested = 0;  // folded into the knowledge base
  int deferred = 0;   // not yet harvestable (requeued for a later pass)
  int failed = 0;     // harvest errors other than not-ready
  std::vector<Status> errors;

  bool ok() const { return failed == 0; }
  void Merge(const HarvestReport& other);
};

class TuningService {
 public:
  TuningService(const ConfigSpace* space, TuningServiceOptions options = {});

  // Register a periodic task. The evaluator must outlive the service.
  Status RegisterTask(const std::string& id, JobEvaluator* evaluator,
                      std::optional<Configuration> baseline = std::nullopt,
                      std::optional<TunerOptions> override = std::nullopt);

  // Handle one periodic execution of `id` (Steps 1-2 of Figure 1): pick a
  // configuration, run it, record the result. Meta-knowledge is attached
  // after the first execution produces meta-features.
  //
  // A per-task watchdog (common/backoff.h) wraps the call: after an infra
  // failure the task backs off (kUnavailable slots, no execution) for a
  // deterministic number of periods, and after `circuit_break_failures`
  // consecutive infra failures it is parked — executed in degraded mode
  // (incumbent/baseline config, observation marked `degraded`) until the
  // breaker closes. Infra failures never reach the advisor.
  Result<Observation> ExecutePeriodic(const std::string& id);

  // Handle one periodic execution for EVERY id concurrently (the §6.2
  // multi-tenant scheduling tick: many independent periodic tasks fire at
  // once, and suggestion latency is pure overhead on each). Results come
  // back in input order and match a sequential ExecutePeriodic loop; ids
  // that are unknown or repeated within the batch get an error slot.
  // Requires each task's evaluator to be independent of the others (or
  // thread-safe).
  std::vector<Result<Observation>> ExecutePeriodicAll(
      const std::vector<std::string>& ids);

  // Fold a task's accumulated history into the knowledge base (and the
  // repository when persistence is enabled). Idempotent per task version.
  Status HarvestTask(const std::string& id);

  // Streaming harvest for fleet scale: folds up to `max_tasks` tasks from
  // the harvest queue into the knowledge base (0 = the whole current
  // backlog). Tasks enter the queue when a period executes for them; a
  // task that is not yet harvestable (no meta-features, short history) is
  // requeued and retried on a later pass. Draining the queue is equivalent
  // to calling HarvestTask once per executed task — the knowledge base
  // ends up with the same records — without the O(fleet) scan per tick.
  HarvestReport HarvestDirty(int max_tasks = 0);
  // Tasks currently waiting in the harvest queue.
  size_t harvest_backlog() const { return harvest_queue_.size(); }
  // Tasks whose state changed since their last checkpoint.
  size_t checkpoint_backlog() const { return checkpoint_dirty_.size(); }

  // Load previously persisted tasks into the knowledge base. Also sweeps
  // orphaned checkpoint generations (files outside the retention window
  // left behind by a crash mid-GC).
  Status LoadRepository();

  // Crash-safe checkpointing (DESIGN.md §7). CheckpointTask snapshots one
  // task's full mutable state (tuner phase machine, advisor history + RNG
  // cursors, meta attachment, watchdog state, period clock) into the
  // repository via an atomic, checksummed, generation-suffixed write.
  // RestoreTask loads the newest intact generation back into the already
  // re-registered task and fast-forwards its evaluator, after which the
  // suggestion trajectory continues exactly where the checkpoint left off.
  // A torn newest generation falls back to the previous one; only a fully
  // absent or corrupt history yields kDataLoss/kNotFound and leaves the
  // task in its freshly registered state.
  Status CheckpointTask(const std::string& id);
  // Checkpoints every registered task (tasks unchanged since their last
  // checkpoint are skipped) and aggregates per-task outcomes. Internally
  // drains the dirty set — the pass visits only tasks whose period clock
  // or phase moved since their last snapshot, so an idle fleet costs O(1)
  // per changed task, not O(fleet). Reported counts match the historical
  // full-fleet iteration (skipped = unchanged tasks).
  CheckpointReport CheckpointTasks();
  Status RestoreTask(const std::string& id);

  struct RestoreReport {
    int restored = 0;      // tasks resumed from a valid checkpoint
    int fresh_starts = 0;  // checkpoint present but unusable (kept fresh)
    std::vector<Status> errors;
  };
  // Restores every registered task that has a checkpoint. Call after
  // RegisterTask (and typically after LoadRepository, so re-attached
  // meta-surrogates see the same knowledge base). Tasks whose checkpoint
  // is corrupt fall back to a fresh start and are reported, not fatal.
  RestoreReport RestoreTasks();

  // Watchdog diagnostics for a task (null if unknown).
  const RetryState* retry_state(const std::string& id) const;

  const OnlineTuner* tuner(const std::string& id) const;
  OnlineTuner* tuner(const std::string& id);
  KnowledgeBase& knowledge_base() { return knowledge_; }
  const KnowledgeBase& knowledge_base() const { return knowledge_; }
  size_t num_tasks() const { return tasks_.size(); }
  // Periods (DecidePeriod calls, incl. backoff skips) the task has
  // consumed; -1 if unknown. A restarted shard replays the gap between a
  // restored checkpoint's period clock and this value after a kill.
  long long periods(const std::string& id) const;
  // Checkpoints written by the automatic cadence (diagnostics).
  long long auto_checkpoints() const { return auto_checkpoints_; }

 private:
  struct TaskState {
    std::unique_ptr<OnlineTuner> tuner;
    JobEvaluator* evaluator = nullptr;
    MetaSampleWindow meta_samples;
    bool meta_attached = false;
    bool harvested = false;
    // History size at the last harvest; a repeat harvest with no new
    // observations is a no-op (idempotence per task version).
    size_t harvested_size = 0;
    // Watchdog: policy resolved at registration, state checkpointed.
    RetryPolicy policy;
    RetryState retry;
    // Period clock (checkpointed) + auto-checkpoint bookkeeping.
    long long periods = 0;
    long long last_checkpoint_periods = -1;  // -1 = never checkpointed
    int last_checkpoint_phase = 0;           // TunerPhase as int
  };

  void MaybeAttachMeta(TaskState* state);
  // Parallel half of post-execution bookkeeping: screen the task's last
  // event log, extract its meta-feature vector (nullopt if the log fails
  // the sanity screen) and compact the log. Touches only state owned by
  // this task, so batch workers may run it concurrently on distinct tasks.
  std::optional<std::vector<double>> ExtractExecutionMeta(TaskState* state);
  // Serial half: fold the extracted meta-features into the task's sample
  // window and attach meta-knowledge once available. Reads the shared
  // knowledge base — serial use only, in batch input order.
  void AttachExecutionMeta(TaskState* state,
                           std::optional<std::vector<double>> meta);
  // Both halves back to back, for the single-task path.
  void AbsorbExecution(TaskState* state);
  // Auto-checkpoint cadence check; runs serially at the end of a period.
  void MaybeAutoCheckpoint(const std::string& id, TaskState* state);
  // Marks a task dirty for the incremental checkpoint/harvest passes.
  void MarkCheckpointDirty(const std::string& id);
  void EnqueueHarvest(const std::string& id);

  const ConfigSpace* space_;
  TuningServiceOptions options_;
  std::map<std::string, TaskState> tasks_;
  KnowledgeBase knowledge_;
  std::unique_ptr<DataRepository> repository_;
  long long auto_checkpoints_ = 0;
  // Incremental-pass state (fleet diet): tasks whose mutable state moved
  // since their last checkpoint (sorted, so drains follow map order), and
  // the rotating queue of tasks with unharvested executions.
  std::set<std::string> checkpoint_dirty_;
  std::deque<std::string> harvest_queue_;
  // Queue dedup, membership-only (insert/erase/count) — deliberately not
  // blessed for iteration: ordering comes from harvest_queue_, and any
  // future walk of this set trips unordered-member-iter (phase-1 indexed).
  std::unordered_set<std::string> harvest_enqueued_;
};

}  // namespace sparktune
