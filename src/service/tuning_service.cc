#include "service/tuning_service.h"

#include <cassert>
#include <optional>
#include <string>
#include <unordered_set>

#include "common/thread_pool.h"
#include "meta/meta_features.h"
#include "service/checkpoint.h"
#include "sparksim/event_log.h"

namespace sparktune {

void CheckpointReport::Merge(const CheckpointReport& other) {
  written += other.written;
  skipped += other.skipped;
  failed += other.failed;
  errors.insert(errors.end(), other.errors.begin(), other.errors.end());
}

void HarvestReport::Merge(const HarvestReport& other) {
  attempted += other.attempted;
  harvested += other.harvested;
  deferred += other.deferred;
  failed += other.failed;
  errors.insert(errors.end(), other.errors.begin(), other.errors.end());
}

TuningService::TuningService(const ConfigSpace* space,
                             TuningServiceOptions options)
    : space_(space),
      options_(std::move(options)),
      knowledge_(space, options_.knowledge) {
  assert(space_ != nullptr);
  if (!options_.repository_dir.empty()) {
    repository_ = std::make_unique<DataRepository>(
        options_.repository_dir, options_.checkpoint_retention);
  }
}

Status TuningService::RegisterTask(const std::string& id,
                                   JobEvaluator* evaluator,
                                   std::optional<Configuration> baseline,
                                   std::optional<TunerOptions> override) {
  if (tasks_.count(id) > 0) {
    return Status::InvalidArgument("task already registered: " + id);
  }
  if (evaluator == nullptr) {
    return Status::InvalidArgument("evaluator is null for task: " + id);
  }
  TaskState state;
  state.evaluator = evaluator;
  TunerOptions resolved = override.value_or(options_.tuner);
  state.policy = resolved.retry;
  state.tuner = std::make_unique<OnlineTuner>(space_, evaluator,
                                              std::move(resolved),
                                              std::move(baseline));
  state.last_checkpoint_phase = static_cast<int>(state.tuner->phase());
  tasks_.emplace(id, std::move(state));
  // A fresh task has never been snapshotted: the next checkpoint pass must
  // visit it (matches the historical full-fleet iteration).
  MarkCheckpointDirty(id);
  return Status::OK();
}

void TuningService::MarkCheckpointDirty(const std::string& id) {
  checkpoint_dirty_.insert(id);
}

void TuningService::EnqueueHarvest(const std::string& id) {
  if (harvest_enqueued_.insert(id).second) harvest_queue_.push_back(id);
}

void TuningService::MaybeAttachMeta(TaskState* state) {
  if (state->meta_attached || !options_.enable_meta) return;
  if (state->meta_samples.empty()) return;
  if (knowledge_.size() <
      static_cast<size_t>(options_.min_tasks_for_transfer)) {
    return;
  }
  std::vector<double> meta = state->meta_samples.Average();
  // Warm-start configurations from the top-3 most similar tasks (§5.2).
  std::vector<Configuration> warm = knowledge_.WarmStartConfigs(meta);
  if (!warm.empty()) state->tuner->SetWarmStartConfigs(std::move(warm));
  // Ensemble surrogate carrying meta-knowledge (Eq. 12).
  state->tuner->SetObjectiveSurrogateFactory(
      knowledge_.MakeMetaSurrogateFactory(meta));
  // Sub-space suggestion by importance transfer (§5.2).
  std::vector<double> importance = knowledge_.SuggestImportance(meta);
  if (!importance.empty()) {
    state->tuner->SeedImportance(std::move(importance), 2.0);
  }
  state->meta_attached = true;
}

std::optional<std::vector<double>> TuningService::ExtractExecutionMeta(
    TaskState* state) {
  // Corrupted or truncated event logs (fault injection, dying agents) must
  // not poison the meta-feature averages; quarantine anything that fails
  // the sanity screen.
  std::optional<std::vector<double>> meta;
  if (EventLogLooksSane(state->tuner->last_event_log())) {
    meta = ExtractMetaFeatures(state->tuner->last_event_log());
  }
  if (options_.compact_event_logs) state->tuner->CompactLastEventLog();
  return meta;
}

void TuningService::AttachExecutionMeta(TaskState* state,
                                        std::optional<std::vector<double>> meta) {
  if (meta.has_value()) state->meta_samples.Push(std::move(*meta));
  // Attach meta-knowledge as soon as the first meta-features exist; the
  // advisor consumes warm-start configs during its initial design.
  MaybeAttachMeta(state);
}

void TuningService::AbsorbExecution(TaskState* state) {
  AttachExecutionMeta(state, ExtractExecutionMeta(state));
}

void TuningService::MaybeAutoCheckpoint(const std::string& id,
                                        TaskState* state) {
  if (repository_ == nullptr) return;
  bool due = false;
  if (options_.auto_checkpoint_periods > 0) {
    long long since =
        state->periods -
        (state->last_checkpoint_periods < 0 ? 0
                                            : state->last_checkpoint_periods);
    due = since >= options_.auto_checkpoint_periods;
  }
  if (!due && options_.checkpoint_on_phase_change &&
      static_cast<int>(state->tuner->phase()) !=
          state->last_checkpoint_phase) {
    due = true;
  }
  if (!due) return;
  // Best effort: a failed write stays due and is retried next period.
  if (CheckpointTask(id).ok()) ++auto_checkpoints_;
}

Result<Observation> TuningService::ExecutePeriodic(const std::string& id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    return Status::NotFound("unknown task: " + id);
  }
  TaskState& state = it->second;
  ++state.periods;
  MarkCheckpointDirty(id);
  switch (DecidePeriod(&state.retry)) {
    case PeriodDecision::kSkipBackoff:
      // The period clock and backoff window advanced: checkpointable state.
      MaybeAutoCheckpoint(id, &state);
      return Status::Unavailable("task backing off after infra failure: " +
                                 id);
    case PeriodDecision::kRunDegraded: {
      Observation obs = state.tuner->StepDegraded();
      AbsorbExecution(&state);
      EnqueueHarvest(id);
      MaybeAutoCheckpoint(id, &state);
      return obs;
    }
    case PeriodDecision::kRun:
      break;
  }
  Observation obs = state.tuner->Step();
  RecordPeriodOutcome(state.policy, &state.retry, obs.failure);
  AbsorbExecution(&state);
  EnqueueHarvest(id);
  MaybeAutoCheckpoint(id, &state);
  return obs;
}

std::vector<Result<Observation>> TuningService::ExecutePeriodicAll(
    const std::vector<std::string>& ids) {
  // Resolve ids and run the watchdog serially; a task may appear at most
  // once per batch (two concurrent Step() calls on one tuner would race),
  // and DecidePeriod mutates per-task clocks. The decisions are made in
  // input order, so the schedule matches a sequential ExecutePeriodic loop
  // at any thread count.
  constexpr PeriodDecision kErrorSlot = PeriodDecision::kSkipBackoff;
  std::vector<TaskState*> states(ids.size(), nullptr);
  std::vector<TaskState*> decided(ids.size(), nullptr);
  std::vector<Status> errors(ids.size(), Status::OK());
  std::vector<PeriodDecision> decisions(ids.size(), kErrorSlot);
  std::unordered_set<std::string> seen;
  for (size_t i = 0; i < ids.size(); ++i) {
    auto it = tasks_.find(ids[i]);
    if (it == tasks_.end()) {
      errors[i] = Status::NotFound("unknown task: " + ids[i]);
    } else if (!seen.insert(ids[i]).second) {
      errors[i] = Status::InvalidArgument("task repeated in batch: " + ids[i]);
    } else {
      decided[i] = &it->second;
      ++it->second.periods;
      MarkCheckpointDirty(ids[i]);
      decisions[i] = DecidePeriod(&it->second.retry);
      if (decisions[i] == PeriodDecision::kSkipBackoff) {
        errors[i] = Status::Unavailable(
            "task backing off after infra failure: " + ids[i]);
      } else {
        states[i] = &it->second;
      }
    }
  }

  // Run the suggest/evaluate cycles concurrently: each task touches only
  // its own tuner and evaluator, and the shared knowledge base is read
  // nowhere in Step(). Meta-feature extraction (the event-log sanity
  // screen, the 75-dim feature walk and log compaction) also reads and
  // writes only task-owned state, so it rides in the same parallel
  // section instead of serializing a full log scan per task.
  std::vector<std::optional<Observation>> stepped(ids.size());
  std::vector<std::optional<std::vector<double>>> metas(ids.size());
  ParallelFor(options_.num_threads, ids.size(), [&](size_t i) {
    if (states[i] == nullptr) return;
    stepped[i] = decisions[i] == PeriodDecision::kRunDegraded
                     ? states[i]->tuner->StepDegraded()
                     : states[i]->tuner->Step();
    metas[i] = ExtractExecutionMeta(states[i]);
  });

  // Serial postlude in input order: watchdog outcome recording,
  // meta-feature attachment, knowledge attachment, and the auto-checkpoint
  // cadence mutate per-task and shared state.
  std::vector<Result<Observation>> results;
  results.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (states[i] == nullptr) {
      if (decided[i] != nullptr) {
        // Backoff-skip slot: the period still elapsed for the task.
        MaybeAutoCheckpoint(ids[i], decided[i]);
      }
      results.push_back(errors[i]);
      continue;
    }
    if (decisions[i] == PeriodDecision::kRun) {
      RecordPeriodOutcome(states[i]->policy, &states[i]->retry,
                          stepped[i]->failure);
    }
    AttachExecutionMeta(states[i], std::move(metas[i]));
    EnqueueHarvest(ids[i]);
    MaybeAutoCheckpoint(ids[i], states[i]);
    results.push_back(std::move(*stepped[i]));
  }
  return results;
}

Status TuningService::HarvestTask(const std::string& id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    return Status::NotFound("unknown task: " + id);
  }
  TaskState& state = it->second;
  if (state.meta_samples.empty()) {
    return Status::FailedPrecondition("task has no meta-features yet: " + id);
  }
  const RunHistory& history = state.tuner->history();
  if (history.size() < 3) {
    return Status::FailedPrecondition("task history too small: " + id);
  }
  if (state.harvested && history.size() == state.harvested_size) {
    // Same task version already folded in; re-harvesting would duplicate
    // its knowledge-base record.
    return Status::OK();
  }
  std::vector<double> meta = state.meta_samples.Average();
  std::vector<double> importance;
  if (const Advisor* advisor = state.tuner->advisor()) {
    importance = advisor->subspace_manager().importance();
  }
  SPARKTUNE_RETURN_IF_ERROR(
      knowledge_.AddTask(id, meta, history, importance));
  state.harvested = true;
  state.harvested_size = history.size();

  if (repository_ != nullptr) {
    StoredTask stored;
    stored.id = id;
    stored.meta_features = std::move(meta);
    stored.importance = std::move(importance);
    stored.history = history;
    SPARKTUNE_RETURN_IF_ERROR(repository_->SaveTask(stored));
  }

  // Refresh the similarity learner on a doubling schedule: training is
  // quadratic in the number of tasks, so fleet-scale harvesting retrains at
  // sizes 2, 4, 8, ... (the z-scored meta-feature fallback covers the gap).
  size_t n = knowledge_.size();
  if (n >= 2 && (n & (n - 1)) == 0) {
    Status s = knowledge_.TrainSimilarityModel();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

HarvestReport TuningService::HarvestDirty(int max_tasks) {
  HarvestReport report;
  // Snapshot the backlog size: deferred tasks re-enter at the tail and
  // must not be retried within the same pass (a not-ready task stays
  // not-ready until another period executes).
  size_t budget = harvest_queue_.size();
  if (max_tasks > 0) budget = std::min(budget, static_cast<size_t>(max_tasks));
  for (size_t n = 0; n < budget; ++n) {
    std::string id = std::move(harvest_queue_.front());
    harvest_queue_.pop_front();
    harvest_enqueued_.erase(id);
    ++report.attempted;
    Status s = HarvestTask(id);
    if (s.ok()) {
      ++report.harvested;
    } else if (s.code() == Status::Code::kFailedPrecondition) {
      // Not harvestable yet (no meta-features / short history): rotate to
      // the back and retry after the task has executed again.
      ++report.deferred;
      EnqueueHarvest(id);
    } else {
      ++report.failed;
      report.errors.push_back(std::move(s));
    }
  }
  return report;
}

Status TuningService::LoadRepository() {
  if (repository_ == nullptr) {
    return Status::FailedPrecondition("no repository configured");
  }
  // Startup is the natural GC point for generations a crash orphaned
  // (written but never referenced, or referenced but never deleted).
  repository_->SweepOrphanCheckpoints();
  for (const std::string& id : repository_->ListTaskIds()) {
    SPARKTUNE_ASSIGN_OR_RETURN(stored, repository_->LoadTask(id, *space_));
    Status s = knowledge_.AddTask(stored.id, stored.meta_features,
                                  stored.history, stored.importance);
    if (!s.ok() && s.code() != Status::Code::kFailedPrecondition) return s;
  }
  if (knowledge_.size() >= 2) {
    return knowledge_.TrainSimilarityModel();
  }
  return Status::OK();
}

Status TuningService::CheckpointTask(const std::string& id) {
  if (repository_ == nullptr) {
    return Status::FailedPrecondition("no repository configured");
  }
  auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    return Status::NotFound("unknown task: " + id);
  }
  TaskState& state = it->second;
  TaskCheckpoint ckpt;
  ckpt.id = id;
  ckpt.tuner = state.tuner->SaveState();
  ckpt.meta_samples = state.meta_samples.ToRows();
  ckpt.meta_attached = state.meta_attached;
  ckpt.harvested = state.harvested;
  ckpt.harvested_size = state.harvested_size;
  ckpt.retry = state.retry;
  ckpt.periods = state.periods;
  SPARKTUNE_RETURN_IF_ERROR(
      repository_->SaveCheckpoint(id, TaskCheckpointToJson(ckpt)));
  state.last_checkpoint_periods = state.periods;
  state.last_checkpoint_phase = static_cast<int>(state.tuner->phase());
  checkpoint_dirty_.erase(id);
  return Status::OK();
}

CheckpointReport TuningService::CheckpointTasks() {
  CheckpointReport report;
  // Visit only the dirty set (sorted, so outcomes follow the same map
  // order as the historical full-fleet pass). Tasks untouched since their
  // last snapshot never enter it and are counted as skipped wholesale.
  std::vector<std::string> dirty(checkpoint_dirty_.begin(),
                                 checkpoint_dirty_.end());
  for (const std::string& id : dirty) {
    auto it = tasks_.find(id);
    if (it == tasks_.end()) {
      checkpoint_dirty_.erase(id);  // task vanished; nothing to snapshot
      continue;
    }
    const TaskState& state = it->second;
    if (state.last_checkpoint_periods == state.periods &&
        static_cast<int>(state.tuner->phase()) ==
            state.last_checkpoint_phase) {
      // An auto-checkpoint already caught this change; rewriting it would
      // only churn a generation.
      checkpoint_dirty_.erase(id);
      continue;
    }
    Status s = CheckpointTask(id);  // erases from the dirty set on success
    if (s.ok()) {
      ++report.written;
    } else {
      ++report.failed;  // stays dirty: the next pass retries it
      report.errors.push_back(std::move(s));
    }
  }
  report.skipped =
      static_cast<int>(tasks_.size()) - report.written - report.failed;
  return report;
}

Status TuningService::RestoreTask(const std::string& id) {
  if (repository_ == nullptr) {
    return Status::FailedPrecondition("no repository configured");
  }
  auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    return Status::NotFound("unknown task: " + id);
  }
  SPARKTUNE_ASSIGN_OR_RETURN(doc, repository_->LoadCheckpoint(id));
  SPARKTUNE_ASSIGN_OR_RETURN(ckpt, TaskCheckpointFromJson(doc, *space_));
  // The window averages its rows into the vector the knowledge base
  // compares with its kNumMetaFeatures-wide records, and reads each row
  // at the width of the first.
  for (const std::vector<double>& row : ckpt.meta_samples) {
    if (row.size() != static_cast<size_t>(kNumMetaFeatures)) {
      return Status::DataLoss("checkpoint of " + id + " holds a " +
                              std::to_string(row.size()) +
                              "-wide meta sample, not " +
                              std::to_string(kNumMetaFeatures));
    }
  }

  TaskState& state = it->second;
  state.tuner->RestoreState(ckpt.tuner);
  // The evaluator was rebuilt by the restarted process at execution 0;
  // fast-forward it so derived per-run streams (data-size schedule, fault
  // schedule) continue from where the checkpointed process stopped.
  state.evaluator->SkipExecutions(ckpt.tuner.executions);
  state.meta_samples.FromRows(ckpt.meta_samples);
  state.meta_attached = ckpt.meta_attached;
  state.harvested = ckpt.harvested;
  state.harvested_size = static_cast<size_t>(ckpt.harvested_size);
  state.retry = ckpt.retry;
  state.periods = ckpt.periods;
  state.last_checkpoint_periods = ckpt.periods;
  state.last_checkpoint_phase = static_cast<int>(state.tuner->phase());
  checkpoint_dirty_.erase(id);
  if (state.meta_attached && options_.enable_meta &&
      !state.meta_samples.empty()) {
    // Only the ensemble surrogate factory needs re-creating (closures do
    // not serialize); warm-start configs and seeded importance already
    // travel inside the advisor snapshot.
    state.tuner->SetObjectiveSurrogateFactory(
        knowledge_.MakeMetaSurrogateFactory(state.meta_samples.Average()));
  }
  return Status::OK();
}

const RetryState* TuningService::retry_state(const std::string& id) const {
  auto it = tasks_.find(id);
  return it == tasks_.end() ? nullptr : &it->second.retry;
}

OnlineTuner* TuningService::tuner(const std::string& id) {
  auto it = tasks_.find(id);
  return it == tasks_.end() ? nullptr : it->second.tuner.get();
}

long long TuningService::periods(const std::string& id) const {
  auto it = tasks_.find(id);
  return it == tasks_.end() ? -1 : it->second.periods;
}

}  // namespace sparktune
