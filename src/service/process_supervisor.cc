#include "service/process_supervisor.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include <algorithm>

#include "common/strings.h"
#include "net/io.h"
#include "service/placement.h"
#include "service/supervisor_manifest.h"
#include "sparksim/spark_conf.h"

namespace sparktune {
namespace {

// Reap budget for a worker that was asked to exit gracefully: poll this
// many times, SleepMs(kReapPollMs) apart, before escalating to SIGKILL.
constexpr int kReapPolls = 200;
constexpr int kReapPollMs = 10;

Json EmptyBody() { return Json::Object(); }

}  // namespace

ProcessSupervisor::ProcessSupervisor(ProcessSupervisorOptions options)
    : options_(std::move(options)) {
  if (options_.num_shards < 1) options_.num_shards = 1;
  if (options_.manifest_path.empty() && !options_.socket_dir.empty()) {
    options_.manifest_path = options_.socket_dir + "/supervisor.manifest";
  }
  workers_.resize(static_cast<size_t>(options_.num_shards));
  for (Worker& w : workers_) {
    w.health = ShardHealthMonitor(options_.health);
  }
}

ProcessSupervisor::~ProcessSupervisor() { (void)Shutdown(); }

std::string ProcessSupervisor::socket_path(int shard) const {
  return StrFormat("%s/shard-%d.sock", options_.socket_dir.c_str(), shard);
}

int ProcessSupervisor::PreferredShard(const std::string& id) const {
  // Static placement over ALL shard indices, dead or alive: a task's home
  // never moves, so a downed shard parks its tasks instead of migrating
  // them (migration would need the evaluator state the dead process took
  // with it; parking + checkpoint recovery keeps trajectories exact).
  return placement::Rendezvous(id, num_shards());
}

Status ProcessSupervisor::InitSpace() {
  if (space_ready_) return Status::OK();
  SPARKTUNE_ASSIGN_OR_RETURN(cluster,
                             ClusterFromName(options_.service.cluster));
  cluster_ = cluster;
  space_ = BuildSparkSpace(cluster_);
  space_ready_ = true;
  return Status::OK();
}

std::unique_ptr<net::ShardClient> ProcessSupervisor::MakeClient(
    int shard) const {
  net::ShardClientOptions copts;
  copts.socket_path = socket_path(shard);
  copts.connect_timeout_ms = options_.connect_timeout_ms;
  copts.call_timeout_ms = options_.call_timeout_ms;
  copts.reconnect = options_.reconnect;
  copts.backoff_unit_ms = options_.backoff_unit_ms;
  copts.chaos.seed = options_.chaos_seed;
  copts.chaos.fault_prob = options_.chaos_prob;
  copts.chaos.shard = shard;
  copts.chaos.salt = net::kChaosClientSalt;
  copts.chaos.arm_after_exchanges = options_.chaos_arm_exchanges;
  return std::make_unique<net::ShardClient>(copts);
}

Status ProcessSupervisor::SpawnWorker(int shard) {
  Worker& w = workers_[static_cast<size_t>(shard)];
  if (w.pid > 0) return Status::FailedPrecondition("worker already spawned");
  if (options_.shardd_path.empty()) {
    return Status::InvalidArgument("shardd_path is empty");
  }
  const std::string path = socket_path(shard);
  std::vector<std::string> args;
  args.push_back(options_.shardd_path);
  args.push_back("--socket");
  args.push_back(path);
  if (options_.chaos_seed != 0 && options_.chaos_prob > 0) {
    args.push_back(StrFormat("--shard=%d", shard));
    args.push_back(StrFormat("--chaos_seed=%llu",
                             static_cast<unsigned long long>(
                                 options_.chaos_seed)));
    args.push_back(StrFormat("--chaos_prob=%.17g", options_.chaos_prob));
    args.push_back(StrFormat("--chaos_arm=%d",
                             options_.chaos_arm_exchanges));
  }
  pid_t pid = fork();
  if (pid < 0) {
    return Status::Internal(
        StrFormat("fork failed: %s", std::strerror(errno)));
  }
  if (pid == 0) {
    // Child. execv only returns on failure; _exit (not in the no-abort
    // set) avoids running the parent's atexit/static destructors twice.
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(options_.shardd_path.c_str(), argv.data());
    _exit(127);
  }
  w.pid = pid;
  w.client = MakeClient(shard);
  w.reconnect = net::ReconnectState{};
  return Status::OK();
}

Status ProcessSupervisor::ConfigureWorker(int shard) {
  Worker& w = workers_[static_cast<size_t>(shard)];
  Json body = Json::Object();
  body.Set("config", ServiceConfigToJson(options_.service));
  body.Set("epoch", Json::Number(static_cast<double>(w.epoch)));
  SPARKTUNE_RETURN_IF_ERROR(
      w.client->Call(net::MsgKind::kConfigure, body).status());
  w.alive = true;
  w.reconnect.RecordSuccess();
  return Status::OK();
}

Status ProcessSupervisor::Start() {
  SPARKTUNE_RETURN_IF_ERROR(InitSpace());
  for (int s = 0; s < num_shards(); ++s) {
    Worker& w = workers_[static_cast<size_t>(s)];
    if (w.alive) continue;
    if (w.epoch < 1) w.epoch = 1;
    if (w.pid <= 0) {
      SPARKTUNE_RETURN_IF_ERROR(SpawnWorker(s));
    }
    Status st = w.client->Connect();
    if (st.ok()) st = ConfigureWorker(s);
    if (!st.ok()) {
      return Status::Unavailable(StrFormat(
          "shard %d failed to start: %s", s, st.message().c_str()));
    }
  }
  SaveManifest();
  return Status::OK();
}

Status ProcessSupervisor::RegisterTask(const std::string& id,
                                       const SimTaskSpec& spec) {
  SPARKTUNE_RETURN_IF_ERROR(InitSpace());
  if (index_.count(id) > 0) {
    return Status::InvalidArgument("task already registered: " + id);
  }
  const int shard = PreferredShard(id);
  if (shard < 0) return Status::FailedPrecondition("no shards configured");
  Worker& w = workers_[static_cast<size_t>(shard)];
  if (!w.alive || !w.client->connected()) {
    return Status::Unavailable(StrFormat(
        "home shard %d is down; register after RestartShard", shard));
  }
  Json body = Json::Object();
  body.Set("id", Json::Str(id));
  body.Set("spec", SimTaskSpecToJson(spec));
  auto response = w.client->Call(net::MsgKind::kRegisterTask, body);
  if (!response.ok()) {
    if (response.status().code() == Status::Code::kUnavailable) {
      MarkWorkerDown(shard);
    }
    return response.status();
  }
  TaskEntry entry;
  entry.id = id;
  entry.spec = spec;
  entry.shard = shard;
  index_.emplace(id, tasks_.size());
  tasks_.push_back(std::move(entry));
  SaveManifest();
  return Status::OK();
}

void ProcessSupervisor::ReapWorker(int shard, bool block) {
  Worker& w = workers_[static_cast<size_t>(shard)];
  if (w.pid <= 0) return;
  int status = 0;
  pid_t got = waitpid(w.pid, &status, WNOHANG);
  if (got == 0 && block) {
    for (int i = 0; i < kReapPolls && got == 0; ++i) {
      net::SleepMs(kReapPollMs);
      got = waitpid(w.pid, &status, WNOHANG);
    }
    if (got == 0) {
      // Refused to exit within the budget: escalate.
      kill(w.pid, SIGKILL);
      got = waitpid(w.pid, &status, 0);
    }
  }
  if (got == w.pid || (got < 0 && errno == ECHILD)) {
    w.pid = -1;
    w.alive = false;
    if (w.client) w.client->Disconnect();
  }
}

void ProcessSupervisor::MarkWorkerDown(int shard) {
  Worker& w = workers_[static_cast<size_t>(shard)];
  ++stats_.worker_failures;
  if (w.client) w.client->Disconnect();
  w.reconnect.RecordFailure(options_.reconnect);
  w.health.RecordFailure(stats_.ticks);
  // If the process actually exited, reap it now; a transient transport
  // failure of a live process keeps alive=true and lets the per-tick
  // reconnect pacing redial.
  ReapWorker(shard, /*block=*/false);
  if (w.pid <= 0) w.health.RecordDeath(stats_.ticks);
}

std::vector<Result<Observation>> ProcessSupervisor::Tick() {
  // Tick number first: every health/backoff decision below is phrased in
  // the current tick so the whole state machine is tick-deterministic.
  ++stats_.ticks;
  const long long tick = stats_.ticks;

  // Self-healing: respawn dead shards on the health monitor's backoff
  // schedule (off unless options_.health.auto_restart).
  if (options_.health.auto_restart) {
    for (int s = 0; s < num_shards(); ++s) {
      Worker& w = workers_[static_cast<size_t>(s)];
      if (w.alive || w.pid > 0) continue;
      if (!w.health.ShouldAttemptRestart(tick)) continue;
      Status st = RestartShardInternal(s);
      if (st.ok()) {
        w.health.RecordRestart(tick);
        ++stats_.auto_restarts;
      } else {
        w.health.RecordRestartFailure(tick);
      }
    }
  }

  // Redial transiently-disconnected live workers, paced by ReconnectState
  // (RetryPolicy::BackoffPeriods in the tick domain, net/client.h).
  for (int s = 0; s < num_shards(); ++s) {
    Worker& w = workers_[static_cast<size_t>(s)];
    if (!w.alive || w.pid <= 0 || w.client->connected()) continue;
    if (!w.reconnect.ShouldAttempt()) continue;
    Status st = w.client->ConnectOnce();
    if (st.ok()) {
      w.reconnect.RecordSuccess();
    } else {
      w.reconnect.RecordFailure(options_.reconnect);
      ReapWorker(s, /*block=*/false);
    }
  }

  // Heartbeat probes: one kPing per connected shard on the policy cadence.
  // A pong from a different epoch means a stale incarnation answered the
  // socket — treat it as a failed probe and take the shard down.
  for (int s = 0; s < num_shards(); ++s) {
    Worker& w = workers_[static_cast<size_t>(s)];
    if (!w.alive || !w.client || !w.client->connected()) continue;
    if (!w.health.ShouldProbe(tick)) continue;
    ++stats_.probes;
    auto pong = w.client->Call(net::MsgKind::kPing, EmptyBody());
    bool healthy = pong.ok();
    if (healthy) {
      const long long reported =
          static_cast<long long>(pong->GetNumberOr("epoch", 0));
      if (reported != 0 && reported != w.epoch) healthy = false;
    }
    if (healthy) {
      w.health.RecordSuccess();
    } else {
      ++stats_.probe_failures;
      MarkWorkerDown(s);
    }
  }

  // Batch per shard in registration order.
  std::vector<std::vector<std::string>> batches(workers_.size());
  std::vector<std::vector<size_t>> positions(workers_.size());
  for (size_t i = 0; i < tasks_.size(); ++i) {
    const TaskEntry& task = tasks_[i];
    if (task.shard < 0) continue;
    batches[static_cast<size_t>(task.shard)].push_back(task.id);
    positions[static_cast<size_t>(task.shard)].push_back(i);
  }

  // Pipelined exchange: write every shard's kExecute before reading any
  // response, so shard batches execute concurrently across processes.
  std::vector<bool> sent(workers_.size(), false);
  for (size_t s = 0; s < workers_.size(); ++s) {
    Worker& w = workers_[s];
    if (batches[s].empty() || !w.alive || !w.client->connected()) continue;
    Json ids = Json::Array();
    for (const std::string& id : batches[s]) ids.Append(Json::Str(id));
    Json body = Json::Object();
    body.Set("ids", std::move(ids));
    // Fencing token: a stale incarnation that somehow still owns the
    // socket answers this with kFailedPrecondition instead of executing.
    body.Set("epoch", Json::Number(static_cast<double>(w.epoch)));
    Status st = w.client->Send(net::MsgKind::kExecute, body,
                               options_.call_timeout_ms);
    if (st.ok()) {
      sent[s] = true;
    } else {
      MarkWorkerDown(static_cast<int>(s));
    }
  }

  std::vector<std::optional<Result<Observation>>> slots(tasks_.size());
  for (size_t s = 0; s < workers_.size(); ++s) {
    if (!sent[s]) continue;
    Worker& w = workers_[s];
    auto response =
        w.client->Receive(net::MsgKind::kExecute, options_.call_timeout_ms);
    bool usable = response.ok();
    const Json* jslots = usable ? response->Get("slots") : nullptr;
    const Json* jperiods = usable ? response->Get("periods") : nullptr;
    usable = usable && jslots != nullptr && jslots->is_array() &&
             jperiods != nullptr && jperiods->is_array() &&
             jslots->size() == batches[s].size() &&
             jperiods->size() == batches[s].size();
    if (!usable) {
      MarkWorkerDown(static_cast<int>(s));
      continue;  // the batch parks below
    }
    w.health.RecordSuccess();
    for (size_t k = 0; k < batches[s].size(); ++k) {
      slots[positions[s][k]] = ResultSlotFromJson(jslots->at(k), space_);
      // Worker period clocks are authoritative but never rewind: adopt
      // max(acked, reported). (A worker can execute + checkpoint and die
      // before the response is read — reported runs AHEAD; a duplicated
      // response frame under chaos can replay an OLDER clock.)
      const long long reported =
          static_cast<long long>(jperiods->at(k).AsNumber());
      if (reported > tasks_[positions[s][k]].periods) {
        tasks_[positions[s][k]].periods = reported;
      }
    }
  }

  std::vector<Result<Observation>> results;
  results.reserve(tasks_.size());
  for (size_t i = 0; i < tasks_.size(); ++i) {
    if (slots[i].has_value()) {
      results.push_back(*std::move(slots[i]));
    } else {
      ++stats_.parked_slots;
      results.push_back(Status::Unavailable(StrFormat(
          "task parked: shard %d down: %s", tasks_[i].shard,
          tasks_[i].id.c_str())));
    }
  }
  SaveManifest();
  return results;
}

Status ProcessSupervisor::KillShard(int shard) {
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("no such shard");
  }
  Worker& w = workers_[static_cast<size_t>(shard)];
  if (w.pid <= 0) return Status::FailedPrecondition("shard already dead");
  // SIGKILL: no flush, no handler — in-memory state dies mid-whatever,
  // exactly like a machine loss. Only repository files survive.
  kill(w.pid, SIGKILL);
  int status = 0;
  (void)waitpid(w.pid, &status, 0);
  w.pid = -1;
  w.alive = false;
  if (w.client) w.client->Disconnect();
  w.health.RecordDeath(stats_.ticks);
  ++stats_.kills;
  SaveManifest();
  return Status::OK();
}

Status ProcessSupervisor::RestartShard(int shard) {
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("no such shard");
  }
  Worker& w = workers_[static_cast<size_t>(shard)];
  if (w.alive || w.pid > 0) return Status::FailedPrecondition("shard is alive");
  Status st = RestartShardInternal(shard);
  if (st.ok()) {
    w.health.RecordRestart(stats_.ticks);
  } else {
    w.health.RecordRestartFailure(stats_.ticks);
  }
  return st;
}

Status ProcessSupervisor::RestartShardInternal(int shard) {
  Worker& w = workers_[static_cast<size_t>(shard)];
  // Every incarnation gets a fresh fencing epoch, even on a failed
  // attempt — epochs only need monotonicity, not density.
  ++w.epoch;
  SPARKTUNE_RETURN_IF_ERROR(SpawnWorker(shard));
  Status st = w.client->Connect();
  if (st.ok()) st = ConfigureWorker(shard);
  if (st.ok()) {
    ++stats_.restarts;
    // Best-effort repository load so re-attached meta-surrogates see the
    // harvested knowledge (an empty repository on first boot is normal).
    (void)w.client->Call(net::MsgKind::kLoadRepository, EmptyBody());
    st = RecoverShardTasks(shard);
  }
  if (!st.ok()) {
    // All-or-nothing: a half-recovered worker running fresh clocks against
    // acked history would fork the trajectory. Kill the fresh child so the
    // shard returns to cleanly-dead and the next attempt starts over.
    if (w.pid > 0) {
      kill(w.pid, SIGKILL);
      int status = 0;
      (void)waitpid(w.pid, &status, 0);
    }
    w.pid = -1;
    w.alive = false;
    if (w.client) w.client->Disconnect();
    return st;
  }
  SaveManifest();
  return Status::OK();
}

Status ProcessSupervisor::RecoverShardTasks(int shard) {
  Worker& w = workers_[static_cast<size_t>(shard)];
  Status first = Status::OK();
  for (TaskEntry& task : tasks_) {
    if (task.shard != shard) continue;
    Json reg = Json::Object();
    reg.Set("id", Json::Str(task.id));
    reg.Set("spec", SimTaskSpecToJson(task.spec));
    auto reg_response = w.client->Call(net::MsgKind::kRegisterTask, reg);
    if (!reg_response.ok()) {
      if (first.ok()) first = reg_response.status();
      continue;
    }
    Json restore = Json::Object();
    restore.Set("id", Json::Str(task.id));
    restore.Set("replay_to",
                Json::Number(static_cast<double>(task.periods)));
    auto response = w.client->Call(net::MsgKind::kRestore, restore);
    if (!response.ok()) {
      if (first.ok()) first = response.status();
      continue;
    }
    if (response->GetBoolOr("restored", false)) {
      ++stats_.restored_tasks;
    } else {
      ++stats_.fresh_replays;
    }
    stats_.replayed_periods +=
        static_cast<long long>(response->GetNumberOr("replayed", 0));
    const long long worker_periods =
        static_cast<long long>(response->GetNumberOr("periods", 0));
    if (worker_periods > task.periods) {
      // The dead incarnation computed these periods but never delivered
      // them; the trajectory stays exact, the results are simply lost.
      stats_.lost_results += worker_periods - task.periods;
    }
    task.periods = worker_periods;
  }
  return first;
}

void ProcessSupervisor::Abandon() {
  // Simulated SIGKILL of this supervisor: forget everything about the
  // fleet without signaling it. No manifest rewrite either — a dead
  // process cannot tidy its own durable state.
  for (Worker& w : workers_) {
    if (w.client) {
      w.client->Disconnect();
      w.client.reset();
    }
    w.pid = -1;
    w.alive = false;
  }
}

void ProcessSupervisor::ReconcileTaskStatus(int shard, const Json& env) {
  const Json* jtasks = env.Get("tasks");
  if (jtasks == nullptr || !jtasks->is_array()) return;
  for (const Json& e : jtasks->elements()) {
    const std::string id = e.GetStringOr("id", "");
    if (id.empty()) continue;
    const long long reported =
        static_cast<long long>(e.GetNumberOr("periods", 0));
    auto it = index_.find(id);
    if (it != index_.end()) {
      TaskEntry& task = tasks_[it->second];
      if (reported > task.periods) task.periods = reported;
      continue;
    }
    // The worker knows a task the manifest does not (registered between
    // the last manifest write and the crash): adopt it outright.
    const Json* spec = e.Get("spec");
    if (spec == nullptr) continue;
    auto decoded = SimTaskSpecFromJson(*spec);
    if (!decoded.ok()) continue;
    TaskEntry entry;
    entry.id = id;
    entry.spec = *decoded;
    entry.shard = shard;
    entry.periods = reported;
    index_.emplace(id, tasks_.size());
    tasks_.push_back(std::move(entry));
    ++stats_.adopted_tasks;
  }
}

Status ProcessSupervisor::Recover() {
  if (options_.manifest_path.empty()) {
    return Status::FailedPrecondition(
        "no manifest path configured; cannot recover");
  }
  SPARKTUNE_ASSIGN_OR_RETURN(
      manifest, LoadSupervisorManifest(options_.manifest_path));
  // Adopt the crashed supervisor's view of the world wholesale; the
  // manifest outranks whatever this instance was constructed with.
  options_.service = manifest.service;
  options_.num_shards = manifest.num_shards;
  space_ready_ = false;
  SPARKTUNE_RETURN_IF_ERROR(InitSpace());
  workers_.clear();
  workers_.resize(static_cast<size_t>(manifest.num_shards));
  for (Worker& w : workers_) {
    w.health = ShardHealthMonitor(options_.health);
  }
  tasks_.clear();
  index_.clear();
  for (const TaskManifestEntry& t : manifest.tasks) {
    TaskEntry entry;
    entry.id = t.id;
    entry.spec = t.spec;
    entry.shard = t.shard;
    entry.periods = t.periods;
    index_.emplace(entry.id, tasks_.size());
    tasks_.push_back(std::move(entry));
  }
  for (int s = 0; s < num_shards(); ++s) {
    Worker& w = workers_[static_cast<size_t>(s)];
    w.epoch = manifest.shards[static_cast<size_t>(s)].epoch;
    const long long pid = manifest.shards[static_cast<size_t>(s)].pid;
    w.client = MakeClient(s);
    bool adopted = false;
    if (pid > 0 && w.client->ConnectOnce().ok()) {
      // Adoption handshake: the worker must be configured AND at exactly
      // the manifest's epoch — anything else is a stale or foreign
      // incarnation and gets fenced.
      auto pong = w.client->Call(net::MsgKind::kPing, EmptyBody());
      if (pong.ok() && pong->GetBoolOr("configured", false) &&
          static_cast<long long>(pong->GetNumberOr("epoch", 0)) == w.epoch) {
        auto status = w.client->Call(net::MsgKind::kTaskStatus, EmptyBody());
        if (status.ok()) {
          w.pid = static_cast<pid_t>(pid);
          w.alive = true;
          w.reconnect = net::ReconnectState{};
          w.health.RecordSuccess();
          // Worker clocks may have advanced past the manifest's acked
          // counts while unsupervised; reconcile forward, never back.
          ReconcileTaskStatus(s, *status);
          ++stats_.adopted_workers;
          adopted = true;
        }
      }
    }
    if (!adopted) {
      if (w.client) w.client->Disconnect();
      if (pid > 0) {
        // Fence: whatever owns that pid must not keep serving acked state.
        kill(static_cast<pid_t>(pid), SIGKILL);
        int status = 0;
        (void)waitpid(static_cast<pid_t>(pid), &status, 0);
        ++stats_.fenced_workers;
      }
      w.pid = -1;
      w.alive = false;
      Status st = RestartShardInternal(s);  // respawns at manifest epoch+1
      if (st.ok()) {
        w.health.RecordRestart(stats_.ticks);
      } else {
        // Leave the shard cleanly dead; auto-restart (or a manual
        // RestartShard) retries on the backoff schedule.
        w.health.RecordRestartFailure(stats_.ticks);
      }
    }
  }
  ++stats_.recoveries;
  SaveManifest();
  return Status::OK();
}

void ProcessSupervisor::SaveManifest() {
  if (options_.manifest_path.empty()) return;
  SupervisorManifest manifest;
  manifest.num_shards = num_shards();
  manifest.service = options_.service;
  for (const Worker& w : workers_) {
    ShardManifestEntry e;
    e.epoch = w.epoch < 1 ? 1 : w.epoch;
    e.pid = w.pid;
    manifest.shards.push_back(e);
  }
  for (const TaskEntry& t : tasks_) {
    TaskManifestEntry e;
    e.id = t.id;
    e.shard = t.shard;
    e.periods = t.periods;
    e.spec = t.spec;
    manifest.tasks.push_back(std::move(e));
  }
  if (!SaveSupervisorManifest(options_.manifest_path, manifest).ok()) {
    ++stats_.manifest_failures;
  }
}

CheckpointReport ProcessSupervisor::CheckpointAll() {
  CheckpointReport report;
  for (int s = 0; s < num_shards(); ++s) {
    Worker& w = workers_[static_cast<size_t>(s)];
    if (!w.alive || !w.client->connected()) continue;
    auto response = w.client->Call(net::MsgKind::kCheckpoint, EmptyBody());
    if (!response.ok()) {
      ++report.failed;
      report.errors.push_back(response.status());
      if (response.status().code() == Status::Code::kUnavailable) {
        MarkWorkerDown(s);
      }
      continue;
    }
    if (const Json* r = response->Get("report")) {
      report.Merge(CheckpointReportFromJson(*r));
    }
  }
  return report;
}

HarvestReport ProcessSupervisor::HarvestDirty(int max_tasks_per_shard) {
  HarvestReport report;
  for (int s = 0; s < num_shards(); ++s) {
    Worker& w = workers_[static_cast<size_t>(s)];
    if (!w.alive || !w.client->connected()) continue;
    Json body = Json::Object();
    body.Set("max_tasks",
             Json::Number(static_cast<double>(max_tasks_per_shard)));
    auto response = w.client->Call(net::MsgKind::kHarvest, body);
    if (!response.ok()) {
      ++report.failed;
      report.errors.push_back(response.status());
      if (response.status().code() == Status::Code::kUnavailable) {
        MarkWorkerDown(s);
      }
      continue;
    }
    if (const Json* r = response->Get("report")) {
      report.Merge(HarvestReportFromJson(*r));
    }
  }
  return report;
}

Status ProcessSupervisor::HarvestTask(const std::string& id) {
  auto it = index_.find(id);
  if (it == index_.end()) return Status::NotFound("unknown task: " + id);
  const TaskEntry& task = tasks_[it->second];
  Worker& w = workers_[static_cast<size_t>(task.shard)];
  if (!w.alive || !w.client->connected()) {
    return Status::Unavailable("task has no live shard: " + id);
  }
  Json body = Json::Object();
  body.Set("id", Json::Str(id));
  return w.client->Call(net::MsgKind::kHarvest, body).status();
}

Result<Configuration> ProcessSupervisor::FetchSuggestion(
    const std::string& id) {
  auto it = index_.find(id);
  if (it == index_.end()) return Status::NotFound("unknown task: " + id);
  const TaskEntry& task = tasks_[it->second];
  Worker& w = workers_[static_cast<size_t>(task.shard)];
  if (!w.alive || !w.client->connected()) {
    return Status::Unavailable("task has no live shard: " + id);
  }
  Json body = Json::Object();
  body.Set("id", Json::Str(id));
  SPARKTUNE_ASSIGN_OR_RETURN(
      response, w.client->Call(net::MsgKind::kFetchSuggestion, body));
  const Json* config = response.Get("config");
  if (config == nullptr || !config->is_array()) {
    return Status::DataLoss("suggestion response has no config array");
  }
  std::vector<double> values;
  values.reserve(config->size());
  for (const Json& v : config->elements()) values.push_back(v.AsNumber());
  return Configuration(std::move(values));
}

Status ProcessSupervisor::Ping(int shard) {
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("no such shard");
  }
  Worker& w = workers_[static_cast<size_t>(shard)];
  if (!w.alive || !w.client || !w.client->connected()) {
    return Status::Unavailable(StrFormat("shard %d is down", shard));
  }
  return w.client->Call(net::MsgKind::kPing, EmptyBody()).status();
}

Status ProcessSupervisor::Shutdown() {
  Status first = Status::OK();
  for (int s = 0; s < num_shards(); ++s) {
    Worker& w = workers_[static_cast<size_t>(s)];
    if (w.pid <= 0) continue;
    bool acked = false;
    if (w.client && w.client->connected()) {
      acked = w.client->Call(net::MsgKind::kShutdown, EmptyBody()).ok();
    } else if (w.client && w.alive) {
      // Never-connected or redialable worker: one polite attempt.
      if (w.client->ConnectOnce().ok()) {
        acked = w.client->Call(net::MsgKind::kShutdown, EmptyBody()).ok();
      }
    }
    if (!acked) {
      kill(w.pid, SIGKILL);
      if (first.ok()) {
        first = Status::Unavailable(
            StrFormat("shard %d did not ack shutdown; killed", s));
      }
    }
    ReapWorker(s, /*block=*/true);
  }
  return first;
}

int ProcessSupervisor::num_live_shards() const {
  int live = 0;
  for (const Worker& w : workers_) {
    if (w.alive) ++live;
  }
  return live;
}

bool ProcessSupervisor::shard_alive(int shard) const {
  return shard >= 0 && shard < num_shards() &&
         workers_[static_cast<size_t>(shard)].alive;
}

int ProcessSupervisor::shard_of(const std::string& id) const {
  auto it = index_.find(id);
  return it == index_.end() ? -1 : tasks_[it->second].shard;
}

long long ProcessSupervisor::periods(const std::string& id) const {
  auto it = index_.find(id);
  return it == index_.end() ? -1 : tasks_[it->second].periods;
}

std::vector<std::string> ProcessSupervisor::task_ids() const {
  std::vector<std::string> ids;
  ids.reserve(tasks_.size());
  for (const TaskEntry& task : tasks_) ids.push_back(task.id);
  return ids;
}

ShardHealth ProcessSupervisor::shard_health(int shard) const {
  if (shard < 0 || shard >= num_shards()) return ShardHealth::kDown;
  return workers_[static_cast<size_t>(shard)].health.state();
}

long long ProcessSupervisor::shard_epoch(int shard) const {
  if (shard < 0 || shard >= num_shards()) return 0;
  return workers_[static_cast<size_t>(shard)].epoch;
}

long long ProcessSupervisor::total_quarantines() const {
  long long total = 0;
  for (const Worker& w : workers_) total += w.health.quarantines();
  return total;
}

net::ChaosStats ProcessSupervisor::chaos_stats() const {
  // Counters of the CURRENT client incarnations; a respawned shard's
  // fresh channel restarts from zero (indicative, not an exact ledger).
  net::ChaosStats total;
  for (const Worker& w : workers_) {
    if (!w.client) continue;
    const net::ChaosStats& s = w.client->chaos_stats();
    total.exchanges += s.exchanges;
    total.injected += s.injected;
    total.torn_writes += s.torn_writes;
    total.bit_flips += s.bit_flips;
    total.dup_frames += s.dup_frames;
    total.delays += s.delays;
    total.resets += s.resets;
  }
  return total;
}

}  // namespace sparktune
