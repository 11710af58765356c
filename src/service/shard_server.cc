#include "service/shard_server.h"

#include "common/strings.h"
#include "net/channel.h"
#include "net/socket.h"
#include "service/data_repository.h"
#include "sparksim/spark_conf.h"

namespace sparktune {

Json ShardServer::Handle(net::MsgKind kind, const Json& body) {
  Result<Json> response = Dispatch(kind, body);
  if (!response.ok()) return ErrorEnvelope(response.status());
  return *std::move(response);
}

Result<Json> ShardServer::Dispatch(net::MsgKind kind, const Json& body) {
  switch (kind) {
    case net::MsgKind::kPing:
      return HandlePing();
    case net::MsgKind::kConfigure:
      return HandleConfigure(body);
    case net::MsgKind::kRegisterTask:
      return HandleRegisterTask(body);
    case net::MsgKind::kSubmitObservation:
      return HandleSubmitObservation(body);
    case net::MsgKind::kFetchSuggestion:
      return HandleFetchSuggestion(body);
    case net::MsgKind::kExecute:
      return HandleExecute(body);
    case net::MsgKind::kHarvest:
      return HandleHarvest(body);
    case net::MsgKind::kCheckpoint:
      return HandleCheckpoint();
    case net::MsgKind::kRestore:
      return HandleRestore(body);
    case net::MsgKind::kLoadRepository:
      return HandleLoadRepository();
    case net::MsgKind::kTaskStatus:
      return HandleTaskStatus();
    case net::MsgKind::kShutdown: {
      shutdown_ = true;
      return OkEnvelope();
    }
  }
  return Status::InvalidArgument(StrFormat(
      "unhandled message kind %d", static_cast<int>(kind)));
}

Status ShardServer::RequireConfigured() const {
  if (service_ == nullptr) {
    return Status::FailedPrecondition("shard is not configured yet");
  }
  return Status::OK();
}

Result<Json> ShardServer::HandlePing() {
  Json env = OkEnvelope();
  env.Set("configured", Json::Bool(configured()));
  env.Set("epoch", Json::Number(static_cast<double>(epoch_)));
  env.Set("num_tasks", Json::Number(
      service_ ? static_cast<double>(service_->num_tasks()) : 0.0));
  return env;
}

Result<Json> ShardServer::HandleConfigure(const Json& body) {
  const Json* config_json = body.Get("config");
  if (config_json == nullptr) {
    return Status::InvalidArgument("configure request has no config");
  }
  // Epoch fencing: a configure from an older epoch is a zombie control
  // plane and must not re-arm this worker; a newer (or equal) epoch
  // re-fences in place.
  SPARKTUNE_ASSIGN_OR_RETURN(epoch, body.GetIntOr<long long>("epoch", 0));
  if (epoch < epoch_) {
    return Status::FailedPrecondition(StrFormat(
        "stale epoch: worker fenced at %lld, configure carries %lld",
        epoch_, epoch));
  }
  SPARKTUNE_ASSIGN_OR_RETURN(config, ServiceConfigFromJson(*config_json));
  // Canonical bytes (our own codec's dump) make the idempotence check
  // independent of the client's key order or float formatting.
  const std::string bytes = ServiceConfigToJson(config).Dump();
  if (service_ != nullptr) {
    if (bytes == config_bytes_) {
      epoch_ = epoch;
      return OkEnvelope();
    }
    return Status::FailedPrecondition(
        "shard already configured with a different config");
  }
  epoch_ = epoch;
  SPARKTUNE_ASSIGN_OR_RETURN(cluster, ClusterFromName(config.cluster));
  config_ = config;
  config_bytes_ = bytes;
  cluster_ = cluster;
  space_ = BuildSparkSpace(cluster_);
  service_ =
      std::make_unique<TuningService>(&space_, MakeServiceOptions(config_));
  Json env = OkEnvelope();
  env.Set("space_size", Json::Number(static_cast<double>(space_.size())));
  return env;
}

Result<Json> ShardServer::HandleRegisterTask(const Json& body) {
  SPARKTUNE_RETURN_IF_ERROR(RequireConfigured());
  const std::string id = body.GetStringOr("id", "");
  if (id.empty()) {
    return Status::InvalidArgument("register request has no task id");
  }
  const Json* spec_json = body.Get("spec");
  if (spec_json == nullptr) {
    return Status::InvalidArgument("register request has no task spec");
  }
  SPARKTUNE_ASSIGN_OR_RETURN(spec, SimTaskSpecFromJson(*spec_json));
  SPARKTUNE_ASSIGN_OR_RETURN(evaluator,
                             BuildSimEvaluator(&space_, cluster_, spec));
  SPARKTUNE_RETURN_IF_ERROR(service_->RegisterTask(id, evaluator.get()));
  evaluators_[id] = std::move(evaluator);
  specs_[id] = spec;
  return OkEnvelope();
}

Result<Json> ShardServer::HandleSubmitObservation(const Json& body) {
  SPARKTUNE_RETURN_IF_ERROR(RequireConfigured());
  if (config_.repository_dir.empty()) {
    return Status::FailedPrecondition(
        "submit-observation needs a repository");
  }
  const std::string id = body.GetStringOr("id", "");
  if (id.empty()) {
    return Status::InvalidArgument("submit request has no task id");
  }
  if (service_->tuner(id) != nullptr) {
    return Status::FailedPrecondition(
        "task is registered here; its history is tuner-owned: " + id);
  }
  const Json* obs_json = body.Get("obs");
  if (obs_json == nullptr) {
    return Status::InvalidArgument("submit request has no observation");
  }
  SPARKTUNE_ASSIGN_OR_RETURN(
      obs, DataRepository::ObservationFromJson(*obs_json, space_));
  DataRepository repo(config_.repository_dir,
                      CheckpointRetention{config_.keep_generations});
  StoredTask task;
  if (repo.HasTask(id)) {
    SPARKTUNE_ASSIGN_OR_RETURN(loaded, repo.LoadTask(id, space_));
    task = std::move(loaded);
  } else {
    task.id = id;
  }
  task.history.Add(obs);
  SPARKTUNE_RETURN_IF_ERROR(repo.SaveTask(task));
  Json env = OkEnvelope();
  env.Set("observations",
          Json::Number(static_cast<double>(task.history.size())));
  return env;
}

Result<Json> ShardServer::HandleFetchSuggestion(const Json& body) {
  SPARKTUNE_RETURN_IF_ERROR(RequireConfigured());
  const std::string id = body.GetStringOr("id", "");
  const OnlineTuner* tuner = service_->tuner(id);
  if (tuner == nullptr) {
    return Status::NotFound("unknown task: " + id);
  }
  // Bind the incumbent before iterating: BestConfig() returns by value and
  // a range-for over `.values()` of the temporary would dangle.
  const Configuration best = tuner->BestConfig();
  Json config = Json::Array();
  for (double v : best.values()) {
    config.Append(Json::Number(v));
  }
  Json env = OkEnvelope();
  env.Set("config", std::move(config));
  env.Set("objective", Json::Number(tuner->BestObjective()));
  env.Set("phase", Json::Number(static_cast<int>(tuner->phase())));
  env.Set("iterations", Json::Number(tuner->tuning_iterations()));
  return env;
}

Result<Json> ShardServer::HandleExecute(const Json& body) {
  SPARKTUNE_RETURN_IF_ERROR(RequireConfigured());
  // Fencing: the token must match exactly. A request below our epoch is a
  // zombie control plane; a request above it means *we* are the zombie (we
  // missed a re-fence) — either way executing would fork the trajectory.
  if (body.Has("epoch")) {
    SPARKTUNE_ASSIGN_OR_RETURN(epoch, body.GetIntOr<long long>("epoch", 0));
    if (epoch != epoch_) {
      return Status::FailedPrecondition(StrFormat(
          "stale epoch: worker fenced at %lld, execute carries %lld",
          epoch_, epoch));
    }
  }
  const Json* ids_json = body.Get("ids");
  if (ids_json == nullptr || !ids_json->is_array()) {
    return Status::InvalidArgument("execute request has no ids array");
  }
  std::vector<std::string> ids;
  ids.reserve(ids_json->size());
  for (const Json& e : ids_json->elements()) {
    if (!e.is_string()) {
      return Status::InvalidArgument("execute ids must be strings");
    }
    ids.push_back(e.AsString());
  }
  std::vector<Result<Observation>> slots = service_->ExecutePeriodicAll(ids);
  Json jslots = Json::Array();
  // Post-execution period clocks ride with the results: if this process is
  // killed after executing but before the control plane reads the reply,
  // the respawned worker's checkpoint may be AHEAD of the control plane's
  // acked count — the control plane adopts worker-reported periods as
  // authoritative, so replay never rewinds a checkpoint.
  Json jperiods = Json::Array();
  for (size_t i = 0; i < slots.size(); ++i) {
    jslots.Append(ResultSlotToJson(slots[i]));
    jperiods.Append(
        Json::Number(static_cast<double>(service_->periods(ids[i]))));
  }
  Json env = OkEnvelope();
  env.Set("slots", std::move(jslots));
  env.Set("periods", std::move(jperiods));
  return env;
}

Result<Json> ShardServer::HandleHarvest(const Json& body) {
  SPARKTUNE_RETURN_IF_ERROR(RequireConfigured());
  SPARKTUNE_ASSIGN_OR_RETURN(max_tasks, body.GetIntOr<int>("max_tasks", 0));
  HarvestReport report = service_->HarvestDirty(max_tasks);
  Json env = OkEnvelope();
  env.Set("report", HarvestReportToJson(report));
  return env;
}

Result<Json> ShardServer::HandleCheckpoint() {
  SPARKTUNE_RETURN_IF_ERROR(RequireConfigured());
  CheckpointReport report = service_->CheckpointTasks();
  Json env = OkEnvelope();
  env.Set("report", CheckpointReportToJson(report));
  return env;
}

Result<Json> ShardServer::HandleRestore(const Json& body) {
  SPARKTUNE_RETURN_IF_ERROR(RequireConfigured());
  const std::string id = body.GetStringOr("id", "");
  if (service_->tuner(id) == nullptr) {
    return Status::NotFound("unknown task: " + id);
  }
  SPARKTUNE_ASSIGN_OR_RETURN(replay_to,
                             body.GetIntOr<long long>("replay_to", 0));
  bool restored = false;
  if (!config_.repository_dir.empty()) {
    Status rs = service_->RestoreTask(id);
    if (rs.ok()) {
      restored = true;
    } else if (rs.code() != Status::Code::kNotFound &&
               rs.code() != Status::Code::kDataLoss) {
      return rs;
    }
    // kNotFound (never checkpointed) and kDataLoss (no intact generation)
    // degrade to replay-from-scratch below.
  }
  // Deterministic catch-up to the control plane's acked period count: each
  // replayed period re-executes with the same fault schedule and advisor
  // draws it had the first time. A checkpoint AHEAD of replay_to (results
  // the dead incarnation computed but never delivered) is left alone.
  long long replayed = 0;
  while (service_->periods(id) < replay_to) {
    (void)service_->ExecutePeriodic(id);
    ++replayed;
  }
  Json env = OkEnvelope();
  env.Set("restored", Json::Bool(restored));
  env.Set("replayed", Json::Number(static_cast<double>(replayed)));
  env.Set("periods",
          Json::Number(static_cast<double>(service_->periods(id))));
  return env;
}

Result<Json> ShardServer::HandleLoadRepository() {
  SPARKTUNE_RETURN_IF_ERROR(RequireConfigured());
  // Best-effort: an empty repository is normal on first boot and must not
  // fail recovery.
  Status st = config_.repository_dir.empty()
                  ? Status::FailedPrecondition("no repository configured")
                  : service_->LoadRepository();
  Json env = OkEnvelope();
  env.Set("loaded", Json::Bool(st.ok()));
  env.Set("status", Json::Str(st.ToString()));
  return env;
}

Result<Json> ShardServer::HandleTaskStatus() {
  SPARKTUNE_RETURN_IF_ERROR(RequireConfigured());
  // Everything a fresh supervisor needs to re-adopt this worker after a
  // control-plane crash: the fencing epoch plus every task's spec and
  // authoritative period clock (specs_ is ordered, so the reply bytes are
  // deterministic).
  Json jtasks = Json::Array();
  for (const auto& [id, spec] : specs_) {
    Json t = Json::Object();
    t.Set("id", Json::Str(id));
    t.Set("periods",
          Json::Number(static_cast<double>(service_->periods(id))));
    t.Set("spec", SimTaskSpecToJson(spec));
    jtasks.Append(std::move(t));
  }
  Json env = OkEnvelope();
  env.Set("epoch", Json::Number(static_cast<double>(epoch_)));
  env.Set("tasks", std::move(jtasks));
  return env;
}

Status ServeShard(const std::string& socket_path, ShardServer* server,
                  int write_deadline_ms, net::ChaosChannel* chaos) {
  SPARKTUNE_ASSIGN_OR_RETURN(listen_fd, net::UnixListen(socket_path));
  while (!server->shutdown_requested()) {
    auto conn = net::UnixAccept(listen_fd.get(), /*deadline_ms=*/-1);
    if (!conn.ok()) {
      if (conn.status().code() == Status::Code::kUnavailable) continue;
      return conn.status();
    }
    // One connection at a time: the control plane is the only client, and
    // serial dispatch keeps worker-side execution single-threaded (the
    // TuningService's own thread pool handles intra-batch parallelism).
    while (!server->shutdown_requested()) {
      auto frame = net::ReadFrame(conn->get(), /*deadline_ms=*/-1);
      if (!frame.ok()) {
        // Peer disconnect (kUnavailable) goes back to accept; a torn or
        // malformed frame (kDataLoss/kInvalidArgument) also drops the
        // connection — the byte stream is unsynchronized and no reply can
        // be framed reliably. The worker itself survives either way.
        break;
      }
      Json body = Json::Object();
      Json response;
      auto doc = Json::Parse(frame->payload);
      if (doc.ok() && doc->is_object()) {
        response = server->Handle(frame->kind, *doc);
      } else {
        response = ErrorEnvelope(
            Status::InvalidArgument("request body is not a JSON object"));
      }
      const std::string reply = response.Dump();
      Status ws = chaos != nullptr
                      ? chaos->WriteFrame(conn->get(), frame->kind, reply,
                                          write_deadline_ms)
                      : net::WriteFrame(conn->get(), frame->kind, reply,
                                        write_deadline_ms);
      if (!ws.ok()) break;
    }
  }
  return Status::OK();
}

}  // namespace sparktune
