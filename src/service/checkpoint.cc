#include "service/checkpoint.h"

#include <cmath>
#include <limits>

#include "service/data_repository.h"

namespace sparktune {

namespace {

// Infinity is a legal constraint value but not a legal JSON number: encode
// it by omission and default back to infinity on read.
void SetFiniteNumber(Json* j, const char* key, double v) {
  if (std::isfinite(v)) j->Set(key, Json::Number(v));
}

// Reads the integer at `key` into *out, 0 when the key is missing. A value
// that is not an integer in T's range is kDataLoss, like every other
// malformed part of a checkpoint.
template <typename T>
Status ReadInt(const Json& j, const char* key, T* out) {
  Result<T> v = j.GetIntOr<T>(key, 0);
  if (!v.ok()) {
    return Status::DataLoss("task checkpoint: " + v.status().message());
  }
  *out = *v;
  return Status::OK();
}

Json RngStateToJson(const RngState& s) {
  Json j = Json::Object();
  Json words = Json::Array();
  for (uint64_t w : s.state) words.Append(U64ToJson(w));
  j.Set("state", std::move(words));
  j.Set("has_cached_normal", Json::Bool(s.has_cached_normal));
  j.Set("cached_normal", Json::Number(s.cached_normal));
  return j;
}

Result<RngState> RngStateFromJson(const Json& j) {
  RngState s;
  const Json* words = j.Get("state");
  if (words == nullptr || !words->is_array() || words->size() != 4) {
    return Status::DataLoss("rng state: expected 4 hex words");
  }
  size_t i = 0;
  for (const auto& w : words->elements()) {
    if (!w.is_string()) return Status::DataLoss("rng state: non-string word");
    s.state[i++] = U64FromJson(&w, 0);
  }
  s.has_cached_normal = j.GetBoolOr("has_cached_normal", false);
  s.cached_normal = j.GetNumberOr("cached_normal", 0.0);
  return s;
}

Json SubspaceStateToJson(const SubspaceState& s) {
  Json j = Json::Object();
  j.Set("k", Json::Number(s.k));
  j.Set("succ_count", Json::Number(s.succ_count));
  j.Set("fail_count", Json::Number(s.fail_count));
  j.Set("importance", VectorToJson(s.importance));
  j.Set("importance_weight", Json::Number(s.importance_weight));
  j.Set("last_fanova_size", U64ToJson(s.last_fanova_size));
  return j;
}

Result<SubspaceState> SubspaceStateFromJson(const Json& j) {
  SubspaceState s;
  SPARKTUNE_RETURN_IF_ERROR(ReadInt(j, "k", &s.k));
  SPARKTUNE_RETURN_IF_ERROR(ReadInt(j, "succ_count", &s.succ_count));
  SPARKTUNE_RETURN_IF_ERROR(ReadInt(j, "fail_count", &s.fail_count));
  if (const Json* imp = j.Get("importance")) {
    s.importance = VectorFromJson(*imp);
  }
  s.importance_weight = j.GetNumberOr("importance_weight", 0.0);
  s.last_fanova_size = U64FromJson(j.Get("last_fanova_size"), 0);
  return s;
}

Json DegradationToJson(const DegradationStats& d) {
  Json j = Json::Object();
  j.Set("fit_failures", Json::Number(static_cast<double>(d.fit_failures)));
  j.Set("previous_model_reuses",
        Json::Number(static_cast<double>(d.previous_model_reuses)));
  j.Set("prior_only_fits",
        Json::Number(static_cast<double>(d.prior_only_fits)));
  j.Set("fallback_suggestions",
        Json::Number(static_cast<double>(d.fallback_suggestions)));
  return j;
}

Result<DegradationStats> DegradationFromJson(const Json& j) {
  DegradationStats d;
  SPARKTUNE_RETURN_IF_ERROR(ReadInt(j, "fit_failures", &d.fit_failures));
  SPARKTUNE_RETURN_IF_ERROR(
      ReadInt(j, "previous_model_reuses", &d.previous_model_reuses));
  SPARKTUNE_RETURN_IF_ERROR(ReadInt(j, "prior_only_fits", &d.prior_only_fits));
  SPARKTUNE_RETURN_IF_ERROR(
      ReadInt(j, "fallback_suggestions", &d.fallback_suggestions));
  return d;
}

Json AdvisorStateToJson(const AdvisorState& s) {
  Json j = Json::Object();
  j.Set("rng", RngStateToJson(s.rng));
  j.Set("init_sampler_generated", U64ToJson(s.init_sampler_generated));
  j.Set("subspace", SubspaceStateToJson(s.subspace));
  Json obs = Json::Array();
  for (const auto& o : s.observations) {
    obs.Append(DataRepository::ObservationToJson(o));
  }
  j.Set("observations", std::move(obs));
  Json warm = Json::Array();
  for (const auto& c : s.warm_start) warm.Append(VectorToJson(c.values()));
  j.Set("warm_start", std::move(warm));
  j.Set("init_served", U64ToJson(s.init_served));
  j.Set("use_time_context", Json::Bool(s.use_time_context));
  j.Set("degradation", DegradationToJson(s.degradation));
  return j;
}

Result<AdvisorState> AdvisorStateFromJson(const Json& j,
                                          const ConfigSpace& space) {
  AdvisorState s;
  const Json* rng = j.Get("rng");
  if (rng == nullptr || !rng->is_object()) {
    return Status::DataLoss("advisor state: missing rng");
  }
  SPARKTUNE_ASSIGN_OR_RETURN(rng_state, RngStateFromJson(*rng));
  s.rng = rng_state;
  s.init_sampler_generated = U64FromJson(j.Get("init_sampler_generated"), 0);
  if (const Json* sub = j.Get("subspace"); sub && sub->is_object()) {
    SPARKTUNE_ASSIGN_OR_RETURN(subspace, SubspaceStateFromJson(*sub));
    s.subspace = std::move(subspace);
  }
  if (const Json* obs = j.Get("observations"); obs && obs->is_array()) {
    for (const auto& e : obs->elements()) {
      auto o = DataRepository::ObservationFromJson(e, space);
      if (!o.ok()) return Status::DataLoss(o.status().message());
      s.observations.push_back(*std::move(o));
    }
  }
  if (const Json* warm = j.Get("warm_start"); warm && warm->is_array()) {
    for (const auto& e : warm->elements()) {
      if (!e.is_array() || e.size() != space.size()) {
        return Status::DataLoss("advisor state: warm-start width mismatch");
      }
      s.warm_start.emplace_back(VectorFromJson(e));
    }
  }
  s.init_served = U64FromJson(j.Get("init_served"), 0);
  s.use_time_context = j.GetBoolOr("use_time_context", false);
  if (const Json* deg = j.Get("degradation"); deg && deg->is_object()) {
    SPARKTUNE_ASSIGN_OR_RETURN(degradation, DegradationFromJson(*deg));
    s.degradation = degradation;
  }
  return s;
}

Json TunerStateToJson(const TunerState& s) {
  Json j = Json::Object();
  j.Set("phase", Json::Number(s.phase));
  SetFiniteNumber(&j, "runtime_max", s.runtime_max);
  SetFiniteNumber(&j, "resource_max", s.resource_max);
  if (s.baseline_obs.has_value()) {
    j.Set("baseline_obs", DataRepository::ObservationToJson(*s.baseline_obs));
  }
  j.Set("tuning_iterations", Json::Number(s.tuning_iterations));
  j.Set("executions", Json::Number(s.executions));
  j.Set("stopped_early", Json::Bool(s.stopped_early));
  j.Set("restarts", Json::Number(s.restarts));
  j.Set("degradation_streak", Json::Number(s.degradation_streak));
  if (s.pending_config.has_value()) {
    j.Set("pending_config", VectorToJson(s.pending_config->values()));
  }
  j.Set("pending_attempts", Json::Number(s.pending_attempts));
  j.Set("has_advisor", Json::Bool(s.has_advisor));
  if (s.has_advisor) j.Set("advisor", AdvisorStateToJson(s.advisor));
  return j;
}

Result<TunerState> TunerStateFromJson(const Json& j,
                                      const ConfigSpace& space) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  TunerState s;
  SPARKTUNE_RETURN_IF_ERROR(ReadInt(j, "phase", &s.phase));
  if (s.phase < 0 || s.phase > 2) {
    return Status::DataLoss("tuner state: phase out of range");
  }
  s.runtime_max = j.GetNumberOr("runtime_max", kInf);
  s.resource_max = j.GetNumberOr("resource_max", kInf);
  if (const Json* b = j.Get("baseline_obs"); b != nullptr) {
    auto o = DataRepository::ObservationFromJson(*b, space);
    if (!o.ok()) return Status::DataLoss(o.status().message());
    s.baseline_obs = *std::move(o);
  }
  SPARKTUNE_RETURN_IF_ERROR(
      ReadInt(j, "tuning_iterations", &s.tuning_iterations));
  SPARKTUNE_RETURN_IF_ERROR(ReadInt(j, "executions", &s.executions));
  s.stopped_early = j.GetBoolOr("stopped_early", false);
  SPARKTUNE_RETURN_IF_ERROR(ReadInt(j, "restarts", &s.restarts));
  SPARKTUNE_RETURN_IF_ERROR(
      ReadInt(j, "degradation_streak", &s.degradation_streak));
  if (const Json* pc = j.Get("pending_config"); pc != nullptr) {
    if (!pc->is_array() || pc->size() != space.size()) {
      return Status::DataLoss("tuner state: pending-config width mismatch");
    }
    s.pending_config = Configuration(VectorFromJson(*pc));
  }
  SPARKTUNE_RETURN_IF_ERROR(
      ReadInt(j, "pending_attempts", &s.pending_attempts));
  s.has_advisor = j.GetBoolOr("has_advisor", false);
  if (s.has_advisor) {
    const Json* adv = j.Get("advisor");
    if (adv == nullptr || !adv->is_object()) {
      return Status::DataLoss("tuner state: advisor payload missing");
    }
    SPARKTUNE_ASSIGN_OR_RETURN(advisor, AdvisorStateFromJson(*adv, space));
    s.advisor = std::move(advisor);
  }
  return s;
}

Json RetryStateToJson(const RetryState& s) {
  Json j = Json::Object();
  j.Set("consecutive_infra", Json::Number(s.consecutive_infra));
  j.Set("backoff_remaining", Json::Number(s.backoff_remaining));
  j.Set("parked", Json::Bool(s.parked));
  j.Set("park_cooldown", Json::Number(s.park_cooldown));
  j.Set("infra_failures",
        Json::Number(static_cast<double>(s.infra_failures)));
  j.Set("backoff_skips", Json::Number(static_cast<double>(s.backoff_skips)));
  j.Set("park_events", Json::Number(static_cast<double>(s.park_events)));
  j.Set("degraded_runs", Json::Number(static_cast<double>(s.degraded_runs)));
  return j;
}

Result<RetryState> RetryStateFromJson(const Json& j) {
  RetryState s;
  SPARKTUNE_RETURN_IF_ERROR(
      ReadInt(j, "consecutive_infra", &s.consecutive_infra));
  SPARKTUNE_RETURN_IF_ERROR(
      ReadInt(j, "backoff_remaining", &s.backoff_remaining));
  s.parked = j.GetBoolOr("parked", false);
  SPARKTUNE_RETURN_IF_ERROR(ReadInt(j, "park_cooldown", &s.park_cooldown));
  SPARKTUNE_RETURN_IF_ERROR(ReadInt(j, "infra_failures", &s.infra_failures));
  SPARKTUNE_RETURN_IF_ERROR(ReadInt(j, "backoff_skips", &s.backoff_skips));
  SPARKTUNE_RETURN_IF_ERROR(ReadInt(j, "park_events", &s.park_events));
  SPARKTUNE_RETURN_IF_ERROR(ReadInt(j, "degraded_runs", &s.degraded_runs));
  return s;
}

}  // namespace

Json TaskCheckpointToJson(const TaskCheckpoint& ckpt) {
  Json j = Json::Object();
  j.Set("id", Json::Str(ckpt.id));
  j.Set("tuner", TunerStateToJson(ckpt.tuner));
  Json samples = Json::Array();
  for (const auto& s : ckpt.meta_samples) samples.Append(VectorToJson(s));
  j.Set("meta_samples", std::move(samples));
  j.Set("meta_attached", Json::Bool(ckpt.meta_attached));
  j.Set("harvested", Json::Bool(ckpt.harvested));
  j.Set("harvested_size",
        Json::Number(static_cast<double>(ckpt.harvested_size)));
  j.Set("retry", RetryStateToJson(ckpt.retry));
  j.Set("periods", Json::Number(static_cast<double>(ckpt.periods)));
  return j;
}

Result<TaskCheckpoint> TaskCheckpointFromJson(const Json& j,
                                              const ConfigSpace& space) {
  if (!j.is_object()) {
    return Status::DataLoss("task checkpoint: not a JSON object");
  }
  TaskCheckpoint ckpt;
  ckpt.id = j.GetStringOr("id", "");
  if (ckpt.id.empty()) {
    return Status::DataLoss("task checkpoint: missing id");
  }
  const Json* tuner = j.Get("tuner");
  if (tuner == nullptr || !tuner->is_object()) {
    return Status::DataLoss("task checkpoint: missing tuner state");
  }
  SPARKTUNE_ASSIGN_OR_RETURN(tuner_state, TunerStateFromJson(*tuner, space));
  ckpt.tuner = std::move(tuner_state);
  if (const Json* samples = j.Get("meta_samples");
      samples && samples->is_array()) {
    for (const auto& e : samples->elements()) {
      ckpt.meta_samples.push_back(VectorFromJson(e));
    }
  }
  ckpt.meta_attached = j.GetBoolOr("meta_attached", false);
  ckpt.harvested = j.GetBoolOr("harvested", false);
  SPARKTUNE_RETURN_IF_ERROR(
      ReadInt(j, "harvested_size", &ckpt.harvested_size));
  if (const Json* retry = j.Get("retry"); retry && retry->is_object()) {
    SPARKTUNE_ASSIGN_OR_RETURN(retry_state, RetryStateFromJson(*retry));
    ckpt.retry = retry_state;
  }
  SPARKTUNE_RETURN_IF_ERROR(ReadInt(j, "periods", &ckpt.periods));
  return ckpt;
}

}  // namespace sparktune
