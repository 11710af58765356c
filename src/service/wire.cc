#include "service/wire.h"

#include "sparksim/hibench.h"
#include "sparksim/spark_conf.h"
#include "tuner/evaluator.h"

namespace sparktune {
namespace {

int GetIntOr(const Json& j, const std::string& key, int fallback) {
  return static_cast<int>(j.GetNumberOr(key, fallback));
}

}  // namespace

// ---------------------------------------------------------------------------
// Status & envelopes.
// ---------------------------------------------------------------------------

const char* StatusCodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "OK";
    case Status::Code::kInvalidArgument:
      return "InvalidArgument";
    case Status::Code::kNotFound:
      return "NotFound";
    case Status::Code::kOutOfRange:
      return "OutOfRange";
    case Status::Code::kFailedPrecondition:
      return "FailedPrecondition";
    case Status::Code::kInternal:
      return "Internal";
    case Status::Code::kUnavailable:
      return "Unavailable";
    case Status::Code::kDataLoss:
      return "DataLoss";
  }
  return "Internal";
}

namespace {

Status::Code StatusCodeFromName(const std::string& name) {
  if (name == "OK") return Status::Code::kOk;
  if (name == "InvalidArgument") return Status::Code::kInvalidArgument;
  if (name == "NotFound") return Status::Code::kNotFound;
  if (name == "OutOfRange") return Status::Code::kOutOfRange;
  if (name == "FailedPrecondition") return Status::Code::kFailedPrecondition;
  if (name == "Unavailable") return Status::Code::kUnavailable;
  if (name == "DataLoss") return Status::Code::kDataLoss;
  return Status::Code::kInternal;
}

}  // namespace

Json OkEnvelope() {
  Json j = Json::Object();
  j.Set("ok", Json::Bool(true));
  return j;
}

Json ErrorEnvelope(const Status& status) {
  Json j = Json::Object();
  j.Set("ok", Json::Bool(false));
  j.Set("code", Json::Str(StatusCodeName(status.code())));
  j.Set("message", Json::Str(status.message()));
  return j;
}

// ---------------------------------------------------------------------------
// ServiceConfig.
// ---------------------------------------------------------------------------

Json ServiceConfigToJson(const ServiceConfig& config) {
  Json j = Json::Object();
  j.Set("cluster", Json::Str(config.cluster));
  j.Set("budget", Json::Number(config.budget));
  j.Set("ei_stop_threshold", Json::Number(config.ei_stop_threshold));
  j.Set("expert_ranking", Json::Bool(config.expert_ranking));
  j.Set("measure_baseline", Json::Bool(config.measure_baseline));
  j.Set("enable_meta", Json::Bool(config.enable_meta));
  j.Set("min_tasks_for_transfer",
        Json::Number(config.min_tasks_for_transfer));
  j.Set("repository_dir", Json::Str(config.repository_dir));
  j.Set("keep_generations", Json::Number(config.keep_generations));
  j.Set("auto_checkpoint_periods",
        Json::Number(config.auto_checkpoint_periods));
  j.Set("checkpoint_on_phase_change",
        Json::Bool(config.checkpoint_on_phase_change));
  j.Set("num_threads", Json::Number(config.num_threads));
  j.Set("compact_event_logs", Json::Bool(config.compact_event_logs));
  return j;
}

Result<ServiceConfig> ServiceConfigFromJson(const Json& j) {
  if (!j.is_object()) {
    return Status::InvalidArgument("service config is not a JSON object");
  }
  ServiceConfig config;
  config.cluster = j.GetStringOr("cluster", config.cluster);
  config.budget = GetIntOr(j, "budget", config.budget);
  config.ei_stop_threshold =
      j.GetNumberOr("ei_stop_threshold", config.ei_stop_threshold);
  config.expert_ranking = j.GetBoolOr("expert_ranking", config.expert_ranking);
  config.measure_baseline =
      j.GetBoolOr("measure_baseline", config.measure_baseline);
  config.enable_meta = j.GetBoolOr("enable_meta", config.enable_meta);
  config.min_tasks_for_transfer =
      GetIntOr(j, "min_tasks_for_transfer", config.min_tasks_for_transfer);
  config.repository_dir =
      j.GetStringOr("repository_dir", config.repository_dir);
  config.keep_generations =
      GetIntOr(j, "keep_generations", config.keep_generations);
  config.auto_checkpoint_periods =
      GetIntOr(j, "auto_checkpoint_periods", config.auto_checkpoint_periods);
  config.checkpoint_on_phase_change = j.GetBoolOr(
      "checkpoint_on_phase_change", config.checkpoint_on_phase_change);
  config.num_threads = GetIntOr(j, "num_threads", config.num_threads);
  config.compact_event_logs =
      j.GetBoolOr("compact_event_logs", config.compact_event_logs);
  SPARKTUNE_RETURN_IF_ERROR(ClusterFromName(config.cluster).status());
  return config;
}

Result<ClusterSpec> ClusterFromName(const std::string& name) {
  if (name == "hibench") return ClusterSpec::HiBenchCluster();
  return Status::InvalidArgument("unknown cluster spec: " + name);
}

TuningServiceOptions MakeServiceOptions(const ServiceConfig& config) {
  TuningServiceOptions options;
  options.tuner.budget = config.budget;
  options.tuner.ei_stop_threshold = config.ei_stop_threshold;
  options.tuner.measure_baseline = config.measure_baseline;
  if (config.expert_ranking) {
    options.tuner.advisor.expert_ranking = ExpertParameterRanking();
  }
  options.enable_meta = config.enable_meta;
  options.min_tasks_for_transfer = config.min_tasks_for_transfer;
  options.repository_dir = config.repository_dir;
  options.checkpoint_retention.keep_generations = config.keep_generations;
  options.auto_checkpoint_periods = config.auto_checkpoint_periods;
  options.checkpoint_on_phase_change = config.checkpoint_on_phase_change;
  options.num_threads = config.num_threads;
  options.compact_event_logs = config.compact_event_logs;
  return options;
}

// ---------------------------------------------------------------------------
// SimTaskSpec.
// ---------------------------------------------------------------------------

Json SimTaskSpecToJson(const SimTaskSpec& spec) {
  Json j = Json::Object();
  j.Set("workload", Json::Str(spec.workload));
  j.Set("seed", U64ToJson(spec.seed));
  j.Set("period_hours", Json::Number(spec.period_hours));
  j.Set("datasize_observable", Json::Bool(spec.datasize_observable));
  Json f = Json::Object();
  f.Set("seed", U64ToJson(spec.faults.seed));
  f.Set("crash_prob", Json::Number(spec.faults.crash_prob));
  f.Set("transient_error_prob",
        Json::Number(spec.faults.transient_error_prob));
  f.Set("hang_prob", Json::Number(spec.faults.hang_prob));
  f.Set("corrupt_log_prob", Json::Number(spec.faults.corrupt_log_prob));
  f.Set("truncate_log_prob", Json::Number(spec.faults.truncate_log_prob));
  f.Set("hang_runtime_factor", Json::Number(spec.faults.hang_runtime_factor));
  j.Set("faults", std::move(f));
  return j;
}

Result<SimTaskSpec> SimTaskSpecFromJson(const Json& j) {
  if (!j.is_object()) {
    return Status::InvalidArgument("task spec is not a JSON object");
  }
  SimTaskSpec spec;
  spec.workload = j.GetStringOr("workload", "");
  if (spec.workload.empty()) {
    return Status::InvalidArgument("task spec has no workload");
  }
  SPARKTUNE_RETURN_IF_ERROR(HiBenchTask(spec.workload).status());
  spec.seed = U64FromJson(j.Get("seed"), spec.seed);
  spec.period_hours = j.GetNumberOr("period_hours", spec.period_hours);
  spec.datasize_observable =
      j.GetBoolOr("datasize_observable", spec.datasize_observable);
  if (const Json* f = j.Get("faults"); f != nullptr && f->is_object()) {
    spec.faults.seed = U64FromJson(f->Get("seed"), spec.faults.seed);
    spec.faults.crash_prob =
        f->GetNumberOr("crash_prob", spec.faults.crash_prob);
    spec.faults.transient_error_prob = f->GetNumberOr(
        "transient_error_prob", spec.faults.transient_error_prob);
    spec.faults.hang_prob = f->GetNumberOr("hang_prob", spec.faults.hang_prob);
    spec.faults.corrupt_log_prob =
        f->GetNumberOr("corrupt_log_prob", spec.faults.corrupt_log_prob);
    spec.faults.truncate_log_prob =
        f->GetNumberOr("truncate_log_prob", spec.faults.truncate_log_prob);
    spec.faults.hang_runtime_factor =
        f->GetNumberOr("hang_runtime_factor", spec.faults.hang_runtime_factor);
  }
  return spec;
}

namespace {

// Owning simulator + fault-injector composite. Faults are injected even
// when all probabilities are zero: a zero-prob injector is a pass-through
// whose schedule cursor still advances deterministically, keeping the
// composition uniform.
class SimTaskEvaluator final : public JobEvaluator {
 public:
  SimTaskEvaluator(const ConfigSpace* space, WorkloadSpec workload,
                   const ClusterSpec& cluster, SimulatorEvaluatorOptions opts,
                   const FaultInjectionOptions& faults)
      : sim_(space, std::move(workload), cluster, DriftModel::Diurnal(),
             opts),
        faulty_(&sim_, faults) {}

  Outcome Run(const Configuration& config) override {
    return faulty_.Run(config);
  }
  double ResourceRate(const Configuration& config) const override {
    return faulty_.ResourceRate(config);
  }
  double NextDataSizeHintGb() const override {
    return faulty_.NextDataSizeHintGb();
  }
  double NextHours() const override { return faulty_.NextHours(); }
  void SkipExecutions(int n) override { faulty_.SkipExecutions(n); }

 private:
  SimulatorEvaluator sim_;
  FaultInjectingEvaluator faulty_;
};

}  // namespace

Result<std::unique_ptr<JobEvaluator>> BuildSimEvaluator(
    const ConfigSpace* space, const ClusterSpec& cluster,
    const SimTaskSpec& spec) {
  SPARKTUNE_ASSIGN_OR_RETURN(workload, HiBenchTask(spec.workload));
  SimulatorEvaluatorOptions opts;
  opts.period_hours = spec.period_hours;
  opts.datasize_observable = spec.datasize_observable;
  opts.seed = spec.seed;
  return std::unique_ptr<JobEvaluator>(new SimTaskEvaluator(
      space, std::move(workload), cluster, opts, spec.faults));
}

// ---------------------------------------------------------------------------
// Result slots & fleet reports.
// ---------------------------------------------------------------------------

Json ResultSlotToJson(const Result<Observation>& slot) {
  Json j = Json::Object();
  if (slot.ok()) {
    j.Set("obs", DataRepository::ObservationToJson(*slot));
  } else {
    Json st = Json::Object();
    st.Set("code", Json::Str(StatusCodeName(slot.status().code())));
    st.Set("message", Json::Str(slot.status().message()));
    j.Set("status", std::move(st));
  }
  return j;
}

Result<Observation> ResultSlotFromJson(const Json& j,
                                       const ConfigSpace& space) {
  if (!j.is_object()) {
    return Status::DataLoss("result slot is not a JSON object");
  }
  if (const Json* obs = j.Get("obs"); obs != nullptr) {
    return DataRepository::ObservationFromJson(*obs, space);
  }
  const Json* st = j.Get("status");
  if (st == nullptr || !st->is_object()) {
    return Status::DataLoss("result slot has neither obs nor status");
  }
  return Status(StatusCodeFromName(st->GetStringOr("code", "Internal")),
                st->GetStringOr("message", "(no message)"));
}

Json CheckpointReportToJson(const CheckpointReport& report) {
  Json j = Json::Object();
  j.Set("written", Json::Number(report.written));
  j.Set("skipped", Json::Number(report.skipped));
  j.Set("failed", Json::Number(report.failed));
  Json errors = Json::Array();
  for (const Status& st : report.errors) {
    errors.Append(Json::Str(st.ToString()));
  }
  j.Set("errors", std::move(errors));
  return j;
}

CheckpointReport CheckpointReportFromJson(const Json& j) {
  CheckpointReport report;
  if (!j.is_object()) return report;
  report.written = GetIntOr(j, "written", 0);
  report.skipped = GetIntOr(j, "skipped", 0);
  report.failed = GetIntOr(j, "failed", 0);
  if (const Json* errors = j.Get("errors"); errors && errors->is_array()) {
    for (const Json& e : errors->elements()) {
      if (e.is_string()) report.errors.push_back(Status::Internal(e.AsString()));
    }
  }
  return report;
}

Json HarvestReportToJson(const HarvestReport& report) {
  Json j = Json::Object();
  j.Set("attempted", Json::Number(report.attempted));
  j.Set("harvested", Json::Number(report.harvested));
  j.Set("deferred", Json::Number(report.deferred));
  j.Set("failed", Json::Number(report.failed));
  Json errors = Json::Array();
  for (const Status& st : report.errors) {
    errors.Append(Json::Str(st.ToString()));
  }
  j.Set("errors", std::move(errors));
  return j;
}

HarvestReport HarvestReportFromJson(const Json& j) {
  HarvestReport report;
  if (!j.is_object()) return report;
  report.attempted = GetIntOr(j, "attempted", 0);
  report.harvested = GetIntOr(j, "harvested", 0);
  report.deferred = GetIntOr(j, "deferred", 0);
  report.failed = GetIntOr(j, "failed", 0);
  if (const Json* errors = j.Get("errors"); errors && errors->is_array()) {
    for (const Json& e : errors->elements()) {
      if (e.is_string()) report.errors.push_back(Status::Internal(e.AsString()));
    }
  }
  return report;
}

}  // namespace sparktune
