// Wire bodies of the shard protocol (DESIGN.md §9): the JSON payloads that
// travel inside net/frame.h frames between the ProcessSupervisor control
// plane and sparktune_shardd workers.
//
// Everything a worker needs is described *by value* so a fork/exec'd
// process — or a SIGKILLed one's replacement — can rebuild identical
// state from the bytes alone: ServiceConfig rebuilds the shard's
// TuningService, SimTaskSpec rebuilds a task's evaluator stack (simulator
// plus fault injector), and response envelopes carry typed Status codes
// so client-side errors stay distinguishable from transport failures.
// Seeds ride as hex strings (JSON numbers are doubles and would drop low
// bits of a 64-bit word).
#pragma once

#include <memory>
#include <string>

#include "common/json.h"
#include "common/result.h"
#include "service/tuning_service.h"
#include "sparksim/cluster.h"
#include "tuner/fault_injection.h"

namespace sparktune {

// ---------------------------------------------------------------------------
// Status & envelopes.
// ---------------------------------------------------------------------------

const char* StatusCodeName(Status::Code code);

// {"ok":true} / {"ok":false,"code":...,"message":...}. Response handlers
// Set() additional fields onto the ok envelope.
Json OkEnvelope();
Json ErrorEnvelope(const Status& status);

// ---------------------------------------------------------------------------
// ServiceConfig: the wire-serializable subset of TuningServiceOptions a
// worker needs. Sent once per connection establishment (kConfigure);
// idempotent — re-configuring with identical bytes is OK, with different
// bytes kFailedPrecondition.
// ---------------------------------------------------------------------------

struct ServiceConfig {
  std::string cluster = "hibench";  // ClusterFromName key
  int budget = 20;
  double ei_stop_threshold = 0.10;
  bool expert_ranking = false;  // advisor seeded with ExpertParameterRanking
  bool measure_baseline = true;
  bool enable_meta = true;
  int min_tasks_for_transfer = 2;
  std::string repository_dir;  // empty = in-memory only (no recovery)
  int keep_generations = 2;
  int auto_checkpoint_periods = 0;
  bool checkpoint_on_phase_change = false;
  int num_threads = 1;  // the shard's ExecutePeriodicAll budget
  bool compact_event_logs = false;
};

Json ServiceConfigToJson(const ServiceConfig& config);
Result<ServiceConfig> ServiceConfigFromJson(const Json& j);
Result<ClusterSpec> ClusterFromName(const std::string& name);
// The in-process options a worker (or an oracle run in tests) builds its
// TuningService from.
TuningServiceOptions MakeServiceOptions(const ServiceConfig& config);

// ---------------------------------------------------------------------------
// SimTaskSpec: a task's evaluator described by value. BuildSimEvaluator
// composes SimulatorEvaluator + FaultInjectingEvaluator from seeds alone,
// so every rebuild (registration, respawn, oracle) is bit-identical.
// ---------------------------------------------------------------------------

struct SimTaskSpec {
  std::string workload;  // HiBenchTask name, e.g. "WordCount"
  uint64_t seed = 1;
  double period_hours = 1.0;
  bool datasize_observable = true;
  FaultInjectionOptions faults;  // all probabilities 0 = no injection
};

Json SimTaskSpecToJson(const SimTaskSpec& spec);
Result<SimTaskSpec> SimTaskSpecFromJson(const Json& j);
Result<std::unique_ptr<JobEvaluator>> BuildSimEvaluator(
    const ConfigSpace* space, const ClusterSpec& cluster,
    const SimTaskSpec& spec);

// ---------------------------------------------------------------------------
// Result slots & fleet reports.
// ---------------------------------------------------------------------------

// One ExecutePeriodicAll slot: {"obs":{...}} or {"status":{code,message}}.
// Decoding reconstructs the slot — including typed error slots (watchdog
// backoff kUnavailable etc.) — bit-identically; a malformed document
// decodes to a kDataLoss slot.
Json ResultSlotToJson(const Result<Observation>& slot);
Result<Observation> ResultSlotFromJson(const Json& j,
                                       const ConfigSpace& space);

// A count that is not an int decodes to kInvalidArgument.
Json CheckpointReportToJson(const CheckpointReport& report);
Result<CheckpointReport> CheckpointReportFromJson(const Json& j);
Json HarvestReportToJson(const HarvestReport& report);
Result<HarvestReport> HarvestReportFromJson(const Json& j);

}  // namespace sparktune
