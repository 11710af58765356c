// SparkSimulator: the execution substrate. Given a workload DAG, a decoded
// SparkConf and a data size, it produces runtime, resource usage and an
// event log, with the failure modes online tuning must avoid (executor OOM,
// container kill, driver OOM, no executors granted).
//
// The model is stage/wave-level, not packet-level: per stage it computes
// task counts, per-task time from CPU / disk / network / shuffle /
// serialization / compression components, a unified-memory spill model, GC
// pressure, straggler tails with optional speculation, and scheduling
// overheads. Parameter effects are deliberately interaction-heavy (e.g.
// executor memory x cores x memory.fraction determine spills) to reproduce
// the non-convex tuning landscapes the paper targets.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "sparksim/cluster.h"
#include "sparksim/event_log.h"
#include "sparksim/spark_conf.h"
#include "sparksim/workload.h"

namespace sparktune {

enum class SimFailureKind {
  kNone = 0,
  kNoExecutors,     // requested executor shape does not fit the cluster
  kExecutorOom,     // task working set blows past executor heap
  kContainerKill,   // off-heap usage exceeds memoryOverhead (YARN kill)
  kDriverOom,       // collect result exceeds driver memory
  kFetchTimeout,    // shuffle fetch exceeded spark.network.timeout
};

const char* SimFailureKindName(SimFailureKind kind);

struct ExecutionResult {
  double runtime_sec = 0.0;
  bool failed = false;
  SimFailureKind failure = SimFailureKind::kNone;

  // Allocation-based usage over the run (what the platform bills).
  double cpu_core_hours = 0.0;
  double memory_gb_hours = 0.0;
  // Instantaneous resource rate R(x) (paper Eq. 1 / §4.3).
  double resource_rate = 0.0;

  int granted_executors = 0;
  double data_size_gb = 0.0;
  EventLog event_log;
};

struct SimOptions {
  // Multiplicative lognormal noise sigma applied per stage (0 disables).
  double noise_sigma = 0.04;
  // Memory weight c in R(x) = instances*(cores + c*mem).
  double mem_weight = 0.5;
  // Failed runs report this multiple of the elapsed time at failure
  // (retries + late kill).
  double failure_overrun = 2.0;
};

class SparkSimulator {
 public:
  explicit SparkSimulator(ClusterSpec cluster, SimOptions options = {});

  const ClusterSpec& cluster() const { return cluster_; }
  const SimOptions& options() const { return options_; }

  // Execute `workload` with `conf` on `data_size_gb` of input. The seed
  // fully determines the run (noise, skew draws, failure draws).
  ExecutionResult Execute(const WorkloadSpec& workload, const SparkConf& conf,
                          double data_size_gb, uint64_t seed) const;

 private:
  ClusterSpec cluster_;
  SimOptions options_;
};

}  // namespace sparktune
