// Synthetic production task populations standing in for the paper's 25K
// Tencent tasks (Figure 2, Tables 2-3). Each task is a periodic Spark or
// SparkSQL job with a plausibly over-provisioned "manual" configuration
// (what the paper's big-data engineers set before auto-tuning) and a
// diurnal data-size drift.
#pragma once

#include <string>
#include <vector>

#include "space/config_space.h"
#include "sparksim/cluster.h"
#include "sparksim/drift.h"
#include "sparksim/workload.h"

namespace sparktune {

struct ProductionTask {
  std::string id;
  WorkloadSpec workload;
  ClusterSpec cluster;
  DriftModel drift;
  // Manual configuration, expressed in the space BuildSparkSpace(cluster).
  Configuration manual_config;
  double period_hours = 1.0;  // 1 = hourly, 24 = daily
};

struct ProductionFleetOptions {
  int num_tasks = 2000;
};

// Generate `options.num_tasks` synthetic tasks. Deterministic in `seed`.
std::vector<ProductionTask> GenerateProductionFleet(
    const ProductionFleetOptions& options, uint64_t seed);

// The eight advertisement-business tasks of Table 2, with the paper's
// manual executor settings (instances/cores/memory) baked into the manual
// configurations. First four: daily Spark jobs; last four: hourly SparkSQL.
std::vector<ProductionTask> EightAdvertisementTasks();

}  // namespace sparktune
