// Simulated SparkEventLog: per-stage records with per-task metric
// distributions. This is the raw material for the paper's 75 meta-features
// (§5.1), mirroring what the event-log parser of Prats et al. extracts.
#pragma once

#include <string>
#include <vector>

#include "common/stats.h"
#include "sparksim/workload.h"

namespace sparktune {

// Distribution summary of one per-task metric within a stage run.
struct TaskMetricSummary {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double skewness = 0.0;
  double total = 0.0;
};

// One executed stage (all iterations of a StageSpec collapse into one
// record with iteration count).
struct StageLog {
  std::string name;
  StageOp op = StageOp::kMap;
  int num_tasks = 0;
  int iterations = 1;
  double duration_sec = 0.0;
  double input_mb = 0.0;
  double output_mb = 0.0;
  double shuffle_read_mb = 0.0;
  double shuffle_write_mb = 0.0;
  double spill_mb = 0.0;
  bool cached = false;

  // Per-task metric distributions.
  TaskMetricSummary task_duration_sec;
  TaskMetricSummary task_gc_sec;
  TaskMetricSummary task_shuffle_read_mb;
  TaskMetricSummary task_shuffle_write_mb;
  TaskMetricSummary task_spill_mb;
  TaskMetricSummary task_cpu_fraction;   // cpu time / task time
  TaskMetricSummary task_io_fraction;    // io+net time / task time
  TaskMetricSummary task_input_mb;
};

struct EventLog {
  std::string app_name;
  bool is_sql = false;
  double data_size_gb = 0.0;
  std::vector<StageLog> stages;

  // lint:allow(test-only-function) runtime_model_test checks log totals
  int TotalTasks() const;
  // lint:allow(test-only-function) runtime_model_test checks log totals
  double TotalShuffleMb() const;
  // lint:allow(test-only-function) runtime_model_test checks log totals
  double TotalSpillMb() const;
};

// Helper: summarize a sample vector into a TaskMetricSummary.
TaskMetricSummary Summarize(const std::vector<double>& samples);

// Sanity screen for event logs arriving from the execution substrate: a
// truncated log has no stages, a corrupted one carries non-finite or
// negative stage metrics. Consumers (meta-feature extraction) must skip
// logs that fail this check instead of learning from garbage.
bool EventLogLooksSane(const EventLog& log);

}  // namespace sparktune
