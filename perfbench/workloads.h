// The benchmark's workloads: bo_tuning and transfer (listed in
// BENCHMARK.json) and rpc_fleet (run by hand; its multi-process ticks are
// too noisy on a shared host for a regression bound). Each is a closed
// loop: one client issues the next scheduling tick only after the previous
// tick returned (the paper's §6.2 service tick). A run repeats one fixed,
// seeded episode (set-up, then a fixed tick schedule) until its time is
// spent, so the figures of two builds cover identical work; the ticks of
// all episodes are pooled.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // Traced run: one traced episode, whose spans and layer replays give the
  // per-layer metrics, between two untraced ones.
  bool trace = false;
  int threads = 1;  // in-process service threads (ExecutePeriodicAll)
  // Trajectory digest recorded by an earlier run of the same seed; a
  // mismatch fails the run. Empty = no cross-run check.
  std::string expect_digest;
  // Scratch space for sockets, repositories and the span file; relative
  // paths keep Unix socket paths short.
  std::string work_dir = ".bench_build/work";
  std::string trace_out;  // span file (traced runs); empty = none
  std::string shardd;     // sparktune_shardd binary (rpc_fleet)
};

struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::string digest;  // episode trajectory digest (hex)
  std::vector<std::string> errors;
  Report report;
  // Context printed beside the result: fleet size, threads, processes...
  std::vector<std::pair<std::string, std::string>> context;
};

const std::vector<std::string>& WorkloadNames();

RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench
