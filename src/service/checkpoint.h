// Task checkpoint codec (DESIGN.md §7): the JSON payload stored by
// DataRepository::SaveCheckpoint for each task. It captures everything a
// restarted service needs to resume the *identical* suggestion trajectory:
// the tuner phase machine, the advisor's history and RNG cursors, the
// meta-learning attachment flags, and the watchdog retry state.
//
// uint64 values (RNG words, sampler cursors) are serialized as hex strings:
// JSON numbers round-trip through double and would silently lose the low
// bits of a 64-bit state word.
#pragma once

#include "common/backoff.h"
#include "common/json.h"
#include "common/result.h"
#include "space/config_space.h"
#include "tuner/online_tuner.h"

namespace sparktune {

struct TaskCheckpoint {
  std::string id;
  TunerState tuner;
  std::vector<std::vector<double>> meta_samples;
  bool meta_attached = false;
  bool harvested = false;
  uint64_t harvested_size = 0;
  RetryState retry;
  // Periods (DecidePeriod calls, including backoff skips) the task had
  // consumed when the checkpoint was taken. A restarted shard uses this to
  // replay post-checkpoint periods deterministically after a kill.
  long long periods = 0;
};

Json TaskCheckpointToJson(const TaskCheckpoint& ckpt);
// `space` validates configuration widths; a malformed document yields
// kDataLoss so callers treat it like a corrupt checkpoint file.
Result<TaskCheckpoint> TaskCheckpointFromJson(const Json& j,
                                              const ConfigSpace& space);

}  // namespace sparktune
