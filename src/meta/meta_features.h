// Task characterization (paper §5.1): a 75-dimensional meta-feature vector
// extracted from the (simulated) SparkEventLog — 11 stage-level features
// describing the operator mix / DAG shape and 64 task-level features
// (8 per-task metrics x 8 distribution statistics), mirroring Prats et al.
#pragma once

#include <vector>

#include "sparksim/event_log.h"

namespace sparktune {

inline constexpr int kNumStageFeatures = 11;
inline constexpr int kNumTaskFeatures = 64;
inline constexpr int kNumMetaFeatures = kNumStageFeatures + kNumTaskFeatures;

// Extract the meta-feature vector from one execution's event log. Scale-
// heavy features are log1p-compressed so downstream models see bounded
// ranges.
std::vector<double> ExtractMetaFeatures(const EventLog& log);

}  // namespace sparktune
