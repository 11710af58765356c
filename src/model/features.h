// Feature encoding: Configuration (+ workload context) -> normalized
// surrogate input. Numeric/bool/categorical parameters map to unit-cube
// coordinates; workload context features (data size, or hour-of-day /
// day-of-week when data size is unobservable, §3.3) are appended as
// kDataSize-kind features handled by the SE kernel.
#pragma once

#include <vector>

#include "model/kernel.h"
#include "model/surrogate.h"
#include "space/config_space.h"
#include "space/subspace.h"

namespace sparktune {

// Kernel schema for `space` plus `num_context_features` trailing
// data-size/context features. Int/Float -> kNumeric; Categorical/Bool ->
// kCategorical.
std::vector<FeatureKind> BuildFeatureSchema(const ConfigSpace& space,
                                            int num_context_features = 0);

// Encode a configuration (unit-cube per parameter) and append the given
// pre-normalized context features.
std::vector<double> EncodeFeatures(const ConfigSpace& space,
                                   const Configuration& c,
                                   const std::vector<double>& context = {});

// The surrogate inputs of one sub-space's configurations, each the base
// with its free coordinates overwritten (every Subspace method that builds
// a configuration starts from the base). The base's features, context
// included, are encoded once (subspace()); a call encodes only the k free
// coordinates, in ascending order, and EncodeFeatures(sub.space(), c,
// context) is subspace().base with subspace().free[s] set to the s-th,
// bit for bit, for every c that holds the base's bits in its pinned
// coordinates.
class SubspaceEncoder {
 public:
  SubspaceEncoder(const Subspace& sub, const std::vector<double>& context);

  // Writes c's k free features to out[0], out[stride], ...
  void operator()(const Configuration& c, double* out,
                  size_t stride = 1) const;

  const FeatureSubspace& subspace() const { return features_; }
  size_t num_free() const { return features_.free.size(); }

 private:
  const ConfigSpace* space_;
  FeatureSubspace features_;
};

// Normalize a data size (GB) into a stable [0, ~1] coordinate:
// log1p(ds) / log1p(reference). Values above reference saturate >1 softly.
double NormalizeDataSize(double data_size_gb, double reference_gb);

// Context encoding for periodic jobs without visible data size: hour of day
// and day of week on the unit circle -> 2 features in [0,1].
std::vector<double> TimeOfDayContext(double hours_since_epoch);

}  // namespace sparktune
