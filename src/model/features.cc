#include "model/features.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sparktune {

std::vector<FeatureKind> BuildFeatureSchema(const ConfigSpace& space,
                                            int num_context_features) {
  std::vector<FeatureKind> schema;
  schema.reserve(space.size() + static_cast<size_t>(num_context_features));
  for (const Parameter& p : space.params()) {
    schema.push_back(p.is_numeric() ? FeatureKind::kNumeric
                                    : FeatureKind::kCategorical);
  }
  for (int i = 0; i < num_context_features; ++i) {
    schema.push_back(FeatureKind::kDataSize);
  }
  return schema;
}

std::vector<double> EncodeFeatures(const ConfigSpace& space,
                                   const Configuration& c,
                                   const std::vector<double>& context) {
  std::vector<double> features = space.ToUnit(c);
  features.insert(features.end(), context.begin(), context.end());
  return features;
}

SubspaceEncoder::SubspaceEncoder(const Subspace& sub,
                                 const std::vector<double>& context)
    : space_(&sub.space()) {
  features_.base = EncodeFeatures(sub.space(), sub.base(), context);
  for (int idx : sub.free_indices()) {
    features_.free.push_back(static_cast<size_t>(idx));
  }
  std::sort(features_.free.begin(), features_.free.end());
}

void SubspaceEncoder::operator()(const Configuration& c, double* out,
                                 size_t stride) const {
  assert(c.size() == space_->size());
  for (size_t s = 0; s < features_.free.size(); ++s) {
    const size_t i = features_.free[s];
    out[s * stride] = space_->param(i).ToUnit(c[i]);
  }
}

double NormalizeDataSize(double data_size_gb, double reference_gb) {
  assert(reference_gb > 0.0);
  return std::log1p(std::max(0.0, data_size_gb)) / std::log1p(reference_gb);
}

std::vector<double> TimeOfDayContext(double hours_since_epoch) {
  double hour_of_day = std::fmod(hours_since_epoch, 24.0) / 24.0;
  double day_of_week = std::fmod(hours_since_epoch / 24.0, 7.0) / 7.0;
  return {hour_of_day, day_of_week};
}

}  // namespace sparktune
