// The advisor's acquisition wiring before the candidate scorer: an
// EicAcquisition plus the safe and unsafety hooks, per point and batched,
// that it handed to the hook form of AcquisitionOptimizer::Maximize. The
// equivalence tests and the acq_score row of bench_kernels hold
// EicScorer to it bit for bit.
//
// It ranks runtime violation as u(x) / threshold - 1 at every threshold,
// so its fallback agrees with EicScorer::Unsafety only for a positive
// threshold (EicScorer ranks by u(x) - threshold otherwise).
#pragma once

#include <algorithm>
#include <vector>

#include "bo/acq_optimizer.h"
#include "bo/acquisition.h"

namespace sparktune {
namespace reference {

// Maximizes through the hook form, wired from `o` as the advisor wired
// it: a runtime surrogate means the runtime constraint is on, a resource
// function the resource constraint, and `o.safety` enable_safety.
inline AcqOptResult MaximizeWithHooks(
    const AcquisitionOptimizer& opt, const Subspace& sub,
    const AcquisitionOptimizer::EncodeFn& encode, const EicScorerOptions& o,
    const RunHistory* history, Rng* rng) {
  const bool use_runtime_constraint = o.runtime.surrogate != nullptr;
  const bool use_resource_constraint = static_cast<bool>(o.resource_fn);
  const ProbabilisticConstraint& runtime_constraint = o.runtime;
  const double runtime_threshold = o.runtime.threshold;
  const double gamma = o.gamma;

  EicAcquisition acq(o.objective, o.incumbent);
  if (use_runtime_constraint) acq.AddConstraint(runtime_constraint);

  AcquisitionOptimizer::SafeFn safe;
  AcquisitionOptimizer::UnsafetyFn unsafety;
  AcquisitionOptimizer::SafeBatchFn safe_batch;
  AcquisitionOptimizer::UnsafetyBatchFn unsafety_batch;
  if (o.safety && (use_runtime_constraint || use_resource_constraint)) {
    safe = [&](const Configuration& c) {
      if (use_resource_constraint && o.resource_fn(c) > o.resource_max) {
        return false;
      }
      if (use_runtime_constraint &&
          !runtime_constraint.InSafeRegion(encode(c), gamma)) {
        return false;
      }
      return true;
    };
    unsafety = [&](const Configuration& c) {
      double worst = 0.0;
      if (use_resource_constraint) {
        worst = std::max(worst, o.resource_fn(c) / o.resource_max - 1.0);
      }
      if (use_runtime_constraint) {
        worst = std::max(
            worst,
            runtime_constraint.UpperBound(encode(c), gamma) /
                    runtime_threshold -
                1.0);
      }
      return worst;
    };
    safe_batch = [&](const std::vector<Configuration>& cs) {
      std::vector<char> out(cs.size(), 1);
      if (use_resource_constraint) {
        for (size_t j = 0; j < cs.size(); ++j) {
          if (o.resource_fn(cs[j]) > o.resource_max) out[j] = 0;
        }
      }
      if (use_runtime_constraint) {
        std::vector<size_t> idx;
        std::vector<std::vector<double>> feats;
        for (size_t j = 0; j < cs.size(); ++j) {
          if (!out[j]) continue;
          idx.push_back(j);
          feats.push_back(encode(cs[j]));
        }
        std::vector<double> up =
            runtime_constraint.UpperBoundBatch(feats, gamma);
        for (size_t t = 0; t < idx.size(); ++t) {
          if (up[t] > runtime_constraint.threshold) out[idx[t]] = 0;
        }
      }
      return out;
    };
    unsafety_batch = [&](const std::vector<Configuration>& cs) {
      std::vector<double> out(cs.size(), 0.0);
      if (use_resource_constraint) {
        for (size_t j = 0; j < cs.size(); ++j) {
          out[j] = std::max(out[j], o.resource_fn(cs[j]) / o.resource_max -
                                        1.0);
        }
      }
      if (use_runtime_constraint) {
        std::vector<std::vector<double>> feats;
        for (const Configuration& c : cs) feats.push_back(encode(c));
        std::vector<double> up =
            runtime_constraint.UpperBoundBatch(feats, gamma);
        for (size_t j = 0; j < cs.size(); ++j) {
          out[j] = std::max(out[j], up[j] / runtime_threshold - 1.0);
        }
      }
      return out;
    };
  } else if (use_resource_constraint) {
    // Without safety the white-box resource bound still holds.
    safe = [&](const Configuration& c) {
      return o.resource_fn(c) <= o.resource_max;
    };
  }
  return opt.Maximize(sub, encode, acq, safe, unsafety, history, rng,
                      safe_batch, unsafety_batch);
}

}  // namespace reference
}  // namespace sparktune
