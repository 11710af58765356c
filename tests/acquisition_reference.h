// Two earlier forms of the advisor's acquisition scoring, which the
// equivalence tests and bench_kernels hold EicScorer to bit for bit:
//
//   * MaximizeWithHooks: the wiring before the candidate scorer, an
//     EicAcquisition plus the safe and unsafety hooks, per point and
//     batched, handed to the hook form of AcquisitionOptimizer::Maximize.
//     It ranks runtime violation as u(x) / threshold - 1 at every
//     threshold, so its fallback agrees with EicScorer::Unsafety only for
//     a positive threshold (EicScorer ranks by u(x) - threshold
//     otherwise).
//   * FullFeatureScorer: EicScorer before it scored from rows conditioned
//     on the sub-space. It encodes each candidate's full features and
//     predicts each through the surrogate's per-point Predict, which walks
//     every feature of every training row (MixedKernel::Eval for a GP).
//     PredictBatch equals Predict bit for bit, but conditions rows as
//     EicScorer does, so the reference does not use it.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "bo/acq_optimizer.h"
#include "bo/acquisition.h"

namespace sparktune {
namespace reference {

class FullFeatureScorer final : public CandidateScorer {
 public:
  using EncodeFn = std::function<std::vector<double>(const Configuration&)>;

  FullFeatureScorer(EncodeFn encode, EicScorerOptions options)
      : encode_(std::move(encode)), options_(std::move(options)) {}

  CandidateScore Score(const Configuration& c) const override {
    if (!ResourceOk(c)) return {false, 0.0};
    const std::vector<double> x = encode_(c);
    std::optional<Prediction> rt;
    if (options_.runtime.surrogate != nullptr) {
      rt = options_.runtime.surrogate->Predict(x);
      if (options_.safety && !InSafeRegion(*rt)) return {false, 0.0};
    }
    return {true, Eic(options_.objective->Predict(x), rt ? &*rt : nullptr)};
  }

  std::vector<CandidateScore> ScoreBatch(
      const std::vector<Configuration>& cs) const override {
    std::vector<CandidateScore> out(cs.size(), CandidateScore{false, 0.0});
    std::vector<size_t> idx;
    std::vector<std::vector<double>> xs;
    for (size_t i = 0; i < cs.size(); ++i) {
      if (!ResourceOk(cs[i])) continue;
      idx.push_back(i);
      xs.push_back(encode_(cs[i]));
    }
    const Surrogate* runtime = options_.runtime.surrogate;
    std::vector<Prediction> rt;
    if (runtime != nullptr) {
      rt = PredictEach(*runtime, xs);
      if (options_.safety) {
        size_t kept = 0;
        for (size_t t = 0; t < idx.size(); ++t) {
          out[idx[t]].unsafety = std::max(0.0, RuntimeViolation(rt[t]));
          if (!InSafeRegion(rt[t])) continue;
          if (kept != t) {
            idx[kept] = idx[t];
            xs[kept] = std::move(xs[t]);
            rt[kept] = rt[t];
          }
          ++kept;
        }
        idx.resize(kept);
        xs.resize(kept);
        rt.resize(kept);
      }
    }
    if (idx.empty()) return out;
    const std::vector<Prediction> obj = PredictEach(*options_.objective, xs);
    for (size_t t = 0; t < idx.size(); ++t) {
      out[idx[t]].safe = true;
      out[idx[t]].acq = Eic(obj[t], runtime != nullptr ? &rt[t] : nullptr);
    }
    return out;
  }

  std::vector<double> Unsafety(
      const std::vector<Configuration>& cs) const override {
    std::vector<double> out(cs.size(), 0.0);
    if (!options_.safety) return out;
    if (options_.resource_fn) {
      for (size_t i = 0; i < cs.size(); ++i) {
        out[i] = std::max(
            out[i], options_.resource_fn(cs[i]) / options_.resource_max - 1.0);
      }
    }
    const Surrogate* runtime = options_.runtime.surrogate;
    if (runtime == nullptr) return out;
    std::vector<std::vector<double>> xs;
    for (const Configuration& c : cs) xs.push_back(encode_(c));
    const std::vector<Prediction> p = PredictEach(*runtime, xs);
    for (size_t i = 0; i < cs.size(); ++i) {
      out[i] = std::max(out[i], RuntimeViolation(p[i]));
    }
    return out;
  }

  double RawEi(const Configuration& c) const override {
    const Prediction p = options_.objective->Predict(encode_(c));
    return ExpectedImprovement(p.mean, p.variance, options_.incumbent);
  }

 private:
  static std::vector<Prediction> PredictEach(
      const Surrogate& model, const std::vector<std::vector<double>>& xs) {
    std::vector<Prediction> out;
    out.reserve(xs.size());
    for (const std::vector<double>& x : xs) out.push_back(model.Predict(x));
    return out;
  }
  bool ResourceOk(const Configuration& c) const {
    return !options_.resource_fn ||
           options_.resource_fn(c) <= options_.resource_max;
  }
  bool InSafeRegion(const Prediction& runtime) const {
    return UpperConfidenceBound(runtime, options_.gamma) <=
           options_.runtime.threshold;
  }
  double RuntimeViolation(const Prediction& runtime) const {
    const double u = UpperConfidenceBound(runtime, options_.gamma);
    const double threshold = options_.runtime.threshold;
    return threshold > 0.0 ? u / threshold - 1.0 : u - threshold;
  }
  double Eic(const Prediction& objective, const Prediction* runtime) const {
    const double ei = ExpectedImprovement(objective.mean, objective.variance,
                                          options_.incumbent);
    if (ei <= 0.0) return 0.0;
    if (runtime == nullptr) return ei;
    return ei * ProbabilityBelow(runtime->mean, runtime->variance,
                                 options_.runtime.threshold);
  }

  EncodeFn encode_;
  EicScorerOptions options_;
};

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
