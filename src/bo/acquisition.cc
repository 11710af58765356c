#include "bo/acquisition.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>

#include "common/normal.h"

namespace sparktune {

double ExpectedImprovement(double mean, double variance, double best) {
  double sigma = std::sqrt(std::max(variance, 0.0));
  if (sigma < 1e-12) {
    return best > mean ? best - mean : 0.0;
  }
  double gamma = (best - mean) / sigma;
  return sigma * (gamma * NormCdf(gamma) + NormPdf(gamma));
}

double ProbabilityBelow(double mean, double variance, double threshold) {
  double sigma = std::sqrt(std::max(variance, 0.0));
  if (sigma < 1e-12) return mean <= threshold ? 1.0 : 0.0;
  return NormCdf((threshold - mean) / sigma);
}

double UpperConfidenceBound(const Prediction& p, double gamma) {
  return p.mean + gamma * std::sqrt(std::max(p.variance, 0.0));
}

double ProbabilisticConstraint::SatisfactionProbability(
    const std::vector<double>& features) const {
  assert(surrogate != nullptr);
  Prediction p = surrogate->Predict(features);
  return ProbabilityBelow(p.mean, p.variance, threshold);
}

std::vector<double> ProbabilisticConstraint::SatisfactionProbabilityBatch(
    const std::vector<std::vector<double>>& xs) const {
  assert(surrogate != nullptr);
  std::vector<Prediction> preds = surrogate->PredictBatch(xs);
  std::vector<double> out(xs.size());
  for (size_t j = 0; j < xs.size(); ++j) {
    out[j] = ProbabilityBelow(preds[j].mean, preds[j].variance, threshold);
  }
  return out;
}

double ProbabilisticConstraint::UpperBound(const std::vector<double>& features,
                                           double gamma) const {
  assert(surrogate != nullptr);
  return UpperConfidenceBound(surrogate->Predict(features), gamma);
}

std::vector<double> ProbabilisticConstraint::UpperBoundBatch(
    const std::vector<std::vector<double>>& xs, double gamma) const {
  assert(surrogate != nullptr);
  std::vector<Prediction> preds = surrogate->PredictBatch(xs);
  std::vector<double> out(xs.size());
  for (size_t j = 0; j < xs.size(); ++j) {
    out[j] = UpperConfidenceBound(preds[j], gamma);
  }
  return out;
}

bool ProbabilisticConstraint::InSafeRegion(const std::vector<double>& features,
                                           double gamma) const {
  return UpperBound(features, gamma) <= threshold;
}

EicAcquisition::EicAcquisition(const Surrogate* objective_surrogate,
                               double incumbent)
    : objective_(objective_surrogate), incumbent_(incumbent) {
  assert(objective_ != nullptr);
}

double EicAcquisition::RawEi(const std::vector<double>& features) const {
  Prediction p = objective_->Predict(features);
  return ExpectedImprovement(p.mean, p.variance, incumbent_);
}

double EicAcquisition::Eval(const std::vector<double>& features) const {
  double acq = RawEi(features);
  if (acq <= 0.0) return 0.0;
  for (const auto& c : constraints_) {
    acq *= c.SatisfactionProbability(features);
  }
  return acq;
}

std::vector<double> EicAcquisition::RawEiBatch(
    const std::vector<std::vector<double>>& xs) const {
  std::vector<Prediction> preds = objective_->PredictBatch(xs);
  std::vector<double> out(xs.size());
  for (size_t j = 0; j < xs.size(); ++j) {
    out[j] = ExpectedImprovement(preds[j].mean, preds[j].variance, incumbent_);
  }
  return out;
}

std::vector<double> EicAcquisition::EvalBatch(
    const std::vector<std::vector<double>>& xs) const {
  std::vector<double> out(xs.size(), 0.0);
  if (xs.empty()) return out;
  std::vector<double> ei = RawEiBatch(xs);
  // Constraint surrogates only score candidates with positive EI (Eval
  // never reaches the constraint product otherwise).
  std::vector<size_t> pos;
  std::vector<std::vector<double>> pos_x;
  for (size_t j = 0; j < xs.size(); ++j) {
    if (ei[j] > 0.0) {
      out[j] = ei[j];
      pos.push_back(j);
      pos_x.push_back(xs[j]);
    }
  }
  if (pos.empty()) return out;
  for (const auto& c : constraints_) {
    std::vector<double> probs = c.SatisfactionProbabilityBatch(pos_x);
    for (size_t t = 0; t < pos.size(); ++t) out[pos[t]] *= probs[t];
  }
  return out;
}

EicScorer::EicScorer(SubspaceEncoder encode, EicScorerOptions options)
    : encode_(std::move(encode)),
      options_(std::move(options)),
      free_(encode_.num_free()) {
  assert(options_.objective != nullptr);
  assert(!options_.resource_fn || options_.resource_max > 0.0);
  const FeatureSubspace& sub = encode_.subspace();
  const ConditionedRows* shared = nullptr;
  if (options_.runtime.surrogate != nullptr) {
    runtime_ = options_.runtime.surrogate->Condition(sub, nullptr);
    shared = runtime_->rows();
  }
  objective_ = options_.objective->Condition(sub, shared);
  shares_stats_ = shared != nullptr && objective_->rows() == shared;
  if (runtime_ != nullptr && runtime_->rows() != nullptr) {
    runtime_stats_.resize(runtime_->rows()->size());
  }
  if (!shares_stats_ && objective_->rows() != nullptr) {
    objective_stats_.resize(objective_->rows()->size());
  }
}

bool EicScorer::ResourceOk(const Configuration& c) const {
  return !options_.resource_fn ||
         options_.resource_fn(c) <= options_.resource_max;
}

bool EicScorer::InSafeRegion(const Prediction& runtime) const {
  return UpperConfidenceBound(runtime, options_.gamma) <=
         options_.runtime.threshold;
}

double EicScorer::RuntimeViolation(const Prediction& runtime) const {
  const double u = UpperConfidenceBound(runtime, options_.gamma);
  const double threshold = options_.runtime.threshold;
  return threshold > 0.0 ? u / threshold - 1.0 : u - threshold;
}

double EicScorer::Eic(const Prediction& objective,
                      const Prediction* runtime) const {
  const double ei = ExpectedImprovement(objective.mean, objective.variance,
                                        options_.incumbent);
  if (ei <= 0.0) return 0.0;
  if (runtime == nullptr) return ei;
  return ei * ProbabilityBelow(runtime->mean, runtime->variance,
                               options_.runtime.threshold);
}

std::vector<double> EicScorer::FreeColumns(
    const std::vector<Configuration>& cs,
    const std::vector<size_t>& idx) const {
  std::vector<double> cols(encode_.num_free() * idx.size());
  if (cols.empty()) return cols;  // no free feature: nothing to encode
  for (size_t t = 0; t < idx.size(); ++t) {
    encode_(cs[idx[t]], cols.data() + t, idx.size());
  }
  return cols;
}

const KernelPairStats* EicScorer::StatsFor(
    const ConditionedSurrogate& model,
    std::vector<KernelPairStats>* scratch) const {
  const ConditionedRows* rows = model.rows();
  if (rows == nullptr) return nullptr;
  rows->Stats(free_.data(), scratch->data());
  return scratch->data();
}

Prediction EicScorer::PredictObjective(
    const KernelPairStats* runtime_stats) const {
  const KernelPairStats* stats = shares_stats_
                                     ? runtime_stats
                                     : StatsFor(*objective_, &objective_stats_);
  return objective_->Predict(free_.data(), stats);
}

CandidateScore EicScorer::Score(const Configuration& c) const {
  if (!ResourceOk(c)) return {false, 0.0};
  encode_(c, free_.data());
  const KernelPairStats* runtime_stats = nullptr;
  std::optional<Prediction> rt;
  if (runtime_ != nullptr) {
    runtime_stats = StatsFor(*runtime_, &runtime_stats_);
    rt = runtime_->Predict(free_.data(), runtime_stats);
    if (options_.safety && !InSafeRegion(*rt)) return {false, 0.0};
  }
  return {true, Eic(PredictObjective(runtime_stats), rt ? &*rt : nullptr)};
}

std::vector<CandidateScore> EicScorer::ScoreBatch(
    const std::vector<Configuration>& cs) const {
  std::vector<CandidateScore> out(cs.size(), CandidateScore{false, 0.0});
  // The candidates still in the running: pool indices, free feature
  // columns and runtime predictions.
  std::vector<size_t> idx;
  idx.reserve(cs.size());
  for (size_t i = 0; i < cs.size(); ++i) {
    if (ResourceOk(cs[i])) idx.push_back(i);
  }
  std::vector<double> cols = FreeColumns(cs, idx);
  std::vector<Prediction> rt;
  if (runtime_ != nullptr) {
    rt = runtime_->PredictBatch(cols.data(), idx.size());
    if (options_.safety) {
      const size_t m = idx.size();
      std::vector<size_t> safe;
      for (size_t t = 0; t < m; ++t) {
        // Within R(x), the resource term of Unsafety is exactly 0.
        out[idx[t]].unsafety = std::max(0.0, RuntimeViolation(rt[t]));
        if (InSafeRegion(rt[t])) safe.push_back(t);
      }
      const size_t kept = safe.size();
      std::vector<double> safe_cols(encode_.num_free() * kept);
      for (size_t s = 0; s < encode_.num_free(); ++s) {
        for (size_t u = 0; u < kept; ++u) {
          safe_cols[s * kept + u] = cols[s * m + safe[u]];
        }
      }
      for (size_t u = 0; u < kept; ++u) {
        idx[u] = idx[safe[u]];
        rt[u] = rt[safe[u]];
      }
      idx.resize(kept);
      rt.resize(kept);
      cols = std::move(safe_cols);
    }
  }
  if (idx.empty()) return out;
  const std::vector<Prediction> obj =
      objective_->PredictBatch(cols.data(), idx.size());
  for (size_t t = 0; t < idx.size(); ++t) {
    out[idx[t]].safe = true;
    out[idx[t]].acq = Eic(obj[t], runtime_ != nullptr ? &rt[t] : nullptr);
  }
  return out;
}

std::vector<double> EicScorer::Unsafety(
    const std::vector<Configuration>& cs) const {
  std::vector<double> out(cs.size(), 0.0);
  if (!options_.safety) return out;
  if (options_.resource_fn) {
    for (size_t i = 0; i < cs.size(); ++i) {
      out[i] = std::max(
          out[i], options_.resource_fn(cs[i]) / options_.resource_max - 1.0);
    }
  }
  if (runtime_ == nullptr) return out;
  std::vector<size_t> all(cs.size());
  for (size_t i = 0; i < cs.size(); ++i) all[i] = i;
  const std::vector<double> cols = FreeColumns(cs, all);
  const std::vector<Prediction> p =
      runtime_->PredictBatch(cols.data(), cs.size());
  for (size_t i = 0; i < cs.size(); ++i) {
    out[i] = std::max(out[i], RuntimeViolation(p[i]));
  }
  return out;
}

double EicScorer::RawEi(const Configuration& c) const {
  encode_(c, free_.data());
  // Shared statistics are the runtime surrogate's to compute.
  const Prediction p = PredictObjective(
      shares_stats_ ? StatsFor(*runtime_, &runtime_stats_) : nullptr);
  return ExpectedImprovement(p.mean, p.variance, options_.incumbent);
}

}  // namespace sparktune
