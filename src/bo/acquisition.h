// Acquisition functions (paper §3.3 Eq. 3, §4.2 Eq. 6-8): Expected
// Improvement, EI with Constraints, the safe-region upper bound test, and
// the candidate scorer that evaluates the last two from one prediction.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "model/features.h"
#include "model/kernel.h"
#include "model/surrogate.h"
#include "space/config_space.h"

namespace sparktune {

// Closed-form EI for minimization: E[max(best - y, 0)] under
// y ~ N(mean, variance).
double ExpectedImprovement(double mean, double variance, double best);

// Pr[g(x) <= threshold] under g ~ N(mean, variance).
double ProbabilityBelow(double mean, double variance, double threshold);

// The Eq. 8 upper bound u(x) = mu(x) + gamma * sigma(x) of one prediction.
double UpperConfidenceBound(const Prediction& p, double gamma);

// One probabilistic inequality constraint g(x) <= threshold, with g modeled
// by a surrogate over the same feature encoding as the objective.
struct ProbabilisticConstraint {
  const Surrogate* surrogate = nullptr;
  double threshold = 0.0;

  double SatisfactionProbability(const std::vector<double>& features) const;
  // One surrogate PredictBatch for the whole pool; out[i] equals
  // SatisfactionProbability(xs[i]) bit-for-bit.
  std::vector<double> SatisfactionProbabilityBatch(
      const std::vector<std::vector<double>>& xs) const;

  // Safe-region membership (Eq. 8): mu(x) + gamma * sigma(x) <= threshold.
  bool InSafeRegion(const std::vector<double>& features, double gamma) const;
  // The upper bound u(x) itself (for "least unsafe" fallbacks).
  double UpperBound(const std::vector<double>& features, double gamma) const;
  // Batched upper bounds; out[i] == UpperBound(xs[i], gamma) bit-for-bit.
  std::vector<double> UpperBoundBatch(
      const std::vector<std::vector<double>>& xs, double gamma) const;
};

// EIC acquisition (Eq. 6): EI(x) * prod_i Pr[constraint_i satisfied].
class EicAcquisition {
 public:
  EicAcquisition(const Surrogate* objective_surrogate, double incumbent);

  void AddConstraint(ProbabilisticConstraint c) {
    constraints_.push_back(c);
  }

  double Eval(const std::vector<double>& features) const;
  // EI alone (no constraint weighting), for the stopping criterion.
  double RawEi(const std::vector<double>& features) const;

  // Batched evaluation over a candidate pool: one objective PredictBatch,
  // then one constraint-surrogate PredictBatch per constraint restricted to
  // candidates with EI > 0. out[i] == Eval(xs[i]) bit-for-bit.
  std::vector<double> EvalBatch(
      const std::vector<std::vector<double>>& xs) const;
  // Batched RawEi; out[i] == RawEi(xs[i]) bit-for-bit.
  std::vector<double> RawEiBatch(
      const std::vector<std::vector<double>>& xs) const;

  const std::vector<ProbabilisticConstraint>& constraints() const {
    return constraints_;
  }

 private:
  const Surrogate* objective_;
  double incumbent_;
  std::vector<ProbabilisticConstraint> constraints_;
};

// What the acquisition optimizer learns about one candidate.
struct CandidateScore {
  CandidateScore() = default;
  CandidateScore(bool safe, double acq,
                 std::optional<double> unsafety = std::nullopt)
      : safe(safe), acq(acq), unsafety(unsafety) {}

  bool safe = true;
  // EIC (Eq. 6) of a safe candidate; 0 for an unsafe one.
  double acq = 0.0;
  // The candidate's Unsafety, bit for bit, when scoring it already told
  // (EicScorer: from the runtime bound of a candidate that passed R(x));
  // empty when only an Unsafety call can tell.
  std::optional<double> unsafety;
};

// Scores acquisition candidates for AcquisitionOptimizer::Maximize.
// A candidate's score never depends on which candidates were scored before
// it: implementations keep no mutable state beyond scratch buffers that
// each call overwrites before reading.
class CandidateScorer {
 public:
  virtual ~CandidateScorer() = default;

  // One pass over a candidate pool. out[i].safe and out[i].acq are
  // bit-identical to Score(cs[i])'s, and out[i] does not depend on how
  // the pool is split into batches.
  virtual std::vector<CandidateScore> ScoreBatch(
      const std::vector<Configuration>& cs) const = 0;
  virtual CandidateScore Score(const Configuration& c) const = 0;
  // Degree of safe-region violation per candidate (<= 0 means safe). It
  // only ranks fallback candidates when none is safe: the least unsafe
  // wins, the first on ties. Maximize calls it lazily, only for the
  // candidates whose ScoreBatch score left the unsafety unknown.
  virtual std::vector<double> Unsafety(
      const std::vector<Configuration>& cs) const = 0;
  // EI without constraint weighting (the stopping-criterion input).
  virtual double RawEi(const Configuration& c) const = 0;
};

struct EicScorerOptions {
  const Surrogate* objective = nullptr;
  double incumbent = 0.0;
  // Probabilistic runtime constraint; Pr[runtime <= threshold] weights EI
  // (Eq. 6). A null surrogate means no runtime constraint.
  ProbabilisticConstraint runtime;
  // White-box resource constraint R(x) <= resource_max (positive): a
  // candidate over it is never safe. Null means no resource constraint.
  std::function<double(const Configuration&)> resource_fn;
  double resource_max = std::numeric_limits<double>::infinity();
  // Safe exploration (Eq. 8): a safe candidate also needs the runtime
  // upper bound u(x) <= threshold, and Unsafety ranks violations. Without
  // it Unsafety is 0 everywhere, so the fallback takes the first
  // candidate.
  bool safety = false;
  double gamma = 0.5;
};

// The production scorer, for the candidates of one sub-space search. Per
// candidate: one R(x) check, then the k free features and one prediction
// per surrogate. The one runtime prediction gives the Eq. 8 test, the EIC
// factor Phi((threshold - mu) / sigma) and, with safety on, the
// candidate's unsafety; the objective is predicted only for a safe
// candidate. Each surrogate is conditioned on the sub-space once, at
// construction (Surrogate::Condition): when the objective is fit on the
// runtime GP's rows (the advisor's two GPs, or its meta-ensemble's
// current-task GP), a climb step computes the rows' statistics once for
// both. The pool streams each surrogate's statistics row by row.
class EicScorer final : public CandidateScorer {
 public:
  EicScorer(SubspaceEncoder encode, EicScorerOptions options);

  // One encode pass and one PredictBatch per surrogate over the pool. With
  // safety on, a candidate that passed R(x) carries its unsafety.
  std::vector<CandidateScore> ScoreBatch(
      const std::vector<Configuration>& cs) const override;
  CandidateScore Score(const Configuration& c) const override;
  // max(0, R(x) / resource_max - 1, runtime violation), where the runtime
  // violation is u(x) / threshold - 1 for a positive threshold and
  // u(x) - threshold otherwise: with log targets a runtime bound <= 1 has a
  // threshold <= 0, where the ratio would flip or divide by zero. For a
  // candidate within R(x) the resource term is exactly 0, so its unsafety
  // is the screen's max(0, runtime violation); Maximize asks here only for
  // the candidates R(x) rejected.
  std::vector<double> Unsafety(
      const std::vector<Configuration>& cs) const override;
  double RawEi(const Configuration& c) const override;

 private:
  bool ResourceOk(const Configuration& c) const;
  bool InSafeRegion(const Prediction& runtime) const;
  // Runtime violation of one prediction (see Unsafety).
  double RuntimeViolation(const Prediction& runtime) const;
  // EIC (Eq. 6) from the candidate's predictions; null: no runtime
  // constraint.
  double Eic(const Prediction& objective, const Prediction* runtime) const;
  // The free features of cs[idx[t]] for every t, feature-major.
  std::vector<double> FreeColumns(const std::vector<Configuration>& cs,
                                  const std::vector<size_t>& idx) const;
  // The statistics `model` reads for the candidate in free_, computed
  // into `scratch`; null when it reads none.
  const KernelPairStats* StatsFor(const ConditionedSurrogate& model,
                                  std::vector<KernelPairStats>* scratch) const;
  // The objective's prediction for the candidate in free_; `runtime_stats`
  // is what StatsFor gave the runtime surrogate for it, if it ran.
  Prediction PredictObjective(const KernelPairStats* runtime_stats) const;

  SubspaceEncoder encode_;
  EicScorerOptions options_;
  // The surrogates conditioned on the sub-space; no runtime surrogate
  // without a runtime constraint.
  std::unique_ptr<ConditionedSurrogate> runtime_;
  std::unique_ptr<ConditionedSurrogate> objective_;
  // Whether the objective reads the runtime surrogate's statistics.
  bool shares_stats_ = false;
  // Per-candidate scratch of Score and RawEi: the free features and each
  // surrogate's row statistics.
  mutable std::vector<double> free_;
  mutable std::vector<KernelPairStats> runtime_stats_;
  mutable std::vector<KernelPairStats> objective_stats_;
};

}  // namespace sparktune
