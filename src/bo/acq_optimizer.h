// Acquisition maximization over the candidate region S = safe region ∩
// sub-space (paper §4.2, Algorithm 2 line 8): scattered candidates plus
// hill-climbing local search, with a graceful "least-unsafe" fallback when
// the provably-safe set is empty (expands the safe region at its boundary).
#pragma once

#include <functional>

#include "bo/acquisition.h"
#include "bo/history.h"
#include "common/rng.h"
#include "space/subspace.h"

namespace sparktune {

struct AcqOptOptions {
  int num_candidates = 512;
  int num_local_starts = 6;
  int local_steps = 24;
  double local_sigma = 0.08;
};

struct AcqOptResult {
  Configuration config;
  double acq_value = 0.0;
  // EI of the chosen point without constraint weighting (stopping
  // criterion input).
  double raw_ei = 0.0;
  // True when no candidate was inside the safe region and the
  // least-unsafe fallback was used.
  bool safe_fallback_used = false;
};

class AcquisitionOptimizer {
 public:
  using EncodeFn = std::function<std::vector<double>(const Configuration&)>;
  // Safe-region membership; null = no safety filtering.
  using SafeFn = std::function<bool(const Configuration&)>;
  // Degree of safe-region violation (<= 0 means safe); used only to rank
  // fallback candidates, so Maximize calls it only when no candidate of
  // the pool is safe. Null = the fallback takes the first candidate.
  using UnsafetyFn = std::function<double(const Configuration&)>;
  // Optional batched counterparts used for the scattered candidate pool
  // (the sequential hill climbs still use the per-point forms). When
  // supplied they must agree bit-for-bit with safe/unsafety per element;
  // unsafety_batch, like unsafety, runs only for the fallback.
  using SafeBatchFn =
      std::function<std::vector<char>(const std::vector<Configuration>&)>;
  using UnsafetyBatchFn =
      std::function<std::vector<double>(const std::vector<Configuration>&)>;

  explicit AcquisitionOptimizer(AcqOptOptions options = {});

  // Scores the non-duplicate candidates of the pool in one ScoreBatch,
  // then climbs from the best safe ones, scoring each step with Score.
  // Every candidate it draws is the sub-space's base with the free
  // coordinates overwritten, so the duplicate check compares free
  // coordinates against the history rows sharing the base
  // (SubspaceHistory), with RunHistory::Contains' verdicts. Unsafety is
  // scored lazily: only when no candidate is safe, and only for the
  // non-duplicate candidates whose ScoreBatch score left it unknown; the
  // least-unsafe one (first in candidate order on ties) is the fallback,
  // the same choice an eager scorer makes.
  AcqOptResult Maximize(const Subspace& subspace,
                        const CandidateScorer& scorer,
                        const RunHistory* history, Rng* rng) const;

  // The hook form: an adapter onto the scorer form with the same result
  // and the hooks' own call pattern. The pool's safe screen calls
  // safe_batch once when given, else safe per candidate;
  // EicAcquisition::EvalBatch scores the safe candidates;
  // each climb step calls safe, then acq.Eval. Unsafety goes through
  // unsafety_batch when given, else unsafety per candidate.
  AcqOptResult Maximize(const Subspace& subspace, const EncodeFn& encode,
                        const EicAcquisition& acq, const SafeFn& safe,
                        const UnsafetyFn& unsafety, const RunHistory* history,
                        Rng* rng, const SafeBatchFn& safe_batch = nullptr,
                        const UnsafetyBatchFn& unsafety_batch = nullptr) const;

 private:
  AcqOptOptions options_;
};

}  // namespace sparktune
