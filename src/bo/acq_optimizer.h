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
  // Rejected hill-climb candidates (duplicate or unsafe) are re-drawn this
  // many times with annealed sigma before the step is forfeited, so a
  // cramped safe region still gets productive moves.
  int max_rejected_retries = 4;
  // Threads for candidate scoring and the multi-start hill climbs: 1 =
  // serial, 0 = global pool default width, k > 1 = up to k threads. The
  // result is identical at any setting: candidates are generated serially
  // from `rng`, each hill climb runs on its own forked stream, and
  // selection folds in a fixed order.
  int num_threads = 1;
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

  // Scores the scattered pool with batched surrogate inference (one
  // batched safety screen when the batch hooks are given, then one
  // EicAcquisition::EvalBatch pass over the safe candidates) — identical
  // selection to per-point scoring. Unsafety is scored lazily: only when
  // the safe screen leaves no candidate, once per non-duplicate candidate,
  // and the least-unsafe one (first in candidate order on ties) is the
  // fallback, the same choice an eager scorer makes.
  AcqOptResult Maximize(const Subspace& subspace, const EncodeFn& encode,
                        const EicAcquisition& acq, const SafeFn& safe,
                        const UnsafetyFn& unsafety, const RunHistory* history,
                        Rng* rng, const SafeBatchFn& safe_batch = nullptr,
                        const UnsafetyBatchFn& unsafety_batch = nullptr) const;

 private:
  AcqOptOptions options_;
};

}  // namespace sparktune
