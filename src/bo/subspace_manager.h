// Adaptive sub-space generation (paper §4.1): rank parameters by fANOVA
// importance (averaged over analyses, seeded by an expert ranking before
// any history exists) and adapt the sub-space size K TuRBO-style — grow
// after kTauSucc (3) consecutive improvements, shrink after kTauFail (5)
// consecutive failures (subspace_manager.cc).
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "fanova/fanova.h"
#include "space/subspace.h"

namespace sparktune {

struct SubspaceOptions {
  int k_init = 10;
  int k_min = 4;
  int k_max = -1;  // -1 = number of parameters
  int k_step = 2;
  // Re-run fANOVA every this many new observations (and only once at least
  // `fanova_min_obs` are available).
  int fanova_period = 5;
  int fanova_min_obs = 8;
  FanovaOptions fanova;
};

// Serialized mutable state of a SubspaceManager (checkpoint payload). The
// space pointer and options are reconstructed from configuration, not saved.
struct SubspaceState {
  int k = 0;
  int succ_count = 0;
  int fail_count = 0;
  std::vector<double> importance;
  double importance_weight = 0.0;
  uint64_t last_fanova_size = 0;
};

class SubspaceManager {
 public:
  // `expert_ranking`: parameter names, most important first; names not in
  // `space` are ignored, parameters missing from the ranking go last.
  SubspaceManager(const ConfigSpace* space, SubspaceOptions options,
                  const std::vector<std::string>& expert_ranking);

  // Report the outcome of an evaluated suggestion: did it improve on the
  // incumbent? Adjusts K and resets counters on a size change.
  void ReportOutcome(bool improved);

  // Feed tuning history (unit-cube configs + objective) through fANOVA and
  // fold the resulting importance into the running average. No-op until
  // enough observations accumulated / period elapsed.
  void MaybeUpdateImportance(const std::vector<std::vector<double>>& x_unit,
                             const std::vector<double>& y);

  // Seed importance scores from another task (meta-learning hook); `scores`
  // indexed like the space.
  void SeedImportance(const std::vector<double>& scores, double weight = 1.0);

  // Current sub-space: top-K parameters by importance, remaining pinned to
  // `base`.
  Subspace Current(const Configuration& base) const;

  // Snapshot / restore the mutable state (checkpoint support). Restore
  // expects a manager built over the same space and options.
  SubspaceState SaveState() const;
  void RestoreState(const SubspaceState& s);

  int K() const { return k_; }
  // Importance-sorted parameter indices (most important first).
  std::vector<int> Ranking() const;
  const std::vector<double>& importance() const { return importance_; }

 private:
  const ConfigSpace* space_;
  SubspaceOptions options_;
  int k_;
  int succ_count_ = 0;
  int fail_count_ = 0;
  std::vector<double> importance_;   // running average score per parameter
  double importance_weight_ = 0.0;   // total weight folded in so far
  size_t last_fanova_size_ = 0;      // history size at the last fANOVA run
};

}  // namespace sparktune
