// Advisor: the efficient & safe configuration generator (paper Algorithm 1
// + Algorithm 2). Each call to Suggest():
//   * during the initial design, returns warm-start configurations (from
//     the meta-learner) or low-discrepancy samples;
//   * afterwards trains the objective and runtime surrogates on the run
//     history, and either
//       - takes an AGD step from the incumbent every N_AGD iterations, or
//       - maximizes EIC over (adaptive sub-space ∩ safe region).
// Observe() feeds back results, driving sub-space success/failure
// adaptation and fANOVA importance updates.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "bo/acq_optimizer.h"
#include "bo/agd.h"
#include "bo/history.h"
#include "bo/subspace_manager.h"
#include "model/features.h"
#include "model/gp.h"
#include "space/sobol.h"
#include "tuner/objective.h"

namespace sparktune {

using SurrogateFactory = std::function<std::unique_ptr<Surrogate>(
    const std::vector<FeatureKind>& schema)>;

// Counters for the BO stack's graceful-degradation ladder (DESIGN.md §7):
// fresh GP fit → previous-model reuse → history-best/default suggestion.
// A surrogate fit failure (e.g. Cholesky jitter exhaustion) never errors a
// tick; it bumps a counter and drops one rung.
struct DegradationStats {
  long long fit_failures = 0;          // surrogate Fit() returned an error
  long long previous_model_reuses = 0; // rung 1: kept the last fitted model
  long long prior_only_fits = 0;       // rung 2: no model to reuse
  long long fallback_suggestions = 0;  // rung 3: history-best neighbor served
};

// Serialized mutable state of an Advisor (checkpoint payload). Surrogates
// are NOT saved: they are refit from the restored history on the next
// Suggest, which reproduces them bit-identically. RNG cursors (main stream,
// init sampler) are saved exactly so the restored suggestion trajectory
// matches an uninterrupted run.
struct AdvisorState {
  RngState rng;
  uint64_t init_sampler_generated = 0;
  SubspaceState subspace;
  std::vector<Observation> observations;
  std::vector<Configuration> warm_start;
  uint64_t init_served = 0;
  bool use_time_context = false;
  DegradationStats degradation;
};

struct AdvisorOptions {
  TuningObjective objective;
  // Exact resource-rate function R(x); required for resource constraints
  // and AGD. Defaults to a constant (pure runtime tuning).
  std::function<double(const Configuration&)> resource_fn;

  int init_samples = 5;

  // Constraint-weighted acquisition (EIC, Eq. 6). Disabling it yields
  // vanilla EI that ignores constraints entirely (the paper's "vanilla BO"
  // ablation arm in Figure 8).
  bool enable_eic = true;

  // Safe-region filtering (Eq. 8) plus the safety-aware initial design and
  // AGD step backtracking.
  bool enable_safety = true;
  double safety_gamma = 0.5;  // gamma in Eq. 8, in (0, 1]

  bool enable_agd = true;
  AgdOptions agd;

  bool enable_subspace = true;
  SubspaceOptions subspace;
  std::vector<std::string> expert_ranking;

  AcqOptOptions acq;

  // Append workload-context features to the surrogate input: the
  // normalized data size when observable, otherwise (paper §3.3, the data
  // privacy case) hour-of-day / day-of-week features characterizing the
  // periodic change of data.
  bool datasize_aware = true;

  GpOptions gp;
  uint64_t seed = 42;
};

class Advisor {
 public:
  Advisor(const ConfigSpace* space, AdvisorOptions options);

  // Meta-learning hooks (paper §5.2).
  void SetWarmStartConfigs(std::vector<Configuration> configs);
  void SetObjectiveSurrogateFactory(SurrogateFactory factory);
  void SeedImportance(const std::vector<double>& scores, double weight = 1.0);

  // Produce the next configuration. `datasize_hint_gb` is the expected
  // input size of the upcoming execution (<0 = unknown); `hours_hint` is
  // its start time in hours since the task started (used as the context
  // when the data size is hidden).
  Configuration Suggest(double datasize_hint_gb = -1.0,
                        double hours_hint = -1.0);

  // Report the evaluated outcome of the last suggestion (or any external
  // execution, e.g. the manual baseline run).
  void Observe(Observation obs);

  const RunHistory& history() const { return history_; }
  const ConfigSpace& space() const { return *space_; }
  const AdvisorOptions& options() const { return options_; }
  const SubspaceManager& subspace_manager() const { return subspace_; }

  // Incumbent (best feasible) configuration; default config before any
  // feasible observation.
  Configuration BestConfig() const;
  double BestObjective() const { return history_.BestObjective(); }

  // Diagnostics from the last Suggest() call.
  double last_raw_ei() const { return last_raw_ei_; }
  bool last_was_agd() const { return last_was_agd_; }
  bool last_was_initial() const { return last_was_initial_; }

  // Reset the iteration machinery but keep learned importance; used by the
  // controller when re-tuning starts (§3.3 restart criterion).
  void ResetForRestart();

  // Feature encoding used for surrogate inputs (public so the
  // meta-learner can train base surrogates in the same space).
  std::vector<double> Encode(const Configuration& c, double data_size_gb,
                             double hours = -1.0) const;
  std::vector<FeatureKind> Schema() const;
  // True when the surrogates currently use the hour-of-day/day-of-week
  // context instead of the data size.
  bool using_time_context() const { return use_time_context_; }

  // Graceful-degradation counters (never reset; see DegradationStats).
  const DegradationStats& degradation() const { return degradation_; }

  // Snapshot / restore the full mutable state (checkpoint support).
  // Restore expects an advisor built over the same space and options;
  // observations re-enter the history directly (no Observe side effects —
  // subspace counters come from the snapshot instead).
  AdvisorState SaveState() const;
  void RestoreState(const AdvisorState& s);

 private:
  void FitSurrogates();
  // The context features Encode appends.
  std::vector<double> Context(double data_size_gb, double hours) const;

  const ConfigSpace* space_;
  AdvisorOptions options_;
  Rng rng_;
  RunHistory history_;
  SubspaceManager subspace_;
  Agd agd_;
  AcquisitionOptimizer acq_opt_;
  QuasiRandomSampler init_sampler_;

  std::vector<Configuration> warm_start_;
  SurrogateFactory objective_factory_;

  std::unique_ptr<Surrogate> objective_surrogate_;
  std::unique_ptr<Surrogate> runtime_surrogate_;
  // Degradation-ladder bookkeeping: whether each surrogate slot currently
  // holds an unfitted (prior-only) model, and the schema the last fit used
  // (previous-model reuse requires an unchanged schema).
  bool objective_prior_only_ = false;
  bool runtime_prior_only_ = false;
  std::vector<FeatureKind> last_schema_;
  // lint:allow(write-only-member) the only observable of the degradation ladder; tests assert on it
  DegradationStats degradation_;

  // Initial-design suggestions served so far (external observations such as
  // the manual baseline do not consume the init budget or skip warm-start
  // entries).
  size_t init_served_ = 0;
  bool use_time_context_ = false;
  double last_raw_ei_ = 0.0;
  bool last_was_agd_ = false;
  bool last_was_initial_ = false;
};

}  // namespace sparktune
