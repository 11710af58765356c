#include "bo/advisor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

namespace sparktune {

namespace {

// Data size that normalizes to 1 in the surrogate's context feature.
constexpr double kDataSizeReferenceGb = 1024.0;

// Cap the objective values of failed runs so they do not wreck target
// standardization: 1.5x the worst real value seen.
std::vector<double> CappedObjectives(const RunHistory& history) {
  double worst_real = 0.0;
  bool any_real = false;
  for (size_t i = 0; i < history.size(); ++i) {
    if (!history.failed(i) && std::isfinite(history.objective(i))) {
      worst_real = std::max(worst_real, history.objective(i));
      any_real = true;
    }
  }
  double cap = any_real ? worst_real * 1.5 : 1.0;
  std::vector<double> y;
  y.reserve(history.size());
  for (size_t i = 0; i < history.size(); ++i) {
    double v = history.objective(i);
    if (history.failed(i) || !std::isfinite(v) || v > cap) v = cap;
    y.push_back(v);
  }
  return y;
}

// Read-only adapter exposing a log-space surrogate in linear units
// (lognormal moments). Used by AGD, which needs T(x) itself.
class ExpAdapter final : public Surrogate {
 public:
  explicit ExpAdapter(const Surrogate* inner) : inner_(inner) {}
  Status Fit(const std::vector<std::vector<double>>&,
             const std::vector<double>&) override {
    return Status::FailedPrecondition("ExpAdapter is read-only");
  }
  Prediction Predict(const std::vector<double>& x) const override {
    Prediction p = inner_->Predict(x);
    double mean = std::exp(p.mean + 0.5 * p.variance);
    double var = (std::exp(p.variance) - 1.0) * mean * mean;
    return {mean, var};
  }
  std::vector<Prediction> PredictBatch(
      const std::vector<std::vector<double>>& xs) const override {
    std::vector<Prediction> out = inner_->PredictBatch(xs);
    for (Prediction& p : out) {
      double mean = std::exp(p.mean + 0.5 * p.variance);
      double var = (std::exp(p.variance) - 1.0) * mean * mean;
      p = {mean, var};
    }
    return out;
  }
  size_t num_observations() const override {
    return inner_->num_observations();
  }

 private:
  const Surrogate* inner_;
};

}  // namespace

Advisor::Advisor(const ConfigSpace* space, AdvisorOptions options)
    : space_(space),
      options_(std::move(options)),
      rng_(options_.seed),
      subspace_(space, options_.subspace, options_.expert_ranking),
      agd_(space, options_.agd),
      acq_opt_(options_.acq),
      init_sampler_(static_cast<int>(space->size()),
                    options_.seed ^ 0x5bf03635ULL) {
  assert(space_ != nullptr);
  if (!options_.resource_fn) {
    options_.resource_fn = [](const Configuration&) { return 1.0; };
  }
  objective_factory_ = [this](const std::vector<FeatureKind>& schema) {
    return std::make_unique<GaussianProcess>(schema, options_.gp);
  };
}

void Advisor::SetWarmStartConfigs(std::vector<Configuration> configs) {
  warm_start_ = std::move(configs);
}

void Advisor::SetObjectiveSurrogateFactory(SurrogateFactory factory) {
  objective_factory_ = std::move(factory);
}

void Advisor::SeedImportance(const std::vector<double>& scores,
                             double weight) {
  subspace_.SeedImportance(scores, weight);
}

std::vector<FeatureKind> Advisor::Schema() const {
  int context = 0;
  if (options_.datasize_aware) context = use_time_context_ ? 2 : 1;
  return BuildFeatureSchema(*space_, context);
}

std::vector<double> Advisor::Encode(const Configuration& c,
                                    double data_size_gb,
                                    double hours) const {
  return EncodeFeatures(*space_, c, Context(data_size_gb, hours));
}

std::vector<double> Advisor::Context(double data_size_gb,
                                     double hours) const {
  std::vector<double> context;
  if (options_.datasize_aware) {
    if (use_time_context_) {
      context = TimeOfDayContext(hours >= 0.0 ? hours : 0.0);
    } else {
      double ds = data_size_gb >= 0.0 ? data_size_gb : 0.0;
      context.push_back(NormalizeDataSize(ds, kDataSizeReferenceGb));
    }
  }
  return context;
}

Configuration Advisor::BestConfig() const {
  int best = history_.BestFeasibleIndex();
  return best >= 0 ? history_.config(static_cast<size_t>(best))
                   : space_->Default();
}

void Advisor::ResetForRestart() {
  last_raw_ei_ = 0.0;
  // Keep run history and learned importance: the restart leverages prior
  // knowledge (meta-learning on own history) rather than starting blind.
}

void Advisor::FitSurrogates() {
  // Context mode: fall back to time-of-day/day-of-week when no execution
  // exposed its data size but start times are known (paper §3.3).
  if (options_.datasize_aware) {
    bool any_ds = false;
    bool any_hours = false;
    for (size_t i = 0; i < history_.size(); ++i) {
      any_ds |= history_.data_size_gb(i) >= 0.0;
      any_hours |= history_.hours(i) >= 0.0;
    }
    use_time_context_ = !any_ds && any_hours;
  }
  std::vector<std::vector<double>> x;
  std::vector<double> y_obj;
  std::vector<double> y_rt;
  x.reserve(history_.size());
  y_rt.reserve(history_.size());
  for (size_t i = 0; i < history_.size(); ++i) {
    x.push_back(Encode(history_.config(i), history_.data_size_gb(i),
                       history_.hours(i)));
    y_rt.push_back(history_.runtime_sec(i));
  }
  y_obj = CappedObjectives(history_);
  // Surrogates fit log-transformed objective/runtime values. Costs and
  // runtimes are positive with multiplicative structure (failures sit
  // orders of magnitude above good configs); log space keeps the GP
  // well-conditioned and makes EI scale-free.
  for (auto& v : y_obj) v = std::log(std::max(v, 1e-9));
  for (auto& v : y_rt) v = std::log(std::max(v, 1e-9));

  // Degradation ladder (DESIGN.md §7): a failed fit — e.g. Cholesky
  // exhausting its jitter budget on a near-singular Gram matrix — must not
  // error the tick. Rung 1: keep the previous fitted model when its feature
  // schema still matches. Rung 2: fall back to a prior-only surrogate;
  // Suggest then serves a history-best neighbor instead of trusting a
  // meaningless acquisition landscape.
  auto schema = Schema();
  const bool schema_matches = schema == last_schema_;
  auto fit_one = [&](std::unique_ptr<Surrogate>* slot, bool* prior_only,
                     std::unique_ptr<Surrogate> fresh,
                     const std::vector<double>& y) {
    Status s = fresh->Fit(x, y);
    if (s.ok()) {
      *slot = std::move(fresh);
      *prior_only = false;
      return;
    }
    ++degradation_.fit_failures;
    if (*slot != nullptr && !*prior_only && schema_matches) {
      ++degradation_.previous_model_reuses;
      return;  // keep the previously fitted model
    }
    *slot = std::move(fresh);  // unfitted: predicts the prior
    *prior_only = true;
    ++degradation_.prior_only_fits;
  };
  fit_one(&objective_surrogate_, &objective_prior_only_,
          objective_factory_(schema), y_obj);
  fit_one(&runtime_surrogate_, &runtime_prior_only_,
          std::make_unique<GaussianProcess>(schema, options_.gp), y_rt);
  last_schema_ = std::move(schema);
}

Configuration Advisor::Suggest(double datasize_hint_gb,
                               double hours_hint) {
  last_was_agd_ = false;
  last_was_initial_ = false;
  last_raw_ei_ = 0.0;

  // ---- Initial design ----
  // With meta warm-starting, the transferred configurations ARE the initial
  // design (paper §5.2) — no additional low-discrepancy samples. The served
  // counter (not the history size) drives the phase, so external
  // observations (e.g. the manual baseline) neither consume the budget nor
  // skip warm-start entries.
  size_t init_budget =
      warm_start_.empty()
          ? static_cast<size_t>(options_.init_samples)
          : std::min(static_cast<size_t>(options_.init_samples),
                     warm_start_.size());
  if (init_served_ < init_budget) {
    size_t served = init_served_++;
    last_was_initial_ = true;
    if (served < warm_start_.size()) {
      return space_->Legalize(warm_start_[served]);
    }
    // Low-discrepancy samples, but never waste an online execution on a
    // configuration that provably violates the white-box resource
    // constraint (runtime feasibility is unknown before a model exists).
    const bool check_resource = options_.enable_safety &&
                                options_.objective.has_resource_constraint();
    // Conservative initial design: with safety on and a feasible anchor
    // already observed (the manual baseline in production), contract the
    // low-discrepancy samples halfway toward the anchor. Keeps diversity
    // for the surrogate while bounding the worst-case exploration cost of
    // the runs no runtime model can vet yet.
    const bool anchored =
        options_.enable_safety && history_.BestFeasibleIndex() >= 0;
    std::vector<double> anchor_u;
    if (anchored) anchor_u = space_->ToUnit(BestConfig());
    Configuration fallback = space_->Default();
    for (int attempt = 0; attempt < 64; ++attempt) {
      std::vector<double> u = init_sampler_.Next();
      if (anchored) {
        for (size_t i = 0; i < u.size(); ++i) {
          u[i] = 0.5 * (u[i] + anchor_u[i]);
        }
      }
      Configuration c = space_->FromUnit(u);
      if (history_.Contains(c)) continue;
      if (check_resource &&
          options_.resource_fn(c) > options_.objective.resource_max) {
        fallback = std::move(c);
        continue;
      }
      return c;
    }
    // Shrink the last rejected sample toward the (feasible) incumbent or
    // default until the resource constraint holds.
    Configuration anchor = BestConfig();
    std::vector<double> u = space_->ToUnit(fallback);
    std::vector<double> a = space_->ToUnit(anchor);
    for (int step = 0; step < 6; ++step) {
      for (size_t i = 0; i < u.size(); ++i) u[i] = 0.5 * (u[i] + a[i]);
      Configuration c = space_->FromUnit(u);
      if (!check_resource ||
          options_.resource_fn(c) <= options_.objective.resource_max) {
        if (!history_.Contains(c)) return c;
      }
    }
    return space_->Sample(&rng_);
  }

  FitSurrogates();

  Configuration base = BestConfig();

  // Last degradation rung: with no usable objective model at all, an
  // acquisition maximization would chase prior noise. Serve a jittered
  // neighbor of the incumbent (or the default config before any feasible
  // run) and surface it through the counter.
  if (objective_prior_only_) {
    ++degradation_.fallback_suggestions;
    Subspace full = Subspace::Full(space_);
    Configuration c = full.Neighbor(base, 0.05, &rng_);
    if (history_.Contains(c)) c = full.Neighbor(c, 0.05, &rng_);
    return c;
  }
  auto encode = [this, datasize_hint_gb, hours_hint](const Configuration& c) {
    return Encode(c, datasize_hint_gb, hours_hint);
  };

  // ---- AGD branch (Algorithm 2, lines 2-4) ----
  if (options_.enable_agd && history_.BestFeasibleIndex() >= 0 &&
      (static_cast<int>(history_.size()) + 1) % options_.agd.period == 0) {
    last_was_agd_ = true;
    const ExpAdapter linear_runtime(runtime_surrogate_.get());
    Configuration next = agd_.Step(base, linear_runtime, encode,
                                   options_.resource_fn, options_.objective);
    // AGD exploits from a feasible incumbent; backtrack the step toward the
    // incumbent if it leaves the (white-box resource, predicted runtime)
    // feasible region. The shrink trajectory is deterministic (the unit
    // coordinates are halved toward the incumbent each round regardless of
    // which candidate wins), so it is precomputed and the predicted-runtime
    // screen runs as one batched surrogate pass over all candidates.
    std::vector<Configuration> traj;
    traj.push_back(next);
    {
      std::vector<double> u = space_->ToUnit(next);
      std::vector<double> a = space_->ToUnit(base);
      for (int shrink = 0; shrink < 5; ++shrink) {
        for (size_t i = 0; i < u.size(); ++i) u[i] = 0.5 * (u[i] + a[i]);
        traj.push_back(space_->FromUnit(u));
      }
    }
    const bool need_runtime = options_.enable_safety &&
                              options_.objective.has_runtime_constraint();
    std::vector<double> upper;
    if (need_runtime) {
      std::vector<std::vector<double>> feats;
      feats.reserve(traj.size());
      for (const Configuration& c : traj) feats.push_back(encode(c));
      std::vector<Prediction> ps = runtime_surrogate_->PredictBatch(feats);
      upper.resize(ps.size());
      for (size_t k = 0; k < ps.size(); ++k) {
        upper[k] = UpperConfidenceBound(ps[k], options_.safety_gamma);
      }
    }
    auto step_ok = [&](size_t k) {
      if (!options_.enable_safety) return true;
      if (options_.objective.has_resource_constraint() &&
          options_.resource_fn(traj[k]) > options_.objective.resource_max) {
        return false;
      }
      if (need_runtime &&
          upper[k] > std::log(options_.objective.runtime_max)) {
        return false;
      }
      return true;
    };
    // First acceptable candidate among the unshrunk step and five shrinks;
    // the fully-shrunk fallback ships unchecked, exactly like the
    // sequential shrink loop it replaces.
    next = traj.back();
    for (size_t k = 0; k + 1 < traj.size(); ++k) {
      if (step_ok(k)) {
        next = traj[k];
        break;
      }
    }
    if (history_.Contains(next)) {
      Subspace full = Subspace::Full(space_);
      next = full.Neighbor(next, 0.03, &rng_);
    }
    return next;
  }

  // ---- BO branch (Algorithm 2, lines 6-8) ----
  // Update importance + sub-space.
  {
    std::vector<std::vector<double>> x_unit;
    std::vector<double> y = CappedObjectives(history_);
    x_unit.reserve(history_.size());
    for (size_t i = 0; i < history_.size(); ++i) {
      x_unit.push_back(space_->ToUnit(history_.config(i)));
    }
    subspace_.MaybeUpdateImportance(x_unit, y);
  }
  Subspace sub = options_.enable_subspace ? subspace_.Current(base)
                                          : Subspace::Full(space_);
  // A second candidate source pins the non-tuned parameters at their
  // defaults instead of the incumbent: a mediocre incumbent then cannot
  // poison the pinned dimensions for the whole run.
  std::optional<Subspace> sub_default;
  if (options_.enable_subspace && !(base == space_->Default())) {
    sub_default.emplace(subspace_.Current(space_->Default()));
  }

  double incumbent = history_.BestObjective();
  if (!std::isfinite(incumbent)) {
    // No feasible point yet: guide by the raw objective values.
    auto y = CappedObjectives(history_);
    incumbent = *std::min_element(y.begin(), y.end());
  }
  incumbent = std::log(std::max(incumbent, 1e-9));
  const double runtime_threshold = std::log(options_.objective.runtime_max);

  // EIC (Eq. 6) weighted by the runtime constraint, over the safe region
  // (Eq. 8) when safety is on. The white-box resource bound holds even
  // without safety.
  EicScorerOptions scoring;
  scoring.objective = objective_surrogate_.get();
  scoring.incumbent = incumbent;
  if (options_.enable_eic && options_.objective.has_runtime_constraint()) {
    scoring.runtime = {runtime_surrogate_.get(), runtime_threshold};
  }
  if (options_.enable_eic && options_.objective.has_resource_constraint()) {
    scoring.resource_fn = options_.resource_fn;
    scoring.resource_max = options_.objective.resource_max;
  }
  scoring.safety = options_.enable_safety;
  scoring.gamma = options_.safety_gamma;
  // One scorer per searched sub-space: it conditions both surrogates on
  // the sub-space once, so a candidate costs its k free coordinates.
  const std::vector<double> context = Context(datasize_hint_gb, hours_hint);
  auto maximize = [&](const Subspace& s) {
    const EicScorer scorer(SubspaceEncoder(s, context), scoring);
    return acq_opt_.Maximize(s, scorer, &history_, &rng_);
  };

  AcqOptResult res = maximize(sub);
  if (sub_default.has_value()) {
    AcqOptResult alt = maximize(*sub_default);
    if ((res.safe_fallback_used && !alt.safe_fallback_used) ||
        (res.safe_fallback_used == alt.safe_fallback_used &&
         alt.acq_value > res.acq_value)) {
      res = std::move(alt);
    }
  }
  last_raw_ei_ = res.raw_ei;
  return res.config;
}

AdvisorState Advisor::SaveState() const {
  AdvisorState s;
  s.rng = rng_.SaveState();
  s.init_sampler_generated = init_sampler_.num_generated();
  s.subspace = subspace_.SaveState();
  s.observations = history_.observations();
  s.warm_start = warm_start_;
  s.init_served = static_cast<uint64_t>(init_served_);
  s.use_time_context = use_time_context_;
  s.degradation = degradation_;
  return s;
}

void Advisor::RestoreState(const AdvisorState& s) {
  rng_.RestoreState(s.rng);
  // The low-discrepancy sequences are cheap and deterministic: rebuild at
  // the saved cursor by replay instead of serializing generator internals.
  init_sampler_ = QuasiRandomSampler(static_cast<int>(space_->size()),
                                     options_.seed ^ 0x5bf03635ULL);
  init_sampler_.Skip(s.init_sampler_generated);
  subspace_.RestoreState(s.subspace);
  history_.Clear();
  for (const Observation& o : s.observations) history_.Add(o);
  warm_start_ = s.warm_start;
  init_served_ = static_cast<size_t>(s.init_served);
  use_time_context_ = s.use_time_context;
  degradation_ = s.degradation;
  // Surrogates refit from history on the next Suggest. A previous-model
  // reuse rung cannot span a restart (the old model died with the
  // process); the ladder simply drops to prior-only if the first refit
  // after restore fails too.
  objective_surrogate_.reset();
  runtime_surrogate_.reset();
  objective_prior_only_ = false;
  runtime_prior_only_ = false;
  last_schema_.clear();
}

void Advisor::Observe(Observation obs) {
  double best_before = history_.BestObjective();
  bool improved = !obs.failed() && obs.feasible && obs.objective < best_before;
  history_.Add(std::move(obs));
  // The initial design should not shrink the sub-space.
  if (history_.size() > static_cast<size_t>(options_.init_samples)) {
    subspace_.ReportOutcome(improved);
  }
}

}  // namespace sparktune
