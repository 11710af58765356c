#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "bo/acq_optimizer.h"
#include "bo/acquisition.h"
#include "bo/advisor.h"
#include "bo/agd.h"
#include "common/rng.h"
#include "fanova/fanova.h"
#include "forest/random_forest.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "meta/knowledge_base.h"
#include "meta/meta_features.h"
#include "meta/similarity.h"
#include "model/gp.h"
#include "model/kernel.h"
#include "net/frame.h"
#include "service/data_repository.h"
#include "service/process_supervisor.h"
#include "service/tuning_service.h"
#include "service/wire.h"
#include "space/subspace.h"
#include "sparksim/production.h"
#include "sparksim/spark_conf.h"
#include "trace.h"

namespace perfbench {

namespace {

using sparktune::Advisor;
using sparktune::ClusterSpec;
using sparktune::Configuration;
using sparktune::ConfigSpace;
using sparktune::EventLog;
using sparktune::JobEvaluator;
using sparktune::Json;
using sparktune::Observation;
using sparktune::Result;
using sparktune::RunHistory;
using sparktune::Status;
using sparktune::TuningService;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

// splitmix64 finalizer over (a, b): every fleet, task and advisor seed is
// derived from the run's --seed through this.
uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Linear-interpolated percentile, p in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double SecondsSince(Clock::time_point start) {
  return ElapsedUs(start, Now()) / 1e6;
}

// Peak resident set of this process (VmHWM) in MB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    long long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %lld", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

// FNV-1a over the bits of every delivered slot, in delivery order.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void AddDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  void AddSlot(const Result<Observation>& slot) {
    Add(slot.ok() ? 1 : 0);
    if (!slot.ok()) {
      Add(static_cast<uint64_t>(slot.status().code()));
      return;
    }
    for (double v : slot->config.values()) AddDouble(v);
    AddDouble(slot->objective);
    AddDouble(slot->runtime_sec);
    AddDouble(slot->resource_rate);
    Add(static_cast<uint64_t>(slot->failure));
    Add((slot->feasible ? 1 : 0) | (slot->degraded ? 2 : 0));
  }
  std::string Hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

bool SameSlot(const Result<Observation>& got, const Result<Observation>& want) {
  if (got.ok() != want.ok()) return false;
  if (!got.ok()) return got.status().code() == want.status().code();
  return got->config == want->config && got->objective == want->objective &&
         got->runtime_sec == want->runtime_sec &&
         got->failure == want->failure && got->degraded == want->degraded &&
         got->feasible == want->feasible;
}

// Mean duration and count of the spans with each name.
struct SpanStats {
  std::map<std::string, std::pair<double, long long>> by_name;  // us, n

  explicit SpanStats(const std::vector<Span>& spans) {
    for (const Span& s : spans) {
      auto& [total, n] = by_name[s.name];
      total += s.end_us - s.start_us;
      ++n;
    }
  }
  double MeanUs(const std::string& name) const {
    auto it = by_name.find(name);
    if (it == by_name.end() || it->second.second == 0) return 0.0;
    return it->second.first / static_cast<double>(it->second.second);
  }
  long long Count(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0 : it->second.second;
  }
};

// ---------------------------------------------------------------------------
// Timing evaluator: the decorator the traced run hands to the service, so
// every simulated job run inside a real tick becomes a sparksim span.
// ---------------------------------------------------------------------------

class TimingEvaluator final : public JobEvaluator {
 public:
  TimingEvaluator(std::unique_ptr<JobEvaluator> inner, Tracer* tracer,
                  bool capture_logs)
      : inner_(std::move(inner)), tracer_(tracer), capture_(capture_logs) {}

  Outcome Run(const Configuration& config) override {
    Outcome out;
    {
      ScopedSpan span(tracer_, "sparksim.run", /*leaf=*/true);
      out = inner_->Run(config);
    }
    if (capture_) logs_.push_back(out.event_log);
    return out;
  }
  double ResourceRate(const Configuration& config) const override {
    return inner_->ResourceRate(config);
  }
  double NextDataSizeHintGb() const override {
    return inner_->NextDataSizeHintGb();
  }
  double NextHours() const override { return inner_->NextHours(); }
  void SkipExecutions(int n) override { inner_->SkipExecutions(n); }

  // Event logs of every run, when capturing (meta-extraction replay input).
  const std::vector<EventLog>& logs() const { return logs_; }

 private:
  std::unique_ptr<JobEvaluator> inner_;
  Tracer* tracer_;
  bool capture_;
  std::vector<EventLog> logs_;
};

// ---------------------------------------------------------------------------
// One episode's outcome.
// ---------------------------------------------------------------------------

// Quality bookkeeping of one tuning-cohort task.
struct TaskLedger {
  double baseline = kNaN;
  double best = kNaN;
};

struct Episode {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;  // process high-water mark after the episode
  std::vector<double> tick_ms;
  long long task_periods = 0;
  double harvest_s = 0.0;
  long long harvest_attempted = 0;
  long long harvest_harvested = 0;
  long long tuning_slots = 0;
  long long safe_slots = 0;
  std::vector<double> reductions_it9;
  long long attempted = 0;
  long long failed = 0;
  Digest digest;
  std::vector<std::string> errors;
  // Layer figures measured at the benchmark's call sites.
  double checkpoint_written_ratio = 0.0;
  double checkpoint_bytes = 0.0;
  double wire_bytes = 0.0;
  double safe_candidate_ratio = 0.0;
  long long similarity_pairs = 0;
  std::vector<double> recovery_ms;
  std::vector<double> recover_ms;
  long long replayed_periods = 0;
  long long parked_slots = 0;
  std::vector<Span> spans;  // traced episodes only
  std::vector<Result<Observation>> last_slots;  // wire replay input
};

// Folds one delivered slot into the episode. `ledger` is null for tasks
// outside the tuning cohort; `period` is the slot's period index (0 = the
// baseline run, 1..budget = tuning iterations).
void Account(Episode* ep, TaskLedger* ledger, const Result<Observation>& slot,
             long long period, int budget) {
  ++ep->attempted;
  ++ep->task_periods;
  ep->digest.AddSlot(slot);
  if (!slot.ok()) {
    ++ep->failed;
    return;
  }
  if (ledger == nullptr) return;
  const bool good = slot->feasible && !slot->failed();
  if (period == 0) {
    if (good) ledger->baseline = slot->objective;
    ledger->best = ledger->baseline;
    return;
  }
  if (period > budget) return;
  ++ep->tuning_slots;
  if (good) {
    ++ep->safe_slots;
    if (!(slot->objective >= ledger->best)) ledger->best = slot->objective;
  }
  if (period == 9 && std::isfinite(ledger->baseline) &&
      ledger->baseline > 0.0) {
    ep->reductions_it9.push_back(
        (ledger->baseline - std::min(ledger->baseline, ledger->best)) /
        ledger->baseline);
  }
}

// ---------------------------------------------------------------------------
// In-process fleets (bo_tuning, transfer).
// ---------------------------------------------------------------------------

struct FleetSpec {
  int per_service = 0;  // tuning-cohort tasks per service (ETL and SQL)
  int kb_cap = 0;       // knowledge-base size per service; 0 = no harvest
  int harvest_per_pass = 8;
  int max_harvest_passes = 8;  // per service and harvest tick
  int ticks = 0;        // ticks of the tuning cohort
  int budget = 20;
  bool meta = false;
  bool compact_logs = true;
  bool replay_bo = false;
  bool replay_kb = false;

  // Harvest-cohort tasks per service: a quarter more than the cap, so
  // tasks that are not yet harvestable cannot keep the cap out of reach.
  int harvest_cohort() const { return kb_cap + kb_cap / 4; }
};

struct Fleet {
  std::vector<std::unique_ptr<ConfigSpace>> spaces;       // [ETL, SQL]
  std::vector<std::unique_ptr<TuningService>> services;   // [ETL, SQL]
  std::vector<std::vector<std::string>> harvest_ids;      // per service
  std::vector<std::vector<std::string>> tuning_ids;       // per service
  std::vector<std::vector<TaskLedger>> ledgers;           // per tuning id
  std::vector<std::unique_ptr<JobEvaluator>> evaluators;
  std::vector<const TimingEvaluator*> captured;
};

Status BuildFleet(const FleetSpec& spec, uint64_t seed, int threads,
                  Tracer* tracer, Fleet* fleet) {
  const int need = spec.per_service + spec.harvest_cohort();
  sparktune::ProductionFleetOptions fleet_opts;
  // Half of the generated tasks are SQL; oversample so that both services
  // get exactly `need` tasks, which keeps the work per tick seed-invariant.
  fleet_opts.num_tasks = 2 * need + need / 4 + 64;
  const std::vector<sparktune::ProductionTask> tasks =
      sparktune::GenerateProductionFleet(fleet_opts, Mix(seed, 1));

  fleet->spaces.push_back(std::make_unique<ConfigSpace>(
      sparktune::BuildSparkSpace(ClusterSpec::ProductionGroup())));
  fleet->spaces.push_back(std::make_unique<ConfigSpace>(
      sparktune::BuildSparkSpace(ClusterSpec::SmallSqlGroup())));
  sparktune::TuningServiceOptions sopts;
  sopts.tuner.budget = spec.budget;
  sopts.tuner.ei_stop_threshold = 0.0;
  sopts.tuner.advisor.objective.beta = 0.5;
  sopts.enable_meta = spec.meta;
  sopts.compact_event_logs = spec.compact_logs;
  sopts.num_threads = threads;
  for (const auto& space : fleet->spaces) {
    fleet->services.push_back(
        std::make_unique<TuningService>(space.get(), sopts));
  }
  fleet->harvest_ids.assign(2, {});
  fleet->tuning_ids.assign(2, {});
  fleet->ledgers.assign(2, {});
  fleet->evaluators.reserve(static_cast<size_t>(2 * need));
  int taken[2] = {0, 0};
  for (size_t t = 0; t < tasks.size(); ++t) {
    const sparktune::ProductionTask& task = tasks[t];
    const int s = task.workload.is_sql ? 1 : 0;
    if (taken[s] >= need) continue;
    sparktune::SimulatorEvaluatorOptions eopts;
    eopts.seed = Mix(seed, 2 * t + 2);
    eopts.period_hours = task.period_hours;
    std::unique_ptr<JobEvaluator> evaluator =
        std::make_unique<sparktune::SimulatorEvaluator>(
            fleet->spaces[s].get(), task.workload, task.cluster, task.drift,
            eopts);
    const bool tuning = taken[s] >= spec.harvest_cohort();
    if (tracer->enabled()) {
      // Capture event logs of the first few tuning-cohort tasks.
      const bool capture =
          tuning && taken[s] - spec.harvest_cohort() < 4;
      auto timed = std::make_unique<TimingEvaluator>(std::move(evaluator),
                                                     tracer, capture);
      if (capture) fleet->captured.push_back(timed.get());
      evaluator = std::move(timed);
    }
    sparktune::TunerOptions per_task = sopts.tuner;
    per_task.advisor.seed = Mix(seed, 2 * t + 3);
    SPARKTUNE_RETURN_IF_ERROR(fleet->services[s]->RegisterTask(
        task.id, evaluator.get(), task.manual_config, per_task));
    fleet->evaluators.push_back(std::move(evaluator));
    (tuning ? fleet->tuning_ids : fleet->harvest_ids)[s].push_back(task.id);
    ++taken[s];
  }
  if (taken[0] < need || taken[1] < need) {
    return Status::Internal("production fleet too small for the cohorts");
  }
  for (int s = 0; s < 2; ++s) {
    fleet->ledgers[s].assign(fleet->tuning_ids[s].size(), TaskLedger{});
  }
  return Status::OK();
}

// One scheduling tick over one cohort, optionally followed by bounded
// harvest passes that fill each knowledge base up to its cap (a deferred
// task costs another pass, so the pass count is bounded too).
void FleetTick(Fleet* fleet, const FleetSpec& spec, bool tuning_cohort,
               bool harvest, long long period, Tracer* tracer, Episode* ep) {
  const auto& ids = tuning_cohort ? fleet->tuning_ids : fleet->harvest_ids;
  std::vector<std::vector<Result<Observation>>> results(2);
  const Clock::time_point start = Now();
  {
    ScopedSpan tick(tracer, "service.tick");
    for (int s = 0; s < 2; ++s) {
      ScopedSpan call(tracer, "service.execute_periodic_all");
      results[s] = fleet->services[s]->ExecutePeriodicAll(ids[s]);
    }
    for (int pass = 0; harvest && pass < 2 * spec.max_harvest_passes;
         ++pass) {
      const int s = pass % 2;
      TuningService& service = *fleet->services[s];
      const int room = spec.kb_cap -
                       static_cast<int>(service.knowledge_base().size());
      if (room <= 0) continue;
      const Clock::time_point h0 = Now();
      sparktune::HarvestReport report;
      {
        ScopedSpan call(tracer, "service.harvest_dirty");
        report = service.HarvestDirty(std::min(room, spec.harvest_per_pass));
      }
      ep->harvest_s += SecondsSince(h0);
      ep->harvest_attempted += report.attempted;
      ep->harvest_harvested += report.harvested;
      ep->attempted += report.attempted;
      ep->failed += report.failed;
    }
  }
  ep->tick_ms.push_back(ElapsedUs(start, Now()) / 1000.0);
  for (int s = 0; s < 2; ++s) {
    for (size_t i = 0; i < results[s].size(); ++i) {
      TaskLedger* ledger = tuning_cohort ? &fleet->ledgers[s][i] : nullptr;
      Account(ep, ledger, results[s][i], period, spec.budget);
    }
  }
  ep->last_slots = std::move(results[0]);
}

// Encoded history of one advisor, the input of the BO-layer replays.
struct HistoryInputs {
  std::vector<std::vector<double>> x_enc;   // Advisor::Encode rows
  std::vector<std::vector<double>> x_unit;  // unit-cube configs
  std::vector<double> y_log;                // log objective
  std::vector<double> runtime;              // seconds
  double ds_hint = -1.0;
  double hours_hint = -1.0;
};

HistoryInputs Inputs(const Advisor& advisor) {
  HistoryInputs in;
  const RunHistory& h = advisor.history();
  for (size_t i = 0; i < h.size(); ++i) {
    const Configuration c = h.config(i);
    in.x_enc.push_back(advisor.Encode(c, h.data_size_gb(i), h.hours(i)));
    in.x_unit.push_back(advisor.space().ToUnit(c));
    in.y_log.push_back(std::log(std::max(h.objective(i), 1e-9)));
    in.runtime.push_back(h.runtime_sec(i));
    in.ds_hint = h.data_size_gb(i);
    in.hours_hint = h.hours(i);
  }
  return in;
}

// Replays the BO stack of one advisor through the public layer functions:
// GP fit at every history prefix, batched prediction, the Cholesky factor
// of the fitted Gram matrix, acquisition maximization, an AGD step,
// fANOVA, the forest fit, and a whole Suggest on a restored copy.
// Returns the share of a 512-candidate pool inside the safe region.
double ReplayBo(const Advisor& advisor, uint64_t seed, Tracer* tracer) {
  const ConfigSpace* space = &advisor.space();
  const sparktune::AdvisorOptions& opts = advisor.options();
  const HistoryInputs in = Inputs(advisor);
  const size_t n = in.x_enc.size();
  const std::vector<sparktune::FeatureKind> schema = advisor.Schema();

  for (size_t prefix = static_cast<size_t>(opts.init_samples) + 1;
       prefix < n; ++prefix) {
    std::vector<std::vector<double>> x(in.x_enc.begin(),
                                       in.x_enc.begin() + prefix);
    std::vector<double> y(in.y_log.begin(), in.y_log.begin() + prefix);
    sparktune::GaussianProcess gp(schema, opts.gp);
    ScopedSpan span(tracer, "model.gp_fit");
    (void)gp.Fit(x, y);
  }
  sparktune::GaussianProcess gp(schema, opts.gp);
  sparktune::GaussianProcess rt_log(schema, opts.gp);
  sparktune::GaussianProcess rt_linear(schema, opts.gp);
  std::vector<double> rt_log_y;
  for (double r : in.runtime) rt_log_y.push_back(std::log(std::max(r, 1e-9)));
  {
    ScopedSpan span(tracer, "model.gp_fit");
    if (!gp.Fit(in.x_enc, in.y_log).ok()) return 0.0;
  }
  if (!rt_log.Fit(in.x_enc, rt_log_y).ok() ||
      !rt_linear.Fit(in.x_enc, in.runtime).ok()) {
    return 0.0;
  }

  sparktune::Rng rng(Mix(seed, 77));
  auto encode = [&](const Configuration& c) {
    return advisor.Encode(c, in.ds_hint, in.hours_hint);
  };
  std::vector<Configuration> pool;
  std::vector<std::vector<double>> pool_enc;
  for (int i = 0; i < 512; ++i) {
    pool.push_back(space->Sample(&rng));
    pool_enc.push_back(encode(pool.back()));
  }
  {
    ScopedSpan span(tracer, "model.gp_predict_batch");
    (void)gp.PredictBatch(pool_enc);
  }
  {
    sparktune::MixedKernel kernel(schema);
    kernel.set_params(gp.kernel_params());
    sparktune::Matrix gram(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        gram(i, j) = kernel.Eval(in.x_enc[i], in.x_enc[j]);
      }
      gram(i, i) += opts.gp.noise_floor;
    }
    ScopedSpan span(tracer, "linalg.cholesky_factor");
    (void)sparktune::Cholesky::Factor(gram);
  }

  // Acquisition with the runtime safety constraint, wired as the advisor
  // wires it (Eq. 8 upper bound on the log-runtime surrogate).
  const sparktune::TuningObjective& objective = opts.objective;
  const double gamma = opts.safety_gamma;
  sparktune::ProbabilisticConstraint runtime_constraint;
  runtime_constraint.surrogate = &rt_log;
  runtime_constraint.threshold =
      objective.has_runtime_constraint()
          ? std::log(objective.runtime_max)
          : std::numeric_limits<double>::infinity();
  auto resource_ok = [&](const Configuration& c) {
    return !objective.has_resource_constraint() ||
           opts.resource_fn(c) <= objective.resource_max;
  };
  auto safe_batch = [&](const std::vector<Configuration>& cs) {
    std::vector<std::vector<double>> feats;
    for (const Configuration& c : cs) feats.push_back(encode(c));
    std::vector<double> up = runtime_constraint.UpperBoundBatch(feats, gamma);
    std::vector<char> out(cs.size(), 0);
    for (size_t j = 0; j < cs.size(); ++j) {
      out[j] = resource_ok(cs[j]) && up[j] <= runtime_constraint.threshold;
    }
    return out;
  };
  auto safe = [&](const Configuration& c) { return safe_batch({c})[0] != 0; };
  auto unsafety = [&](const Configuration& c) {
    const double up = runtime_constraint.UpperBound(encode(c), gamma);
    return std::max(0.0, up - runtime_constraint.threshold);
  };
  const std::vector<char> pool_safe = safe_batch(pool);
  double safe_share = 0.0;
  for (char ok : pool_safe) safe_share += ok ? 1.0 : 0.0;
  safe_share /= static_cast<double>(pool.size());

  double incumbent = *std::min_element(in.y_log.begin(), in.y_log.end());
  sparktune::EicAcquisition acq(&gp, incumbent);
  acq.AddConstraint(runtime_constraint);
  sparktune::AcquisitionOptimizer optimizer(opts.acq);
  {
    ScopedSpan span(tracer, "bo.acq_optimize");
    (void)optimizer.Maximize(sparktune::Subspace::Full(space), encode, acq,
                             safe, unsafety, &advisor.history(), &rng,
                             safe_batch);
  }
  {
    sparktune::Agd agd(space, opts.agd);
    ScopedSpan span(tracer, "bo.agd_step");
    (void)agd.Step(advisor.BestConfig(), rt_linear, encode, opts.resource_fn,
                   objective);
  }
  {
    ScopedSpan span(tracer, "fanova.importance");
    (void)sparktune::Fanova::Analyze(in.x_unit, in.y_log,
                                     opts.subspace.fanova);
  }
  {
    sparktune::RandomForest forest(opts.subspace.fanova.forest);
    ScopedSpan span(tracer, "forest.rf_fit");
    (void)forest.Fit(in.x_unit, in.y_log);
  }
  {
    Advisor copy(space, opts);
    copy.RestoreState(advisor.SaveState());
    ScopedSpan span(tracer, "bo.suggest");
    (void)copy.Suggest(in.ds_hint, in.hours_hint);
  }
  return safe_share;
}

// Replays the knowledge-base write path (AddTask, similarity training, the
// GBDT fit on labelled pairs) and read path (distances, meta-ensemble
// inference) of the ETL service's knowledge base. Returns the number of
// labelled pairs fitted.
long long ReplayKnowledgeBase(Fleet* fleet, uint64_t seed, Tracer* tracer) {
  TuningService& service = *fleet->services[0];
  const ConfigSpace* space = fleet->spaces[0].get();
  const sparktune::KnowledgeBase& kb = service.knowledge_base();
  sparktune::KnowledgeBaseOptions kb_opts;
  sparktune::KnowledgeBase replay(space, kb_opts);
  for (const sparktune::TaskRecord& record : kb.records()) {
    const sparktune::OnlineTuner* tuner = service.tuner(record.id);
    if (tuner == nullptr) continue;
    ScopedSpan span(tracer, "meta.kb_add");
    (void)replay.AddTask(record.id, record.meta_features, tuner->history(),
                         record.importance);
  }
  {
    ScopedSpan span(tracer, "meta.similarity_train");
    (void)replay.TrainSimilarityModel();
  }

  // Every pair of records labelled with its surrogate distance over a
  // shared probe set; fitting the similarity model on them is the GBDT fit.
  sparktune::Rng rng(Mix(seed, 91));
  std::vector<std::vector<double>> probes;
  for (int i = 0; i < kb_opts.num_probe_configs; ++i) {
    probes.push_back(space->ToUnit(space->Sample(&rng)));
  }
  std::vector<sparktune::SimilarityModel::LabelledPair> pairs;
  const auto& records = kb.records();
  for (size_t i = 0; i < records.size(); ++i) {
    for (size_t j = i; j < records.size(); ++j) {
      pairs.push_back({records[i].meta_features, records[j].meta_features,
                       sparktune::SurrogateDistance(*records[i].surrogate,
                                                    *records[j].surrogate,
                                                    probes)});
    }
  }
  {
    sparktune::SimilarityModel model(kb_opts.similarity);
    ScopedSpan span(tracer, "forest.gbdt_fit");
    (void)model.Train(pairs);
  }

  // Read path, from the tuning cohort's own meta-features and histories.
  for (size_t k = 0; k < fleet->tuning_ids[0].size() && k < 4; ++k) {
    const sparktune::OnlineTuner* tuner =
        service.tuner(fleet->tuning_ids[0][k]);
    if (tuner == nullptr || tuner->advisor() == nullptr) continue;
    const std::vector<double> meta =
        sparktune::ExtractMetaFeatures(tuner->last_event_log());
    for (int rep = 0; rep < 8; ++rep) {
      ScopedSpan span(tracer, "meta.distances");
      (void)kb.DistancesTo(meta);
    }
    const Advisor& advisor = *tuner->advisor();
    const HistoryInputs in = Inputs(advisor);
    std::unique_ptr<sparktune::Surrogate> ensemble =
        kb.MakeMetaSurrogateFactory(meta)(advisor.Schema());
    if (!ensemble->Fit(in.x_enc, in.y_log).ok()) continue;
    std::vector<std::vector<double>> pool;
    for (int i = 0; i < 512; ++i) {
      pool.push_back(
          advisor.Encode(space->Sample(&rng), in.ds_hint, in.hours_hint));
    }
    ScopedSpan span(tracer, "meta.ensemble_predict");
    (void)ensemble->PredictBatch(pool);
  }
  return static_cast<long long>(pairs.size());
}

// One in-process episode: set-up (timed), an optional harvest phase that
// grows each knowledge base to its cap, then the tuning cohort's ticks.
// Service and net layer replays, defined with the multi-process fleet.
void ReplayWire(const std::vector<Result<Observation>>& slots,
                const ConfigSpace& space, Tracer* tracer, Episode* ep);
void ReplayCheckpoints(const RunOptions& options, Tracer* tracer,
                       Episode* ep);

Episode RunFleetEpisode(const FleetSpec& spec, const RunOptions& options,
                        Tracer* tracer, bool replays) {
  Episode ep;
  const Clock::time_point setup_start = Now();
  Fleet fleet;
  if (Status st = BuildFleet(spec, options.seed, options.threads, tracer,
                             &fleet);
      !st.ok()) {
    ep.errors.push_back("setup: " + st.ToString());
    return ep;
  }
  ep.setup_s = SecondsSince(setup_start);

  long long tick = 0;
  if (spec.kb_cap > 0) {
    // The harvest cohort runs its baseline and three initial-design
    // periods; the last of those ticks harvests it into the knowledge
    // bases.
    for (long long period = 0; period < 4; ++period) {
      tracer->SetTick(tick++);
      FleetTick(&fleet, spec, /*tuning_cohort=*/false,
                /*harvest=*/period == 3, period, tracer, &ep);
    }
    for (const auto& service : fleet.services) {
      if (static_cast<int>(service->knowledge_base().size()) != spec.kb_cap) {
        ep.errors.push_back("knowledge base did not reach its cap");
        return ep;
      }
    }
  }
  for (long long period = 0; period < spec.ticks; ++period) {
    tracer->SetTick(tick++);
    FleetTick(&fleet, spec, /*tuning_cohort=*/true, /*harvest=*/false, period,
              tracer, &ep);
  }
  tracer->SetTick(-1);

  if (replays) {
    for (const TimingEvaluator* timed : fleet.captured) {
      for (const EventLog& log : timed->logs()) {
        ScopedSpan span(tracer, "meta.extract");
        (void)sparktune::ExtractMetaFeatures(log);
      }
    }
    if (spec.replay_bo) {
      std::vector<double> shares;
      for (int s = 0; s < 2; ++s) {
        for (size_t k = 0; k < fleet.tuning_ids[s].size() && k < 3; ++k) {
          const sparktune::OnlineTuner* tuner =
              fleet.services[s]->tuner(fleet.tuning_ids[s][k]);
          if (tuner == nullptr || tuner->advisor() == nullptr) continue;
          shares.push_back(
              ReplayBo(*tuner->advisor(), Mix(options.seed, k), tracer));
        }
      }
      ep.safe_candidate_ratio = Mean(shares);
    }
    if (spec.replay_kb) {
      ep.similarity_pairs = ReplayKnowledgeBase(&fleet, options.seed, tracer);
    }
    ReplayWire(ep.last_slots, *fleet.spaces[0], tracer, &ep);
    ReplayCheckpoints(options, tracer, &ep);
    ep.spans = tracer->spans();
  }
  return ep;
}

// ---------------------------------------------------------------------------
// Multi-process fleet (rpc_fleet).
// ---------------------------------------------------------------------------

struct RpcSpec {
  int tasks = 32;
  int ticks = 100;
  int budget = 5;
  // Tasks run in lockstep, so every checkpoint_every-th tick (and the two
  // phase-change ticks) writes every task's checkpoint: a fifth of the
  // ticks pay the disk. The median tick is control plane, codec and
  // compute; p90 is a checkpoint tick.
  int checkpoint_every = 5;
  std::vector<int> kill_ticks = {25, 55};
  // Ticks a killed shard stays down. Parking delays its tasks' period
  // clocks by this much; a multiple of checkpoint_every keeps their
  // checkpoints on the same ticks as everyone else's, so the two kinds of
  // tick stay apart and the percentiles do not straddle them.
  int restart_after = 5;
  int crash_tick = 80;  // Abandon() + Recover() of the control plane
};

const char* kHiBench[] = {"WordCount", "Sort",        "TeraSort", "Join",
                          "PageRank",  "Aggregation", "Scan",     "Bayes"};

sparktune::SimTaskSpec RpcTaskSpec(uint64_t seed, int i) {
  sparktune::SimTaskSpec spec;
  spec.workload = kHiBench[i % 8];
  spec.seed = Mix(seed, 1000 + static_cast<uint64_t>(i));
  return spec;
}

std::string RpcTaskId(int i) { return "rpc-" + std::to_string(i); }

sparktune::ProcessSupervisorOptions RpcOptions(const RunOptions& options,
                                               const RpcSpec& spec,
                                               const std::string& dir) {
  sparktune::ProcessSupervisorOptions o;
  o.shardd_path = options.shardd;
  o.socket_dir = dir;
  o.num_shards = 2;
  o.service.budget = spec.budget;
  o.service.ei_stop_threshold = 0.0;
  o.service.expert_ranking = true;
  o.service.enable_meta = false;
  o.service.repository_dir = dir + "/repo";
  o.service.auto_checkpoint_periods = spec.checkpoint_every;
  o.service.checkpoint_on_phase_change = true;
  o.service.num_threads = 1;
  o.health.auto_restart = false;
  return o;
}

void AddStats(Episode* ep, const sparktune::ProcessSupervisorStats& s) {
  ep->replayed_periods += s.replayed_periods;
  ep->parked_slots += s.parked_slots;
}

// A delivered rpc slot: task index, its period index, and the slot.
struct Delivered {
  int task;
  long long period;
  Result<Observation> slot;
};

// Set-up of the process fleet: spawn the workers, register the tasks.
Status StartRpcFleet(const RunOptions& options, const RpcSpec& spec,
                     const sparktune::ProcessSupervisorOptions& sup_opts,
                     std::unique_ptr<sparktune::ProcessSupervisor>* sup) {
  *sup = std::make_unique<sparktune::ProcessSupervisor>(sup_opts);
  SPARKTUNE_RETURN_IF_ERROR((*sup)->Start());
  for (int i = 0; i < spec.tasks; ++i) {
    SPARKTUNE_RETURN_IF_ERROR(
        (*sup)->RegisterTask(RpcTaskId(i), RpcTaskSpec(options.seed, i)));
  }
  return Status::OK();
}

// The wire codec and the frame CRC on one tick's slots, as a shard sends
// them back to the control plane.
void ReplayWire(const std::vector<Result<Observation>>& slots,
                const ConfigSpace& space, Tracer* tracer, Episode* ep) {
  for (int rep = 0; rep < 20; ++rep) {
    std::string payload;
    {
      ScopedSpan span(tracer, "service.wire_encode");
      Json array = Json::Array();
      for (const auto& slot : slots) {
        array.Append(sparktune::ResultSlotToJson(slot));
      }
      payload = array.Dump();
    }
    ep->wire_bytes = static_cast<double>(payload.size());
    {
      ScopedSpan span(tracer, "service.wire_decode");
      auto parsed = Json::Parse(payload);
      if (parsed.ok()) {
        for (const Json& slot : parsed->elements()) {
          (void)sparktune::ResultSlotFromJson(slot, space);
        }
      }
    }
    ScopedSpan span(tracer, "net.frame_encode_crc");
    (void)sparktune::net::EncodeFrame(sparktune::net::MsgKind::kExecute,
                                      payload);
  }
}

// The checkpoint read path: a fresh service over the repository in `dir`
// loads it, then re-registers and restores each task in `ids`.
void ReplayRestore(const RunOptions& options,
                   sparktune::ServiceConfig config, const std::string& dir,
                   const std::vector<std::string>& ids, Tracer* tracer,
                   Episode* ep) {
  auto cluster = sparktune::ClusterFromName(config.cluster);
  if (!cluster.ok()) {
    ep->errors.push_back("cluster: " + cluster.status().ToString());
    return;
  }
  const ConfigSpace space = sparktune::BuildSparkSpace(*cluster);
  config.repository_dir = dir;
  TuningService service(&space, sparktune::MakeServiceOptions(config));
  {
    ScopedSpan span(tracer, "service.load_repository");
    (void)service.LoadRepository();
  }
  std::vector<std::unique_ptr<JobEvaluator>> evaluators;
  for (const std::string& id : ids) {
    const int i = std::atoi(id.c_str() + 4);  // "rpc-<i>"
    auto evaluator = sparktune::BuildSimEvaluator(&space, *cluster,
                                                  RpcTaskSpec(options.seed, i));
    if (!evaluator.ok() ||
        !service.RegisterTask(id, evaluator->get()).ok()) {
      ep->errors.push_back("restore replay: cannot register " + id);
      return;
    }
    evaluators.push_back(std::move(evaluator).value());
    ScopedSpan span(tracer, "service.restore_task");
    if (Status st = service.RestoreTask(id); !st.ok()) {
      ep->errors.push_back("restore replay: " + st.ToString());
      return;
    }
  }
}

// Replays the checkpoint write and restore paths on the repository the
// workers left behind, and the wire codec on the last tick's slots.
void ReplayRpcLayers(const RunOptions& options,
                     const sparktune::ProcessSupervisorOptions& sup_opts,
                     const std::vector<Result<Observation>>& last_slots,
                     Tracer* tracer, Episode* ep) {
  auto cluster = sparktune::ClusterFromName(sup_opts.service.cluster);
  if (!cluster.ok()) {
    ep->errors.push_back("cluster: " + cluster.status().ToString());
    return;
  }
  const ConfigSpace space = sparktune::BuildSparkSpace(*cluster);
  const std::string replay_dir = sup_opts.socket_dir + "/replay";
  std::error_code ec;
  std::filesystem::create_directories(replay_dir, ec);
  sparktune::DataRepository source(sup_opts.service.repository_dir);
  sparktune::DataRepository sink(replay_dir);
  std::vector<std::string> ids = source.ListCheckpointIds();
  if (ids.size() > 16) ids.resize(16);
  double bytes = 0.0;
  for (const std::string& id : ids) {
    Result<Json> payload = source.LoadCheckpoint(id);
    if (!payload.ok()) {
      ep->errors.push_back("checkpoint read: " + payload.status().ToString());
      return;
    }
    bytes += static_cast<double>(payload->Dump().size());
    ScopedSpan span(tracer, "service.checkpoint_write");
    if (Status st = sink.SaveCheckpoint(id, *payload); !st.ok()) {
      ep->errors.push_back("checkpoint write: " + st.ToString());
      return;
    }
  }
  if (!ids.empty()) ep->checkpoint_bytes = bytes / ids.size();
  ReplayRestore(options, sup_opts.service, replay_dir, ids, tracer, ep);
  ReplayWire(last_slots, space, tracer, ep);
}

// Checkpoint write and read paths for the in-process workloads, which
// have no repository of their own: a small HiBench service with a
// repository runs its tasks through the rpc_fleet budget and applying
// phase, checkpoints each (CheckpointTask), and a second service restores
// them. Together with the wire replay this puts every service and net
// layer except the socket round trip on the in-process workloads too.
void ReplayCheckpoints(const RunOptions& options, Tracer* tracer,
                       Episode* ep) {
  const RpcSpec spec;
  const std::string dir = options.work_dir + "/checkpoints-" +
                          std::to_string(getpid());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  sparktune::ServiceConfig config = RpcOptions(options, spec, dir).service;
  config.repository_dir = dir;
  config.auto_checkpoint_periods = 0;
  config.checkpoint_on_phase_change = false;
  auto cluster = sparktune::ClusterFromName(config.cluster);
  if (!cluster.ok()) {
    ep->errors.push_back("cluster: " + cluster.status().ToString());
    return;
  }
  const ConfigSpace space = sparktune::BuildSparkSpace(*cluster);
  TuningService writer(&space, sparktune::MakeServiceOptions(config));
  std::vector<std::unique_ptr<JobEvaluator>> evaluators;
  std::vector<std::string> ids;
  for (int i = 0; i < 16; ++i) {
    auto evaluator = sparktune::BuildSimEvaluator(&space, *cluster,
                                                  RpcTaskSpec(options.seed, i));
    if (!evaluator.ok() ||
        !writer.RegisterTask(RpcTaskId(i), evaluator->get()).ok()) {
      ep->errors.push_back("checkpoint replay: cannot register a task");
      return;
    }
    evaluators.push_back(std::move(evaluator).value());
    ids.push_back(RpcTaskId(i));
  }
  for (int t = 0; t < spec.ticks; ++t) (void)writer.ExecutePeriodicAll(ids);
  sparktune::DataRepository repo(dir);
  double bytes = 0.0;
  for (const std::string& id : ids) {
    {
      ScopedSpan span(tracer, "service.checkpoint_write");
      if (Status st = writer.CheckpointTask(id); !st.ok()) {
        ep->errors.push_back("checkpoint write: " + st.ToString());
        return;
      }
    }
    Result<Json> payload = repo.LoadCheckpoint(id);
    if (payload.ok()) bytes += static_cast<double>(payload->Dump().size());
  }
  ep->checkpoint_bytes = bytes / static_cast<double>(ids.size());
  ReplayRestore(options, config, dir, ids, tracer, ep);
  std::filesystem::remove_all(dir, ec);
}

Episode RunRpcEpisode(const RunOptions& options, const RpcSpec& spec,
                      int index, Tracer* tracer, bool replays,
                      std::vector<Delivered>* delivered) {
  Episode ep;
  const std::string dir = options.work_dir + "/rpc-" +
                          std::to_string(getpid()) + "-" +
                          std::to_string(index);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  const sparktune::ProcessSupervisorOptions sup_opts =
      RpcOptions(options, spec, dir);

  const Clock::time_point setup_start = Now();
  std::unique_ptr<sparktune::ProcessSupervisor> sup;
  if (Status st = StartRpcFleet(options, spec, sup_opts, &sup); !st.ok()) {
    ep.errors.push_back("setup: " + st.ToString());
    return ep;
  }
  ep.setup_s = SecondsSince(setup_start);

  std::vector<std::string> ids;
  for (int i = 0; i < spec.tasks; ++i) ids.push_back(RpcTaskId(i));
  std::vector<TaskLedger> ledgers(static_cast<size_t>(spec.tasks));
  std::vector<Result<Observation>> last_slots;
  int killed = -1;
  int restart_at = -1;
  for (int t = 0; t < spec.ticks; ++t) {
    tracer->SetTick(t);
    if (t == spec.crash_tick) {
      AddStats(&ep, sup->stats());
      const Clock::time_point start = Now();
      {
        ScopedSpan span(tracer, "service.recover");
        sup->Abandon();
        sup = std::make_unique<sparktune::ProcessSupervisor>(sup_opts);
        if (Status st = sup->Recover(); !st.ok()) {
          ep.errors.push_back("recover: " + st.ToString());
          return ep;
        }
      }
      ep.recover_ms.push_back(ElapsedUs(start, Now()) / 1000.0);
    }
    if (t == restart_at && killed >= 0) {
      const Clock::time_point start = Now();
      {
        ScopedSpan span(tracer, "service.restart_shard");
        if (Status st = sup->RestartShard(killed); !st.ok()) {
          ep.errors.push_back("restart: " + st.ToString());
          return ep;
        }
      }
      ep.recovery_ms.push_back(ElapsedUs(start, Now()) / 1000.0);
      killed = -1;
    }
    if (std::find(spec.kill_ticks.begin(), spec.kill_ticks.end(), t) !=
        spec.kill_ticks.end()) {
      std::vector<int> load(2, 0);
      for (const std::string& id : ids) ++load[sup->shard_of(id)];
      killed = load[1] > load[0] ? 1 : 0;
      if (Status st = sup->KillShard(killed); !st.ok()) {
        ep.errors.push_back("kill: " + st.ToString());
        return ep;
      }
      restart_at = t + spec.restart_after;
    }

    std::vector<long long> before(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) before[i] = sup->periods(ids[i]);
    const Clock::time_point start = Now();
    std::vector<Result<Observation>> slots;
    {
      ScopedSpan span(tracer, "service.tick");
      slots = sup->Tick();
    }
    ep.tick_ms.push_back(ElapsedUs(start, Now()) / 1000.0);
    for (size_t i = 0; i < ids.size(); ++i) {
      const long long after = sup->periods(ids[i]);
      if (after == before[i]) {
        // Parked: expected only while its shard is down on purpose.
        if (sup->shard_of(ids[i]) != killed) {
          ++ep.attempted;
          ++ep.failed;
        }
        continue;
      }
      Account(&ep, &ledgers[i], slots[i], after - 1, spec.budget);
      if (delivered != nullptr) {
        delivered->push_back({static_cast<int>(i), after - 1, slots[i]});
      }
    }
    if (t + 1 == spec.ticks) last_slots = std::move(slots);
  }
  tracer->SetTick(-1);

  if (replays) {
    for (int i = 0; i < 64; ++i) {
      ScopedSpan span(tracer, "net.ping");
      if (Status st = sup->Ping(i % 2); !st.ok()) {
        ep.errors.push_back("ping: " + st.ToString());
      }
    }
    sparktune::CheckpointReport report;
    {
      ScopedSpan span(tracer, "service.checkpoint_all");
      report = sup->CheckpointAll();
    }
    const int visited = report.written + report.skipped;
    ep.checkpoint_written_ratio =
        visited > 0 ? static_cast<double>(report.written) / visited : 0.0;
  }
  AddStats(&ep, sup->stats());
  if (Status st = sup->Shutdown(); !st.ok()) {
    ep.errors.push_back("shutdown: " + st.ToString());
  }
  sup.reset();
  if (replays) {
    ReplayRpcLayers(options, sup_opts, last_slots, tracer, &ep);
    ep.spans = tracer->spans();
  }
  std::filesystem::remove_all(dir, ec);
  return ep;
}

// Untimed oracle: an in-process TuningService running the identical specs
// with no sockets, kills or repository. Every delivered slot must equal
// the oracle's slot of the same period, bit for bit.
long long OracleMismatches(const RunOptions& options, const RpcSpec& spec,
                           const std::vector<Delivered>& delivered,
                           std::vector<std::string>* errors) {
  sparktune::ServiceConfig config =
      RpcOptions(options, spec, options.work_dir).service;
  config.repository_dir.clear();
  config.auto_checkpoint_periods = 0;
  config.checkpoint_on_phase_change = false;
  auto cluster = sparktune::ClusterFromName(config.cluster);
  if (!cluster.ok()) {
    errors->push_back("oracle cluster: " + cluster.status().ToString());
    return 1;
  }
  const ConfigSpace space = sparktune::BuildSparkSpace(*cluster);
  TuningService oracle(&space, sparktune::MakeServiceOptions(config));
  std::vector<std::unique_ptr<JobEvaluator>> evaluators;
  for (int i = 0; i < spec.tasks; ++i) {
    auto evaluator = sparktune::BuildSimEvaluator(
        &space, *cluster, RpcTaskSpec(options.seed, i));
    if (!evaluator.ok() ||
        !oracle.RegisterTask(RpcTaskId(i), evaluator->get()).ok()) {
      errors->push_back("oracle: cannot register task");
      return 1;
    }
    evaluators.push_back(std::move(evaluator).value());
  }
  long long mismatches = 0;
  for (const Delivered& d : delivered) {
    const std::string id = RpcTaskId(d.task);
    while (oracle.periods(id) < d.period) (void)oracle.ExecutePeriodic(id);
    if (!SameSlot(d.slot, oracle.ExecutePeriodic(id))) {
      if (mismatches == 0) {
        errors->push_back("oracle mismatch: task " + id + " period " +
                          std::to_string(d.period));
      }
      ++mismatches;
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Workload definitions and the run loop.
// ---------------------------------------------------------------------------

FleetSpec SpecFor(const std::string& workload) {
  FleetSpec spec;
  if (workload == "bo_tuning") {
    // Baseline through the whole 20-iteration budget.
    spec.per_service = 32;
    spec.ticks = 21;
    spec.replay_bo = true;
  } else if (workload == "transfer") {
    // A harvest cohort grows each knowledge base to 16 tasks (similarity
    // training at 2/4/8/16), then the tuning cohort runs its whole budget
    // with the meta-ensemble surrogate.
    spec.per_service = 24;
    spec.kb_cap = 16;
    spec.ticks = 21;
    spec.meta = true;
    spec.compact_logs = false;
    spec.replay_bo = true;
    spec.replay_kb = true;
  }
  return spec;
}

std::map<std::string, double> LayerSelfMs(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (const auto& [layer, us] : SelfTimeByLayerUs(spans)) {
    out[layer] = us / 1000.0;
  }
  return out;
}

double TickTotalMs(const Episode& ep) {
  double total = 0.0;
  for (double ms : ep.tick_ms) total += ms;
  return total;
}

// Per-layer metrics of a traced episode. The untraced episodes run just
// before and after it give the tracing overhead.
void LayerMetrics(const Episode& traced, const Episode& before,
                  const Episode& after, Report* report) {
  const SpanStats st(traced.spans);
  report->Set("sparksim.run_us", st.MeanUs("sparksim.run"));
  report->Set("sparksim.runs", static_cast<double>(st.Count("sparksim.run")));
  report->Set("meta.extract_us", st.MeanUs("meta.extract"));
  report->Set("bo.suggest_ms", st.MeanUs("bo.suggest") / 1000.0);
  report->Set("bo.acq_optimize_ms", st.MeanUs("bo.acq_optimize") / 1000.0);
  report->Set("bo.agd_step_ms", st.MeanUs("bo.agd_step") / 1000.0);
  report->Set("bo.safe_candidate_ratio", traced.safe_candidate_ratio);
  report->Set("bo.cost_reduction_it9", Mean(traced.reductions_it9));
  report->Set("model.gp_fit_ms", st.MeanUs("model.gp_fit") / 1000.0);
  report->Set("model.gp_predict_batch_us", st.MeanUs("model.gp_predict_batch"));
  report->Set("linalg.cholesky_factor_us", st.MeanUs("linalg.cholesky_factor"));
  report->Set("fanova.importance_ms", st.MeanUs("fanova.importance") / 1000.0);
  report->Set("forest.rf_fit_ms", st.MeanUs("forest.rf_fit") / 1000.0);
  report->Set("forest.gbdt_fit_s", st.MeanUs("forest.gbdt_fit") / 1e6);
  report->Set("meta.kb_add_ms", st.MeanUs("meta.kb_add") / 1000.0);
  report->Set("meta.similarity_train_s",
              st.MeanUs("meta.similarity_train") / 1e6);
  report->Set("meta.similarity_pairs",
              static_cast<double>(traced.similarity_pairs));
  report->Set("meta.distances_us", st.MeanUs("meta.distances"));
  report->Set("meta.ensemble_predict_us", st.MeanUs("meta.ensemble_predict"));
  report->Set("service.harvest_s", traced.harvest_s);
  report->Set("service.harvest_yield",
              traced.harvest_attempted > 0
                  ? static_cast<double>(traced.harvest_harvested) /
                        static_cast<double>(traced.harvest_attempted)
                  : 0.0);
  report->Set("service.checkpoint_write_ms",
              st.MeanUs("service.checkpoint_write") / 1000.0);
  report->Set("service.checkpoint_bytes", traced.checkpoint_bytes);
  report->Set("service.checkpoint_written_ratio",
              traced.checkpoint_written_ratio);
  report->Set("service.restore_task_ms",
              st.MeanUs("service.restore_task") / 1000.0);
  report->Set("service.load_repository_ms",
              st.MeanUs("service.load_repository") / 1000.0);
  report->Set("service.replayed_periods",
              static_cast<double>(traced.replayed_periods));
  report->Set("service.parked_slots",
              static_cast<double>(traced.parked_slots));
  report->Set("service.recovery_ms", Median(traced.recovery_ms));
  report->Set("service.recover_ms", Median(traced.recover_ms));
  report->Set("service.wire_encode_us", st.MeanUs("service.wire_encode"));
  report->Set("service.wire_decode_us", st.MeanUs("service.wire_decode"));
  report->Set("service.wire_bytes_per_tick", traced.wire_bytes);
  report->Set("net.frame_encode_crc_us", st.MeanUs("net.frame_encode_crc"));
  report->Set("net.ping_rtt_us", st.MeanUs("net.ping"));
  const std::map<std::string, double> self = LayerSelfMs(traced.spans);
  for (const char* layer : {"service", "sparksim", "meta", "bo", "model",
                            "linalg", "fanova", "forest", "net"}) {
    auto it = self.find(layer);
    report->Set(std::string(layer) + ".self_ms",
                it == self.end() ? 0.0 : it->second);
  }
  const double traced_ms = TickTotalMs(traced);
  const double untraced_ms = 0.5 * (TickTotalMs(before) + TickTotalMs(after));
  report->Set("trace.overhead_pct",
              untraced_ms > 0.0 ? 100.0 * (traced_ms - untraced_ms) /
                                      untraced_ms
                                : 0.0);
  report->Set("trace.spans", static_cast<double>(traced.spans.size()));
}

void EndToEndMetrics(const std::vector<Episode>& episodes,
                     const std::vector<double>& setups, Report* report) {
  // Every episode runs the same tick list, so the ticks of all episodes
  // pool into one sample: each percentile falls on the same kind of tick
  // whatever the episode count, with more samples behind it.
  std::vector<double> ticks;
  double total_ms = 0.0;
  long long periods = 0;
  for (const Episode& ep : episodes) {
    ticks.insert(ticks.end(), ep.tick_ms.begin(), ep.tick_ms.end());
    total_ms += TickTotalMs(ep);
    periods += ep.task_periods;
  }
  const Episode& first = episodes.front();
  report->Set("setup_s", Median(setups));
  report->Set("task_periods_per_s",
              static_cast<double>(periods) / (total_ms / 1000.0));
  report->Set("tick_p50_ms", Percentile(ticks, 0.5));
  report->Set("tick_p90_ms", Percentile(ticks, 0.9));
  // The high-water mark after the first episode: later episodes reuse a
  // heap whose fragmentation varies from run to run.
  report->Set("peak_rss_mb", first.peak_rss_mb);
  report->Set("safe_ratio",
              first.tuning_slots > 0
                  ? static_cast<double>(first.safe_slots) /
                        static_cast<double>(first.tuning_slots)
                  : 0.0);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"bo_tuning", "transfer",
                                                  "rpc_fleet"};
  return kNames;
}

RunResult RunWorkload(const RunOptions& options) {
  RunResult result;
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) ==
      names.end()) {
    result.correct = false;
    result.errors.push_back("unknown workload " + options.workload);
    return result;
  }
  const bool rpc = options.workload == "rpc_fleet";
  const FleetSpec fleet_spec = SpecFor(options.workload);
  const RpcSpec rpc_spec;
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);

  Tracer off(false);
  Tracer on(true);
  std::vector<Delivered> delivered;
  auto episode = [&](int index, bool traced) {
    Tracer* tracer = traced ? &on : &off;
    Episode ep = rpc ? RunRpcEpisode(options, rpc_spec, index, tracer, traced,
                                     index == 0 ? &delivered : nullptr)
                     : RunFleetEpisode(fleet_spec, options, tracer, traced);
    ep.peak_rss_mb = PeakRssMb();
    return ep;
  };

  // Timed phase: whole episodes until the time is spent (at least two, so
  // the trajectory digest is compared within the run). A traced run is
  // one traced episode between two untraced ones.
  std::vector<Episode> episodes;
  const Clock::time_point start = Now();
  if (options.trace) {
    episodes.push_back(episode(0, false));
    episodes.push_back(episode(1, true));
    episodes.push_back(episode(2, false));
  } else {
    for (int index = 0;; ++index) {
      episodes.push_back(episode(index, false));
      if (!episodes.back().errors.empty()) break;
      const double elapsed = SecondsSince(start);
      const double per_episode = elapsed / episodes.size();
      if (episodes.size() >= 2 && elapsed + per_episode > options.seconds) {
        break;
      }
    }
  }
  std::vector<double> setups;
  for (const Episode& ep : episodes) setups.push_back(ep.setup_s);
  // Set-up is reported as a median of at least three set-ups, and of up to
  // fifteen while the extra set-ups stay within a tenth of the run time.
  const Clock::time_point extra_start = Now();
  while (!options.trace &&
         (setups.size() < 3 ||
          (setups.size() < 15 &&
           SecondsSince(extra_start) < 0.1 * options.seconds))) {
    const Clock::time_point setup_start = Now();
    if (rpc) {
      const std::string dir = options.work_dir + "/rpc-setup-" +
                              std::to_string(getpid());
      std::filesystem::create_directories(dir, ec);
      std::unique_ptr<sparktune::ProcessSupervisor> sup;
      Status st = StartRpcFleet(options, rpc_spec,
                                RpcOptions(options, rpc_spec, dir), &sup);
      setups.push_back(SecondsSince(setup_start));
      if (st.ok()) st = sup->Shutdown();
      if (!st.ok()) result.errors.push_back("setup: " + st.ToString());
      sup.reset();
      std::filesystem::remove_all(dir, ec);
    } else {
      Fleet fleet;
      Status st = BuildFleet(fleet_spec, options.seed, options.threads, &off,
                             &fleet);
      setups.push_back(SecondsSince(setup_start));
      if (!st.ok()) result.errors.push_back("setup: " + st.ToString());
    }
  }

  // Output checks: errors, failed slots, repeating digests, the oracle.
  for (const Episode& ep : episodes) {
    result.attempted += ep.attempted;
    result.failed += ep.failed;
    result.errors.insert(result.errors.end(), ep.errors.begin(),
                         ep.errors.end());
  }
  result.digest = episodes.front().digest.Hex();
  for (const Episode& ep : episodes) {
    if (ep.digest.Hex() != result.digest) {
      result.errors.push_back("trajectory digest differs between episodes: " +
                              result.digest + " vs " + ep.digest.Hex());
    }
  }
  if (!options.expect_digest.empty() &&
      options.expect_digest != result.digest) {
    result.errors.push_back("trajectory digest " + result.digest +
                            " differs from the expected " +
                            options.expect_digest);
  }
  if (rpc && result.errors.empty()) {
    const long long mismatches =
        OracleMismatches(options, rpc_spec, delivered, &result.errors);
    result.failed += mismatches;
    result.context.push_back({"oracle_compared",
                              std::to_string(delivered.size())});
  }
  result.correct = result.errors.empty() && result.failed == 0;

  if (options.trace) {
    LayerMetrics(episodes[1], episodes[0], episodes[2], &result.report);
    if (!options.trace_out.empty() &&
        !on.WriteJson(options.trace_out)) {
      result.errors.push_back("cannot write " + options.trace_out);
      result.correct = false;
    }
  } else {
    EndToEndMetrics(episodes, setups, &result.report);
  }

  const int tasks = rpc ? rpc_spec.tasks
                        : 2 * (fleet_spec.per_service + fleet_spec.harvest_cohort());
  result.context.push_back({"tasks", std::to_string(tasks)});
  result.context.push_back({"load", "closed loop, 1 client"});
  result.context.push_back({"episodes", std::to_string(episodes.size())});
  result.context.push_back({"setups", std::to_string(setups.size())});
  std::string tick_ms;
  for (double ms : episodes.front().tick_ms) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.1f", tick_ms.empty() ? "" : ",", ms);
    tick_ms += buf;
  }
  result.context.push_back({"first_episode_tick_ms", tick_ms});
  result.context.push_back(
      {"threads", std::to_string(rpc ? 1 : options.threads)});
  result.context.push_back({"processes", rpc ? "3" : "1"});
  return result;
}

}  // namespace perfbench
