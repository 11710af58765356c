// Determinism suite for the parallel suggestion engine: every parallelized
// component must produce bit-identical output at num_threads=1 and
// num_threads=4 (ISSUE: "seed-determinism at any thread count").
#include <gtest/gtest.h>

#include <cmath>
#include <deque>

#include "bo/acq_optimizer.h"
#include "fanova/fanova.h"
#include "forest/random_forest.h"
#include "model/gp.h"
#include "service/tuning_service.h"
#include "sparksim/hibench.h"
#include "tuner/online_tuner.h"

namespace sparktune {
namespace {

// Synthetic mixed-schema regression data in the unit cube.
struct MixedData {
  std::vector<FeatureKind> schema;
  std::vector<std::vector<double>> x;
  std::vector<double> y;
};

MixedData MakeMixedData(size_t n, uint64_t seed) {
  MixedData d;
  d.schema = {FeatureKind::kNumeric, FeatureKind::kNumeric,
              FeatureKind::kNumeric, FeatureKind::kCategorical,
              FeatureKind::kDataSize};
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row(5);
    for (int k = 0; k < 3; ++k) row[static_cast<size_t>(k)] = rng.Uniform();
    row[3] = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    row[4] = rng.Uniform();
    double y = std::sin(3.0 * row[0]) + row[1] * row[1] - 0.5 * row[2] +
               0.3 * row[3] + 0.7 * row[4] + 0.05 * rng.Normal();
    d.x.push_back(std::move(row));
    d.y.push_back(y);
  }
  return d;
}

TEST(DeterminismTest, GpFitBitIdenticalAcrossThreadCounts) {
  MixedData d = MakeMixedData(40, 21);
  GpOptions serial;
  serial.num_threads = 1;
  GpOptions wide = serial;
  wide.num_threads = 4;
  GaussianProcess gp1(d.schema, serial);
  GaussianProcess gp4(d.schema, wide);
  ASSERT_TRUE(gp1.Fit(d.x, d.y).ok());
  ASSERT_TRUE(gp4.Fit(d.x, d.y).ok());

  // The hyper sweep must select the exact same grid point...
  EXPECT_EQ(gp1.kernel_params().signal_variance,
            gp4.kernel_params().signal_variance);
  EXPECT_EQ(gp1.kernel_params().length_numeric,
            gp4.kernel_params().length_numeric);
  EXPECT_EQ(gp1.kernel_params().length_datasize,
            gp4.kernel_params().length_datasize);
  EXPECT_EQ(gp1.kernel_params().hamming_weight,
            gp4.kernel_params().hamming_weight);
  EXPECT_EQ(gp1.kernel_params().noise_variance,
            gp4.kernel_params().noise_variance);
  EXPECT_EQ(gp1.log_marginal_likelihood(), gp4.log_marginal_likelihood());

  // ...and the posterior must agree bit-for-bit everywhere.
  Rng probe(77);
  for (int i = 0; i < 10; ++i) {
    std::vector<double> q = {probe.Uniform(), probe.Uniform(),
                             probe.Uniform(),
                             probe.Bernoulli(0.5) ? 1.0 : 0.0,
                             probe.Uniform()};
    Prediction p1 = gp1.Predict(q);
    Prediction p4 = gp4.Predict(q);
    EXPECT_EQ(p1.mean, p4.mean);
    EXPECT_EQ(p1.variance, p4.variance);
  }
}

TEST(DeterminismTest, GpPredictBatchBitIdenticalAcrossThreadCounts) {
  // End-to-end through the blocked Cholesky: a GP fitted and batch-scored
  // at num_threads=4 must reproduce the serial run bit-for-bit.
  MixedData d = MakeMixedData(60, 91);
  GpOptions serial;
  serial.num_threads = 1;
  GpOptions wide = serial;
  wide.num_threads = 4;
  GaussianProcess gp1(d.schema, serial);
  GaussianProcess gp4(d.schema, wide);
  ASSERT_TRUE(gp1.Fit(d.x, d.y).ok());
  ASSERT_TRUE(gp4.Fit(d.x, d.y).ok());

  Rng probe(19);
  std::vector<std::vector<double>> xs;
  for (int i = 0; i < 120; ++i) {  // crosses the 48-column solve blocks
    xs.push_back({probe.Uniform(), probe.Uniform(), probe.Uniform(),
                  probe.Bernoulli(0.5) ? 1.0 : 0.0, probe.Uniform()});
  }
  std::vector<Prediction> b1 = gp1.PredictBatch(xs);
  std::vector<Prediction> b4 = gp4.PredictBatch(xs);
  ASSERT_EQ(b1.size(), b4.size());
  for (size_t j = 0; j < xs.size(); ++j) {
    EXPECT_EQ(b1[j].mean, b4[j].mean) << "j=" << j;
    EXPECT_EQ(b1[j].variance, b4[j].variance) << "j=" << j;
    Prediction p = gp1.Predict(xs[j]);
    EXPECT_EQ(b1[j].mean, p.mean) << "j=" << j;
    EXPECT_EQ(b1[j].variance, p.variance) << "j=" << j;
  }
}

TEST(DeterminismTest, ForestFitBitIdenticalAcrossThreadCounts) {
  MixedData d = MakeMixedData(120, 33);
  ForestOptions serial;
  serial.num_trees = 50;
  serial.seed = 5;
  serial.num_threads = 1;
  ForestOptions wide = serial;
  wide.num_threads = 4;
  RandomForest rf1(serial), rf4(wide);
  ASSERT_TRUE(rf1.Fit(d.x, d.y).ok());
  ASSERT_TRUE(rf4.Fit(d.x, d.y).ok());

  std::vector<double> imp1 = rf1.FeatureImportance();
  std::vector<double> imp4 = rf4.FeatureImportance();
  EXPECT_EQ(imp1, imp4);
  Rng probe(13);
  for (int i = 0; i < 10; ++i) {
    std::vector<double> q(5);
    for (auto& v : q) v = probe.Uniform();
    Prediction p1 = rf1.Predict(q);
    Prediction p4 = rf4.Predict(q);
    EXPECT_EQ(p1.mean, p4.mean);
    EXPECT_EQ(p1.variance, p4.variance);
  }
}

TEST(DeterminismTest, FanovaBitIdenticalAcrossThreadCounts) {
  MixedData d = MakeMixedData(80, 55);
  FanovaOptions serial;
  serial.forest.num_threads = 1;
  FanovaOptions wide = serial;
  wide.forest.num_threads = 4;
  auto r1 = Fanova::Analyze(d.x, d.y, serial);
  auto r4 = Fanova::Analyze(d.x, d.y, wide);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(r1->total_variance, r4->total_variance);
  EXPECT_EQ(r1->main_effect, r4->main_effect);
  ASSERT_EQ(r1->interaction.rows(), r4->interaction.rows());
  for (size_t i = 0; i < r1->interaction.rows(); ++i) {
    for (size_t j = 0; j < r1->interaction.cols(); ++j) {
      EXPECT_EQ(r1->interaction(i, j), r4->interaction(i, j));
    }
  }
  EXPECT_EQ(r1->CombinedImportance(), r4->CombinedImportance());
}

TEST(DeterminismTest, AcquisitionMaximizeInvariantAcrossThreadCounts) {
  ConfigSpace space;
  ASSERT_TRUE(space.Add(Parameter::Float("a", 0.0, 1.0, 0.5)).ok());
  ASSERT_TRUE(space.Add(Parameter::Float("b", 0.0, 1.0, 0.5)).ok());
  MixedData d = MakeMixedData(30, 3);
  // A real GP surrogate makes scoring non-trivial.
  GaussianProcess gp({FeatureKind::kNumeric, FeatureKind::kNumeric}, {});
  std::vector<std::vector<double>> x2;
  for (const auto& row : d.x) x2.push_back({row[0], row[1]});
  ASSERT_TRUE(gp.Fit(x2, d.y).ok());
  EicAcquisition acq(&gp, 0.5);
  Subspace full = Subspace::Full(&space);
  auto encode = [&](const Configuration& c) { return space.ToUnit(c); };
  auto safe = [](const Configuration& c) { return c[0] + c[1] < 1.7; };
  auto unsafety = [](const Configuration& c) { return c[0] + c[1] - 1.7; };
  RunHistory history;
  Rng hist_rng(71);
  for (int i = 0; i < 6; ++i) {
    Observation o;
    o.config = full.Sample(&hist_rng);
    o.objective = static_cast<double>(i);
    o.feasible = true;
    history.Add(o);
  }

  auto run = [&](int threads) {
    AcqOptOptions opts;
    opts.num_candidates = 128;
    opts.num_local_starts = 4;
    opts.local_steps = 12;
    opts.num_threads = threads;
    AcquisitionOptimizer opt(opts);
    Rng rng(42);  // same seed both runs
    return opt.Maximize(full, encode, acq, safe, unsafety, &history, &rng);
  };
  AcqOptResult r1 = run(1);
  AcqOptResult r4 = run(4);
  EXPECT_TRUE(r1.config == r4.config);
  EXPECT_EQ(r1.acq_value, r4.acq_value);
  EXPECT_EQ(r1.raw_ei, r4.raw_ei);
  EXPECT_EQ(r1.safe_fallback_used, r4.safe_fallback_used);

  // The scorer form, with a GP runtime constraint both screening (Eq. 8)
  // and weighting EI (Eq. 6), and a white-box resource bound.
  GaussianProcess runtime({FeatureKind::kNumeric, FeatureKind::kNumeric},
                          {});
  std::vector<double> rt_y;
  for (const auto& row : x2) rt_y.push_back(1.0 + row[0] + 0.5 * row[1]);
  ASSERT_TRUE(runtime.Fit(x2, rt_y).ok());
  EicScorerOptions scoring;
  scoring.objective = &gp;
  scoring.incumbent = 0.5;
  scoring.runtime = {&runtime, 1.9};
  scoring.resource_fn = [](const Configuration& c) { return c[0] + c[1]; };
  scoring.resource_max = 1.7;
  scoring.safety = true;
  const EicScorer scorer(encode, scoring);
  auto run_scorer = [&](int threads) {
    AcqOptOptions opts;
    opts.num_candidates = 128;
    opts.num_local_starts = 4;
    opts.local_steps = 12;
    opts.num_threads = threads;
    Rng rng(42);
    return AcquisitionOptimizer(opts).Maximize(full, scorer, &history, &rng);
  };
  AcqOptResult s1 = run_scorer(1);
  AcqOptResult s4 = run_scorer(4);
  EXPECT_FALSE(s1.safe_fallback_used);
  EXPECT_TRUE(s1.config == s4.config);
  EXPECT_EQ(s1.acq_value, s4.acq_value);
  EXPECT_EQ(s1.raw_ei, s4.raw_ei);
  EXPECT_EQ(s1.safe_fallback_used, s4.safe_fallback_used);
}

TEST(DeterminismTest, OnlineTunerTrajectoryInvariantAcrossThreadCounts) {
  // End-to-end: a full tuner run (baseline -> tuning) must visit the exact
  // same configurations and objectives whether the suggestion engine runs
  // on 1 thread or 4.
  ClusterSpec cluster = ClusterSpec::HiBenchCluster();
  ConfigSpace space = BuildSparkSpace(cluster);
  auto run = [&](int threads) {
    auto w = HiBenchTask("WordCount");
    EXPECT_TRUE(w.ok());
    SimulatorEvaluatorOptions eopts;
    eopts.seed = 5;
    SimulatorEvaluator eval(&space, *w, cluster, DriftModel::Diurnal(), eopts);
    TunerOptions topts;
    topts.budget = 12;
    topts.advisor.gp.num_threads = threads;
    topts.advisor.acq.num_threads = threads;
    topts.advisor.subspace.num_threads = threads;
    OnlineTuner tuner(&space, &eval, topts);
    std::vector<Observation> trajectory;
    for (int i = 0; i < 14; ++i) trajectory.push_back(tuner.Step());
    return trajectory;
  };
  std::vector<Observation> t1 = run(1);
  std::vector<Observation> t4 = run(4);
  ASSERT_EQ(t1.size(), t4.size());
  for (size_t i = 0; i < t1.size(); ++i) {
    EXPECT_TRUE(t1[i].config == t4[i].config) << "step " << i;
    EXPECT_EQ(t1[i].objective, t4[i].objective) << "step " << i;
    EXPECT_EQ(t1[i].runtime_sec, t4[i].runtime_sec) << "step " << i;
    EXPECT_EQ(t1[i].feasible, t4[i].feasible) << "step " << i;
  }
}

TEST(DeterminismTest, ServiceBatchMatchesSequentialExecution) {
  // ExecutePeriodicAll on 4 threads must equal a sequential ExecutePeriodic
  // loop over the same ids, task by task and step by step.
  ClusterSpec cluster = ClusterSpec::HiBenchCluster();
  ConfigSpace space = BuildSparkSpace(cluster);
  const std::vector<std::string> tasks = {"WordCount", "TeraSort", "PageRank"};

  struct ServiceRig {
    std::deque<SimulatorEvaluator> evals;
    std::unique_ptr<TuningService> service;
  };
  auto make = [&](int threads) {
    ServiceRig rig;
    TuningServiceOptions sopts;
    sopts.tuner.budget = 6;
    sopts.num_threads = threads;
    rig.service = std::make_unique<TuningService>(&space, sopts);
    for (const std::string& t : tasks) {
      auto w = HiBenchTask(t);
      EXPECT_TRUE(w.ok());
      SimulatorEvaluatorOptions eopts;
      eopts.seed = 5;
      rig.evals.emplace_back(&space, *w, cluster, DriftModel::Diurnal(),
                             eopts);
      EXPECT_TRUE(rig.service->RegisterTask(t, &rig.evals.back()).ok());
    }
    return rig;
  };

  ServiceRig seq = make(1);
  ServiceRig batch = make(4);
  std::vector<std::string> ids(tasks.begin(), tasks.end());
  for (int round = 0; round < 4; ++round) {
    std::vector<Result<Observation>> sequential;
    for (const std::string& id : ids) {
      sequential.push_back(seq.service->ExecutePeriodic(id));
    }
    std::vector<Result<Observation>> batched =
        batch.service->ExecutePeriodicAll(ids);
    ASSERT_EQ(batched.size(), sequential.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(sequential[i].ok());
      ASSERT_TRUE(batched[i].ok()) << ids[i];
      EXPECT_TRUE(sequential[i]->config == batched[i]->config)
          << ids[i] << " round " << round;
      EXPECT_EQ(sequential[i]->objective, batched[i]->objective);
      EXPECT_EQ(sequential[i]->runtime_sec, batched[i]->runtime_sec);
    }
  }
}

TEST(DeterminismTest, CompactedEventLogsKeepTrajectoryAcrossThreadCounts) {
  // The fleet diet drops each task's retained stage list right after the
  // meta-features are extracted (compact_event_logs). Compaction plus
  // 4 threads must reproduce the retain-everything serial run bit-for-bit:
  // the summary replaces the log for bookkeeping only, never for math.
  ClusterSpec cluster = ClusterSpec::HiBenchCluster();
  ConfigSpace space = BuildSparkSpace(cluster);
  const std::vector<std::string> tasks = {"WordCount", "TeraSort", "PageRank"};

  struct ServiceRig {
    std::deque<SimulatorEvaluator> evals;
    std::unique_ptr<TuningService> service;
  };
  auto make = [&](int threads, bool compact) {
    ServiceRig rig;
    TuningServiceOptions sopts;
    sopts.tuner.budget = 6;
    sopts.num_threads = threads;
    sopts.compact_event_logs = compact;
    rig.service = std::make_unique<TuningService>(&space, sopts);
    for (const std::string& t : tasks) {
      auto w = HiBenchTask(t);
      EXPECT_TRUE(w.ok());
      SimulatorEvaluatorOptions eopts;
      eopts.seed = 5;
      rig.evals.emplace_back(&space, *w, cluster, DriftModel::Diurnal(),
                             eopts);
      EXPECT_TRUE(rig.service->RegisterTask(t, &rig.evals.back()).ok());
    }
    return rig;
  };

  ServiceRig retain = make(1, false);
  ServiceRig compact = make(4, true);
  std::vector<std::string> ids(tasks.begin(), tasks.end());
  for (int round = 0; round < 4; ++round) {
    std::vector<Result<Observation>> a = retain.service->ExecutePeriodicAll(ids);
    std::vector<Result<Observation>> b =
        compact.service->ExecutePeriodicAll(ids);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(a[i].ok());
      ASSERT_TRUE(b[i].ok()) << ids[i];
      EXPECT_TRUE(a[i]->config == b[i]->config)
          << ids[i] << " round " << round;
      EXPECT_EQ(a[i]->objective, b[i]->objective);
      EXPECT_EQ(a[i]->runtime_sec, b[i]->runtime_sec);
    }
  }
  // The diet really happened: stage lists are gone on the compacted rig
  // (and retained on the reference).
  for (const std::string& t : tasks) {
    EXPECT_TRUE(compact.service->tuner(t)->last_event_log().stages.empty())
        << t;
    EXPECT_FALSE(retain.service->tuner(t)->last_event_log().stages.empty())
        << t;
  }
}

TEST(DeterminismTest, ServiceBatchReportsBadIds) {
  ConfigSpace space = BuildSparkSpace(ClusterSpec::HiBenchCluster());
  ClusterSpec cluster = ClusterSpec::HiBenchCluster();
  TuningServiceOptions sopts;
  sopts.num_threads = 4;
  TuningService service(&space, sopts);
  auto w = HiBenchTask("WordCount");
  ASSERT_TRUE(w.ok());
  SimulatorEvaluator eval(&space, *w, cluster, DriftModel::None(), {});
  ASSERT_TRUE(service.RegisterTask("wc", &eval).ok());

  auto results =
      service.ExecutePeriodicAll({"wc", "missing", "wc"});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), Status::Code::kNotFound);
  ASSERT_FALSE(results[2].ok());
  EXPECT_EQ(results[2].status().code(), Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace sparktune
