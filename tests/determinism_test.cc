// Determinism suite for the one parallel level, the fleet tick:
// TuningService::ExecutePeriodicAll must give bit-identical trajectories at
// num_threads=1 and num_threads=4.
#include <gtest/gtest.h>

#include <deque>

#include "service/tuning_service.h"
#include "sparksim/hibench.h"
#include "tuner/online_tuner.h"

namespace sparktune {
namespace {

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
