// Golden trajectory: a small production fleet tuned through
// TuningService::ExecutePeriodicAll for its full budget must deliver
// exactly the slots it delivered when kGoldenDigest was recorded, at
// num_threads 1 and 4. The determinism suite compares thread counts within
// one build; this test compares the build against a recorded constant, so
// a change that moves any suggestion by one ULP fails here.
//
// A change that alters trajectories on purpose updates kGoldenDigest in the
// same commit and says so in CHANGES.md (DESIGN.md §5).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "service/tuning_service.h"
#include "sparksim/production.h"
#include "sparksim/spark_conf.h"
#include "tuner/evaluator.h"

namespace sparktune {
namespace {

constexpr uint64_t kGoldenDigest = 0x3b2c05a2f262d80cULL;

constexpr int kBudget = 12;
constexpr int kPerService = 8;   // ETL and SQL tasks, meta off
constexpr int kKbTasks = 4;      // SQL tasks harvested into the knowledge base
constexpr int kMetaCohort = 4;   // SQL tasks tuned with meta on

// FNV-1a over every delivered slot in delivery order: config bits,
// objective, runtime, resource rate, failure kind and feasibility — the
// fields perfbench's trajectory digest covers.
class SlotDigest {
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
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

struct Cohort {
  TuningService* service;
  std::vector<std::string> ids;
};

// Baseline run plus the full tuning budget, one ExecutePeriodicAll per
// period.
void RunCohort(const Cohort& cohort, SlotDigest* digest, int* failed) {
  for (int period = 0; period <= kBudget; ++period) {
    for (const Result<Observation>& slot :
         cohort.service->ExecutePeriodicAll(cohort.ids)) {
      digest->AddSlot(slot);
      if (!slot.ok()) ++*failed;
    }
  }
}

uint64_t RunGoldenFleet(int threads, int* failed) {
  ProductionFleetOptions fleet_opts;
  fleet_opts.num_tasks = 48;
  const std::vector<ProductionTask> tasks =
      GenerateProductionFleet(fleet_opts, /*seed=*/2023);
  const ConfigSpace etl_space = BuildSparkSpace(ClusterSpec::ProductionGroup());
  const ConfigSpace sql_space = BuildSparkSpace(ClusterSpec::SmallSqlGroup());

  TuningServiceOptions sopts;
  sopts.tuner.budget = kBudget;
  sopts.tuner.ei_stop_threshold = 0.0;  // every task tunes its full budget
  sopts.tuner.advisor.objective.beta = 0.5;
  sopts.tuner.advisor.enable_safety = true;
  sopts.tuner.advisor.enable_agd = true;
  sopts.compact_event_logs = true;
  sopts.num_threads = threads;
  sopts.enable_meta = false;
  TuningService etl(&etl_space, sopts);
  TuningService sql(&sql_space, sopts);
  sopts.enable_meta = true;
  TuningService meta(&sql_space, sopts);

  Cohort etl_cohort{&etl, {}};
  Cohort sql_cohort{&sql, {}};
  Cohort kb_cohort{&meta, {}};
  Cohort meta_cohort{&meta, {}};
  std::deque<SimulatorEvaluator> evaluators;
  auto add = [&](const ProductionTask& task, size_t index, Cohort* cohort) {
    SimulatorEvaluatorOptions eopts;
    eopts.seed = 1000 + index;
    eopts.period_hours = task.period_hours;
    const ConfigSpace* space = task.workload.is_sql ? &sql_space : &etl_space;
    evaluators.emplace_back(space, task.workload, task.cluster, task.drift,
                            eopts);
    TunerOptions per_task = sopts.tuner;
    per_task.advisor.seed = 7000 + index;
    EXPECT_TRUE(cohort->service
                    ->RegisterTask(task.id, &evaluators.back(),
                                   task.manual_config, per_task)
                    .ok());
    cohort->ids.push_back(task.id);
  };
  for (size_t i = 0; i < tasks.size(); ++i) {
    const ProductionTask& task = tasks[i];
    if (!task.workload.is_sql) {
      if (etl_cohort.ids.size() < kPerService) add(task, i, &etl_cohort);
    } else if (sql_cohort.ids.size() < kPerService) {
      add(task, i, &sql_cohort);
    } else if (kb_cohort.ids.size() < kKbTasks) {
      add(task, i, &kb_cohort);
    } else if (meta_cohort.ids.size() < kMetaCohort) {
      // Registered now, run after the knowledge base is filled.
      add(task, i, &meta_cohort);
    }
  }
  EXPECT_EQ(etl_cohort.ids.size(), static_cast<size_t>(kPerService));
  EXPECT_EQ(sql_cohort.ids.size(), static_cast<size_t>(kPerService));
  EXPECT_EQ(kb_cohort.ids.size(), static_cast<size_t>(kKbTasks));
  EXPECT_EQ(meta_cohort.ids.size(), static_cast<size_t>(kMetaCohort));

  SlotDigest digest;
  RunCohort(etl_cohort, &digest, failed);
  RunCohort(sql_cohort, &digest, failed);
  RunCohort(kb_cohort, &digest, failed);
  for (const std::string& id : kb_cohort.ids) {
    EXPECT_TRUE(meta.HarvestTask(id).ok()) << id;
  }
  EXPECT_EQ(meta.knowledge_base().size(), static_cast<size_t>(kKbTasks));
  RunCohort(meta_cohort, &digest, failed);
  return digest.value();
}

TEST(GoldenTrajectoryTest, FleetDigestMatchesRecordedConstant) {
  for (int threads : {1, 4}) {
    int failed = 0;
    const uint64_t got = RunGoldenFleet(threads, &failed);
    EXPECT_EQ(failed, 0) << "num_threads=" << threads;
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, kGoldenDigest)
        << "num_threads=" << threads << ": trajectory digest 0x" << hex
        << " differs from the recorded constant";
  }
}

}  // namespace
}  // namespace sparktune
