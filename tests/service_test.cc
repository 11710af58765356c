// Tests for the data repository (JSON persistence) and the multi-task
// tuning service with meta-knowledge transfer.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/strings.h"
#include "service/data_repository.h"
#include "service/tuning_service.h"
#include "sparksim/hibench.h"

namespace sparktune {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& tag) {
  std::string dir =
      (fs::temp_directory_path() / ("sparktune-test-" + tag)).string();
  fs::remove_all(dir);
  return dir;
}

RunHistory MakeHistory(const ConfigSpace& space, int n, uint64_t seed) {
  Rng rng(seed);
  RunHistory h;
  for (int i = 0; i < n; ++i) {
    Observation o;
    o.config = space.Sample(&rng);
    o.objective = rng.Uniform(1.0, 100.0);
    o.runtime_sec = rng.Uniform(10.0, 1000.0);
    o.resource_rate = rng.Uniform(5.0, 50.0);
    o.data_size_gb = rng.Uniform(1.0, 500.0);
    o.feasible = rng.Bernoulli(0.8);
    o.failure = FailureKind::kNone;
    o.iteration = i;
    h.Add(o);
  }
  return h;
}

TEST(DataRepositoryTest, SaveLoadRoundTrip) {
  ClusterSpec cluster = ClusterSpec::HiBenchCluster();
  ConfigSpace space = BuildSparkSpace(cluster);
  DataRepository repo(TempDir("roundtrip"));

  StoredTask task;
  task.id = "Spark SQL: Skew Detection";  // spaces + colon in the id
  task.meta_features = {1.5, -2.0, 0.0};
  task.importance = {0.9, 0.1};
  task.history = MakeHistory(space, 8, 7);
  ASSERT_TRUE(repo.SaveTask(task).ok());
  EXPECT_TRUE(repo.HasTask(task.id));

  auto loaded = repo.LoadTask(task.id, space);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->id, task.id);
  EXPECT_EQ(loaded->meta_features, task.meta_features);
  EXPECT_EQ(loaded->importance, task.importance);
  ASSERT_EQ(loaded->history.size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    const Observation& a = task.history.at(i);
    const Observation& b = loaded->history.at(i);
    EXPECT_TRUE(a.config == b.config);
    EXPECT_DOUBLE_EQ(a.objective, b.objective);
    EXPECT_DOUBLE_EQ(a.runtime_sec, b.runtime_sec);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.iteration, b.iteration);
  }
}

TEST(DataRepositoryTest, ListTaskIdsIsSorted) {
  ConfigSpace space = BuildSparkSpace(ClusterSpec::SmallSqlGroup());
  DataRepository repo(TempDir("list"));
  for (const char* id : {"b-task", "a-task", "c-task"}) {
    StoredTask t;
    t.id = id;
    t.history = MakeHistory(space, 3, 11);
    ASSERT_TRUE(repo.SaveTask(t).ok());
  }
  auto ids = repo.ListTaskIds();
  EXPECT_EQ(ids, (std::vector<std::string>{"a-task", "b-task", "c-task"}));
}

TEST(DataRepositoryTest, MissingTaskIsNotFound) {
  ConfigSpace space = BuildSparkSpace(ClusterSpec::SmallSqlGroup());
  DataRepository repo(TempDir("missing"));
  EXPECT_FALSE(repo.HasTask("ghost"));
  auto r = repo.LoadTask("ghost", space);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
}

TEST(DataRepositoryTest, ObservationJsonCodec) {
  ConfigSpace space = BuildSparkSpace(ClusterSpec::SmallSqlGroup());
  Observation o;
  o.config = space.Default();
  o.objective = 12.5;
  o.failure = FailureKind::kOom;
  o.feasible = false;
  o.iteration = 9;
  Json j = DataRepository::ObservationToJson(o);
  auto back = DataRepository::ObservationFromJson(j, space);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->config == o.config);
  EXPECT_TRUE(back->failed());
  EXPECT_EQ(back->failure, FailureKind::kOom);
  EXPECT_FALSE(back->feasible);
  EXPECT_EQ(back->iteration, 9);
}

TEST(DataRepositoryTest, RejectsConfigSizeMismatch) {
  ConfigSpace space = BuildSparkSpace(ClusterSpec::SmallSqlGroup());
  auto j = Json::Parse("{\"config\":[1,2,3]}");
  ASSERT_TRUE(j.ok());
  EXPECT_FALSE(DataRepository::ObservationFromJson(*j, space).ok());
}

// Decodes {"config": <the default config with slot `slot` written as
// `value`>, "iteration": <iteration>} through the JSON parser, so literals
// like 1e400 arrive as the parser reads them.
Result<Observation> DecodeObservation(const ConfigSpace& space, int slot,
                                      const std::string& value,
                                      const std::string& iteration = "0") {
  const Configuration c = space.Default();
  std::vector<std::string> parts;
  for (size_t i = 0; i < space.size(); ++i) {
    parts.push_back(static_cast<int>(i) == slot
                        ? value
                        : Json::Number(c[i]).Dump());
  }
  auto j = Json::Parse("{\"config\":[" + StrJoin(parts, ",") +
                       "],\"iteration\":" + iteration + "}");
  EXPECT_TRUE(j.ok()) << j.status().ToString();
  if (!j.ok()) return j.status();
  return DataRepository::ObservationFromJson(*j, space);
}

TEST(DataRepositoryTest, RejectsOutOfDomainConfigValues) {
  ConfigSpace space = BuildSparkSpace(ClusterSpec::SmallSqlGroup());
  const int instances = spark_slot::kExecutorInstances;
  ASSERT_TRUE(DecodeObservation(space, instances, "4").ok());
  for (const char* value : {"1e300", "1e400", "-1e400", "0", "100000"}) {
    auto r = DecodeObservation(space, instances, value);
    ASSERT_FALSE(r.ok()) << value;
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument) << value;
  }
  // Fractional values of an int or categorical parameter are out of domain.
  for (int slot : {spark_slot::kExecutorCores, spark_slot::kSerializer}) {
    auto r = DecodeObservation(space, slot, "1.5");
    ASSERT_FALSE(r.ok()) << slot;
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument) << slot;
  }
}

TEST(DataRepositoryTest, RejectsIterationOutsideIntRange) {
  ConfigSpace space = BuildSparkSpace(ClusterSpec::SmallSqlGroup());
  auto max = DecodeObservation(space, -1, "", "2147483647");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->iteration, 2147483647);
  auto min = DecodeObservation(space, -1, "", "-2147483648");
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(min->iteration, -2147483647 - 1);
  for (const char* value :
       {"1e300", "1e400", "-1e400", "2147483648", "-2147483649", "2.5"}) {
    auto r = DecodeObservation(space, -1, "", value);
    ASSERT_FALSE(r.ok()) << value;
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument) << value;
  }
}

TEST(DataRepositoryTest, FailedTaskWriteKeepsThePreviousRecord) {
  // The record's temp file is /dev/full, so the flush fails with ENOSPC:
  // SaveTask must report it and must not rename the torn temp over the
  // record it was replacing.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  ConfigSpace space = BuildSparkSpace(ClusterSpec::SmallSqlGroup());
  const std::string dir = TempDir("failed-write");
  DataRepository repo(dir);
  StoredTask first;
  first.id = "wc";
  first.meta_features = {1.0, 2.0};
  first.history = MakeHistory(space, 3, 13);
  ASSERT_TRUE(repo.SaveTask(first).ok());
  std::string record;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") record = entry.path().string();
  }
  ASSERT_FALSE(record.empty());
  fs::create_symlink("/dev/full", record + ".tmp");

  StoredTask second = first;
  second.meta_features = {3.0, 4.0};
  second.history = MakeHistory(space, 5, 17);
  // Checked before any load: a record renamed onto /dev/full would never
  // stop returning bytes.
  Status saved = repo.SaveTask(second);
  ASSERT_EQ(saved.code(), Status::Code::kUnavailable) << saved.ToString();
  auto loaded = repo.LoadTask("wc", space);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta_features, first.meta_features);
  EXPECT_EQ(loaded->history.size(), 3u);
}

struct ServiceFixture {
  ServiceFixture()
      : cluster(ClusterSpec::HiBenchCluster()),
        space(BuildSparkSpace(cluster)) {}

  std::unique_ptr<SimulatorEvaluator> MakeEvaluator(const std::string& task,
                                                    uint64_t seed) {
    auto w = HiBenchTask(task);
    EXPECT_TRUE(w.ok());
    SimulatorEvaluatorOptions opts;
    opts.seed = seed;
    return std::make_unique<SimulatorEvaluator>(&space, *w, cluster,
                                                DriftModel::Diurnal(), opts);
  }

  TuningServiceOptions ServiceOpts() {
    TuningServiceOptions opts;
    opts.tuner.budget = 10;
    opts.tuner.ei_stop_threshold = 0.0;
    opts.tuner.advisor.expert_ranking = ExpertParameterRanking();
    return opts;
  }

  ClusterSpec cluster;
  ConfigSpace space;
};

TEST(TuningServiceTest, RegisterAndExecute) {
  ServiceFixture f;
  TuningService service(&f.space, f.ServiceOpts());
  auto eval = f.MakeEvaluator("WordCount", 3);
  ASSERT_TRUE(service.RegisterTask("wc", eval.get()).ok());
  EXPECT_FALSE(service.RegisterTask("wc", eval.get()).ok());  // duplicate
  EXPECT_FALSE(service.ExecutePeriodic("ghost").ok());

  for (int i = 0; i < 12; ++i) {
    auto obs = service.ExecutePeriodic("wc");
    ASSERT_TRUE(obs.ok());
  }
  const OnlineTuner* tuner = service.tuner("wc");
  ASSERT_NE(tuner, nullptr);
  EXPECT_GE(tuner->tuning_iterations(), 10);
}

TEST(TuningServiceTest, HarvestFeedsKnowledgeBase) {
  ServiceFixture f;
  TuningService service(&f.space, f.ServiceOpts());
  auto e1 = f.MakeEvaluator("WordCount", 3);
  auto e2 = f.MakeEvaluator("Sort", 4);
  ASSERT_TRUE(service.RegisterTask("wc", e1.get()).ok());
  ASSERT_TRUE(service.RegisterTask("sort", e2.get()).ok());
  // Harvest before any run fails.
  EXPECT_FALSE(service.HarvestTask("wc").ok());
  for (int i = 0; i < 11; ++i) {
    ASSERT_TRUE(service.ExecutePeriodic("wc").ok());
    ASSERT_TRUE(service.ExecutePeriodic("sort").ok());
  }
  ASSERT_TRUE(service.HarvestTask("wc").ok());
  ASSERT_TRUE(service.HarvestTask("sort").ok());
  EXPECT_EQ(service.knowledge_base().size(), 2u);
  EXPECT_TRUE(service.knowledge_base().similarity_trained());
}

TEST(TuningServiceTest, MetaTransferAttachesToThirdTask) {
  ServiceFixture f;
  TuningServiceOptions opts = f.ServiceOpts();
  opts.min_tasks_for_transfer = 2;
  TuningService service(&f.space, opts);
  auto e1 = f.MakeEvaluator("WordCount", 3);
  auto e2 = f.MakeEvaluator("Sort", 4);
  auto e3 = f.MakeEvaluator("TeraSort", 5);
  ASSERT_TRUE(service.RegisterTask("wc", e1.get()).ok());
  ASSERT_TRUE(service.RegisterTask("sort", e2.get()).ok());
  for (int i = 0; i < 11; ++i) {
    ASSERT_TRUE(service.ExecutePeriodic("wc").ok());
    ASSERT_TRUE(service.ExecutePeriodic("sort").ok());
  }
  ASSERT_TRUE(service.HarvestTask("wc").ok());
  ASSERT_TRUE(service.HarvestTask("sort").ok());

  // The third, similar task should benefit from warm starting: its early
  // tuning observations reuse configs learned on TeraSort's sibling Sort.
  ASSERT_TRUE(service.RegisterTask("ts", e3.get()).ok());
  for (int i = 0; i < 11; ++i) {
    ASSERT_TRUE(service.ExecutePeriodic("ts").ok());
  }
  const OnlineTuner* tuner = service.tuner("ts");
  ASSERT_NE(tuner, nullptr);
  ASSERT_TRUE(tuner->baseline_observation().has_value());
  EXPECT_LT(tuner->BestObjective(),
            tuner->baseline_observation()->objective);
}

TEST(TuningServiceTest, StreamingHarvestMatchesFullPass) {
  // Budget-bounded HarvestDirty passes must leave the knowledge base in
  // exactly the state one explicit HarvestTask-per-id pass produces: same
  // records, same content, same similarity-model training points.
  ServiceFixture f;
  const std::vector<std::string> names = {"WordCount", "Sort", "TeraSort"};
  struct Rig {
    std::vector<std::unique_ptr<SimulatorEvaluator>> evals;
    std::unique_ptr<TuningService> service;
  };
  auto make = [&]() {
    Rig rig;
    TuningServiceOptions opts = f.ServiceOpts();
    // Keep trajectories independent of harvest timing: no meta transfer.
    opts.enable_meta = false;
    rig.service = std::make_unique<TuningService>(&f.space, opts);
    uint64_t seed = 3;
    for (const auto& n : names) {
      rig.evals.push_back(f.MakeEvaluator(n, seed++));
      EXPECT_TRUE(rig.service->RegisterTask(n, rig.evals.back().get()).ok());
    }
    return rig;
  };
  Rig full = make();
  Rig stream = make();
  std::vector<std::string> ids(names.begin(), names.end());
  for (int round = 0; round < 11; ++round) {
    for (const auto& r : full.service->ExecutePeriodicAll(ids)) {
      ASSERT_TRUE(r.ok());
    }
    for (const auto& r : stream.service->ExecutePeriodicAll(ids)) {
      ASSERT_TRUE(r.ok());
    }
  }
  // Repeated executions enqueue each task once, not once per period.
  EXPECT_EQ(stream.service->harvest_backlog(), names.size());

  for (const auto& n : names) {
    ASSERT_TRUE(full.service->HarvestTask(n).ok());
  }
  int harvested = 0;
  while (stream.service->harvest_backlog() > 0) {
    HarvestReport rep = stream.service->HarvestDirty(/*max_tasks=*/1);
    EXPECT_EQ(rep.attempted, 1);
    ASSERT_TRUE(rep.errors.empty()) << rep.errors[0].message();
    ASSERT_EQ(rep.deferred, 0);
    harvested += rep.harvested;
  }
  EXPECT_EQ(harvested, static_cast<int>(names.size()));

  const auto& want = full.service->knowledge_base().records();
  const auto& got = stream.service->knowledge_base().records();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id);
    EXPECT_EQ(want[i].meta_features, got[i].meta_features);
    EXPECT_EQ(want[i].probe_means, got[i].probe_means);
    EXPECT_EQ(want[i].y_mean, got[i].y_mean);
    EXPECT_EQ(want[i].y_scale, got[i].y_scale);
    EXPECT_EQ(want[i].importance, got[i].importance);
    ASSERT_EQ(want[i].top_configs.size(), got[i].top_configs.size());
    for (size_t k = 0; k < want[i].top_configs.size(); ++k) {
      EXPECT_TRUE(want[i].top_configs[k] == got[i].top_configs[k]);
    }
  }
  EXPECT_EQ(full.service->knowledge_base().similarity_trained(),
            stream.service->knowledge_base().similarity_trained());
}

TEST(TuningServiceTest, HarvestDirtyDefersUntilHarvestable) {
  ServiceFixture f;
  TuningServiceOptions opts = f.ServiceOpts();
  opts.enable_meta = false;
  TuningService service(&f.space, opts);
  auto eval = f.MakeEvaluator("WordCount", 9);
  ASSERT_TRUE(service.RegisterTask("wc", eval.get()).ok());
  EXPECT_EQ(service.harvest_backlog(), 0u);

  // Two observations: history too short to harvest. The pass must defer
  // (rotate the id to the tail), not drop or error.
  ASSERT_TRUE(service.ExecutePeriodic("wc").ok());
  EXPECT_EQ(service.harvest_backlog(), 1u);
  ASSERT_TRUE(service.ExecutePeriodic("wc").ok());
  HarvestReport rep = service.HarvestDirty();
  EXPECT_EQ(rep.attempted, 1);
  EXPECT_EQ(rep.deferred, 1);
  EXPECT_EQ(rep.harvested, 0);
  EXPECT_TRUE(rep.errors.empty());
  EXPECT_EQ(service.harvest_backlog(), 1u);

  // Enough history now: the retried pass harvests and drains the queue.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(service.ExecutePeriodic("wc").ok());
  rep = service.HarvestDirty();
  EXPECT_EQ(rep.harvested, 1);
  EXPECT_EQ(service.harvest_backlog(), 0u);
  EXPECT_EQ(service.knowledge_base().size(), 1u);

  // An empty queue is a no-op pass.
  rep = service.HarvestDirty();
  EXPECT_EQ(rep.attempted, 0);
}

TEST(TuningServiceTest, PersistAndReload) {
  ServiceFixture f;
  std::string dir = TempDir("service");
  {
    TuningServiceOptions opts = f.ServiceOpts();
    opts.repository_dir = dir;
    TuningService service(&f.space, opts);
    auto e1 = f.MakeEvaluator("WordCount", 3);
    auto e2 = f.MakeEvaluator("Sort", 4);
    ASSERT_TRUE(service.RegisterTask("wc", e1.get()).ok());
    ASSERT_TRUE(service.RegisterTask("sort", e2.get()).ok());
    for (int i = 0; i < 11; ++i) {
      ASSERT_TRUE(service.ExecutePeriodic("wc").ok());
      ASSERT_TRUE(service.ExecutePeriodic("sort").ok());
    }
    ASSERT_TRUE(service.HarvestTask("wc").ok());
    ASSERT_TRUE(service.HarvestTask("sort").ok());
  }
  // New service instance recovers the knowledge base from disk.
  TuningServiceOptions opts = f.ServiceOpts();
  opts.repository_dir = dir;
  TuningService fresh(&f.space, opts);
  ASSERT_TRUE(fresh.LoadRepository().ok());
  EXPECT_EQ(fresh.knowledge_base().size(), 2u);
  EXPECT_TRUE(fresh.knowledge_base().similarity_trained());
}

}  // namespace
}  // namespace sparktune
