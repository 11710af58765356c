// Crash-safe checkpoint/recovery tests (DESIGN.md §7): CRC32 vectors, the
// framed atomic checkpoint files, the task-checkpoint JSON codec, and the
// headline property — a kill/restart resumes the identical trajectory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "meta/meta_features.h"
#include "service/checkpoint.h"
#include "service/tuning_service.h"
#include "sparksim/hibench.h"
#include "tuner/fault_injection.h"

namespace sparktune {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& tag) {
  std::string dir =
      (fs::temp_directory_path() / ("sparktune-ckpt-test-" + tag)).string();
  fs::remove_all(dir);
  return dir;
}

// The one checkpoint file in a repository directory.
std::string OnlyCheckpointFile(const std::string& dir) {
  std::string found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt") {
      EXPECT_TRUE(found.empty()) << "more than one .ckpt in " << dir;
      found = entry.path().string();
    }
  }
  EXPECT_FALSE(found.empty()) << "no .ckpt in " << dir;
  return found;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

struct Fixture {
  Fixture()
      : cluster(ClusterSpec::HiBenchCluster()),
        space(BuildSparkSpace(cluster)) {}

  std::unique_ptr<SimulatorEvaluator> MakeInner(uint64_t seed) {
    auto w = HiBenchTask("WordCount");
    EXPECT_TRUE(w.ok());
    SimulatorEvaluatorOptions opts;
    opts.seed = seed;
    return std::make_unique<SimulatorEvaluator>(&space, *w, cluster,
                                                DriftModel::Diurnal(), opts);
  }

  TuningServiceOptions ServiceOpts(const std::string& dir) {
    TuningServiceOptions opts;
    opts.tuner.budget = 10;
    opts.tuner.ei_stop_threshold = 0.0;
    opts.tuner.advisor.expert_ranking = ExpertParameterRanking();
    opts.repository_dir = dir;
    return opts;
  }

  ClusterSpec cluster;
  ConfigSpace space;
};

FaultInjectionOptions MixedFaults() {
  FaultInjectionOptions opts;
  opts.seed = 5;
  opts.crash_prob = 0.15;
  opts.transient_error_prob = 0.1;
  opts.hang_prob = 0.1;
  opts.corrupt_log_prob = 0.1;
  opts.truncate_log_prob = 0.1;
  return opts;
}

TEST(Crc32Test, KnownVectors) {
  EXPECT_EQ(Crc32(""), 0u);
  // The canonical CRC-32/IEEE check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  // Incremental computation matches one-shot.
  uint32_t partial = Crc32("12345");
  EXPECT_EQ(Crc32("6789", partial), 0xCBF43926u);
}

TEST(CheckpointFileTest, RoundTripAndListing) {
  DataRepository repo(TempDir("roundtrip"));
  EXPECT_FALSE(repo.HasCheckpoint("task-a"));
  EXPECT_EQ(repo.LoadCheckpoint("task-a").status().code(),
            Status::Code::kNotFound);

  Json payload = Json::Object();
  payload.Set("id", Json::Str("task-a"));
  payload.Set("x", Json::Number(42.0));
  ASSERT_TRUE(repo.SaveCheckpoint("task-a", payload).ok());
  EXPECT_TRUE(repo.HasCheckpoint("task-a"));

  auto loaded = repo.LoadCheckpoint("task-a");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->GetStringOr("id", ""), "task-a");
  EXPECT_EQ(loaded->GetNumberOr("x", 0.0), 42.0);

  auto ids = repo.ListCheckpointIds();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], "task-a");

  // Overwrite is atomic-replace, not append.
  payload.Set("x", Json::Number(43.0));
  ASSERT_TRUE(repo.SaveCheckpoint("task-a", payload).ok());
  loaded = repo.LoadCheckpoint("task-a");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->GetNumberOr("x", 0.0), 43.0);
}

TEST(CheckpointFileTest, TruncationAndCorruptionAreDataLoss) {
  std::string dir = TempDir("torn");
  DataRepository repo(dir);
  Json payload = Json::Object();
  payload.Set("id", Json::Str("task-a"));
  payload.Set("blob", Json::Str("some payload that is long enough to cut"));
  ASSERT_TRUE(repo.SaveCheckpoint("task-a", payload).ok());
  const std::string path = OnlyCheckpointFile(dir);
  const std::string intact = ReadFile(path);

  // Torn write: the tail is missing.
  WriteFile(path, intact.substr(0, intact.size() - 10));
  EXPECT_EQ(repo.LoadCheckpoint("task-a").status().code(),
            Status::Code::kDataLoss);

  // Bit rot: one payload byte flipped, length unchanged.
  std::string flipped = intact;
  flipped[flipped.size() - 3] ^= 0x20;
  WriteFile(path, flipped);
  EXPECT_EQ(repo.LoadCheckpoint("task-a").status().code(),
            Status::Code::kDataLoss);

  // Garbage header.
  WriteFile(path, "not a checkpoint at all\n{}");
  EXPECT_EQ(repo.LoadCheckpoint("task-a").status().code(),
            Status::Code::kDataLoss);

  // The intact bytes still load: the screen rejects damage, not age.
  WriteFile(path, intact);
  EXPECT_TRUE(repo.LoadCheckpoint("task-a").ok());
}

TEST(CheckpointCodecTest, TaskCheckpointRoundTrip) {
  Fixture f;
  auto inner = f.MakeInner(3);
  OnlineTuner tuner(&f.space, inner.get(), f.ServiceOpts("").tuner);
  for (int i = 0; i < 7; ++i) tuner.Step();

  TaskCheckpoint ckpt;
  ckpt.id = "wc";
  ckpt.tuner = tuner.SaveState();
  ckpt.meta_samples = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  ckpt.meta_attached = true;
  ckpt.harvested = true;
  ckpt.harvested_size = 7;
  ckpt.retry.consecutive_infra = 2;
  ckpt.retry.backoff_remaining = 4;
  ckpt.retry.infra_failures = 9;

  // Through the serialized form (Dump + Parse) to catch anything that
  // survives in-memory JSON but not the wire format (inf, uint64 width).
  auto reparsed = Json::Parse(TaskCheckpointToJson(ckpt).Dump());
  ASSERT_TRUE(reparsed.ok());
  auto back = TaskCheckpointFromJson(*reparsed, f.space);
  ASSERT_TRUE(back.ok());

  EXPECT_EQ(back->id, "wc");
  EXPECT_EQ(back->tuner.phase, ckpt.tuner.phase);
  EXPECT_EQ(back->tuner.executions, ckpt.tuner.executions);
  EXPECT_EQ(back->tuner.tuning_iterations, ckpt.tuner.tuning_iterations);
  EXPECT_EQ(back->tuner.runtime_max, ckpt.tuner.runtime_max);
  EXPECT_EQ(back->tuner.resource_max, ckpt.tuner.resource_max);
  ASSERT_EQ(back->tuner.baseline_obs.has_value(),
            ckpt.tuner.baseline_obs.has_value());
  EXPECT_EQ(back->tuner.has_advisor, ckpt.tuner.has_advisor);
  EXPECT_EQ(back->meta_samples, ckpt.meta_samples);
  EXPECT_TRUE(back->meta_attached);
  EXPECT_TRUE(back->harvested);
  EXPECT_EQ(back->harvested_size, 7u);
  EXPECT_EQ(back->retry.consecutive_infra, 2);
  EXPECT_EQ(back->retry.backoff_remaining, 4);
  EXPECT_EQ(back->retry.infra_failures, 9);
}

// `doc` with the field at `path` (object keys, outermost first) replaced.
Json WithField(Json doc, const std::vector<std::string>& path, Json value) {
  if (path.size() == 1) {
    doc.Set(path[0], std::move(value));
    return doc;
  }
  const Json* inner = doc.Get(path[0]);
  doc.Set(path[0], WithField(inner != nullptr ? *inner : Json::Object(),
                             {path.begin() + 1, path.end()},
                             std::move(value)));
  return doc;
}

TEST(CheckpointCodecTest, MalformedDocumentsAreDataLoss) {
  Fixture f;
  EXPECT_EQ(TaskCheckpointFromJson(Json::Array(), f.space).status().code(),
            Status::Code::kDataLoss);
  Json no_id = Json::Object();
  no_id.Set("tuner", Json::Object());
  EXPECT_EQ(TaskCheckpointFromJson(no_id, f.space).status().code(),
            Status::Code::kDataLoss);
  Json no_tuner = Json::Object();
  no_tuner.Set("id", Json::Str("wc"));
  EXPECT_EQ(TaskCheckpointFromJson(no_tuner, f.space).status().code(),
            Status::Code::kDataLoss);

  // Integer fields out of range, negative where unsigned, or fractional:
  // a plain cast decodes each of them with an OK status.
  auto inner = f.MakeInner(3);
  OnlineTuner tuner(&f.space, inner.get(), f.ServiceOpts("").tuner);
  for (int i = 0; i < 7; ++i) tuner.Step();
  TaskCheckpoint ckpt;
  ckpt.id = "wc";
  ckpt.tuner = tuner.SaveState();
  ASSERT_TRUE(ckpt.tuner.has_advisor);
  const Json valid = TaskCheckpointToJson(ckpt);
  ASSERT_TRUE(TaskCheckpointFromJson(valid, f.space).ok());
  const std::pair<std::vector<std::string>, double> bad_fields[] = {
      {{"tuner", "advisor", "subspace", "k"}, 1e300},
      {{"periods"}, 1e300},
      {{"harvested_size"}, -1.0},
      {{"tuner", "tuning_iterations"}, 2.5},
  };
  for (const auto& [path, value] : bad_fields) {
    Json doc = WithField(valid, path, Json::Number(value));
    EXPECT_EQ(TaskCheckpointFromJson(doc, f.space).status().code(),
              Status::Code::kDataLoss)
        << path.back() << " = " << value;
  }
}

// Once a tuner applies its best configuration, each period leaves the
// checkpoint the same size: nothing in it grows with the period count.
TEST(CheckpointCodecTest, ApplyingTunerCheckpointStopsGrowing) {
  Fixture f;
  auto inner = f.MakeInner(3);
  OnlineTuner tuner(&f.space, inner.get(), f.ServiceOpts("").tuner);
  for (int i = 0; i < 40 && tuner.phase() != TunerPhase::kApplying; ++i) {
    tuner.Step();
  }
  ASSERT_EQ(tuner.phase(), TunerPhase::kApplying);
  auto encoded_size = [&] {
    TaskCheckpoint ckpt;
    ckpt.id = "wc";
    ckpt.tuner = tuner.SaveState();
    return static_cast<long long>(TaskCheckpointToJson(ckpt).Dump().size());
  };
  const long long before = encoded_size();
  for (int i = 0; i < 10; ++i) tuner.Step();
  ASSERT_EQ(tuner.phase(), TunerPhase::kApplying);
  EXPECT_LE(std::abs(encoded_size() - before), 16) << "was " << before;
}

// Fields that older checkpoints carry and this codec no longer writes
// (applied_history, suggestions, num_updates) are ignored on decode, and
// the restored tuner continues the uninterrupted trajectory.
TEST(CheckpointCodecTest, RetiredFieldsStillDecode) {
  Fixture f;
  const TunerOptions opts = f.ServiceOpts("").tuner;
  auto reference_inner = f.MakeInner(3);
  OnlineTuner reference(&f.space, reference_inner.get(), opts);
  for (int i = 0; i < 7; ++i) reference.Step();

  TaskCheckpoint ckpt;
  ckpt.id = "wc";
  ckpt.tuner = reference.SaveState();
  ASSERT_TRUE(ckpt.tuner.baseline_obs.has_value());
  Json applied = Json::Array();
  applied.Append(DataRepository::ObservationToJson(*ckpt.tuner.baseline_obs));
  Json doc = TaskCheckpointToJson(ckpt);
  doc = WithField(doc, {"tuner", "applied_history"}, applied);
  doc = WithField(doc, {"tuner", "advisor", "suggestions"}, Json::Number(6));
  doc = WithField(doc, {"tuner", "advisor", "subspace", "num_updates"},
                  Json::Number(1));
  auto decoded = TaskCheckpointFromJson(doc, f.space);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  auto inner = f.MakeInner(3);
  OnlineTuner restored(&f.space, inner.get(), opts);
  restored.RestoreState(decoded->tuner);
  inner->SkipExecutions(decoded->tuner.executions);
  for (int i = 0; i < 10; ++i) {
    Observation want = reference.Step();
    Observation got = restored.Step();
    EXPECT_TRUE(got.config == want.config) << "step " << i;
    EXPECT_EQ(got.objective, want.objective) << "step " << i;
  }
}

// Acceptance: kill the service after any period, restore from the
// checkpoint, and the remaining trajectory is bit-identical to a service
// that was never killed — fault schedule and watchdog state included.
TEST(CheckpointRecoveryTest, KillRestartResumesIdenticalTrajectory) {
  Fixture f;
  constexpr int kTotal = 30;
  constexpr int kKillAfter = 12;

  // Reference service: never killed.
  std::vector<Result<Observation>> want;
  {
    TuningService service(&f.space, f.ServiceOpts(TempDir("ref")));
    auto inner = f.MakeInner(7);
    FaultInjectingEvaluator eval(inner.get(), MixedFaults());
    ASSERT_TRUE(service.RegisterTask("wc", &eval).ok());
    for (int i = 0; i < kTotal; ++i) {
      want.push_back(service.ExecutePeriodic("wc"));
    }
  }

  const std::string dir = TempDir("killed");
  {
    TuningService service(&f.space, f.ServiceOpts(dir));
    auto inner = f.MakeInner(7);
    FaultInjectingEvaluator eval(inner.get(), MixedFaults());
    ASSERT_TRUE(service.RegisterTask("wc", &eval).ok());
    for (int i = 0; i < kKillAfter; ++i) {
      auto got = service.ExecutePeriodic("wc");
      ASSERT_EQ(got.ok(), want[i].ok()) << "period " << i;
    }
    ASSERT_TRUE(service.CheckpointTasks().ok());
  }  // "kill -9": the process state is gone; only the repository survives.

  TuningService revived(&f.space, f.ServiceOpts(dir));
  auto inner = f.MakeInner(7);  // restarted process rebuilds from scratch
  FaultInjectingEvaluator eval(inner.get(), MixedFaults());
  ASSERT_TRUE(revived.RegisterTask("wc", &eval).ok());
  ASSERT_TRUE(revived.LoadRepository().ok());
  Status restored = revived.RestoreTask("wc");
  ASSERT_TRUE(restored.ok()) << restored.ToString();

  for (int i = kKillAfter; i < kTotal; ++i) {
    auto got = revived.ExecutePeriodic("wc");
    ASSERT_EQ(got.ok(), want[i].ok()) << "period " << i;
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), want[i].status().code());
      continue;
    }
    EXPECT_TRUE(got->config == want[i]->config) << "period " << i;
    EXPECT_EQ(got->objective, want[i]->objective) << "period " << i;
    EXPECT_EQ(got->runtime_sec, want[i]->runtime_sec) << "period " << i;
    EXPECT_EQ(got->failure, want[i]->failure) << "period " << i;
    EXPECT_EQ(got->degraded, want[i]->degraded) << "period " << i;
    EXPECT_EQ(got->feasible, want[i]->feasible) << "period " << i;
  }
}

TEST(CheckpointRecoveryTest, TornCheckpointFallsBackToFreshStart) {
  Fixture f;
  const std::string dir = TempDir("torn-restart");
  {
    TuningService service(&f.space, f.ServiceOpts(dir));
    auto inner = f.MakeInner(3);
    ASSERT_TRUE(service.RegisterTask("wc", inner.get()).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(service.ExecutePeriodic("wc").ok());
    }
    ASSERT_TRUE(service.CheckpointTask("wc").ok());
  }
  // Tear the checkpoint mid-write.
  const std::string path = OnlyCheckpointFile(dir);
  const std::string intact = ReadFile(path);
  WriteFile(path, intact.substr(0, intact.size() / 2));

  TuningService revived(&f.space, f.ServiceOpts(dir));
  auto inner = f.MakeInner(3);
  ASSERT_TRUE(revived.RegisterTask("wc", inner.get()).ok());
  EXPECT_EQ(revived.RestoreTask("wc").code(), Status::Code::kDataLoss);

  // The task stayed in its freshly registered state and tunes normally.
  auto obs = revived.ExecutePeriodic("wc");
  ASSERT_TRUE(obs.ok());
  EXPECT_EQ(revived.tuner("wc")->executions(), 1);
}

// A checkpoint whose meta samples are not all kNumMetaFeatures wide is
// corrupt: restoring it used to fill the meta window with rows its
// Average read past, and to hand the knowledge base a vector of the wrong
// width. It fails with kDataLoss and leaves the task freshly registered.
TEST(CheckpointRecoveryTest, WrongWidthMetaSamplesAreDataLoss) {
  Fixture f;
  const std::string dir = TempDir("meta-width");
  {
    TuningService service(&f.space, f.ServiceOpts(dir));
    auto inner = f.MakeInner(3);
    ASSERT_TRUE(service.RegisterTask("wc", inner.get()).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(service.ExecutePeriodic("wc").ok());
    }
    ASSERT_TRUE(service.CheckpointTask("wc").ok());
  }
  DataRepository repo(dir);
  auto doc = repo.LoadCheckpoint("wc");
  ASSERT_TRUE(doc.ok());
  auto intact = TaskCheckpointFromJson(*doc, f.space);
  ASSERT_TRUE(intact.ok());
  ASSERT_GE(intact->meta_samples.size(), 2u);
  ASSERT_EQ(intact->meta_samples[0].size(),
            static_cast<size_t>(kNumMetaFeatures));

  TaskCheckpoint ragged = *intact;
  ragged.meta_samples[1].resize(3);
  TaskCheckpoint narrow = *intact;
  for (auto& row : narrow.meta_samples) row.pop_back();
  for (const TaskCheckpoint* bad : {&ragged, &narrow}) {
    // Framed and checksummed like any checkpoint: only the widths are bad.
    ASSERT_TRUE(repo.SaveCheckpoint("wc", TaskCheckpointToJson(*bad)).ok());
    ASSERT_TRUE(TaskCheckpointFromJson(*repo.LoadCheckpoint("wc"), f.space)
                    .ok());
    TuningService revived(&f.space, f.ServiceOpts(dir));
    auto inner = f.MakeInner(3);
    ASSERT_TRUE(revived.RegisterTask("wc", inner.get()).ok());
    EXPECT_EQ(revived.RestoreTask("wc").code(), Status::Code::kDataLoss);
    EXPECT_EQ(revived.tuner("wc")->executions(), 0);
    EXPECT_EQ(revived.periods("wc"), 0);
    ASSERT_TRUE(revived.ExecutePeriodic("wc").ok());
    EXPECT_EQ(revived.tuner("wc")->executions(), 1);
  }
}

// Generation-suffixed checkpoint files of a directory, oldest first (the
// %06lld suffix makes lexicographic order generation order).
std::vector<std::string> CheckpointFilesSorted(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CheckpointGenerationTest, RetentionKeepsNewestK) {
  const std::string dir = TempDir("retention");
  CheckpointRetention retention;
  retention.keep_generations = 2;
  DataRepository repo(dir, retention);
  for (int g = 1; g <= 5; ++g) {
    Json payload = Json::Object();
    payload.Set("id", Json::Str("task-a"));
    payload.Set("x", Json::Number(static_cast<double>(g)));
    ASSERT_TRUE(repo.SaveCheckpoint("task-a", payload).ok());
  }
  // Only the newest two generations survive each write's GC.
  EXPECT_EQ(CheckpointFilesSorted(dir).size(), 2u);
  EXPECT_EQ(repo.LatestCheckpointGeneration("task-a"), 5);
  auto loaded = repo.LoadCheckpoint("task-a");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->GetNumberOr("x", 0.0), 5.0);

  // A torn newest generation falls back to the previous one.
  auto files = CheckpointFilesSorted(dir);
  const std::string intact = ReadFile(files.back());
  WriteFile(files.back(), intact.substr(0, intact.size() / 2));
  loaded = repo.LoadCheckpoint("task-a");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->GetNumberOr("x", 0.0), 4.0);
}

TEST(CheckpointGenerationTest, SweepRemovesOrphansAndTempFiles) {
  const std::string dir = TempDir("sweep");
  CheckpointRetention keep3;
  keep3.keep_generations = 3;
  {
    DataRepository repo(dir, keep3);
    for (int g = 1; g <= 3; ++g) {
      Json payload = Json::Object();
      payload.Set("id", Json::Str("task-a"));
      ASSERT_TRUE(repo.SaveCheckpoint("task-a", payload).ok());
    }
  }
  ASSERT_EQ(CheckpointFilesSorted(dir).size(), 3u);
  WriteFile(dir + "/stale.ckpt.tmp", "interrupted atomic write");

  // A tighter retention on restart treats the excess generations (and any
  // stale temp files) as orphans.
  DataRepository tight(dir);  // default keep_generations = 2
  EXPECT_EQ(tight.SweepOrphanCheckpoints(), 2);
  EXPECT_EQ(CheckpointFilesSorted(dir).size(), 2u);
  EXPECT_FALSE(fs::exists(dir + "/stale.ckpt.tmp"));
  EXPECT_TRUE(tight.LoadCheckpoint("task-a").ok());
}

// Pin the %06lld pad boundary: generation 999999 -> 1000000 widens the
// file name past the zero-pad, where lexicographic name order inverts
// ("g1000000" < "g999999" as strings). Everything — latest-generation
// discovery, load order, retention GC — must order by the PARSED number.
TEST(CheckpointGenerationTest, GenerationPadBoundaryOrdersNumerically) {
  const std::string dir = TempDir("pad-boundary");
  DataRepository repo(dir);  // keep_generations = 2
  Json payload = Json::Object();
  payload.Set("id", Json::Str("task-a"));
  payload.Set("x", Json::Number(1.0));
  ASSERT_TRUE(repo.SaveCheckpoint("task-a", payload).ok());

  // Fast-forward the clock: clone generation 1's file as generation 999999.
  auto files = CheckpointFilesSorted(dir);
  ASSERT_EQ(files.size(), 1u);
  std::string g999999 = files[0];
  size_t pos = g999999.rfind("g000001");
  ASSERT_NE(pos, std::string::npos);
  g999999.replace(pos, 7, "g999999");
  WriteFile(g999999, ReadFile(files[0]));

  payload.Set("x", Json::Number(2.0));
  ASSERT_TRUE(repo.SaveCheckpoint("task-a", payload).ok());
  EXPECT_EQ(repo.LatestCheckpointGeneration("task-a"), 1000000);
  auto loaded = repo.LoadCheckpoint("task-a");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->GetNumberOr("x", 0.0), 2.0);

  // The next write crosses the boundary again; retention must collect the
  // numerically oldest generation (999999), not the lexically smallest
  // name (which would be g1000000).
  payload.Set("x", Json::Number(3.0));
  ASSERT_TRUE(repo.SaveCheckpoint("task-a", payload).ok());
  EXPECT_EQ(repo.LatestCheckpointGeneration("task-a"), 1000001);
  files = CheckpointFilesSorted(dir);
  ASSERT_EQ(files.size(), 2u);
  for (const auto& f : files) {
    EXPECT_EQ(f.find("g999999"), std::string::npos) << f;
  }
  loaded = repo.LoadCheckpoint("task-a");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->GetNumberOr("x", 0.0), 3.0);
}

// The sweep must only touch this repository's own checkpoint artifacts.
// It used to delete EVERY *.tmp regular file in the directory — including
// a task document mid-atomic-write and files it does not own at all.
TEST(CheckpointGenerationTest, SweepPreservesForeignFiles) {
  const std::string dir = TempDir("sweep-foreign");
  CheckpointRetention keep1;
  keep1.keep_generations = 1;
  DataRepository repo(dir, keep1);
  Json payload = Json::Object();
  payload.Set("id", Json::Str("task-a"));
  ASSERT_TRUE(repo.SaveCheckpoint("task-a", payload).ok());

  // Checkpoint-artifact temps: sweep-eligible.
  WriteFile(dir + "/stem.g000007.ckpt.tmp", "torn generation write");
  WriteFile(dir + "/stem.ckpt.tmp", "torn legacy write");
  WriteFile(dir + "/stem.manifest.tmp", "torn manifest write");
  // Foreign files: must survive (the .json.tmp is SaveTask's atomic-write
  // temp, the others were never written by the repository).
  WriteFile(dir + "/task-doc.json.tmp", "{\"id\":\"wip\"}");
  WriteFile(dir + "/notes.tmp", "user scratch file");
  WriteFile(dir + "/README", "not a checkpoint");

  EXPECT_EQ(repo.SweepOrphanCheckpoints(), 3);
  EXPECT_FALSE(fs::exists(dir + "/stem.g000007.ckpt.tmp"));
  EXPECT_FALSE(fs::exists(dir + "/stem.ckpt.tmp"));
  EXPECT_FALSE(fs::exists(dir + "/stem.manifest.tmp"));
  EXPECT_TRUE(fs::exists(dir + "/task-doc.json.tmp"));
  EXPECT_TRUE(fs::exists(dir + "/notes.tmp"));
  EXPECT_TRUE(fs::exists(dir + "/README"));
  EXPECT_TRUE(repo.LoadCheckpoint("task-a").ok());
}

// Sweep retention must also key on parsed generation numbers when file
// pads disagree (e.g. a writer with a wider pad produced the same stem).
TEST(CheckpointGenerationTest, SweepCollectsDifferentlyPaddedGenerations) {
  const std::string dir = TempDir("sweep-pad");
  CheckpointRetention keep1;
  keep1.keep_generations = 1;
  DataRepository repo(dir, keep1);
  Json payload = Json::Object();
  payload.Set("id", Json::Str("task-a"));
  ASSERT_TRUE(repo.SaveCheckpoint("task-a", payload).ok());

  // A 9-digit-pad clone of generation 1 parses as generation 2: newest.
  auto files = CheckpointFilesSorted(dir);
  ASSERT_EQ(files.size(), 1u);
  std::string wide = files[0];
  size_t pos = wide.rfind("g000001");
  ASSERT_NE(pos, std::string::npos);
  wide.replace(pos, 7, "g000000002");
  WriteFile(wide, ReadFile(files[0]));

  // Retention keeps only generation 2 — deleting generation 1 by its real
  // path. (Reconstructing "g%06lld" names would work here, but the widely
  // padded file itself could never be collected that way once stale.)
  EXPECT_EQ(repo.SweepOrphanCheckpoints(), 1);
  EXPECT_FALSE(fs::exists(files[0]));
  EXPECT_TRUE(fs::exists(wide));
  EXPECT_EQ(repo.LatestCheckpointGeneration("task-a"), 2);
}

// A torn newest generation is not fatal to the service: restore falls back
// to the previous generation's snapshot and replays from there.
TEST(CheckpointGenerationTest, ServiceRestoresFromPreviousGeneration) {
  Fixture f;
  const std::string dir = TempDir("gen-fallback");
  {
    TuningService service(&f.space, f.ServiceOpts(dir));
    auto inner = f.MakeInner(3);
    ASSERT_TRUE(service.RegisterTask("wc", inner.get()).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(service.ExecutePeriodic("wc").ok());
    }
    ASSERT_TRUE(service.CheckpointTask("wc").ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(service.ExecutePeriodic("wc").ok());
    }
    ASSERT_TRUE(service.CheckpointTask("wc").ok());
  }
  auto files = CheckpointFilesSorted(dir);
  ASSERT_EQ(files.size(), 2u);
  const std::string newest = ReadFile(files.back());
  WriteFile(files.back(), newest.substr(0, newest.size() / 2));

  TuningService revived(&f.space, f.ServiceOpts(dir));
  auto inner = f.MakeInner(3);
  ASSERT_TRUE(revived.RegisterTask("wc", inner.get()).ok());
  Status restored = revived.RestoreTask("wc");
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  // The revived task resumed at the older snapshot: 5 periods, not 8.
  EXPECT_EQ(revived.tuner("wc")->executions(), 5);
}

// A manifest entry that is not a generation number makes the manifest
// count as torn, so the directory scan still finds the newest generation.
TEST(CheckpointGenerationTest, MalformedManifestEntryFallsBackToScan) {
  const std::string dir = TempDir("gen-bad-entry");
  DataRepository repo(dir);
  Json payload = Json::Object();
  payload.Set("id", Json::Str("task-a"));
  for (int g = 1; g <= 2; ++g) {
    payload.Set("x", Json::Number(g));
    ASSERT_TRUE(repo.SaveCheckpoint("task-a", payload).ok());
  }
  std::string path;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".manifest") path = entry.path().string();
  }
  ASSERT_FALSE(path.empty());
  const std::string framed = ReadFile(path);
  const std::string magic = framed.substr(0, framed.find(' '));
  auto manifest = Json::Parse(framed.substr(framed.find('\n') + 1));
  ASSERT_TRUE(manifest.ok());

  // Out of range, fractional, and past the file-name bound of 2^50.
  for (double bad : {1e300, 3.5, 1125899906842625.0}) {
    Json gens = Json::Array();
    gens.Append(Json::Number(bad));
    Json doc = *manifest;
    doc.Set("generations", std::move(gens));
    ASSERT_TRUE(WriteFramedAtomic(path, magic.c_str(), doc.Dump()).ok());
    auto loaded = repo.LoadCheckpoint("task-a");
    ASSERT_TRUE(loaded.ok()) << bad;
    EXPECT_EQ(loaded->GetNumberOr("x", 0.0), 2.0) << bad;
    EXPECT_EQ(repo.LatestCheckpointGeneration("task-a"), 2) << bad;
  }
}

// A manifest whose listed generations were all deleted yields a fresh
// start, not a crash (and not a torn-state resume).
TEST(CheckpointGenerationTest, ManifestOverDeletedGenerationsIsFreshStart) {
  Fixture f;
  const std::string dir = TempDir("gen-deleted");
  {
    TuningService service(&f.space, f.ServiceOpts(dir));
    auto inner = f.MakeInner(3);
    ASSERT_TRUE(service.RegisterTask("wc", inner.get()).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(service.ExecutePeriodic("wc").ok());
    }
    ASSERT_TRUE(service.CheckpointTask("wc").ok());
  }
  for (const std::string& file : CheckpointFilesSorted(dir)) {
    fs::remove(file);
  }

  TuningService revived(&f.space, f.ServiceOpts(dir));
  auto inner = f.MakeInner(3);
  ASSERT_TRUE(revived.RegisterTask("wc", inner.get()).ok());
  EXPECT_EQ(revived.RestoreTask("wc").code(), Status::Code::kNotFound);
  auto obs = revived.ExecutePeriodic("wc");
  ASSERT_TRUE(obs.ok());
  EXPECT_EQ(revived.tuner("wc")->executions(), 1);
}

// Restore-after-diet: the flat MetaSampleWindow replaced the old
// vector-of-vectors ring, and past window capacity (8) the ring has
// wrapped (oldest slot mid-buffer). Checkpointing through ToRows must
// emit the rows oldest-first in the legacy schema, restore must rebuild
// the wrapped window, and an immediate re-checkpoint must reproduce the
// identical rows — then the revived trajectory continues bit-for-bit.
TEST(CheckpointRecoveryTest, RestoreAfterMetaWindowWraparound) {
  Fixture f;
  const std::string dir = TempDir("diet-wrap");
  TuningService service(&f.space, f.ServiceOpts(dir));
  auto inner = f.MakeInner(3);
  ASSERT_TRUE(service.RegisterTask("wc", inner.get()).ok());
  // 12 sane periods push 12 meta samples through the 8-slot window.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(service.ExecutePeriodic("wc").ok());
  }
  ASSERT_TRUE(service.CheckpointTask("wc").ok());

  DataRepository repo(dir);
  auto doc = repo.LoadCheckpoint("wc");
  ASSERT_TRUE(doc.ok());
  auto ckpt = TaskCheckpointFromJson(*doc, f.space);
  ASSERT_TRUE(ckpt.ok());
  ASSERT_EQ(ckpt->meta_samples.size(), 8u);  // full window, wrapped

  // Revive from a copy of the repository (a moved shard directory).
  const std::string dir2 = TempDir("diet-wrap-revived");
  fs::copy(dir, dir2, fs::copy_options::recursive);
  TuningService revived(&f.space, f.ServiceOpts(dir2));
  auto inner2 = f.MakeInner(3);
  ASSERT_TRUE(revived.RegisterTask("wc", inner2.get()).ok());
  ASSERT_TRUE(revived.RestoreTask("wc").ok());

  // FromRows ∘ ToRows is the identity on the wrapped window.
  ASSERT_TRUE(revived.CheckpointTask("wc").ok());
  DataRepository repo2(dir2);
  auto doc2 = repo2.LoadCheckpoint("wc");
  ASSERT_TRUE(doc2.ok());
  auto ckpt2 = TaskCheckpointFromJson(*doc2, f.space);
  ASSERT_TRUE(ckpt2.ok());
  EXPECT_EQ(ckpt2->meta_samples, ckpt->meta_samples);

  // And the revived task's trajectory matches the undisturbed service.
  for (int i = 0; i < 5; ++i) {
    auto want = service.ExecutePeriodic("wc");
    auto got = revived.ExecutePeriodic("wc");
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(want->config == got->config) << "period " << i;
    EXPECT_EQ(want->objective, got->objective);
    EXPECT_EQ(want->runtime_sec, got->runtime_sec);
  }
}

// Restore after a kill re-attaches the meta-surrogate against the same
// knowledge base: with harvested tasks reloaded from the repository, the
// revived trajectory stays bit-identical to the undisturbed one.
TEST(CheckpointRecoveryTest, RestoreReattachesMetaSurrogates) {
  Fixture f;
  constexpr int kWarmup = 8;    // per task, before harvest
  constexpr int kAttached = 6;  // per task, with meta attached
  constexpr int kCompare = 10;  // per task, compared after the kill point

  auto drive = [](TuningService* service, const std::string& id, int n) {
    std::vector<Result<Observation>> out;
    for (int i = 0; i < n; ++i) out.push_back(service->ExecutePeriodic(id));
    return out;
  };

  // Reference: never killed. Harvesting both tasks fills the knowledge
  // base, after which the meta-surrogate attaches to both tuners.
  std::vector<Result<Observation>> want;
  {
    TuningService service(&f.space, f.ServiceOpts(TempDir("meta-ref")));
    auto wc = f.MakeInner(7);
    auto sort = f.MakeInner(8);
    ASSERT_TRUE(service.RegisterTask("wc", wc.get()).ok());
    ASSERT_TRUE(service.RegisterTask("sort", sort.get()).ok());
    drive(&service, "wc", kWarmup);
    drive(&service, "sort", kWarmup);
    ASSERT_TRUE(service.HarvestTask("wc").ok());
    ASSERT_TRUE(service.HarvestTask("sort").ok());
    drive(&service, "wc", kAttached);
    drive(&service, "sort", kAttached);
    want = drive(&service, "wc", kCompare);
  }

  const std::string dir = TempDir("meta-killed");
  {
    TuningService service(&f.space, f.ServiceOpts(dir));
    auto wc = f.MakeInner(7);
    auto sort = f.MakeInner(8);
    ASSERT_TRUE(service.RegisterTask("wc", wc.get()).ok());
    ASSERT_TRUE(service.RegisterTask("sort", sort.get()).ok());
    drive(&service, "wc", kWarmup);
    drive(&service, "sort", kWarmup);
    ASSERT_TRUE(service.HarvestTask("wc").ok());
    ASSERT_TRUE(service.HarvestTask("sort").ok());
    drive(&service, "wc", kAttached);
    drive(&service, "sort", kAttached);
    ASSERT_TRUE(service.CheckpointTasks().ok());
  }  // killed

  TuningService revived(&f.space, f.ServiceOpts(dir));
  auto wc = f.MakeInner(7);
  auto sort = f.MakeInner(8);
  ASSERT_TRUE(revived.RegisterTask("wc", wc.get()).ok());
  ASSERT_TRUE(revived.RegisterTask("sort", sort.get()).ok());
  // LoadRepository first, so RestoreTask rebuilds the surrogate factory
  // over the same harvested records the original service held in memory.
  ASSERT_TRUE(revived.LoadRepository().ok());
  EXPECT_EQ(revived.knowledge_base().size(), 2u);
  for (const char* id : {"wc", "sort"}) {
    Status restored = revived.RestoreTask(id);
    ASSERT_TRUE(restored.ok()) << id << ": " << restored.ToString();
  }

  // The restored checkpoint says meta was attached at the kill point.
  DataRepository repo(dir);
  auto ckpt = repo.LoadCheckpoint("wc");
  ASSERT_TRUE(ckpt.ok());
  EXPECT_TRUE(ckpt->GetBoolOr("meta_attached", false));

  auto got = drive(&revived, "wc", kCompare);
  for (int i = 0; i < kCompare; ++i) {
    ASSERT_EQ(got[i].ok(), want[i].ok()) << "period " << i;
    if (!got[i].ok()) continue;
    EXPECT_TRUE(got[i]->config == want[i]->config) << "period " << i;
    EXPECT_EQ(got[i]->objective, want[i]->objective) << "period " << i;
    EXPECT_EQ(got[i]->failure, want[i]->failure) << "period " << i;
  }
}

TEST(AutoCheckpointTest, PeriodCadenceWritesCheckpoints) {
  Fixture f;
  const std::string dir = TempDir("cadence");
  TuningServiceOptions opts = f.ServiceOpts(dir);
  opts.auto_checkpoint_periods = 3;
  TuningService service(&f.space, opts);
  auto eval = f.MakeInner(3);
  ASSERT_TRUE(service.RegisterTask("wc", eval.get()).ok());

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(service.ExecutePeriodic("wc").ok());
  }
  // Cadence 3 over 10 periods: checkpoints at periods 3, 6, 9.
  EXPECT_EQ(service.auto_checkpoints(), 3);
  DataRepository repo(dir);
  EXPECT_TRUE(repo.HasCheckpoint("wc"));
}

TEST(AutoCheckpointTest, PhaseTransitionTriggersCheckpoint) {
  Fixture f;
  TuningServiceOptions opts = f.ServiceOpts(TempDir("phase"));
  opts.auto_checkpoint_periods = 0;  // only phase transitions trigger
  opts.checkpoint_on_phase_change = true;
  TuningService service(&f.space, opts);
  auto eval = f.MakeInner(3);
  ASSERT_TRUE(service.RegisterTask("wc", eval.get()).ok());

  // Budget 10: baseline -> tuning after period 1, tuning -> applying after
  // period 11. Both transitions snapshot the phase machine.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(service.ExecutePeriodic("wc").ok());
  }
  EXPECT_GE(service.auto_checkpoints(), 2);
}

}  // namespace
}  // namespace sparktune
