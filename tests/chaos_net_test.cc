// Self-healing control plane tests (DESIGN.md §9): the deterministic
// ChaosChannel schedule and its both-ends-typed fault contract, the
// heartbeat health state machine (suspect/down/quarantine transitions,
// restart backoff, flap detection), epoch fencing at the dispatcher and
// over real sockets, supervisor manifest durability, Recover() adoption
// and fencing after a simulated supervisor SIGKILL, and the headline
// acceptance soak: wire chaos + worker SIGKILL + supervisor crash +
// heartbeat auto-restart, bit-identical to the undisturbed in-process
// oracle at nt=1 and nt=4, with and without a repository.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "net/channel.h"
#include "net/chaos.h"
#include "net/client.h"
#include "net/io.h"
#include "service/health.h"
#include "service/process_supervisor.h"
#include "service/shard_server.h"
#include "service/supervisor_manifest.h"
#include "service/wire.h"
#include "sparksim/hibench.h"
#include "sparksim/spark_conf.h"

namespace sparktune {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& tag) {
  std::string dir =
      (fs::temp_directory_path() / ("sparktune-chaosnet-" + tag)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// ChaosChannel: the schedule is a pure function of its identity.
// ---------------------------------------------------------------------------

TEST(ChaosSchedule, DeterministicInSeedShardSaltAndIndex) {
  net::ChaosOptions options;
  options.seed = 1234;
  options.fault_prob = 0.5;
  options.shard = 3;
  net::ChaosChannel a(options), b(options);
  bool any_fault = false;
  for (long long i = 0; i < 256; ++i) {
    EXPECT_EQ(a.FaultAt(i), b.FaultAt(i)) << "index " << i;
    any_fault = any_fault || a.FaultAt(i) != net::ChaosFault::kNone;
  }
  ASSERT_TRUE(any_fault);

  // Changing any identity component changes the schedule somewhere.
  auto differs = [&](net::ChaosOptions other) {
    net::ChaosChannel c(other);
    for (long long i = 0; i < 256; ++i) {
      if (c.FaultAt(i) != a.FaultAt(i)) return true;
    }
    return false;
  };
  net::ChaosOptions other_seed = options;
  other_seed.seed = 1235;
  net::ChaosOptions other_shard = options;
  other_shard.shard = 4;
  net::ChaosOptions other_salt = options;
  other_salt.salt = net::kChaosServerSalt;
  EXPECT_TRUE(differs(other_seed));
  EXPECT_TRUE(differs(other_shard));
  EXPECT_TRUE(differs(other_salt));
}

TEST(ChaosSchedule, DisabledAndArmedWindowsDrawNoFaults) {
  net::ChaosChannel off;  // seed 0: disabled entirely
  EXPECT_FALSE(off.enabled());
  for (long long i = 0; i < 64; ++i) {
    EXPECT_EQ(off.FaultAt(i), net::ChaosFault::kNone);
  }

  net::ChaosOptions options;
  options.seed = 9;
  options.fault_prob = 1.0;  // every armed exchange faults...
  options.arm_after_exchanges = 10;
  net::ChaosChannel armed(options);
  for (long long i = 0; i < 10; ++i) {
    EXPECT_EQ(armed.FaultAt(i), net::ChaosFault::kNone) << i;  // ...grace
  }
  for (long long i = 10; i < 20; ++i) {
    EXPECT_NE(armed.FaultAt(i), net::ChaosFault::kNone) << i;
  }
}

// Every injected fault kind: typed on the injecting side with the pinned
// code, and typed (or cleanly decodable) on the peer side. Never a hang:
// each read carries a deadline and the test itself would time out.
TEST(ChaosChannel, EveryFaultKindIsTypedOnBothEnds) {
  net::ChaosOptions options;
  options.seed = 77;
  options.fault_prob = 1.0;  // fault every exchange; kind varies by index
  net::ChaosChannel chaos(options);

  bool seen[6] = {false, false, false, false, false, false};
  const std::string payload = R"({"ids":["a","b"],"epoch":3})";
  for (long long index = 0; index < 64; ++index) {
    const net::ChaosFault fault = chaos.FaultAt(index);
    seen[static_cast<int>(fault)] = true;
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    net::UniqueFd writer(fds[0]), reader(fds[1]);
    ASSERT_EQ(chaos.exchange_index(), index);
    Status ws = chaos.WriteFrame(writer.get(), net::MsgKind::kExecute,
                                 payload, /*deadline_ms=*/500);
    switch (fault) {
      case net::ChaosFault::kNone:
        ASSERT_TRUE(ws.ok()) << index;
        break;
      case net::ChaosFault::kTornWrite:
      case net::ChaosFault::kBitFlip:
      case net::ChaosFault::kDupFrame:
        EXPECT_EQ(ws.code(), Status::Code::kDataLoss)
            << index << ": " << ws.ToString();
        break;
      case net::ChaosFault::kDelay:
      case net::ChaosFault::kReset:
        EXPECT_EQ(ws.code(), Status::Code::kUnavailable)
            << index << ": " << ws.ToString();
        break;
    }
    writer.Reset();  // poisoned callers disconnect; emulate that here
    // Peer side: drain the stream. Valid frames must round-trip the
    // payload; failures must stay inside the transport taxonomy.
    int good_frames = 0;
    for (int hop = 0; hop < 4; ++hop) {
      auto frame = net::ReadFrame(reader.get(), /*deadline_ms=*/500);
      if (frame.ok()) {
        EXPECT_EQ(frame->payload, payload) << index;
        ++good_frames;
        continue;
      }
      const Status::Code code = frame.status().code();
      EXPECT_TRUE(code == Status::Code::kDataLoss ||
                  code == Status::Code::kInvalidArgument ||
                  code == Status::Code::kUnavailable)
          << index << ": " << frame.status().ToString();
      break;
    }
    switch (fault) {
      case net::ChaosFault::kNone:
        EXPECT_EQ(good_frames, 1) << index;
        break;
      case net::ChaosFault::kDupFrame:
        EXPECT_EQ(good_frames, 2) << index;  // both copies decode
        break;
      case net::ChaosFault::kDelay:
      case net::ChaosFault::kReset:
        EXPECT_EQ(good_frames, 0) << index;  // nothing usable arrived
        break;
      default:
        break;  // torn/flip: prefix may or may not include decodable bytes
    }
  }
  for (int kind = 1; kind < 6; ++kind) {
    EXPECT_TRUE(seen[kind]) << "fault kind " << kind
                            << " never drawn in 64 exchanges";
  }
  EXPECT_EQ(chaos.stats().exchanges, 64);
  EXPECT_EQ(chaos.stats().injected,
            chaos.stats().torn_writes + chaos.stats().bit_flips +
                chaos.stats().dup_frames + chaos.stats().delays +
                chaos.stats().resets);
}

// ---------------------------------------------------------------------------
// Heartbeat health state machine.
// ---------------------------------------------------------------------------

TEST(HealthMonitor, FailureStreaksWalkHealthySuspectDown) {
  HealthPolicy policy;
  policy.suspect_after = 2;
  policy.down_after = 4;
  ShardHealthMonitor monitor(policy);
  EXPECT_EQ(monitor.state(), ShardHealth::kHealthy);
  monitor.RecordFailure(1);
  EXPECT_EQ(monitor.state(), ShardHealth::kHealthy);
  monitor.RecordFailure(2);
  EXPECT_EQ(monitor.state(), ShardHealth::kSuspect);
  monitor.RecordSuccess();  // one good exchange clears the presumption
  EXPECT_EQ(monitor.state(), ShardHealth::kHealthy);
  EXPECT_EQ(monitor.consecutive_failures(), 0);
  for (int t = 3; t <= 6; ++t) monitor.RecordFailure(t);
  EXPECT_EQ(monitor.state(), ShardHealth::kDown);

  // Confirmed process death short-circuits the streak.
  ShardHealthMonitor dead(policy);
  dead.RecordDeath(1);
  EXPECT_EQ(dead.state(), ShardHealth::kDown);
}

TEST(HealthMonitor, RestartBackoffFollowsRetryPolicyCurve) {
  HealthPolicy policy;  // restart_backoff: base 1, cap 16
  ShardHealthMonitor monitor(policy);
  monitor.RecordDeath(1);
  EXPECT_TRUE(monitor.ShouldAttemptRestart(1));
  monitor.RecordRestartFailure(1);  // next at 1 + BackoffPeriods(1) = 2
  EXPECT_FALSE(monitor.ShouldAttemptRestart(1));
  EXPECT_TRUE(monitor.ShouldAttemptRestart(2));
  monitor.RecordRestartFailure(2);  // next at 2 + BackoffPeriods(2) = 4
  EXPECT_FALSE(monitor.ShouldAttemptRestart(3));
  EXPECT_TRUE(monitor.ShouldAttemptRestart(4));
  monitor.RecordRestartFailure(4);  // next at 4 + BackoffPeriods(3) = 8
  EXPECT_FALSE(monitor.ShouldAttemptRestart(7));
  EXPECT_TRUE(monitor.ShouldAttemptRestart(8));
  monitor.RecordRestart(8);  // success clears the failure streak
  EXPECT_EQ(monitor.state(), ShardHealth::kHealthy);
  EXPECT_EQ(monitor.restart_failures(), 0);
  EXPECT_EQ(monitor.restarts(), 1);
}

TEST(HealthMonitor, FlappingShardIsQuarantinedThenParoled) {
  HealthPolicy policy;
  policy.flap_max_restarts = 2;
  policy.flap_window_ticks = 10;
  policy.quarantine_ticks = 5;
  ShardHealthMonitor monitor(policy);

  monitor.RecordDeath(1);
  ASSERT_TRUE(monitor.ShouldAttemptRestart(1));
  monitor.RecordRestart(1);
  monitor.RecordDeath(2);
  ASSERT_TRUE(monitor.ShouldAttemptRestart(2));
  monitor.RecordRestart(2);
  monitor.RecordDeath(3);
  // Two restarts within the 10-tick window: the third attempt trips the
  // flap detector instead of restarting.
  EXPECT_FALSE(monitor.ShouldAttemptRestart(3));
  EXPECT_EQ(monitor.state(), ShardHealth::kQuarantined);
  EXPECT_EQ(monitor.quarantines(), 1);
  EXPECT_EQ(monitor.quarantined_until_tick(), 8);
  EXPECT_FALSE(monitor.ShouldAttemptRestart(7));  // still parked
  // Quarantine served: clean slate, restart allowed again.
  EXPECT_TRUE(monitor.ShouldAttemptRestart(8));
  EXPECT_EQ(monitor.state(), ShardHealth::kDown);
}

// ---------------------------------------------------------------------------
// Epoch fencing: dispatcher level, then over real sockets.
// ---------------------------------------------------------------------------

ServiceConfig TestConfig(const std::string& repo_dir = "") {
  ServiceConfig config;
  config.budget = 5;
  config.ei_stop_threshold = 0.0;
  config.expert_ranking = true;
  config.repository_dir = repo_dir;
  return config;
}

Json ConfigureBody(const ServiceConfig& config, long long epoch) {
  Json body = Json::Object();
  body.Set("config", ServiceConfigToJson(config));
  body.Set("epoch", Json::Number(static_cast<double>(epoch)));
  return body;
}

Json ExecuteBody(long long epoch) {
  Json body = Json::Object();
  body.Set("ids", Json::Array());
  body.Set("epoch", Json::Number(static_cast<double>(epoch)));
  return body;
}

TEST(EpochFence, StaleConfigureAndExecuteAreFailedPrecondition) {
  ShardServer server;
  ASSERT_TRUE(server.Handle(net::MsgKind::kConfigure,
                            ConfigureBody(TestConfig(), 3))
                  .GetBoolOr("ok", false));
  EXPECT_EQ(server.epoch(), 3);

  // A stale controller (lower epoch) is fenced on both verbs.
  Json response =
      server.Handle(net::MsgKind::kConfigure, ConfigureBody(TestConfig(), 2));
  EXPECT_FALSE(response.GetBoolOr("ok", true));
  EXPECT_EQ(response.GetStringOr("code", ""), "FailedPrecondition");
  response = server.Handle(net::MsgKind::kExecute, ExecuteBody(2));
  EXPECT_FALSE(response.GetBoolOr("ok", true));
  EXPECT_EQ(response.GetStringOr("code", ""), "FailedPrecondition");

  // The current epoch executes; a NEWER configure re-fences forward, and
  // the old epoch's execute is then rejected.
  EXPECT_TRUE(
      server.Handle(net::MsgKind::kExecute, ExecuteBody(3)).GetBoolOr(
          "ok", false));
  ASSERT_TRUE(server.Handle(net::MsgKind::kConfigure,
                            ConfigureBody(TestConfig(), 4))
                  .GetBoolOr("ok", false));
  EXPECT_EQ(server.epoch(), 4);
  response = server.Handle(net::MsgKind::kExecute, ExecuteBody(3));
  EXPECT_EQ(response.GetStringOr("code", ""), "FailedPrecondition");

  // kPing reports the fenced epoch; legacy execute without a token and
  // the current token both pass.
  response = server.Handle(net::MsgKind::kPing, Json::Object());
  EXPECT_EQ(static_cast<long long>(response.GetNumberOr("epoch", -1)), 4);
  Json legacy = Json::Object();
  legacy.Set("ids", Json::Array());
  EXPECT_TRUE(
      server.Handle(net::MsgKind::kExecute, legacy).GetBoolOr("ok", false));
  EXPECT_TRUE(
      server.Handle(net::MsgKind::kExecute, ExecuteBody(4)).GetBoolOr(
          "ok", false));
}

TEST(EpochFence, StaleEpochIsTypedOverTheWire) {
  const std::string dir = TempDir("fence-wire");
  const std::string path = dir + "/shard.sock";
  ShardServer server;
  // lint:allow(no-raw-thread) ServeShard must run concurrently with its one test client; not pooled work
  std::thread serving([&] { (void)ServeShard(path, &server); });

  net::ShardClientOptions copts;
  copts.socket_path = path;
  net::ShardClient client(copts);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(
      client.Call(net::MsgKind::kConfigure, ConfigureBody(TestConfig(), 5))
          .ok());

  // The stale-epoch execute travels the full framed round trip and comes
  // back as a TYPED kFailedPrecondition, not a dead socket.
  auto stale = client.Call(net::MsgKind::kExecute, ExecuteBody(4));
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), Status::Code::kFailedPrecondition);
  EXPECT_TRUE(client.connected());  // fencing rejects the call, not the pipe
  EXPECT_TRUE(client.Call(net::MsgKind::kExecute, ExecuteBody(5)).ok());

  ASSERT_TRUE(client.Call(net::MsgKind::kShutdown, Json::Object()).ok());
  serving.join();
}

// ---------------------------------------------------------------------------
// Supervisor manifest: CRC-framed, atomic, torn copies are kDataLoss.
// ---------------------------------------------------------------------------

TEST(SupervisorManifestFile, RoundTripsAndRejectsTornCopies) {
  const std::string dir = TempDir("manifest");
  const std::string path = dir + "/supervisor.manifest";
  SupervisorManifest manifest;
  manifest.num_shards = 2;
  manifest.service = TestConfig("/tmp/repo-x");
  manifest.shards = {{/*epoch=*/3, /*pid=*/1234}, {/*epoch=*/1, /*pid=*/-1}};
  TaskManifestEntry task;
  task.id = "svc-task-0";
  task.shard = 1;
  task.periods = 9;
  task.spec.workload = "TeraSort";
  task.spec.seed = 77;
  manifest.tasks.push_back(task);
  ASSERT_TRUE(SaveSupervisorManifest(path, manifest).ok());

  auto loaded = LoadSupervisorManifest(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_shards, 2);
  ASSERT_EQ(loaded->shards.size(), 2u);
  EXPECT_EQ(loaded->shards[0].epoch, 3);
  EXPECT_EQ(loaded->shards[0].pid, 1234);
  ASSERT_EQ(loaded->tasks.size(), 1u);
  EXPECT_EQ(loaded->tasks[0].id, "svc-task-0");
  EXPECT_EQ(loaded->tasks[0].periods, 9);
  EXPECT_EQ(loaded->tasks[0].spec.workload, "TeraSort");
  EXPECT_EQ(ServiceConfigToJson(loaded->service).Dump(),
            ServiceConfigToJson(manifest.service).Dump());

  EXPECT_EQ(LoadSupervisorManifest(dir + "/absent").status().code(),
            Status::Code::kNotFound);

  // Every truncation of the file is kDataLoss — a torn manifest can never
  // be half-trusted.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{4}}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    auto torn = LoadSupervisorManifest(path);
    ASSERT_FALSE(torn.ok()) << "cut=" << cut;
    EXPECT_EQ(torn.status().code(), Status::Code::kDataLoss) << "cut=" << cut;
  }
}

// Integer fields decode checked: a value outside its field's range is
// kDataLoss, never a wrapped or undefined cast. A wrapped pid would reach
// kill() in Recover(): 4294967295 as pid_t is -1.
TEST(SupervisorManifestFile, RejectsIntegersOutsideTheirFieldRange) {
  SupervisorManifest manifest;
  manifest.num_shards = 2;
  manifest.service = TestConfig();
  manifest.shards = {{/*epoch=*/3, /*pid=*/1234}, {/*epoch=*/1, /*pid=*/-1}};
  TaskManifestEntry task;
  task.id = "svc-task-0";
  task.shard = 1;
  task.periods = 9;
  task.spec.workload = "TeraSort";
  manifest.tasks.push_back(task);
  const std::string good = SupervisorManifestToJson(manifest).Dump();
  auto doc = Json::Parse(good);
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(SupervisorManifestFromJson(*doc).ok());

  // Each case rewrites one field of the dumped text, so literals like
  // 1e400 arrive as the parser reads them.
  const std::pair<std::string, std::string> kCases[] = {
      {"\"pid\":1234", "\"pid\":4294967295"},
      {"\"pid\":1234", "\"pid\":0"},
      {"\"pid\":1234", "\"pid\":-2"},
      {"\"periods\":9", "\"periods\":1e300"},
      {"\"epoch\":3", "\"epoch\":1e400"},
      {"\"shard\":1", "\"shard\":2.5"},
      {"\"num_shards\":2", "\"num_shards\":1e10"},
  };
  for (const auto& [from, to] : kCases) {
    std::string text = good;
    const size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    auto bad = Json::Parse(text);
    ASSERT_TRUE(bad.ok()) << to;
    auto decoded = SupervisorManifestFromJson(*bad);
    ASSERT_FALSE(decoded.ok()) << to;
    EXPECT_EQ(decoded.status().code(), Status::Code::kDataLoss) << to;
  }
}

// ---------------------------------------------------------------------------
// Self-healing supervisor, end to end over real processes.
// ---------------------------------------------------------------------------

struct FleetSpec {
  std::vector<std::string> ids;
  std::vector<SimTaskSpec> specs;
};

FleetSpec MakeFleet(int tasks) {
  const char* kWorkloads[] = {"WordCount", "Sort", "TeraSort", "Join"};
  FleetSpec fleet;
  for (int i = 0; i < tasks; ++i) {
    SimTaskSpec spec;
    spec.workload = kWorkloads[i % 4];
    spec.seed = 900 + static_cast<uint64_t>(i);
    fleet.ids.push_back("heal-task-" + std::to_string(i));
    fleet.specs.push_back(spec);
  }
  return fleet;
}

ProcessSupervisorOptions HealOptions(const std::string& tag) {
  ProcessSupervisorOptions options;
  options.shardd_path = SPARKTUNE_SHARDD_PATH;
  options.socket_dir = TempDir("sock-" + tag);
  options.num_shards = 2;
  options.service = TestConfig();
  options.health.auto_restart = true;
  return options;
}

TEST(SelfHealing, HeartbeatAutoRestartHealsKilledShard) {
  ProcessSupervisorOptions options = HealOptions("auto");
  ProcessSupervisor supervisor(options);
  ASSERT_TRUE(supervisor.Start().ok());
  FleetSpec fleet = MakeFleet(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(supervisor.RegisterTask(fleet.ids[i], fleet.specs[i]).ok());
  }
  (void)supervisor.Tick();
  ASSERT_TRUE(supervisor.KillShard(0).ok());
  EXPECT_EQ(supervisor.shard_health(0), ShardHealth::kDown);
  EXPECT_FALSE(supervisor.shard_alive(0));

  // The very next tick the health monitor respawns the worker — before
  // batching, so not even one slot parks — at a bumped fencing epoch.
  (void)supervisor.Tick();
  EXPECT_TRUE(supervisor.shard_alive(0));
  EXPECT_EQ(supervisor.shard_health(0), ShardHealth::kHealthy);
  EXPECT_EQ(supervisor.stats().auto_restarts, 1);
  EXPECT_EQ(supervisor.stats().parked_slots, 0);
  EXPECT_EQ(supervisor.shard_epoch(0), 2);
  EXPECT_EQ(supervisor.shard_epoch(1), 1);
  for (const std::string& id : fleet.ids) {
    EXPECT_EQ(supervisor.periods(id), 2) << id;
  }
  EXPECT_TRUE(supervisor.Shutdown().ok());
}

TEST(SelfHealing, RecoverAdoptsRunningWorkersAfterSupervisorCrash) {
  ProcessSupervisorOptions options = HealOptions("adopt");
  auto supervisor = std::make_unique<ProcessSupervisor>(options);
  ASSERT_TRUE(supervisor->Start().ok());
  FleetSpec fleet = MakeFleet(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(supervisor->RegisterTask(fleet.ids[i], fleet.specs[i]).ok());
  }
  for (int t = 0; t < 3; ++t) (void)supervisor->Tick();
  std::vector<long long> clocks;
  for (const std::string& id : fleet.ids) {
    clocks.push_back(supervisor->periods(id));
  }

  // Supervisor SIGKILL, simulated: the workers run on unsupervised.
  supervisor->Abandon();
  supervisor = std::make_unique<ProcessSupervisor>(options);
  ASSERT_TRUE(supervisor->Recover().ok());
  EXPECT_EQ(supervisor->stats().adopted_workers, 2);
  EXPECT_EQ(supervisor->stats().fenced_workers, 0);
  EXPECT_EQ(supervisor->num_live_shards(), 2);
  // Adoption keeps the manifest epochs — nothing was respawned.
  EXPECT_EQ(supervisor->shard_epoch(0), 1);
  EXPECT_EQ(supervisor->shard_epoch(1), 1);
  for (size_t i = 0; i < fleet.ids.size(); ++i) {
    EXPECT_EQ(supervisor->periods(fleet.ids[i]), clocks[i]) << fleet.ids[i];
  }
  // The adopted fleet keeps executing exactly where it left off.
  (void)supervisor->Tick();
  for (size_t i = 0; i < fleet.ids.size(); ++i) {
    EXPECT_EQ(supervisor->periods(fleet.ids[i]), clocks[i] + 1);
  }
  EXPECT_TRUE(supervisor->Shutdown().ok());
}

TEST(SelfHealing, RecoverFencesWorkersAtTheWrongEpoch) {
  ProcessSupervisorOptions options = HealOptions("fence");
  auto supervisor = std::make_unique<ProcessSupervisor>(options);
  ASSERT_TRUE(supervisor->Start().ok());
  FleetSpec fleet = MakeFleet(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(supervisor->RegisterTask(fleet.ids[i], fleet.specs[i]).ok());
  }
  for (int t = 0; t < 2; ++t) (void)supervisor->Tick();
  const std::string manifest_path = supervisor->manifest_path();
  supervisor->Abandon();

  // Tamper with durable state: the manifest claims shard 0 should be at
  // epoch 2, but the still-running orphan answers the handshake with
  // epoch 1 — a stale incarnation. Recover must fence (SIGKILL) it and
  // respawn past the manifest epoch rather than adopt it.
  auto manifest = LoadSupervisorManifest(manifest_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  manifest->shards[0].epoch = 2;
  ASSERT_TRUE(SaveSupervisorManifest(manifest_path, *manifest).ok());

  supervisor = std::make_unique<ProcessSupervisor>(options);
  ASSERT_TRUE(supervisor->Recover().ok());
  EXPECT_EQ(supervisor->stats().fenced_workers, 1);
  EXPECT_EQ(supervisor->stats().adopted_workers, 1);
  EXPECT_EQ(supervisor->num_live_shards(), 2);
  EXPECT_EQ(supervisor->shard_epoch(0), 3);  // fenced past the manifest
  EXPECT_EQ(supervisor->shard_epoch(1), 1);

  // The respawned shard replayed to the acked clocks: the whole fleet
  // resumes in lockstep.
  std::vector<long long> clocks;
  for (const std::string& id : fleet.ids) {
    clocks.push_back(supervisor->periods(id));
    EXPECT_GE(clocks.back(), 2) << id;
  }
  (void)supervisor->Tick();
  for (size_t i = 0; i < fleet.ids.size(); ++i) {
    EXPECT_EQ(supervisor->periods(fleet.ids[i]), clocks[i] + 1);
  }
  EXPECT_TRUE(supervisor->Shutdown().ok());
}

// ---------------------------------------------------------------------------
// The acceptance soak: every disturbance at once, bit-identical anyway.
// ---------------------------------------------------------------------------

void ExpectSameSlot(const Result<Observation>& got,
                    const Result<Observation>& want, const std::string& id,
                    long long period) {
  ASSERT_EQ(got.ok(), want.ok())
      << id << " period " << period << ": "
      << (got.ok() ? "ok" : got.status().ToString()) << " vs "
      << (want.ok() ? "ok" : want.status().ToString());
  if (!got.ok()) return;
  EXPECT_TRUE(got->config == want->config) << id << " period " << period;
  EXPECT_EQ(got->objective, want->objective) << id << " period " << period;
  EXPECT_EQ(got->runtime_sec, want->runtime_sec)
      << id << " period " << period;
  EXPECT_EQ(got->failure, want->failure) << id << " period " << period;
  EXPECT_EQ(got->degraded, want->degraded) << id << " period " << period;
}

// Wire chaos on both directions + a worker SIGKILL + a supervisor crash
// cycle (Abandon/Recover) + heartbeat auto-restart, all at once. Every
// delivered observation must still equal the undisturbed in-process
// oracle's observation for the same period index — the generalized
// catch-up (to after-1, not before+1) covers clocks that jump while
// responses are chaos-lost.
void RunSelfHealingSoak(const std::string& tag, int threads, bool with_repo) {
  const int kTicks = 14, kTasks = 4;
  ProcessSupervisorOptions options = HealOptions(tag);
  options.service.num_threads = threads;
  if (with_repo) {
    options.service.repository_dir = TempDir("repo-" + tag);
    options.service.auto_checkpoint_periods = 2;
    options.service.checkpoint_on_phase_change = true;
  }
  options.chaos_seed = 2026;
  options.chaos_prob = 0.12;
  options.chaos_arm_exchanges = 12;

  auto supervisor = std::make_unique<ProcessSupervisor>(options);
  ASSERT_TRUE(supervisor->Start().ok());
  FleetSpec fleet = MakeFleet(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(supervisor->RegisterTask(fleet.ids[i], fleet.specs[i]).ok());
  }

  ClusterSpec cluster = ClusterSpec::HiBenchCluster();
  ConfigSpace space = BuildSparkSpace(cluster);
  TuningService oracle(&space, MakeServiceOptions(TestConfig()));
  std::vector<std::unique_ptr<JobEvaluator>> oracle_evaluators;
  for (int i = 0; i < kTasks; ++i) {
    auto evaluator = BuildSimEvaluator(&space, cluster, fleet.specs[i]);
    ASSERT_TRUE(evaluator.ok());
    ASSERT_TRUE(oracle.RegisterTask(fleet.ids[i], evaluator->get()).ok());
    oracle_evaluators.push_back(std::move(evaluator).value());
  }

  long long compared = 0;
  for (int t = 1; t <= kTicks; ++t) {
    if (t == 4) {
      std::vector<int> load(2, 0);
      for (const std::string& id : fleet.ids) {
        ++load[supervisor->shard_of(id)];
      }
      ASSERT_TRUE(supervisor->KillShard(load[1] > load[0] ? 1 : 0).ok());
    }
    if (t == 9) {
      supervisor->Abandon();
      supervisor = std::make_unique<ProcessSupervisor>(options);
      ASSERT_TRUE(supervisor->Recover().ok());
    }
    std::vector<long long> before(fleet.ids.size());
    for (size_t i = 0; i < fleet.ids.size(); ++i) {
      before[i] = supervisor->periods(fleet.ids[i]);
    }
    std::vector<Result<Observation>> slots = supervisor->Tick();
    ASSERT_EQ(slots.size(), fleet.ids.size());
    for (size_t i = 0; i < fleet.ids.size(); ++i) {
      const long long after = supervisor->periods(fleet.ids[i]);
      if (after == before[i]) {
        // No period consumed this tick (parked shard, chaos-lost
        // exchange, or a stale duplicated response): a failed slot must
        // stay typed kUnavailable — never a crash, hang, or raw error.
        if (!slots[i].ok()) {
          EXPECT_EQ(slots[i].status().code(), Status::Code::kUnavailable)
              << fleet.ids[i] << " tick " << t << ": "
              << slots[i].status().ToString();
        }
        continue;
      }
      while (oracle.periods(fleet.ids[i]) < after - 1) {
        (void)oracle.ExecutePeriodic(fleet.ids[i]);
      }
      Result<Observation> want = oracle.ExecutePeriodic(fleet.ids[i]);
      ++compared;
      ExpectSameSlot(slots[i], want, fleet.ids[i], after - 1);
    }
  }
  EXPECT_GT(compared, 0);
  EXPECT_EQ(supervisor->stats().kills, 0);  // pre-crash kill was carried
  EXPECT_EQ(supervisor->stats().recoveries, 1);
  (void)supervisor->Shutdown();
}

TEST(SelfHealing, SoakIsBitIdenticalSingleThread) {
  RunSelfHealingSoak("soak-nt1", 1, /*with_repo=*/false);
}

TEST(SelfHealing, SoakIsBitIdenticalFourThreads) {
  RunSelfHealingSoak("soak-nt4", 4, /*with_repo=*/false);
}

TEST(SelfHealing, SoakWithRepositoryIsBitIdenticalSingleThread) {
  RunSelfHealingSoak("soak-repo-nt1", 1, /*with_repo=*/true);
}

TEST(SelfHealing, SoakWithRepositoryIsBitIdenticalFourThreads) {
  RunSelfHealingSoak("soak-repo-nt4", 4, /*with_repo=*/true);
}

}  // namespace
}  // namespace sparktune
