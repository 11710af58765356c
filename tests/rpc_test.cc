// Multi-process tuning service tests (DESIGN.md §9): frame-codec
// hardening (torn/bit-flipped/oversized frames decode to typed errors,
// never crash or over-read — run under ASan/UBSan via the sanitizer
// matrix), the RetryPolicy-pinned reconnect schedule, socket deadline
// behavior, the ShardServer dispatcher, and the headline property — a
// fleet driven over real sockets through real SIGKILLed-and-respawned
// worker processes delivers a per-task trajectory bit-identical to an
// undisturbed in-process TuningService run, at nt=1 and nt=4, with and
// without injected evaluator faults.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "net/channel.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/io.h"
#include "net/socket.h"
#include "service/process_supervisor.h"
#include "service/shard_server.h"
#include "service/wire.h"
#include "sparksim/hibench.h"
#include "sparksim/spark_conf.h"

namespace sparktune {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& tag) {
  std::string dir =
      (fs::temp_directory_path() / ("sparktune-rpc-test-" + tag)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Frame codec hardening.
// ---------------------------------------------------------------------------

TEST(FrameCodec, RoundTripAndBackToBackFrames) {
  const std::string payload = R"({"ok":true,"x":[1,2,3]})";
  std::string wire = net::EncodeFrame(net::MsgKind::kExecute, payload);
  ASSERT_EQ(wire.size(), net::kFrameHeaderBytes + payload.size());

  size_t consumed = 0;
  auto frame = net::DecodeFrame(wire, &consumed);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->kind, net::MsgKind::kExecute);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_EQ(consumed, wire.size());

  // Two frames back to back: the first decode consumes exactly one.
  std::string two = wire + net::EncodeFrame(net::MsgKind::kPing, "{}");
  auto first = net::DecodeFrame(two, &consumed);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->kind, net::MsgKind::kExecute);
  auto second = net::DecodeFrame(
      std::string_view(two).substr(consumed), &consumed);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->kind, net::MsgKind::kPing);
  EXPECT_EQ(second->payload, "{}");
}

TEST(FrameCodec, TornPrefixesAreDataLoss) {
  const std::string wire =
      net::EncodeFrame(net::MsgKind::kCheckpoint, R"({"a":1})");
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    auto frame = net::DecodeFrame(std::string_view(wire.data(), cut));
    ASSERT_FALSE(frame.ok()) << "cut=" << cut;
    EXPECT_EQ(frame.status().code(), Status::Code::kDataLoss)
        << "cut=" << cut;
  }
}

TEST(FrameCodec, EveryBitFlipIsATypedError) {
  const std::string payload = R"({"kind":"corpus","v":[0.25,7]})";
  const std::string wire = net::EncodeFrame(net::MsgKind::kHarvest, payload);
  for (size_t i = 0; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = wire;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      auto frame = net::DecodeFrame(corrupt);
      // A flip can never decode to success: header fields are validated
      // and the payload is CRC-framed. It must come back as a typed
      // error, never a crash or over-read (ASan backs this up).
      ASSERT_FALSE(frame.ok()) << "byte " << i << " bit " << bit;
      const Status::Code code = frame.status().code();
      EXPECT_TRUE(code == Status::Code::kDataLoss ||
                  code == Status::Code::kInvalidArgument)
          << "byte " << i << " bit " << bit << ": "
          << frame.status().ToString();
    }
  }
}

// Hand-build a header with full control over each field.
std::string RawHeader(uint32_t magic, uint8_t version, uint8_t kind,
                      uint16_t reserved, uint32_t len, uint32_t crc) {
  std::string h(net::kFrameHeaderBytes, '\0');
  auto put32 = [&h](size_t at, uint32_t v) {
    h[at] = static_cast<char>(v & 0xff);
    h[at + 1] = static_cast<char>((v >> 8) & 0xff);
    h[at + 2] = static_cast<char>((v >> 16) & 0xff);
    h[at + 3] = static_cast<char>((v >> 24) & 0xff);
  };
  put32(0, magic);
  h[4] = static_cast<char>(version);
  h[5] = static_cast<char>(kind);
  h[6] = static_cast<char>(reserved & 0xff);
  h[7] = static_cast<char>((reserved >> 8) & 0xff);
  put32(8, len);
  put32(12, crc);
  return h;
}

TEST(FrameCodec, MalformedHeadersAreInvalidArgument) {
  const uint8_t kind = static_cast<uint8_t>(net::MsgKind::kPing);
  struct Case {
    const char* name;
    std::string header;
  };
  const Case cases[] = {
      {"bad magic", RawHeader(0xDEADBEEF, net::kFrameVersion, kind, 0, 2, 0)},
      {"bad version",
       RawHeader(net::kFrameMagic, net::kFrameVersion + 1, kind, 0, 2, 0)},
      {"bad kind", RawHeader(net::kFrameMagic, net::kFrameVersion, 0, 0, 2, 0)},
      {"kind past range",
       RawHeader(net::kFrameMagic, net::kFrameVersion, 200, 0, 2, 0)},
      {"nonzero reserved",
       RawHeader(net::kFrameMagic, net::kFrameVersion, kind, 7, 2, 0)},
      {"zero length",
       RawHeader(net::kFrameMagic, net::kFrameVersion, kind, 0, 0, 0)},
      {"oversized length",
       RawHeader(net::kFrameMagic, net::kFrameVersion, kind, 0,
                 net::kMaxFramePayload + 1, 0)},
  };
  for (const Case& c : cases) {
    net::MsgKind decoded_kind;
    uint32_t crc = 0;
    auto len = net::DecodeFrameHeader(c.header, &decoded_kind, &crc);
    ASSERT_FALSE(len.ok()) << c.name;
    EXPECT_EQ(len.status().code(), Status::Code::kInvalidArgument) << c.name;
    // The full-frame decoder agrees (padding keeps the buffer long).
    auto frame = net::DecodeFrame(c.header + std::string(64, 'x'));
    ASSERT_FALSE(frame.ok()) << c.name;
    EXPECT_EQ(frame.status().code(), Status::Code::kInvalidArgument)
        << c.name;
  }
}

TEST(FrameCodec, CrcMismatchIsDataLoss) {
  std::string wire = net::EncodeFrame(net::MsgKind::kRestore, "{\"p\":1}");
  wire[wire.size() - 1] = static_cast<char>(wire[wire.size() - 1] ^ 0x01);
  auto frame = net::DecodeFrame(wire);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), Status::Code::kDataLoss);
}

// ---------------------------------------------------------------------------
// Frame-codec fuzz: seeded adversarial byte streams through the real
// socket read path. Every outcome must be a typed status within the
// deadline — never a crash, hang, or over-read (ASan/UBSan in the matrix
// back the memory-safety half of that claim).
// ---------------------------------------------------------------------------

// Pushes `bytes` through one end of a socketpair, closes it, and reads
// frames from the other end until the stream errors or drains.
void ExpectTypedFrameStream(const std::string& bytes, const char* what) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::UniqueFd reader(fds[0]);
  {
    net::UniqueFd writer(fds[1]);
    if (!bytes.empty()) {
      ASSERT_TRUE(
          net::WriteFull(writer.get(), bytes.data(), bytes.size(), 2000).ok())
          << what;
    }
  }  // writer closes: the reader sees EOF after the garbage
  const int64_t start = net::MonotonicMs();
  for (int hop = 0; hop < 64; ++hop) {
    auto frame = net::ReadFrame(reader.get(), /*deadline_ms=*/2000);
    if (frame.ok()) continue;  // a mutation can leave a decodable frame
    const Status::Code code = frame.status().code();
    EXPECT_TRUE(code == Status::Code::kDataLoss ||
                code == Status::Code::kInvalidArgument ||
                code == Status::Code::kUnavailable)
        << what << ": " << frame.status().ToString();
    break;
  }
  EXPECT_LT(net::MonotonicMs() - start, 10000) << what;
}

TEST(FrameCodec, FuzzRandomByteStreamsAreTypedAndBounded) {
  Rng rng(0xF0CC5EEDULL);
  for (int round = 0; round < 64; ++round) {
    const size_t len = static_cast<size_t>(rng.UniformInt(0, 256));
    std::string bytes(len, '\0');
    for (char& c : bytes) {
      c = static_cast<char>(rng.UniformInt(0, 255));
    }
    // Random bytes essentially never carry the magic + CRC, so the decode
    // must reject them without reading past the buffer.
    auto direct = net::DecodeFrame(bytes);
    if (!direct.ok()) {
      const Status::Code code = direct.status().code();
      EXPECT_TRUE(code == Status::Code::kDataLoss ||
                  code == Status::Code::kInvalidArgument)
          << "round " << round << ": " << direct.status().ToString();
    }
    ExpectTypedFrameStream(bytes, "random stream");
  }
}

TEST(FrameCodec, FuzzMutatedValidFramesAreTypedAndBounded) {
  Rng rng(0xBADF00D5ULL);
  const net::MsgKind kinds[] = {net::MsgKind::kPing, net::MsgKind::kExecute,
                                net::MsgKind::kCheckpoint,
                                net::MsgKind::kTaskStatus};
  for (int round = 0; round < 64; ++round) {
    // A valid frame with a random JSON-ish payload...
    const size_t len = static_cast<size_t>(rng.UniformInt(2, 192));
    std::string payload(len, ' ');
    for (char& c : payload) {
      c = static_cast<char>(rng.UniformInt(32, 126));
    }
    std::string wire = net::EncodeFrame(
        kinds[rng.UniformInt(0, 3)], payload);
    // ...seeded mutations: truncate, flip bits, splice garbage, prepend.
    switch (rng.UniformInt(0, 3)) {
      case 0:
        wire.resize(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(wire.size()) - 1)));
        break;
      case 1:
        for (int flips = rng.UniformInt(1, 8); flips > 0; --flips) {
          const size_t bit = static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(wire.size()) * 8 - 1));
          wire[bit / 8] = static_cast<char>(
              static_cast<unsigned char>(wire[bit / 8]) ^ (1u << (bit % 8)));
        }
        break;
      case 2: {
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(wire.size())));
        std::string garbage(static_cast<size_t>(rng.UniformInt(1, 32)), '\0');
        for (char& c : garbage) {
          c = static_cast<char>(rng.UniformInt(0, 255));
        }
        wire.insert(at, garbage);
        break;
      }
      default:
        wire.insert(0, std::string(
            static_cast<size_t>(rng.UniformInt(1, 16)), '\xff'));
        break;
    }
    ExpectTypedFrameStream(wire, "mutated frame");
  }
}

// ---------------------------------------------------------------------------
// Reconnect schedule: RetryPolicy::BackoffPeriods is the only source of
// backoff math in the net layer.
// ---------------------------------------------------------------------------

TEST(Reconnect, DelaysPinnedToRetryPolicyBackoff) {
  RetryPolicy policy;  // service default: 3 attempts, base 1, max 8
  std::vector<int> delays = net::ReconnectDelaysMs(policy, 20);
  ASSERT_EQ(delays.size(), 3u);
  EXPECT_EQ(delays[0], 0);  // attempt 1 is immediate
  EXPECT_EQ(delays[1], policy.BackoffPeriods(1) * 20);
  EXPECT_EQ(delays[2], policy.BackoffPeriods(2) * 20);
  EXPECT_EQ(delays[1], 20);
  EXPECT_EQ(delays[2], 40);

  // The process supervisor's stretched default: 8 attempts, cap 64.
  RetryPolicy wide{8, 1, 64, 4, 6};
  delays = net::ReconnectDelaysMs(wide, 20);
  const int expected[] = {0, 20, 40, 80, 160, 320, 640, 1280};
  ASSERT_EQ(delays.size(), 8u);
  for (size_t k = 0; k < delays.size(); ++k) {
    EXPECT_EQ(delays[k], expected[k]) << "attempt " << k + 1;
    if (k > 0) {
      EXPECT_EQ(delays[k],
                wide.BackoffPeriods(static_cast<int>(k)) * 20);
    }
  }
}

TEST(Reconnect, LargeMaxAttemptsClampToCapWithoutOverflow) {
  // A pathological policy — thousands of attempts, a huge cap — must
  // produce a schedule that saturates at max_backoff_periods * unit and
  // never wraps negative (BackoffPeriods clamps the shift, not the
  // product of an overflowed shift).
  RetryPolicy wide{/*max_attempts=*/5000, /*base_backoff_periods=*/1,
                   /*max_backoff_periods=*/1 << 20,
                   /*circuit_break_failures=*/4, /*park_periods=*/6};
  std::vector<int> delays = net::ReconnectDelaysMs(wide, 3);
  ASSERT_EQ(delays.size(), 5000u);
  EXPECT_EQ(delays[0], 0);
  const int cap_ms = wide.max_backoff_periods * 3;
  for (size_t k = 1; k < delays.size(); ++k) {
    ASSERT_GE(delays[k], 0) << "attempt " << k + 1;
    ASSERT_LE(delays[k], cap_ms) << "attempt " << k + 1;
    ASSERT_GE(delays[k], delays[k - 1]) << "attempt " << k + 1;
  }
  // Once the exponent would overflow the shift width, every delay is
  // exactly the cap — including attempt indices far past 64.
  EXPECT_EQ(delays[100], cap_ms);
  EXPECT_EQ(delays[4999], cap_ms);
}

TEST(Reconnect, TickPacingFollowsBackoffPeriods) {
  RetryPolicy policy;  // base 1, max 8
  net::ReconnectState state;
  EXPECT_TRUE(state.ShouldAttempt());
  state.RecordFailure(policy);  // 1st failure: skip BackoffPeriods(1) = 1
  EXPECT_FALSE(state.ShouldAttempt());
  EXPECT_TRUE(state.ShouldAttempt());
  state.RecordFailure(policy);  // 2nd failure: skip 2 ticks
  EXPECT_FALSE(state.ShouldAttempt());
  EXPECT_FALSE(state.ShouldAttempt());
  EXPECT_TRUE(state.ShouldAttempt());
  state.RecordSuccess();
  EXPECT_TRUE(state.ShouldAttempt());
  EXPECT_EQ(state.failures, 0);
}

// ---------------------------------------------------------------------------
// Sockets & deadlines: errors are typed, and nothing hangs.
// ---------------------------------------------------------------------------

TEST(Socket, ConnectToMissingPathIsUnavailable) {
  const std::string dir = TempDir("nosock");
  auto fd = net::UnixConnect(dir + "/absent.sock", /*deadline_ms=*/200);
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().code(), Status::Code::kUnavailable);
}

TEST(Socket, ReadFrameDeadlineExpiresInsteadOfHanging) {
  const std::string dir = TempDir("deadline");
  const std::string path = dir + "/s.sock";
  auto listener = net::UnixListen(path);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  auto client = net::UnixConnect(path, 1000);
  ASSERT_TRUE(client.ok());
  auto server = net::UnixAccept(listener->get(), 1000);
  ASSERT_TRUE(server.ok());

  // No bytes in flight: the read must time out as kUnavailable, promptly.
  const int64_t start = net::MonotonicMs();
  auto frame = net::ReadFrame(server->get(), /*deadline_ms=*/100);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), Status::Code::kUnavailable);
  EXPECT_LT(net::MonotonicMs() - start, 5000);

  // A half-written frame followed by silence is a torn read: kDataLoss
  // (the stream is desynchronized), still within the deadline.
  std::string wire = net::EncodeFrame(net::MsgKind::kPing, "{}");
  std::string half = wire.substr(0, wire.size() - 1);
  ASSERT_TRUE(
      net::WriteFull(client->get(), half.data(), half.size(), 1000).ok());
  frame = net::ReadFrame(server->get(), /*deadline_ms=*/100);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), Status::Code::kDataLoss);
}

TEST(Socket, FrameExchangeOverRealSockets) {
  const std::string dir = TempDir("exchange");
  const std::string path = dir + "/s.sock";
  auto listener = net::UnixListen(path);
  ASSERT_TRUE(listener.ok());
  auto client = net::UnixConnect(path, 1000);
  ASSERT_TRUE(client.ok());
  auto server = net::UnixAccept(listener->get(), 1000);
  ASSERT_TRUE(server.ok());

  const std::string payload(100000, 'j');  // multi-read-sized payload
  ASSERT_TRUE(
      net::WriteFrame(client->get(), net::MsgKind::kExecute, payload, 2000)
          .ok());
  auto frame = net::ReadFrame(server->get(), 2000);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->kind, net::MsgKind::kExecute);
  EXPECT_EQ(frame->payload, payload);
}

// ---------------------------------------------------------------------------
// Wire codecs round-trip exactly.
// ---------------------------------------------------------------------------

TEST(Wire, ServiceConfigAndTaskSpecRoundTrip) {
  ServiceConfig config;
  config.budget = 13;
  config.ei_stop_threshold = 0.037;
  config.expert_ranking = true;
  config.repository_dir = "/tmp/some/dir";
  config.auto_checkpoint_periods = 3;
  config.num_threads = 4;
  auto parsed = ServiceConfigFromJson(ServiceConfigToJson(config));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(ServiceConfigToJson(*parsed).Dump(),
            ServiceConfigToJson(config).Dump());

  SimTaskSpec spec;
  spec.workload = "TeraSort";
  spec.seed = 0xDEADBEEFCAFEF00DULL;  // needs all 64 bits on the wire
  spec.period_hours = 0.5;
  spec.faults.crash_prob = 0.125;
  spec.faults.seed = 0xFFFFFFFFFFFFFFFFULL;
  auto spec2 = SimTaskSpecFromJson(SimTaskSpecToJson(spec));
  ASSERT_TRUE(spec2.ok()) << spec2.status().ToString();
  EXPECT_EQ(spec2->seed, spec.seed);
  EXPECT_EQ(spec2->faults.seed, spec.faults.seed);
  EXPECT_EQ(SimTaskSpecToJson(*spec2).Dump(), SimTaskSpecToJson(spec).Dump());

  EXPECT_EQ(SimTaskSpecFromJson(Json::Object()).status().code(),
            Status::Code::kInvalidArgument);
  Json bad_workload = SimTaskSpecToJson(spec);
  bad_workload.Set("workload", Json::Str("NoSuchJob"));
  EXPECT_FALSE(SimTaskSpecFromJson(bad_workload).ok());
}

TEST(Wire, ResultSlotsRoundTripBitExactly) {
  ClusterSpec cluster = ClusterSpec::HiBenchCluster();
  ConfigSpace space = BuildSparkSpace(cluster);
  Observation obs;
  obs.config = space.Default();
  obs.objective = 0.1 + 0.2;  // a value that needs %.17g to survive
  obs.runtime_sec = 123.456789012345678;
  obs.failure = FailureKind::kTimeout;
  obs.feasible = false;
  obs.degraded = true;
  obs.iteration = 7;
  Result<Observation> slot(obs);
  auto back = ResultSlotFromJson(ResultSlotToJson(slot), space);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->config == obs.config);
  EXPECT_EQ(back->objective, obs.objective);
  EXPECT_EQ(back->runtime_sec, obs.runtime_sec);
  EXPECT_EQ(back->failure, obs.failure);
  EXPECT_EQ(back->feasible, obs.feasible);
  EXPECT_EQ(back->degraded, obs.degraded);

  Result<Observation> error_slot(Status::Unavailable("backing off: t"));
  auto error_back = ResultSlotFromJson(ResultSlotToJson(error_slot), space);
  ASSERT_FALSE(error_back.ok());
  EXPECT_EQ(error_back.status().code(), Status::Code::kUnavailable);
  EXPECT_EQ(error_back.status().message(), "backing off: t");

  EXPECT_EQ(ResultSlotFromJson(Json::Number(3), space).status().code(),
            Status::Code::kDataLoss);
}

// ---------------------------------------------------------------------------
// ShardServer dispatcher (socket-free).
// ---------------------------------------------------------------------------

ServiceConfig TestConfig(const std::string& repo_dir = "") {
  ServiceConfig config;
  config.budget = 5;
  config.ei_stop_threshold = 0.0;
  config.expert_ranking = true;
  config.repository_dir = repo_dir;
  return config;
}

Json ConfigureBody(const ServiceConfig& config) {
  Json body = Json::Object();
  body.Set("config", ServiceConfigToJson(config));
  return body;
}

TEST(ShardServer, ConfigureIsIdempotentButConflictsAreRejected) {
  ShardServer server;
  // Anything but ping/configure before configuration is a typed error.
  Json ids = Json::Object();
  ids.Set("ids", Json::Array());
  Json response = server.Handle(net::MsgKind::kExecute, ids);
  EXPECT_FALSE(response.GetBoolOr("ok", true));
  EXPECT_EQ(response.GetStringOr("code", ""), "FailedPrecondition");

  ServiceConfig config = TestConfig();
  EXPECT_TRUE(server.Handle(net::MsgKind::kConfigure, ConfigureBody(config))
                  .GetBoolOr("ok", false));
  // Same bytes: fine. Different bytes: rejected, state unchanged.
  EXPECT_TRUE(server.Handle(net::MsgKind::kConfigure, ConfigureBody(config))
                  .GetBoolOr("ok", false));
  config.budget = 99;
  response = server.Handle(net::MsgKind::kConfigure, ConfigureBody(config));
  EXPECT_FALSE(response.GetBoolOr("ok", true));
  EXPECT_EQ(response.GetStringOr("code", ""), "FailedPrecondition");

  response = server.Handle(net::MsgKind::kPing, Json::Object());
  EXPECT_TRUE(response.GetBoolOr("ok", false));
  EXPECT_TRUE(response.GetBoolOr("configured", false));
}

TEST(ShardServer, ExecuteMatchesInProcessService) {
  ShardServer server;
  ASSERT_TRUE(server.Handle(net::MsgKind::kConfigure,
                            ConfigureBody(TestConfig()))
                  .GetBoolOr("ok", false));
  SimTaskSpec spec;
  spec.workload = "WordCount";
  spec.seed = 42;
  Json reg = Json::Object();
  reg.Set("id", Json::Str("wc"));
  reg.Set("spec", SimTaskSpecToJson(spec));
  ASSERT_TRUE(
      server.Handle(net::MsgKind::kRegisterTask, reg).GetBoolOr("ok", false));
  // Duplicate registration is rejected.
  EXPECT_EQ(server.Handle(net::MsgKind::kRegisterTask, reg)
                .GetStringOr("code", ""),
            "InvalidArgument");

  // The oracle: same spec through a plain TuningService.
  ClusterSpec cluster = ClusterSpec::HiBenchCluster();
  ConfigSpace space = BuildSparkSpace(cluster);
  TuningService oracle(&space, MakeServiceOptions(TestConfig()));
  auto evaluator = BuildSimEvaluator(&space, cluster, spec);
  ASSERT_TRUE(evaluator.ok());
  ASSERT_TRUE(oracle.RegisterTask("wc", evaluator->get()).ok());

  Json ids = Json::Array();
  ids.Append(Json::Str("wc"));
  Json body = Json::Object();
  body.Set("ids", std::move(ids));
  for (int period = 0; period < 8; ++period) {
    Json response = server.Handle(net::MsgKind::kExecute, body);
    ASSERT_TRUE(response.GetBoolOr("ok", false));
    const Json* slots = response.Get("slots");
    ASSERT_NE(slots, nullptr);
    ASSERT_EQ(slots->size(), 1u);
    auto got = ResultSlotFromJson(slots->at(0), space);
    Result<Observation> want = oracle.ExecutePeriodic("wc");
    ASSERT_EQ(got.ok(), want.ok()) << "period " << period;
    if (got.ok()) {
      EXPECT_TRUE(got->config == want->config) << "period " << period;
      EXPECT_EQ(got->objective, want->objective) << "period " << period;
    }
    const Json* periods = response.Get("periods");
    ASSERT_NE(periods, nullptr);
    EXPECT_EQ(static_cast<long long>(periods->at(0).AsNumber()), period + 1);
  }
}

TEST(ShardServer, SubmitObservationMergesExternalHistories) {
  const std::string repo_dir = TempDir("submit");
  ShardServer server;
  ASSERT_TRUE(server.Handle(net::MsgKind::kConfigure,
                            ConfigureBody(TestConfig(repo_dir)))
                  .GetBoolOr("ok", false));
  ClusterSpec cluster = ClusterSpec::HiBenchCluster();
  ConfigSpace space = BuildSparkSpace(cluster);
  Observation obs;
  obs.config = space.Default();
  obs.objective = 3.25;
  Json body = Json::Object();
  body.Set("id", Json::Str("external-job"));
  body.Set("obs", DataRepository::ObservationToJson(obs));
  Json response = server.Handle(net::MsgKind::kSubmitObservation, body);
  ASSERT_TRUE(response.GetBoolOr("ok", false))
      << response.GetStringOr("message", "");
  EXPECT_EQ(response.GetNumberOr("observations", 0), 1.0);
  response = server.Handle(net::MsgKind::kSubmitObservation, body);
  EXPECT_EQ(response.GetNumberOr("observations", 0), 2.0);

  DataRepository repo(repo_dir);
  auto stored = repo.LoadTask("external-job", space);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->history.size(), 2u);

  // A registered task's history is tuner-owned: submission is rejected.
  SimTaskSpec spec;
  spec.workload = "Sort";
  Json reg = Json::Object();
  reg.Set("id", Json::Str("mine"));
  reg.Set("spec", SimTaskSpecToJson(spec));
  ASSERT_TRUE(
      server.Handle(net::MsgKind::kRegisterTask, reg).GetBoolOr("ok", false));
  body.Set("id", Json::Str("mine"));
  response = server.Handle(net::MsgKind::kSubmitObservation, body);
  EXPECT_EQ(response.GetStringOr("code", ""), "FailedPrecondition");
}

// ---------------------------------------------------------------------------
// End to end over real processes: the headline bit-identity property.
// ---------------------------------------------------------------------------

void ExpectSameSlot(const Result<Observation>& got,
                    const Result<Observation>& want, const std::string& id,
                    long long period) {
  ASSERT_EQ(got.ok(), want.ok())
      << id << " period " << period << ": "
      << (got.ok() ? "ok" : got.status().ToString()) << " vs "
      << (want.ok() ? "ok" : want.status().ToString());
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code())
        << id << " period " << period;
    return;
  }
  EXPECT_TRUE(got->config == want->config) << id << " period " << period;
  EXPECT_EQ(got->objective, want->objective) << id << " period " << period;
  EXPECT_EQ(got->runtime_sec, want->runtime_sec)
      << id << " period " << period;
  EXPECT_EQ(got->failure, want->failure) << id << " period " << period;
  EXPECT_EQ(got->degraded, want->degraded) << id << " period " << period;
  EXPECT_EQ(got->feasible, want->feasible) << id << " period " << period;
}

struct FleetSpec {
  std::vector<std::string> ids;
  std::vector<SimTaskSpec> specs;
};

// Evaluator faults of every kind the watchdog handles: crashes, transient
// errors, hangs and corrupt event logs, drawn from the task's own seed.
FaultInjectionOptions EvalFaults(uint64_t seed) {
  FaultInjectionOptions fopts;
  fopts.seed = seed;
  fopts.crash_prob = 0.12;
  fopts.transient_error_prob = 0.08;
  fopts.hang_prob = 0.06;
  fopts.corrupt_log_prob = 0.06;
  return fopts;
}

FleetSpec MakeFleet(int tasks, bool with_faults = false) {
  const char* kWorkloads[] = {"WordCount", "Sort", "TeraSort", "Join"};
  FleetSpec fleet;
  for (int i = 0; i < tasks; ++i) {
    SimTaskSpec spec;
    spec.workload = kWorkloads[i % 4];
    spec.seed = 500 + static_cast<uint64_t>(i);
    if (with_faults) spec.faults = EvalFaults(101 + static_cast<uint64_t>(i));
    fleet.ids.push_back("rpc-task-" + std::to_string(i));
    fleet.specs.push_back(spec);
  }
  return fleet;
}

ProcessSupervisorOptions FleetOptions(const std::string& tag, int shards) {
  ProcessSupervisorOptions options;
  options.shardd_path = SPARKTUNE_SHARDD_PATH;
  options.socket_dir = TempDir("sock-" + tag);
  options.num_shards = shards;
  options.service = TestConfig();
  return options;
}

struct EquivalenceRun {
  std::string tag;
  int threads = 1;
  bool with_repo = false;
  int kill_tick = 0;  // 0 = undisturbed
  int restart_tick = 0;
  int ticks = 7;
  bool with_faults = false;
};

// Drives a real multi-process fleet for `run.ticks` ticks (optionally
// SIGKILLing the busiest shard at kill_tick and restarting it at
// restart_tick) and asserts every delivered observation equals the
// undisturbed in-process oracle's observation for the same period index.
void RunProcessEquivalence(const EquivalenceRun& run) {
  const int kShards = 2, kTasks = 4;
  ProcessSupervisorOptions options = FleetOptions(run.tag, kShards);
  options.service.num_threads = run.threads;
  if (run.with_repo) {
    options.service.repository_dir = TempDir("repo-" + run.tag);
    options.service.auto_checkpoint_periods = 2;
    options.service.checkpoint_on_phase_change = true;
  }

  ProcessSupervisor supervisor(options);
  ASSERT_TRUE(supervisor.Start().ok());
  FleetSpec fleet = MakeFleet(kTasks, run.with_faults);
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(
        supervisor.RegisterTask(fleet.ids[i], fleet.specs[i]).ok())
        << fleet.ids[i];
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

  int killed = -1;
  long long compared = 0;
  long long faulted = 0;  // compared slots an injected fault shaped
  for (int t = 1; t <= run.ticks; ++t) {
    if (t == run.kill_tick) {
      std::vector<int> load(kShards, 0);
      for (const std::string& id : fleet.ids) {
        ++load[supervisor.shard_of(id)];
      }
      killed = load[1] > load[0] ? 1 : 0;
      ASSERT_TRUE(supervisor.KillShard(killed).ok());
    }
    if (t == run.restart_tick && killed >= 0) {
      ASSERT_TRUE(supervisor.RestartShard(killed).ok());
    }
    std::vector<long long> before(fleet.ids.size());
    for (size_t i = 0; i < fleet.ids.size(); ++i) {
      before[i] = supervisor.periods(fleet.ids[i]);
    }
    std::vector<Result<Observation>> slots = supervisor.Tick();
    ASSERT_EQ(slots.size(), fleet.ids.size());
    for (size_t i = 0; i < fleet.ids.size(); ++i) {
      const long long after = supervisor.periods(fleet.ids[i]);
      if (after == before[i]) {
        // Parked: the home shard is down; typed kUnavailable, no period
        // consumed, trajectory untouched.
        ASSERT_FALSE(slots[i].ok()) << fleet.ids[i] << " tick " << t;
        EXPECT_EQ(slots[i].status().code(), Status::Code::kUnavailable)
            << fleet.ids[i] << " tick " << t;
        continue;
      }
      ASSERT_EQ(after, before[i] + 1) << fleet.ids[i] << " tick " << t;
      while (oracle.periods(fleet.ids[i]) < before[i]) {
        (void)oracle.ExecutePeriodic(fleet.ids[i]);
      }
      Result<Observation> want = oracle.ExecutePeriodic(fleet.ids[i]);
      ++compared;
      if (!want.ok() || want->failure == FailureKind::kInfra ||
          want->degraded) {
        ++faulted;
      }
      ExpectSameSlot(slots[i], want, fleet.ids[i], before[i]);
    }
  }
  EXPECT_GT(compared, 0);
  // Only injected faults cause infra failures, watchdog errors and
  // degraded runs, so they show up exactly when the fleet has faults.
  if (run.with_faults) {
    EXPECT_GT(faulted, 0);
  } else {
    EXPECT_EQ(faulted, 0);
  }
  const ProcessSupervisorStats& st = supervisor.stats();
  if (run.kill_tick > 0) {
    EXPECT_EQ(st.kills, 1);
    EXPECT_EQ(st.restarts, 1);
    EXPECT_GT(st.parked_slots, 0);
    if (run.with_repo) {
      // Every recovered task resumed from its on-disk checkpoint
      // generation, none from period zero, and the kill landed between
      // checkpoints, so recovery replayed a gap.
      EXPECT_GT(st.restored_tasks, 0);
      EXPECT_EQ(st.fresh_replays, 0);
      EXPECT_GT(st.replayed_periods, 0);
    } else {
      // Without a repository each recovered task replays every period
      // acked before the kill.
      EXPECT_EQ(st.restored_tasks, 0);
      EXPECT_GT(st.fresh_replays, 0);
      EXPECT_EQ(st.replayed_periods, (run.kill_tick - 1) * st.fresh_replays);
    }
  }
  EXPECT_TRUE(supervisor.Shutdown().ok());
}

TEST(ProcessService, UndisturbedRunMatchesOracleSingleThread) {
  RunProcessEquivalence({.tag = "plain-nt1", .threads = 1});
}

TEST(ProcessService, UndisturbedRunMatchesOracleFourThreads) {
  RunProcessEquivalence({.tag = "plain-nt4", .threads = 4});
}

TEST(ProcessService, SigkillRecoveryIsBitIdenticalSingleThread) {
  RunProcessEquivalence({.tag = "chaos-nt1", .threads = 1, .with_repo = true,
                         .kill_tick = 3, .restart_tick = 5});
}

TEST(ProcessService, SigkillRecoveryIsBitIdenticalFourThreads) {
  RunProcessEquivalence({.tag = "chaos-nt4", .threads = 4, .with_repo = true,
                         .kill_tick = 3, .restart_tick = 5});
}

TEST(ProcessService, SigkillWithoutRepositoryReplaysFromScratch) {
  RunProcessEquivalence({.tag = "chaos-norepo", .threads = 1,
                         .kill_tick = 3, .restart_tick = 5});
}

// Injected evaluator faults survive a SIGKILL: watchdog-backoff slots,
// failed and degraded runs all come back bit-identical after checkpoint
// restore and replay.
TEST(ProcessService, EvaluatorFaultsSurviveSigkillSingleThread) {
  RunProcessEquivalence({.tag = "faults-nt1", .threads = 1, .with_repo = true,
                         .kill_tick = 12, .restart_tick = 16, .ticks = 30,
                         .with_faults = true});
}

TEST(ProcessService, EvaluatorFaultsSurviveSigkillFourThreads) {
  RunProcessEquivalence({.tag = "faults-nt4", .threads = 4, .with_repo = true,
                         .kill_tick = 12, .restart_tick = 16, .ticks = 30,
                         .with_faults = true});
}

TEST(ProcessService, EvaluatorFaultsWithoutRepositoryReplayFromScratch) {
  RunProcessEquivalence({.tag = "faults-norepo", .threads = 1,
                         .kill_tick = 8, .restart_tick = 12, .ticks = 30,
                         .with_faults = true});
}

TEST(ProcessService, CheckpointAllAggregatesAndSkipsUnchanged) {
  // TestConfig leaves auto-checkpoints off: only CheckpointAll writes.
  ProcessSupervisorOptions options = FleetOptions("ckpt-all", 2);
  options.service.repository_dir = TempDir("repo-ckpt-all");
  ProcessSupervisor supervisor(options);
  ASSERT_TRUE(supervisor.Start().ok());
  FleetSpec fleet = MakeFleet(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(supervisor.RegisterTask(fleet.ids[i], fleet.specs[i]).ok());
  }
  for (int t = 0; t < 5; ++t) (void)supervisor.Tick();

  CheckpointReport first = supervisor.CheckpointAll();
  EXPECT_TRUE(first.ok());
  EXPECT_EQ(first.written, 4);
  EXPECT_EQ(first.skipped, 0);
  // No periods elapsed since: the second pass skips every task.
  CheckpointReport second = supervisor.CheckpointAll();
  EXPECT_TRUE(second.ok());
  EXPECT_EQ(second.written, 0);
  EXPECT_EQ(second.skipped, 4);
  EXPECT_TRUE(supervisor.Shutdown().ok());
}

TEST(ProcessService, PlacementIsPinnedAndShardErrorsAreTyped) {
  ProcessSupervisor supervisor(FleetOptions("errors", 2));
  ASSERT_TRUE(supervisor.Start().ok());
  FleetSpec fleet = MakeFleet(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(supervisor.RegisterTask(fleet.ids[i], fleet.specs[i]).ok());
  }
  // Rendezvous placement is a pure function of (id, shard count): these
  // homes were recorded once and must never drift.
  const int kHomes[] = {1, 1, 0, 0};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(supervisor.shard_of(fleet.ids[i]), kHomes[i]) << fleet.ids[i];
  }
  EXPECT_EQ(supervisor.shard_of("unknown"), -1);

  EXPECT_EQ(supervisor.RegisterTask(fleet.ids[0], fleet.specs[0]).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(supervisor.KillShard(2).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(supervisor.KillShard(-1).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(supervisor.RestartShard(2).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(supervisor.RestartShard(1).code(),
            Status::Code::kFailedPrecondition);
  ASSERT_TRUE(supervisor.KillShard(0).ok());
  EXPECT_EQ(supervisor.KillShard(0).code(), Status::Code::kFailedPrecondition);
  ASSERT_TRUE(supervisor.RestartShard(0).ok());
  EXPECT_EQ(supervisor.num_live_shards(), 2);
  EXPECT_EQ(supervisor.stats().kills, 1);
  EXPECT_EQ(supervisor.stats().restarts, 1);
  EXPECT_TRUE(supervisor.Shutdown().ok());
}

TEST(ProcessService, DownedShardDegradesToTypedUnavailableWithinDeadline) {
  ProcessSupervisor supervisor(FleetOptions("degrade", 2));
  ASSERT_TRUE(supervisor.Start().ok());
  FleetSpec fleet = MakeFleet(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        supervisor.RegisterTask(fleet.ids[i], fleet.specs[i]).ok());
  }
  (void)supervisor.Tick();

  // Kill BOTH shards: every slot must degrade to typed kUnavailable and
  // the tick must return promptly — parked requests never hang.
  ASSERT_TRUE(supervisor.KillShard(0).ok());
  ASSERT_TRUE(supervisor.KillShard(1).ok());
  const int64_t start = net::MonotonicMs();
  std::vector<Result<Observation>> slots = supervisor.Tick();
  EXPECT_LT(net::MonotonicMs() - start, 10000);
  ASSERT_EQ(slots.size(), 4u);
  for (size_t i = 0; i < slots.size(); ++i) {
    ASSERT_FALSE(slots[i].ok()) << i;
    EXPECT_EQ(slots[i].status().code(), Status::Code::kUnavailable) << i;
    EXPECT_EQ(supervisor.periods(fleet.ids[i]), 1) << i;
  }
  EXPECT_EQ(supervisor.stats().parked_slots, 4);

  // Registration on a downed home shard is refused, not parked.
  SimTaskSpec spec;
  spec.workload = "Scan";
  EXPECT_EQ(supervisor.RegisterTask("late", spec).code(),
            Status::Code::kUnavailable);

  // Recovery brings every task back.
  ASSERT_TRUE(supervisor.RestartShard(0).ok());
  ASSERT_TRUE(supervisor.RestartShard(1).ok());
  slots = supervisor.Tick();
  for (size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(supervisor.periods(fleet.ids[i]), 2) << i;
  }
  EXPECT_TRUE(supervisor.Shutdown().ok());
}

TEST(ProcessService, FetchSuggestionTravelsTheWire) {
  ProcessSupervisor supervisor(FleetOptions("suggest", 1));
  ASSERT_TRUE(supervisor.Start().ok());
  SimTaskSpec spec;
  spec.workload = "WordCount";
  spec.seed = 7;
  ASSERT_TRUE(supervisor.RegisterTask("wc", spec).ok());
  for (int t = 0; t < 3; ++t) (void)supervisor.Tick();

  auto suggestion = supervisor.FetchSuggestion("wc");
  ASSERT_TRUE(suggestion.ok()) << suggestion.status().ToString();

  // Same trajectory in process: the incumbents agree exactly.
  ClusterSpec cluster = ClusterSpec::HiBenchCluster();
  ConfigSpace space = BuildSparkSpace(cluster);
  TuningService oracle(&space, MakeServiceOptions(TestConfig()));
  auto evaluator = BuildSimEvaluator(&space, cluster, spec);
  ASSERT_TRUE(evaluator.ok());
  ASSERT_TRUE(oracle.RegisterTask("wc", evaluator->get()).ok());
  for (int t = 0; t < 3; ++t) (void)oracle.ExecutePeriodic("wc");
  Configuration want = oracle.tuner("wc")->BestConfig();
  auto dump = [](const Configuration& c) {
    std::string s;
    for (double v : c.values()) s += StrFormat("%.17g,", v);
    return s;
  };
  EXPECT_TRUE(*suggestion == want)
      << "got  " << dump(*suggestion) << "\nwant " << dump(want);

  EXPECT_EQ(supervisor.FetchSuggestion("nope").status().code(),
            Status::Code::kNotFound);
  EXPECT_TRUE(supervisor.Shutdown().ok());
}

}  // namespace
}  // namespace sparktune
