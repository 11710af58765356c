// ChaosChannel: deterministic wire-fault injection for the framed shard
// protocol (DESIGN.md §9). Wraps WriteFrame and injects torn writes,
// mid-stream bit flips, duplicated frames, deadline-blowing delays, and
// connection resets — each drawn from an Rng seeded purely by
// (seed, shard, direction salt, exchange index), so a chaos schedule is
// reproducible across runs, thread counts, and process respawns.
//
// Every injected fault surfaces to the *injecting* caller as a typed
// status — kDataLoss when bytes were damaged (torn / flipped / duplicated),
// kUnavailable when the exchange was suppressed (delay / reset) — never OK,
// so the caller tears the connection down immediately and the byte stream
// can never stay silently desynchronized. The peer independently observes
// the damage through the frame codec's own taxonomy (CRC mismatch, torn
// frame, EOF), which tests/chaos_net_test.cc pins: no injected fault ever
// becomes a crash, hang, or untyped error on either end.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/result.h"
#include "net/frame.h"

namespace sparktune::net {

enum class ChaosFault {
  kNone = 0,
  kTornWrite,  // strict prefix of the frame, then the stream is poisoned
  kBitFlip,    // full frame with one flipped bit (peer sees CRC kDataLoss)
  kDupFrame,   // frame written twice, connection poisoned
  kDelay,      // nothing written: models a delay past the call deadline
  kReset,      // shutdown(2) both directions before any byte
};

// Direction salts: the supervisor's request writes and the worker's
// response writes draw from independent deterministic streams even when
// they share (seed, shard).
inline constexpr uint64_t kChaosClientSalt = 0x636c69656e743031ULL;
inline constexpr uint64_t kChaosServerSalt = 0x7365727665723031ULL;

struct ChaosOptions {
  uint64_t seed = 0;      // 0 disables injection entirely
  double fault_prob = 0;  // per-exchange Bernoulli fault probability
  int shard = 0;
  uint64_t salt = kChaosClientSalt;
  // Exchanges [0, arm_after_exchanges) are exempt. A freshly spawned
  // channel starts its counter at zero, so configure/recovery traffic on a
  // new incarnation gets a deterministic grace window before chaos arms.
  int arm_after_exchanges = 0;
};

struct ChaosStats {
  long long exchanges = 0;  // WriteFrame calls seen (faulted or not)
  long long injected = 0;
  long long torn_writes = 0;
  long long bit_flips = 0;
  long long dup_frames = 0;
  long long delays = 0;
  long long resets = 0;
};

class ChaosChannel {
 public:
  explicit ChaosChannel(ChaosOptions options = {});

  bool enabled() const {
    return options_.seed != 0 && options_.fault_prob > 0;
  }

  // The fault this channel draws for exchange `index`: a pure function of
  // (seed, shard, salt, index) — exposed so tests pin the schedule.
  // lint:allow(test-only-function) chaos_net_test pins the fault schedule
  ChaosFault FaultAt(long long index) const;

  // WriteFrame with injection. Consumes one exchange index per call. A
  // clean exchange forwards to net::WriteFrame verbatim; an injected fault
  // damages or suppresses the bytes and returns kDataLoss/kUnavailable.
  // Reads are never injected: both directions of the wire are covered by
  // the writer on each side.
  Status WriteFrame(int fd, MsgKind kind, std::string_view payload,
                    int deadline_ms);

  const ChaosOptions& options() const { return options_; }
  const ChaosStats& stats() const { return stats_; }
  long long exchange_index() const { return next_exchange_; }

 private:
  ChaosOptions options_;
  ChaosStats stats_;
  long long next_exchange_ = 0;
};

}  // namespace sparktune::net
