#include "net/chaos.h"

#include <sys/socket.h>

#include <string>

#include "common/rng.h"
#include "common/strings.h"
#include "net/channel.h"
#include "net/io.h"

namespace sparktune::net {
namespace {

// splitmix64 finalizer (same mixer the placement layer uses); local copy
// because net/ sits below service/ in the layering.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// One Rng per exchange, seeded purely by the chaos identity: draw order is
// fixed (Bernoulli, kind, then fault parameters), so the schedule is
// independent of wall time, thread count, and everything else in the run.
Rng ExchangeRng(const ChaosOptions& options, long long index) {
  uint64_t x = Mix64(options.seed);
  x = Mix64(x ^ Mix64(static_cast<uint64_t>(options.shard)));
  x = Mix64(x ^ options.salt);
  x = Mix64(x ^ static_cast<uint64_t>(index));
  return Rng(x);
}

ChaosFault DrawFault(const ChaosOptions& options, long long index) {
  if (options.seed == 0 || options.fault_prob <= 0) return ChaosFault::kNone;
  if (index < options.arm_after_exchanges) return ChaosFault::kNone;
  Rng rng = ExchangeRng(options, index);
  if (!rng.Bernoulli(options.fault_prob)) return ChaosFault::kNone;
  switch (rng.UniformInt(0, 4)) {
    case 0: return ChaosFault::kTornWrite;
    case 1: return ChaosFault::kBitFlip;
    case 2: return ChaosFault::kDupFrame;
    case 3: return ChaosFault::kDelay;
    default: return ChaosFault::kReset;
  }
}

}  // namespace

ChaosChannel::ChaosChannel(ChaosOptions options) : options_(options) {}

ChaosFault ChaosChannel::FaultAt(long long index) const {
  return DrawFault(options_, index);
}

Status ChaosChannel::WriteFrame(int fd, MsgKind kind,
                                std::string_view payload, int deadline_ms) {
  const long long index = next_exchange_++;
  ++stats_.exchanges;
  const ChaosFault fault = DrawFault(options_, index);
  if (fault == ChaosFault::kNone) {
    return net::WriteFrame(fd, kind, payload, deadline_ms);
  }
  ++stats_.injected;
  // Re-derive the exchange Rng past the two scheduling draws so the fault
  // parameters (tear point, flipped bit) are deterministic too.
  Rng rng = ExchangeRng(options_, index);
  (void)rng.Bernoulli(options_.fault_prob);
  (void)rng.UniformInt(0, 4);
  const std::string frame = EncodeFrame(kind, payload);
  switch (fault) {
    case ChaosFault::kTornWrite: {
      ++stats_.torn_writes;
      // At least one byte, strictly less than the whole frame, then the
      // stream is poisoned: the peer sees a torn frame, never a hang.
      const size_t cut = static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(frame.size()) - 1));
      (void)WriteFull(fd, frame.data(), cut, deadline_ms);
      ::shutdown(fd, SHUT_RDWR);
      return Status::DataLoss(StrFormat(
          "chaos: torn write (%zu of %zu bytes) on exchange %lld", cut,
          frame.size(), index));
    }
    case ChaosFault::kBitFlip: {
      ++stats_.bit_flips;
      std::string damaged = frame;
      const size_t bit = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(damaged.size()) * 8 - 1));
      damaged[bit / 8] = static_cast<char>(
          static_cast<unsigned char>(damaged[bit / 8]) ^ (1u << (bit % 8)));
      (void)WriteFull(fd, damaged.data(), damaged.size(), deadline_ms);
      return Status::DataLoss(StrFormat(
          "chaos: flipped bit %zu on exchange %lld", bit, index));
    }
    case ChaosFault::kDupFrame: {
      ++stats_.dup_frames;
      std::string doubled = frame + frame;
      (void)WriteFull(fd, doubled.data(), doubled.size(), deadline_ms);
      return Status::DataLoss(StrFormat(
          "chaos: duplicated frame on exchange %lld", index));
    }
    case ChaosFault::kDelay: {
      ++stats_.delays;
      // Modeled, not slept: the frame is suppressed and the caller gets
      // the same typed timeout a deadline-blowing stall would produce,
      // without actually burning the deadline budget.
      SleepMs(1);
      return Status::Unavailable(StrFormat(
          "chaos: delay blew the %d ms deadline on exchange %lld",
          deadline_ms, index));
    }
    case ChaosFault::kReset:
    default: {
      ++stats_.resets;
      ::shutdown(fd, SHUT_RDWR);
      return Status::Unavailable(StrFormat(
          "chaos: connection reset on exchange %lld", index));
    }
  }
}

}  // namespace sparktune::net
