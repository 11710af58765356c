// Wire framing for the multi-process tuning service (DESIGN.md §9).
//
// Every message on a shard connection is one length-prefixed, CRC-framed
// unit:
//
//   offset  size  field
//   0       4     magic "SPTF" (little-endian u32 0x46545053)
//   4       1     protocol version (kFrameVersion)
//   5       1     message kind (MsgKind)
//   6       2     reserved, must be zero
//   8       4     payload length, little-endian u32 (1..kMaxFramePayload)
//   12      4     CRC-32 of header bytes 0..11 then the payload
//                 (common/checksum.h, zlib poly) — covering the header
//                 prefix means a kind-byte flip to another valid kind
//                 still fails the checksum
//   16      len   payload bytes (UTF-8 JSON in this protocol)
//
// Decode never trusts the peer: a bad magic/version/kind, a zero-length
// or oversized declared payload, or a non-zero reserved field is
// kInvalidArgument (the frame is well-formed garbage); a buffer shorter
// than the declared frame or a CRC mismatch is kDataLoss (a torn or
// bit-flipped frame). Decoders must never read past `buf.size()`
// regardless of what the header claims — the hardening corpus in
// tests/rpc_test.cc pins this under ASan/UBSan.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace sparktune::net {

// Request kinds of the shard protocol (responses echo the request kind).
// Values are wire format — append only, never renumber.
enum class MsgKind : uint8_t {
  kPing = 1,               // health probe; also the post-spawn ready check
  kConfigure = 2,          // ServiceConfig: build the shard's TuningService
  kRegisterTask = 3,       // id + SimTaskSpec; shard builds the evaluator
  kSubmitObservation = 4,  // externally-executed observation -> repository
  kFetchSuggestion = 5,    // incumbent configuration for a task
  kExecute = 6,            // one periodic tick for a batch of task ids
  kHarvest = 7,            // fold histories into the knowledge base
  kCheckpoint = 8,         // checkpoint every dirty task
  kRestore = 9,            // restore from checkpoint + replay the gap
  kLoadRepository = 10,    // load persisted tasks into the knowledge base
  kShutdown = 11,          // graceful exit after the response is written
  kTaskStatus = 12,        // worker epoch + per-task period clocks/specs;
                           // supervisor Recover() reconciles against these
};

bool IsValidMsgKind(uint8_t kind);
const char* MsgKindName(MsgKind kind);

inline constexpr uint32_t kFrameMagic = 0x46545053u;  // "SPTF" LE
inline constexpr uint8_t kFrameVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 16;
// Hard payload bound: a header declaring more than this is rejected before
// any allocation, so a corrupt length cannot balloon memory.
inline constexpr uint32_t kMaxFramePayload = 16u << 20;  // 16 MiB

struct Frame {
  MsgKind kind = MsgKind::kPing;
  std::string payload;
};

// Encode one frame. `payload` must be non-empty and within
// kMaxFramePayload (checked with an assert; callers send JSON envelopes
// that are never empty).
std::string EncodeFrame(MsgKind kind, std::string_view payload);

// Validate a 16-byte header. On success returns the declared payload
// length and fills `kind`/`crc`. `header.size()` must be exactly
// kFrameHeaderBytes (shorter input is the caller's torn-frame case).
Result<uint32_t> DecodeFrameHeader(std::string_view header, MsgKind* kind,
                                   uint32_t* crc);

// kDataLoss unless `crc` is the CRC-32 of header bytes 0..11 then
// `payload`, the rule EncodeFrame writes. `header` is the frame's header
// (at least its first 12 bytes). Both decoders, DecodeFrame and
// net::ReadFrame, check their frames through this one function.
Status CheckFrameCrc(std::string_view header, std::string_view payload,
                     uint32_t crc);

// Decode exactly one frame from the front of `buf`.
//   * buf shorter than one header, or than header+declared length: kDataLoss
//   * header validation failure: kInvalidArgument
//   * payload CRC mismatch: kDataLoss
// On success `*consumed` (when non-null) is the total frame size.
Result<Frame> DecodeFrame(std::string_view buf, size_t* consumed = nullptr);

}  // namespace sparktune::net
