#include "net/frame.h"

#include <cassert>

#include "common/checksum.h"
#include "common/strings.h"

namespace sparktune::net {

namespace {

void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

// The CRC covers header bytes 0..11 then the payload. Covering the header
// prefix means a bit flip in the kind (or any other header byte that
// still passes field validation) fails the checksum instead of decoding
// as a well-formed frame of another kind.
uint32_t FrameCrc(std::string_view header, std::string_view payload) {
  return Crc32(payload, Crc32(header.substr(0, 12)));
}

uint32_t GetU32(std::string_view buf, size_t off) {
  return static_cast<uint32_t>(static_cast<unsigned char>(buf[off])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(buf[off + 1]))
          << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(buf[off + 2]))
          << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(buf[off + 3]))
          << 24);
}

}  // namespace

bool IsValidMsgKind(uint8_t kind) {
  return kind >= static_cast<uint8_t>(MsgKind::kPing) &&
         kind <= static_cast<uint8_t>(MsgKind::kTaskStatus);
}

const char* MsgKindName(MsgKind kind) {
  switch (kind) {
    case MsgKind::kPing: return "ping";
    case MsgKind::kConfigure: return "configure";
    case MsgKind::kRegisterTask: return "register-task";
    case MsgKind::kSubmitObservation: return "submit-observation";
    case MsgKind::kFetchSuggestion: return "fetch-suggestion";
    case MsgKind::kExecute: return "execute";
    case MsgKind::kHarvest: return "harvest";
    case MsgKind::kCheckpoint: return "checkpoint";
    case MsgKind::kRestore: return "restore";
    case MsgKind::kLoadRepository: return "load-repository";
    case MsgKind::kShutdown: return "shutdown";
    case MsgKind::kTaskStatus: return "task-status";
  }
  return "unknown";
}

std::string EncodeFrame(MsgKind kind, std::string_view payload) {
  assert(!payload.empty() && "protocol payloads are JSON envelopes, never empty");
  assert(payload.size() <= kMaxFramePayload);
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&out, kFrameMagic);
  out.push_back(static_cast<char>(kFrameVersion));
  out.push_back(static_cast<char>(kind));
  out.push_back(0);  // reserved
  out.push_back(0);
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU32(&out, FrameCrc(out, payload));
  out.append(payload.data(), payload.size());
  return out;
}

Result<uint32_t> DecodeFrameHeader(std::string_view header, MsgKind* kind,
                                   uint32_t* crc) {
  if (header.size() != kFrameHeaderBytes) {
    return Status::DataLoss(StrFormat(
        "torn frame header: %zu of %zu bytes", header.size(),
        kFrameHeaderBytes));
  }
  const uint32_t magic = GetU32(header, 0);
  if (magic != kFrameMagic) {
    return Status::InvalidArgument(StrFormat("bad frame magic 0x%08x", magic));
  }
  const uint8_t version = static_cast<unsigned char>(header[4]);
  if (version != kFrameVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported frame version %d", static_cast<int>(version)));
  }
  const uint8_t raw_kind = static_cast<unsigned char>(header[5]);
  if (!IsValidMsgKind(raw_kind)) {
    return Status::InvalidArgument(
        StrFormat("unknown message kind %d", static_cast<int>(raw_kind)));
  }
  if (header[6] != 0 || header[7] != 0) {
    return Status::InvalidArgument("non-zero reserved frame bytes");
  }
  const uint32_t len = GetU32(header, 8);
  if (len == 0) {
    return Status::InvalidArgument("zero-length frame payload");
  }
  if (len > kMaxFramePayload) {
    return Status::InvalidArgument(
        StrFormat("oversized frame payload: %u > %u", len, kMaxFramePayload));
  }
  if (kind != nullptr) *kind = static_cast<MsgKind>(raw_kind);
  if (crc != nullptr) *crc = GetU32(header, 12);
  return len;
}

Status CheckFrameCrc(std::string_view header, std::string_view payload,
                     uint32_t crc) {
  const uint32_t got = FrameCrc(header, payload);
  if (got != crc) {
    return Status::DataLoss(StrFormat(
        "frame CRC mismatch: header 0x%08x payload 0x%08x", crc, got));
  }
  return Status::OK();
}

}  // namespace sparktune::net
