#include "net/channel.h"

#include "net/io.h"

namespace sparktune::net {

Status WriteFrame(int fd, MsgKind kind, std::string_view payload,
                  int deadline_ms) {
  const std::string frame = EncodeFrame(kind, payload);
  return WriteFull(fd, frame.data(), frame.size(), deadline_ms);
}

Result<Frame> ReadFrame(int fd, int deadline_ms) {
  const int64_t start = MonotonicMs();
  char header[kFrameHeaderBytes];
  SPARKTUNE_RETURN_IF_ERROR(ReadFull(fd, header, sizeof(header),
                                     RemainingMs(start, deadline_ms)));
  MsgKind kind = MsgKind::kPing;
  uint32_t crc = 0;
  SPARKTUNE_ASSIGN_OR_RETURN(
      len, DecodeFrameHeader(std::string_view(header, sizeof(header)), &kind,
                             &crc));
  Frame frame;
  frame.kind = kind;
  frame.payload.resize(len);
  Status read = ReadFull(fd, frame.payload.data(), frame.payload.size(),
                         RemainingMs(start, deadline_ms));
  if (!read.ok()) {
    // A timeout or reset mid-payload left a half-read frame on the wire:
    // the stream is unsynchronized, so surface it as data loss (the caller
    // must drop the connection, not retry the read).
    if (read.code() == Status::Code::kUnavailable) {
      return Status::DataLoss("frame payload cut off: " + read.message());
    }
    return read;
  }
  SPARKTUNE_RETURN_IF_ERROR(CheckFrameCrc(
      std::string_view(header, sizeof(header)), frame.payload, crc));
  return frame;
}

}  // namespace sparktune::net
