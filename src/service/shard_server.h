// ShardServer: the worker half of the multi-process tuning service
// (DESIGN.md §9). One sparktune_shardd process hosts one ShardServer: a
// lazily-configured TuningService plus the evaluators it owns, driven
// entirely by framed requests from the ProcessSupervisor control plane.
//
// The dispatcher is socket-free (Handle consumes decoded JSON bodies and
// returns envelope documents) so tests can exercise every handler without
// a process boundary; ServeShard adds the accept/read/dispatch/write loop
// over a Unix-domain listener.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "net/chaos.h"
#include "net/frame.h"
#include "service/tuning_service.h"
#include "service/wire.h"
#include "space/config_space.h"

namespace sparktune {

class ShardServer {
 public:
  ShardServer() = default;
  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  // Dispatch one request; always returns a response envelope
  // ({"ok":true,...} or {"ok":false,"code":...,"message":...}).
  Json Handle(net::MsgKind kind, const Json& body);

  // Set once a kShutdown request has been acknowledged; the serve loop
  // exits after writing that response.
  bool shutdown_requested() const { return shutdown_; }
  bool configured() const { return service_ != nullptr; }
  const TuningService* service() const { return service_.get(); }
  // Fencing epoch this worker was configured at (0 = unfenced legacy).
  long long epoch() const { return epoch_; }

 private:
  // Handlers return the extra response fields; Handle wraps Status errors
  // into error envelopes.
  Result<Json> Dispatch(net::MsgKind kind, const Json& body);
  Result<Json> HandlePing();
  Result<Json> HandleConfigure(const Json& body);
  Result<Json> HandleRegisterTask(const Json& body);
  Result<Json> HandleSubmitObservation(const Json& body);
  Result<Json> HandleFetchSuggestion(const Json& body);
  Result<Json> HandleExecute(const Json& body);
  Result<Json> HandleHarvest(const Json& body);
  Result<Json> HandleCheckpoint();
  Result<Json> HandleRestore(const Json& body);
  Result<Json> HandleLoadRepository();
  Result<Json> HandleTaskStatus();

  Status RequireConfigured() const;

  bool shutdown_ = false;
  // Epoch fencing (DESIGN.md §9): the shard's fencing token, set by
  // kConfigure and carried by every kExecute. A request from an older
  // epoch — or an execute against a worker that missed a re-fence — is
  // typed kFailedPrecondition so a zombie incarnation can never
  // split-brain the fleet. 0 means "never fenced" (legacy callers that
  // omit the token are accepted unchanged).
  long long epoch_ = 0;
  // Configuration is idempotent: the canonical bytes of the accepted
  // config reject a later conflicting kConfigure.
  std::string config_bytes_;
  ServiceConfig config_;
  ClusterSpec cluster_;
  ConfigSpace space_;
  std::unique_ptr<TuningService> service_;
  // Evaluators rebuilt from wire specs; owned here because TuningService
  // borrows them. Kept for the process lifetime (tasks never unregister).
  // lint:allow(write-only-member) owns what the service points into; holding it is the use
  std::map<std::string, std::unique_ptr<JobEvaluator>> evaluators_;
  std::map<std::string, SimTaskSpec> specs_;
};

// Serve loop: listen on `socket_path`, accept one connection at a time
// (the control plane is the only client), dispatch frames until the peer
// disconnects (re-accept) or a kShutdown request is acknowledged (return).
// Malformed frames (kDataLoss / kInvalidArgument from the codec) close the
// connection — the byte stream is unsynchronized — without killing the
// worker. `write_deadline_ms` bounds each response write. A non-null
// `chaos` channel injects deterministic wire faults into response writes
// (net/chaos.h); a faulted write drops the connection like any other
// write failure, so damage never leaves a desynchronized stream behind.
Status ServeShard(const std::string& socket_path, ShardServer* server,
                  int write_deadline_ms = 20000,
                  net::ChaosChannel* chaos = nullptr);

}  // namespace sparktune
