// Data repository (paper Figure 1): persistent storage of tuning-related
// data — run histories, meta-features and importance scores — as one JSON
// document per task. This is what lets the meta-knowledge learner reuse
// history across service restarts.
//
// Checkpoints are stored as *generations* (DESIGN.md §7): every
// SaveCheckpoint writes a new file with a monotonic generation suffix and
// then updates a CRC-framed per-task manifest naming the live generations.
// A torn or bit-rotted newest generation therefore falls back to the
// previous one instead of a fresh start; only a fully absent or corrupt
// history surfaces as kNotFound/kDataLoss.
#pragma once

#include <string>
#include <vector>

#include "bo/history.h"
#include "common/json.h"
#include "common/result.h"
#include "space/config_space.h"

namespace sparktune {

// Shared CRC-framed single-file persistence: the body is written to
// "<path>.tmp" and renamed into place, framed as
// "<magic> <crc32 hex> <byte count>\n<body>". The declared length catches
// truncation, the CRC catches bit rot; a torn or corrupt file loads as
// kDataLoss, a missing one as kNotFound. Checkpoint generations, per-task
// manifests, and the supervisor manifest all share this frame with
// distinct magics. `what` names the artifact in error messages.
Status WriteFramedAtomic(const std::string& path, const char* magic,
                         const std::string& body);
Result<std::string> ReadFramedFile(const std::string& path,
                                   const char* magic,
                                   const std::string& what);

struct StoredTask {
  std::string id;
  std::vector<double> meta_features;
  std::vector<double> importance;
  RunHistory history;
};

// Checkpoint GC policy: after each successful write, only the newest
// `keep_generations` generation files of the task survive.
struct CheckpointRetention {
  int keep_generations = 2;  // clamped to >= 1
};

class DataRepository {
 public:
  // `root_dir` is created if missing.
  explicit DataRepository(std::string root_dir,
                          CheckpointRetention retention = {});

  Status SaveTask(const StoredTask& task, const ConfigSpace& space) const;
  Result<StoredTask> LoadTask(const std::string& id,
                              const ConfigSpace& space) const;
  // Ids of every stored task (decoded from JSON documents on disk).
  std::vector<std::string> ListTaskIds() const;
  bool HasTask(const std::string& id) const;
  Status DeleteTask(const std::string& id) const;

  const std::string& root_dir() const { return root_dir_; }
  const CheckpointRetention& retention() const { return retention_; }

  // Crash-safe per-task checkpoints (DESIGN.md §7). Writes go to a temp
  // file and rename atomically into place; each generation file is framed
  // with a CRC32 header so a torn or bit-flipped checkpoint surfaces as
  // kDataLoss instead of being half-loaded. `payload` is an opaque JSON
  // document (see service/checkpoint.h for the task codec).
  //
  // SaveCheckpoint appends generation latest+1, rewrites the manifest, and
  // deletes generations that fell out of the retention window.
  // LoadCheckpoint walks the generations newest-first (manifest order,
  // backstopped by a directory scan when the manifest itself is torn) and
  // returns the first intact payload: kNotFound when no generation file
  // exists at all, kDataLoss when files exist but none decodes.
  Status SaveCheckpoint(const std::string& id, const Json& payload) const;
  Result<Json> LoadCheckpoint(const std::string& id) const;
  bool HasCheckpoint(const std::string& id) const;
  Status DeleteCheckpoint(const std::string& id) const;
  std::vector<std::string> ListCheckpointIds() const;

  // Newest generation number present on disk for `id` (0 = none).
  long long LatestCheckpointGeneration(const std::string& id) const;
  // Sweeps stale temp files and generation files that fell out of the
  // retention window (e.g. a crash between a write and its GC, or a
  // manifest update that never landed). Returns the number of files
  // removed. TuningService::LoadRepository runs this on startup.
  int SweepOrphanCheckpoints() const;

  // JSON codecs (exposed for tests).
  static Json ObservationToJson(const Observation& obs);
  static Result<Observation> ObservationFromJson(const Json& j,
                                                 const ConfigSpace& space);

 private:
  std::string PathFor(const std::string& id) const;
  // `<sanitized>-<hash>` stem shared by a task's checkpoint artifacts.
  std::string CheckpointStem(const std::string& id) const;
  std::string GenerationPath(const std::string& id, long long gen) const;
  std::string ManifestPath(const std::string& id) const;
  // Generation numbers present on disk for `id`, ascending.
  std::vector<long long> ScanGenerations(const std::string& id) const;
  // Generations listed by an intact manifest, ascending (empty if the
  // manifest is missing or torn — callers fall back to ScanGenerations).
  std::vector<long long> ManifestGenerations(const std::string& id) const;
  Status WriteManifest(const std::string& id,
                       const std::vector<long long>& gens) const;

  std::string root_dir_;
  CheckpointRetention retention_;
};

}  // namespace sparktune
