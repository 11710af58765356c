#include "service/data_repository.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/checksum.h"
#include "common/json.h"
#include "common/strings.h"

namespace fs = std::filesystem;

namespace sparktune {

namespace {

// Task ids can contain spaces/colons; file names use a sanitized prefix
// plus a stable hash for uniqueness. The real id lives inside the JSON.
std::string SanitizedFileName(const std::string& id, const char* ext) {
  std::string safe;
  for (char c : id) {
    safe.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  if (safe.size() > 48) safe.resize(48);
  size_t h = std::hash<std::string>{}(id);
  return StrFormat("%s-%016zx%s", safe.c_str(), h, ext);
}

// File framing: "<magic> <crc32 hex> <payload bytes>\n" then the payload.
// The declared length catches truncation (torn write that the rename could
// not prevent, e.g. a dying disk), the CRC catches bit rot. Checkpoint
// generation files and the per-task manifest share the frame but carry
// distinct magics.
constexpr char kCheckpointMagic[] = "SPARKTUNE-CKPT1";
constexpr char kManifestMagic[] = "SPARKTUNE-MAN1";

// Writes `bytes` to "<path>.tmp" and renames it over `path` only once the
// flushed stream reports no error, so a failed or short write leaves the
// previous file in place.
Status WriteAtomic(const std::string& path, const std::string& bytes) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out.good()) {
      return Status::Unavailable("cannot write " + tmp);
    }
    out << bytes;
    out.flush();
    if (!out.good()) {
      return Status::Unavailable("short write to " + tmp);
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) return Status::Unavailable("rename failed: " + ec.message());
  return Status::OK();
}

}  // namespace

Status WriteFramedAtomic(const std::string& path, const char* magic,
                         const std::string& body) {
  const std::string header =
      StrFormat("%s %08x %zu\n", magic, Crc32(body), body.size());
  return WriteAtomic(path, header + body);
}

Result<std::string> ReadFramedFile(const std::string& path,
                                   const char* magic,
                                   const std::string& what) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return Status::NotFound("no file: " + what);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string raw = buf.str();

  size_t nl = raw.find('\n');
  if (nl == std::string::npos) {
    return Status::DataLoss(what + ": missing header");
  }
  std::istringstream header(raw.substr(0, nl));
  std::string got_magic, crc_hex;
  size_t declared = 0;
  if (!(header >> got_magic >> crc_hex >> declared) || got_magic != magic) {
    return Status::DataLoss(what + ": bad header");
  }
  std::string body = raw.substr(nl + 1);
  if (body.size() != declared) {
    return Status::DataLoss(StrFormat("%s: truncated (%zu of %zu bytes)",
                                      what.c_str(), body.size(), declared));
  }
  uint32_t want = 0;
  {
    std::istringstream crc_in(crc_hex);
    crc_in >> std::hex >> want;
    if (crc_in.fail()) {
      return Status::DataLoss(what + ": bad crc field");
    }
  }
  if (Crc32(body) != want) {
    return Status::DataLoss(what + ": checksum mismatch");
  }
  return body;
}

namespace {

// Generation numbers run from 1 to kMaxGeneration; anything past it is
// not a generation, whether in a file name or in a manifest.
constexpr long long kMaxGeneration = 1LL << 50;

// Parses "<stem>.g<digits>.ckpt" file names; returns -1 when `name` is not
// a generation file of `stem`.
long long GenerationOf(const std::string& name, const std::string& stem) {
  const std::string prefix = stem + ".g";
  const std::string suffix = ".ckpt";
  if (name.size() <= prefix.size() + suffix.size()) return -1;
  if (name.compare(0, prefix.size(), prefix) != 0) return -1;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return -1;
  }
  long long gen = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    char c = name[i];
    if (!std::isdigit(static_cast<unsigned char>(c))) return -1;
    gen = gen * 10 + (c - '0');
    if (gen > kMaxGeneration) return -1;
  }
  return gen > 0 ? gen : -1;
}

}  // namespace

DataRepository::DataRepository(std::string root_dir,
                               CheckpointRetention retention)
    : root_dir_(std::move(root_dir)), retention_(retention) {
  if (retention_.keep_generations < 1) retention_.keep_generations = 1;
  std::error_code ec;
  fs::create_directories(root_dir_, ec);
}

std::string DataRepository::PathFor(const std::string& id) const {
  return (fs::path(root_dir_) / SanitizedFileName(id, ".json")).string();
}

std::string DataRepository::CheckpointStem(const std::string& id) const {
  return SanitizedFileName(id, "");
}

std::string DataRepository::GenerationPath(const std::string& id,
                                           long long gen) const {
  return (fs::path(root_dir_) /
          StrFormat("%s.g%06lld.ckpt", CheckpointStem(id).c_str(), gen))
      .string();
}

std::string DataRepository::ManifestPath(const std::string& id) const {
  return (fs::path(root_dir_) / (CheckpointStem(id) + ".manifest")).string();
}

std::vector<long long> DataRepository::ScanGenerations(
    const std::string& id) const {
  std::vector<long long> gens;
  const std::string stem = CheckpointStem(id);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    long long gen = GenerationOf(entry.path().filename().string(), stem);
    if (gen > 0) gens.push_back(gen);
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

std::vector<long long> DataRepository::ManifestGenerations(
    const std::string& id) const {
  auto body = ReadFramedFile(ManifestPath(id), kManifestMagic,
                         "manifest for " + id);
  if (!body.ok()) return {};
  auto doc = Json::Parse(*body);
  if (!doc.ok() || !doc->is_object()) return {};
  std::vector<long long> gens;
  if (const Json* arr = doc->Get("generations"); arr && arr->is_array()) {
    for (const auto& e : arr->elements()) {
      // An entry that is not a generation number makes the whole manifest
      // count as torn; the directory scan backstops it.
      const double g = e.is_number() ? e.AsNumber() : 0.0;
      if (!(g >= 1.0 && g <= static_cast<double>(kMaxGeneration) &&
            g == std::floor(g))) {
        return {};
      }
      gens.push_back(static_cast<long long>(g));
    }
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

Status DataRepository::WriteManifest(
    const std::string& id, const std::vector<long long>& gens) const {
  Json doc = Json::Object();
  doc.Set("id", Json::Str(id));
  doc.Set("latest", Json::Number(gens.empty()
                                     ? 0.0
                                     : static_cast<double>(gens.back())));
  Json arr = Json::Array();
  for (long long g : gens) arr.Append(Json::Number(static_cast<double>(g)));
  doc.Set("generations", std::move(arr));
  return WriteFramedAtomic(ManifestPath(id), kManifestMagic, doc.Dump());
}

Status DataRepository::SaveCheckpoint(const std::string& id,
                                      const Json& payload) const {
  std::vector<long long> on_disk = ScanGenerations(id);
  std::vector<long long> listed = ManifestGenerations(id);
  long long latest = 0;
  if (!on_disk.empty()) latest = on_disk.back();
  if (!listed.empty()) latest = std::max(latest, listed.back());
  const long long next = latest + 1;

  SPARKTUNE_RETURN_IF_ERROR(WriteFramedAtomic(
      GenerationPath(id, next), kCheckpointMagic, payload.Dump()));

  // Retained window: the newest keep_generations of what is now on disk.
  on_disk.push_back(next);
  std::sort(on_disk.begin(), on_disk.end());
  on_disk.erase(std::unique(on_disk.begin(), on_disk.end()), on_disk.end());
  size_t keep = static_cast<size_t>(retention_.keep_generations);
  std::vector<long long> retained =
      on_disk.size() <= keep
          ? on_disk
          : std::vector<long long>(on_disk.end() - keep, on_disk.end());
  SPARKTUNE_RETURN_IF_ERROR(WriteManifest(id, retained));

  // GC after the manifest landed: a crash mid-delete leaves only orphans
  // (swept by SweepOrphanCheckpoints), never a manifest naming dead files.
  for (long long gen : on_disk) {
    if (std::find(retained.begin(), retained.end(), gen) != retained.end()) {
      continue;
    }
    std::error_code ec;
    fs::remove(GenerationPath(id, gen), ec);
  }
  return Status::OK();
}

Result<Json> DataRepository::LoadCheckpoint(const std::string& id) const {
  // Newest-first candidate list: manifest-listed generations union the
  // directory scan (the scan backstops a torn or missing manifest and
  // covers generations written after the manifest's last update).
  std::vector<long long> candidates = ManifestGenerations(id);
  for (long long g : ScanGenerations(id)) candidates.push_back(g);
  std::sort(candidates.begin(), candidates.end(),
            std::greater<long long>());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  bool any_file = false;
  Status last_error = Status::OK();
  for (long long gen : candidates) {
    auto body =
        ReadFramedFile(GenerationPath(id, gen), kCheckpointMagic,
                   StrFormat("checkpoint for %s gen %lld", id.c_str(), gen));
    if (!body.ok()) {
      if (body.status().code() != Status::Code::kNotFound) {
        any_file = true;
        last_error = body.status();
      }
      continue;
    }
    any_file = true;
    auto doc = Json::Parse(*body);
    if (!doc.ok()) {
      last_error = Status::DataLoss(
          StrFormat("checkpoint for %s gen %lld: %s", id.c_str(), gen,
                    doc.status().message().c_str()));
      continue;
    }
    return *std::move(doc);
  }

  if (!any_file) return Status::NotFound("no checkpoint for task: " + id);
  if (last_error.ok()) {
    last_error = Status::DataLoss("checkpoint for " + id +
                                  ": no intact generation");
  }
  return last_error;
}

bool DataRepository::HasCheckpoint(const std::string& id) const {
  return !ScanGenerations(id).empty() || fs::exists(ManifestPath(id));
}

long long DataRepository::LatestCheckpointGeneration(
    const std::string& id) const {
  long long latest = 0;
  std::vector<long long> on_disk = ScanGenerations(id);
  if (!on_disk.empty()) latest = on_disk.back();
  std::vector<long long> listed = ManifestGenerations(id);
  if (!listed.empty()) latest = std::max(latest, listed.back());
  return latest;
}

std::vector<std::string> DataRepository::ListCheckpointIds() const {
  // Ids come from the payloads themselves, deduplicated across generations.
  std::set<std::string> ids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_dir_, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".ckpt") {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string raw = buf.str();
    size_t nl = raw.find('\n');
    if (nl == std::string::npos) continue;
    auto doc = Json::Parse(raw.substr(nl + 1));
    if (doc.ok() && doc->is_object()) {
      std::string id = doc->GetStringOr("id", "");
      if (!id.empty()) ids.insert(id);
    }
  }
  return std::vector<std::string>(ids.begin(), ids.end());
}

int DataRepository::SweepOrphanCheckpoints() const {
  int removed = 0;
  std::error_code ec;
  // One classifying pass over the directory. Sweep-eligible names are
  // what this repository's checkpoint writers produce:
  //   <stem>.g<digits>.ckpt        generation file (retention window)
  //   *.ckpt.tmp                   interrupted generation write
  //                                (<stem>.g<digits>.ckpt.tmp); the
  //                                suffix rule matches any such temp
  //   <stem>.manifest.tmp          interrupted manifest write
  // Anything else — task JSON documents, their .json.tmp temps, unrelated
  // files a caller parked in the directory — is preserved: the sweep used
  // to delete EVERY *.tmp regular file, eating innocent bystanders.
  struct GenFile {
    std::string path;
    long long gen = 0;
  };
  std::map<std::string, std::vector<GenFile>> by_stem;
  for (const auto& entry : fs::directory_iterator(root_dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      std::string base = name.substr(0, name.size() - 4);
      bool is_ckpt_tmp =
          base.size() > 5 &&
          base.compare(base.size() - 5, 5, ".ckpt") == 0;
      bool is_manifest_tmp =
          base.size() > 9 &&
          base.compare(base.size() - 9, 9, ".manifest") == 0;
      if (is_ckpt_tmp || is_manifest_tmp) {
        std::error_code rm_ec;
        fs::remove(entry.path(), rm_ec);
        if (!rm_ec) ++removed;
      }
      continue;
    }
    size_t dot_g = name.rfind(".g");
    if (dot_g == std::string::npos || dot_g == 0) continue;
    std::string stem = name.substr(0, dot_g);
    long long gen = GenerationOf(name, stem);
    if (gen > 0) by_stem[stem].push_back({entry.path().string(), gen});
  }
  // Per-stem retention window ordered by PARSED generation number — never
  // by file-name order, which goes wrong the moment generations outgrow
  // the zero-pad ("g1000000" sorts before "g999999" lexically). Deletion
  // targets the scanned paths themselves, not reconstructed names, so a
  // file whose padding differs from the current writer's still gets
  // collected once its generation leaves the window.
  size_t keep = static_cast<size_t>(retention_.keep_generations);
  for (auto& [stem, files] : by_stem) {
    if (files.size() <= keep) continue;
    std::sort(files.begin(), files.end(),
              [](const GenFile& a, const GenFile& b) {
                return a.gen != b.gen ? a.gen < b.gen : a.path < b.path;
              });
    for (size_t i = 0; i + keep < files.size(); ++i) {
      std::error_code rm_ec;
      fs::remove(files[i].path, rm_ec);
      if (!rm_ec) ++removed;
    }
  }
  return removed;
}

Json DataRepository::ObservationToJson(const Observation& obs) {
  Json j = Json::Object();
  j.Set("config", VectorToJson(obs.config.values()));
  j.Set("objective", Json::Number(obs.objective));
  j.Set("runtime_sec", Json::Number(obs.runtime_sec));
  j.Set("resource_rate", Json::Number(obs.resource_rate));
  j.Set("data_size_gb", Json::Number(obs.data_size_gb));
  j.Set("memory_gb_hours", Json::Number(obs.memory_gb_hours));
  j.Set("cpu_core_hours", Json::Number(obs.cpu_core_hours));
  j.Set("hours", Json::Number(obs.hours));
  j.Set("feasible", Json::Bool(obs.feasible));
  j.Set("failure", Json::Str(FailureKindName(obs.failure)));
  j.Set("degraded", Json::Bool(obs.degraded));
  j.Set("iteration", Json::Number(obs.iteration));
  return j;
}

Result<Observation> DataRepository::ObservationFromJson(
    const Json& j, const ConfigSpace& space) {
  if (!j.is_object()) {
    return Status::InvalidArgument("observation is not a JSON object");
  }
  Observation obs;
  const Json* config = j.Get("config");
  if (config == nullptr || !config->is_array() ||
      config->size() != space.size()) {
    return Status::InvalidArgument("observation config size mismatch");
  }
  obs.config = Configuration(VectorFromJson(*config));
  // An out-of-domain value (say 1e300, or 1e400 parsed as infinity) could
  // become the incumbent after a restore and reach the int casts of the
  // Spark decode; reject it here, with the size check's code.
  if (Status valid = space.Validate(obs.config); !valid.ok()) {
    return Status::InvalidArgument("observation config: " + valid.message());
  }
  obs.objective = j.GetNumberOr("objective", 0.0);
  obs.runtime_sec = j.GetNumberOr("runtime_sec", 0.0);
  obs.resource_rate = j.GetNumberOr("resource_rate", 0.0);
  obs.data_size_gb = j.GetNumberOr("data_size_gb", -1.0);
  obs.memory_gb_hours = j.GetNumberOr("memory_gb_hours", 0.0);
  obs.cpu_core_hours = j.GetNumberOr("cpu_core_hours", 0.0);
  obs.hours = j.GetNumberOr("hours", -1.0);
  obs.feasible = j.GetBoolOr("feasible", true);
  obs.failure =
      FailureKindFromName(j.GetStringOr("failure", "").c_str());
  obs.degraded = j.GetBoolOr("degraded", false);
  SPARKTUNE_ASSIGN_OR_RETURN(iteration, j.GetIntOr<int>("iteration", 0));
  obs.iteration = iteration;
  return obs;
}

Status DataRepository::SaveTask(const StoredTask& task) const {
  Json doc = Json::Object();
  doc.Set("id", Json::Str(task.id));
  doc.Set("meta_features", VectorToJson(task.meta_features));
  doc.Set("importance", VectorToJson(task.importance));
  Json obs = Json::Array();
  for (const auto& o : task.history.observations()) {
    obs.Append(ObservationToJson(o));
  }
  doc.Set("observations", std::move(obs));
  return WriteAtomic(PathFor(task.id), doc.Dump() + "\n");
}

Result<StoredTask> DataRepository::LoadTask(const std::string& id,
                                            const ConfigSpace& space) const {
  std::ifstream in(PathFor(id));
  if (!in.good()) return Status::NotFound("no stored task: " + id);
  std::stringstream buf;
  buf << in.rdbuf();
  SPARKTUNE_ASSIGN_OR_RETURN(doc, Json::Parse(buf.str()));
  StoredTask task;
  task.id = doc.GetStringOr("id", id);
  if (const Json* mf = doc.Get("meta_features")) {
    task.meta_features = VectorFromJson(*mf);
  }
  if (const Json* imp = doc.Get("importance")) {
    task.importance = VectorFromJson(*imp);
  }
  if (const Json* obs = doc.Get("observations"); obs && obs->is_array()) {
    for (const auto& e : obs->elements()) {
      SPARKTUNE_ASSIGN_OR_RETURN(o, ObservationFromJson(e, space));
      task.history.Add(std::move(o));
    }
  }
  return task;
}

std::vector<std::string> DataRepository::ListTaskIds() const {
  std::vector<std::string> ids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_dir_, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".json") {
      continue;
    }
    std::ifstream in(entry.path());
    std::stringstream buf;
    buf << in.rdbuf();
    auto doc = Json::Parse(buf.str());
    if (doc.ok() && doc->is_object()) {
      std::string id = doc->GetStringOr("id", "");
      if (!id.empty()) ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool DataRepository::HasTask(const std::string& id) const {
  return fs::exists(PathFor(id));
}

}  // namespace sparktune
