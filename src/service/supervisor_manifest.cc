#include "service/supervisor_manifest.h"

#include <sys/types.h>

#include "common/strings.h"
#include "service/data_repository.h"

namespace sparktune {
namespace {

constexpr char kSupervisorManifestMagic[] = "SPARKTUNE-SUPV1";
constexpr int kManifestVersion = 1;

// A checked integer field; a malformed one is kDataLoss, like every other
// malformed part of the manifest.
template <typename T>
Result<T> ManifestInt(const Json& j, const std::string& key, T fallback) {
  Result<T> v = j.GetIntOr<T>(key, fallback);
  if (!v.ok()) {
    return Status::DataLoss("supervisor manifest: " + v.status().message());
  }
  return v;
}

}  // namespace

Json SupervisorManifestToJson(const SupervisorManifest& manifest) {
  Json doc = Json::Object();
  doc.Set("version", Json::Number(kManifestVersion));
  doc.Set("num_shards",
          Json::Number(static_cast<double>(manifest.num_shards)));
  doc.Set("service", ServiceConfigToJson(manifest.service));
  Json jshards = Json::Array();
  for (const ShardManifestEntry& s : manifest.shards) {
    Json e = Json::Object();
    e.Set("epoch", Json::Number(static_cast<double>(s.epoch)));
    e.Set("pid", Json::Number(static_cast<double>(s.pid)));
    jshards.Append(std::move(e));
  }
  doc.Set("shards", std::move(jshards));
  Json jtasks = Json::Array();
  for (const TaskManifestEntry& t : manifest.tasks) {
    Json e = Json::Object();
    e.Set("id", Json::Str(t.id));
    e.Set("shard", Json::Number(static_cast<double>(t.shard)));
    e.Set("periods", Json::Number(static_cast<double>(t.periods)));
    e.Set("spec", SimTaskSpecToJson(t.spec));
    jtasks.Append(std::move(e));
  }
  doc.Set("tasks", std::move(jtasks));
  return doc;
}

Result<SupervisorManifest> SupervisorManifestFromJson(const Json& j) {
  if (!j.is_object()) {
    return Status::DataLoss("supervisor manifest is not a JSON object");
  }
  SPARKTUNE_ASSIGN_OR_RETURN(version, ManifestInt<int>(j, "version", 0));
  if (version != kManifestVersion) {
    return Status::DataLoss(StrFormat(
        "unsupported supervisor manifest version %d", version));
  }
  SupervisorManifest manifest;
  SPARKTUNE_ASSIGN_OR_RETURN(num_shards,
                             ManifestInt<int>(j, "num_shards", 0));
  manifest.num_shards = num_shards;
  if (manifest.num_shards < 1) {
    return Status::DataLoss("supervisor manifest has no shards");
  }
  const Json* service = j.Get("service");
  if (service == nullptr) {
    return Status::DataLoss("supervisor manifest has no service config");
  }
  SPARKTUNE_ASSIGN_OR_RETURN(config, ServiceConfigFromJson(*service));
  manifest.service = config;
  const Json* jshards = j.Get("shards");
  if (jshards == nullptr || !jshards->is_array() ||
      jshards->size() != static_cast<size_t>(manifest.num_shards)) {
    return Status::DataLoss("supervisor manifest shard table is malformed");
  }
  for (const Json& e : jshards->elements()) {
    SPARKTUNE_ASSIGN_OR_RETURN(epoch, ManifestInt<long long>(e, "epoch", 1));
    // Recover() signals the pid, so it must fit pid_t: 4294967295 would
    // wrap to -1, and kill(-1, ...) reaches every process the user may
    // signal.
    SPARKTUNE_ASSIGN_OR_RETURN(pid, ManifestInt<pid_t>(e, "pid", -1));
    if (epoch < 1) {
      return Status::DataLoss("supervisor manifest epoch below 1");
    }
    if (pid != -1 && pid <= 0) {
      return Status::DataLoss(
          "supervisor manifest pid is neither -1 nor positive");
    }
    manifest.shards.push_back({epoch, pid});
  }
  if (const Json* jtasks = j.Get("tasks");
      jtasks != nullptr && jtasks->is_array()) {
    for (const Json& e : jtasks->elements()) {
      TaskManifestEntry t;
      t.id = e.GetStringOr("id", "");
      SPARKTUNE_ASSIGN_OR_RETURN(shard, ManifestInt<int>(e, "shard", -1));
      SPARKTUNE_ASSIGN_OR_RETURN(periods,
                                 ManifestInt<long long>(e, "periods", 0));
      t.shard = shard;
      t.periods = periods;
      if (t.id.empty() || t.shard < 0 || t.shard >= manifest.num_shards ||
          t.periods < 0) {
        return Status::DataLoss("supervisor manifest task entry malformed");
      }
      const Json* spec = e.Get("spec");
      if (spec == nullptr) {
        return Status::DataLoss("supervisor manifest task has no spec");
      }
      SPARKTUNE_ASSIGN_OR_RETURN(decoded, SimTaskSpecFromJson(*spec));
      t.spec = decoded;
      manifest.tasks.push_back(std::move(t));
    }
  }
  return manifest;
}

Status SaveSupervisorManifest(const std::string& path,
                              const SupervisorManifest& manifest) {
  return WriteFramedAtomic(path, kSupervisorManifestMagic,
                           SupervisorManifestToJson(manifest).Dump());
}

Result<SupervisorManifest> LoadSupervisorManifest(const std::string& path) {
  SPARKTUNE_ASSIGN_OR_RETURN(
      body, ReadFramedFile(path, kSupervisorManifestMagic,
                           "supervisor manifest"));
  auto doc = Json::Parse(body);
  if (!doc.ok()) {
    return Status::DataLoss("supervisor manifest does not parse: " +
                            doc.status().message());
  }
  return SupervisorManifestFromJson(*doc);
}

}  // namespace sparktune
