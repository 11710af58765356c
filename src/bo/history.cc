#include "bo/history.h"

#include <algorithm>
#include <cstring>

namespace sparktune {

void RunHistory::Add(const Observation& obs) {
  if (offsets_.empty()) offsets_.push_back(0);
  const uint32_t idx = static_cast<uint32_t>(rows_.size());

  // Config-index maintenance: one entry per *distinct* configuration.
  // Repeated evaluations of the same config (degraded replays, applied
  // phase) must not grow the bucket, or Contains() degrades from O(1) to
  // O(duplicates) per lookup. NaN coordinates never compare equal, so NaN
  // configs still append — Contains() can never match them anyway.
  std::vector<uint32_t>& bucket = config_index_[ConfigKey(obs.config)];
  bool already_indexed = false;
  for (uint32_t j : bucket) {
    if (ConfigEquals(j, obs.config)) {
      already_indexed = true;
      break;
    }
  }
  if (!already_indexed) bucket.push_back(idx);

  configs_.insert(configs_.end(), obs.config.values().begin(),
                  obs.config.values().end());
  offsets_.push_back(configs_.size());

  Row row;
  row.objective = obs.objective;
  row.runtime_sec = obs.runtime_sec;
  row.resource_rate = obs.resource_rate;
  row.data_size_gb = obs.data_size_gb;
  row.hours = obs.hours;
  row.memory_gb_hours = obs.memory_gb_hours;
  row.cpu_core_hours = obs.cpu_core_hours;
  row.iteration = obs.iteration;
  row.failure = static_cast<uint8_t>(obs.failure);
  row.flags = static_cast<uint8_t>((obs.feasible ? kFeasible : 0) |
                                   (obs.degraded ? kDegraded : 0));
  rows_.push_back(row);
}

void RunHistory::Clear() {
  configs_.clear();
  offsets_.clear();
  rows_.clear();
  config_index_.clear();
}

Configuration RunHistory::config(size_t i) const {
  return Configuration(std::vector<double>(
      config_data(i), config_data(i) + config_size(i)));
}

Observation RunHistory::at(size_t i) const {
  const Row& row = rows_[i];
  Observation obs;
  obs.config = config(i);
  obs.objective = row.objective;
  obs.runtime_sec = row.runtime_sec;
  obs.resource_rate = row.resource_rate;
  obs.data_size_gb = row.data_size_gb;
  obs.hours = row.hours;
  obs.memory_gb_hours = row.memory_gb_hours;
  obs.cpu_core_hours = row.cpu_core_hours;
  obs.iteration = row.iteration;
  obs.failure = static_cast<FailureKind>(row.failure);
  obs.feasible = (row.flags & kFeasible) != 0;
  obs.degraded = (row.flags & kDegraded) != 0;
  return obs;
}

std::vector<Observation> RunHistory::observations() const {
  std::vector<Observation> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) out.push_back(at(i));
  return out;
}

int RunHistory::BestFeasibleIndex() const {
  int best = -1;
  double best_obj = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (failed(i) || !feasible(i)) continue;
    if (rows_[i].objective < best_obj) {
      best_obj = rows_[i].objective;
      best = static_cast<int>(i);
    }
  }
  return best;
}

std::optional<Observation> RunHistory::BestFeasible() const {
  int i = BestFeasibleIndex();
  if (i < 0) return std::nullopt;
  return at(static_cast<size_t>(i));
}

double RunHistory::BestObjective() const {
  int i = BestFeasibleIndex();
  return i < 0 ? std::numeric_limits<double>::infinity()
               : rows_[static_cast<size_t>(i)].objective;
}

uint64_t RunHistory::ConfigKey(const Configuration& config) {
  // One multiply-xorshift round per value, a whole 64-bit word at a time.
  // Each round is a bijection of the running state for a fixed value and
  // injective in the value for a fixed state, so two configurations that
  // differ in a single coordinate never share a key.
  uint64_t h = 0x9E3779B97F4A7C15ULL ^ config.size();
  for (double v : config.values()) {
    if (v == 0.0) v = 0.0;  // -0.0 == 0.0 must hash identically
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    h = (h ^ bits) * 0xFF51AFD7ED558CCDULL;
    h ^= h >> 32;
  }
  return h;
}

bool RunHistory::ConfigEquals(size_t i, const Configuration& config) const {
  if (config_size(i) != config.size()) return false;
  const double* stored = config_data(i);
  for (size_t k = 0; k < config.size(); ++k) {
    if (!(stored[k] == config[k])) return false;
  }
  return true;
}

bool RunHistory::Contains(const Configuration& config) const {
  auto it = config_index_.find(ConfigKey(config));
  if (it == config_index_.end()) return false;
  for (uint32_t idx : it->second) {
    if (ConfigEquals(idx, config)) return true;
  }
  return false;
}

size_t RunHistory::IndexEntries(const Configuration& config) const {
  auto it = config_index_.find(ConfigKey(config));
  return it == config_index_.end() ? 0 : it->second.size();
}

size_t RunHistory::HeapBytes() const {
  size_t bytes = configs_.capacity() * sizeof(double) +
                 offsets_.capacity() * sizeof(uint64_t) +
                 rows_.capacity() * sizeof(Row);
  bytes += config_index_.bucket_count() * sizeof(void*);
  for (const auto& [key, bucket] : config_index_) {
    (void)key;
    bytes += sizeof(std::pair<uint64_t, std::vector<uint32_t>>) +
             bucket.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

SubspaceHistory::SubspaceHistory(const RunHistory* history,
                                 const Subspace& subspace)
    : free_(subspace.free_indices().begin(), subspace.free_indices().end()) {
  if (history == nullptr) return;
  const Configuration& base = subspace.base();
  std::vector<size_t> pinned;
  for (size_t p = 0; p < base.size(); ++p) {
    if (!subspace.IsFree(static_cast<int>(p))) pinned.push_back(p);
  }
  for (size_t i = 0; i < history->size(); ++i) {
    if (history->config_size(i) != base.size()) continue;
    const double* row = history->config_data(i);
    if (!std::all_of(pinned.begin(), pinned.end(),
                     [&](size_t p) { return row[p] == base[p]; })) {
      continue;
    }
    for (size_t f : free_) rows_.push_back(row[f]);
    ++num_rows_;
  }
}

bool SubspaceHistory::Contains(const Configuration& c) const {
  const size_t k = free_.size();
  for (size_t r = 0; r < num_rows_; ++r) {
    const double* row = rows_.data() + r * k;
    size_t j = 0;
    while (j < k && row[j] == c[free_[j]]) ++j;
    if (j == k) return true;
  }
  return false;
}

}  // namespace sparktune
