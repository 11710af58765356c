#include "metrics.h"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr Tier kE2E = Tier::kEndToEnd;
constexpr Tier kLayer = Tier::kPerLayer;

}  // namespace

const std::vector<MetricDef>& Catalogue() {
  static const std::vector<MetricDef> kMetrics = {
      // End to end: what an operator of the service sees.
      {"setup_s", "s", "lower", kE2E},
      {"task_periods_per_s", "1/s", "higher", kE2E},
      {"tick_p50_ms", "ms", "lower", kE2E},
      {"tick_p90_ms", "ms", "lower", kE2E},
      {"peak_rss_mb", "MB", "lower", kE2E},
      {"safe_ratio", "ratio", "higher", kE2E},
      // Per layer, named <module>.<metric>.
      {"sparksim.run_us", "us", "lower", kLayer},
      {"sparksim.runs", "count", "higher", kLayer},
      {"meta.extract_us", "us", "lower", kLayer},
      {"bo.suggest_ms", "ms", "lower", kLayer},
      {"bo.acq_optimize_ms", "ms", "lower", kLayer},
      {"bo.agd_step_ms", "ms", "lower", kLayer},
      {"bo.safe_candidate_ratio", "ratio", "higher", kLayer},
      {"bo.cost_reduction_it9", "ratio", "higher", kLayer},
      {"model.gp_fit_ms", "ms", "lower", kLayer},
      {"model.gp_predict_batch_us", "us", "lower", kLayer},
      {"linalg.cholesky_factor_us", "us", "lower", kLayer},
      {"fanova.importance_ms", "ms", "lower", kLayer},
      {"forest.rf_fit_ms", "ms", "lower", kLayer},
      {"forest.gbdt_fit_s", "s", "lower", kLayer},
      {"meta.kb_add_ms", "ms", "lower", kLayer},
      {"meta.similarity_train_s", "s", "lower", kLayer},
      {"meta.similarity_pairs", "count", "higher", kLayer},
      {"meta.distances_us", "us", "lower", kLayer},
      {"meta.ensemble_predict_us", "us", "lower", kLayer},
      {"service.harvest_s", "s", "lower", kLayer},
      {"service.harvest_yield", "ratio", "higher", kLayer},
      {"service.checkpoint_write_ms", "ms", "lower", kLayer},
      {"service.checkpoint_bytes", "bytes", "lower", kLayer},
      {"service.checkpoint_written_ratio", "ratio", "lower", kLayer},
      {"service.restore_task_ms", "ms", "lower", kLayer},
      {"service.load_repository_ms", "ms", "lower", kLayer},
      {"service.replayed_periods", "count", "lower", kLayer},
      {"service.parked_slots", "count", "lower", kLayer},
      {"service.recovery_ms", "ms", "lower", kLayer},
      {"service.recover_ms", "ms", "lower", kLayer},
      {"service.wire_encode_us", "us", "lower", kLayer},
      {"service.wire_decode_us", "us", "lower", kLayer},
      {"service.wire_bytes_per_tick", "bytes", "lower", kLayer},
      {"net.frame_encode_crc_us", "us", "lower", kLayer},
      {"net.ping_rtt_us", "us", "lower", kLayer},
      // Self time per layer in one traced episode, from the span tree.
      {"service.self_ms", "ms", "lower", kLayer},
      {"sparksim.self_ms", "ms", "lower", kLayer},
      {"meta.self_ms", "ms", "lower", kLayer},
      {"bo.self_ms", "ms", "lower", kLayer},
      {"model.self_ms", "ms", "lower", kLayer},
      {"linalg.self_ms", "ms", "lower", kLayer},
      {"fanova.self_ms", "ms", "lower", kLayer},
      {"forest.self_ms", "ms", "lower", kLayer},
      {"net.self_ms", "ms", "lower", kLayer},
      {"trace.overhead_pct", "%", "lower", kLayer},
      {"trace.spans", "count", "higher", kLayer},
  };
  return kMetrics;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::vector<std::string> Report::Problems(Tier tier) const {
  std::vector<std::string> problems;
  for (const MetricDef& m : Catalogue()) {
    if (m.tier == tier && values_.count(m.name) == 0) {
      problems.push_back(std::string("missing ") + m.name);
    }
  }
  for (const auto& [name, value] : values_) {
    bool known = false;
    for (const MetricDef& m : Catalogue()) known |= name == m.name;
    if (!known) problems.push_back("unknown " + name);
    if (!std::isfinite(value)) problems.push_back("non-finite " + name);
  }
  return problems;
}

std::string Report::ResultLine(Tier tier, bool correct, long long attempted,
                               long long failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[96];
  for (const MetricDef& m : Catalogue()) {
    if (m.tier != tier) continue;
    std::snprintf(buf, sizeof(buf), "%.17g", Get(m.name));
    out += first ? "" : ", ";
    out += "\"" + std::string(m.name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
