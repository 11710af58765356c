// The benchmark's metric catalogue and its result line. BENCHMARK.json at
// the repository root lists the same metrics with the same units; the
// benchmark's tests check that the two agree.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Tier { kEndToEnd, kPerLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"
  Tier tier;
};

// Every metric the benchmark reports, end-to-end metrics first.
const std::vector<MetricDef>& Catalogue();

// Letters, digits, '_', '.' and '-' only; starts with a letter or digit;
// at most 64 characters.
bool ValidMetricName(std::string_view name);

// Collects metric values for one run and renders the final result line.
class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const;

  // Names of `tier` metrics that were never Set, plus any Set name the
  // catalogue does not know.
  std::vector<std::string> Problems(Tier tier) const;

  // {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  // over the catalogue metrics of `tier`, in catalogue order.
  std::string ResultLine(Tier tier, bool correct, long long attempted,
                         long long failed) const;

 private:
  std::map<std::string, double> values_;
};

}  // namespace perfbench
