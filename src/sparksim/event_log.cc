#include "sparksim/event_log.h"

#include <algorithm>
#include <cmath>

namespace sparktune {

int EventLog::TotalTasks() const {
  int n = 0;
  for (const auto& s : stages) n += s.num_tasks * s.iterations;
  return n;
}

double EventLog::TotalShuffleMb() const {
  double mb = 0.0;
  for (const auto& s : stages) mb += s.shuffle_read_mb + s.shuffle_write_mb;
  return mb;
}

double EventLog::TotalSpillMb() const {
  double mb = 0.0;
  for (const auto& s : stages) mb += s.spill_mb;
  return mb;
}

bool EventLogLooksSane(const EventLog& log) {
  if (log.stages.empty()) return false;
  if (!std::isfinite(log.data_size_gb) || log.data_size_gb < 0.0) {
    return false;
  }
  const auto bad = [](double v) { return !std::isfinite(v) || v < 0.0; };
  for (const auto& s : log.stages) {
    if (s.num_tasks < 0 || s.iterations < 1) return false;
    if (bad(s.duration_sec) || bad(s.input_mb) || bad(s.output_mb) ||
        bad(s.shuffle_read_mb) || bad(s.shuffle_write_mb) ||
        bad(s.spill_mb)) {
      return false;
    }
  }
  return true;
}

TaskMetricSummary Summarize(const std::vector<double>& samples) {
  TaskMetricSummary s;
  if (samples.empty()) return s;
  // One sum, one mean, one standard deviation and one sorted copy serve
  // every field; each is the very value its own helper computes.
  s.total = Sum(samples);
  s.mean = s.total / static_cast<double>(samples.size());
  s.stddev = std::sqrt(Variance(samples, s.mean));
  s.min = Min(samples);
  s.max = Max(samples);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  s.p50 = SortedQuantile(sorted, 0.5);
  s.p90 = SortedQuantile(sorted, 0.9);
  s.skewness = Skewness(samples, s.mean, s.stddev);
  return s;
}

}  // namespace sparktune
