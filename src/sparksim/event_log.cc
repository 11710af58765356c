#include "sparksim/event_log.h"

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
  s.mean = Mean(samples);
  s.stddev = Stddev(samples);
  s.min = Min(samples);
  s.max = Max(samples);
  s.p50 = Quantile(samples, 0.5);
  s.p90 = Quantile(samples, 0.9);
  s.skewness = Skewness(samples);
  s.total = Sum(samples);
  return s;
}

}  // namespace sparktune
