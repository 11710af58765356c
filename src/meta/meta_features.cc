#include "meta/meta_features.h"

#include <cassert>
#include <cmath>

namespace sparktune {

namespace {

bool IsMapLike(StageOp op) {
  return op == StageOp::kMap || op == StageOp::kSample;
}

bool IsActionLike(StageOp op) {
  return op == StageOp::kCollect || op == StageOp::kSink;
}

// Weighted combination of per-stage TaskMetricSummary values into job-level
// statistics. Weights are stage task counts.
struct CombinedMetric {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double skewness = 0.0;
  double total = 0.0;
};

CombinedMetric Combine(const EventLog& log,
                       const TaskMetricSummary StageLog::*member) {
  CombinedMetric out;
  double weight_sum = 0.0;
  bool first = true;
  for (const auto& s : log.stages) {
    const TaskMetricSummary& m = s.*member;
    double w = static_cast<double>(s.num_tasks) * s.iterations;
    if (w <= 0.0) continue;
    out.mean += w * m.mean;
    out.stddev += w * m.stddev;
    out.p50 += w * m.p50;
    out.p90 += w * m.p90;
    out.skewness += w * m.skewness;
    out.total += m.total * s.iterations;
    if (first) {
      out.min = m.min;
      out.max = m.max;
      first = false;
    } else {
      out.min = std::min(out.min, m.min);
      out.max = std::max(out.max, m.max);
    }
    weight_sum += w;
  }
  if (weight_sum > 0.0) {
    out.mean /= weight_sum;
    out.stddev /= weight_sum;
    out.p50 /= weight_sum;
    out.p90 /= weight_sum;
    out.skewness /= weight_sum;
  }
  return out;
}

void AppendMetric(const CombinedMetric& m, bool log_scale,
                  std::vector<double>* out) {
  auto tf = [log_scale](double v) {
    return log_scale ? std::log1p(std::max(0.0, v)) : v;
  };
  out->push_back(tf(m.mean));
  out->push_back(tf(m.stddev));
  out->push_back(tf(m.min));
  out->push_back(tf(m.max));
  out->push_back(tf(m.p50));
  out->push_back(tf(m.p90));
  out->push_back(m.skewness);  // already scale-free
  out->push_back(tf(m.total));
}

}  // namespace

std::vector<double> ExtractMetaFeatures(const EventLog& log) {
  std::vector<double> f;
  f.reserve(kNumMetaFeatures);

  // ---- Stage-level (11) ----
  double n = static_cast<double>(log.stages.size());
  int map_like = 0, shuffle = 0, join = 0, sort = 0, iterative = 0;
  int cached = 0, actions = 0;
  double total_iters = 0.0;
  for (const auto& s : log.stages) {
    if (IsMapLike(s.op)) ++map_like;
    if (IsShuffleOp(s.op)) ++shuffle;
    if (s.op == StageOp::kJoin || s.op == StageOp::kBroadcastJoin) ++join;
    if (s.op == StageOp::kSortByKey) ++sort;
    if (s.op == StageOp::kIterUpdate) ++iterative;
    if (s.cached) ++cached;
    if (IsActionLike(s.op)) ++actions;
    total_iters += s.iterations;
  }
  double inv_n = n > 0.0 ? 1.0 / n : 0.0;
  f.push_back(std::log1p(n));                       // 0 num stages
  f.push_back(map_like * inv_n);                    // 1 map-like fraction
  f.push_back(shuffle * inv_n);                     // 2 shuffle fraction
  f.push_back(join * inv_n);                        // 3 join fraction
  f.push_back(sort * inv_n);                        // 4 sort fraction
  f.push_back(iterative * inv_n);                   // 5 iterative fraction
  f.push_back(cached * inv_n);                      // 6 cached fraction
  f.push_back(actions * inv_n);                     // 7 action fraction
  f.push_back(std::log1p(total_iters));             // 8 total iterations
  f.push_back(log.is_sql ? 1.0 : 0.0);              // 9 SQL flag
  f.push_back(std::log1p(log.data_size_gb));        // 10 input scale

  // ---- Task-level (8 metrics x 8 stats = 64) ----
  AppendMetric(Combine(log, &StageLog::task_duration_sec), true, &f);
  AppendMetric(Combine(log, &StageLog::task_gc_sec), true, &f);
  AppendMetric(Combine(log, &StageLog::task_shuffle_read_mb), true, &f);
  AppendMetric(Combine(log, &StageLog::task_shuffle_write_mb), true, &f);
  AppendMetric(Combine(log, &StageLog::task_spill_mb), true, &f);
  AppendMetric(Combine(log, &StageLog::task_cpu_fraction), false, &f);
  AppendMetric(Combine(log, &StageLog::task_io_fraction), false, &f);
  AppendMetric(Combine(log, &StageLog::task_input_mb), true, &f);

  assert(static_cast<int>(f.size()) == kNumMetaFeatures);
  return f;
}

}  // namespace sparktune
