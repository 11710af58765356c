// Generic black-box optimization with the same engine that tunes Spark —
// the paper's planned extension to "more data analytics systems". Here the
// black box is a synthetic database-style knob-tuning problem: three knobs
// control a latency surface with interactions and a crash region, a
// white-box cost models the provisioned buffer memory, and a safety bound
// keeps online evaluations from catastrophic latencies.
#include <cmath>
#include <cstdio>
#include <limits>

#include "bo/optimizer.h"
#include "common/strings.h"
#include "common/table.h"

using namespace sparktune;

namespace {

// Latency (ms) of a fictional storage engine as a function of its knobs.
// Interactions: the best thread count depends on the buffer size; tiny
// buffers with compaction style 1 "crash" (return infinity).
double LatencyMs(const ConfigSpace& space, const Configuration& c) {
  double buffer_gb = space.Get(c, "buffer_gb");
  double threads = space.Get(c, "threads");
  double style = space.Get(c, "compaction_style");  // 0=level, 1=universal
  if (style == 1.0 && buffer_gb < 1.0) {
    return std::numeric_limits<double>::infinity();  // OOM during compaction
  }
  double best_threads = 4.0 + 2.0 * buffer_gb;
  double latency = 8.0 + 40.0 / buffer_gb +
                   0.8 * std::pow(threads - best_threads, 2) /
                       (1.0 + buffer_gb);
  if (style == 1.0) latency *= 0.85;  // universal compaction reads faster
  return latency;
}

}  // namespace

int main() {
  ConfigSpace space;
  (void)space.Add(Parameter::Float("buffer_gb", 0.25, 16.0, 1.0,
                                   /*log_scale=*/true));
  (void)space.Add(Parameter::Int("threads", 1, 32, 8));
  (void)space.Add(Parameter::Categorical("compaction_style",
                                         {"level", "universal"}, 0));

  constexpr int kBudget = 30;
  OptimizerOptions opts;
  opts.safety_bound = 120.0;  // never tolerate >120 ms while tuning live
  opts.beta = 0.5;            // trade latency against memory cost
  opts.resource_fn = [&space](const Configuration& c) {
    return 1.0 + space.Get(c, "buffer_gb");  // provisioned memory
  };
  opts.resource_bound = 10.0;  // at most ~9 GB of buffer
  opts.seed = 13;

  Optimizer optimizer(&space, opts);
  TablePrinter table({"iter", "buffer_gb", "threads", "style",
                      "latency(ms)", "status"});
  for (int i = 0; i < kBudget; ++i) {
    Configuration c = optimizer.Suggest();
    double latency = LatencyMs(space, c);
    optimizer.Observe(c, latency);
    table.AddRow({StrFormat("%d", i),
                  PrettyDouble(space.Get(c, "buffer_gb"), 2),
                  StrFormat("%.0f", space.Get(c, "threads")),
                  space.param(2).FormatValue(c[2]),
                  std::isfinite(latency) ? StrFormat("%.1f", latency)
                                         : "CRASH",
                  !std::isfinite(latency)    ? "failed"
                  : latency > opts.safety_bound ? "VIOLATION"
                                                 : "ok"});
  }
  std::printf("%s", table.ToString().c_str());
  std::optional<Observation> best = optimizer.history().BestFeasible();
  if (best.has_value()) {
    std::printf("\nBest: %s -> %.1f ms at memory cost %.1f "
                "(objective %.2f)\n",
                space.Format(best->config).c_str(), best->runtime_sec,
                best->resource_rate, best->objective);
  }
  return 0;
}
