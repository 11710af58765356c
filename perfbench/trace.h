// Span recorder for the traced benchmark run. The benchmark opens a span
// around each of its own calls into a sparktune layer (a tick, a harvest
// pass, one simulated job run, one replayed GP fit...). Spans are kept in
// memory and written out when the run ends; self time per layer is
// computed from the finished span tree.
//
// A span's parent is the innermost span still open on the recording
// thread. Spans opened on any other thread (the service's worker pool
// running simulated jobs inside a tick) are leaves whose parent is the
// recording thread's innermost open span at the time they start, so the
// simulated runs of one tick hang off that tick's span even though they
// run in parallel. A span opened as a leaf on the recording thread itself
// (the pool's caller runs jobs too) never becomes anyone's parent.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  // "<layer>.<call>", a string literal
  double start_us = 0.0;  // since the recorder was created
  double end_us = 0.0;
  int id = 0;
  int parent = -1;  // -1 = root
  long long tick = -1;  // tick the span belongs to; -1 = outside ticks
};

class Tracer {
 public:
  // A disabled tracer records nothing and costs one branch per span.
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  // Opens a span and returns its id (-1 when disabled). A leaf span is
  // never made the parent of a later span.
  int Begin(const char* name, bool leaf = false);
  void End(int id);

  // Tick id stamped on every span opened from now on (-1 = none).
  void SetTick(long long tick) { tick_.store(tick); }

  // Finished and open spans in the order they were opened.
  std::vector<Span> spans() const;

  // {"spans":[{"name","start_us","end_us","id","parent","tick"}...]}.
  bool WriteJson(const std::string& path) const;

 private:
  double NowUs() const;

  const bool enabled_;
  const Clock::time_point origin_;
  const std::thread::id owner_;
  std::atomic<long long> tick_{-1};
  // Innermost open span of the owner thread, read by other threads.
  std::atomic<int> ambient_{-1};
  std::vector<int> owner_stack_;  // touched by the owner thread only
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // lint:guarded-by(mu_)
};

// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, bool leaf = false)
      : tracer_(tracer), id_(tracer->Begin(name, leaf)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// Self time of each span: its duration minus the part of its interval that
// its children cover. Overlapping children (parallel work inside one
// span) are merged first, so covered time is subtracted once. Indexed
// like `spans`; a span whose id is not its index is a caller bug.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

// Sum of self times per layer, where the layer is the span name up to its
// first '.'.
std::map<std::string, double> SelfTimeByLayerUs(const std::vector<Span>& spans);

// Wall-clock microseconds between two time points.
double ElapsedUs(Clock::time_point start, Clock::time_point end);

// Current time on the benchmark's clock.
Clock::time_point Now();

}  // namespace perfbench
