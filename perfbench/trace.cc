#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

Clock::time_point Now() {
  // lint:allow(no-wall-clock) benchmark timing only; never feeds a tuner
  return Clock::now();
}

double ElapsedUs(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(Now()), owner_(std::this_thread::get_id()) {}

double Tracer::NowUs() const { return ElapsedUs(origin_, Now()); }

int Tracer::Begin(const char* name, bool leaf) {
  if (!enabled_) return -1;
  const bool owner = std::this_thread::get_id() == owner_;
  Span span;
  span.name = name;
  span.parent = owner ? (owner_stack_.empty() ? -1 : owner_stack_.back())
                      : ambient_.load();
  span.tick = tick_.load();
  span.start_us = NowUs();
  span.end_us = span.start_us;
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    span.id = id;
    spans_.push_back(span);
  }
  if (owner && !leaf) {
    owner_stack_.push_back(id);
    ambient_.store(id);
  }
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  const double end = NowUs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_us = end;
  }
  if (std::this_thread::get_id() == owner_ && !owner_stack_.empty() &&
      owner_stack_.back() == id) {
    owner_stack_.pop_back();
    ambient_.store(owner_stack_.empty() ? -1 : owner_stack_.back());
  }
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path, std::ios::trunc);
  out << "{\"spans\":[";
  char buf[256];
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                  "\"id\":%d,\"parent\":%d,\"tick\":%lld}",
                  i == 0 ? "" : ",", s.name, s.start_us, s.end_us, s.id,
                  s.parent, s.tick);
    out << buf;
  }
  out << "]}\n";
  return out.good();
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_us,
                                                           s.end_us);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_us;
    const double hi = spans[i].end_us;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Merge the children's intervals, clipped to the parent's.
    double covered = 0.0;
    double run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (const auto& [a0, b0] : kids) {
      const double a = std::max(a0, lo);
      const double b = std::min(b0, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

std::map<std::string, double> SelfTimeByLayerUs(
    const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimesUs(spans);
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    std::string name = spans[i].name;
    by_layer[name.substr(0, name.find('.'))] += self[i];
  }
  return by_layer;
}

}  // namespace perfbench
