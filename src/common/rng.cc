#include "common/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace sparktune {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53-bit mantissa in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t v;
  do {
    v = Next();
  } while (v >= limit);
  return lo + static_cast<int64_t>(v % range);
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1, u2;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  u2 = Uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  assert(k <= n);
  std::vector<int> idx = Permutation(n);
  idx.resize(k);
  return idx;
}

std::vector<int> Rng::Permutation(int n) {
  std::vector<int> idx(n);
  for (int i = 0; i < n; ++i) idx[i] = i;
  for (int i = n - 1; i > 0; --i) {
    int j = static_cast<int>(UniformInt(0, i));
    std::swap(idx[i], idx[j]);
  }
  return idx;
}

Rng Rng::Fork() { return Rng(Next() ^ 0xA0761D6478BD642FULL); }

RngState Rng::SaveState() const {
  RngState s;
  for (int i = 0; i < 4; ++i) s.state[i] = state_[i];
  s.has_cached_normal = has_cached_normal_;
  s.cached_normal = cached_normal_;
  return s;
}

void Rng::RestoreState(const RngState& s) {
  for (int i = 0; i < 4; ++i) state_[i] = s.state[i];
  has_cached_normal_ = s.has_cached_normal;
  cached_normal_ = s.cached_normal;
}

}  // namespace sparktune
