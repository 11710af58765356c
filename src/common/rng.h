// Deterministic random number generation (xoshiro256++) with the
// distributions the tuner and simulator need. All randomness in the library
// flows through Rng so experiments are reproducible from a single seed.
#pragma once

#include <cstdint>
#include <vector>

namespace sparktune {

// Complete serialized generator state; two Rng instances restored from the
// same RngState produce identical output streams. Used by the checkpoint
// layer so a restarted service resumes the exact suggestion trajectory.
struct RngState {
  uint64_t state[4] = {0, 0, 0, 0};
  bool has_cached_normal = false;
  double cached_normal = 0.0;
};

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Raw 64-bit output of xoshiro256++.
  uint64_t Next();

  // Uniform double in [0, 1).
  double Uniform();
  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);
  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);
  // Standard normal via Box-Muller (cached pair).
  double Normal();
  double Normal(double mean, double stddev);
  // exp(Normal(mu, sigma)); multiplicative noise in the simulator.
  double LogNormal(double mu, double sigma);
  // Bernoulli(p).
  bool Bernoulli(double p);

  // Sample `k` distinct indices from [0, n); k <= n.
  std::vector<int> SampleWithoutReplacement(int n, int k);
  // Fisher-Yates shuffle of indices [0, n).
  std::vector<int> Permutation(int n);

  // Derive an independent child stream (splitmix over the state).
  Rng Fork();

  // Snapshot / restore the full generator state (incl. the Box-Muller cache).
  RngState SaveState() const;
  void RestoreState(const RngState& s);

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace sparktune
