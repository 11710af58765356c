// Rendezvous (highest-random-weight) task placement: ProcessSupervisor's
// static home shard for every task (DESIGN.md §7, §9).
//
// Hashing is self-contained (FNV-1a + splitmix64 finalizer): shard
// assignment must be identical across platforms and standard libraries,
// and std::hash makes no such promise.
#pragma once

#include <cstdint>
#include <string>

namespace sparktune::placement {

inline uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// The task's score for shard `s`; the winner is the shard with the
// highest score. Each task ranks every shard independently, so adding or
// removing a shard moves only the tasks that shard wins or loses.
inline uint64_t RendezvousScore(uint64_t task_hash, int s) {
  return Mix64(task_hash ^ Mix64(static_cast<uint64_t>(s) + 1));
}

// Winner among shards [0, n); -1 if n < 1.
inline int Rendezvous(const std::string& id, int n) {
  const uint64_t task_hash = Fnv1a(id);
  int best = -1;
  uint64_t best_score = 0;
  for (int s = 0; s < n; ++s) {
    const uint64_t score = RendezvousScore(task_hash, s);
    if (best < 0 || score > best_score) {
      best = s;
      best_score = score;
    }
  }
  return best;
}

}  // namespace sparktune::placement
