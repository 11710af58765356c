// Fixed worker pool with a blocking ParallelFor(n, fn) helper — the
// parallel substrate of the tuning service's multi-task batches
// (TuningService::ExecutePeriodicAll is the one caller in the library).
//
// Determinism contract (see DESIGN.md "Threading model"):
//   * fn(i) must depend only on `i` and on state it owns (per-item output
//     slot, per-item forked Rng). Scheduling order is unspecified, so any
//     cross-item accumulation must happen in a serial pass afterwards.
//   * num_threads == 1 runs inline on the caller — byte-for-byte the serial
//     code path, with no pool interaction at all.
//   * Nested ParallelFor calls (from inside a worker, or from the calling
//     thread's own chunk of an outer ParallelFor) run inline, so a batch
//     item that reaches another ParallelFor never deadlocks and never
//     oversubscribes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace sparktune {

class ThreadPool {
 public:
  // A pool of `num_threads - 1` workers; the caller of ParallelFor is the
  // remaining participant. num_threads <= 1 means no workers (inline).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Worker count + 1 (the caller participates in every ParallelFor).
  int num_threads() const;

  // Runs fn(i) for every i in [0, n); blocks until all items finished.
  // At most `max_threads` threads participate when max_threads > 0; the
  // worker set grows on demand up to kMaxThreads - 1.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   int max_threads = 0);

  // Process-wide pool, created lazily at DefaultThreads() width. Never
  // destroyed (leaked on purpose: workers must outlive static teardown).
  static ThreadPool* Global();

  // SPARKTUNE_THREADS env var when set (> 0), else hardware concurrency.
  static int DefaultThreads();

  // True on a pool worker thread (nested ParallelFor then runs inline).
  static bool InWorker();

  static constexpr int kMaxThreads = 64;

 private:
  // One ParallelFor invocation: items are claimed in chunks off an atomic
  // cursor by up to `width` participants (caller included).
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t n = 0;
    int width = 1;
    std::atomic<size_t> next{0};
    std::atomic<int> entered{0};
  };

  void WorkerLoop(uint64_t start_generation);
  void EnsureWorkers(int target_workers);
  static void RunChunks(Job* job);

  // Serializes concurrent ParallelFor callers (one job in flight).
  std::mutex caller_mu_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  // lint:allow(no-raw-thread) the pool itself — the one sanctioned owner of raw threads
  std::vector<std::thread> workers_;
  // lint:guarded-by(mu_) bumped per job; workers run each job once
  uint64_t generation_ = 0;
  Job* job_ = nullptr;  // lint:guarded-by(mu_)
  // lint:guarded-by(mu_) workers done with the current generation
  size_t workers_arrived_ = 0;
  bool stop_ = false;  // lint:guarded-by(mu_)
};

// Options-level dispatch behind TuningServiceOptions::num_threads:
//   1 (default) -> inline serial loop on the caller (bit-identical baseline)
//   0           -> global pool at its default width
//   k > 1       -> global pool, at most k threads
// Also runs inline for n <= 1 and inside pool workers.
void ParallelFor(int num_threads, size_t n,
                 const std::function<void(size_t)>& fn);

// Fork `n` child RNG streams from `base`, one Fork() per stream in index
// order. The streams are forked before any is consumed, so how far one item
// draws never shifts another item's stream.
std::vector<Rng> ForkRngs(Rng* base, size_t n);

}  // namespace sparktune
