// Run history: the observations a tuning task accumulates, one per online
// job execution.
//
// Storage is an SoA/arena layout (DESIGN.md §8 "Memory layout & fleet
// scale"): configuration coordinates live in one contiguous per-history
// slab and the scalar fields in a packed POD row, so a fleet of a million
// task histories costs two heap blocks each instead of one allocation per
// observation. `Observation` remains the interchange type at the API
// boundary — Add() decomposes it, at()/observations() materialize it back.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/failure.h"
#include "space/config_space.h"
#include "space/subspace.h"

namespace sparktune {

struct Observation {
  Configuration config;
  double objective = 0.0;      // f(x) per the tuning objective
  double runtime_sec = 0.0;    // T(x)
  double resource_rate = 0.0;  // R(x)
  double data_size_gb = -1.0;  // <0 if unobservable
  // Hours since the tuning task started, at execution time; feeds the
  // time-of-day/day-of-week context when data size is hidden (<0 = unknown).
  double hours = -1.0;
  double memory_gb_hours = 0.0;
  double cpu_core_hours = 0.0;
  bool feasible = true;        // all constraints satisfied
  // Typed failure taxonomy (common/failure.h). Config-induced failures
  // (kOom/kTimeout) are the advisor's unsafe-config labels; kInfra never
  // reaches the advisor — the service watchdog retries it instead.
  FailureKind failure = FailureKind::kNone;
  // Produced by the watchdog's degraded mode (parked task re-running its
  // incumbent), not by an advisor suggestion.
  bool degraded = false;
  int iteration = 0;

  // Execution failed outright (any kind).
  bool failed() const { return IsFailure(failure); }
  // Failure attributable to the configuration (safety-label eligible).
  bool config_failed() const { return IsConfigFailure(failure); }
};

class RunHistory {
 public:
  void Add(const Observation& obs);
  void Clear();

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  // ---- Indexed column accessors (zero-copy; the hot-path API) ----
  double objective(size_t i) const { return rows_[i].objective; }
  double runtime_sec(size_t i) const { return rows_[i].runtime_sec; }
  double resource_rate(size_t i) const { return rows_[i].resource_rate; }
  double data_size_gb(size_t i) const { return rows_[i].data_size_gb; }
  double hours(size_t i) const { return rows_[i].hours; }
  double memory_gb_hours(size_t i) const { return rows_[i].memory_gb_hours; }
  double cpu_core_hours(size_t i) const { return rows_[i].cpu_core_hours; }
  int iteration(size_t i) const { return rows_[i].iteration; }
  bool feasible(size_t i) const { return (rows_[i].flags & kFeasible) != 0; }
  bool degraded(size_t i) const { return (rows_[i].flags & kDegraded) != 0; }
  FailureKind failure(size_t i) const {
    return static_cast<FailureKind>(rows_[i].failure);
  }
  bool failed(size_t i) const { return IsFailure(failure(i)); }
  bool config_failed(size_t i) const {
    return IsConfigFailure(failure(i));
  }
  // Configuration coordinates of observation `i`, in place in the arena.
  const double* config_data(size_t i) const {
    return configs_.data() + offsets_[i];
  }
  size_t config_size(size_t i) const {
    return offsets_[i + 1] - offsets_[i];
  }
  // Materializes a Configuration (heap-allocating); prefer config_data()
  // in loops that only read coordinates.
  Configuration config(size_t i) const;

  // ---- Materializing accessors (the compatibility API) ----
  // All return by value: there is no stored Observation to reference.
  Observation at(size_t i) const;
  Observation back() const { return at(size() - 1); }
  // Snapshot of the whole history as interchange structs. Cold-path only
  // (serialization, checkpointing, report printing).
  std::vector<Observation> observations() const;

  // Index of the best feasible non-failed observation; -1 if none.
  int BestFeasibleIndex() const;
  std::optional<Observation> BestFeasible() const;
  // Incumbent objective value (+inf when no feasible observation).
  double BestObjective() const;

  // True if `config` was already evaluated (exact value match). O(1): a
  // hash bucket lookup plus exact comparison of the (rare) bucket entries.
  // AcquisitionOptimizer::Maximize checks its candidates through
  // SubspaceHistory instead, with the same verdicts.
  bool Contains(const Configuration& config) const;

  // Distinct index entries stored for `config`'s hash bucket (diagnostics:
  // repeated Adds of one config must keep this at 1, not grow per
  // duplicate observation).
  // lint:allow(test-only-function) history_test reads the real index size
  size_t IndexEntries(const Configuration& config) const;

  // Heap bytes held by the arenas and the config index (diagnostics for
  // fleet-scale memory accounting).
  size_t HeapBytes() const;

 private:
  // Packed scalar plane of one observation; the config coordinates live in
  // the shared arena. Keep this POD and pointer-free.
  struct Row {
    double objective;
    double runtime_sec;
    double resource_rate;
    double data_size_gb;
    double hours;
    double memory_gb_hours;
    double cpu_core_hours;
    int32_t iteration;
    uint8_t failure;  // FailureKind
    uint8_t flags;    // kFeasible | kDegraded
  };
  static constexpr uint8_t kFeasible = 1;
  static constexpr uint8_t kDegraded = 2;

  // Hash of the configuration values' bit patterns, mixed one 64-bit word
  // per value (-0.0 canonicalized to +0.0 so hashing agrees with
  // operator==). Collisions are resolved by exact comparison, so semantics
  // match the old linear scan.
  static uint64_t ConfigKey(const Configuration& config);
  // Exact element-wise comparison of stored config `i` against `config`
  // (same semantics as Configuration::operator==: NaN never matches,
  // -0.0 == 0.0).
  bool ConfigEquals(size_t i, const Configuration& config) const;

  std::vector<double> configs_;     // coordinate arena, rows back to back
  std::vector<uint64_t> offsets_;   // size()+1 entries; row i spans
                                    // [offsets_[i], offsets_[i+1])
  std::vector<Row> rows_;
  // Only iterated to sum per-bucket heap bytes (HeapBytes), an
  // order-independent integer reduction; lookups never see hash order.
  // lint:allow(unordered-member-iter) HeapBytes is an order-independent sum
  std::unordered_map<uint64_t, std::vector<uint32_t>> config_index_;
};

// The duplicate check for the candidates of one sub-space, each the base
// with its free coordinates overwritten. Such a candidate can only equal a
// history row that holds the base's value in every pinned coordinate, so
// those rows are collected once and a candidate is compared with them in
// its free coordinates only, stopping at the first mismatch. For such a
// candidate, Contains(c) equals RunHistory::Contains(c): elementwise ==,
// so -0.0 equals 0.0, NaN never matches and a row of another length never
// matches.
class SubspaceHistory {
 public:
  // A null history holds no row.
  SubspaceHistory(const RunHistory* history, const Subspace& subspace);

  bool Contains(const Configuration& c) const;

 private:
  std::vector<size_t> free_;
  // The free coordinates of the rows sharing the base, free_.size() each.
  std::vector<double> rows_;
  size_t num_rows_ = 0;
};

}  // namespace sparktune
