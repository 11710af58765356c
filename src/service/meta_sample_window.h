// MetaSampleWindow: fixed-capacity chronological window of meta-feature
// samples in one contiguous arena. The naive representation — a
// vector<vector<double>> ring with erase-front eviction — costs one heap
// allocation per retained sample per task plus an O(window) shift per
// execution; at fleet scale (10^5-10^6 tasks x 8 samples x 75 features)
// that is millions of small allocations. Here each task owns exactly one
// flat buffer of capacity x dim doubles reused as a circular window.
//
// Average() sums the samples oldest-first, then divides by their count.
// That is the order a vector-of-vectors window with erase-front eviction
// keeps them in, so a window restored from ToRows() rows yields the same
// meta vector to the last bit.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace sparktune {

class MetaSampleWindow {
 public:
  explicit MetaSampleWindow(size_t capacity = 8) : capacity_(capacity) {
    assert(capacity_ > 0);
  }

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  size_t dim() const { return dim_; }
  size_t capacity() const { return capacity_; }

  // Appends a sample, evicting the oldest once the window is full. All
  // samples must share one dimensionality (meta-feature vectors do).
  void Push(const std::vector<double>& sample) {
    if (dim_ == 0) {
      dim_ = sample.size();
      data_.reserve(capacity_ * dim_);
    }
    assert(sample.size() == dim_);
    if (count_ < capacity_) {
      data_.insert(data_.end(), sample.begin(), sample.end());
      ++count_;
    } else {
      double* slot = &data_[start_ * dim_];
      for (size_t i = 0; i < dim_; ++i) slot[i] = sample[i];
      start_ = (start_ + 1) % capacity_;
    }
  }

  // Chronological (oldest-first) element-wise mean.
  std::vector<double> Average() const {
    assert(count_ > 0);
    std::vector<double> avg(dim_, 0.0);
    for (size_t k = 0; k < count_; ++k) {
      const double* row = &data_[((start_ + k) % capacity_) * dim_];
      for (size_t i = 0; i < dim_; ++i) avg[i] += row[i];
    }
    for (auto& x : avg) x /= static_cast<double>(count_);
    return avg;
  }

  // Codec boundary: the checkpoint JSON schema keeps the historical
  // vector-of-vectors shape, so old checkpoints restore into the new
  // layout and new checkpoints stay readable by the old reader.
  std::vector<std::vector<double>> ToRows() const {
    std::vector<std::vector<double>> rows;
    rows.reserve(count_);
    for (size_t k = 0; k < count_; ++k) {
      const double* row = &data_[((start_ + k) % capacity_) * dim_];
      rows.emplace_back(row, row + dim_);
    }
    return rows;
  }

  void FromRows(const std::vector<std::vector<double>>& rows) {
    Clear();
    for (const auto& r : rows) Push(r);
  }

  void Clear() {
    data_.clear();
    dim_ = 0;
    count_ = 0;
    start_ = 0;
  }

  size_t HeapBytes() const { return data_.capacity() * sizeof(double); }

 private:
  size_t capacity_;
  size_t dim_ = 0;
  size_t count_ = 0;
  size_t start_ = 0;  // index of the oldest sample once the window is full
  std::vector<double> data_;
};

}  // namespace sparktune
