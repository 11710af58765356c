// Dense row-major matrix and vector helpers sized for Gaussian-process
// regression over tuning histories (tens to a few hundred rows). Clarity and
// numerical robustness over raw speed.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace sparktune {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  // Raw row pointers for tight inner loops (row-major storage).
  double* row(size_t r) {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }
  const double* row(size_t r) const {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }

  // C = A * B
  Matrix MatMul(const Matrix& other) const;
  Matrix Transpose() const;

  // Add v to every diagonal element (jitter / noise term).
  void AddDiagonal(double v);

  const std::vector<double>& data() const { return data_; }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

double Dot(const Vector& a, const Vector& b);

}  // namespace sparktune
