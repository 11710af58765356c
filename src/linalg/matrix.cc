#include "linalg/matrix.h"

#include <algorithm>

namespace sparktune {

Matrix Matrix::MatMul(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = 0; k < cols_; ++k) {
      double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (size_t c = 0; c < other.cols_; ++c) {
        out(r, c) += a * other(k, c);
      }
    }
  }
  return out;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

void Matrix::AddDiagonal(double v) {
  size_t n = std::min(rows_, cols_);
  for (size_t i = 0; i < n; ++i) (*this)(i, i) += v;
}

double Dot(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace sparktune
