// Cholesky factorization with adaptive jitter, triangular solves and
// log-determinant — the numerical core of GP posterior inference.
//
// The factorization is a blocked right-looking panel algorithm (panel
// factor + register-tiled trailing SYRK) and the matrix solves are blocked
// over right-hand-side columns with panelled k sweeps. Every element
// accumulates its inner-product terms in a documented, fixed index order —
// strictly increasing k for the factorization and the forward solves,
// strictly decreasing k for the back substitutions (the natural bottom-up
// order, and the only one a right-looking panelled back substitution can
// preserve exactly) — so results are bit-identical to the naive reference
// loops (see DESIGN.md §5, "Hot-kernel layout").
#pragma once

#include "common/result.h"
#include "linalg/matrix.h"

namespace sparktune {

// Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
class Cholesky {
 public:
  // Factor A = L * L^T. If A is not numerically PD, jitter 1e-10, 1e-9,
  // ..., 1e-2 is added to the diagonal in turn before failing.
  static Result<Cholesky> Factor(const Matrix& a);

  // Solve A x = b via forward/back substitution. The back-substitution
  // half accumulates k terms in strictly decreasing order (bottom-up).
  Vector Solve(const Vector& b) const;
  // Solve L y = b (forward substitution only, ascending k).
  Vector SolveLower(const Vector& b) const;
  // SolveLower on y[0, n) in place, bit for bit, with no allocation.
  void SolveLowerInPlace(double* y) const;
  // Solve L Y = B for all columns of B at once (forward substitution on
  // column blocks, no per-column copies). Column j of the result equals
  // SolveLower(column j of B) bit-for-bit.
  Matrix SolveLowerMatrix(const Matrix& b) const;
  // Solve L^T X = Y for all columns of Y at once (panelled back
  // substitution on column blocks). Column j equals the back-substitution
  // half of Solve(·) on column j bit-for-bit: per element the k terms
  // arrive in strictly decreasing order, panels bottom-up.
  Matrix SolveUpperMatrix(const Matrix& y) const;

  // log |A| = 2 * sum(log L_ii).
  double LogDet() const;

  // Jitter that was actually applied to make the factorization succeed.
  double applied_jitter() const { return applied_jitter_; }

  const Matrix& lower() const { return l_; }

 private:
  Matrix l_;
  double applied_jitter_ = 0.0;
};

}  // namespace sparktune
