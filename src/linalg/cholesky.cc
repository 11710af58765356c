#include "linalg/cholesky.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace sparktune {

namespace {

// Panel width of the blocked factorization and column-block width of the
// matrix solves. Sized so a panel/block working set stays L2-resident at
// the matrix sizes GP inference sees (n up to ~1k).
constexpr size_t kBlock = 48;

// Register-tile width of the matrix-solve kernels: eight running columns
// live in registers across the whole k sweep, so each k term costs one load
// of the k-th solution row instead of a load+store round trip of the
// destination row. Per column the k terms still accumulate in ascending
// order, so the tiled kernels are bit-identical to the per-column solves.
constexpr size_t kTile = 8;

#if defined(__GNUC__) || defined(__clang__)
#define SPARKTUNE_VEC_SOLVE 1
// Eight doubles per vector, alignment relaxed to that of a double so tile
// loads need no alignment guarantee, may_alias so the casts from plain
// double rows are well-defined. Element-wise *, - and / on these are the
// same IEEE-754 operations as their scalar forms (no fusion: this file is
// built with -ffp-contract=off), so the vector kernels are bit-identical
// to the scalar tile code — just packed.
typedef double Vec8 __attribute__((vector_size(64), aligned(8), may_alias));
static_assert(kBlock % kTile == 0, "full blocks must tile evenly");
#endif

// Attempt a Cholesky factorization; returns false on a non-positive pivot.
//
// Blocked right-looking algorithm: factor a panel of kBlock columns, then
// subtract its outer product from the trailing submatrix (the O(n^3) bulk).
// Every element (i, j) accumulates its inner-product terms k = 0..j-1 in
// strictly increasing k order — panels in order via the trailing updates,
// then the within-panel remainder — which is the exact operation sequence
// of the classic unblocked loop, so the factor is bit-identical to it.
bool TryFactor(const Matrix& a, Matrix* l) {
  const size_t n = a.rows();
  *l = Matrix(n, n, 0.0);
  Matrix& lm = *l;
  for (size_t i = 0; i < n; ++i) {
    const double* ai = a.row(i);
    double* li = lm.row(i);
    for (size_t j = 0; j <= i; ++j) li[j] = ai[j];
  }

  // Scratch for the transposed panel the trailing SYRK update streams
  // (kBlock rows of k, up to n columns of j); reused across panels.
  std::vector<double> packed(n > kBlock ? kBlock * (n - kBlock) : 0);

  for (size_t p0 = 0; p0 < n; p0 += kBlock) {
    const size_t p1 = std::min(p0 + kBlock, n);
    // ---- Panel factor (serial): columns [p0, p1), all rows below ----
    for (size_t j = p0; j < p1; ++j) {
      double* lj = lm.row(j);
      double d = lj[j];
      for (size_t k = p0; k < j; ++k) d -= lj[k] * lj[k];
      if (d <= 0.0 || !std::isfinite(d)) return false;
      const double djj = std::sqrt(d);
      lj[j] = djj;
      for (size_t i = j + 1; i < n; ++i) {
        double* li = lm.row(i);
        double s = li[j];
        for (size_t k = p0; k < j; ++k) s -= li[k] * lj[k];
        li[j] = s / djj;
      }
    }
    // ---- Trailing SYRK update ----
    // Register-tiled: the panel's columns are first packed transposed
    // (packed[(k - p0) * width + (j - p1)] = L(j, k); a pure copy, so no
    // rounding is involved), which makes the j dimension contiguous per k.
    // Each row i then updates eight j columns at once: eight independent
    // accumulator chains, each subtracting its li[k] * L(j, k) terms in
    // strictly increasing k — per element the exact operation sequence of
    // the scalar j loop, which the reduction-ordered scalar code could
    // never vectorize. The panel columns read here (k < p1) are never
    // written by this update (it only touches j >= p1), so the packed copy
    // stays valid for every row.
    if (p1 < n) {
      const size_t width = n - p1;
      for (size_t r = 0; r < width; ++r) {
        const double* lj = lm.row(p1 + r);
        for (size_t k = p0; k < p1; ++k) {
          packed[(k - p0) * width + r] = lj[k];
        }
      }
      for (size_t i = p1; i < n; ++i) {
        double* li = lm.row(i);
        size_t j = p1;
#if SPARKTUNE_VEC_SOLVE
        for (; j + kTile <= i + 1; j += kTile) {
          Vec8 acc = *reinterpret_cast<const Vec8*>(li + j);
          const double* bt = packed.data() + (j - p1);
          for (size_t k = p0; k < p1; ++k, bt += width) {
            const double lik = li[k];
            const Vec8 v = {lik, lik, lik, lik, lik, lik, lik, lik};
            acc -= v * *reinterpret_cast<const Vec8*>(bt);
          }
          *reinterpret_cast<Vec8*>(li + j) = acc;
        }
#endif
        for (; j <= i; ++j) {
          const double* lj = lm.row(j);
          double s = li[j];
          for (size_t k = p0; k < p1; ++k) s -= li[k] * lj[k];
          li[j] = s;
        }
      }
    }
  }
  return true;
}

}  // namespace

Result<Cholesky> Cholesky::Factor(const Matrix& a) {
  constexpr double kInitialJitter = 1e-10;
  constexpr double kMaxJitter = 1e-2;
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  Cholesky chol;
  if (TryFactor(a, &chol.l_)) return chol;
  // Escalate jitter geometrically.
  for (double jitter = kInitialJitter; jitter <= kMaxJitter; jitter *= 10.0) {
    Matrix aj = a;
    aj.AddDiagonal(jitter);
    if (TryFactor(aj, &chol.l_)) {
      chol.applied_jitter_ = jitter;
      return chol;
    }
  }
  return Status::Internal(StrFormat(
      "matrix not positive definite even with jitter %g", kMaxJitter));
}

Vector Cholesky::SolveLower(const Vector& b) const {
  assert(b.size() == l_.rows());
  Vector y = b;
  SolveLowerInPlace(y.data());
  return y;
}

void Cholesky::SolveLowerInPlace(double* y) const {
  const size_t n = l_.rows();
  for (size_t i = 0; i < n; ++i) {
    double sum = y[i];
    for (size_t k = 0; k < i; ++k) sum -= l_(i, k) * y[k];
    y[i] = sum / l_(i, i);
  }
}

Vector Cholesky::Solve(const Vector& b) const {
  size_t n = l_.rows();
  Vector y = SolveLower(b);
  // Back substitution with L^T. The k terms accumulate in strictly
  // decreasing order — the natural bottom-up order, and the documented
  // convention every batched upper solve reproduces exactly (a
  // right-looking panelled back substitution applies the bottom panels'
  // contributions first, so decreasing k is the only order it can keep).
  Vector x(n, 0.0);
  for (size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (size_t k = n; k-- > ii + 1;) sum -= l_(k, ii) * x[k];
    x[ii] = sum / l_(ii, ii);
  }
  return x;
}

Matrix Cholesky::SolveLowerMatrix(const Matrix& b) const {
  const size_t n = l_.rows();
  const size_t m = b.cols();
  assert(b.rows() == n);
  Matrix y = b;
  if (n == 0) return y;
  double* const yb = y.row(0);
  // Forward substitution on blocks of right-hand-side columns: the block
  // stays cache-resident while L streams through once per block (the
  // per-column path re-reads all of L for every column). Columns are
  // independent, so the block split cannot change results.
  for (size_t c0 = 0; c0 < m; c0 += kBlock) {
    const size_t c1 = std::min(c0 + kBlock, m);
#if SPARKTUNE_VEC_SOLVE
    // Full-width column blocks take the panelled vector path. The k
    // dimension is swept in kBlock-row panels: the diagonal panel is a
    // small triangular solve, then the solved panel is applied to every
    // row below it while the panel (48 rows x 48 columns, ~18 KB) is still
    // L1-resident — the flat k sweep instead re-streams the whole solved
    // prefix from L2 for every row. Per column the k terms still arrive in
    // ascending order (panels ascend, k ascends within each panel), the
    // divide still happens after a row's full prefix, and the six named
    // vector accumulators are independent chains that hide the subtract
    // latency — bit-identical to the per-column solve, just faster.
    if (c1 - c0 == kBlock) {
      for (size_t p0 = 0; p0 < n; p0 += kBlock) {
        const size_t p1 = std::min(p0 + kBlock, n);
        // Diagonal panel: triangular solve of rows [p0, p1).
        for (size_t i = p0; i < p1; ++i) {
          const double* __restrict li = l_.row(i);
          double* __restrict yi = yb + i * m;
          Vec8 a0 = *reinterpret_cast<const Vec8*>(yi + c0);
          Vec8 a1 = *reinterpret_cast<const Vec8*>(yi + c0 + 8);
          Vec8 a2 = *reinterpret_cast<const Vec8*>(yi + c0 + 16);
          Vec8 a3 = *reinterpret_cast<const Vec8*>(yi + c0 + 24);
          Vec8 a4 = *reinterpret_cast<const Vec8*>(yi + c0 + 32);
          Vec8 a5 = *reinterpret_cast<const Vec8*>(yi + c0 + 40);
          const double* __restrict yk = yb + p0 * m + c0;
          for (size_t k = p0; k < i; ++k, yk += m) {
            const double lik = li[k];
            const Vec8 v = {lik, lik, lik, lik, lik, lik, lik, lik};
            a0 -= v * *reinterpret_cast<const Vec8*>(yk);
            a1 -= v * *reinterpret_cast<const Vec8*>(yk + 8);
            a2 -= v * *reinterpret_cast<const Vec8*>(yk + 16);
            a3 -= v * *reinterpret_cast<const Vec8*>(yk + 24);
            a4 -= v * *reinterpret_cast<const Vec8*>(yk + 32);
            a5 -= v * *reinterpret_cast<const Vec8*>(yk + 40);
          }
          const double lii = li[i];
          const Vec8 d = {lii, lii, lii, lii, lii, lii, lii, lii};
          *reinterpret_cast<Vec8*>(yi + c0) = a0 / d;
          *reinterpret_cast<Vec8*>(yi + c0 + 8) = a1 / d;
          *reinterpret_cast<Vec8*>(yi + c0 + 16) = a2 / d;
          *reinterpret_cast<Vec8*>(yi + c0 + 24) = a3 / d;
          *reinterpret_cast<Vec8*>(yi + c0 + 32) = a4 / d;
          *reinterpret_cast<Vec8*>(yi + c0 + 40) = a5 / d;
        }
        // Trailing update: subtract the solved panel from every row below.
        for (size_t i = p1; i < n; ++i) {
          const double* __restrict li = l_.row(i);
          double* __restrict yi = yb + i * m;
          Vec8 a0 = *reinterpret_cast<const Vec8*>(yi + c0);
          Vec8 a1 = *reinterpret_cast<const Vec8*>(yi + c0 + 8);
          Vec8 a2 = *reinterpret_cast<const Vec8*>(yi + c0 + 16);
          Vec8 a3 = *reinterpret_cast<const Vec8*>(yi + c0 + 24);
          Vec8 a4 = *reinterpret_cast<const Vec8*>(yi + c0 + 32);
          Vec8 a5 = *reinterpret_cast<const Vec8*>(yi + c0 + 40);
          const double* __restrict yk = yb + p0 * m + c0;
          for (size_t k = p0; k < p1; ++k, yk += m) {
            const double lik = li[k];
            const Vec8 v = {lik, lik, lik, lik, lik, lik, lik, lik};
            a0 -= v * *reinterpret_cast<const Vec8*>(yk);
            a1 -= v * *reinterpret_cast<const Vec8*>(yk + 8);
            a2 -= v * *reinterpret_cast<const Vec8*>(yk + 16);
            a3 -= v * *reinterpret_cast<const Vec8*>(yk + 24);
            a4 -= v * *reinterpret_cast<const Vec8*>(yk + 32);
            a5 -= v * *reinterpret_cast<const Vec8*>(yk + 40);
          }
          *reinterpret_cast<Vec8*>(yi + c0) = a0;
          *reinterpret_cast<Vec8*>(yi + c0 + 8) = a1;
          *reinterpret_cast<Vec8*>(yi + c0 + 16) = a2;
          *reinterpret_cast<Vec8*>(yi + c0 + 24) = a3;
          *reinterpret_cast<Vec8*>(yi + c0 + 32) = a4;
          *reinterpret_cast<Vec8*>(yi + c0 + 40) = a5;
        }
      }
      continue;
    }
#endif
    for (size_t i = 0; i < n; ++i) {
      const double* __restrict li = l_.row(i);
      double* __restrict yi = yb + i * m;
      const double lii = li[i];
      size_t c = c0;
      for (; c + kTile <= c1; c += kTile) {
        double a0 = yi[c], a1 = yi[c + 1], a2 = yi[c + 2], a3 = yi[c + 3];
        double a4 = yi[c + 4], a5 = yi[c + 5], a6 = yi[c + 6], a7 = yi[c + 7];
        const double* __restrict yk = yb + c;
        for (size_t k = 0; k < i; ++k, yk += m) {
          const double lik = li[k];
          a0 -= lik * yk[0];
          a1 -= lik * yk[1];
          a2 -= lik * yk[2];
          a3 -= lik * yk[3];
          a4 -= lik * yk[4];
          a5 -= lik * yk[5];
          a6 -= lik * yk[6];
          a7 -= lik * yk[7];
        }
        yi[c] = a0 / lii;
        yi[c + 1] = a1 / lii;
        yi[c + 2] = a2 / lii;
        yi[c + 3] = a3 / lii;
        yi[c + 4] = a4 / lii;
        yi[c + 5] = a5 / lii;
        yi[c + 6] = a6 / lii;
        yi[c + 7] = a7 / lii;
      }
      for (; c < c1; ++c) {
        double a = yi[c];
        const double* __restrict yk = yb + c;
        for (size_t k = 0; k < i; ++k, yk += m) a -= li[k] * *yk;
        yi[c] = a / lii;
      }
    }
  }
  return y;
}

Matrix Cholesky::SolveUpperMatrix(const Matrix& y) const {
  const size_t n = l_.rows();
  const size_t m = y.cols();
  assert(y.rows() == n);
  Matrix x = y;
  if (n == 0 || m == 0) return x;
  double* const xb = x.row(0);
  const double* const lb = l_.row(0);
  // Back substitution with L^T on independent column blocks (L^T's column
  // ii walks l_ with stride n). Per element the k terms arrive in strictly
  // decreasing order — matching Solve's documented back-substitution
  // convention — and partial sums round-trip through memory between
  // panels, which is exact, so every path below is bit-identical to the
  // naive bottom-up per-column loop.
  for (size_t c0 = 0; c0 < m; c0 += kBlock) {
    const size_t c1 = std::min(c0 + kBlock, m);
#if SPARKTUNE_VEC_SOLVE
    // Full-width column blocks take the panelled vector path, the mirror
    // image of SolveLowerMatrix: k sweeps bottom-up in kBlock-row panels.
    // The diagonal panel is a small backward triangular solve; its solved
    // 48x48 block is then applied to every row above it while still
    // L1-resident (the flat bottom-up sweep re-streams the whole solved
    // suffix from L2 for every row). Panels descend and k descends within
    // each panel, so per column the terms arrive in strictly decreasing k.
    if (c1 - c0 == kBlock) {
      size_t p1 = n;
      while (p1 > 0) {
        const size_t p0 = ((p1 - 1) / kBlock) * kBlock;
        // Diagonal panel: backward triangular solve of rows [p0, p1).
        for (size_t ii = p1; ii-- > p0;) {
          double* __restrict xi = xb + ii * m;
          const double lii = lb[ii * n + ii];
          Vec8 a0 = *reinterpret_cast<const Vec8*>(xi + c0);
          Vec8 a1 = *reinterpret_cast<const Vec8*>(xi + c0 + 8);
          Vec8 a2 = *reinterpret_cast<const Vec8*>(xi + c0 + 16);
          Vec8 a3 = *reinterpret_cast<const Vec8*>(xi + c0 + 24);
          Vec8 a4 = *reinterpret_cast<const Vec8*>(xi + c0 + 32);
          Vec8 a5 = *reinterpret_cast<const Vec8*>(xi + c0 + 40);
          const double* __restrict xk = xb + (p1 - 1) * m + c0;
          const double* __restrict lk = lb + (p1 - 1) * n + ii;
          for (size_t k = p1; --k > ii; xk -= m, lk -= n) {
            const double lki = *lk;
            const Vec8 v = {lki, lki, lki, lki, lki, lki, lki, lki};
            a0 -= v * *reinterpret_cast<const Vec8*>(xk);
            a1 -= v * *reinterpret_cast<const Vec8*>(xk + 8);
            a2 -= v * *reinterpret_cast<const Vec8*>(xk + 16);
            a3 -= v * *reinterpret_cast<const Vec8*>(xk + 24);
            a4 -= v * *reinterpret_cast<const Vec8*>(xk + 32);
            a5 -= v * *reinterpret_cast<const Vec8*>(xk + 40);
          }
          const Vec8 d = {lii, lii, lii, lii, lii, lii, lii, lii};
          *reinterpret_cast<Vec8*>(xi + c0) = a0 / d;
          *reinterpret_cast<Vec8*>(xi + c0 + 8) = a1 / d;
          *reinterpret_cast<Vec8*>(xi + c0 + 16) = a2 / d;
          *reinterpret_cast<Vec8*>(xi + c0 + 24) = a3 / d;
          *reinterpret_cast<Vec8*>(xi + c0 + 32) = a4 / d;
          *reinterpret_cast<Vec8*>(xi + c0 + 40) = a5 / d;
        }
        // Upward trailing update: subtract the solved panel from every row
        // above it (k = p1-1 down to p0 for each).
        for (size_t i = 0; i < p0; ++i) {
          double* __restrict xi = xb + i * m;
          Vec8 a0 = *reinterpret_cast<const Vec8*>(xi + c0);
          Vec8 a1 = *reinterpret_cast<const Vec8*>(xi + c0 + 8);
          Vec8 a2 = *reinterpret_cast<const Vec8*>(xi + c0 + 16);
          Vec8 a3 = *reinterpret_cast<const Vec8*>(xi + c0 + 24);
          Vec8 a4 = *reinterpret_cast<const Vec8*>(xi + c0 + 32);
          Vec8 a5 = *reinterpret_cast<const Vec8*>(xi + c0 + 40);
          const double* __restrict xk = xb + (p1 - 1) * m + c0;
          const double* __restrict lk = lb + (p1 - 1) * n + i;
          for (size_t k = p1; k-- > p0; xk -= m, lk -= n) {
            const double lki = *lk;
            const Vec8 v = {lki, lki, lki, lki, lki, lki, lki, lki};
            a0 -= v * *reinterpret_cast<const Vec8*>(xk);
            a1 -= v * *reinterpret_cast<const Vec8*>(xk + 8);
            a2 -= v * *reinterpret_cast<const Vec8*>(xk + 16);
            a3 -= v * *reinterpret_cast<const Vec8*>(xk + 24);
            a4 -= v * *reinterpret_cast<const Vec8*>(xk + 32);
            a5 -= v * *reinterpret_cast<const Vec8*>(xk + 40);
          }
          *reinterpret_cast<Vec8*>(xi + c0) = a0;
          *reinterpret_cast<Vec8*>(xi + c0 + 8) = a1;
          *reinterpret_cast<Vec8*>(xi + c0 + 16) = a2;
          *reinterpret_cast<Vec8*>(xi + c0 + 24) = a3;
          *reinterpret_cast<Vec8*>(xi + c0 + 32) = a4;
          *reinterpret_cast<Vec8*>(xi + c0 + 40) = a5;
        }
        p1 = p0;
      }
      continue;
    }
#endif
    // Partial column blocks: flat bottom-up sweep with a scalar register
    // tile, k strictly decreasing per column.
    for (size_t ii = n; ii-- > 0;) {
      double* __restrict xi = xb + ii * m;
      const double lii = lb[ii * n + ii];
      size_t c = c0;
      for (; c + kTile <= c1; c += kTile) {
        double a0 = xi[c], a1 = xi[c + 1], a2 = xi[c + 2], a3 = xi[c + 3];
        double a4 = xi[c + 4], a5 = xi[c + 5], a6 = xi[c + 6], a7 = xi[c + 7];
        const double* __restrict xk = xb + (n - 1) * m + c;
        const double* __restrict lk = lb + (n - 1) * n + ii;
        for (size_t k = n; k-- > ii + 1; xk -= m, lk -= n) {
          const double lki = *lk;
          a0 -= lki * xk[0];
          a1 -= lki * xk[1];
          a2 -= lki * xk[2];
          a3 -= lki * xk[3];
          a4 -= lki * xk[4];
          a5 -= lki * xk[5];
          a6 -= lki * xk[6];
          a7 -= lki * xk[7];
        }
        xi[c] = a0 / lii;
        xi[c + 1] = a1 / lii;
        xi[c + 2] = a2 / lii;
        xi[c + 3] = a3 / lii;
        xi[c + 4] = a4 / lii;
        xi[c + 5] = a5 / lii;
        xi[c + 6] = a6 / lii;
        xi[c + 7] = a7 / lii;
      }
      for (; c < c1; ++c) {
        double a = xi[c];
        const double* __restrict xk = xb + (n - 1) * m + c;
        const double* __restrict lk = lb + (n - 1) * n + ii;
        for (size_t k = n; k-- > ii + 1; xk -= m, lk -= n) a -= *lk * *xk;
        xi[c] = a / lii;
      }
    }
  }
  return x;
}

double Cholesky::LogDet() const {
  double acc = 0.0;
  for (size_t i = 0; i < l_.rows(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

}  // namespace sparktune
