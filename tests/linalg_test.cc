// Tests for dense matrix ops and Cholesky factorization.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"

namespace sparktune {
namespace {

TEST(MatrixTest, MatMulKnownValue) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  double v = 1.0;
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) a(r, c) = v++;
  }
  v = 1.0;
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 2; ++c) b(r, c) = v++;
  }
  Matrix c = a.MatMul(b);
  // [[1,2,3],[4,5,6]] * [[1,2],[3,4],[5,6]] = [[22,28],[49,64]]
  EXPECT_DOUBLE_EQ(c(0, 0), 22.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 28.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 49.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 64.0);
}

TEST(MatrixTest, TransposeInvolution) {
  Matrix a(2, 3);
  a(0, 2) = 5.0;
  a(1, 0) = -2.0;
  Matrix t = a.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 0), 5.0);
  Matrix tt = t.Transpose();
  EXPECT_DOUBLE_EQ(tt(1, 0), -2.0);
}

TEST(MatrixTest, AddDiagonal) {
  Matrix m(3, 3, 1.0);
  m.AddDiagonal(2.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 1.0);
}

TEST(VectorOps, Dot) {
  Vector a = {1, 2, 3}, b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
}

Matrix RandomSpd(size_t n, Rng* rng) {
  Matrix a(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) a(r, c) = rng->Normal();
  }
  Matrix spd = a.MatMul(a.Transpose());
  spd.AddDiagonal(static_cast<double>(n));  // well-conditioned
  return spd;
}

TEST(CholeskyTest, ReconstructsMatrix) {
  Rng rng(11);
  Matrix a = RandomSpd(6, &rng);
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  Matrix l = chol->lower();
  Matrix rec = l.MatMul(l.Transpose());
  for (size_t r = 0; r < 6; ++r) {
    for (size_t c = 0; c < 6; ++c) {
      EXPECT_NEAR(rec(r, c), a(r, c), 1e-9);
    }
  }
  EXPECT_EQ(chol->applied_jitter(), 0.0);
}

TEST(CholeskyTest, SolvesLinearSystem) {
  Rng rng(13);
  Matrix a = RandomSpd(8, &rng);
  Vector x_true(8);
  for (auto& v : x_true) v = rng.Normal();
  Vector b(8, 0.0);
  for (size_t r = 0; r < 8; ++r) {
    for (size_t c = 0; c < 8; ++c) b[r] += a(r, c) * x_true[c];
  }
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  Vector x = chol->Solve(b);
  for (size_t i = 0; i < 8; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(CholeskyTest, LogDetMatchesKnownDiagonal) {
  Matrix d(3, 3, 0.0);
  d(0, 0) = 2.0;
  d(1, 1) = 3.0;
  d(2, 2) = 4.0;
  auto chol = Cholesky::Factor(d);
  ASSERT_TRUE(chol.ok());
  EXPECT_NEAR(chol->LogDet(), std::log(24.0), 1e-12);
}

TEST(CholeskyTest, JitterRescuesSingularMatrix) {
  // Rank-1 matrix (singular): ones everywhere.
  Matrix a(4, 4, 1.0);
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  EXPECT_GT(chol->applied_jitter(), 0.0);
}

TEST(CholeskyTest, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_FALSE(Cholesky::Factor(a).ok());
}

TEST(CholeskyTest, SolveMatrixColumnwise) {
  Rng rng(17);
  Matrix a = RandomSpd(5, &rng);
  Matrix b(5, 2);
  for (size_t r = 0; r < 5; ++r) {
    b(r, 0) = rng.Normal();
    b(r, 1) = rng.Normal();
  }
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  Matrix x = chol->SolveUpperMatrix(chol->SolveLowerMatrix(b));
  Matrix ax = a.MatMul(x);
  for (size_t r = 0; r < 5; ++r) {
    EXPECT_NEAR(ax(r, 0), b(r, 0), 1e-8);
    EXPECT_NEAR(ax(r, 1), b(r, 1), 1e-8);
  }
}

// Textbook unblocked lower-Cholesky: the bit-equality reference the blocked
// implementation must reproduce exactly.
bool UnblockedFactor(const Matrix& a, Matrix* l) {
  size_t n = a.rows();
  *l = Matrix(n, n, 0.0);
  for (size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (size_t k = 0; k < j; ++k) d -= (*l)(j, k) * (*l)(j, k);
    if (d <= 0.0 || !std::isfinite(d)) return false;
    (*l)(j, j) = std::sqrt(d);
    for (size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (size_t k = 0; k < j; ++k) s -= (*l)(i, k) * (*l)(j, k);
      (*l)(i, j) = s / (*l)(j, j);
    }
  }
  return true;
}

TEST(CholeskyTest, BlockedFactorBitEqualsUnblocked) {
  Rng rng(29);
  // Larger than two panel widths with a ragged remainder.
  Matrix a = RandomSpd(97, &rng);
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  EXPECT_EQ(chol->applied_jitter(), 0.0);
  Matrix ref;
  ASSERT_TRUE(UnblockedFactor(a, &ref));
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      EXPECT_EQ(chol->lower()(r, c), ref(r, c)) << "at " << r << "," << c;
    }
  }
}

TEST(CholeskyTest, BlockedFactorBitEqualsUnblockedOnJitterPath) {
  // Rank-deficient PSD matrix wider than one panel: the plain attempt fails
  // and the jitter escalation must follow the same schedule and produce the
  // same factor as the unblocked reference.
  Rng rng(31);
  Matrix b(60, 5);
  for (size_t r = 0; r < b.rows(); ++r) {
    for (size_t c = 0; c < b.cols(); ++c) b(r, c) = rng.Normal();
  }
  Matrix a = b.MatMul(b.Transpose());
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  EXPECT_GT(chol->applied_jitter(), 0.0);

  Matrix ref;
  double ref_jitter = 0.0;
  bool ok = UnblockedFactor(a, &ref);
  if (!ok) {
    for (double j = 1e-10; j <= 1e-2; j *= 10.0) {
      Matrix aj = a;
      aj.AddDiagonal(j);
      if (UnblockedFactor(aj, &ref)) {
        ref_jitter = j;
        ok = true;
        break;
      }
    }
  }
  ASSERT_TRUE(ok);
  EXPECT_EQ(chol->applied_jitter(), ref_jitter);
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      EXPECT_EQ(chol->lower()(r, c), ref(r, c)) << "at " << r << "," << c;
    }
  }
}

TEST(CholeskyTest, SolveLowerMatrixBitEqualsPerColumn) {
  Rng rng(41);
  const size_t n = 60;
  const size_t m = 100;  // crosses the column-block boundary
  Matrix a = RandomSpd(n, &rng);
  Matrix b(n, m);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < m; ++c) b(r, c) = rng.Normal();
  }
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  Matrix y = chol->SolveLowerMatrix(b);
  Matrix x = chol->SolveUpperMatrix(chol->SolveLowerMatrix(b));
  for (size_t c = 0; c < m; ++c) {
    Vector col(n);
    for (size_t r = 0; r < n; ++r) col[r] = b(r, c);
    Vector yref = chol->SolveLower(col);
    Vector xref = chol->Solve(col);
    for (size_t r = 0; r < n; ++r) {
      EXPECT_EQ(y(r, c), yref[r]) << "SolveLower col " << c << " row " << r;
      EXPECT_EQ(x(r, c), xref[r]) << "Solve col " << c << " row " << r;
    }
  }
}

// Naive per-column back substitution in the documented order: strictly
// descending k. This is the bit-equality reference for the panelled
// SolveUpperMatrix path.
Matrix NaiveUpperSolve(const Matrix& l, const Matrix& y) {
  const size_t n = l.rows();
  const size_t m = y.cols();
  Matrix x(n, m);
  for (size_t c = 0; c < m; ++c) {
    for (size_t ii = n; ii-- > 0;) {
      double sum = y(ii, c);
      for (size_t k = n; k-- > ii + 1;) sum -= l(k, ii) * x(k, c);
      x(ii, c) = sum / l(ii, ii);
    }
  }
  return x;
}

TEST(CholeskyTest, SolveUpperMatrixBitEqualsNaive) {
  Rng rng(43);
  // Ragged in both dimensions: n spans two full 48-wide panels plus a
  // 5-row remainder; m spans a full 48-column block plus a partial one.
  const size_t n = 101;
  const size_t m = 53;
  Matrix a = RandomSpd(n, &rng);
  Matrix y(n, m);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < m; ++c) y(r, c) = rng.Normal();
  }
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  Matrix ref = NaiveUpperSolve(chol->lower(), y);
  Matrix x = chol->SolveUpperMatrix(y);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < m; ++c) {
      EXPECT_EQ(x(r, c), ref(r, c)) << "at " << r << "," << c;
    }
  }
}

TEST(CholeskyTest, SolveMatrixBitEqualsPerColumnOnRaggedSize) {
  Rng rng(47);
  // One full panel plus a partial one, so both the panelled and the
  // flat-scalar upper-solve paths run.
  const size_t n = 65;
  const size_t m = 49;
  Matrix a = RandomSpd(n, &rng);
  Matrix b(n, m);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < m; ++c) b(r, c) = rng.Normal();
  }
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  Matrix x = chol->SolveUpperMatrix(chol->SolveLowerMatrix(b));
  for (size_t c = 0; c < m; ++c) {
    Vector col(n);
    for (size_t r = 0; r < n; ++r) col[r] = b(r, c);
    Vector xref = chol->Solve(col);
    for (size_t r = 0; r < n; ++r) {
      EXPECT_EQ(x(r, c), xref[r]) << "col " << c;
    }
  }
}

TEST(CholeskyTest, FactorBitEqualsUnblockedOnRaggedSize) {
  Rng rng(53);
  // Two full panels plus a remainder, exercising the tiled trailing
  // update's ragged tail.
  Matrix a = RandomSpd(101, &rng);
  Matrix ref;
  ASSERT_TRUE(UnblockedFactor(a, &ref));
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  EXPECT_EQ(chol->applied_jitter(), 0.0);
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      EXPECT_EQ(chol->lower()(r, c), ref(r, c)) << "at " << r << "," << c;
    }
  }
}

}  // namespace
}  // namespace sparktune
