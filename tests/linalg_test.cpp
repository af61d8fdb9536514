// Unit + property tests for sap::linalg: matrix algebra, decompositions,
// random orthogonal sampling, Procrustes, statistics.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <tuple>

#include "common/error.hpp"
#include "linalg/decompose.hpp"
#include "linalg/matrix.hpp"
#include "linalg/orthogonal.hpp"
#include "linalg/stats.hpp"
#include "privacy/fastica.hpp"
#include "rng/rng.hpp"

namespace {

using sap::linalg::Matrix;
using sap::linalg::Vector;
using sap::rng::Engine;

Matrix random_matrix(std::size_t r, std::size_t c, Engine& eng) {
  return Matrix::generate(r, c, [&] { return eng.normal(); });
}

// ------------------------------------------------------------ Matrix basics

TEST(Matrix, ConstructionAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), sap::Error);
}

TEST(Matrix, OutOfRangeAccessThrows) {
  Matrix m(2, 2);
  EXPECT_THROW(m(2, 0), sap::Error);
  EXPECT_THROW(m(0, 2), sap::Error);
  // The accessor is inlined from the header; its bounds check must hold in
  // every build type, on the const overload too.
  const Matrix c(2, 3);
  EXPECT_THROW((void)c(2, 0), sap::Error);
  EXPECT_THROW((void)c(0, 3), sap::Error);
  EXPECT_NO_THROW((void)c(1, 2));
}

TEST(Matrix, IdentityProperties) {
  const Matrix i = Matrix::identity(4);
  EXPECT_DOUBLE_EQ(i(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(i(1, 3), 0.0);
  Engine eng(1);
  const Matrix a = random_matrix(4, 4, eng);
  EXPECT_TRUE((i * a).approx_equal(a, 1e-14));
  EXPECT_TRUE((a * i).approx_equal(a, 1e-14));
}

TEST(Matrix, RowColAccessors) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  auto r1 = m.row(1);
  EXPECT_DOUBLE_EQ(r1[2], 6.0);
  const Vector c2 = m.col(2);
  EXPECT_DOUBLE_EQ(c2[0], 3.0);
  EXPECT_DOUBLE_EQ(c2[1], 6.0);
}

TEST(Matrix, SetRowSetCol) {
  Matrix m(2, 2);
  const Vector row{7.0, 8.0};
  m.set_row(0, row);
  const Vector col{9.0, 10.0};
  m.set_col(1, col);
  EXPECT_DOUBLE_EQ(m(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 9.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 10.0);
}

TEST(Matrix, TransposeInvolution) {
  Engine eng(2);
  const Matrix a = random_matrix(3, 5, eng);
  EXPECT_TRUE(a.transpose().transpose().approx_equal(a, 0.0));
  EXPECT_EQ(a.transpose().rows(), 5u);
}

TEST(Matrix, BlockExtraction) {
  Matrix m{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  const Matrix b = m.block(1, 1, 2, 2);
  EXPECT_TRUE(b.approx_equal(Matrix{{5, 6}, {8, 9}}, 0.0));
  EXPECT_THROW(m.block(2, 2, 2, 2), sap::Error);
}

TEST(Matrix, ConcatHorizontalVertical) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5}, {6}};
  const Matrix h = Matrix::hcat(a, b);
  EXPECT_TRUE(h.approx_equal(Matrix{{1, 2, 5}, {3, 4, 6}}, 0.0));
  Matrix c{{7, 8}};
  const Matrix v = Matrix::vcat(a, c);
  EXPECT_TRUE(v.approx_equal(Matrix{{1, 2}, {3, 4}, {7, 8}}, 0.0));
  EXPECT_THROW(Matrix::hcat(a, c), sap::Error);
  EXPECT_THROW(Matrix::vcat(a, b), sap::Error);
}

TEST(Matrix, ArithmeticAndScaling) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{4, 3}, {2, 1}};
  EXPECT_TRUE((a + b).approx_equal(Matrix{{5, 5}, {5, 5}}, 0.0));
  EXPECT_TRUE((a - b).approx_equal(Matrix{{-3, -1}, {1, 3}}, 0.0));
  EXPECT_TRUE((2.0 * a).approx_equal(Matrix{{2, 4}, {6, 8}}, 0.0));
  Matrix c(3, 3);
  EXPECT_THROW(a += c, sap::Error);
}

TEST(Matrix, ProductAgainstHandComputed) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix b{{7, 8}, {9, 10}, {11, 12}};
  const Matrix c = a * b;
  EXPECT_TRUE(c.approx_equal(Matrix{{58, 64}, {139, 154}}, 1e-12));
  EXPECT_THROW(a * a, sap::Error);  // 2x3 * 2x3: inner dimensions mismatch
}

TEST(Matrix, ProductAssociativity) {
  Engine eng(3);
  const Matrix a = random_matrix(4, 3, eng);
  const Matrix b = random_matrix(3, 5, eng);
  const Matrix c = random_matrix(5, 2, eng);
  EXPECT_TRUE(((a * b) * c).approx_equal(a * (b * c), 1e-10));
}

TEST(Matrix, MatvecMatchesProduct) {
  Engine eng(4);
  const Matrix a = random_matrix(4, 3, eng);
  const Vector x{1.0, -2.0, 0.5};
  const Vector y = a.matvec(x);
  Matrix xm(3, 1);
  xm.set_col(0, x);
  const Matrix ym = a * xm;
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(y[i], ym(i, 0), 1e-13);
}

TEST(Matrix, MatvecTransposedMatchesTransposeProduct) {
  Engine eng(5);
  const Matrix a = random_matrix(4, 3, eng);
  const Vector x{1.0, 2.0, 3.0, 4.0};
  const Vector y = a.matvec_transposed(x);
  const Vector y2 = a.transpose().matvec(x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(y[i], y2[i], 1e-13);
}

TEST(Matrix, Norms) {
  Matrix m{{3, 4}, {0, 0}};
  EXPECT_DOUBLE_EQ(m.norm_fro(), 5.0);
  EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);
}

TEST(VectorOps, DotNormAxpyDistance) {
  const Vector a{1, 2, 3};
  const Vector b{4, 5, 6};
  EXPECT_DOUBLE_EQ(sap::linalg::dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(sap::linalg::norm2(Vector{3, 4}), 5.0);
  Vector y{1, 1, 1};
  sap::linalg::axpy(2.0, a, y);
  EXPECT_DOUBLE_EQ(y[2], 7.0);
  EXPECT_DOUBLE_EQ(sap::linalg::distance(Vector{0, 0}, Vector{3, 4}), 5.0);
}

// ------------------------------------------------------------ QR

class QrProperty : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrProperty, ReconstructsAndOrthogonal) {
  const auto [m, n] = GetParam();
  Engine eng(100 + m * 17 + n);
  const Matrix a = random_matrix(m, n, eng);
  const auto f = sap::linalg::qr_decompose(a);
  EXPECT_TRUE((f.q * f.r).approx_equal(a, 1e-10));
  EXPECT_LT(sap::linalg::orthogonality_defect(f.q), 1e-10);
  // R upper triangular.
  for (int i = 1; i < m; ++i)
    for (int j = 0; j < std::min(i, n); ++j) EXPECT_DOUBLE_EQ(f.r(i, j), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrProperty,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 2}, std::pair{5, 5},
                                           std::pair{8, 3}, std::pair{10, 10},
                                           std::pair{20, 7}, std::pair{3, 8}));

TEST(Qr, RankDeficientStillFactorizes) {
  Matrix a{{1, 2}, {2, 4}, {3, 6}};  // rank 1
  const auto f = sap::linalg::qr_decompose(a);
  EXPECT_TRUE((f.q * f.r).approx_equal(a, 1e-10));
}

// ------------------------------------------------------------ LU

class LuProperty : public ::testing::TestWithParam<int> {};

TEST_P(LuProperty, SolveAndInverse) {
  const int n = GetParam();
  Engine eng(200 + n);
  // Diagonally dominated to stay well-conditioned.
  Matrix a = random_matrix(n, n, eng);
  for (int i = 0; i < n; ++i) a(i, i) += n;
  const auto f = sap::linalg::lu_decompose(a);

  Vector b(n);
  for (auto& v : b) v = eng.normal();
  const Vector x = sap::linalg::lu_solve(f, b);
  const Vector ax = a.matvec(x);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);

  const Matrix inv = sap::linalg::inverse(a);
  EXPECT_TRUE((a * inv).approx_equal(Matrix::identity(n), 1e-8));
  EXPECT_TRUE((inv * a).approx_equal(Matrix::identity(n), 1e-8));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuProperty, ::testing::Values(1, 2, 3, 5, 8, 16, 32));

TEST(Lu, SingularMatrixThrows) {
  Matrix a{{1, 2}, {2, 4}};
  EXPECT_THROW(sap::linalg::lu_decompose(a), sap::Error);
  EXPECT_THROW(sap::linalg::inverse(a), sap::Error);
}

TEST(Lu, DeterminantKnownValues) {
  EXPECT_NEAR(sap::linalg::determinant(Matrix{{2, 0}, {0, 3}}), 6.0, 1e-12);
  EXPECT_NEAR(sap::linalg::determinant(Matrix{{0, 1}, {1, 0}}), -1.0, 1e-12);
  EXPECT_NEAR(sap::linalg::determinant(Matrix{{1, 2}, {2, 4}}), 0.0, 1e-12);
}

TEST(Lu, DeterminantMultiplicative) {
  Engine eng(7);
  const Matrix a = random_matrix(5, 5, eng);
  const Matrix b = random_matrix(5, 5, eng);
  const double da = sap::linalg::determinant(a);
  const double db = sap::linalg::determinant(b);
  EXPECT_NEAR(sap::linalg::determinant(a * b), da * db,
              1e-8 * std::max(1.0, std::abs(da * db)));
}

// ------------------------------------------------------------ Cholesky

TEST(Cholesky, ReconstructsSpdMatrix) {
  Engine eng(8);
  const Matrix g = random_matrix(6, 6, eng);
  Matrix spd = g * g.transpose();
  for (std::size_t i = 0; i < 6; ++i) spd(i, i) += 1.0;
  const Matrix l = sap::linalg::cholesky(spd);
  EXPECT_TRUE((l * l.transpose()).approx_equal(spd, 1e-9));
  // L lower triangular.
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = i + 1; j < 6; ++j) EXPECT_DOUBLE_EQ(l(i, j), 0.0);
}

TEST(Cholesky, IndefiniteThrows) {
  Matrix m{{1, 0}, {0, -1}};
  EXPECT_THROW(sap::linalg::cholesky(m), sap::Error);
}

// ------------------------------------------------------------ Jacobi eigen

TEST(SymEigen, DiagonalMatrix) {
  const auto e = sap::linalg::sym_eigen(Matrix{{3, 0}, {0, 1}});
  EXPECT_NEAR(e.values[0], 3.0, 1e-12);
  EXPECT_NEAR(e.values[1], 1.0, 1e-12);
}

TEST(SymEigen, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  const auto e = sap::linalg::sym_eigen(Matrix{{2, 1}, {1, 2}});
  EXPECT_NEAR(e.values[0], 3.0, 1e-10);
  EXPECT_NEAR(e.values[1], 1.0, 1e-10);
}

class SymEigenProperty : public ::testing::TestWithParam<int> {};

TEST_P(SymEigenProperty, ReconstructionAndOrthonormality) {
  const int n = GetParam();
  Engine eng(300 + n);
  const Matrix g = random_matrix(n, n, eng);
  const Matrix a = 0.5 * (g + g.transpose());
  const auto e = sap::linalg::sym_eigen(a);

  // V diag(values) V^T == A
  Matrix d(n, n);
  for (int i = 0; i < n; ++i) d(i, i) = e.values[i];
  EXPECT_TRUE((e.vectors * d * e.vectors.transpose()).approx_equal(a, 1e-8));
  EXPECT_LT(sap::linalg::orthogonality_defect(e.vectors), 1e-9);
  // Sorted descending.
  for (int i = 1; i < n; ++i) EXPECT_GE(e.values[i - 1], e.values[i] - 1e-12);
  // Trace preserved.
  double trace = 0.0, sum = 0.0;
  for (int i = 0; i < n; ++i) {
    trace += a(i, i);
    sum += e.values[i];
  }
  EXPECT_NEAR(trace, sum, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymEigenProperty, ::testing::Values(2, 3, 5, 8, 12, 20));

TEST(SymEigen, AsymmetricInputThrows) {
  EXPECT_THROW(sap::linalg::sym_eigen(Matrix{{1, 2}, {0, 1}}), sap::Error);
}

TEST(SymEigen, SymmetryToleranceEdge) {
  // The symmetry test admits |a_ij - a_ji| <= 1e-8 * (1 + max|a|): here
  // max|a| = 2, so the bar is 3e-8. Just below passes, just above throws.
  const Matrix below{{2, 0, 1}, {0, 2, 0}, {1 + 2.9e-8, 0, 2}};
  const Matrix above{{2, 0, 1}, {0, 2, 0}, {1 + 3.1e-8, 0, 2}};
  EXPECT_NO_THROW(sap::linalg::sym_eigen(below));
  EXPECT_THROW(sap::linalg::sym_eigen(above), sap::Error);
  // The test is two-sided: the lower triangle may be the smaller one.
  const Matrix above_upper{{2, 1 + 3.1e-8}, {1, 2}};
  EXPECT_THROW(sap::linalg::sym_eigen(above_upper), sap::Error);
}

// ------------------------------------------------------------ SVD

class SvdProperty : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SvdProperty, ReconstructionOrthogonalityOrdering) {
  const auto [m, n] = GetParam();
  Engine eng(400 + 31 * m + n);
  const Matrix a = random_matrix(m, n, eng);
  const auto f = sap::linalg::svd(a);

  const int k = std::min(m, n);
  ASSERT_EQ(static_cast<int>(f.s.size()), std::min(m, n));
  // Reconstruct A = U diag(s) V^T.
  Matrix d(f.u.cols(), f.v.cols());
  for (int i = 0; i < k; ++i) d(i, i) = f.s[i];
  EXPECT_TRUE((f.u * d * f.v.transpose()).approx_equal(a, 1e-9));
  // Singular values non-negative descending.
  for (int i = 0; i < k; ++i) EXPECT_GE(f.s[i], 0.0);
  for (int i = 1; i < k; ++i) EXPECT_GE(f.s[i - 1], f.s[i] - 1e-12);
  // Columns of U and V orthonormal.
  EXPECT_TRUE((f.u.transpose() * f.u).approx_equal(Matrix::identity(f.u.cols()), 1e-9));
  EXPECT_TRUE((f.v.transpose() * f.v).approx_equal(Matrix::identity(f.v.cols()), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdProperty,
                         ::testing::Values(std::pair{2, 2}, std::pair{5, 5}, std::pair{8, 3},
                                           std::pair{3, 8}, std::pair{12, 12},
                                           std::pair{20, 6}));

TEST(Svd, SingularValuesOfOrthogonalAreOnes) {
  Engine eng(9);
  const Matrix q = sap::linalg::random_orthogonal(6, eng);
  const auto f = sap::linalg::svd(q);
  for (double s : f.s) EXPECT_NEAR(s, 1.0, 1e-10);
}

TEST(Svd, RankOneMatrix) {
  Matrix a{{1, 2}, {2, 4}, {3, 6}};
  const auto f = sap::linalg::svd(a);
  EXPECT_GT(f.s[0], 0.0);
  EXPECT_NEAR(f.s[1], 0.0, 1e-10);
  // Frobenius norm equals l2 norm of singular values.
  EXPECT_NEAR(f.s[0], a.norm_fro(), 1e-9);
}

TEST(Svd, RankDeficientUStillHasOrthonormalColumns) {
  // Null-space columns of U must be completed, not zeroed: downstream
  // Procrustes relies on U V^T being orthogonal even for degenerate input.
  Matrix a{{1, 2, 3}, {2, 4, 6}, {3, 6, 9}, {0, 0, 0}};  // rank 1
  const auto f = sap::linalg::svd(a);
  EXPECT_TRUE((f.u.transpose() * f.u).approx_equal(Matrix::identity(3), 1e-9));
  // Reconstruction still exact.
  Matrix d(3, 3);
  for (int i = 0; i < 3; ++i) d(i, i) = f.s[i];
  EXPECT_TRUE((f.u * d * f.v.transpose()).approx_equal(a, 1e-9));
}

TEST(Procrustes, RankDeficientInputStillYieldsOrthogonalRotation) {
  // Known-input attack with few (or duplicate) known records produces a
  // rank-deficient correspondence; the Procrustes estimate must remain a
  // valid orthogonal matrix rather than a rank-deficient partial isometry.
  Engine eng(18);
  const int d = 6;
  Matrix src(d, 3);  // 3 points in 6-D: rank <= 3
  for (auto& v : src.data()) v = eng.normal();
  const Matrix r_true = sap::linalg::random_orthogonal(d, eng);
  const Matrix dst = r_true * src;
  const Matrix r_hat = sap::linalg::procrustes_rotation(src, dst);
  EXPECT_LT(sap::linalg::orthogonality_defect(r_hat), 1e-8);
  // It must still map the known points correctly.
  EXPECT_TRUE((r_hat * src).approx_equal(dst, 1e-7));
}

// ------------------------------------------------------------ Random orthogonal

class RandomOrthogonalProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomOrthogonalProperty, OrthogonalAndDistancePreserving) {
  const int d = GetParam();
  Engine eng(500 + d);
  const Matrix r = sap::linalg::random_orthogonal(d, eng);
  EXPECT_LT(sap::linalg::orthogonality_defect(r), 1e-10);
  EXPECT_NEAR(std::abs(sap::linalg::determinant(r)), 1.0, 1e-9);

  // Distances between random points are preserved.
  const Matrix pts = random_matrix(d, 10, eng);
  const Matrix rot = r * pts;
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = i + 1; j < 10; ++j) {
      const double dij = sap::linalg::distance(pts.col(i), pts.col(j));
      const double rij = sap::linalg::distance(rot.col(i), rot.col(j));
      EXPECT_NEAR(dij, rij, 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, RandomOrthogonalProperty, ::testing::Values(1, 2, 3, 5, 9, 16));

TEST(RandomOrthogonal, RotationHasPositiveDeterminant) {
  Engine eng(10);
  for (int trial = 0; trial < 20; ++trial) {
    const Matrix r = sap::linalg::random_rotation(4, eng);
    EXPECT_NEAR(sap::linalg::determinant(r), 1.0, 1e-9);
  }
}

TEST(RandomOrthogonal, HaarColumnsUncorrelatedOnAverage) {
  // First column of a Haar matrix is uniform on the sphere: its mean is 0.
  Engine eng(11);
  const int d = 5, trials = 3000;
  Vector mean(d, 0.0);
  for (int t = 0; t < trials; ++t) {
    const Matrix r = sap::linalg::random_orthogonal(d, eng);
    for (int i = 0; i < d; ++i) mean[i] += r(i, 0);
  }
  for (int i = 0; i < d; ++i) EXPECT_NEAR(mean[i] / trials, 0.0, 0.05);
}

TEST(Givens, RotatesPlane) {
  const Matrix g = sap::linalg::givens(3, 0, 2, std::numbers::pi / 2);
  EXPECT_LT(sap::linalg::orthogonality_defect(g), 1e-12);
  const Vector x{1.0, 5.0, 0.0};
  const Vector y = g.matvec(x);
  EXPECT_NEAR(y[0], 0.0, 1e-12);
  EXPECT_NEAR(y[1], 5.0, 1e-12);
  EXPECT_NEAR(y[2], 1.0, 1e-12);
}

// ------------------------------------------------------------ Procrustes

TEST(Procrustes, RecoversExactRotation) {
  Engine eng(12);
  const int d = 6, m = 15;
  const Matrix r_true = sap::linalg::random_orthogonal(d, eng);
  const Matrix src = random_matrix(d, m, eng);
  const Matrix dst = r_true * src;
  const Matrix r_hat = sap::linalg::procrustes_rotation(src, dst);
  EXPECT_TRUE(r_hat.approx_equal(r_true, 1e-8));
}

TEST(Procrustes, RobustToSmallNoise) {
  Engine eng(13);
  const int d = 4, m = 40;
  const Matrix r_true = sap::linalg::random_orthogonal(d, eng);
  const Matrix src = random_matrix(d, m, eng);
  Matrix dst = r_true * src;
  for (auto& v : dst.data()) v += eng.normal(0.0, 0.01);
  const Matrix r_hat = sap::linalg::procrustes_rotation(src, dst);
  EXPECT_LT(sap::linalg::orthogonality_defect(r_hat), 1e-9);
  EXPECT_LT((r_hat - r_true).max_abs(), 0.05);
}

// ------------------------------------------------------------ Stats

TEST(Stats, RowAndColMeans) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Vector rm = sap::linalg::row_means(m);
  EXPECT_NEAR(rm[0], 2.0, 1e-12);
  EXPECT_NEAR(rm[1], 5.0, 1e-12);
  const Vector cm = sap::linalg::col_means(m);
  EXPECT_NEAR(cm[0], 2.5, 1e-12);
  EXPECT_NEAR(cm[2], 4.5, 1e-12);
}

TEST(Stats, StddevKnownValues) {
  Matrix m{{1, 3}, {2, 2}};
  const Vector sd = sap::linalg::row_stddev(m);
  EXPECT_NEAR(sd[0], std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(sd[1], 0.0, 1e-12);
}

TEST(Stats, CovarianceOfIndependentRows) {
  Engine eng(14);
  const int n = 20000;
  Matrix x(2, n);
  for (int i = 0; i < n; ++i) {
    x(0, i) = eng.normal(0.0, 1.0);
    x(1, i) = eng.normal(0.0, 2.0);
  }
  const Matrix c = sap::linalg::covariance_cols(x);
  EXPECT_NEAR(c(0, 0), 1.0, 0.05);
  EXPECT_NEAR(c(1, 1), 4.0, 0.15);
  EXPECT_NEAR(c(0, 1), 0.0, 0.05);
}

TEST(Stats, CovarianceRotationEquivariance) {
  // cov(RX) = R cov(X) R^T — the identity that makes rotation perturbation
  // attackable by spectral methods and is load-bearing for the ICA attack.
  Engine eng(15);
  const Matrix x = random_matrix(3, 500, eng);
  const Matrix r = sap::linalg::random_orthogonal(3, eng);
  const Matrix lhs = sap::linalg::covariance_cols(r * x);
  const Matrix rhs = r * sap::linalg::covariance_cols(x) * r.transpose();
  EXPECT_TRUE(lhs.approx_equal(rhs, 1e-8));
}

TEST(Stats, PearsonPerfectAndInverse) {
  const Vector x{1, 2, 3, 4};
  const Vector y{2, 4, 6, 8};
  const Vector z{8, 6, 4, 2};
  EXPECT_NEAR(sap::linalg::pearson(x, y), 1.0, 1e-12);
  EXPECT_NEAR(sap::linalg::pearson(x, z), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSequenceIsZero) {
  const Vector x{1, 1, 1, 1};
  const Vector y{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(sap::linalg::pearson(x, y), 0.0);
}

TEST(Stats, KurtosisGaussianNearZeroUniformNegative) {
  Engine eng(16);
  Vector gauss(50000), unif(50000);
  for (auto& v : gauss) v = eng.normal();
  for (auto& v : unif) v = eng.uniform(-1.0, 1.0);
  EXPECT_NEAR(sap::linalg::excess_kurtosis(gauss), 0.0, 0.1);
  EXPECT_NEAR(sap::linalg::excess_kurtosis(unif), -1.2, 0.1);
}

// ------------------------------------------------------------ Blocked GEMM

// The blocked kernel's exactness contract: bit-identical to the naive ikj
// reference on every shape, because each output element accumulates as one
// left-to-right chain over ascending k in both.
class BlockedGemmExactness
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(BlockedGemmExactness, BitIdenticalToNaiveReference) {
  const auto [m, k, n] = GetParam();
  Engine eng(m * 1000 + k * 100 + n);
  const Matrix a = random_matrix(m, k, eng);
  const Matrix b = random_matrix(k, n, eng);
  const Matrix ref = sap::linalg::matmul_naive(a, b);
  const Matrix blocked = a * b;  // operator* routes through gemm()
  EXPECT_TRUE(blocked == ref);   // exact, not approx
  Matrix c(m, n, 123.0);         // beta = 0 must overwrite stale contents
  sap::linalg::gemm(1.0, a, b, 0.0, c);
  EXPECT_TRUE(c == ref);
}

INSTANTIATE_TEST_SUITE_P(
    RaggedShapes, BlockedGemmExactness,
    ::testing::Values(std::make_tuple(1, 1, 1),    // degenerate
                      std::make_tuple(1, 7, 1),    // 1 x k x 1
                      std::make_tuple(1, 9, 6),    // single row
                      std::make_tuple(9, 5, 1),    // single column
                      std::make_tuple(3, 3, 3),    // below one row tile
                      std::make_tuple(5, 7, 3),    // odd everything
                      std::make_tuple(7, 300, 11), // k crosses the panel size
                      std::make_tuple(34, 34, 160),// the d=34 perturb shape
                      std::make_tuple(64, 64, 64),
                      std::make_tuple(33, 17, 41)));

TEST(BlockedGemm, AlphaBetaAccumulate) {
  Engine eng(21);
  const Matrix a = random_matrix(6, 9, eng);
  const Matrix b = random_matrix(9, 13, eng);
  Matrix c = random_matrix(6, 13, eng);
  // Reference with the same chain structure: scale C by beta, then
  // accumulate (alpha * a_ik) * b_kj over ascending k.
  Matrix ref = c;
  for (auto& v : ref.data()) v *= 0.5;
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t k = 0; k < 9; ++k) {
      const double av = 2.25 * a(i, k);
      for (std::size_t j = 0; j < 13; ++j) ref(i, j) += av * b(k, j);
    }
  sap::linalg::gemm(2.25, a, b, 0.5, c);
  EXPECT_TRUE(c == ref);
}

TEST(BlockedGemm, RowBiasEpilogueMatchesSeparatePass) {
  Engine eng(22);
  const Matrix a = random_matrix(7, 31, eng);
  const Matrix b = random_matrix(31, 19, eng);
  Vector t(7);
  for (auto& v : t) v = eng.normal();
  Matrix ref = sap::linalg::matmul_naive(a, b);
  for (std::size_t i = 0; i < 7; ++i)
    for (auto& v : ref.row(i)) v += t[i];
  Matrix c(7, 19);
  sap::linalg::gemm(1.0, a, b, 0.0, c, t);
  EXPECT_TRUE(c == ref);
}

TEST(BlockedGemm, ShapeMismatchThrows) {
  const Matrix a(3, 4), b(5, 2);
  Matrix c(3, 2);
  EXPECT_THROW(sap::linalg::gemm(1.0, a, b, 0.0, c), sap::Error);
  const Matrix b2(4, 2);
  Matrix bad_c(2, 2);
  EXPECT_THROW(sap::linalg::gemm(1.0, a, b2, 0.0, bad_c), sap::Error);
  Matrix good_c(3, 2);
  Vector bad_bias(2);
  EXPECT_THROW(sap::linalg::gemm(1.0, a, b2, 0.0, good_c, bad_bias), sap::Error);
}

TEST(MatMulAbt, BitIdenticalToRowDots) {
  Engine eng(23);
  const Matrix a = random_matrix(9, 47, eng);
  const Matrix b = random_matrix(6, 47, eng);
  const Matrix c = sap::linalg::matmul_abt(a, b);
  ASSERT_EQ(c.rows(), 9u);
  ASSERT_EQ(c.cols(), 6u);
  for (std::size_t i = 0; i < 9; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      EXPECT_EQ(c(i, j), sap::linalg::dot(a.row(i), b.row(j)));
}

TEST(GatherCols, MatchesPerColumnCopy) {
  Engine eng(24);
  const Matrix x = random_matrix(5, 12, eng);
  const std::vector<std::size_t> idx{7, 0, 7, 11, 3};
  const Matrix out = sap::linalg::gather_cols(x, idx);
  ASSERT_EQ(out.rows(), 5u);
  ASSERT_EQ(out.cols(), idx.size());
  for (std::size_t j = 0; j < idx.size(); ++j) {
    const Vector expected = x.col(idx[j]);
    for (std::size_t r = 0; r < 5; ++r) EXPECT_EQ(out(r, j), expected[r]);
  }
  const std::vector<std::size_t> bad{12};
  EXPECT_THROW((void)sap::linalg::gather_cols(x, bad), sap::Error);
}

// ------------------------------------------------------------ FastICA pins

TEST(FastIcaPins, BitIdenticalToPinnedOutput) {
  // fast_ica runs on raw storage and reused gemm outputs; its arithmetic
  // order is the element-loop original's, so the output is pinned bit for
  // bit: an FNV-1a digest over every bit of sources and unmixing, plus two
  // elements of each as hex floats (x86-64 build, no FMA contraction).
  Engine eng(31);
  const std::size_t d = 6, n = 160;
  const Matrix s = Matrix::generate(d, n, [&] { return eng.uniform(); });
  const Matrix r = sap::linalg::random_orthogonal(d, eng);
  const auto res = sap::privacy::fast_ica(r * s, {}, eng);

  std::uint64_t h = 1469598103934665603ULL;
  for (const Matrix* m : {&res.sources, &res.unmixing})
    for (const double v : m->data()) {
      const auto bits = std::bit_cast<std::uint64_t>(v);
      for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xffU;
        h *= 1099511628211ULL;
      }
    }
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 13u);
  EXPECT_EQ(res.sources(0, 0), 0x1.1b77f7756970ep+1);
  EXPECT_EQ(res.sources(d - 1, n - 1), 0x1.80713e4c87edfp-1);
  EXPECT_EQ(res.unmixing(0, 0), 0x1.9e4576a3cc7f6p+1);
  EXPECT_EQ(res.unmixing(d - 1, d - 1), -0x1.138b5d8cf3cf4p+1);
  EXPECT_EQ(h, 0xde55b8852cafbbdcULL);
}

}  // namespace
