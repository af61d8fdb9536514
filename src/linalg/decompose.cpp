#include "linalg/decompose.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace sap::linalg {

// ---------------------------------------------------------------- QR

Qr qr_decompose(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  SAP_REQUIRE(m > 0 && n > 0, "qr_decompose: empty matrix");

  // Raw row-major storage after the one shape check (DESIGN.md §8): the
  // same expressions in the same order as the element-access loop.
  Matrix r = a;
  Matrix q = Matrix::identity(m);
  double* pr = r.data().data();
  double* pq = q.data().data();

  const std::size_t steps = std::min(m == 0 ? 0 : m - 1, n);
  for (std::size_t k = 0; k < steps; ++k) {
    // Householder vector for column k below the diagonal.
    double norm_x = 0.0;
    for (std::size_t i = k; i < m; ++i) norm_x += pr[i * n + k] * pr[i * n + k];
    norm_x = std::sqrt(norm_x);
    if (norm_x == 0.0) continue;

    const double alpha = (pr[k * n + k] >= 0.0) ? -norm_x : norm_x;
    Vector v(m - k, 0.0);
    v[0] = pr[k * n + k] - alpha;
    for (std::size_t i = k + 1; i < m; ++i) v[i - k] = pr[i * n + k];
    const double vnorm = norm2(v);
    if (vnorm < 1e-300) continue;
    for (auto& x : v) x /= vnorm;

    // r := (I - 2 v v^T) r on the trailing block.
    for (std::size_t j = k; j < n; ++j) {
      double proj = 0.0;
      for (std::size_t i = k; i < m; ++i) proj += v[i - k] * pr[i * n + j];
      proj *= 2.0;
      for (std::size_t i = k; i < m; ++i) pr[i * n + j] -= proj * v[i - k];
    }
    // q := q (I - 2 v v^T)  (accumulate reflections on the right so that
    // q * r == a at every step).
    for (std::size_t i = 0; i < m; ++i) {
      double* qi = pq + i * m;
      double proj = 0.0;
      for (std::size_t j = k; j < m; ++j) proj += qi[j] * v[j - k];
      proj *= 2.0;
      for (std::size_t j = k; j < m; ++j) qi[j] -= proj * v[j - k];
    }
  }
  // Clean numerical dust below the diagonal of R.
  for (std::size_t i = 1; i < m; ++i)
    for (std::size_t j = 0; j < std::min(i, n); ++j) pr[i * n + j] = 0.0;
  return {std::move(q), std::move(r)};
}

// ---------------------------------------------------------------- LU

Lu lu_decompose(const Matrix& a) {
  SAP_REQUIRE(a.rows() == a.cols(), "lu_decompose: matrix must be square");
  const std::size_t n = a.rows();
  SAP_REQUIRE(n > 0, "lu_decompose: empty matrix");

  Lu f;
  f.lu = a;
  f.piv.resize(n);
  std::iota(f.piv.begin(), f.piv.end(), std::size_t{0});

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest magnitude in column k at or below row k.
    std::size_t pivot = k;
    double best = std::abs(f.lu(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double mag = std::abs(f.lu(i, k));
      if (mag > best) {
        best = mag;
        pivot = i;
      }
    }
    SAP_REQUIRE(best > 1e-13, "lu_decompose: matrix is singular (to working precision)");
    if (pivot != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(f.lu(k, j), f.lu(pivot, j));
      std::swap(f.piv[k], f.piv[pivot]);
      f.sign = -f.sign;
    }
    const double diag = f.lu(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      f.lu(i, k) /= diag;
      const double lik = f.lu(i, k);
      if (lik == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) f.lu(i, j) -= lik * f.lu(k, j);
    }
  }
  return f;
}

Vector lu_solve(const Lu& f, std::span<const double> b) {
  const std::size_t n = f.lu.rows();
  SAP_REQUIRE(b.size() == n, "lu_solve: rhs size mismatch");
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[f.piv[i]];
  // Forward substitution (L has unit diagonal).
  for (std::size_t i = 1; i < n; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= f.lu(i, j) * x[j];
    x[i] = acc;
  }
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= f.lu(ii, j) * x[j];
    x[ii] = acc / f.lu(ii, ii);
  }
  return x;
}

Matrix lu_solve(const Lu& f, const Matrix& b) {
  SAP_REQUIRE(b.rows() == f.lu.rows(), "lu_solve: rhs row count mismatch");
  Matrix x(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    const Vector col = b.col(c);
    const Vector sol = lu_solve(f, col);
    x.set_col(c, sol);
  }
  return x;
}

Matrix inverse(const Matrix& a) {
  const Lu f = lu_decompose(a);
  return lu_solve(f, Matrix::identity(a.rows()));
}

double determinant(const Matrix& a) {
  SAP_REQUIRE(a.rows() == a.cols(), "determinant: matrix must be square");
  Lu f;
  try {
    f = lu_decompose(a);
  } catch (const Error&) {
    return 0.0;  // singular
  }
  double det = static_cast<double>(f.sign);
  for (std::size_t i = 0; i < a.rows(); ++i) det *= f.lu(i, i);
  return det;
}

// ---------------------------------------------------------------- Cholesky

Matrix cholesky(const Matrix& a) {
  SAP_REQUIRE(a.rows() == a.cols(), "cholesky: matrix must be square");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      if (i == j) {
        SAP_REQUIRE(acc > 0.0, "cholesky: matrix is not positive definite");
        l(i, i) = std::sqrt(acc);
      } else {
        l(i, j) = acc / l(j, j);
      }
    }
  }
  return l;
}

// ---------------------------------------------------------------- Jacobi eigen

SymEigen sym_eigen(const Matrix& a, double tol, int max_sweeps) {
  SAP_REQUIRE(a.rows() == a.cols(), "sym_eigen: matrix must be square");
  const std::size_t n = a.rows();
  // Symmetry in place: the same per-element test approx_equal(a^T, ...)
  // makes, without the transposed copy (|a_ij - a_ji| is symmetric in i, j,
  // so the upper triangle decides).
  const double sym_tol = 1e-8 * (1.0 + a.max_abs());
  const double* pa = a.data().data();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      SAP_REQUIRE(!(std::abs(pa[i * n + j] - pa[j * n + i]) > sym_tol),
                  "sym_eigen: matrix must be symmetric");

  // After the one shape check the rotations run on raw row-major storage,
  // as svd() below does. The eigenvector accumulator is kept TRANSPOSED
  // (row j of vt is column j of V), so its column rotation streams two
  // contiguous rows. The expressions and their order are the classic
  // element-access loop's, so the result is bit-identical to it.
  Matrix d = a;
  Matrix vt = Matrix::identity(n);
  double* pd = d.data().data();
  double* pv = vt.data().data();

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) off = std::max(off, std::abs(pd[p * n + q]));
    if (off <= tol * (1.0 + d.max_abs())) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = pd[p * n + q];
        if (std::abs(apq) <= 1e-300) continue;
        const double app = pd[p * n + p];
        const double aqq = pd[q * n + q];
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < n; ++k) {
          double* dk = pd + k * n;
          const double dkp = dk[p];
          const double dkq = dk[q];
          dk[p] = c * dkp - s * dkq;
          dk[q] = s * dkp + c * dkq;
        }
        double* dp = pd + p * n;
        double* dq = pd + q * n;
        for (std::size_t k = 0; k < n; ++k) {
          const double dpk = dp[k];
          const double dqk = dq[k];
          dp[k] = c * dpk - s * dqk;
          dq[k] = s * dpk + c * dqk;
        }
        double* vp = pv + p * n;
        double* vq = pv + q * n;
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = vp[k];
          const double vkq = vq[k];
          vp[k] = c * vkp - s * vkq;
          vq[k] = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort eigenpairs descending by eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Vector diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = pd[i * n + i];
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return diag[x] > diag[y]; });

  SymEigen out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  double* pout = out.vectors.data().data();
  for (std::size_t j = 0; j < n; ++j) out.values[j] = diag[order[j]];
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) pout[i * n + j] = pv[order[j] * n + i];
  return out;
}

// ---------------------------------------------------------------- SVD

Svd svd(const Matrix& a, double tol, int max_sweeps) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  SAP_REQUIRE(m > 0 && n > 0, "svd: empty matrix");

  if (m < n) {
    // Work on the transpose and swap factors back: A = U S V^T  <=>
    // A^T = V S U^T.
    Svd t = svd(a.transpose(), tol, max_sweeps);
    return {std::move(t.v), std::move(t.s), std::move(t.u)};
  }

  // One-sided Jacobi: orthogonalize the columns of W = A by plane rotations
  // applied on the right; accumulate them into V. The iteration runs on the
  // TRANSPOSED storage (each column of W / V is a contiguous row of wt / vt)
  // so the O(n^2) column sweeps stream cache lines instead of striding, and
  // the inner loops run on raw pointers instead of bounds-checked element
  // access. The arithmetic — expressions, accumulation order, tolerance
  // checks — is exactly the classic column-layout loop, so the factors are
  // bit-identical to it; only the traversal changed.
  Matrix wt = a.transpose();  // n x m: row j = column j of W
  Matrix vt(n, n);            // row j = column j of V
  for (std::size_t j = 0; j < n; ++j) vt(j, j) = 1.0;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool rotated = false;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double* wp = wt.row(p).data();
        double* wq = wt.row(q).data();
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          alpha += wp[i] * wp[i];
          beta += wq[i] * wq[i];
          gamma += wp[i] * wq[i];
        }
        if (std::abs(gamma) <= tol * std::sqrt(alpha * beta) || gamma == 0.0) continue;
        rotated = true;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t i = 0; i < m; ++i) {
          const double wip = wp[i];
          const double wiq = wq[i];
          wp[i] = c * wip - s * wiq;
          wq[i] = s * wip + c * wiq;
        }
        double* vp = vt.row(p).data();
        double* vq = vt.row(q).data();
        for (std::size_t i = 0; i < n; ++i) {
          const double vip = vp[i];
          const double viq = vq[i];
          vp[i] = c * vip - s * viq;
          vq[i] = s * vip + c * viq;
        }
      }
    }
    if (!rotated) break;
  }

  // Singular values are the column norms of W; U's columns are W normalized.
  Svd out;
  out.s.resize(n);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Vector norms(n);
  for (std::size_t j = 0; j < n; ++j) norms[j] = norm2(wt.row(j));
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return norms[x] > norms[y]; });

  // ut rows are U's columns; built sorted, normalized in place.
  Matrix ut(n, m);
  Matrix vsorted(n, n);
  std::vector<std::size_t> null_rows;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t src = order[j];
    out.s[j] = norms[src];
    auto dst = ut.row(j);
    if (norms[src] > 1e-300) {
      const auto wrow = wt.row(src);
      for (std::size_t i = 0; i < m; ++i) dst[i] = wrow[i] / norms[src];
    } else {
      // Null direction (rank-deficient input): completed below.
      null_rows.push_back(j);
    }
    vsorted.set_row(j, vt.row(src));
  }
  out.v = vsorted.transpose();

  // Complete null-space columns of U so its columns are always orthonormal
  // (A = U S V^T is unchanged: the completed columns multiply zero singular
  // values). Gram–Schmidt against the existing columns starting from
  // canonical basis vectors; a usable one always exists since rank < m.
  for (const std::size_t j : null_rows) {
    bool placed = false;
    for (std::size_t e = 0; e < m && !placed; ++e) {
      Vector v(m, 0.0);
      v[e] = 1.0;
      for (std::size_t c = 0; c < n; ++c) {
        if (c == j) continue;
        const auto uc = ut.row(c);
        const double proj = dot(uc, v);
        for (std::size_t i = 0; i < m; ++i) v[i] -= proj * uc[i];
      }
      const double residual = norm2(v);
      if (residual > 1e-6) {
        for (auto& x : v) x /= residual;
        ut.set_row(j, v);
        placed = true;
      }
    }
    SAP_REQUIRE(placed, "svd: failed to complete null-space basis");
  }
  out.u = ut.transpose();
  return out;
}

}  // namespace sap::linalg
