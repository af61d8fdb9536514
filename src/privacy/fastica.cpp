#include "privacy/fastica.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "linalg/decompose.hpp"
#include "linalg/stats.hpp"

namespace sap::privacy {
namespace {

/// Symmetric decorrelation: W <- (W W^T)^{-1/2} W.
linalg::Matrix symmetric_decorrelate(const linalg::Matrix& w) {
  const linalg::Matrix gram = w * w.transpose();
  const auto eig = linalg::sym_eigen(gram);
  linalg::Matrix d_inv_sqrt(gram.rows(), gram.rows());
  for (std::size_t i = 0; i < gram.rows(); ++i) {
    SAP_REQUIRE(eig.values[i] > 1e-12, "fast_ica: degenerate decorrelation");
    d_inv_sqrt(i, i) = 1.0 / std::sqrt(eig.values[i]);
  }
  return eig.vectors * d_inv_sqrt * eig.vectors.transpose() * w;
}

}  // namespace

FastIcaResult fast_ica(const linalg::Matrix& observations, const FastIcaOptions& opts,
                       rng::Engine& eng) {
  const std::size_t d = observations.rows();
  const std::size_t n = observations.cols();
  SAP_REQUIRE(d >= 2, "fast_ica: need at least two dimensions");
  SAP_REQUIRE(n >= 8, "fast_ica: need at least eight observations");
  const std::size_t k = (opts.components == 0) ? d : std::min(opts.components, d);

  // ---- center
  linalg::Matrix x = observations;
  const linalg::Vector mean = linalg::row_means(x);
  for (std::size_t i = 0; i < d; ++i) {
    auto row = x.row(i);
    for (auto& v : row) v -= mean[i];
  }

  // ---- whiten: Z = D^{-1/2} V^T X with cov = V D V^T
  const linalg::Matrix cov = linalg::covariance_cols(x);
  const auto eig = linalg::sym_eigen(cov);
  SAP_REQUIRE(eig.values[k - 1] > 1e-12, "fast_ica: covariance too degenerate to whiten");
  linalg::Matrix whitener(k, d);
  for (std::size_t i = 0; i < k; ++i) {
    const double scale = 1.0 / std::sqrt(eig.values[i]);
    for (std::size_t j = 0; j < d; ++j) whitener(i, j) = scale * eig.vectors(j, i);
  }
  const linalg::Matrix z = whitener * x;  // k x N, identity covariance

  // ---- symmetric fixed-point iteration with g = tanh
  linalg::Matrix w = linalg::Matrix::generate(k, k, [&] { return eng.normal(); });
  w = symmetric_decorrelate(w);

  // Iteration scratch, shaped once. zt (N x k) holds z's columns as
  // contiguous rows, so E[g(w^T z) z^T] is the product g(proj) * zt, whose
  // gemm chains run over ascending t exactly as the per-sample loop did.
  const linalg::Matrix zt = z.transpose();
  linalg::Matrix proj(k, n);
  linalg::Matrix gz(k, k);
  linalg::Matrix w_new(k, k);
  linalg::Vector gprime(k);

  FastIcaResult result;
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    linalg::gemm(1.0, w, z, 0.0, proj);  // k x N

    // E[g(w^T z) z^T] and E[g'(w^T z)]; proj becomes g(proj) in place.
    for (std::size_t i = 0; i < k; ++i) {
      auto prow = proj.row(i);
      double gp = 0.0;
      for (double& p : prow) {
        const double g = std::tanh(p);
        gp += 1.0 - g * g;
        p = g;
      }
      gprime[i] = gp;
    }
    linalg::gemm(1.0, proj, zt, 0.0, gz);

    const double* pgz = gz.data().data();
    const double* pw = w.data().data();
    double* pnew = w_new.data().data();
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < k; ++j)
        pnew[i * k + j] = pgz[i * k + j] * inv_n - gprime[i] * inv_n * pw[i * k + j];
    w_new = symmetric_decorrelate(w_new);

    // Convergence: rows should align with previous rows up to sign.
    double delta = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const double align = std::abs(linalg::dot(w_new.row(i), w.row(i)));
      delta = std::max(delta, std::abs(1.0 - align));
    }
    std::swap(w, w_new);
    result.iterations = iter + 1;
    if (delta < opts.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.sources = w * z;           // k x N
  result.unmixing = w * whitener;   // k x d acting on centered data
  return result;
}

}  // namespace sap::privacy
