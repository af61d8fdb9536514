#include "classify/svm.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/stats.hpp"

namespace sap::ml {
namespace {

double rbf(std::span<const double> a, std::span<const double> b, double gamma) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::exp(-gamma * acc);
}

}  // namespace

BinarySvm::BinarySvm(SvmOptions opts) : opts_(opts) {
  SAP_REQUIRE(opts_.c > 0.0, "BinarySvm: C must be positive");
  SAP_REQUIRE(opts_.tolerance > 0.0, "BinarySvm: tolerance must be positive");
}

void BinarySvm::fit(const linalg::Matrix& x, const std::vector<int>& y) {
  const std::size_t n = x.rows();
  SAP_REQUIRE(n >= 2, "BinarySvm::fit: need at least two records");
  SAP_REQUIRE(y.size() == n, "BinarySvm::fit: label count mismatch");
  for (int label : y)
    SAP_REQUIRE(label == 1 || label == -1, "BinarySvm::fit: labels must be -1/+1");

  // gamma heuristic: 1 / (d * mean feature variance) — scale-free default.
  gamma_ = opts_.gamma;
  if (gamma_ <= 0.0) {
    const linalg::Vector sd = linalg::col_stddev(x);
    double var = 0.0;
    for (double s : sd) var += s * s;
    var /= static_cast<double>(sd.size());
    gamma_ = 1.0 / (static_cast<double>(x.cols()) * std::max(var, 1e-9));
  }

  // Cached Gram matrix: all pairwise kernels, O(n^2) memory (8 n^2 bytes:
  // 2k records -> 32 MB). n is bounded by the dataset sizes in this library.
  linalg::Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    k(i, i) = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = rbf(x.row(i), x.row(j), gamma_);
      k(i, j) = v;
      k(j, i) = v;
    }
  }

  std::vector<double> alpha(n, 0.0);
  double b = 0.0;
  rng::Engine eng(opts_.seed);

  // SMO error cache (Platt 1998; Keerthi et al. 2001): err[t] = f(x_t) - y_t,
  // kept current in O(n) per accepted step, so a KKT check or a partner read
  // is one load. alpha = 0 and b = 0 make f = 0, so it starts at -y.
  std::vector<double> err(n);
  for (std::size_t t = 0; t < n; ++t) err[t] = -static_cast<double>(y[t]);

  const double c = opts_.c;
  const double tol = opts_.tolerance;
  std::size_t passes = 0;
  std::size_t iter = 0;
  while (passes < opts_.max_passes && iter < opts_.max_iterations) {
    ++iter;
    std::size_t changed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double ei = err[i];
      const bool violates = (y[i] * ei < -tol && alpha[i] < c) ||
                            (y[i] * ei > tol && alpha[i] > 0.0);
      if (!violates) continue;

      std::size_t j = eng.uniform_index(n - 1);
      if (j >= i) ++j;
      const double ej = err[j];

      const double ai_old = alpha[i];
      const double aj_old = alpha[j];
      double lo, hi;
      if (y[i] != y[j]) {
        lo = std::max(0.0, aj_old - ai_old);
        hi = std::min(c, c + aj_old - ai_old);
      } else {
        lo = std::max(0.0, ai_old + aj_old - c);
        hi = std::min(c, ai_old + aj_old);
      }
      if (lo >= hi) continue;

      const double eta = 2.0 * k(i, j) - k(i, i) - k(j, j);
      if (eta >= 0.0) continue;

      double aj = aj_old - y[j] * (ei - ej) / eta;
      aj = std::clamp(aj, lo, hi);
      if (std::abs(aj - aj_old) < 1e-6) continue;
      const double ai = ai_old + y[i] * y[j] * (aj_old - aj);
      alpha[i] = ai;
      alpha[j] = aj;

      const double di = y[i] * (ai - ai_old);
      const double dj = y[j] * (aj - aj_old);
      const double b1 = b - ei - di * k(i, i) - dj * k(i, j);
      const double b2 = b - ej - di * k(i, j) - dj * k(j, j);
      const double b_old = b;
      if (ai > 0.0 && ai < c) {
        b = b1;
      } else if (aj > 0.0 && aj < c) {
        b = b2;
      } else {
        b = 0.5 * (b1 + b2);
      }

      const double db = b - b_old;
      const auto ki = k.row(i);
      const auto kj = k.row(j);
      for (std::size_t t = 0; t < n; ++t) err[t] += di * ki[t] + dj * kj[t] + db;
      ++changed;
    }
    passes = (changed == 0) ? passes + 1 : 0;
  }

  // Retain support vectors only.
  std::vector<std::size_t> sv_idx;
  for (std::size_t i = 0; i < n; ++i)
    if (alpha[i] > 1e-8) sv_idx.push_back(i);
  // Degenerate but legal outcome (perfectly separated by bias alone):
  // keep one record so decision() stays defined.
  if (sv_idx.empty()) sv_idx.push_back(0);

  sv_ = linalg::Matrix(sv_idx.size(), x.cols());
  alpha_y_.resize(sv_idx.size());
  for (std::size_t t = 0; t < sv_idx.size(); ++t) {
    sv_.set_row(t, x.row(sv_idx[t]));
    alpha_y_[t] = alpha[sv_idx[t]] * y[sv_idx[t]];
  }
  bias_ = b;
}

double BinarySvm::decision(std::span<const double> record) const {
  SAP_REQUIRE(trained(), "BinarySvm::decision before fit");
  SAP_REQUIRE(record.size() == sv_.cols(), "BinarySvm::decision: dimension mismatch");
  double acc = bias_;
  for (std::size_t t = 0; t < sv_.rows(); ++t)
    acc += alpha_y_[t] * rbf(sv_.row(t), record, gamma_);
  return acc;
}

Svm::Svm(SvmOptions opts) : opts_(opts) {}

void Svm::fit(const data::Dataset& train) {
  SAP_REQUIRE(train.size() >= 2, "Svm::fit: need at least two records");
  classes_ = train.classes();
  SAP_REQUIRE(classes_.size() >= 2, "Svm::fit: need at least two classes");
  machines_.clear();

  // One binary machine per unordered class pair (one-vs-one).
  for (std::size_t a = 0; a < classes_.size(); ++a) {
    for (std::size_t b2 = a + 1; b2 < classes_.size(); ++b2) {
      std::vector<std::size_t> idx;
      for (std::size_t i = 0; i < train.size(); ++i)
        if (train.label(i) == classes_[a] || train.label(i) == classes_[b2])
          idx.push_back(i);
      linalg::Matrix x(idx.size(), train.dims());
      std::vector<int> y(idx.size());
      for (std::size_t i = 0; i < idx.size(); ++i) {
        x.set_row(i, train.record(idx[i]));
        y[i] = (train.label(idx[i]) == classes_[a]) ? 1 : -1;
      }
      Pair pair{classes_[a], classes_[b2], BinarySvm(opts_)};
      pair.machine.fit(x, y);
      machines_.push_back(std::move(pair));
    }
  }
}

int Svm::predict(std::span<const double> record) const {
  SAP_REQUIRE(trained(), "Svm::predict before fit");
  // Vote across pairwise machines; break ties by total decision magnitude.
  std::vector<std::size_t> votes(classes_.size(), 0);
  std::vector<double> strength(classes_.size(), 0.0);
  for (const auto& pair : machines_) {
    const double dec = pair.machine.decision(record);
    const int winner = dec >= 0.0 ? pair.positive : pair.negative;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      if (classes_[c] == winner) {
        ++votes[c];
        strength[c] += std::abs(dec);
        break;
      }
    }
  }
  std::size_t best = 0;
  for (std::size_t c = 1; c < classes_.size(); ++c) {
    if (votes[c] > votes[best] ||
        (votes[c] == votes[best] && strength[c] > strength[best]))
      best = c;
  }
  return classes_[best];
}

}  // namespace sap::ml
