// Statistics the pipeline benchmark reports, kept free of I/O and sockets so
// perfbench/tests/stats_test.cpp can pin them down:
//
//   * percentiles by nearest rank, reported only when at least kTailSamples
//     samples lie beyond them (a p99 needs >= 1000 samples);
//   * open-loop latency timed from each request's DUE time, so a stalled
//     request charges every request queued behind it on its connection;
//   * failed, refused and shed operations enter every latency sample set as
//     kMissMs, so they miss any limit instead of vanishing;
//   * span self time: a span's duration minus the part of it that its
//     direct children cover.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace sapbench {

/// Latency charged to an operation that failed, was refused or was shed.
/// Finite so it survives JSON, and far above any latency limit.
inline constexpr double kMissMs = 1e6;

/// Samples that must lie strictly beyond a percentile before it is reported.
inline constexpr std::size_t kTailSamples = 10;

/// 1-based nearest rank of quantile q among n samples.
inline std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// True when the q-quantile of n samples has at least kTailSamples samples
/// beyond it (n = 1000 supports the p99; n = 999 does not).
inline bool percentile_supported(std::size_t n, double q) {
  return n > 0 && n - nearest_rank(n, q) >= kTailSamples;
}

/// Nearest-rank quantile; 0 for an empty sample set.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = nearest_rank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// The median and the p99 of one latency sample set, with the sample count
/// and whether the p99 meets the tail-sample rule.
struct LatencySummary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool p99_supported = false;
};

inline LatencySummary summarize(const std::vector<double>& samples) {
  return {samples.size(), quantile(samples, 0.50), quantile(samples, 0.99),
          percentile_supported(samples.size(), 0.99)};
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---- open loop -----------------------------------------------------------

/// One operation of an open-loop schedule on a blocking connection (all
/// times in ms on one clock).
struct OpenOp {
  double due = 0.0;   ///< when the schedule says it is sent
  double sent = 0.0;  ///< when it actually went out
  double done = 0.0;  ///< when its reply (or failure) came back
  bool ok = true;     ///< false: failed, refused or shed
};

/// Latency of one open-loop operation, timed from its due time.
inline double due_latency_ms(const OpenOp& op) { return op.ok ? op.done - op.due : kMissMs; }

/// How late the generator itself sent `op`: the delay past the moment it
/// could have gone out (due, with its connection free since `conn_free`).
/// Waiting for the previous reply is the system's delay, not the
/// generator's, so it is excluded here and charged by due_latency_ms.
inline double generator_lateness_ms(const OpenOp& op, double conn_free) {
  return std::max(0.0, op.sent - std::max(op.due, conn_free));
}

// ---- spans ---------------------------------------------------------------

/// One driver-side span: a named interval, the span that caused it (-1 for a
/// root) and the request it belongs to (0 = none).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t rid = 0;
};

/// Self time per span name, in ms: each span's duration minus the union of
/// its direct children's intervals clipped to the span.
inline std::map<std::string, double> self_time_ms(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (auto [b, e] : iv) {
      b = std::max(b, cursor);
      e = std::min(e, s.end_ns);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self;
}

}  // namespace sapbench
