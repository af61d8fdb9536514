// Mining-serving throughput: cached parameterized serving vs per-request
// retraining, across engine thread counts.
//
// The bench builds one unified pool (no protocol cost — the engine serves
// standalone, exactly as it does inside a session's Mine state), then pushes
// a fixed request load through a fresh MiningEngine in three configurations:
//
//   retrain-8t    cache off, 8 threads  — PR 1's effective behavior: every
//                 request re-trains its model from scratch;
//   cached-8t     cache on,  8 threads  — the train-once/query-many split;
//   cached-serial cache on,  0 threads  — the serial reference execution.
//
// The acceptance bar — cached serving >= 5x retraining at 8 threads — is
// judged on the median per-pair req/s ratio of interleaved cached/retrain
// leg pairs (bench_util::paired_ab), with the ratios' IQR beside it. One
// single-shot pair is too noisy to gate on (4.5x to 6.5x across quick runs
// on a 4-thread host): the cached leg's wall time is its few concurrent
// cold fits, so it moves with scheduling. Every cached-8t leg's
// reports must be bit-identical to the serial reference (the determinism
// invariant). Both gates set the exit code.
// Output: aligned table on stdout + BENCH_throughput_mining.json (per-mode
// medians over the legs; the cached row carries the paired ratio).
//
// Usage: throughput_mining [--quick] [--requests N] [--dataset name]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "protocol/mining_engine.hpp"

namespace {

using sap::Stopwatch;
using sap::Table;
namespace proto = sap::proto;

/// The serving load: parameterized trainable requests over a handful of
/// distinct hyperparameter sets (so the cache holds several live models),
/// mixed with cheap structural requests — a plausible query mix for one
/// exchange serving many analysts.
std::vector<proto::MiningRequest> make_load(std::size_t count) {
  const std::vector<proto::MiningRequest> variants = {
      {"svm-train-accuracy", {{"c", 1.0}, {"eval-records", 64.0}}},
      {"svm-train-accuracy", {{"c", 8.0}, {"eval-records", 64.0}}},
      {"perceptron-train-accuracy", {{"epochs", 40.0}, {"eval-records", 64.0}}},
      {"knn-train-accuracy", {{"k", 3.0}, {"eval-records", 64.0}}},
      {"knn-train-accuracy", {{"k", 7.0}, {"eval-records", 64.0}}},
      {"nb-train-accuracy", {{"eval-records", 64.0}}},
      {"record-count", {}},
      {"class-histogram", {}},
  };
  std::vector<proto::MiningRequest> load;
  load.reserve(count);
  for (std::size_t i = 0; i < count; ++i) load.push_back(variants[i % variants.size()]);
  return load;
}

struct RunStats {
  double wall_ms = 0.0;
  double req_per_sec = 0.0;
  sap::bench::LatencySummary latency;  ///< per-request ms (histogram-backed)
  std::size_t fits = 0;
  std::size_t hits = 0;
  std::vector<proto::MiningResponse> responses;
};

RunStats serve(const sap::data::Dataset& pool, const std::vector<proto::MiningRequest>& load,
               std::size_t threads, bool cache) {
  proto::MiningEngine engine({.threads = threads,
                              .cache_models = cache,
                              .shards = 1,
                              .layout = proto::ShardLayout::kHashMod,
                              .owned = {}});
  engine.set_pool(pool);
  Stopwatch sw;
  RunStats stats;
  stats.responses = engine.run_batch(load);
  stats.wall_ms = sw.millis();
  stats.req_per_sec = 1000.0 * static_cast<double>(load.size()) / stats.wall_ms;

  std::vector<double> lat;
  lat.reserve(stats.responses.size());
  for (const auto& r : stats.responses) lat.push_back(r.millis);
  stats.latency = sap::bench::summarize_latency(lat);
  const auto cache_stats = engine.cache_stats();
  stats.fits = cache_stats.fits;
  stats.hits = cache_stats.hits;
  return stats;
}

bool reports_identical(const std::vector<proto::MiningResponse>& a,
                       const std::vector<proto::MiningResponse>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].values != b[i].values) return false;  // bit-exact comparison
  return true;
}

/// The leg with the median req/s: its row stands for the mode in the table.
const RunStats& median_leg(const std::vector<RunStats>& legs) {
  std::vector<const RunStats*> order;
  order.reserve(legs.size());
  for (const auto& l : legs) order.push_back(&l);
  std::sort(order.begin(), order.end(), [](const RunStats* a, const RunStats* b) {
    return a->req_per_sec < b->req_per_sec;
  });
  return *order[order.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t requests = 512;
  constexpr std::size_t pairs = 7;
  std::string dataset = "Diabetes";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      requests = 96;
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      if (requests == 0) {
        std::fprintf(stderr, "error: --requests needs a positive count\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--dataset") == 0 && i + 1 < argc) {
      dataset = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: throughput_mining [--quick] [--requests N] [--dataset name]\n");
      return 2;
    }
  }

  const auto pool = sap::bench::normalized_uci(dataset, /*seed=*/17);
  const auto load = make_load(requests);
  std::printf("pool: %s (%zu records x %zu dims), %zu requests, %zu leg pairs\n\n",
              pool.name().c_str(), pool.size(), pool.dims(), load.size(), pairs);

  const RunStats serial = serve(pool, load, /*threads=*/0, /*cache=*/true);

  // Interleaved cached/retrain pairs. Each cached leg is checked against the
  // serial reference, then drops its responses.
  std::vector<RunStats> retrain_legs, cached_legs;
  bool identical = true;
  const sap::bench::PairedRatio ratio = sap::bench::paired_ab(
      pairs,
      [&] {
        RunStats leg = serve(pool, load, /*threads=*/8, /*cache=*/true);
        identical = identical && reports_identical(leg.responses, serial.responses);
        leg.responses.clear();
        cached_legs.push_back(std::move(leg));
        return std::vector<double>{cached_legs.back().req_per_sec};
      },
      [&] {
        RunStats leg = serve(pool, load, /*threads=*/8, /*cache=*/false);
        leg.responses.clear();
        retrain_legs.push_back(std::move(leg));
        return std::vector<double>{retrain_legs.back().req_per_sec};
      })[0];

  Table table({"mode", "threads", "requests", "legs", "wall ms", "req/s", "p50 ms",
               "p95 ms", "p99 ms", "fits", "cache hits", "speedup", "speedup iqr"});
  const auto add = [&](const char* mode, std::size_t threads, std::size_t legs,
                       const RunStats& s, const std::string& speedup,
                       const std::string& iqr) {
    table.add_row({mode, std::to_string(threads), std::to_string(requests),
                   std::to_string(legs), Table::num(s.wall_ms, 1),
                   Table::num(s.req_per_sec, 1), Table::num(s.latency.p50, 3),
                   Table::num(s.latency.p95, 3), Table::num(s.latency.p99, 3),
                   std::to_string(s.fits), std::to_string(s.hits), speedup, iqr});
  };
  add("retrain-8t", 8, retrain_legs.size(), median_leg(retrain_legs), "1.00", "-");
  add("cached-8t", 8, cached_legs.size(), median_leg(cached_legs),
      Table::num(ratio.median, 2), Table::num(ratio.iqr, 2));
  add("cached-serial", 0, 1, serial, "-", "-");
  sap::bench::emit_table("throughput_mining", table,
                         {.transport = "simulated", .threads = 8});

  std::printf("\ncached/retrain speedup at 8 threads: %.2fx median of %zu pairs "
              "(IQR %.2f)\n",
              ratio.median, pairs, ratio.iqr);

  // Determinism invariant: every threaded batch's reports are bit-identical
  // to the serial reference.
  if (!identical) {
    std::fprintf(stderr, "FAIL: threaded reports differ from serial reference\n");
    return 1;
  }
  std::printf("determinism: threaded reports bit-identical to serial (ok)\n");

  if (ratio.median < 5.0) {
    std::fprintf(stderr, "FAIL: cached serving speedup %.2fx below the 5x bar\n",
                 ratio.median);
    return 1;
  }
  return 0;
}
