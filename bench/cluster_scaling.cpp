// Cluster scaling bench — the PR 8 acceptance gate (DESIGN.md §11).
//
// Spawns 1 -> 4 miner daemon PROCESSES (this binary re-execs itself with
// --miner, socket_throughput style) and drives them through a ShardRouter:
//
//   * exact-merge identity (always enforced): the merged reports at M = 2
//     and M = 4 miners are BIT-IDENTICAL to the single-miner reference —
//     before and after a routed ingest burst (record-count, class-histogram,
//     nb and knn train accuracy);
//   * near-linear scaling (enforced on >= 8 hardware threads): routed
//     ingest and request throughput at 4 miners >= 2.5x the single miner
//     (the timed requests all miss the router's result cache, enforced, so
//     they measure the scatter/merge path; a cached-read series is
//     reported beside it with no floor);
//   * failover (always enforced): with 4 miners x 2 replicas, SIGKILL one
//     miner mid-request-stream — every client request still succeeds (the
//     router retries the surviving replica under the epoch floor), zero
//     failures, and at least one failover actually happened.
//
// All floors are enforced by EXIT CODE so CI can gate on this binary.
//
//   cluster_scaling [--quick]        driver (the default)
//   cluster_scaling --miner S I R    internal: miner process, S shards,
//                                    owning index I with R replicas
//
// Determinism: every miner process runs the SAME 8-party exchange (same
// seed => bit-identical unified segments) and installs only its owned
// shards. kSeed is tuned so the 8 contribution nonces spread 2/2/2/2 over
// 4 hash-mod shards (and 4/4 over 2) — re-tune it if the optimizer or the
// partitioner changes the nonce stream (the driver checks and says so).
#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "net/cluster.hpp"
#include "net/remote.hpp"
#include "protocol/party_logic.hpp"

namespace {

using sap::data::Dataset;
using sap::rng::Engine;
namespace net = sap::net;
namespace proto = sap::proto;

constexpr std::uint64_t kSeed = 90058;  // tuned: 8 nonces -> 2/2/2/2 over 4 shards
constexpr std::size_t kParties = 8;
constexpr std::size_t kBatchRows = 16;
const char* const kMergeJobs[] = {"record-count", "class-histogram",
                                  "nb-train-accuracy", "knn-train-accuracy"};

/// The shared session setup — every miner process and the driver derive the
/// identical normalized pool and party partition from kSeed alone.
struct Session {
  Dataset pool;
  std::vector<Dataset> shards;
  proto::SapOptions sap;
};

Session make_session() {
  Session s;
  const Dataset raw = sap::data::make_uci("Diabetes", kSeed);
  sap::data::MinMaxNormalizer norm;
  norm.fit(raw.features());
  s.pool = Dataset(raw.name(), norm.transform(raw.features()), raw.labels());
  Engine shard_eng(kSeed ^ 0xBEEF);
  sap::data::PartitionOptions popts;
  s.shards = sap::data::partition(s.pool, kParties, popts, shard_eng);
  s.sap = proto::SapOptions::fast();
  s.sap.seed = kSeed;
  s.sap.compute_satisfaction = false;
  return s;
}

// ---- miner process -------------------------------------------------------

/// Child mode: one cluster member. Runs the daemon plus all 8 parties
/// in-process (the exchange is deterministic, so every member unifies the
/// same segments), prints "DOOR <port>" then "READY", and serves until the
/// driver SIGKILLs it.
int miner_main(std::size_t shards, std::size_t index, std::size_t replicas) {
  const Session s = make_session();

  net::MinerDaemonOptions opts;
  opts.listen = {"127.0.0.1", 0};
  opts.parties = kParties;
  opts.seed = kSeed;
  opts.reactor_loops = 2;
  opts.reactor_compute_threads = 2;
  opts.shards = shards;
  opts.shard_layout = proto::ShardLayout::kHashMod;
  if (shards > 1) {
    std::set<std::size_t> owned;
    for (std::size_t j = 0; j < replicas; ++j)
      owned.insert((index + shards - j) % shards);
    opts.owned_shards.assign(owned.begin(), owned.end());
  }
  net::MinerDaemon daemon(opts);
  std::printf("DOOR %u\n", static_cast<unsigned>(daemon.reactor_addr().port));
  std::fflush(stdout);

  auto daemon_future = std::async(std::launch::async, [&] { return daemon.run(); });
  std::promise<void> exchanged;
  std::vector<std::thread> parties;
  for (std::size_t i = 0; i < kParties; ++i) {
    parties.emplace_back([&, i] {
      net::PartyClientOptions popts;
      popts.connect = daemon.local_addr();
      popts.index = i;
      popts.parties = kParties;
      popts.sap = s.sap;
      net::PartyClient party(s.shards[i], popts);
      (void)party.run_exchange();
      if (i != 0) {
        party.finish();
        return;
      }
      // Party 0 holds its hub connection open forever so the daemon keeps
      // serving; the driver ends this process with SIGKILL.
      exchanged.set_value();
      for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
    });
  }
  exchanged.get_future().wait();
  // Party 0's exchange return races the daemon-side pool install by a hair;
  // probe our own door until it serves before announcing READY. Bounded
  // (lint R7): if our own door cannot serve within the budget the process
  // is wedged, and dying beats hanging the driver forever.
  bool door_up = false;
  for (int attempt = 0; attempt < 2000 && !door_up; ++attempt) {
    try {
      net::ServeClient probe(daemon.reactor_addr(), kSeed, kParties);
      (void)probe.mine_named("record-count");
      probe.bye();
      door_up = true;
    } catch (const sap::Error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  if (!door_up) {
    std::fprintf(stderr, "miner: own serving door never came up\n");
    return 1;
  }
  std::printf("READY\n");
  std::fflush(stdout);
  for (auto& t : parties) t.join();  // never returns
  return 0;
}

// ---- driver: process management ------------------------------------------

struct Miner {
  pid_t pid = -1;
  FILE* out = nullptr;
  net::SocketAddr door;
};

Miner spawn_miner(const char* self, std::size_t shards, std::size_t index,
                  std::size_t replicas) {
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(2);
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(2);
  }
  if (pid == 0) {
    ::dup2(fds[1], 1);
    ::close(fds[0]);
    ::close(fds[1]);
    char s_arg[16], i_arg[16], r_arg[16];
    std::snprintf(s_arg, sizeof s_arg, "%zu", shards);
    std::snprintf(i_arg, sizeof i_arg, "%zu", index);
    std::snprintf(r_arg, sizeof r_arg, "%zu", replicas);
    ::execl(self, self, "--miner", s_arg, i_arg, r_arg, (char*)nullptr);
    std::perror("execl");
    ::_exit(127);
  }
  ::close(fds[1]);
  Miner m;
  m.pid = pid;
  m.out = ::fdopen(fds[0], "r");
  unsigned port = 0;
  if (!m.out || std::fscanf(m.out, "DOOR %u\n", &port) != 1 || port == 0) {
    std::fprintf(stderr, "FAIL: miner %zu/%zu did not report a door\n", index, shards);
    std::exit(1);
  }
  m.door = {"127.0.0.1", static_cast<std::uint16_t>(port)};
  return m;
}

void await_ready(Miner& m) {
  char line[64];
  if (std::fscanf(m.out, "%15s", line) != 1 || std::strcmp(line, "READY") != 0) {
    std::fprintf(stderr, "FAIL: miner on port %u never became READY\n",
                 static_cast<unsigned>(m.door.port));
    std::exit(1);
  }
}

void kill_miner(Miner& m) {
  if (m.pid > 0) {
    ::kill(m.pid, SIGKILL);
    int status = 0;
    ::waitpid(m.pid, &status, 0);
    m.pid = -1;
  }
  if (m.out) {
    std::fclose(m.out);
    m.out = nullptr;
  }
}

net::ShardRouterOptions router_options(const std::vector<Miner>& miners,
                                       std::size_t replicas) {
  net::ShardRouterOptions ropts;
  for (const auto& m : miners) ropts.miners.push_back(m.door);
  ropts.replicas = replicas;
  ropts.layout = proto::ShardLayout::kHashMod;
  ropts.seed = kSeed;
  ropts.parties = kParties;
  return ropts;
}

// ---- driver: workload ----------------------------------------------------

/// One pre-encoded kContribution wire per party, perturbed with that
/// party's negotiated space (the same math the party process ran, so the
/// installed adaptor accepts it). Reused for every series so the canonical
/// pool after ingest is identical whatever the miner count.
std::vector<std::vector<double>> make_contribution_wires(const Session& s) {
  const auto seeds = proto::logic::derive_session_seeds(kSeed, kParties);
  std::vector<std::vector<double>> wires;
  std::vector<std::size_t> count4(4, 0);
  for (std::size_t i = 0; i < kParties; ++i) {
    Engine eng = seeds.provider_eng[i];
    const auto local = proto::logic::optimize_local(s.shards[i].features_T(),
                                                    s.shards[i].dims(), s.sap, eng);
    const Dataset batch = s.pool.slice(i * kBatchRows, (i + 1) * kBatchRows);
    const auto y = local.g.apply(batch.features_T(), eng);
    wires.push_back(proto::encode_contribution(local.nonce, y, batch.labels()));
    ++count4[proto::shard_of_nonce(local.nonce, 4, proto::ShardLayout::kHashMod)];
  }
  for (std::size_t g = 0; g < 4; ++g) {
    if (count4[g] != 2) {
      std::fprintf(stderr,
                   "FAIL: kSeed no longer balances the nonce hash (shard %zu got "
                   "%zu of %zu) — re-tune kSeed\n",
                   g, count4[g], kParties);
      std::exit(1);
    }
  }
  return wires;
}

/// Merged reports for every exact-merge job, in declaration order.
std::vector<std::vector<double>> merged_reports(net::ShardRouter& router) {
  std::vector<std::vector<double>> out;
  for (const char* job : kMergeJobs) {
    proto::JobParams params;
    if (std::strstr(job, "train-accuracy") != nullptr) params["eval-records"] = 64.0;
    out.push_back(router.mine_named(job, params).values);
  }
  return out;
}

void require_identical(const std::vector<std::vector<double>>& reference,
                       const std::vector<std::vector<double>>& got,
                       std::size_t miners, const char* when) {
  for (std::size_t j = 0; j < std::size(kMergeJobs); ++j) {
    if (got[j] != reference[j]) {
      std::fprintf(stderr,
                   "FAIL: %s report for %s at %zu miners is not bit-identical "
                   "to the single-miner reference\n",
                   when, kMergeJobs[j], miners);
      std::exit(1);
    }
  }
}

struct SeriesResult {
  double ingest_per_s = 0.0;
  double requests_per_s = 0.0;      ///< fan-out reads, every one a cache miss
  double miss_hit_ratio = 0.0;      ///< cache hits among those reads (must be 0)
  double hit_requests_per_s = 0.0;  ///< repeated reads, served from the cache
  double hit_ratio = 0.0;           ///< cache hits among the repeated reads
  std::vector<std::vector<double>> pre_reports;
  std::vector<std::vector<double>> post_reports;
};

/// One scaling series: M miners, replicas = 1. Reports, timed requests,
/// timed routed ingest, reports again.
SeriesResult run_series(const char* self, const Session& s,
                        const std::vector<std::vector<double>>& wires,
                        std::size_t miners, std::size_t requests_per_thread,
                        std::size_t batches_per_party) {
  std::vector<Miner> fleet;
  for (std::size_t i = 0; i < miners; ++i)
    fleet.push_back(spawn_miner(self, miners, i, 1));
  for (auto& m : fleet) await_ready(m);
  const auto ropts = router_options(fleet, 1);

  SeriesResult result;
  net::ShardRouter router(ropts);
  result.pre_reports = merged_reports(router);

  // Request throughput: 4 driver threads, each with its OWN router (the
  // router is not internally synchronized), all issuing knn reads. Two
  // series: the timed fan-out series cycles eval-records over one more value
  // than the result cache holds, so every read misses and pays the gather, the
  // partials and the merge this floor was set for; the hit series repeats
  // one read, so all but each fresh router's first two (it fills from its
  // second read) are served from the cache behind one epoch probe per
  // shard (reported, no floor).
  constexpr std::size_t kThreads = 4;
  const auto timed = [&](bool repeat, double& per_s, double& hit_ratio) {
    std::vector<std::thread> threads;
    std::vector<net::ShardRouter::CacheStats> cache(kThreads);
    sap::Stopwatch timer;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        net::ShardRouter mine(ropts);
        proto::JobParams params;
        params["eval-records"] = 64.0;
        for (std::size_t i = 0; i < requests_per_thread; ++i) {
          if (!repeat) {
            // 64, 65, 63, 66, 62, ...: distinct keys whose mean query
            // count stays at 64, cycling over capacity + 1 of them.
            const std::size_t j = i % (net::ShardRouter::kResultCacheCapacity + 1);
            const double step = static_cast<double>((j + 1) / 2);
            params["eval-records"] = 64.0 + (j % 2 == 1 ? step : -step);
          }
          (void)mine.mine_named("knn-train-accuracy", params);
        }
        cache[t] = mine.cache_stats();
      });
    }
    for (auto& t : threads) t.join();
    per_s = static_cast<double>(kThreads * requests_per_thread) / timer.seconds();
    double hits = 0.0;
    double reads = 0.0;
    for (const auto& c : cache) {
      hits += static_cast<double>(c.hits);
      reads += static_cast<double>(c.hits + c.misses);
    }
    hit_ratio = reads > 0.0 ? hits / reads : 0.0;
  };
  timed(false, result.requests_per_s, result.miss_hit_ratio);
  timed(true, result.hit_requests_per_s, result.hit_ratio);

  // Ingest throughput: one thread per party nonce (so per-nonce append
  // order — and with it the canonical pool — is deterministic whatever the
  // thread interleaving), each routing the same wire `batches_per_party`
  // times.
  {
    std::vector<std::thread> threads;
    sap::Stopwatch timer;
    for (std::size_t i = 0; i < kParties; ++i) {
      threads.emplace_back([&, i] {
        net::ShardRouter ingest(ropts);
        for (std::size_t b = 0; b < batches_per_party; ++b)
          (void)ingest.contribute_wire(wires[i]);
      });
    }
    for (auto& t : threads) t.join();
    result.ingest_per_s =
        static_cast<double>(kParties * batches_per_party) / timer.seconds();
  }

  result.post_reports = merged_reports(router);
  const std::size_t expected =
      s.pool.size() + kParties * batches_per_party * kBatchRows;
  if (result.post_reports[0].empty() ||
      result.post_reports[0][0] != static_cast<double>(expected)) {
    std::fprintf(stderr, "FAIL: %zu-miner pool lost contributions (%f != %zu)\n",
                 miners, result.post_reports[0].empty() ? -1.0 : result.post_reports[0][0],
                 expected);
    std::exit(1);
  }

  for (auto& m : fleet) kill_miner(m);
  return result;
}

/// Failover series: 4 miners x 2 replicas; SIGKILL miner 0 halfway through
/// a request stream. Returns {failed requests, router failovers}.
std::pair<std::size_t, std::size_t> run_failover(const char* self, std::size_t requests) {
  constexpr std::size_t kMiners = 4;
  std::vector<Miner> fleet;
  for (std::size_t i = 0; i < kMiners; ++i)
    fleet.push_back(spawn_miner(self, kMiners, i, 2));
  for (auto& m : fleet) await_ready(m);

  net::ShardRouter router(router_options(fleet, 2));
  std::size_t failed = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    if (i == requests / 2) kill_miner(fleet[0]);  // mid-bench SIGKILL
    try {
      proto::JobParams params;
      params["eval-records"] = 64.0;
      const auto resp = router.mine_named("knn-train-accuracy", params);
      if (resp.values.empty()) ++failed;
    } catch (const sap::Error& e) {
      std::fprintf(stderr, "failover request %zu failed: %s\n", i, e.what());
      ++failed;
    }
  }
  const std::size_t failovers = router.failovers();
  for (auto& m : fleet) kill_miner(m);
  return {failed, failovers};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 5 && std::strcmp(argv[1], "--miner") == 0)
    return miner_main(static_cast<std::size_t>(std::atoi(argv[2])),
                      static_cast<std::size_t>(std::atoi(argv[3])),
                      static_cast<std::size_t>(std::atoi(argv[4])));
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: cluster_scaling [--quick]\n");
      return 2;
    }
  }
  ::signal(SIGPIPE, SIG_IGN);

  const std::size_t requests_per_thread = quick ? 8 : 40;
  const std::size_t batches_per_party = quick ? 12 : 60;
  const std::size_t failover_requests = quick ? 16 : 48;

  const Session session = make_session();
  const auto wires = make_contribution_wires(session);

  sap::Table table({"miners", "shards", "replicas", "ingest_batches_s",
                    "requests_s", "req_hit_ratio", "req_speedup", "hit_requests_s",
                    "hit_ratio", "identical", "failed", "failovers"});
  const std::size_t fleet_sizes[] = {1, 2, 4};
  std::vector<SeriesResult> results;
  for (const std::size_t m : fleet_sizes) {
    std::printf("-- scaling series: %zu miner%s\n", m, m == 1 ? "" : "s");
    results.push_back(run_series(argv[0], session, wires, m, requests_per_thread,
                                 batches_per_party));
    // Exact-merge identity: reports at M miners == the M = 1 reference,
    // bit for bit, before and after the ingest burst.
    require_identical(results[0].pre_reports, results.back().pre_reports, m, "pre-ingest");
    require_identical(results[0].post_reports, results.back().post_reports, m,
                      "post-ingest");
    table.add_row({sap::Table::num(static_cast<double>(m), 0),
                   sap::Table::num(static_cast<double>(m), 0), sap::Table::num(1, 0),
                   sap::Table::num(results.back().ingest_per_s, 1),
                   sap::Table::num(results.back().requests_per_s, 1),
                   sap::Table::num(results.back().miss_hit_ratio, 3),
                   sap::Table::num(results.back().requests_per_s /
                                         results[0].requests_per_s, 2),
                   sap::Table::num(results.back().hit_requests_per_s, 1),
                   sap::Table::num(results.back().hit_ratio, 3),
                   "yes", sap::Table::num(0, 0), sap::Table::num(0, 0)});
  }

  std::printf("-- failover series: 4 miners x 2 replicas, SIGKILL mid-stream\n");
  const auto [failed, failovers] = run_failover(argv[0], failover_requests);
  table.add_row({sap::Table::num(4, 0), sap::Table::num(4, 0), sap::Table::num(2, 0),
                 "-", "-", "-", "-", "-", "-", "-",
                 sap::Table::num(static_cast<double>(failed), 0),
                 sap::Table::num(static_cast<double>(failovers), 0)});

  sap::bench::BenchMeta meta;
  meta.transport = "cluster-tcp";
  meta.shards = 4;
  meta.replicas = 2;
  sap::bench::emit_table("cluster_scaling", table, meta);

  // ---- enforced floors ---------------------------------------------------
  bool ok = true;
  if (failed != 0) {
    std::fprintf(stderr, "FAIL: %zu requests failed during replica failover\n", failed);
    ok = false;
  }
  if (failovers == 0) {
    std::fprintf(stderr, "FAIL: the failover series never hit a replica\n");
    ok = false;
  }
  // The request floor measures the fan-out path only if no timed read was
  // a cache hit.
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].miss_hit_ratio != 0.0) {
      std::fprintf(stderr, "FAIL: %zu-miner request series hit the result cache (%.3f)\n",
                   fleet_sizes[i], results[i].miss_hit_ratio);
      ok = false;
    }
  }
  const double req_speedup = results[2].requests_per_s / results[0].requests_per_s;
  const double ingest_speedup = results[2].ingest_per_s / results[0].ingest_per_s;
  std::printf("4-miner speedup: requests %.2fx (cache hit ratio %.3f), ingest %.2fx; "
              "cached reads %.1f req/s (hit ratio %.3f)\n",
              req_speedup, results[2].miss_hit_ratio, ingest_speedup,
              results[2].hit_requests_per_s, results[2].hit_ratio);
  // The scaling floor needs hardware to scale ON: 4 miner processes x
  // (2 loops + 2 compute lanes). On smaller machines (this includes most
  // CI runners) the identity + failover floors above still gate.
  const std::size_t cores = std::thread::hardware_concurrency();
  if (cores >= 8) {
    if (req_speedup < 2.5) {
      std::fprintf(stderr, "FAIL: request speedup %.2fx < 2.5x at 4 miners\n",
                   req_speedup);
      ok = false;
    }
    if (ingest_speedup < 2.5) {
      std::fprintf(stderr, "FAIL: ingest speedup %.2fx < 2.5x at 4 miners\n",
                   ingest_speedup);
      ok = false;
    }
  } else {
    std::printf("note: scaling floor skipped (%zu hardware threads < 8)\n", cores);
  }
  if (ok) std::printf("cluster_scaling: all enforced floors passed\n");
  return ok ? 0 : 1;
}
