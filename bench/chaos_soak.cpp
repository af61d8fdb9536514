// Chaos soak — the PR 10 acceptance gate (DESIGN.md §13).
//
// Spawns a 4-miner x 2-replica cluster (this binary re-execs itself with
// --miner, cluster_scaling style), installs a seeded FaultPlan at the
// DRIVER's socket boundary, and enforces the robustness contract by EXIT
// CODE so CI can gate on this binary:
//
//   * bit-identical-or-typed (always enforced): under ~5-10% injected
//     socket faults, every successful response is BIT-IDENTICAL to the
//     fault-free reference and every failure is a TYPED error — zero
//     silently-wrong reports, ever. The reference comes from a separate
//     fault-free router, so a result-cache hit on the soaked router is
//     checked against an answer it did not compute itself;
//   * cache exercised (always enforced): the soaked router's result cache
//     both hit and missed — the soak covers the cached read path too;
//   * availability (always enforced): with replicas = 2 and a mid-soak
//     SIGKILL of one miner, >= 99% of soaked requests are served;
//   * schedule determinism (always enforced): the same fault seed replays
//     the IDENTICAL injection schedule (index, kind) trace;
//   * self-healing rejoin (always enforced): the SIGKILL'd miner restarts,
//     resyncs its owned shards from live peers through the shard-snapshot
//     door (--resync), and serves BIT-IDENTICAL to its pre-kill self — and
//     a fresh router over the healed fleet matches the reference.
//
//   chaos_soak [--quick]                 driver (the default)
//   chaos_soak --miner S I R [P1,P2..]   internal: miner process, S shards,
//                                        owning index I with R replicas,
//                                        optional resync peer ports
//
// Faults are injected in the DRIVER process only: miners stay healthy, so
// every divergence the soak could observe is the transport layer's fault —
// exactly the layer PR 10 hardens. kSeed reuses cluster_scaling's tuned
// value (8 nonces -> 2/2/2/2 over 4 hash-mod shards).
#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "net/cluster.hpp"
#include "net/fault.hpp"
#include "net/remote.hpp"
#include "protocol/party_logic.hpp"

namespace {

using sap::data::Dataset;
using sap::rng::Engine;
namespace net = sap::net;
namespace proto = sap::proto;
namespace fault = sap::net::fault;

constexpr std::uint64_t kSeed = 90058;  // tuned: 8 nonces -> 2/2/2/2 over 4 shards
constexpr std::size_t kParties = 8;
constexpr std::size_t kMiners = 4;
constexpr std::size_t kReplicas = 2;
constexpr std::size_t kBatchRows = 16;
const char* const kFaultSpec =
    "seed=606,drop=0.02,delay=0.05,partial=0.03,truncate=0.01,corrupt=0.015,"
    "reset=0.015,delay_ms=3";
const char* const kMergeJobs[] = {"record-count", "class-histogram",
                                  "nb-train-accuracy", "knn-train-accuracy"};

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

proto::JobParams job_params(const char* job) {
  proto::JobParams params;
  if (std::strstr(job, "train-accuracy") != nullptr) params["eval-records"] = 64.0;
  return params;
}

// ---- miner process -------------------------------------------------------

/// Child mode: one cluster member (cluster_scaling idiom — daemon plus all
/// 8 parties in-process, "DOOR <port>" then "READY" on stdout). When the
/// driver passes resync peer ports, the daemon pulls its owned shards from
/// the first live owner that is AHEAD before serving — the rejoin path.
int miner_main(std::size_t shards, std::size_t index, std::size_t replicas,
               const char* resync_ports) {
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
  if (resync_ports != nullptr) {
    for (const char* p = resync_ports; *p != '\0';) {
      char* end = nullptr;
      const long port = std::strtol(p, &end, 10);
      if (end == p || port <= 0 || port > 65535) {
        std::fprintf(stderr, "miner: bad resync port list '%s'\n", resync_ports);
        return 2;
      }
      opts.resync_peers.push_back(
          {"127.0.0.1", static_cast<std::uint16_t>(port)});
      p = (*end == ',') ? end + 1 : end;
    }
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
      exchanged.set_value();
      for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
    });
  }
  exchanged.get_future().wait();
  // Serving (and the resync that precedes it) finishes a hair after the
  // exchange; bounded probe (lint R7) before announcing READY.
  bool door_up = false;
  for (int attempt = 0; attempt < 2000 && !door_up; ++attempt) {
    if (daemon.serving()) door_up = true;
    else std::this_thread::sleep_for(std::chrono::milliseconds(5));
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

Miner spawn_miner(const char* self, std::size_t index, const std::string& resync) {
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
    std::snprintf(s_arg, sizeof s_arg, "%zu", kMiners);
    std::snprintf(i_arg, sizeof i_arg, "%zu", index);
    std::snprintf(r_arg, sizeof r_arg, "%zu", kReplicas);
    if (resync.empty())
      ::execl(self, self, "--miner", s_arg, i_arg, r_arg, (char*)nullptr);
    else
      ::execl(self, self, "--miner", s_arg, i_arg, r_arg, resync.c_str(),
              (char*)nullptr);
    std::perror("execl");
    ::_exit(127);
  }
  ::close(fds[1]);
  Miner m;
  m.pid = pid;
  m.out = ::fdopen(fds[0], "r");
  unsigned port = 0;
  if (!m.out || std::fscanf(m.out, "DOOR %u\n", &port) != 1 || port == 0) {
    std::fprintf(stderr, "FAIL: miner %zu did not report a door\n", index);
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

net::ShardRouterOptions router_options(const std::vector<Miner>& fleet) {
  net::ShardRouterOptions ropts;
  for (const auto& m : fleet) ropts.miners.push_back(m.door);
  ropts.replicas = kReplicas;
  ropts.layout = proto::ShardLayout::kHashMod;
  ropts.seed = kSeed;
  ropts.parties = kParties;
  // The soak's healing budget: short per-attempt timeouts so a dropped
  // frame costs half a second, a retry budget deep enough that exhaustion
  // is a tail event, and a deterministic jitter seed.
  ropts.client.timeout_ms = 500;
  ropts.client.retry_attempts = 8;
  ropts.client.retry_backoff_ms = 1;
  ropts.client.retry_backoff_cap_ms = 16;
  ropts.client.retry_deadline_ms = 30'000;
  ropts.breaker_cooldown_ms = 100;  // a tripped breaker must not eat the soak
  return ropts;
}

std::vector<std::vector<double>> make_contribution_wires(const Session& s) {
  const auto seeds = proto::logic::derive_session_seeds(kSeed, kParties);
  std::vector<std::vector<double>> wires;
  for (std::size_t i = 0; i < kParties; ++i) {
    Engine eng = seeds.provider_eng[i];
    const auto local = proto::logic::optimize_local(s.shards[i].features_T(),
                                                    s.shards[i].dims(), s.sap, eng);
    const Dataset batch = s.pool.slice(i * kBatchRows, (i + 1) * kBatchRows);
    const auto y = local.g.apply(batch.features_T(), eng);
    wires.push_back(proto::encode_contribution(local.nonce, y, batch.labels()));
  }
  return wires;
}

/// Cluster-merged reports for every merge job through `router`.
std::vector<std::vector<double>> merged_reports(net::ShardRouter& router) {
  std::vector<std::vector<double>> out;
  for (const char* job : kMergeJobs)
    out.push_back(router.mine_named(job, job_params(job)).values);
  return out;
}

/// One miner's DIRECT door reports (its owned shards only) — the pre-kill
/// fingerprint its resynced replacement must reproduce bit for bit.
std::vector<std::vector<double>> direct_reports(const net::SocketAddr& door) {
  net::ServeClient::Options copts;
  copts.retry_attempts = 4;
  net::ServeClient client(door, kSeed, kParties, copts);
  std::vector<std::vector<double>> out;
  for (const char* job : kMergeJobs) {
    auto resp = client.mine_named(job, job_params(job));
    resp.values.push_back(static_cast<double>(resp.pool_epoch));  // epoch rides along
    out.push_back(std::move(resp.values));
  }
  client.bye();
  return out;
}

// ---- driver: phases ------------------------------------------------------

/// Phase S — same seed, same schedule: draw a fixed single-threaded
/// decision sequence twice and require the identical (index, kind) trace.
bool schedule_deterministic() {
  const auto plan = fault::FaultPlan::parse(kFaultSpec);
  const auto draw = [&plan] {
    fault::install(plan);
    for (int i = 0; i < 1500; ++i) (void)fault::next_write_fault(256);
    for (int i = 0; i < 400; ++i) (void)fault::next_read_fault(256);
    for (int i = 0; i < 100; ++i) (void)fault::next_connect_fault();
    auto trace = fault::trace();
    fault::uninstall();
    return trace;
  };
  const auto trace_a = draw();
  const auto trace_b = draw();
  if (trace_a.empty() || trace_a != trace_b) {
    std::fprintf(stderr, "FAIL: same fault seed did not replay the same schedule "
                         "(%zu vs %zu injections)\n",
                 trace_a.size(), trace_b.size());
    return false;
  }
  std::printf("-- schedule: seed %llu replays %zu injections identically\n",
              static_cast<unsigned long long>(plan.seed), trace_a.size());
  return true;
}

struct SoakResult {
  std::size_t served = 0;
  std::size_t typed = 0;
  std::size_t wrong = 0;
  std::size_t failovers = 0;
  std::size_t retries = 0;
  std::uint64_t injected = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

/// Phase B — the chaos soak: `requests` merge jobs through the faulted
/// driver transport, one SIGKILL a third of the way in. Successful
/// responses must match `reference` bit for bit; failures must be typed.
SoakResult run_soak(net::ShardRouter& router, std::vector<Miner>& fleet,
                    const std::vector<std::vector<double>>& reference,
                    std::size_t requests) {
  SoakResult r;
  fault::install(fault::FaultPlan::parse(kFaultSpec));
  for (std::size_t i = 0; i < requests; ++i) {
    if (i == requests / 3) kill_miner(fleet[0]);  // mid-soak SIGKILL, faults live
    const std::size_t j = i % std::size(kMergeJobs);
    try {
      const auto resp = router.mine_named(kMergeJobs[j], job_params(kMergeJobs[j]));
      if (resp.values == reference[j]) {
        ++r.served;
      } else {
        ++r.wrong;
        std::fprintf(stderr, "FAIL: request %zu (%s) served a DIVERGENT report "
                             "under faults\n",
                     i, kMergeJobs[j]);
      }
    } catch (const net::ServeError&) {
      ++r.typed;  // typed refusal: the contract's allowed failure mode
    } catch (const sap::Error&) {
      ++r.typed;  // typed transport error after an exhausted budget
    }
  }
  r.injected = fault::stats().total_injected();
  fault::uninstall();
  r.failovers = router.failovers();
  r.retries = router.client_retries();
  r.cache_hits = router.cache_stats().hits;
  r.cache_misses = router.cache_stats().misses;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 5 && std::strcmp(argv[1], "--miner") == 0)
    return miner_main(static_cast<std::size_t>(std::atoi(argv[2])),
                      static_cast<std::size_t>(std::atoi(argv[3])),
                      static_cast<std::size_t>(std::atoi(argv[4])),
                      argc >= 6 ? argv[5] : nullptr);
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: chaos_soak [--quick]\n");
      return 2;
    }
  }
  ::signal(SIGPIPE, SIG_IGN);

  const std::size_t soak_requests = quick ? 100 : 300;
  const std::size_t batches_per_party = quick ? 2 : 4;

  bool ok = schedule_deterministic();

  // ---- phase A: fleet up, ingest, fault-free reference -------------------
  std::printf("-- fleet: %zu miners x %zu replicas\n", kMiners, kReplicas);
  const Session session = make_session();
  const auto wires = make_contribution_wires(session);
  std::vector<Miner> fleet;
  for (std::size_t i = 0; i < kMiners; ++i)
    fleet.push_back(spawn_miner(argv[0], i, ""));
  for (auto& m : fleet) await_ready(m);

  const auto ropts = router_options(fleet);
  net::ShardRouter router(ropts);
  for (std::size_t b = 0; b < batches_per_party; ++b)
    for (std::size_t i = 0; i < kParties; ++i)
      (void)router.contribute_wire(wires[i]);
  // The reference comes from its own fault-free router: the soaked
  // router's cache starts cold and every hit is checked against an answer
  // computed elsewhere.
  const auto reference = [&] {
    net::ShardRouter reference_router(ropts);
    return merged_reports(reference_router);
  }();
  const auto fingerprint = direct_reports(fleet[0].door);  // pre-kill miner 0
  std::printf("-- reference: %zu jobs, pool %zu records\n", std::size(kMergeJobs),
              static_cast<std::size_t>(reference[0][0]));

  // ---- phase B: chaos soak with a mid-stream SIGKILL ---------------------
  std::printf("-- soak: %zu requests under %s\n", soak_requests, kFaultSpec);
  const SoakResult soak = run_soak(router, fleet, reference, soak_requests);
  const double availability =
      static_cast<double>(soak.served) / static_cast<double>(soak_requests);
  std::printf("-- soak: served %zu, typed %zu, wrong %zu, availability %.2f%%, "
              "failovers %zu, retries %zu, injected %llu, cache hits %zu, "
              "misses %zu\n",
              soak.served, soak.typed, soak.wrong, availability * 100.0,
              soak.failovers, soak.retries,
              static_cast<unsigned long long>(soak.injected), soak.cache_hits,
              soak.cache_misses);

  // ---- phase C: the killed miner rejoins via --resync --------------------
  std::string peers;
  for (std::size_t i = 1; i < kMiners; ++i) {
    if (!peers.empty()) peers += ',';
    peers += std::to_string(static_cast<unsigned>(fleet[i].door.port));
  }
  std::printf("-- rejoin: restarting miner 0 with --resync %s\n", peers.c_str());
  fleet[0] = spawn_miner(argv[0], 0, peers);
  await_ready(fleet[0]);
  const auto healed_fingerprint = direct_reports(fleet[0].door);
  bool rejoined = healed_fingerprint == fingerprint;
  if (!rejoined)
    std::fprintf(stderr, "FAIL: the rejoined miner's direct reports diverge from "
                         "its pre-kill self\n");
  net::ShardRouter healed_router(router_options(fleet));
  const auto healed_reports = merged_reports(healed_router);
  if (healed_reports != reference) {
    std::fprintf(stderr, "FAIL: the healed fleet's merged reports diverge from "
                         "the reference\n");
    rejoined = false;
  }
  if (rejoined) std::printf("-- rejoin: miner 0 resynced and serves bit-identical\n");

  sap::Table table({"phase", "requests", "served", "typed", "wrong",
                    "availability_pct", "failovers", "retries", "injected",
                    "cache_hits", "cache_misses"});
  table.add_row({"soak", sap::Table::num(static_cast<double>(soak_requests), 0),
                 sap::Table::num(static_cast<double>(soak.served), 0),
                 sap::Table::num(static_cast<double>(soak.typed), 0),
                 sap::Table::num(static_cast<double>(soak.wrong), 0),
                 sap::Table::num(availability * 100.0, 2),
                 sap::Table::num(static_cast<double>(soak.failovers), 0),
                 sap::Table::num(static_cast<double>(soak.retries), 0),
                 sap::Table::num(static_cast<double>(soak.injected), 0),
                 sap::Table::num(static_cast<double>(soak.cache_hits), 0),
                 sap::Table::num(static_cast<double>(soak.cache_misses), 0)});
  table.add_row({"rejoin", sap::Table::num(static_cast<double>(std::size(kMergeJobs)), 0),
                 sap::Table::num(static_cast<double>(std::size(kMergeJobs)), 0),
                 sap::Table::num(0, 0), sap::Table::num(rejoined ? 0 : 1, 0), "-",
                 "-", "-", "-", "-", "-"});
  sap::bench::BenchMeta meta;
  meta.transport = "cluster-tcp-chaos";
  meta.shards = kMiners;
  meta.replicas = kReplicas;
  sap::bench::emit_table("chaos_soak", table, meta);

  for (auto& m : fleet) kill_miner(m);

  // ---- enforced floors ---------------------------------------------------
  if (soak.wrong != 0) {
    std::fprintf(stderr, "FAIL: %zu responses were silently wrong under faults\n",
                 soak.wrong);
    ok = false;
  }
  if (availability < 0.99) {
    std::fprintf(stderr, "FAIL: availability %.2f%% < 99%% with replicas = %zu\n",
                 availability * 100.0, kReplicas);
    ok = false;
  }
  if (soak.failovers == 0) {
    std::fprintf(stderr, "FAIL: the SIGKILL never exercised a failover\n");
    ok = false;
  }
  if (soak.injected == 0) {
    std::fprintf(stderr, "FAIL: the fault plan injected nothing — the soak "
                         "tested a healthy network\n");
    ok = false;
  }
  if (soak.cache_hits == 0 || soak.cache_misses == 0) {
    std::fprintf(stderr, "FAIL: the soak never exercised the result cache "
                         "(hits %zu, misses %zu)\n",
                 soak.cache_hits, soak.cache_misses);
    ok = false;
  }
  if (!rejoined) ok = false;
  if (ok) std::printf("chaos_soak: all enforced floors passed\n");
  return ok ? 0 : 1;
}
