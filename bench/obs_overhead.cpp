// obs_overhead — the cost of measurement, measured (DESIGN.md §12).
//
// One MinerDaemon serves through its epoll reactor door while
// obs::set_enabled toggles the global metrics switch between measurement
// legs. Two request shapes bracket the serving spectrum:
//
//   * mining — the throughput_mining shape: a cached trainable job
//     (nb-train-accuracy) served synchronously, engine cost dominates and
//     every request crosses the instrumented serve path (serve/fit
//     histograms, trace ring push);
//   * socket — the socket_throughput shape: pipelined record-count frames
//     over a small connection set, front-door cost (scan, decode, flush)
//     dominates and per-request obs work is the largest relative slice.
//
// Enforced by exit code, not prose:
//   * overhead bar: metrics-on throughput must be within 3% of metrics-off
//     on BOTH shapes, judged on the median per-pair on/off req/s ratio of
//     interleaved on/off leg pairs (bench_util::paired_ab); the ratios'
//     IQR is reported beside it;
//   * bit-identity: the FNV-1a digest of every served value must be
//     IDENTICAL with metrics on and off, and equal to the direct
//     MiningEngine reference — observability is pure measurement, it never
//     perturbs a job report.
//
//   obs_overhead [--quick] [--requests N]
#include <poll.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "net/remote.hpp"
#include "protocol/party_logic.hpp"

namespace {

using sap::Table;
using sap::data::Dataset;
namespace net = sap::net;
namespace obs = sap::obs;
namespace proto = sap::proto;

constexpr const char* kSocketJob = "record-count";
constexpr const char* kMiningJob = "nb-train-accuracy";
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv_values(std::uint64_t h, std::span<const double> values) {
  for (const double v : values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (std::size_t i = 0; i < sizeof bits; ++i)
      h = (h ^ ((bits >> (8 * i)) & 0xFF)) * kFnvPrime;
  }
  return h;
}

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One measured leg: requests served, elapsed, and the served-value digest
/// (the digest is position-independent by the bit-identity contract).
struct Leg {
  std::size_t completed = 0;
  std::int64_t elapsed_us = 0;
  std::uint64_t digest = kFnvOffset;
  [[nodiscard]] double req_per_sec() const {
    return elapsed_us > 0
               ? static_cast<double>(completed) * 1e6 / static_cast<double>(elapsed_us)
               : 0.0;
  }
};

/// mining shape: synchronous cached-job round trips on one client. The
/// latencies vector collects per-request micros for the percentile columns
/// (raw timestamps, NOT obs::Histogram::record — the off-position leg must
/// not depend on the switch it is measuring).
Leg run_mining_leg(net::ServeClient& client, std::size_t requests,
                   std::vector<double>& latencies) {
  Leg leg;
  const std::int64_t t0 = now_us();
  for (std::size_t i = 0; i < requests; ++i) {
    const std::int64_t sent = now_us();
    const auto resp = client.mine_named(kMiningJob);
    latencies.push_back(static_cast<double>(now_us() - sent));
    leg.digest = fnv_values(leg.digest, resp.values);
    ++leg.completed;
  }
  leg.elapsed_us = now_us() - t0;
  return leg;
}

/// socket shape: raw pipelined frames, `conns` connections each keeping one
/// request outstanding (the socket_throughput driver, shrunk to in-process
/// size — the fd population here is tiny).
struct SocketRig {
  std::vector<net::TcpSocket> socks;
  std::vector<net::FrameReader> readers;
  std::vector<proto::PartyId> ids;
  std::vector<std::vector<std::uint8_t>> req_bytes;
  std::uint64_t secret = 0;
  proto::PartyId miner = 0;

  SocketRig(const net::SocketAddr& addr, std::uint64_t seed, std::size_t parties,
            std::size_t conns) {
    secret = proto::logic::derive_session_seeds(seed, parties).session_secret;
    miner = static_cast<proto::PartyId>(parties);
    std::vector<std::uint8_t> hello_bytes;
    {
      net::Frame hello;
      hello.type = net::FrameType::kHello;
      hello.to = miner;
      hello.body = net::u32_body(net::kClaimAnyParty);
      encode_frame(hello, hello_bytes);
    }
    std::vector<std::uint8_t> rbuf(64u << 10);
    for (std::size_t c = 0; c < conns; ++c) {
      socks.push_back(net::TcpSocket::connect(addr, 15'000));
      readers.emplace_back(net::kDefaultMaxBody);
      socks.back().write_all(hello_bytes.data(), hello_bytes.size(), 15'000);
    }
    ids.assign(conns, 0);
    for (std::size_t c = 0; c < conns; ++c) {
      net::Frame welcome;
      if (!read_frame(c, welcome, rbuf) || welcome.type != net::FrameType::kWelcome) {
        std::fprintf(stderr, "FAIL: obs_overhead conn %zu not welcomed\n", c);
        std::exit(1);
      }
      ids[c] = net::body_u32(welcome.body);
    }
    const std::vector<double> payload = proto::encode_mining_request(kSocketJob, {});
    req_bytes.resize(conns);
    for (std::size_t c = 0; c < conns; ++c) {
      net::Frame req;
      req.type = net::FrameType::kData;
      req.payload_kind = static_cast<std::uint8_t>(proto::PayloadKind::kMiningRequest);
      req.from = ids[c];
      req.to = miner;
      req.body = net::envelope_body(proto::EncryptedEnvelope(
          payload, proto::detail::derive_link_key(secret, ids[c], miner)));
      encode_frame(req, req_bytes[c]);
    }
  }

  bool read_frame(std::size_t c, net::Frame& out, std::vector<std::uint8_t>& rbuf) {
    const std::int64_t deadline = now_us() + 15'000'000;
    while (!readers[c].next(out)) {
      if (now_us() > deadline) return false;
      bool closed = false;
      const std::size_t got = socks[c].read_some(rbuf.data(), rbuf.size(), 1'000, closed);
      if (got > 0) readers[c].feed(rbuf.data(), got);
      if (closed && got == 0) return false;
    }
    return true;
  }

  Leg run(std::size_t requests, std::vector<double>& latencies) {
    const std::size_t conns = socks.size();
    std::vector<std::uint8_t> rbuf(64u << 10);
    std::vector<pollfd> pfds(conns);
    std::vector<std::int64_t> sent_at(conns, 0);
    for (std::size_t c = 0; c < conns; ++c) pfds[c] = {socks[c].fd(), POLLIN, 0};
    Leg leg;
    std::size_t sent = 0;
    const std::int64_t t0 = now_us();
    for (std::size_t c = 0; c < conns && sent < requests; ++c) {
      socks[c].write_all(req_bytes[c].data(), req_bytes[c].size(), 15'000);
      sent_at[c] = now_us();
      ++sent;
    }
    while (leg.completed < requests) {
      const int rc = ::poll(pfds.data(), conns, 15'000);
      if (rc <= 0) {
        std::fprintf(stderr, "FAIL: obs_overhead stalled at %zu/%zu responses\n",
                     leg.completed, requests);
        std::exit(1);
      }
      for (std::size_t c = 0; c < conns; ++c) {
        if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        bool closed = false;
        for (;;) {
          const std::size_t got = socks[c].read_some(rbuf.data(), rbuf.size(), 0, closed);
          if (got == 0) break;
          readers[c].feed(rbuf.data(), got);
        }
        net::FrameView fv;
        while (readers[c].next_view(fv)) {
          latencies.push_back(static_cast<double>(now_us() - sent_at[c]));
          ++leg.completed;
          if (fv.type != net::FrameType::kData ||
              fv.payload_kind !=
                  static_cast<std::uint8_t>(proto::PayloadKind::kMiningResponse)) {
            std::fprintf(stderr, "FAIL: obs_overhead unexpected frame on conn %zu\n", c);
            std::exit(1);
          }
          const std::vector<double> wire = net::body_envelope(fv.body).open(
              proto::detail::derive_link_key(secret, miner, ids[c]));
          leg.digest = fnv_values(leg.digest, wire);
          if (sent < requests) {
            socks[c].write_all(req_bytes[c].data(), req_bytes[c].size(), 15'000);
            sent_at[c] = now_us();
            ++sent;
          } else {
            pfds[c].fd = -1;
          }
        }
        if (closed && leg.completed < requests) {
          std::fprintf(stderr, "FAIL: obs_overhead conn %zu closed mid-run\n", c);
          std::exit(1);
        }
      }
    }
    leg.elapsed_us = now_us() - t0;
    return leg;
  }
};

/// One shape measured in interleaved on/off leg pairs: every leg's req/s
/// and latencies per metrics position, the paired on/off req/s ratio, and
/// whether every leg's digest matched `expected`.
struct Measured {
  std::size_t requests = 0;  ///< per leg
  std::vector<double> rate_on, rate_off;
  std::vector<double> lat_on, lat_off;
  sap::bench::PairedRatio ratio;
  bool identical = true;
  [[nodiscard]] double overhead_pct() const { return 100.0 * (1.0 - ratio.median); }
};

template <typename RunLeg>
Measured measure(std::size_t pairs, std::size_t requests, std::uint64_t expected,
                 RunLeg&& run_leg) {
  Measured m;
  m.requests = requests;
  const auto leg_at = [&](bool on) {
    obs::set_enabled(on);
    const Leg leg = run_leg(on ? m.lat_on : m.lat_off);
    obs::set_enabled(true);
    if (leg.digest != expected) m.identical = false;
    (on ? m.rate_on : m.rate_off).push_back(leg.req_per_sec());
    return std::vector<double>{leg.req_per_sec()};
  };
  m.ratio = sap::bench::paired_ab(
      pairs, [&] { return leg_at(true); }, [&] { return leg_at(false); })[0];
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  // Many short pairs, not a few long ones: on a shared host the per-pair
  // on/off ratio spreads by 5-10% (IQR) whether a leg lasts 2 ms or 150 ms,
  // so the median only tightens with the NUMBER of pairs. A hiccup inside
  // a short leg spoils one pair, which the median ignores.
  std::size_t socket_requests = 800;
  std::size_t mining_requests = 40;
  std::size_t pairs = 601;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      socket_requests = 400;
      mining_requests = 20;
      pairs = 301;
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      socket_requests = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: obs_overhead [--quick] [--requests N]\n");
      return 2;
    }
  }
  const std::size_t parties = 3;
  const std::uint64_t seed = 20260808;
  const std::size_t conns = 8;

  // Same rig as socket_throughput: exchange once, hold the party links open,
  // serve everything through the reactor door.
  const Dataset base = sap::bench::normalized_uci("Diabetes", seed).slice(0, 210);
  sap::rng::Engine part_eng(seed ^ 0x50C4);
  auto shards = sap::data::partition(base, parties, {}, part_eng);
  auto sap_opts = sap::bench::bench_sap_options();
  sap_opts.seed = seed;

  net::MinerDaemonOptions daemon_opts;
  daemon_opts.listen = {"127.0.0.1", 0};
  daemon_opts.parties = parties;
  daemon_opts.seed = seed;
  daemon_opts.reactor_loops = 2;
  daemon_opts.reactor_compute_threads = 1;
  daemon_opts.reactor_idle_timeout_ms = 300'000;
  net::MinerDaemon daemon(daemon_opts);
  const auto hub_addr = daemon.local_addr();
  auto daemon_future = std::async(std::launch::async, [&] { return daemon.run(); });

  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  std::vector<std::thread> party_threads;
  for (std::size_t i = 0; i < parties; ++i) {
    party_threads.emplace_back([&, i] {
      net::PartyClientOptions popts;
      popts.connect = hub_addr;
      popts.index = i;
      popts.parties = parties;
      popts.sap = sap_opts;
      net::PartyClient client(shards[i], popts);
      (void)client.run_exchange();
      release.wait();
      client.finish();
    });
  }
  // The exchange takes well under a second; a door that is not up after a
  // minute is a failure, not a slow start.
  for (int i = 0; i < 60'000 && !daemon.serving(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (!daemon.serving()) {
    std::fprintf(stderr, "FAIL: the daemon never started serving\n");
    std::exit(1);  // party threads are still blocked in their exchange
  }

  // Direct-engine reference digests — what every leg must reproduce.
  const std::vector<double> direct_socket_wire = proto::encode_mining_response([&] {
    const auto resp = daemon.engine().run({kSocketJob, {}});
    proto::WireMiningResponse wire;
    wire.values = resp.values;
    wire.model_cached = resp.model_cached;
    wire.model_incremental = resp.model_incremental;
    wire.pool_epoch = resp.pool_epoch;
    return wire;
  }());
  const auto expect_socket = [&](std::size_t n) {
    std::uint64_t h = kFnvOffset;
    for (std::size_t i = 0; i < n; ++i) h = fnv_values(h, direct_socket_wire);
    return h;
  };
  const auto expect_mining = [&](std::size_t n) {
    // mine_named returns decoded values; hash the decoded report n times.
    std::uint64_t h = kFnvOffset;
    const auto resp = daemon.engine().run({kMiningJob, {}});
    for (std::size_t i = 0; i < n; ++i) h = fnv_values(h, resp.values);
    return h;
  };

  net::ServeClient mining_client(daemon.reactor_addr(), seed, parties);
  (void)mining_client.mine_named(kMiningJob);  // warm the model cache
  SocketRig rig(daemon.reactor_addr(), seed, parties, conns);
  {
    std::vector<double> warm;
    (void)rig.run(conns, warm);  // one pipelined round proves the path
  }

  const Measured mining = measure(pairs, mining_requests, expect_mining(mining_requests),
                                  [&](std::vector<double>& lat) {
                                    return run_mining_leg(mining_client, mining_requests, lat);
                                  });
  const Measured socket = measure(pairs, socket_requests, expect_socket(socket_requests),
                                  [&](std::vector<double>& lat) {
                                    return rig.run(socket_requests, lat);
                                  });
  constexpr double kBarPct = 3.0;

  release_promise.set_value();
  for (auto& t : party_threads) t.join();
  (void)daemon_future.get();

  Table table({"shape", "metrics", "pairs", "requests", "req/s", "p50 us", "p99 us",
               "overhead %", "overhead iqr %", "identical"});
  const auto add = [&](const char* shape, bool on, const Measured& m) {
    const auto s = sap::bench::summarize_latency(on ? m.lat_on : m.lat_off);
    table.add_row({shape, on ? "on" : "off", std::to_string(pairs), std::to_string(m.requests),
                   Table::num(sap::bench::exact_median(on ? m.rate_on : m.rate_off), 1),
                   Table::num(s.p50, 1), Table::num(s.p99, 1), Table::num(m.overhead_pct(), 2),
                   Table::num(100.0 * m.ratio.iqr, 2), m.identical ? "yes" : "NO"});
  };
  add("mining", true, mining);
  add("mining", false, mining);
  add("socket", true, socket);
  add("socket", false, socket);
  sap::bench::emit_table("obs_overhead", table,
                         {.transport = "epoll-reactor", .threads = 2});

  bool ok = true;
  for (const auto& [name, m] : {std::pair<const char*, const Measured&>{"mining", mining},
                                {"socket", socket}}) {
    if (!m.identical) {
      std::fprintf(stderr, "FAIL: %s shape served values differ between metrics "
                           "positions or from the direct engine\n",
                   name);
      ok = false;
    }
    if (m.overhead_pct() > kBarPct) {
      std::fprintf(stderr, "FAIL: %s shape metrics overhead %.2f%% (iqr %.2f%%) exceeds the "
                           "%.0f%% bar\n",
                   name, m.overhead_pct(), 100.0 * m.ratio.iqr, kBarPct);
      ok = false;
    }
  }
  std::printf("\nmetrics overhead over %zu pairs: mining %.2f%% (iqr %.2f%%), socket %.2f%% "
              "(iqr %.2f%%) (bar %.0f%%); served values bit-identical on/off: %s\n",
              pairs, mining.overhead_pct(), 100.0 * mining.ratio.iqr, socket.overhead_pct(),
              100.0 * socket.ratio.iqr, kBarPct,
              mining.identical && socket.identical ? "yes" : "NO");
  return ok ? 0 : 1;
}
