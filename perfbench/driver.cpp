// sapbench — one seeded end-to-end benchmark of the SAP pipeline.
//
//   sapbench --workload <serve-hot|ingest-live|cluster-merge> --seed N
//            --seconds S --trace <0|1>
//
// The driver generates one session per set-up from the seed (synthetic
// Diabetes, min-max normalized, partitioned over k = 4 parties, each holding
// back kHoldBack rows to stream later), spawns the real MinerDaemon process(es)
// and, for cluster-merge, a RouterDaemon process (this binary re-executed
// with --miner / --router), runs the four parties' PartyClient exchange over
// loopback TCP, and then drives the workload's traffic against the serving
// door from at most kLoadConns threads and connections. Every layer is
// timed from outside, around calls into its public functions; the stats door
// is read for the server-side split. Served reports are checked bit for bit
// against an in-process MiningEngine over the same unified pool, fed the
// same batches in the order the miners acknowledged them.
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1 (perfbench/README.md lists both). A mismatch against the
// reference, a generator that fell behind its schedule or a phase too small
// for its p99 prints correct=false and exits 1.
#include <dirent.h>
#include <linux/tcp.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "data/normalize.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "net/cluster.hpp"
#include "net/remote.hpp"
#include "protocol/message.hpp"
#include "protocol/mining_engine.hpp"
#include "protocol/party_logic.hpp"
#include "protocol/shard.hpp"
#include "rng/rng.hpp"
#include "stats.hpp"

namespace {

namespace net = sap::net;
namespace proto = sap::proto;
using sap::data::Dataset;
using sap::rng::Engine;
using sapbench::kMissMs;
using sapbench::Span;

// ---- fixed session and topology (BENCHMARK.json records these) -----------

constexpr std::size_t kParties = 4;
constexpr double kNoiseSigma = 0.1;     // sap_cli serve/party default
constexpr std::size_t kHoldBack = 32;   // rows per party streamed after the exchange
constexpr std::size_t kBatchRows = 1;   // rows per contribution batch
constexpr std::size_t kSetups = 3;      // set-ups per run; setup_s is their median
constexpr std::size_t kLoadConns = 4;   // load threads == load connections == nproc
constexpr std::size_t kReactorLoops = 2;
constexpr std::size_t kComputeLanes = 2;
// Open-loop latency is the median over windows of kWindowSamples
// due-ordered samples. Closed-loop rates are timed whole per fleet, and
// reported as the median over the fleets that ran them.
constexpr std::size_t kWindowSamples = 1000;
constexpr std::size_t kVerifySample = 48;  // seeded sample of mid-stream reads checked
constexpr double kMaxGeneratorLateMs = 20.0;
constexpr int kReadyBudgetMs = 60'000;
constexpr int kProbeAttempts = 2'000;

// ---- clock -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point g_t0 = Clock::now();

double now_ms() { return std::chrono::duration<double, std::milli>(Clock::now() - g_t0).count(); }
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_t0).count();
}
std::int64_t ms_to_ns(double ms) { return static_cast<std::int64_t>(ms * 1e6); }
void sleep_until_ms(double t) {
  std::this_thread::sleep_until(g_t0 + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double, std::milli>(t)));
}

// ---- output: every byte this program prints goes through here -------------

namespace emit {

void line(const std::string& text) {
  std::fputs(text.c_str(), stdout);
  std::fputc('\n', stdout);
}

void warn(const std::string& text) {
  std::fputs(("sapbench: " + text + "\n").c_str(), stderr);
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : kMissMs);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The final result line.
void result(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  line(out);
  std::fflush(stdout);
}

/// The traced run's spans, one JSON object per line.
void spans(const std::string& path, const std::vector<Span>& all) {
  std::ofstream f(path);
  if (!f) {
    warn("cannot write " + path);
    return;
  }
  for (const Span& s : all)
    f << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
      << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"rid\":" << s.rid
      << "}\n";
}

}  // namespace emit

// ---- child processes --------------------------------------------------------

/// Every live child, so every exit path (including a signal) can SIGKILL and
/// reap them.
std::array<std::atomic<pid_t>, 8> g_children{};

void kill_all_children() {
  for (auto& slot : g_children) {
    const pid_t pid = slot.exchange(0);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
}

extern "C" void on_fatal_signal(int) {
  kill_all_children();
  ::_exit(3);
}

struct Child {
  pid_t pid = -1;
  int out = -1;
  std::uint16_t hub = 0;
  std::uint16_t door = 0;
};

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  SAP_REQUIRE(n > 0, "cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

/// Read one line from `fd` within the deadline (poll-bounded).
std::string read_line(int fd, double deadline_ms) {
  std::string got;
  char c = 0;
  while (got.empty() || got.back() != '\n') {
    const double left = deadline_ms - now_ms();
    SAP_REQUIRE(left > 0, "child did not announce its ports in time");
    pollfd p{fd, POLLIN, 0};
    const int rc = ::poll(&p, 1, static_cast<int>(left) + 1);
    if (rc < 0 && errno == EINTR) continue;
    SAP_REQUIRE(rc > 0, "child did not announce its ports in time");
    const ssize_t n = ::read(fd, &c, 1);
    SAP_REQUIRE(n == 1, "child exited before announcing its ports");
    got.push_back(c);
  }
  return got;
}

/// fork + exec this binary in a daemon mode; waits for "PORTS <hub> <door>".
Child spawn_child(const std::vector<std::string>& args) {
  int fds[2];
  SAP_REQUIRE(::pipe(fds) == 0, "pipe failed");
  const std::string exe = self_exe();
  std::vector<std::string> argv_s = {exe};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  SAP_REQUIRE(pid >= 0, "fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the driver
    ::dup2(fds[1], 1);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(exe.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  Child c;
  c.pid = pid;
  c.out = fds[0];
  for (auto& slot : g_children) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) break;
  }
  unsigned hub = 0, door = 0;
  const std::string ports = read_line(c.out, now_ms() + kReadyBudgetMs);
  SAP_REQUIRE(std::sscanf(ports.c_str(), "PORTS %u %u", &hub, &door) == 2 && door > 0,
              "child announced no serving door");
  c.hub = static_cast<std::uint16_t>(hub);
  c.door = static_cast<std::uint16_t>(door);
  return c;
}

void reap(Child& c) {
  if (c.pid > 0) {
    for (auto& slot : g_children) {
      pid_t expected = c.pid;
      if (slot.compare_exchange_strong(expected, 0)) break;
    }
    ::kill(c.pid, SIGKILL);
    ::waitpid(c.pid, nullptr, 0);
    c.pid = -1;
  }
  if (c.out >= 0) {
    ::close(c.out);
    c.out = -1;
  }
}

/// Peak resident set (VmHWM) of a live process, MiB.
double peak_rss_mib(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      f >> kb;
      return kb / 1024.0;
    }
    f.ignore(1 << 12, '\n');
  }
  return 0.0;
}

/// CPU time (user + system, every thread) a live process has used, ms.
double cpu_ms(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  const auto close = stat.rfind(')');  // the command name may hold spaces
  SAP_REQUIRE(close != std::string::npos, "cannot read /proc/<pid>/stat");
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  // Fields after the name start at 3 (state); utime and stime are 14, 15.
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Bytes sent plus received, as the kernel counts them (TCP_INFO), on every
/// socket of this process whose peer port is one of `ports`.
double tcp_bytes_to(const std::vector<std::uint16_t>& ports) {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0.0;
  double total = 0;
  while (const dirent* e = ::readdir(dir)) {
    char* end = nullptr;
    const long fd = std::strtol(e->d_name, &end, 10);
    if (end == e->d_name || *end != '\0' || fd == ::dirfd(dir)) continue;
    sockaddr addr{};
    socklen_t len = sizeof addr;
    if (::getpeername(static_cast<int>(fd), &addr, &len) != 0 || addr.sa_family != AF_INET)
      continue;
    const auto peer = std::bit_cast<sockaddr_in>(addr);  // both 16 bytes on Linux
    if (std::find(ports.begin(), ports.end(), ntohs(peer.sin_port)) == ports.end()) continue;
    tcp_info info{};
    socklen_t info_len = sizeof info;
    if (::getsockopt(static_cast<int>(fd), IPPROTO_TCP, TCP_INFO, &info, &info_len) == 0)
      total += static_cast<double>(info.tcpi_bytes_sent + info.tcpi_bytes_received);
  }
  ::closedir(dir);
  return total;
}

// ---- daemon modes -------------------------------------------------------------

[[noreturn]] void idle_forever() {
  for (;;) ::pause();  // the driver ends us with SIGKILL
}

int miner_main(std::uint64_t seed, std::size_t shards, long owned) {
  net::MinerDaemonOptions o;
  o.parties = kParties;
  o.seed = seed;
  o.reactor_loops = kReactorLoops;
  o.reactor_compute_threads = kComputeLanes;
  o.shards = shards;
  o.shard_layout = proto::ShardLayout::kHashMod;
  if (owned >= 0) o.owned_shards = {static_cast<std::size_t>(owned)};
  net::MinerDaemon daemon(o);
  std::printf("PORTS %u %u\n", static_cast<unsigned>(daemon.local_addr().port),
              static_cast<unsigned>(daemon.reactor_addr().port));
  std::fflush(stdout);
  (void)daemon.run();  // returns once every party hung up
  idle_forever();
}

int router_main(std::uint64_t seed, const std::vector<std::uint16_t>& miner_doors) {
  net::RouterDaemonOptions o;
  for (const auto port : miner_doors) o.router.miners.push_back({"127.0.0.1", port});
  o.router.shards = miner_doors.size();
  o.router.replicas = 1;
  o.router.layout = proto::ShardLayout::kHashMod;
  o.router.seed = seed;
  o.router.parties = kParties;
  o.reactor.loops = kReactorLoops;
  o.reactor.compute_threads = kComputeLanes;
  net::RouterDaemon router(o);
  std::printf("PORTS 0 %u\n", static_cast<unsigned>(router.local_addr().port));
  std::fflush(stdout);
  idle_forever();
}

// ---- workloads -------------------------------------------------------------------

struct Variant {
  std::string job;
  proto::JobParams params;
  std::string label;
};

Variant trained(const std::string& job, const std::string& key, double v,
                const std::string& label) {
  proto::JobParams p{{"eval-records", 64.0}};
  if (!key.empty()) p[key] = v;
  return {job, p, label};
}

std::vector<Variant> read_mix(bool with_svm) {
  std::vector<Variant> mix;
  if (with_svm) {
    mix.push_back(trained("svm-train-accuracy", "c", 1.0, "svm.c1"));
    mix.push_back(trained("svm-train-accuracy", "c", 8.0, "svm.c8"));
  }
  mix.push_back(trained("knn-train-accuracy", "k", 3.0, "knn.k3"));
  mix.push_back(trained("knn-train-accuracy", "k", 7.0, "knn.k7"));
  mix.push_back(trained("nb-train-accuracy", "", 0.0, "nb"));
  mix.push_back(trained("perceptron-train-accuracy", "", 0.0, "perceptron"));
  mix.push_back({"record-count", {}, "record-count"});
  mix.push_back({"class-histogram", {}, "class-histogram"});
  return mix;
}

/// One timed phase. Reads are open loop at read_rate (due times), closed
/// loop when read_rate == 0 and read_conns > 0. A writer, when write_rate >
/// 0, streams contributions open loop on its own connection. closed_ingest
/// phases instead send a fixed batch count per connection, one connection
/// per party nonce.
struct PhasePlan {
  std::string name;
  double share = 0.0;  ///< of --seconds (closed_ingest: ignored)
  std::size_t read_conns = 0;
  double read_rate = 0.0;   ///< reads/s, open loop; 0 = closed loop
  double write_rate = 0.0;  ///< batches/s, open loop; 0 = no writer
  bool closed_ingest = false;
  bool mine_latency = false;    ///< its reads feed mine_p50/p99_ms
  bool ingest_latency = false;  ///< its writes feed ingest_p50/p99_ms
};

struct Workload {
  std::string name;
  std::size_t miners = 1;  ///< > 1: sharded cluster behind a RouterDaemon
  bool with_svm = false;
  std::vector<PhasePlan> phases;
};

/// Closed-loop ingest: a fixed batch count per connection, one connection
/// per party nonce. It runs on each set-up's fleet but the last, which serve
/// nothing else: their pools grow by all these rows, while the measured
/// fleet keeps a pool that does not depend on the count.
const PhasePlan kClosedIngest{"closed-ingest", 0.0, 0, 0.0, 0.0, true, false, false};
constexpr std::size_t kClosedBatchesPerConn = 1500;

/// Operations an open-loop stream at `rate` schedules over the phase.
std::size_t scheduled(double rate, const PhasePlan& p, double seconds) {
  return static_cast<std::size_t>(std::llround(rate * p.share * seconds));
}

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  // name, share, read conns, read rate, write rate, closed ingest,
  // feeds mine latency, feeds ingest latency.
  // phases[0] is the closed-loop read on the base pool, before any write: on
  // a pool that writes have been growing, the read rate hinges on refit
  // history (the kNN tree's incremental tail) and drifts from run to run.
  // Every set-up's fleet runs it (see drive()); mine_rps is their median.
  if (name == "serve-hot") {
    // Every fit happens in setup; reads run against a static pool. The
    // writes come after every read so the ingest metrics exist here too
    // without moving the reads off the hot cache.
    w.with_svm = true;
    w.phases = {{"closed-read", 0.10, 4, 0.0, 0.0, false, false, false},
                {"open-read", 0.30, 4, 1000.0, 0.0, false, true, false},
                {"open-ingest", 0.25, 0, 0.0, 600.0, false, false, true}};
  } else if (name == "ingest-live") {
    // Writes beside reads: every batch bumps the epoch, so reads refit
    // (knn, nb incrementally; perceptron in full).
    w.phases = {{"closed-read", 0.10, 4, 0.0, 0.0, false, false, false},
                {"open-mixed", 0.55, 3, 300.0, 300.0, false, true, true}};
  } else if (name == "cluster-merge") {
    // The RouterDaemon serializes requests; reads run at under half of its
    // closed-loop capacity beside a low-rate writer. Ingest latency comes
    // from a write-only phase at a rate the router sustains.
    w.miners = 2;
    w.phases = {{"closed-read", 0.10, 4, 0.0, 0.0, false, false, false},
                {"open-mixed", 0.50, 3, 200.0, 20.0, false, true, false},
                {"open-ingest", 0.25, 0, 0.0, 600.0, false, false, true}};
  } else {
    SAP_FAIL("unknown workload '" + name + "' (serve-hot, ingest-live, cluster-merge)");
  }
  return w;
}

// ---- session: everything derived from the seed ----------------------------------

struct Session {
  std::uint64_t session_seed = 0;
  proto::SapOptions sap;
  std::vector<Dataset> exchange_rows;  ///< per party: rows that enter the exchange
  std::vector<Dataset> held_back;      ///< per party: rows streamed afterwards
  std::vector<proto::logic::LocalPerturbation> local;
  std::vector<double> optimize_ms;  ///< driver-timed optimize_local per party
  std::vector<Engine> noise_eng;    ///< per party, after the exchange's draws
  std::vector<proto::PoolSegment> segments;  ///< unified pool, ascending nonce
  std::vector<std::pair<std::uint64_t, sap::perturb::SpaceAdaptor>> adaptors;
  std::size_t dims = 0;
  std::size_t base_records = 0;
};

/// Every party's optimize_local, one thread per party, with the engines the
/// PartyClients derive from the session seed.
void optimize_parties(Session& s) {
  const auto seeds = proto::logic::derive_session_seeds(s.session_seed, kParties);
  s.local.assign(kParties, {});
  s.optimize_ms.assign(kParties, 0.0);
  s.noise_eng = seeds.provider_eng;
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kParties);
  for (std::size_t i = 0; i < kParties; ++i) {
    threads.emplace_back([&, i] {
      try {
        const double t0 = now_ms();
        s.local[i] = proto::logic::optimize_local(s.exchange_rows[i].features_T(), s.dims,
                                                  s.sap, s.noise_eng[i]);
        s.optimize_ms[i] = now_ms() - t0;
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) SAP_REQUIRE(e.empty(), "optimize_local failed: " + e);
}

/// `shards` > 1: draw session seeds from the workload seed until the k
/// nonces spread evenly over the shards, so every seed gives the cluster
/// the same shape (which shard a nonce lands on is otherwise a coin flip).
Session make_session(std::uint64_t seed, std::size_t shards) {
  Session s;
  Engine master(seed);
  const std::uint64_t data_seed = master();
  Engine part_eng = master.spawn();

  const Dataset raw = sap::data::make_uci("Diabetes", data_seed);
  sap::data::MinMaxNormalizer norm;
  norm.fit(raw.features());
  const Dataset pool(raw.name(), norm.transform(raw.features()), raw.labels());
  const auto parts = sap::data::partition(pool, kParties, {}, part_eng);
  for (const auto& p : parts) {
    SAP_REQUIRE(p.size() >= kHoldBack + 16, "partition left a party too small");
    s.exchange_rows.push_back(p.slice(0, p.size() - kHoldBack));
    s.held_back.push_back(p.slice(p.size() - kHoldBack, p.size()));
  }
  s.dims = pool.dims();

  constexpr int kSeedAttempts = 64;
  bool balanced = false;
  for (int attempt = 0; attempt < kSeedAttempts && !balanced; ++attempt) {
    s.session_seed = master() >> 16;
    s.sap = net::serving_session_options(kNoiseSigma, s.session_seed, 0);
    optimize_parties(s);
    std::vector<std::size_t> per(shards, 0);
    for (const auto& l : s.local)
      ++per[proto::shard_of_nonce(l.nonce, shards, proto::ShardLayout::kHashMod)];
    balanced = std::all_of(per.begin(), per.end(),
                           [&](std::size_t n) { return n == kParties / shards; });
  }
  SAP_REQUIRE(balanced, "no session seed spread the nonces evenly over the shards");

  // Each party's side of the exchange, replayed in-process with the same
  // engines the PartyClient derives — the miner's unified pool and adaptors
  // (party_logic.hpp's bit-identity contract) for the reference engine.
  const auto seeds = proto::logic::derive_session_seeds(s.session_seed, kParties);
  Engine coord = seeds.coordinator_eng;
  const auto target = proto::logic::make_target_space(s.dims, coord);
  std::vector<proto::logic::MinerShard> shards_rx;
  std::vector<std::pair<std::uint64_t, sap::perturb::SpaceAdaptor>> adaptors;
  for (std::size_t i = 0; i < kParties; ++i) {
    const auto& local = s.local[i];
    const auto y = local.g.apply(s.exchange_rows[i].features_T(), s.noise_eng[i]);
    const auto data_wire = proto::encode_dataset(y, s.exchange_rows[i].labels());
    const auto adaptor_wire = sap::perturb::SpaceAdaptor::between(local.g, target).serialize();
    shards_rx.push_back({local.nonce, 0, proto::decode_dataset(data_wire)});
    adaptors.emplace_back(local.nonce, sap::perturb::SpaceAdaptor::deserialize(adaptor_wire));
  }
  std::vector<std::pair<std::uint64_t, std::size_t>> sizes;
  for (const auto& sh : shards_rx) sizes.emplace_back(sh.nonce, sh.data.labels.size());
  std::sort(sizes.begin(), sizes.end());
  auto unified = proto::logic::unify_pool(std::move(shards_rx), std::move(adaptors), kParties);
  std::size_t at = 0;
  for (const auto& [nonce, count] : sizes) {
    s.segments.push_back({nonce, unified.pool.slice(at, at + count)});
    at += count;
  }
  s.adaptors = std::move(unified.adaptors);
  s.base_records = unified.pool.size();
  return s;
}

/// Pre-encoded contribution: one party's held-back window, perturbed with
/// that party's negotiated G_i.
struct Wire {
  std::vector<double> payload;
  std::uint64_t nonce = 0;
  std::size_t rows = 0;
};

Wire make_wire(Session& s, std::size_t party, std::size_t serial) {
  const std::size_t windows = kHoldBack / kBatchRows;
  const std::size_t at = (serial % windows) * kBatchRows;
  const Dataset batch = s.held_back[party].slice(at, at + kBatchRows);
  const auto y = s.local[party].g.apply(batch.features_T(), s.noise_eng[party]);
  return {proto::encode_contribution(s.local[party].nonce, y, batch.labels()),
          s.local[party].nonce, kBatchRows};
}

// ---- operation records ------------------------------------------------------------

enum class Outcome : std::uint8_t { kOk, kRefused, kShed, kFailed };
enum class Kind : std::uint8_t { kMine, kIngest };

struct Op {
  Kind kind = Kind::kMine;
  Outcome outcome = Outcome::kOk;
  std::uint32_t item = 0;  ///< variant index (mine) or wire index (ingest)
  double due = 0, sent = 0, done = 0, conn_free = 0;
  std::uint64_t epoch = 0;   ///< response pool_epoch / receipt epoch
  std::uint64_t lo = 0, hi = 0;  ///< writer progress window (mine)
  std::uint64_t rid = 0;
  std::vector<double> values;
};

/// Outcome counts per operation kind, for the failure table.
struct Tally {
  std::size_t attempted = 0, ok = 0, failed = 0, refused = 0, shed = 0;
  void add(Outcome o) {
    ++attempted;
    switch (o) {
      case Outcome::kOk: ++ok; break;
      case Outcome::kRefused: ++refused; break;
      case Outcome::kShed: ++shed; break;
      case Outcome::kFailed: ++failed; break;
    }
  }
  void merge(const Tally& t) {
    attempted += t.attempted;
    ok += t.ok;
    failed += t.failed;
    refused += t.refused;
    shed += t.shed;
  }
};

Outcome classify(const sap::Error& e) {
  if (dynamic_cast<const net::ServeError*>(&e)) return Outcome::kRefused;
  if (std::strstr(e.what(), "overloaded")) return Outcome::kShed;
  return Outcome::kFailed;
}

// ---- the fleet: server processes plus the parties holding the exchange open ------

struct Fleet {
  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::vector<Child> miners;
  std::optional<Child> router;
  std::vector<std::unique_ptr<net::PartyClient>> parties;
  std::vector<proto::PartyReport> reports;  ///< first miner's exchange
  net::SocketAddr door;
  std::vector<net::SocketAddr> miner_doors;

  ~Fleet() { shutdown(); }
  void shutdown() {
    for (auto& p : parties) {
      if (!p) continue;  // its exchange thread failed before connecting
      try {
        p->finish();
      } catch (const sap::Error&) {
      }
    }
    if (router) reap(*router);
    for (auto& m : miners) reap(m);
    parties.clear();
  }
  double rss_mib() const {
    double total = 0;
    for (const auto& m : miners) total += peak_rss_mib(m.pid);
    if (router) total += peak_rss_mib(router->pid);
    return total;
  }
  double server_cpu_ms() const {
    double total = 0;
    for (const auto& m : miners) total += cpu_ms(m.pid);
    if (router) total += cpu_ms(router->pid);
    return total;
  }
};

net::ServeClient::Options client_options() {
  net::ServeClient::Options o;
  o.timeout_ms = 30'000;
  return o;
}

std::unique_ptr<net::ServeClient> connect_client(const net::SocketAddr& door,
                                                 std::uint64_t seed) {
  return std::make_unique<net::ServeClient>(door, seed, kParties, client_options());
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) return false;
  return true;
}

// ---- traced-run bookkeeping ----------------------------------------------------------

struct Tracer {
  bool on = false;
  std::vector<Span> spans;
  std::int64_t open(const char* name, std::int64_t parent) {
    if (!on) return -1;
    spans.push_back({name, now_ns(), 0, parent, 0});
    return static_cast<std::int64_t>(spans.size() - 1);
  }
  void close(std::int64_t idx) {
    if (idx >= 0) spans[static_cast<std::size_t>(idx)].end_ns = now_ns();
  }
  void add(const Span& s) {
    if (on) spans.push_back(s);
  }
};

struct SetupResult {
  double total_s = 0;
  double install_ms = 0;
  double warmup_ms = 0;
  double exchange_bytes = 0;  ///< sent + received on the parties' hub connections
  std::vector<double> exchange_ms;  ///< run_exchange minus the party's optimize share
};

/// Spawn the fleet, run the exchange, wait for the door, and warm every
/// variant of the mix. `conns` receives the load connections (opened here,
/// reused by the timed phases).
SetupResult set_up(const Session& s, const Workload& w, const std::vector<Variant>& mix,
                   const std::vector<std::vector<double>>& base_answers,
                   std::uint64_t base_epoch, Fleet& fleet,
                   std::vector<std::unique_ptr<net::ServeClient>>& conns, Tracer& tr) {
  SetupResult r;
  const double t_spawn = now_ms();
  const std::int64_t root = tr.open("setup", -1);
  const std::string seed = std::to_string(s.session_seed);
  for (std::size_t m = 0; m < w.miners; ++m) {
    const long owned = w.miners > 1 ? static_cast<long>(m) : -1;
    fleet.miners.push_back(spawn_child(
        {"--miner", seed, std::to_string(w.miners), std::to_string(owned)}));
    fleet.miner_doors.push_back({"127.0.0.1", fleet.miners.back().door});
  }
  if (w.miners > 1) {
    std::vector<std::string> args = {"--router", seed};
    for (const auto& m : fleet.miners) args.push_back(std::to_string(m.door));
    fleet.router = spawn_child(args);
    fleet.door = {"127.0.0.1", fleet.router->door};
  } else {
    fleet.door = fleet.miner_doors[0];
  }

  // The exchange: k parties per miner, each on its own thread.
  const std::size_t n = w.miners * kParties;
  fleet.parties.resize(n);
  std::vector<proto::PartyReport> reports(n);
  std::vector<double> begin(n, 0.0), end(n, 0.0);
  std::vector<std::string> errors(n);
  {
    std::vector<std::thread> threads;
    for (std::size_t j = 0; j < n; ++j) {
      threads.emplace_back([&, j] {
        try {
          const std::size_t m = j / kParties, i = j % kParties;
          net::PartyClientOptions po;
          po.connect = {"127.0.0.1", fleet.miners[m].hub};
          po.index = i;
          po.parties = kParties;
          po.sap = s.sap;
          begin[j] = now_ms();
          fleet.parties[j] = std::make_unique<net::PartyClient>(s.exchange_rows[i], po);
          reports[j] = fleet.parties[j]->run_exchange();
          end[j] = now_ms();
        } catch (const std::exception& e) {
          errors[j] = e.what();
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  for (const auto& e : errors) SAP_REQUIRE(e.empty(), "exchange failed: " + e);
  fleet.reports.assign(reports.begin(), reports.begin() + kParties);
  double last_exchange = 0;
  for (std::size_t j = 0; j < n; ++j) {
    last_exchange = std::max(last_exchange, end[j]);
    const double opt = s.optimize_ms[j % kParties];
    r.exchange_ms.push_back(std::max(0.0, end[j] - begin[j] - opt));
    if (tr.on) {
      tr.spans.push_back({"exchange", ms_to_ns(begin[j]), ms_to_ns(end[j]), root, 0});
      const auto parent = static_cast<std::int64_t>(tr.spans.size() - 1);
      tr.spans.push_back({"optimize", ms_to_ns(begin[j]),
                          ms_to_ns(std::min(end[j], begin[j] + opt)), parent, 0});
    }
  }

  // Install: last exchange return -> the door answers (bounded probe).
  const std::int64_t install = tr.open("install", root);
  std::unique_ptr<net::ServeClient> probe;
  for (int attempt = 0; attempt < kProbeAttempts && !probe; ++attempt) {
    try {
      auto c = connect_client(fleet.door, s.session_seed);
      (void)c->mine_named("record-count");
      probe = std::move(c);
    } catch (const sap::Error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  SAP_REQUIRE(probe != nullptr, "serving door never answered after the exchange");
  tr.close(install);
  const double t_door = now_ms();
  r.install_ms = t_door - last_exchange;

  // Warm-up: the first correct answer for every variant, on the load
  // connections (variant v on connection v mod kLoadConns).
  conns.clear();
  conns.push_back(std::move(probe));
  while (conns.size() < kLoadConns) conns.push_back(connect_client(fleet.door, s.session_seed));
  const std::int64_t warm = tr.open("warmup", root);
  std::vector<std::string> wrong(kLoadConns);
  std::vector<std::vector<Span>> warm_spans(kLoadConns);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kLoadConns; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t v = c; v < mix.size(); v += kLoadConns) {
          try {
            const std::int64_t t0 = now_ns();
            const auto resp = conns[c]->mine_named(mix[v].job, mix[v].params);
            warm_spans[c].push_back({"mine", t0, now_ns(), warm, conns[c]->last_trace()});
            if (resp.pool_epoch != base_epoch || !same_bits(resp.values, base_answers[v]))
              wrong[c] = "warm-up answer for " + mix[v].label + " differs from the reference";
          } catch (const sap::Error& e) {
            wrong[c] = "warm-up " + mix[v].label + " failed: " + e.what();
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  for (const auto& e : wrong) SAP_REQUIRE(e.empty(), e);
  tr.close(warm);
  for (const auto& v : warm_spans)
    for (const auto& sp : v) tr.add(sp);
  tr.close(root);
  r.warmup_ms = now_ms() - t_door;
  r.total_s = (now_ms() - t_spawn) / 1000.0;
  if (tr.on) {
    // The parties hold their hub connections open and idle: the kernel's
    // byte counts on them are everything the exchange sent and received.
    std::vector<std::uint16_t> hubs;
    for (const auto& m : fleet.miners) hubs.push_back(m.hub);
    r.exchange_bytes = tcp_bytes_to(hubs);
  }
  return r;
}

// ---- timed phases ----------------------------------------------------------------------

/// The writer's progress: a read sent when `acked` batches were applied and
/// answered before `sent` had gone out saw a pool state in between.
struct WriterProgress {
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> acked{0};
};

struct PhaseResult {
  std::string name;
  double wall_ms = 0;
  double server_cpu_ms = 0;  ///< CPU the server processes spent during it
  std::vector<Op> ops;
  Tally mine, ingest;
  std::vector<Span> spans;  ///< traced runs: per-thread load spans and their ops
};

struct Traffic {
  std::vector<Wire> writer_wires;                 ///< the single writer's sequence
  std::vector<std::vector<Wire>> closed_wires;    ///< per connection (party)
  std::size_t writer_next = 0;
};

/// One request on `conn`, classified; reconnects after a transport failure.
void do_mine(std::unique_ptr<net::ServeClient>& conn, const net::SocketAddr& door,
             std::uint64_t seed, const Variant& v, Op& op, bool traced) {
  try {
    auto resp = conn->mine_named(v.job, v.params);
    op.epoch = resp.pool_epoch;
    op.values = std::move(resp.values);
    op.outcome = Outcome::kOk;
    if (traced) op.rid = conn->last_trace();
  } catch (const sap::Error& e) {
    op.outcome = classify(e);
    if (op.outcome == Outcome::kFailed) {
      try {
        conn = connect_client(door, seed);
      } catch (const sap::Error&) {
      }
    }
  }
}

void do_ingest(std::unique_ptr<net::ServeClient>& conn, const net::SocketAddr& door,
               std::uint64_t seed, const Wire& wire, Op& op) {
  try {
    op.epoch = conn->contribute_wire(wire.payload).pool_epoch;
    op.outcome = Outcome::kOk;
  } catch (const sap::Error& e) {
    op.outcome = classify(e);
    if (op.outcome == Outcome::kFailed) {
      try {
        conn = connect_client(door, seed);
      } catch (const sap::Error&) {
      }
    }
  }
}

/// One read of every variant after all writes (SVM excluded: a cold SMO fit
/// on the grown pool would dwarf the run).
std::vector<Op> read_all(const std::vector<Variant>& mix, std::unique_ptr<net::ServeClient>& conn,
                         const net::SocketAddr& door, std::uint64_t seed) {
  std::vector<Op> out;
  for (std::size_t v = 0; v < mix.size(); ++v) {
    if (mix[v].job == "svm-train-accuracy") continue;
    Op op;
    op.item = static_cast<std::uint32_t>(v);
    do_mine(conn, door, seed, mix[v], op, false);
    out.push_back(std::move(op));
  }
  return out;
}

PhaseResult run_phase(const PhasePlan& plan, double seconds, const std::vector<Variant>& mix,
                      std::uint64_t phase_seed, Traffic& traffic, WriterProgress& progress,
                      std::vector<std::unique_ptr<net::ServeClient>>& conns,
                      const net::SocketAddr& door, std::uint64_t seed, bool traced) {
  PhaseResult out;
  out.name = plan.name;
  const double duration = plan.share * seconds * 1000.0;
  const double t0 = now_ms() + 5.0;  // every thread starts on one schedule origin
  const double t_end = t0 + duration;
  std::vector<std::vector<Op>> per(kLoadConns);
  std::vector<std::vector<Span>> spans(kLoadConns);

  // Each load thread's span is a root (local index 0); its ops and idle
  // waits are its children.
  auto run_thread = [&](std::size_t c,
                        const std::function<void(std::vector<Op>&, std::vector<Span>&)>& body) {
    std::vector<Span>& sp = spans[c];
    if (traced) sp.push_back({"load", ms_to_ns(t0), 0, -1, 0});
    body(per[c], sp);
    if (traced) sp[0].end_ns = now_ns();
  };
  auto idle_until = [&](double due, std::vector<Span>& sp) {
    const double before = now_ms();
    if (due > before) {
      sleep_until_ms(due);
      if (traced) sp.push_back({"idle", ms_to_ns(before), now_ns(), 0, 0});
    }
  };

  // Threads below capture these by reference: they outlive every thread.
  const std::size_t readers = plan.read_conns;
  std::vector<std::uint32_t> schedule;
  std::vector<std::thread> threads;
  if (plan.closed_ingest) {
    for (std::size_t c = 0; c < kLoadConns; ++c) {
      threads.emplace_back([&, c] {
        run_thread(c, [&](std::vector<Op>& ops, std::vector<Span>& sp) {
          idle_until(t0, sp);
          const auto& wires = traffic.closed_wires[c];
          for (std::size_t b = 0; b < wires.size(); ++b) {
            Op op;
            op.kind = Kind::kIngest;
            op.item = static_cast<std::uint32_t>(c * wires.size() + b);
            op.due = op.sent = op.conn_free = now_ms();
            do_ingest(conns[c], door, seed, wires[b], op);
            op.done = now_ms();
            if (traced) sp.push_back({"contribute", ms_to_ns(op.sent), ms_to_ns(op.done), 0, 0});
            ops.push_back(std::move(op));
          }
        });
      });
    }
  } else {
    // Readers on connections [0, read_conns); the writer on the next one.
    if (plan.read_rate > 0) {
      Engine eng(phase_seed);
      const auto count = scheduled(plan.read_rate, plan, seconds);
      for (std::size_t i = 0; i < count; ++i)
        schedule.push_back(static_cast<std::uint32_t>(eng.uniform_index(mix.size())));
    }
    for (std::size_t c = 0; c < readers; ++c) {
      threads.emplace_back([&, c] {
        run_thread(c, [&](std::vector<Op>& ops, std::vector<Span>& sp) {
          Engine eng(phase_seed ^ (0x9E37u * (c + 1)));
          double free_at = t0;
          idle_until(t0, sp);
          // Open loop: until the schedule ends; closed loop: until t_end.
          const bool open = plan.read_rate > 0;
          for (std::size_t i = c; open ? i < schedule.size() : now_ms() < t_end; i += readers) {
            Op op;
            if (open) {
              op.item = schedule[i];
              op.due = t0 + static_cast<double>(i) * 1000.0 / plan.read_rate;
              idle_until(op.due, sp);
            } else {
              op.item = static_cast<std::uint32_t>(eng.uniform_index(mix.size()));
              op.due = now_ms();
            }
            op.conn_free = free_at;
            op.lo = progress.acked.load(std::memory_order_acquire);
            op.sent = now_ms();
            do_mine(conns[c], door, seed, mix[op.item], op, traced);
            op.done = now_ms();
            op.hi = progress.sent.load(std::memory_order_acquire);
            free_at = op.done;
            if (traced) sp.push_back({"mine", ms_to_ns(op.sent), ms_to_ns(op.done), 0, op.rid});
            ops.push_back(std::move(op));
          }
        });
      });
    }
    if (plan.write_rate > 0) {
      const std::size_t c = readers;
      SAP_REQUIRE(c < kLoadConns, "phase needs more connections than kLoadConns");
      const auto count = scheduled(plan.write_rate, plan, seconds);
      SAP_REQUIRE(traffic.writer_next + count <= traffic.writer_wires.size(),
                  "writer wires exhausted");
      const std::size_t first = traffic.writer_next;
      traffic.writer_next += count;
      threads.emplace_back([&, c, first, count] {
        run_thread(c, [&](std::vector<Op>& ops, std::vector<Span>& sp) {
          double free_at = t0;
          for (std::size_t j = 0; j < count; ++j) {
            Op op;
            op.kind = Kind::kIngest;
            op.item = static_cast<std::uint32_t>(first + j);
            op.due = t0 + static_cast<double>(j) * 1000.0 / plan.write_rate;
            idle_until(op.due, sp);
            op.conn_free = free_at;
            progress.sent.fetch_add(1, std::memory_order_acq_rel);
            op.sent = now_ms();
            do_ingest(conns[c], door, seed, traffic.writer_wires[first + j], op);
            op.done = now_ms();
            progress.acked.fetch_add(1, std::memory_order_acq_rel);
            free_at = op.done;
            if (traced) sp.push_back({"contribute", ms_to_ns(op.sent), ms_to_ns(op.done), 0, 0});
            ops.push_back(std::move(op));
          }
        });
      });
    }
  }
  for (auto& t : threads) t.join();
  double last = t0;
  for (auto& v : per) {
    for (auto& op : v) {
      last = std::max(last, op.done);
      (op.kind == Kind::kMine ? out.mine : out.ingest).add(op.outcome);
      out.ops.push_back(std::move(op));
    }
  }
  out.wall_ms = last - t0;
  for (auto& v : spans) {
    // Re-root each thread's children onto its load span's global index.
    const auto base = static_cast<std::int64_t>(out.spans.size());
    for (auto& sp : v) {
      if (sp.parent == 0) sp.parent = base;
      out.spans.push_back(sp);
    }
  }
  return out;
}

// ---- reference check ----------------------------------------------------------------

/// Walks an in-process MiningEngine through the same batches in the order
/// the miners acknowledged them and checks sampled reads at their state.
struct Reference {
  proto::MiningEngine engine;
  const Session& s;
  std::vector<double> adapt_ms, append_ms, knn_incr_ms, nb_incr_ms;

  Reference(const Session& session, std::size_t shards)
      : engine({.threads = 2, .cache_models = true, .shards = shards,
                .layout = proto::ShardLayout::kHashMod, .owned = {}}),
        s(session) {
    engine.set_pool_segments(s.segments);
  }

  void append(const Wire& w) {
    const double t0 = now_ms();
    const auto decoded = proto::decode_contribution(w.payload);
    const auto it = std::find_if(s.adaptors.begin(), s.adaptors.end(),
                                 [&](const auto& a) { return a.first == decoded.nonce; });
    SAP_REQUIRE(it != s.adaptors.end(), "reference: no adaptor for a contribution nonce");
    const auto batch = proto::logic::adapt_contribution(decoded, it->second, s.dims);
    const double t1 = now_ms();
    (void)engine.append_records(decoded.nonce, batch);
    adapt_ms.push_back(t1 - t0);
    append_ms.push_back(now_ms() - t1);
  }

  proto::MiningResponse run(const Variant& v) {
    auto resp = engine.run({v.job, v.params});
    if (resp.model_incremental && v.job == "knn-train-accuracy") knn_incr_ms.push_back(resp.fit_millis);
    if (resp.model_incremental && v.job == "nb-train-accuracy") nb_incr_ms.push_back(resp.fit_millis);
    return resp;
  }
};

struct Check {
  const Op* op = nullptr;
  std::uint64_t lo = 0, hi = 0;  ///< replay-prefix window the read may have seen
};

/// One set-up's inputs. Each set-up runs a session of its own, drawn from the
/// workload seed, so setup_s and the closed-loop costs are medians over
/// kSetups data sets rather than one data set's luck (the SVM warm-up fits
/// alone take a quarter longer on some data sets than on others).
struct FleetInputs {
  Session s;
  Traffic traffic;  ///< the measured fleet: writer wires; the others: closed-ingest wires
  std::unique_ptr<Reference> ref;              ///< over s's unified pool
  std::vector<proto::MiningResponse> base;     ///< ref's answers on the base pool
  std::vector<std::vector<double>> base_answers;
  std::uint64_t base_epoch = 0;
};

std::unique_ptr<FleetInputs> make_inputs(std::uint64_t seed, const Workload& w,
                                         const std::vector<Variant>& mix, bool measured,
                                         double seconds) {
  auto in = std::make_unique<FleetInputs>();
  in->s = make_session(seed, w.miners);
  if (measured) {
    std::size_t writer_total = 0;
    for (const auto& p : w.phases) writer_total += scheduled(p.write_rate, p, seconds);
    for (std::size_t j = 0; j < writer_total; ++j)
      in->traffic.writer_wires.push_back(make_wire(in->s, j % kParties, j / kParties));
  } else {
    in->traffic.closed_wires.resize(kLoadConns);
    for (std::size_t c = 0; c < kLoadConns; ++c)
      for (std::size_t b = 0; b < kClosedBatchesPerConn; ++b)
        in->traffic.closed_wires[c].push_back(make_wire(in->s, c, b));
  }
  in->ref = std::make_unique<Reference>(in->s, w.miners);
  std::vector<proto::MiningRequest> batch;
  for (const auto& v : mix) batch.push_back({v.job, v.params});
  in->base = in->ref->engine.run_batch(batch);
  for (const auto& r : in->base) in->base_answers.push_back(r.values);
  in->base_epoch = in->ref->engine.pool_epoch();
  return in;
}

// ---- stats-door deltas ----------------------------------------------------------------

std::uint64_t counter(const sap::obs::Snapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.counters)
    if (n == name) return v;
  return 0;
}

sap::obs::HistogramSnapshot hist(const sap::obs::Snapshot& s, const std::string& name) {
  for (const auto& [n, h] : s.histograms)
    if (n == name) return h;
  return {};
}

sap::obs::HistogramSnapshot hist_delta(const sap::obs::HistogramSnapshot& after,
                                       const sap::obs::HistogramSnapshot& before) {
  sap::obs::HistogramSnapshot d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  d.max = after.max;
  std::map<std::uint32_t, std::int64_t> b;
  for (const auto& [i, c] : after.buckets) b[i] += static_cast<std::int64_t>(c);
  for (const auto& [i, c] : before.buckets) b[i] -= static_cast<std::int64_t>(c);
  for (const auto& [i, c] : b)
    if (c > 0) d.buckets.emplace_back(i, static_cast<std::uint64_t>(c));
  return d;
}

sap::obs::Snapshot door_stats(const net::SocketAddr& door, std::uint64_t seed) {
  auto c = connect_client(door, seed);
  return c->stats().snapshot;
}

// ---- main driver -------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    SAP_REQUIRE(i + 1 < argc, "flag " + k + " needs a value");
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else {
      SAP_FAIL("unknown flag " + k);
    }
  }
  SAP_REQUIRE(have_workload, "--workload is required");
  SAP_REQUIRE(a.seconds >= 1 && a.seconds <= 600, "--seconds must be in [1, 600]");
  return a;
}

/// Mean of per-fleet values: closed ingest runs on two fleets, where a
/// nearest-rank median would just pick the lower.
double mean(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return v.empty() ? 0.0 : total / static_cast<double>(v.size());
}

std::string fmt(double v, int prec = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

std::string tally_line(const std::string& phase, const char* kind, const Tally& t) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "  %-14s %-7s attempted %6zu  ok %6zu  failed %4zu  refused %4zu  shed %4zu",
                phase.c_str(), kind, t.attempted, t.ok, t.failed, t.refused, t.shed);
  return buf;
}

int drive(const Args& args) {
  const Workload w = make_workload(args.workload);
  const auto mix = read_mix(w.with_svm);
  Tracer tr;
  tr.on = args.trace;

  // ---- inputs and the in-process references (outside every timed interval) --
  Engine seeder(args.seed);
  std::vector<std::unique_ptr<FleetInputs>> inputs;
  for (std::size_t k = 0; k < kSetups; ++k)
    inputs.push_back(make_inputs(seeder(), w, mix, k + 1 == kSetups, args.seconds));
  FleetInputs& measured = *inputs.back();
  Session& s = measured.s;
  Traffic& traffic = measured.traffic;
  Reference& ref = *measured.ref;
  const auto& base_answers = measured.base_answers;
  const std::uint64_t base_epoch = measured.base_epoch;
  std::map<std::string, double> cold_fit;  // per job family: mean cold fit ms
  std::map<std::string, int> cold_n;
  for (std::size_t v = 0; v < mix.size(); ++v) {
    cold_fit[mix[v].job] += measured.base[v].fit_millis;
    ++cold_n[mix[v].job];
  }

  // ---- set-up, kSetups times; the last fleet serves the timed phases -------
  std::vector<PhaseResult> extra_reads;     // closed-read on each fleet but the last
  std::vector<PhaseResult> closed_phases;   // one per set-up fleet but the last
  std::vector<std::vector<Op>> closed_finals;
  std::vector<double> setup_s;
  SetupResult last_setup;
  auto fleet = std::make_unique<Fleet>();
  std::vector<std::unique_ptr<net::ServeClient>> conns;
  for (std::size_t k = 0; k < kSetups; ++k) {
    FleetInputs& in = *inputs[k];
    if (k > 0) {
      conns.clear();
      fleet = std::make_unique<Fleet>();
    }
    Tracer setup_tr;
    setup_tr.on = tr.on && k + 1 == kSetups;
    last_setup = set_up(in.s, w, mix, in.base_answers, in.base_epoch, *fleet, conns, setup_tr);
    setup_s.push_back(last_setup.total_s);
    if (setup_tr.on) tr.spans = std::move(setup_tr.spans);
    if (k + 1 < kSetups) {
      WriterProgress unused;
      double cpu0 = fleet->server_cpu_ms();
      extra_reads.push_back(run_phase(w.phases[0], args.seconds, mix, args.seed + k, in.traffic,
                                      unused, conns, fleet->door, in.s.session_seed, false));
      extra_reads.back().name += "/" + std::to_string(k);
      extra_reads.back().server_cpu_ms = fleet->server_cpu_ms() - cpu0;
      cpu0 = fleet->server_cpu_ms();
      closed_phases.push_back(run_phase(kClosedIngest, args.seconds, mix, args.seed, in.traffic,
                                        unused, conns, fleet->door, in.s.session_seed, false));
      closed_phases.back().name += "/" + std::to_string(k);
      closed_phases.back().server_cpu_ms = fleet->server_cpu_ms() - cpu0;
      closed_finals.push_back(read_all(mix, conns[0], fleet->door, in.s.session_seed));
    }
  }

  // ---- tracing overhead: paired closed-read windows, spans off / on --------
  // On the base pool, before any write: after the writes every SVM read
  // would wait for a cold SMO fit on the grown pool.
  double trace_overhead_pct = 0;
  if (tr.on) {
    std::vector<double> ratios;
    PhasePlan probe{"ab", 0.05, kLoadConns, 0.0, 0.0, false, false, false};
    WriterProgress none;
    for (int pair = 0; pair < 3; ++pair) {
      double rps[2] = {0, 0};
      for (int i = 0; i < 2; ++i) {
        const int traced = (pair + i) % 2;  // alternate which side goes first
        auto r = run_phase(probe, args.seconds, mix, args.seed + 77 + pair, traffic, none,
                           conns, fleet->door, s.session_seed, traced == 1);
        rps[traced] = static_cast<double>(r.mine.ok) / std::max(1e-9, r.wall_ms);
      }
      ratios.push_back((rps[0] / std::max(1e-12, rps[1]) - 1.0) * 100.0);
    }
    trace_overhead_pct = sapbench::median(ratios);
  }

  // ---- timed phases ---------------------------------------------------------
  sap::obs::Snapshot door_before, door_after;
  std::vector<sap::obs::Snapshot> miners_before, miners_after;
  if (tr.on) {
    door_before = door_stats(fleet->door, s.session_seed);
    if (w.miners > 1)
      for (const auto& d : fleet->miner_doors) miners_before.push_back(door_stats(d, s.session_seed));
  }
  WriterProgress progress;
  std::vector<PhaseResult> phases;
  for (std::size_t p = 0; p < w.phases.size(); ++p) {
    const double cpu0 = fleet->server_cpu_ms();
    phases.push_back(run_phase(w.phases[p], args.seconds, mix, args.seed * 1315423911u + p,
                               traffic, progress, conns, fleet->door, s.session_seed, tr.on));
    phases.back().server_cpu_ms = fleet->server_cpu_ms() - cpu0;
  }
  if (tr.on) {
    door_after = door_stats(fleet->door, s.session_seed);
    if (w.miners > 1)
      for (const auto& d : fleet->miner_doors) miners_after.push_back(door_stats(d, s.session_seed));
  }

  const std::vector<Op> final_reads = read_all(mix, conns[0], fleet->door, s.session_seed);

  // Router-layer sample through an in-process ShardRouter over the same
  // miners (reads only): merge and gather time per request.
  std::vector<double> merge_ms, gather_ms;
  if (tr.on && w.miners > 1) {
    net::ShardRouterOptions ro;
    ro.miners = fleet->miner_doors;
    ro.shards = w.miners;
    ro.replicas = 1;
    ro.seed = s.session_seed;
    ro.parties = kParties;
    net::ShardRouter router(ro);
    for (int rep = 0; rep < 10; ++rep) {
      for (const auto& v : mix) {
        (void)router.mine_named(v.job, v.params);
        (v.job == "perceptron-train-accuracy" ? gather_ms : merge_ms).push_back(router.last_merge_ms());
      }
    }
  }
  const double rss = fleet->rss_mib();
  const auto reports = fleet->reports;
  conns.clear();
  fleet.reset();  // SIGKILL + reap every server process

  // ---- correctness: replay the acknowledged batches into the reference -----
  bool correct = true;
  std::vector<std::string> problems;
  // The writer's batches, in its sequence: the order every owner applied them.
  std::vector<std::uint32_t> written;
  for (const auto& ph : phases)
    for (const auto& op : ph.ops)
      if (op.kind == Kind::kIngest && op.outcome == Outcome::kOk) written.push_back(op.item);
  std::sort(written.begin(), written.end());
  std::vector<const Wire*> replay;
  for (const auto item : written) replay.push_back(&traffic.writer_wires[item]);
  const std::size_t accepted_rows = replay.size() * kBatchRows;

  // Reads to check: every read of a static pool (cheap: base answers), the
  // final reads, and a seeded sample of the mid-stream reads.
  std::vector<Check> checks;
  std::vector<const Op*> mid;
  const bool single = w.miners == 1;
  for (const auto& ph : phases) {
    for (const auto& op : ph.ops) {
      if (op.kind != Kind::kMine || op.outcome != Outcome::kOk) continue;
      if (single && op.epoch == base_epoch) {
        if (!same_bits(op.values, base_answers[op.item])) {
          correct = false;
          problems.push_back("read of " + mix[op.item].label + " at the base epoch differs");
        }
        continue;
      }
      if (!single && op.hi == 0) {
        if (op.epoch != base_epoch || !same_bits(op.values, base_answers[op.item])) {
          correct = false;
          problems.push_back("read of " + mix[op.item].label + " before any write differs");
        }
        continue;
      }
      mid.push_back(&op);
    }
  }
  {
    Engine pick(args.seed ^ 0xC0FFEE);
    const std::size_t take = std::min(kVerifySample, mid.size());
    for (const auto idx : pick.sample_without_replacement(mid.size(), take)) {
      const Op* op = mid[idx];
      Check c{op, 0, 0};
      if (single) {
        c.lo = c.hi = op->epoch - base_epoch;
      } else {
        c.lo = op->lo;
        c.hi = op->hi;
      }
      checks.push_back(c);
    }
  }
  for (const auto& op : final_reads) {
    if (op.outcome != Outcome::kOk) {
      correct = false;
      problems.push_back("final read of " + mix[op.item].label + " failed");
      continue;
    }
    checks.push_back({&op, replay.size(), replay.size()});
  }
  std::sort(checks.begin(), checks.end(), [](const Check& a, const Check& b) { return a.lo < b.lo; });
  std::vector<bool> matched(checks.size(), false);
  std::size_t next_check = 0;
  for (std::size_t n = 0; n <= replay.size(); ++n) {
    std::map<std::uint32_t, proto::MiningResponse> at_n;
    for (std::size_t i = next_check; i < checks.size() && checks[i].lo <= n; ++i) {
      if (matched[i] || checks[i].hi < n) continue;
      const Op& op = *checks[i].op;
      auto it = at_n.find(op.item);
      if (it == at_n.end()) it = at_n.emplace(op.item, ref.run(mix[op.item])).first;
      if (it->second.pool_epoch == op.epoch && same_bits(it->second.values, op.values))
        matched[i] = true;
    }
    while (next_check < checks.size() &&
           (matched[next_check] || checks[next_check].hi <= n)) {
      if (!matched[next_check]) {
        correct = false;
        const Op& op = *checks[next_check].op;
        problems.push_back("read of " + mix[op.item].label + " at epoch " +
                           std::to_string(op.epoch) + " matches no reference state in [" +
                           std::to_string(checks[next_check].lo) + ", " +
                           std::to_string(checks[next_check].hi) + "]");
      }
      ++next_check;
    }
    if (n < replay.size()) ref.append(*replay[n]);
  }
  for (std::size_t i = next_check; i < checks.size(); ++i) {
    if (!matched[i]) {
      correct = false;
      problems.push_back("read at epoch " + std::to_string(checks[i].op->epoch) +
                         " was never matched");
    }
  }
  // The final record count: base plus every accepted row.
  for (const auto& op : final_reads) {
    if (mix[op.item].job != "record-count" || op.outcome != Outcome::kOk) continue;
    const double expect = static_cast<double>(s.base_records + accepted_rows);
    if (op.values.size() != 1 || op.values[0] != expect) {
      correct = false;
      problems.push_back("final record-count " +
                         (op.values.empty() ? std::string("(none)") : fmt(op.values[0], 0)) +
                         " != base " + std::to_string(s.base_records) + " + accepted " +
                         std::to_string(accepted_rows));
    }
  }

  // The other fleets' closed-loop reads saw their base pools.
  for (std::size_t f = 0; f < extra_reads.size(); ++f)
    for (const auto& op : extra_reads[f].ops)
      if (op.outcome == Outcome::kOk && (op.epoch != inputs[f]->base_epoch ||
                                         !same_bits(op.values, inputs[f]->base_answers[op.item]))) {
        correct = false;
        problems.push_back(extra_reads[f].name + ": read of " + mix[op.item].label + " differs");
      }

  // Each closed-ingest fleet: its batches in receipt-epoch order (per shard,
  // the order the owner applied them), then its final reads and row count.
  for (std::size_t f = 0; f < closed_phases.size(); ++f) {
    Reference& ref_closed = *inputs[f]->ref;
    const auto& closed_wires = inputs[f]->traffic.closed_wires;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> acked;
    for (const auto& op : closed_phases[f].ops)
      if (op.outcome == Outcome::kOk) acked.emplace_back(op.epoch, op.item);
    std::sort(acked.begin(), acked.end());
    for (const auto& [epoch, item] : acked)
      ref_closed.append(closed_wires[item / kClosedBatchesPerConn][item % kClosedBatchesPerConn]);
    for (const auto& op : closed_finals[f]) {
      const auto expect = ref_closed.run(mix[op.item]);
      if (op.outcome != Outcome::kOk || op.epoch != expect.pool_epoch ||
          !same_bits(op.values, expect.values)) {
        correct = false;
        problems.push_back("closed-ingest fleet: final read of " + mix[op.item].label +
                           " differs from the reference");
      }
      if (mix[op.item].job == "record-count" && op.outcome == Outcome::kOk &&
          (op.values.size() != 1 ||
           op.values[0] != static_cast<double>(inputs[f]->s.base_records + acked.size() * kBatchRows))) {
        correct = false;
        problems.push_back("closed-ingest fleet: final record-count is not base + accepted rows");
      }
    }
    ref.adapt_ms.insert(ref.adapt_ms.end(), ref_closed.adapt_ms.begin(), ref_closed.adapt_ms.end());
    ref.append_ms.insert(ref.append_ms.end(), ref_closed.append_ms.begin(), ref_closed.append_ms.end());
  }

  // ---- end-to-end metrics ------------------------------------------------------
  // A host stall that hits one window moves one value of many.
  std::vector<std::pair<double, double>> mine_due, ingest_due;  // (due, latency)
  std::vector<double> rps_win, bps_win, read_cpu_us, ingest_cpu_us, late, closed_lat;
  Tally all_mine, all_ingest;
  std::vector<std::string> table;
  std::vector<std::pair<const PhaseResult*, const PhasePlan*>> reported;
  for (std::size_t f = 0; f < closed_phases.size(); ++f) {
    reported.emplace_back(&extra_reads[f], &w.phases[0]);
    reported.emplace_back(&closed_phases[f], &kClosedIngest);
  }
  for (std::size_t p = 0; p < phases.size(); ++p) reported.emplace_back(&phases[p], &w.phases[p]);
  for (const auto& [php, planp] : reported) {
    const PhaseResult& ph = *php;
    const PhasePlan& plan = *planp;
    all_mine.merge(ph.mine);
    all_ingest.merge(ph.ingest);
    if (ph.mine.attempted) table.push_back(tally_line(ph.name, "mine", ph.mine));
    if (ph.ingest.attempted) table.push_back(tally_line(ph.name, "ingest", ph.ingest));
    std::vector<double> closed_done, ingest_done;
    for (const auto& op : ph.ops) {
      const bool ok = op.outcome == Outcome::kOk;
      const bool timed = op.kind == Kind::kMine ? plan.mine_latency : plan.ingest_latency;
      if (timed) {
        const sapbench::OpenOp o{op.due, op.sent, op.done, ok};
        (op.kind == Kind::kMine ? mine_due : ingest_due)
            .emplace_back(op.due, sapbench::due_latency_ms(o));
        late.push_back(sapbench::generator_lateness_ms(o, op.conn_free));
      } else if (op.kind == Kind::kMine) {
        closed_lat.push_back(ok ? op.done - op.sent : kMissMs);
        if (ok) closed_done.push_back(op.done);
      } else if (plan.closed_ingest && ok) {
        ingest_done.push_back(op.done);
      }
    }
    if (plan.read_rate == 0 && plan.read_conns > 0 && !closed_done.empty()) {
      rps_win.push_back(static_cast<double>(closed_done.size()) / std::max(1e-6, ph.wall_ms / 1000.0));
      read_cpu_us.push_back(ph.server_cpu_ms * 1000.0 / static_cast<double>(closed_done.size()));
    }
    if (plan.closed_ingest && !ingest_done.empty()) {
      bps_win.push_back(static_cast<double>(ingest_done.size()) / std::max(1e-6, ph.wall_ms / 1000.0));
      ingest_cpu_us.push_back(ph.server_cpu_ms * 1000.0 / static_cast<double>(ingest_done.size()));
    }
  }
  // Server CPU per operation over the measured fleet's open-loop phases. Their
  // schedules fix the operation count; on ingest-live the reads there run
  // beside writes and pay for every refit an epoch bump forces.
  double open_cpu_ms = 0, open_ops = 0;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    if (w.phases[p].read_rate == 0 && w.phases[p].write_rate == 0) continue;
    open_cpu_ms += phases[p].server_cpu_ms;
    open_ops += static_cast<double>(phases[p].mine.attempted + phases[p].ingest.attempted);
  }
  const double open_cpu_us = open_cpu_ms * 1000.0 / std::max(1.0, open_ops);
  const double client_closed_p50 = sapbench::median(closed_lat);
  // Open-loop windows: consecutive runs of kWindowSamples in due order (the
  // last absorbs the remainder), so every window supports its p99.
  auto windows = [](std::vector<std::pair<double, double>> due) {
    std::sort(due.begin(), due.end());
    const std::size_t n = std::max<std::size_t>(1, due.size() / kWindowSamples);
    std::vector<std::vector<double>> out(n);
    for (std::size_t i = 0; i < due.size(); ++i)
      out[std::min(n - 1, i / kWindowSamples)].push_back(due[i].second);
    return out;
  };
  const auto mine_win = windows(mine_due);
  const auto ingest_win = windows(ingest_due);
  std::vector<double> mine_p50s, mine_p99s, ingest_p50s, ingest_p99s;
  bool tails_supported = true;
  for (const auto& win : mine_win) {
    const auto ws = sapbench::summarize(win);
    tails_supported = tails_supported && ws.p99_supported;
    mine_p50s.push_back(ws.p50);
    mine_p99s.push_back(ws.p99);
  }
  for (const auto& win : ingest_win) {
    const auto ws = sapbench::summarize(win);
    tails_supported = tails_supported && ws.p99_supported;
    ingest_p50s.push_back(ws.p50);
    ingest_p99s.push_back(ws.p99);
  }
  const std::size_t mine_n = mine_due.size(), ingest_n = ingest_due.size();
  const double late_p99 = sapbench::quantile(late, 0.99);
  if (!tails_supported) {
    correct = false;
    problems.push_back("an open-loop window is too small for its p99 (mine n=" +
                       std::to_string(mine_n) + ", ingest n=" + std::to_string(ingest_n) +
                       "; need >= " + std::to_string(kWindowSamples) + " per window)");
  }
  if (late_p99 > kMaxGeneratorLateMs) {
    correct = false;
    problems.push_back("open-loop generator fell behind its schedule (lateness p99 " +
                       fmt(late_p99) + " ms)");
  }

  // ---- report ------------------------------------------------------------------------
  emit::line("workload " + w.name + " seed " + std::to_string(args.seed) + " session-seed " +
             std::to_string(s.session_seed) + " miners " + std::to_string(w.miners) +
             (w.miners > 1 ? " + router" : "") + " base-records " + std::to_string(s.base_records));
  emit::line("setup_s per set-up:" + [&] {
    std::string t;
    for (double v : setup_s) t += " " + fmt(v);
    return t;
  }());
  emit::line("operations (per phase and kind):");
  for (const auto& l : table) emit::line(l);
  emit::line(tally_line("final-reads", "mine", [&] {
    Tally t;
    for (const auto& op : final_reads) t.add(op.outcome);
    for (const auto& finals : closed_finals)
      for (const auto& op : finals) t.add(op.outcome);
    return t;
  }()));
  for (std::size_t i = 0; i < reports.size(); ++i)
    emit::line("party " + std::to_string(i) + " rho " + fmt(reports[i].local_rho, 4) +
               " bound " + fmt(reports[i].bound, 4));
  for (std::size_t v = 0; v < mix.size(); ++v)
    if (mix[v].label == "knn.k3" || mix[v].label == "svm.c1")
      emit::line("reference " + mix[v].label + " = " + fmt(base_answers[v][0], 6));
  for (const auto& [php, planp] : reported) {
    const PhaseResult& ph = *php;
    std::map<std::uint32_t, std::vector<double>> by_variant;
    std::vector<double> writes;
    for (const auto& op : ph.ops) {
      const double lat = op.outcome == Outcome::kOk ? op.done - op.sent : kMissMs;
      if (op.kind == Kind::kMine) by_variant[op.item].push_back(lat);
      else writes.push_back(lat);
    }
    std::string l = "  " + ph.name + " (" + fmt(ph.wall_ms, 0) + " ms) service p50/p99 ms:";
    for (const auto& [v, lat] : by_variant)
      l += " " + mix[v].label + " " + fmt(sapbench::median(lat)) + "/" + fmt(sapbench::quantile(lat, 0.99));
    if (!writes.empty())
      l += " contribute " + fmt(sapbench::median(writes)) + "/" + fmt(sapbench::quantile(writes, 0.99));
    emit::line(l);
  }
  auto list = [](const std::vector<double>& v) {
    std::string t;
    for (double x : v) {
      if (!t.empty()) t += ' ';
      t += fmt(x);
    }
    return t;
  };
  emit::line("per fleet: server cpu us/read [" + list(read_cpu_us) + "] us/batch [" +
             list(ingest_cpu_us) + "]; open-loop phases: us/op " + fmt(open_cpu_us));
  emit::line("windows: mine_rps [" + list(rps_win) + "] mine p50 [" + list(mine_p50s) +
             "] p99 [" + list(mine_p99s) + "] (n=" + std::to_string(mine_n) + ")");
  emit::line("windows: ingest_bps [" + list(bps_win) + "] ingest p50 [" + list(ingest_p50s) +
             "] p99 [" + list(ingest_p99s) + "] (n=" + std::to_string(ingest_n) +
             "); generator lateness p99 " + fmt(late_p99) + " ms");
  emit::line("checked " + std::to_string(checks.size()) + " sampled/final reads against the reference over " +
             std::to_string(replay.size()) + " replayed batches");
  for (const auto& p : problems) emit::warn("CHECK FAILED: " + p);

  std::vector<emit::Metric> m;
  std::size_t final_attempted = final_reads.size();
  std::size_t final_failed = 0;
  for (const auto& op : final_reads) final_failed += op.outcome == Outcome::kOk ? 0 : 1;
  for (const auto& finals : closed_finals) {
    final_attempted += finals.size();
    for (const auto& op : finals) final_failed += op.outcome == Outcome::kOk ? 0 : 1;
  }
  const std::size_t attempted = all_mine.attempted + all_ingest.attempted + final_attempted;
  const std::size_t failed = all_mine.attempted - all_mine.ok + all_ingest.attempted -
                             all_ingest.ok + final_failed;

  if (!tr.on) {
    m.push_back({"setup_s", sapbench::median(setup_s), "s"});
    m.push_back({"mine_cpu_us", sapbench::median(read_cpu_us), "us"});
    m.push_back({"ingest_cpu_us", mean(ingest_cpu_us), "us"});
    m.push_back({"open_cpu_us", open_cpu_us, "us"});
    m.push_back({"server_rss_mib", rss, "MiB"});
    emit::result(correct, attempted, failed, m);
    return correct ? 0 : 1;
  }

  // ---- per-layer metrics (traced run) ---------------------------------------------------
  auto add = [&](const std::string& name, double v, const std::string& unit) {
    m.push_back({name, std::isfinite(v) ? v : 0.0, unit});
  };
  double opt_total = 0;
  for (double v : s.optimize_ms) opt_total += v;
  add("optimize.party_ms", sapbench::median(s.optimize_ms), "ms");
  add("optimize.total_ms", opt_total, "ms");
  add("exchange.ms", sapbench::median(last_setup.exchange_ms), "ms");
  add("exchange.bytes", last_setup.exchange_bytes, "bytes");
  add("install.ms", last_setup.install_ms, "ms");
  auto cold = [&](const std::string& job) {
    return cold_n.count(job) ? cold_fit[job] / cold_n[job] : 0.0;
  };
  add("fit.svm_ms", cold("svm-train-accuracy"), "ms");
  add("fit.perceptron_ms", cold("perceptron-train-accuracy"), "ms");
  add("fit.knn_ms", cold("knn-train-accuracy"), "ms");
  add("fit.nb_ms", cold("nb-train-accuracy"), "ms");
  add("warmup.ms", last_setup.warmup_ms, "ms");
  add("fit.knn_incr_ms", sapbench::median(ref.knn_incr_ms), "ms");
  add("fit.nb_incr_ms", sapbench::median(ref.nb_incr_ms), "ms");

  const double hits = static_cast<double>(counter(door_after, "engine.cache.hits") -
                                          counter(door_before, "engine.cache.hits"));
  const double fits = static_cast<double>(counter(door_after, "engine.cache.fits") -
                                          counter(door_before, "engine.cache.fits"));
  const double incr = static_cast<double>(counter(door_after, "engine.cache.incremental") -
                                          counter(door_before, "engine.cache.incremental"));
  add("cache.hit_ratio", hits / std::max(1.0, hits + fits + incr), "ratio");
  add("cache.fits", fits, "count");
  add("cache.incremental", incr, "count");
  const auto serve_h = hist_delta(hist(door_after, "engine.serve_ms"), hist(door_before, "engine.serve_ms"));
  const auto fit_h = hist_delta(hist(door_after, "engine.fit_ms"), hist(door_before, "engine.fit_ms"));
  add("serve.p50_ms", serve_h.quantile(0.5), "ms");
  add("serve.p99_ms", serve_h.quantile(0.99), "ms");

  // Codec cost per operation, timed on the run's own payloads.
  double req_us = 0, resp_us = 0, contrib_us = 0, req_bytes = 0, resp_bytes = 0, contrib_bytes = 0;
  {
    constexpr int kReps = 200;
    std::vector<proto::WireMiningResponse> samples;
    for (std::size_t v = 0; v < mix.size(); ++v) {
      proto::WireMiningResponse r;
      r.pool_epoch = base_epoch;
      r.values = base_answers[v];
      samples.push_back(r);
    }
    const double t0 = now_ms();
    for (int rep = 0; rep < kReps; ++rep)
      for (const auto& v : mix) (void)proto::decode_mining_request(proto::encode_mining_request(v.job, v.params));
    const double t1 = now_ms();
    for (int rep = 0; rep < kReps; ++rep)
      for (const auto& r : samples) (void)proto::decode_mining_response(proto::encode_mining_response(r));
    const double t2 = now_ms();
    const auto& wsample = traffic.writer_wires;
    const std::size_t nw = std::min<std::size_t>(wsample.size(), 64);
    for (int rep = 0; rep < kReps; ++rep)
      for (std::size_t j = 0; j < nw; ++j) {
        const auto d = proto::decode_contribution(wsample[j].payload);
        (void)proto::encode_contribution(d.nonce, d.data.features, d.data.labels);
      }
    const double t3 = now_ms();
    const double per = static_cast<double>(kReps * mix.size());
    req_us = (t1 - t0) * 1000.0 / per;
    resp_us = (t2 - t1) * 1000.0 / per;
    contrib_us = (t3 - t2) * 1000.0 / static_cast<double>(kReps * std::max<std::size_t>(1, nw));
    for (std::size_t v = 0; v < mix.size(); ++v) {
      req_bytes += 8.0 * static_cast<double>(proto::encode_mining_request(mix[v].job, mix[v].params).size());
      resp_bytes += 8.0 * static_cast<double>(proto::encode_mining_response(samples[v]).size());
    }
    req_bytes /= static_cast<double>(mix.size());
    resp_bytes /= static_cast<double>(mix.size());
    contrib_bytes = 8.0 * static_cast<double>(wsample.empty() ? 0 : wsample[0].payload.size());
  }
  add("codec.request_us", req_us, "us");
  add("codec.response_us", resp_us, "us");
  add("codec.contribution_us", contrib_us, "us");
  add("wire.request_bytes", req_bytes, "bytes");
  add("wire.response_bytes", resp_bytes, "bytes");
  add("wire.contribution_bytes", contrib_bytes, "bytes");
  add("wire.overhead_p50_ms", client_closed_p50 - serve_h.quantile(0.5), "ms");
  const auto qw = hist_delta(hist(door_after, "reactor.queue_wait_ms"), hist(door_before, "reactor.queue_wait_ms"));
  add("reactor.queue_wait_p99_ms", qw.quantile(0.99), "ms");
  add("reactor.shed", static_cast<double>(counter(door_after, "reactor.shed") - counter(door_before, "reactor.shed")), "count");
  add("ingest.adapt_ms", sapbench::median(ref.adapt_ms), "ms");
  add("ingest.append_ms", sapbench::median(ref.append_ms), "ms");
  add("ingest.records", static_cast<double>(counter(door_after, "ingest.records") - counter(door_before, "ingest.records")), "count");
  add("ingest.rejected", static_cast<double>(counter(door_after, "ingest.rejected") - counter(door_before, "ingest.rejected")), "count");

  // Router layer (cluster only; zero elsewhere — there is no router).
  double legs = 0, fan50 = 0, fan99 = 0, lock_wait = 0, failovers = 0, retries = 0;
  double merge_total_ms = 0;
  const double router_reads = static_cast<double>(all_mine.attempted);
  if (w.miners > 1) {
    const auto fan = hist_delta(hist(door_after, "router.fanout_ms"), hist(door_before, "router.fanout_ms"));
    const double mine_reqs = static_cast<double>(counter(door_after, "router.mine_requests") -
                                                 counter(door_before, "router.mine_requests"));
    const double contribs = static_cast<double>(counter(door_after, "router.contributions") -
                                                counter(door_before, "router.contributions"));
    legs = static_cast<double>(fan.count) / std::max(1.0, mine_reqs + contribs);
    fan50 = fan.quantile(0.5);
    fan99 = fan.quantile(0.99);
    failovers = static_cast<double>(counter(door_after, "router.failovers") - counter(door_before, "router.failovers"));
    retries = static_cast<double>(counter(door_after, "router.retries") - counter(door_before, "router.retries"));
    // Router-only handler time: the cluster aggregate minus every miner's.
    auto handler = hist_delta(hist(door_after, "reactor.handler_ms"), hist(door_before, "reactor.handler_ms"));
    double router_handler = handler.sum;
    for (std::size_t i = 0; i < miners_after.size(); ++i)
      router_handler -= hist_delta(hist(miners_after[i], "reactor.handler_ms"),
                                   hist(miners_before[i], "reactor.handler_ms")).sum;
    const double per_merge = sapbench::median(merge_ms);
    merge_total_ms = router_reads * per_merge;
    lock_wait = (router_handler - fan.sum - merge_total_ms) / std::max(1.0, mine_reqs + contribs);
  }
  add("router.legs_per_request", legs, "count");
  add("router.fanout_p50_ms", fan50, "ms");
  add("router.fanout_p99_ms", fan99, "ms");
  add("router.gather_ms", sapbench::median(gather_ms), "ms");
  add("router.merge_ms", sapbench::median(merge_ms), "ms");
  add("router.lock_wait_ms", lock_wait, "ms");
  add("router.failovers", failovers, "count");
  add("router.client_retries", retries, "count");

  // Layer budget: span self time, with the load threads' op time split by
  // the stats door (fit, serve) and by per-op costs measured above (codec,
  // ingest, merge); wire is what remains of the client-observed op time.
  for (auto& ph : phases) {
    const auto offset = static_cast<std::int64_t>(tr.spans.size());
    for (auto sp : ph.spans) {
      if (sp.parent >= 0) sp.parent += offset;
      tr.spans.push_back(sp);
    }
  }
  const auto self = sapbench::self_time_ms(tr.spans);
  auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double op_ms = self_of("mine") + self_of("contribute");
  const double n_ingest = static_cast<double>(replay.size());  // measured fleet only
  const double ingest_ms = n_ingest * (sapbench::median(ref.adapt_ms) + sapbench::median(ref.append_ms));
  double fit_ms = fit_h.sum;
  double serve_ms = std::max(0.0, serve_h.sum - fit_ms);
  if (w.miners > 1) {
    // Shard partials export no engine histograms: the miners' whole handler
    // time, less their share of ingest, stands for serve (fit included).
    double handler = 0;
    for (std::size_t i = 0; i < miners_after.size(); ++i)
      handler += hist_delta(hist(miners_after[i], "reactor.handler_ms"),
                            hist(miners_before[i], "reactor.handler_ms")).sum;
    fit_ms = 0;
    serve_ms = std::max(0.0, handler - ingest_ms);
  }
  const double codec_ms = (router_reads * (req_us + resp_us) + n_ingest * contrib_us) / 1000.0;
  const double wire_ms = std::max(0.0, op_ms - fit_ms - serve_ms - ingest_ms - codec_ms - merge_total_ms);
  add("self.optimize_ms", self_of("optimize"), "ms");
  add("self.exchange_ms", self_of("exchange"), "ms");
  add("self.install_ms", self_of("install"), "ms");
  add("self.fit_ms", fit_ms, "ms");
  add("self.serve_ms", serve_ms, "ms");
  add("self.ingest_ms", ingest_ms, "ms");
  add("self.codec_ms", codec_ms, "ms");
  add("self.merge_ms", merge_total_ms, "ms");
  add("self.wire_ms", wire_ms, "ms");
  double wall_total = 0;
  for (const auto& sp : tr.spans)
    if (sp.parent < 0) wall_total += static_cast<double>(sp.end_ns - sp.start_ns) / 1e6;
  const double residual = self_of("setup") + self_of("load") + self_of("warmup");
  add("residual_pct", 100.0 * residual / std::max(1e-9, wall_total), "%");
  add("trace.overhead_pct", trace_overhead_pct, "%");
  add("gen.late_p99_ms", late_p99, "ms");
  // Open-loop latencies ride the traced run: on a shared host their
  // run-to-run spread follows the host's wake-up latency, beyond the
  // end-to-end bounds (perfbench/README.md).
  add("mine_rps", sapbench::median(rps_win), "1/s");
  add("ingest_bps", mean(bps_win), "1/s");
  add("mine_p50_ms", sapbench::median(mine_p50s), "ms");
  add("ingest_p50_ms", sapbench::median(ingest_p50s), "ms");
  add("mine_p99_ms", sapbench::median(mine_p99s), "ms");
  add("ingest_p99_ms", sapbench::median(ingest_p99s), "ms");
  for (std::size_t i = 0; i < kParties; ++i) {
    add("quality.rho_" + std::to_string(i), i < reports.size() ? reports[i].local_rho : 0.0, "ratio");
    add("quality.bound_" + std::to_string(i), i < reports.size() ? reports[i].bound : 0.0, "ratio");
  }
  double knn_acc = 0, svm_acc = 0;
  for (std::size_t v = 0; v < mix.size(); ++v) {
    if (mix[v].label == "knn.k3") knn_acc = base_answers[v][0];
    if (mix[v].label == "svm.c1") svm_acc = base_answers[v][0];
  }
  add("quality.knn_acc", knn_acc, "ratio");
  add("quality.svm_acc", svm_acc, "ratio");
  add("ops.mine.attempted", static_cast<double>(all_mine.attempted), "count");
  add("ops.mine.failed", static_cast<double>(all_mine.failed), "count");
  add("ops.mine.refused", static_cast<double>(all_mine.refused), "count");
  add("ops.mine.shed", static_cast<double>(all_mine.shed), "count");
  add("ops.ingest.attempted", static_cast<double>(all_ingest.attempted), "count");
  add("ops.ingest.failed", static_cast<double>(all_ingest.failed), "count");
  add("ops.ingest.refused", static_cast<double>(all_ingest.refused), "count");
  add("ops.ingest.shed", static_cast<double>(all_ingest.shed), "count");

  emit::line("layer self time (ms): optimize " + fmt(self_of("optimize")) + ", exchange " +
             fmt(self_of("exchange")) + ", install " + fmt(self_of("install")) + ", fit " +
             fmt(fit_ms) + ", serve " + fmt(serve_ms) + ", ingest " + fmt(ingest_ms) +
             ", codec " + fmt(codec_ms) + ", merge " + fmt(merge_total_ms) + ", wire " +
             fmt(wire_ms) + "; residual " + fmt(100.0 * residual / std::max(1e-9, wall_total)) +
             "% of " + fmt(wall_total) + " ms thread wall");
  emit::spans(".bench_build/perfbench/spans-" + w.name + "-" + std::to_string(args.seed) + ".jsonl",
              tr.spans);
  emit::result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "--miner") {
      SAP_REQUIRE(argc == 5, "usage: sapbench --miner SEED SHARDS OWNED");
      return miner_main(std::stoull(argv[2]), std::stoul(argv[3]), std::stol(argv[4]));
    }
    if (argc >= 2 && std::string(argv[1]) == "--router") {
      SAP_REQUIRE(argc >= 4, "usage: sapbench --router SEED PORT...");
      std::vector<std::uint16_t> ports;
      for (int i = 3; i < argc; ++i) ports.push_back(static_cast<std::uint16_t>(std::stoul(argv[i])));
      return router_main(std::stoull(argv[2]), ports);
    }
    std::signal(SIGINT, on_fatal_signal);
    std::signal(SIGTERM, on_fatal_signal);
    std::signal(SIGPIPE, SIG_IGN);
    const int rc = drive(parse_args(argc, argv));
    kill_all_children();
    return rc;
  } catch (const std::exception& e) {
    kill_all_children();
    emit::warn(e.what());
    return 1;
  }
}
