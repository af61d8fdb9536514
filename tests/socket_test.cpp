// sap::net integration tests — the wire layer and both TCP deployment
// shapes over 127.0.0.1:
//
//   * frame codec: round trips, incremental decoding, strict rejection;
//   * deadlines: dead hubs and silent peers fail with sap::Error, fast;
//   * relay mode: a full SapSession (exchange + Contribute + mining jobs)
//     over TransportKind::kTcp, asserted BIT-IDENTICAL to kSimulated;
//   * distributed mode: MinerDaemon + k PartyClient drivers in separate
//     threads with real sockets, pooled results bit-identical to
//     kSimulated; contributions and mining requests at the reactor door
//     equal to in-process serving.
// (tests/cli_test.cpp repeats the distributed topology with genuinely
// separate OS processes through sap_cli.)
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <future>
#include <thread>

#include "common/error.hpp"
#include "data/normalize.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "net/frame.hpp"
#include "net/remote.hpp"
#include "net/socket.hpp"
#include "net/tcp_transport.hpp"
#include "protocol/session.hpp"

namespace {

using sap::data::Dataset;
using sap::rng::Engine;
namespace net = sap::net;
namespace proto = sap::proto;

// ---- shared fixtures -----------------------------------------------------

struct StreamSetup {
  std::vector<Dataset> shards;
  Dataset stream;
};

/// Normalized Iris: 100 records shard into the exchange, 50 held back as
/// the Contribute stream.
StreamSetup stream_setup(std::size_t k, std::uint64_t seed) {
  const Dataset raw = sap::data::make_uci("Iris", seed);
  sap::data::MinMaxNormalizer norm;
  norm.fit(raw.features());
  const Dataset pool(raw.name(), norm.transform(raw.features()), raw.labels());
  Engine eng(seed ^ 0xBEEF);
  sap::data::PartitionOptions opts;
  StreamSetup setup;
  setup.shards = sap::data::partition(pool.slice(0, 100), k, opts, eng);
  setup.stream = pool.slice(100, 150);
  return setup;
}

proto::SapOptions fast_opts(std::uint64_t seed) {
  auto opts = proto::SapOptions::fast();
  opts.seed = seed;
  opts.compute_satisfaction = false;
  return opts;
}

net::TcpOptions test_tcp() {
  net::TcpOptions tcp;
  tcp.connect_timeout_ms = 10000;
  tcp.receive_timeout_ms = 30000;  // CI-safe; deadline tests shrink it
  return tcp;
}

/// A party finishes its side of the exchange before the daemon has pooled
/// every shard; the reactor door refuses requests until the pool is
/// installed, so clients without a retry budget wait for the flip here.
void wait_serving(const net::MinerDaemon& daemon) {
  for (int i = 0; i < 30'000 && !daemon.serving(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  SAP_REQUIRE(daemon.serving(), "test daemon never started serving");
}

// ---- frame codec ---------------------------------------------------------

TEST(Frame, RoundTripsThroughIncrementalReader) {
  net::Frame frame;
  frame.type = net::FrameType::kData;
  frame.payload_kind = static_cast<std::uint8_t>(proto::PayloadKind::kContribution);
  frame.from = 3;
  frame.to = 7;
  const std::vector<double> payload{1.5, -2.25, 1e300, 0.0};
  frame.body = net::envelope_body(proto::EncryptedEnvelope(payload, 0xFEED));

  std::vector<std::uint8_t> bytes;
  net::encode_frame(frame, bytes);
  net::Frame second;
  second.type = net::FrameType::kBye;
  net::encode_frame(second, bytes);

  // Feed one byte at a time: the reader must never mis-frame.
  net::FrameReader reader;
  std::vector<net::Frame> out;
  net::Frame decoded;
  for (const std::uint8_t b : bytes) {
    reader.feed(&b, 1);
    while (reader.next(decoded)) out.push_back(decoded);
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].type, net::FrameType::kData);
  EXPECT_EQ(out[0].from, 3u);
  EXPECT_EQ(out[0].to, 7u);
  EXPECT_EQ(out[0].payload_kind, static_cast<std::uint8_t>(proto::PayloadKind::kContribution));
  EXPECT_EQ(net::body_envelope(out[0].body).open(0xFEED), payload);
  EXPECT_EQ(out[1].type, net::FrameType::kBye);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Frame, RejectsHostileInput) {
  net::Frame frame;
  frame.type = net::FrameType::kWelcome;
  frame.body = net::u32_body(5);
  std::vector<std::uint8_t> good;
  net::encode_frame(frame, good);

  net::Frame out;
  {  // bad magic
    auto bytes = good;
    bytes[0] ^= 0xFF;
    net::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    EXPECT_THROW((void)reader.next(out), sap::Error);
  }
  {  // wrong version
    auto bytes = good;
    bytes[4] = 9;
    net::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    EXPECT_THROW((void)reader.next(out), sap::Error);
  }
  {  // unknown type
    auto bytes = good;
    bytes[5] = 77;
    net::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    EXPECT_THROW((void)reader.next(out), sap::Error);
  }
  {  // corrupt checksum
    auto bytes = good;
    bytes.back() ^= 0x01;
    net::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    EXPECT_THROW((void)reader.next(out), sap::Error);
  }
  {  // oversized length prefix must be rejected before any allocation
    auto bytes = good;
    bytes[16] = 0xFF;
    bytes[17] = 0xFF;
    bytes[18] = 0xFF;
    bytes[19] = 0x7F;
    net::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    EXPECT_THROW((void)reader.next(out), sap::Error);
  }
  {  // truncation is "need more bytes", never a crash
    net::FrameReader reader;
    reader.feed(good.data(), good.size() - 1);
    EXPECT_FALSE(reader.next(out));
  }
}

TEST(Frame, EnvelopeBodyIsByteExact) {
  const std::vector<double> payload{3.14, -0.0, 42.0};
  const proto::EncryptedEnvelope env(payload, 0xABCDEF);
  const auto body = net::envelope_body(env);
  const auto back = net::body_envelope(body);
  EXPECT_EQ(back.checksum(), env.checksum());
  ASSERT_EQ(back.ciphertext().size(), env.ciphertext().size());
  for (std::size_t i = 0; i < env.ciphertext().size(); ++i)
    EXPECT_EQ(back.ciphertext()[i], env.ciphertext()[i]);
  EXPECT_EQ(back.open(0xABCDEF), payload);

  EXPECT_THROW((void)net::body_envelope({}), sap::Error);
  EXPECT_THROW((void)net::body_envelope(std::vector<std::uint8_t>(13, 0)), sap::Error);
}

TEST(Frame, SocketAddrParses) {
  const auto addr = net::SocketAddr::parse("127.0.0.1:8080");
  EXPECT_EQ(addr.host, "127.0.0.1");
  EXPECT_EQ(addr.port, 8080);
  EXPECT_EQ(net::SocketAddr::parse("localhost:1").port, 1);
  EXPECT_THROW((void)net::SocketAddr::parse("no-port"), sap::Error);
  EXPECT_THROW((void)net::SocketAddr::parse("127.0.0.1:99999"), sap::Error);
  EXPECT_THROW((void)net::SocketAddr::parse("not.an.ip:80"), sap::Error);
  EXPECT_THROW((void)net::SocketAddr::parse(":80"), sap::Error);
}

// ---- deadlines -----------------------------------------------------------

TEST(TcpDeadline, ConnectToDeadPortFails) {
  // Grab an ephemeral port, then close the listener so nothing is there.
  const auto dead = net::TcpListener::listen({"127.0.0.1", 0}).local_addr();
  net::TcpOptions tcp;
  tcp.connect_timeout_ms = 500;
  EXPECT_THROW((void)net::TcpTransport::connect(dead, 1, tcp), sap::Error);
}

TEST(TcpDeadline, ReceiveTimesOutCleanly) {
  auto hub = net::TcpTransport::listen({"127.0.0.1", 0}, 42, test_tcp());
  net::TcpOptions tcp = test_tcp();
  tcp.receive_timeout_ms = 200;
  auto client = net::TcpTransport::connect(hub->local_addr(), 42, tcp);
  const auto id = client->add_party();
  proto::Transport::Delivery out;
  EXPECT_FALSE(client->try_receive(id, out, 100));
  EXPECT_THROW((void)client->receive(id), sap::Error);
  EXPECT_FALSE(client->has_mail(id));
}

TEST(TcpDeadline, DuplicateClaimIsRefused) {
  auto hub = net::TcpTransport::listen({"127.0.0.1", 0}, 42, test_tcp());
  auto a = net::TcpTransport::connect(hub->local_addr(), 42, test_tcp());
  auto b = net::TcpTransport::connect(hub->local_addr(), 42, test_tcp());
  EXPECT_EQ(a->claim_party(0), 0u);
  EXPECT_THROW((void)b->claim_party(0), sap::Error);
}

TEST(TcpDeadline, MakeTransportNeedsAddress) {
  EXPECT_EQ(proto::to_string(proto::TransportKind::kTcp), "tcp");
  EXPECT_THROW((void)proto::make_transport(proto::TransportKind::kTcp, 1), sap::Error);
}

// ---- relay mode: SapSession over TCP ------------------------------------

TEST(TcpRelay, FullSessionBitIdenticalToSimulated) {
  // Reference run: synchronous in-process.
  auto ref_setup = stream_setup(4, 907);
  proto::SapSession reference(std::move(ref_setup.shards), fast_opts(907));
  const auto ref_result = reference.mine_named("nb-train-accuracy");
  const auto ref_receipt = reference.contribute(1, ref_setup.stream.slice(0, 16));
  const auto ref_pool = *reference.engine().pool_view().data;

  // Same logical session, every message relayed through a hub process...
  // here a hub transport in this process, reached over real loopback TCP.
  auto hub = net::TcpTransport::listen({"127.0.0.1", 0}, 0, test_tcp());
  auto tcp_setup = stream_setup(4, 907);
  auto opts = fast_opts(907);
  opts.transport = proto::TransportKind::kTcp;
  proto::SapSession session(std::move(tcp_setup.shards), opts,
                            net::tcp_transport_factory(hub->local_addr(), test_tcp()));
  const auto result = session.mine_named("nb-train-accuracy");
  const auto receipt = session.contribute(1, tcp_setup.stream.slice(0, 16));
  const auto pool = *session.engine().pool_view().data;

  // Bit-identical pooled space, reports, and job results.
  ASSERT_EQ(pool.size(), ref_pool.size());
  EXPECT_EQ(net::dataset_digest(pool), net::dataset_digest(ref_pool));
  EXPECT_EQ(receipt.pool_epoch, ref_receipt.pool_epoch);
  EXPECT_EQ(receipt.pool_records, ref_receipt.pool_records);
  ASSERT_EQ(result.parties.size(), ref_result.parties.size());
  for (std::size_t i = 0; i < result.parties.size(); ++i) {
    EXPECT_EQ(result.parties[i].local_rho, ref_result.parties[i].local_rho);
    EXPECT_EQ(result.parties[i].risk_sap, ref_result.parties[i].risk_sap);
  }
  // Cost accounting stays in ciphertext terms, so it matches too.
  EXPECT_EQ(result.messages, ref_result.messages);
  EXPECT_EQ(result.total_bytes, ref_result.total_bytes);
  // And the relay really carried the session: one connection, frames flowed.
  EXPECT_EQ(hub->total_connections(), 1u);
}

TEST(TcpRelay, DroppedSetupMessageFailsCleanly) {
  auto setup = stream_setup(3, 911);
  auto hub = net::TcpTransport::listen({"127.0.0.1", 0}, 0, test_tcp());
  net::TcpOptions tcp = test_tcp();
  tcp.receive_timeout_ms = 2000;  // a lost message must not hang the test
  auto opts = fast_opts(911);
  opts.transport = proto::TransportKind::kTcp;
  proto::SapSession session(std::move(setup.shards), opts,
                            net::tcp_transport_factory(hub->local_addr(), tcp));
  session.inject_faults([](proto::PartyId, proto::PartyId to, proto::PayloadKind kind) {
    return kind == proto::PayloadKind::kTargetSpace && to == 0;
  });
  EXPECT_THROW(session.run_until(proto::SessionPhase::kPerturbAndForward), sap::Error);
  EXPECT_TRUE(session.failed());
  EXPECT_EQ(session.transport().dropped_count(), 1u);
}

// ---- distributed mode: daemon + party clients ---------------------------

struct DistributedRun {
  net::MinerDaemon::Summary summary;
  std::vector<proto::PartyReport> reports;
  std::vector<proto::WireMiningResponse> responses;  // from party 0
};

/// Run k party clients (threads, real sockets) against a MinerDaemon.
/// Party 0 additionally streams `batches` sequential contributions through
/// the reactor door and issues one nb-train-accuracy request after each.
DistributedRun run_distributed(std::size_t k, std::uint64_t seed,
                               const std::vector<Dataset>& shards,
                               const std::vector<Dataset>& batches) {
  net::MinerDaemonOptions daemon_opts;
  daemon_opts.listen = {"127.0.0.1", 0};
  daemon_opts.parties = k;
  daemon_opts.seed = seed;
  daemon_opts.tcp = test_tcp();
  net::MinerDaemon daemon(daemon_opts);
  const auto addr = daemon.local_addr();

  auto daemon_future = std::async(std::launch::async, [&] { return daemon.run(); });

  DistributedRun run;
  run.reports.resize(k);
  std::mutex mutex;
  std::vector<std::thread> parties;
  for (std::size_t i = 0; i < k; ++i) {
    parties.emplace_back([&, i] {
      net::PartyClientOptions popts;
      popts.connect = addr;
      popts.index = i;
      popts.parties = k;
      popts.sap = fast_opts(seed);
      popts.tcp = test_tcp();
      net::PartyClient party(shards[i], popts);
      const auto report = party.run_exchange();
      std::vector<proto::WireMiningResponse> responses;
      if (i == 0) {
        wait_serving(daemon);
        net::ServeClient door(daemon.reactor_addr(), seed, k);
        for (const auto& batch : batches) {
          (void)door.contribute_wire(party.contribution_wire(batch));
          responses.push_back(door.mine_named("nb-train-accuracy"));
        }
        door.bye();
      }
      party.finish();
      std::lock_guard lock(mutex);
      run.reports[i] = report;
      if (i == 0) run.responses = std::move(responses);
    });
  }
  for (auto& t : parties) t.join();
  run.summary = daemon_future.get();
  return run;
}

TEST(TcpDistributed, ExchangeAndContributeBitIdenticalToSimulated) {
  const std::size_t k = 3;
  const std::uint64_t seed = 1313;
  auto setup = stream_setup(k, seed);
  const std::vector<Dataset> batches{setup.stream.slice(0, 12), setup.stream.slice(12, 30)};

  // Reference: the identical logical session in one process (kSimulated),
  // with party 0 contributing the same batches in the same order.
  proto::SapSession reference(setup.shards, fast_opts(seed));
  reference.run_until(proto::SessionPhase::kMine);
  std::vector<std::vector<double>> ref_values;
  for (const auto& batch : batches) {
    (void)reference.contribute(0, batch);
    ref_values.push_back(reference.engine().run({"nb-train-accuracy", {}}).values);
  }
  const auto ref_pool = *reference.engine().pool_view().data;

  const auto run = run_distributed(k, seed, setup.shards, batches);

  // The pooled unified space is bit-identical across the process boundary.
  EXPECT_EQ(run.summary.pool_records, ref_pool.size());
  EXPECT_EQ(run.summary.pool_digest, net::dataset_digest(ref_pool));
  EXPECT_EQ(run.summary.contributions, batches.size());
  EXPECT_EQ(run.summary.pool_epoch, 1u + batches.size());

  // Wire-served job reports equal in-process serving after every append.
  ASSERT_EQ(run.responses.size(), ref_values.size());
  for (std::size_t b = 0; b < ref_values.size(); ++b)
    EXPECT_EQ(run.responses[b].values, ref_values[b]) << "batch " << b;

  // Party-side accounting matches the in-process run exactly.
  const auto ref_result = reference.run();
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(run.reports[i].local_rho, ref_result.parties[i].local_rho) << i;
    EXPECT_EQ(run.reports[i].bound, ref_result.parties[i].bound) << i;
    EXPECT_EQ(run.reports[i].satisfaction, ref_result.parties[i].satisfaction) << i;
    EXPECT_EQ(run.reports[i].risk_sap, ref_result.parties[i].risk_sap) << i;
  }
}

TEST(TcpDistributed, DaemonSurvivesHostileClientsAndSendsNegativeReceipts) {
  const std::size_t k = 3;
  const std::uint64_t seed = 1919;
  auto setup = stream_setup(k, seed);
  const auto seeds = sap::proto::logic::derive_session_seeds(seed, k);

  net::MinerDaemonOptions daemon_opts;
  daemon_opts.listen = {"127.0.0.1", 0};
  daemon_opts.parties = k;
  daemon_opts.seed = seed;
  daemon_opts.tcp = test_tcp();
  net::MinerDaemon daemon(daemon_opts);
  const auto addr = daemon.local_addr();
  auto daemon_future = std::async(std::launch::async, [&] { return daemon.run(); });

  // Honest parties run the exchange but stay connected.
  std::vector<std::unique_ptr<net::PartyClient>> parties(k);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < k; ++i) {
    threads.emplace_back([&, i] {
      net::PartyClientOptions popts;
      popts.connect = addr;
      popts.index = i;
      popts.parties = k;
      popts.sap = fast_opts(seed);
      popts.tcp = test_tcp();
      parties[i] = std::make_unique<net::PartyClient>(setup.shards[i], popts);
      (void)parties[i]->run_exchange();
    });
  }
  for (auto& t : threads) t.join();
  const proto::PartyId miner = static_cast<proto::PartyId>(k);

  // Hostile client 1: WRONG session secret — its envelopes fail the
  // integrity check at the miner. The daemon must reject per-message, not
  // die.
  {
    auto rogue = net::TcpTransport::connect(addr, seeds.session_secret ^ 0xBAD, test_tcp());
    const auto rogue_id = rogue->add_party();
    rogue->send(rogue_id, miner, proto::PayloadKind::kContribution,
                std::vector<double>{1.0, 2.0, 3.0});
    rogue->send_bye();
  }

  // Hostile client 2, at the reactor door: correct secret, valid codec, but
  // a nonce the miner never negotiated — must get the NEGATIVE receipt
  // (epoch 0, raised as ServeError{kBadRequest}) immediately instead of
  // silence.
  wait_serving(daemon);
  net::ServeClient door(daemon.reactor_addr(), seed, k);
  {
    sap::rng::Engine eng(7);
    const sap::linalg::Matrix y =
        sap::linalg::Matrix::generate(setup.shards[0].dims(), 4, [&] { return eng.normal(); });
    const std::vector<int> labels{0, 1, 0, 1};
    try {
      (void)door.contribute_wire(proto::encode_contribution(0xDEADBEEF, y, labels));
      ADD_FAILURE() << "expected a negative receipt for an unknown nonce";
    } catch (const net::ServeError& e) {
      EXPECT_EQ(e.code(), proto::ServeErrorCode::kBadRequest);
    }
  }

  // The daemon survived both: honest serving still works end to end.
  const auto receipt =
      door.contribute_wire(parties[0]->contribution_wire(setup.stream.slice(0, 8)));
  EXPECT_EQ(receipt.pool_epoch, 2u);
  const auto response = door.mine_named("record-count");
  ASSERT_EQ(response.values.size(), 1u);
  EXPECT_EQ(response.values[0], static_cast<double>(receipt.pool_records));
  door.bye();

  for (auto& p : parties) p->finish();
  const auto summary = daemon_future.get();
  EXPECT_EQ(summary.contributions, 1u);  // the hostile batches never landed
  EXPECT_EQ(summary.pool_epoch, 2u);
}

TEST(TcpDistributed, ConcurrentContributorsGrowThePoolConsistently) {
  const std::size_t k = 4;
  const std::uint64_t seed = 1717;
  auto setup = stream_setup(k, seed);

  // Every party contributes one batch concurrently: arrival order at the
  // miner is scheduling-dependent, so compare the pool as a record multiset
  // against a reference that appends the same per-party batches in a fixed
  // order.
  std::vector<Dataset> batches;
  for (std::size_t i = 0; i < k; ++i)
    batches.push_back(setup.stream.slice(i * 10, (i + 1) * 10));

  proto::SapSession reference(setup.shards, fast_opts(seed));
  reference.run_until(proto::SessionPhase::kMine);
  for (std::size_t i = 0; i < k; ++i) (void)reference.contribute(i, batches[i]);
  const auto ref_pool = *reference.engine().pool_view().data;

  net::MinerDaemonOptions daemon_opts;
  daemon_opts.listen = {"127.0.0.1", 0};
  daemon_opts.parties = k;
  daemon_opts.seed = seed;
  daemon_opts.tcp = test_tcp();
  net::MinerDaemon daemon(daemon_opts);
  const auto addr = daemon.local_addr();
  auto daemon_future = std::async(std::launch::async, [&] { return daemon.run(); });

  std::vector<std::thread> parties;
  for (std::size_t i = 0; i < k; ++i) {
    parties.emplace_back([&, i] {
      net::PartyClientOptions popts;
      popts.connect = addr;
      popts.index = i;
      popts.parties = k;
      popts.sap = fast_opts(seed);
      popts.tcp = test_tcp();
      net::PartyClient party(setup.shards[i], popts);
      (void)party.run_exchange();
      wait_serving(daemon);
      net::ServeClient door(daemon.reactor_addr(), seed, k);
      const auto receipt = door.contribute_wire(party.contribution_wire(batches[i]));
      EXPECT_GE(receipt.pool_records, 100u + batches[i].size());
      door.bye();
      party.finish();
    });
  }
  for (auto& t : parties) t.join();
  const auto summary = daemon_future.get();

  EXPECT_EQ(summary.contributions, k);
  EXPECT_EQ(summary.pool_records, ref_pool.size());
  EXPECT_EQ(net::dataset_multiset_digest(*daemon.engine().pool_view().data),
            net::dataset_multiset_digest(ref_pool));
}

}  // namespace
