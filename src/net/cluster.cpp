#include "net/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "net/fault.hpp"
#include "protocol/mining_engine.hpp"

namespace sap::net {

// ---- ShardRouter ---------------------------------------------------------

ShardRouter::ShardRouter(ShardRouterOptions opts)
    : opts_(std::move(opts)), registry_(proto::JobRegistry::builtins()) {
  SAP_REQUIRE(!opts_.miners.empty(), "ShardRouter: need at least one miner");
  SAP_REQUIRE(opts_.parties >= 3, "ShardRouter: need at least 3 parties");
  if (opts_.shards == 0) opts_.shards = opts_.miners.size();
  SAP_REQUIRE(opts_.replicas >= 1 && opts_.replicas <= opts_.miners.size(),
              "ShardRouter: replicas must be in [1, miner count]");
  clients_.resize(opts_.miners.size());
  health_.resize(opts_.miners.size());
  floors_.assign(opts_.shards, 0);
  hist_fanout_ = &obs_.histogram("router.fanout_ms");
  ctr_contributions_ = &obs_.counter("router.contributions");
  ctr_mine_ = &obs_.counter("router.mine_requests");
  ctr_breaker_opens_ = &obs_.counter("router.breaker_opens");
  breaker_gauges_.reserve(opts_.miners.size());
  for (std::size_t m = 0; m < opts_.miners.size(); ++m)
    breaker_gauges_.push_back(
        &obs_.gauge("router.m" + std::to_string(m) + ".breaker"));
  shard_requests_.reserve(opts_.shards);
  for (std::size_t g = 0; g < opts_.shards; ++g)
    shard_requests_.push_back(
        &obs_.counter("router.shard" + std::to_string(g) + ".requests"));
}

void ShardRouter::set_trace(std::uint64_t id) {
  trace_ = id;
  for (auto& client : clients_)
    if (client) client->set_trace(id);
}

std::vector<std::size_t> ShardRouter::owners(std::size_t shard) const {
  SAP_REQUIRE(shard < opts_.shards, "ShardRouter: shard id out of range");
  const std::size_t m = opts_.miners.size();
  std::vector<std::size_t> out;
  out.reserve(opts_.replicas);
  for (std::size_t j = 0; j < opts_.replicas; ++j) out.push_back((shard + j) % m);
  return out;
}

ServeClient& ShardRouter::client_for(std::size_t miner) {
  if (!clients_[miner]) {
    auto& h = health_[miner];
    if (std::chrono::steady_clock::now() < h.dead_until)
      SAP_FAIL("miner " + std::to_string(miner) +
               " skipped by negative-connect cache: " + h.last_connect_error);
    try {
      clients_[miner] = std::make_unique<ServeClient>(
          opts_.miners[miner], opts_.seed, opts_.parties, opts_.client);
    } catch (const Error& e) {
      // Remember the failure so every later owner loop inside the window
      // skips this miner instantly instead of paying the connect deadline
      // again — the dead-primary scatter no longer serializes timeouts.
      h.dead_until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(opts_.negative_cache_ms);
      h.last_connect_error = e.what();
      throw;
    }
    h.dead_until = {};
    clients_[miner]->set_trace(trace_);  // lazy connect mid-request keeps the id
  }
  return *clients_[miner];
}

void ShardRouter::drop_client(std::size_t miner) {
  if (clients_[miner]) {
    retries_accum_ += clients_[miner]->retries();
    clients_[miner].reset();
  }
  invalidate_cache();
}

void ShardRouter::invalidate_cache() {
  if (cache_.empty()) return;
  cache_.clear();
  ++cache_stats_.invalidations;
}

std::size_t ShardRouter::client_retries() const {
  std::size_t total = retries_accum_;
  for (const auto& client : clients_)
    if (client) total += client->retries();
  return total;
}

void ShardRouter::record_success(std::size_t miner) {
  auto& h = health_[miner];
  h.failures = 0;
  if (h.state != BreakerState::kClosed) {
    h.state = BreakerState::kClosed;
    breaker_gauges_[miner]->set(static_cast<double>(BreakerState::kClosed));
  }
}

void ShardRouter::record_failure(std::size_t miner) {
  drop_client(miner);  // dead connection — reconnect on next use; flushes the cache
  auto& h = health_[miner];
  ++h.failures;
  if (opts_.breaker_threshold > 0 && h.state == BreakerState::kClosed &&
      h.failures >= opts_.breaker_threshold) {
    h.state = BreakerState::kOpen;
    h.open_until = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(opts_.breaker_cooldown_ms);
    ctr_breaker_opens_->increment();
    breaker_gauges_[miner]->set(static_cast<double>(BreakerState::kOpen));
  }
}

bool ShardRouter::admit(std::size_t miner, std::string& why) {
  auto& h = health_[miner];
  if (h.state == BreakerState::kClosed) return true;
  if (h.state == BreakerState::kOpen) {
    if (std::chrono::steady_clock::now() < h.open_until) {
      why = "breaker open for miner " + std::to_string(miner);
      return false;
    }
    h.state = BreakerState::kHalfOpen;
    breaker_gauges_[miner]->set(static_cast<double>(BreakerState::kHalfOpen));
  }
  // Half-open: one probe through the stats door decides. Success closes
  // the breaker and admits the real request; failure restarts the cooldown.
  try {
    (void)client_for(miner).stats();
    record_success(miner);
    return true;
  } catch (const Error& e) {
    drop_client(miner);
    h.failures = 0;  // the next half-open probe decides alone
    h.state = BreakerState::kOpen;
    h.open_until = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(opts_.breaker_cooldown_ms);
    breaker_gauges_[miner]->set(static_cast<double>(BreakerState::kOpen));
    why = "breaker probe failed for miner " + std::to_string(miner) + ": " +
          e.what();
    return false;
  }
}

proto::DecodedReceipt ShardRouter::contribute_wire(const std::vector<double>& wire) {
  // The nonce is word 0 of every kContribution payload — validate like the
  // daemon's exchange loop does (wire payloads are adversarial input).
  SAP_REQUIRE(!wire.empty(), "ShardRouter: empty contribution payload");
  SAP_REQUIRE(std::isfinite(wire[0]) && wire[0] >= 0.0 &&
                  wire[0] < 9007199254740992.0 && wire[0] == std::floor(wire[0]),
              "ShardRouter: malformed contribution nonce");
  const auto nonce = static_cast<std::uint64_t>(wire[0]);
  const auto shard = proto::shard_of_nonce(nonce, opts_.shards, opts_.layout);
  ctr_contributions_->increment();
  shard_requests_[shard]->increment();

  // Every owner ingests the batch (that is what makes a replica a valid
  // read target after the primary dies); the first live owner's receipt is
  // the client's, and the floor rises to the HIGHEST acked epoch so a
  // stale replica can never serve a pre-append view later.
  bool have_receipt = false;
  proto::DecodedReceipt receipt;
  std::uint64_t top = floors_[shard];
  std::string last_error = "no owner attempted";
  for (const auto m : owners(shard)) {
    std::string why;
    if (!admit(m, why)) {
      ++failovers_;
      last_error = std::move(why);
      continue;
    }
    try {
      Stopwatch leg;
      const auto ack = client_for(m).contribute_wire(wire);
      hist_fanout_->record(leg.millis());
      record_success(m);
      top = std::max(top, ack.pool_epoch);
      if (!have_receipt) {
        receipt = ack;
        have_receipt = true;
      }
    } catch (const ServeError& e) {
      // kBadRequest (a negative receipt included) is definitive: the batch
      // itself is bad and every owner would reject it identically.
      if (e.code() == proto::ServeErrorCode::kBadRequest) throw;
      record_success(m);  // a typed refusal means the miner is alive
      ++failovers_;
      last_error = e.what();
    } catch (const Error& e) {
      record_failure(m);
      ++failovers_;
      last_error = e.what();
    }
  }
  if (!have_receipt)
    throw ServeError(proto::ServeErrorCode::kUnavailable,
                     "no live owner for shard " + std::to_string(shard) + ": " +
                         last_error);
  floors_[shard] = top;
  return receipt;
}

proto::DecodedPartialResponse ShardRouter::scatter_partial(
    std::size_t shard, const std::string& job, const proto::JobParams& params,
    const data::Dataset& queries) {
  shard_requests_[shard]->increment();
  std::string last_error = "no owner attempted";
  for (const auto m : owners(shard)) {
    std::string why;
    if (!admit(m, why)) {
      ++failovers_;
      last_error = std::move(why);
      continue;
    }
    try {
      Stopwatch leg;
      auto resp = client_for(m).mine_partial(shard, job, params, queries);
      hist_fanout_->record(leg.millis());
      record_success(m);
      if (resp.shard_epoch < floors_[shard]) {
        // Stale replica: it missed an append another owner acked.
        ++failovers_;
        last_error = "stale shard epoch " + std::to_string(resp.shard_epoch) +
                     " < floor " + std::to_string(floors_[shard]);
        continue;
      }
      floors_[shard] = std::max(floors_[shard], resp.shard_epoch);
      return resp;
    } catch (const ServeError& e) {
      if (e.code() == proto::ServeErrorCode::kBadRequest) throw;
      record_success(m);
      ++failovers_;
      last_error = e.what();
    } catch (const Error& e) {
      record_failure(m);
      ++failovers_;
      last_error = e.what();
    }
  }
  throw ServeError(proto::ServeErrorCode::kUnavailable,
                   "no live owner for shard " + std::to_string(shard) + ": " +
                       last_error);
}

proto::DecodedPoolSlice ShardRouter::scatter_slice(std::size_t shard,
                                                   std::size_t max_records) {
  shard_requests_[shard]->increment();
  std::string last_error = "no owner attempted";
  for (const auto m : owners(shard)) {
    std::string why;
    if (!admit(m, why)) {
      ++failovers_;
      last_error = std::move(why);
      continue;
    }
    try {
      Stopwatch leg;
      auto resp = client_for(m).pool_slice(shard, max_records);
      hist_fanout_->record(leg.millis());
      record_success(m);
      if (resp.shard_epoch < floors_[shard]) {
        ++failovers_;
        last_error = "stale shard epoch " + std::to_string(resp.shard_epoch) +
                     " < floor " + std::to_string(floors_[shard]);
        continue;
      }
      floors_[shard] = std::max(floors_[shard], resp.shard_epoch);
      return resp;
    } catch (const ServeError& e) {
      if (e.code() == proto::ServeErrorCode::kBadRequest) throw;
      record_success(m);
      ++failovers_;
      last_error = e.what();
    } catch (const Error& e) {
      record_failure(m);
      ++failovers_;
      last_error = e.what();
    }
  }
  throw ServeError(proto::ServeErrorCode::kUnavailable,
                   "no live owner for shard " + std::to_string(shard) + ": " +
                       last_error);
}

ShardRouter::Gathered ShardRouter::gather(std::size_t limit) {
  struct Row {
    proto::PoolKey key;
    std::size_t slice_idx;
    std::size_t row_idx;
  };
  std::vector<proto::DecodedPoolSlice> slices;
  slices.reserve(opts_.shards);
  Gathered out;
  out.watermark = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t g = 0; g < opts_.shards; ++g) {
    slices.push_back(scatter_slice(g, limit));
    out.watermark = std::min(out.watermark, slices.back().shard_epoch);
  }
  if (out.watermark == std::numeric_limits<std::uint64_t>::max()) out.watermark = 0;

  std::vector<Row> rows;
  std::size_t dims = 0;
  for (std::size_t s = 0; s < slices.size(); ++s) {
    const auto& slice = slices[s];
    if (slice.rows.size() == 0) continue;
    if (dims == 0) dims = slice.rows.dims();
    SAP_REQUIRE(slice.rows.dims() == dims,
                "ShardRouter: shard dimensionality mismatch in gather");
    for (std::size_t i = 0; i < slice.rows.size(); ++i)
      rows.push_back({slice.keys[i], s, i});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.key < b.key; });
  const std::size_t n = limit == 0 ? rows.size() : std::min(limit, rows.size());
  linalg::Matrix features(n, dims, 0.0);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto rec = slices[rows[i].slice_idx].rows.record(rows[i].row_idx);
    auto dst = features.row(i);
    std::copy(rec.begin(), rec.end(), dst.begin());
    labels[i] = slices[rows[i].slice_idx].rows.label(rows[i].row_idx);
  }
  out.pool = data::Dataset("gathered", std::move(features), std::move(labels));
  return out;
}

std::vector<std::uint64_t> ShardRouter::probe_epochs() {
  std::vector<std::uint64_t> epochs;
  epochs.reserve(opts_.shards);
  for (std::size_t g = 0; g < opts_.shards; ++g)
    epochs.push_back(scatter_partial(g, "record-count", {}, data::Dataset{}).shard_epoch);
  return epochs;
}

proto::WireMiningResponse ShardRouter::mine_named(const std::string& job,
                                                  const proto::JobParams& params) {
  ctr_mine_->increment();
  last_merge_ms_ = 0.0;
  if (!registry_.contains(job))
    throw ServeError(proto::ServeErrorCode::kBadRequest, "unknown job: " + job);
  const auto& spec = registry_.find(job);
  proto::JobParams resolved;
  try {
    resolved = spec.resolve_params(params);
  } catch (const Error& e) {
    throw ServeError(proto::ServeErrorCode::kBadRequest, e.what());
  }
  // Structural jobs skip the cache: their partials cost what a probe does.
  if (!spec.trainable()) return execute(spec, job, params, resolved);

  // Result cache: an entry computed at exactly the probed epoch vector is
  // bit-identical to recomputing — an epoch names its rows within an owner
  // set, the assumption the epoch floors already make. Only a key the cache
  // holds is probed; a read with nothing to validate goes straight to the
  // fan-out. A reconnect the ServeClients made on their own may have
  // reached a restarted miner, so it flushes the cache like a failure the
  // router saw.
  const auto flush_on_reconnect = [this] {
    if (client_retries() == cache_retries_) return;
    invalidate_cache();
    cache_retries_ = client_retries();
  };
  flush_on_reconnect();
  auto key = std::pair(job, proto::JobSpec::canonical_params(resolved));
  if (cache_.contains(key)) {
    const auto probe = probe_epochs();
    flush_on_reconnect();
    if (const auto it = cache_.find(key); it != cache_.end() && it->second.epochs == probe) {
      ++cache_stats_.hits;
      it->second.last_used = ++cache_clock_;
      return it->second.response;
    }
  }
  ++cache_stats_.misses;
  const auto known = floors_;  // after a probe, the probe's vector
  auto response = execute(spec, job, params, resolved);
  // Fill only when every slice and partial was served at `known`. A leg is
  // never below its shard's floor and raises it to the epoch it served at,
  // so floors_ still equals `known` exactly when no leg saw a newer epoch.
  // Otherwise a write landed before or during the request: the response
  // is served uncached and the next read of the key fills.
  if (floors_ == known) {
    if (cache_.size() >= kResultCacheCapacity && !cache_.contains(key))
      cache_.erase(std::min_element(
          cache_.begin(), cache_.end(),
          [](const auto& a, const auto& b) { return a.second.last_used < b.second.last_used; }));
    cache_[std::move(key)] = {known, response, ++cache_clock_};
  }
  return response;
}

proto::WireMiningResponse ShardRouter::execute(const proto::JobSpec& spec,
                                               const std::string& job,
                                               const proto::JobParams& params,
                                               const proto::JobParams& resolved) {
  proto::WireMiningResponse response;
  if (spec.mergeable()) {
    // Exact merge: identical to MiningEngine::run_sharded, with the shard
    // views replaced by live miners — queries are the canonical eval
    // prefix, partials one blob per shard, the merge router-side.
    data::Dataset queries;
    if (spec.trainable()) {
      std::size_t limit = 0;
      const auto it = resolved.find("eval-records");
      if (it != resolved.end()) limit = static_cast<std::size_t>(it->second);
      auto gathered = gather(limit);
      SAP_REQUIRE(gathered.pool.size() > 0, "ShardRouter: empty pool across shards");
      queries = std::move(gathered.pool);
    }
    std::vector<std::vector<double>> partials;
    partials.reserve(opts_.shards);
    std::uint64_t watermark = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t g = 0; g < opts_.shards; ++g) {
      auto partial = scatter_partial(g, job, params, queries);
      watermark = std::min(watermark, partial.shard_epoch);
      partials.push_back(std::move(partial.blob));
    }
    response.pool_epoch =
        watermark == std::numeric_limits<std::uint64_t>::max() ? 0 : watermark;
    {
      Stopwatch merge_sw;  // the kMerge trace stage: router-side reassembly
      response.values = spec.merge_partials(partials, queries, resolved);
      last_merge_ms_ = merge_sw.millis();
    }
    return response;
  }

  if (spec.merge_fallback == proto::MergeFallback::kRoute) {
    // Route the whole request to shard 0's owners — exact only when that
    // miner owns every shard (its engine serves over its owned set).
    std::string last_error = "no owner attempted";
    for (const auto m : owners(0)) {
      std::string why;
      if (!admit(m, why)) {
        ++failovers_;
        last_error = std::move(why);
        continue;
      }
      try {
        auto resp = client_for(m).mine_named(job, params);
        record_success(m);
        return resp;
      } catch (const ServeError& e) {
        if (e.code() == proto::ServeErrorCode::kBadRequest) throw;
        record_success(m);
        ++failovers_;
        last_error = e.what();
      } catch (const Error& e) {
        record_failure(m);
        ++failovers_;
        last_error = e.what();
      }
    }
    throw ServeError(proto::ServeErrorCode::kUnavailable,
                     "no live owner for routed job: " + last_error);
  }

  // MergeFallback::kGather — reassemble the canonical pool and execute flat
  // (a fresh single-shard engine run; reuse lives one level up, in the
  // result cache mine_named consults first).
  auto gathered = gather(0);
  SAP_REQUIRE(gathered.pool.size() > 0, "ShardRouter: empty pool across shards");
  Stopwatch merge_sw;  // kMerge: reassembled-pool execution, router-side
  proto::MiningEngine local({.threads = 0,
                             .cache_models = false,
                             .shards = 1,
                             .layout = proto::ShardLayout::kHashMod,
                             .owned = {}});
  local.set_pool(std::move(gathered.pool));
  const auto served = local.run({job, params});
  last_merge_ms_ = merge_sw.millis();
  response.pool_epoch = gathered.watermark;
  response.values = served.values;
  return response;
}

obs::Snapshot ShardRouter::cluster_stats() {
  obs::Snapshot total = obs_.snapshot();
  total.set_counter("router.failovers", failovers_);
  total.set_counter("router.retries", client_retries());
  // This process's own fault injection (--fault / SAP_FAULT), same export
  // as MinerDaemon::stats_snapshot — counters merge by addition, so the
  // aggregate reads as cluster-wide injections.
  if (fault::enabled()) {
    const auto fs = fault::stats();
    total.set_counter("fault.decisions", fs.decisions);
    total.set_counter("fault.injected", fs.total_injected());
    for (int k = 1; k < fault::kKindCount; ++k)
      total.set_counter(std::string("fault.injected.") +
                            fault::kind_name(static_cast<fault::Kind>(k)),
                        fs.injected[static_cast<std::size_t>(k)]);
  }
  // Per-shard skew: hottest shard's request count over the mean (1.0 =
  // perfectly even). Derived at snapshot time from the per-shard counters.
  std::uint64_t peak = 0;
  std::uint64_t sum = 0;
  for (const auto* ctr : shard_requests_) {
    const auto v = ctr->value();
    peak = std::max(peak, v);
    sum += v;
  }
  if (sum > 0)
    total.set_gauge("router.shard_skew",
                    static_cast<double>(peak) * static_cast<double>(opts_.shards) /
                        static_cast<double>(sum));
  std::size_t unreachable = 0;
  for (std::size_t m = 0; m < opts_.miners.size(); ++m) {
    try {
      auto decoded = client_for(m).stats();
      // An operator stats poll doubles as the half-open probe: a miner
      // that answers its stats door has its breaker closed again.
      record_success(m);
      std::string prefix = "m";
      prefix += std::to_string(m);
      prefix += '.';
      for (auto& g : decoded.snapshot.gauges) g.first = prefix + g.first;
      decoded.snapshot.normalize();
      total.merge(decoded.snapshot);
    } catch (const Error&) {
      record_failure(m);
      ++unreachable;
    }
  }
  total.set_gauge("router.stats_unreachable", static_cast<double>(unreachable));
  // After the poll: an unreachable miner above just flushed the cache.
  const auto cache = cache_stats();
  total.set_counter("router.cache.hits", cache.hits);
  total.set_counter("router.cache.misses", cache.misses);
  total.set_counter("router.cache.invalidations", cache.invalidations);
  total.set_gauge("router.cache.entries", static_cast<double>(cache.entries));
  total.normalize();
  return total;
}

// ---- RouterDaemon --------------------------------------------------------

RouterDaemon::RouterDaemon(RouterDaemonOptions opts)
    : opts_(std::move(opts)),
      router_(opts_.router),
      // A different door salt than the miners' (they salt with the raw
      // seed), so router-minted and miner-minted ids stay distinguishable.
      minter_(opts_.router.seed ^ 0xD00Dull) {
  const auto seeds =
      proto::logic::derive_session_seeds(opts_.router.seed, opts_.router.parties);
  secret_ = seeds.session_secret;
  my_id_ = static_cast<proto::PartyId>(opts_.router.parties);
  {
    MutexLock lk(mutex_);
    ctr_refused_ = &router_.metrics().counter("router.refused");
    opts_.reactor.metrics = &router_.metrics();
  }
  reactor_ = std::make_unique<Reactor>(
      opts_.reactor, [this](const Frame& frame) { return handle(frame); });
}

std::vector<Frame> RouterDaemon::handle(const Frame& frame) {
  std::vector<Frame> out;
  proto::PayloadKind out_kind{};
  std::vector<double> out_wire;
  // This door mints when the request rode untraced; the id propagates to
  // every fanned-to miner (ShardRouter::set_trace) and echoes back to the
  // client, so one id names the whole scatter-gather.
  const std::uint64_t trace_id = frame.trace != 0 ? frame.trace : minter_.mint();
  obs::TraceRecord rec;
  rec.id = trace_id;
  rec.op = proto::to_string(static_cast<proto::PayloadKind>(frame.payload_kind));
  bool traced = obs::enabled();
  const std::uint64_t t_entry = steady_now_ns();
  if (frame.recv_steady_ns != 0 && t_entry > frame.recv_steady_ns)
    rec.stage_ms[static_cast<std::size_t>(obs::Stage::kQueue)] =
        static_cast<double>(t_entry - frame.recv_steady_ns) / 1e6;
  try {
    const auto payload =
        body_envelope(frame.body)
            .open(proto::detail::derive_link_key(secret_, frame.from, my_id_));
    const auto kind = static_cast<proto::PayloadKind>(frame.payload_kind);
    const std::uint64_t t_decoded = steady_now_ns();
    rec.stage_ms[static_cast<std::size_t>(obs::Stage::kDecode)] =
        static_cast<double>(t_decoded - t_entry) / 1e6;
    if (kind != proto::PayloadKind::kStatsRequest)
      served_.fetch_add(1, std::memory_order_relaxed);
    double merge_ms = 0.0;
    try {
      switch (kind) {
        case proto::PayloadKind::kContribution: {
          MutexLock lk(mutex_);
          router_.set_trace(trace_id);
          const auto receipt = router_.contribute_wire(payload);
          out_kind = proto::PayloadKind::kContributionAck;
          out_wire = proto::encode_receipt(receipt.pool_epoch, receipt.pool_records);
          break;
        }
        case proto::PayloadKind::kMiningRequest: {
          const auto request = proto::decode_mining_request(std::span(payload));
          MutexLock lk(mutex_);
          router_.set_trace(trace_id);
          const auto response = router_.mine_named(request.job, request.params);
          merge_ms = router_.last_merge_ms();
          out_kind = proto::PayloadKind::kMiningResponse;
          out_wire = proto::encode_mining_response(response);
          break;
        }
        case proto::PayloadKind::kStatsRequest: {
          // The cluster aggregate: router metrics + every miner's snapshot
          // (exact counter/histogram merge), with THIS hop's traces. Does
          // not count toward requests_served_ and records no trace of its
          // own — measurement must not move what it measures.
          proto::decode_stats_request(std::span<const double>(payload));
          traced = false;
          MutexLock lk(mutex_);
          router_.set_trace(0);  // the stats fan-out itself rides untraced
          const auto snap = router_.cluster_stats();
          out_kind = proto::PayloadKind::kStatsResponse;
          out_wire = proto::encode_stats_response(snap, traces_.recent(32));
          break;
        }
        default:
          SAP_FAIL("RouterDaemon: the router serves only contributions, "
                   "mining requests, and stats");
      }
    } catch (const ServeError& e) {
      // Forward the typed code verbatim — the client's failover logic (if
      // it has one above the router) must see what the cluster saw.
      ctr_refused_->increment();
      out_kind = proto::PayloadKind::kServeError;
      out_wire = proto::encode_serve_error(e.code(), e.what());
    }
    const std::uint64_t t_served = steady_now_ns();
    // The router's "serve" is the downstream fan-out; the router-side
    // reassembly reports separately as kMerge.
    rec.stage_ms[static_cast<std::size_t>(obs::Stage::kMerge)] = merge_ms;
    rec.stage_ms[static_cast<std::size_t>(obs::Stage::kServe)] =
        std::max(0.0, static_cast<double>(t_served - t_decoded) / 1e6 - merge_ms);
    Frame resp;
    resp.type = FrameType::kData;
    resp.payload_kind = static_cast<std::uint8_t>(out_kind);
    resp.from = my_id_;
    resp.to = frame.from;
    resp.trace = trace_id;
    resp.body = envelope_body(proto::EncryptedEnvelope(
        out_wire, proto::detail::derive_link_key(secret_, my_id_, frame.from)));
    out.push_back(std::move(resp));
    rec.stage_ms[static_cast<std::size_t>(obs::Stage::kWrite)] =
        static_cast<double>(steady_now_ns() - t_served) / 1e6;
    if (traced) traces_.push(std::move(rec));
  } catch (const Error& e) {
    Frame err;
    err.type = FrameType::kError;
    err.from = my_id_;
    err.to = frame.from;
    err.trace = trace_id;
    err.body = text_body(e.what());
    out.push_back(std::move(err));
    if (traced) traces_.push(std::move(rec));
  }
  return out;
}

}  // namespace sap::net
