// PoolShard — one shard's slice of the live unified pool, with its own
// epoch line and model cache.
//
// PR 8 splits the MiningEngine's monolithic pool into N shards partitioned
// by contribution-nonce hash (protocol/shard.hpp). Everything the engine
// used to keep once — the epoch-scoped snapshot, the append lineage that
// feeds incremental refits, the (job, params)-keyed model cache — now lives
// per shard, so shards ingest and fit independently: an append to shard 2
// never invalidates shard 0's cache or blocks its serving.
//
// A shard's rows stay in ARRIVAL order (the order contributions landed),
// exactly like the old single pool — per-shard fits and incremental
// partial_fit extensions are therefore bit-identical to what a 1-shard
// engine produces from the same arrival sequence. The parallel `keys`
// vector carries each row's canonical (nonce, seq) coordinate, which is
// what exact merges and canonical gathers order by (DESIGN.md §11).
//
// Rows live in an append-only, capacity-doubling RowStore that successive
// snapshots share: a snapshot is (store, row count), so an append writes
// only the rows past every published count and costs O(batch) — the store
// moves to twice its capacity when full, O(log N) times per generation. A
// snapshot builds its contiguous data::Dataset once, on first use, and only
// for the consumers that need one (fits, serving, partials, slices, the
// resync door); the row count, the keys and single records read straight
// from the store. install() publishes its Dataset as an already-built
// snapshot and drops the store; the next append starts a fresh one
// (DESIGN.md §6).
//
// Thread-safety mirrors the old engine: view()/model_for() may run
// concurrently with install()/append() (requests serve the snapshot they
// captured); mutators are serialized per shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "data/dataset.hpp"
#include "protocol/jobs.hpp"

namespace sap::proto {

/// Append-only rows of one install generation, shared by its snapshots
/// (defined in pool_shard.cpp; only PoolShard writes it).
struct RowStore;

/// Immutable snapshot of one shard's pool: rows in arrival order plus each
/// row's canonical (nonce, seq) coordinate, versioned TOGETHER so a reader
/// never pairs rows from one epoch with keys from another. Either an
/// installed Dataset (built from the start) or the first size() rows of a
/// RowStore (built into a Dataset on the first rows() call).
class ShardSnapshot {
 public:
  /// An installed pool. `keys` must parallel `rows`.
  ShardSnapshot(data::Dataset rows, std::vector<PoolKey> keys);
  /// The first `count` rows of `store`; each build bumps `*builds`.
  ShardSnapshot(std::shared_ptr<const RowStore> store, std::size_t count,
                std::shared_ptr<std::atomic<std::size_t>> builds);

  ShardSnapshot(const ShardSnapshot&) = delete;
  ShardSnapshot& operator=(const ShardSnapshot&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t dims() const noexcept;
  [[nodiscard]] const std::string& name() const noexcept;
  [[nodiscard]] std::span<const double> record(std::size_t i) const;
  [[nodiscard]] int label(std::size_t i) const;
  /// Parallel to the rows; never builds.
  [[nodiscard]] std::span<const PoolKey> keys() const noexcept;

  /// The rows as one contiguous Dataset — built once, on the first call.
  [[nodiscard]] const data::Dataset& rows() const;

 private:
  const std::shared_ptr<const RowStore> store_;  ///< null: installed snapshot
  const std::size_t count_;
  const std::vector<PoolKey> installed_keys_;
  const std::shared_ptr<std::atomic<std::size_t>> builds_;
  mutable std::once_flag built_once_;
  mutable data::Dataset rows_;  ///< written once, under built_once_
};

/// What an append reports: the shard's new epoch and its row count there.
struct AppendReceipt {
  std::uint64_t epoch = 0;
  std::size_t records = 0;
};

/// One nonce's slice of a unified pool, in that nonce's record order — the
/// unit set_pool_segments() routes to shards.
struct PoolSegment {
  std::uint64_t nonce = 0;
  data::Dataset rows;
};

class PoolShard {
 public:
  /// cache_models mirrors MiningEngineOptions::cache_models.
  explicit PoolShard(bool cache_models) : cache_models_(cache_models) {}

  PoolShard(const PoolShard&) = delete;
  PoolShard& operator=(const PoolShard&) = delete;

  /// Atomic (snapshot, epoch) pair — the view one request serves against.
  struct View {
    std::shared_ptr<const ShardSnapshot> snap;
    std::uint64_t epoch = 0;
  };

  /// Install (or replace) this shard's rows. `keys` must parallel `rows`.
  /// Starts a new epoch generation: bumps the epoch, drops every cached
  /// model, severs incremental lineage, and re-derives per-nonce sequence
  /// counters from `keys` so later appends continue the canonical order.
  void install(data::Dataset rows, std::vector<PoolKey> keys);

  /// install() that ADOPTS a donor's epoch instead of bumping the local
  /// line — the resync path (DESIGN.md §13). A rejoining miner installs the
  /// live owner's arrival-order snapshot with the owner's current epoch so
  /// the router's per-shard epoch floors keep holding across the restart.
  /// Everything else matches install(): new generation, caches dropped,
  /// lineage severed, seq counters re-derived. `epoch` must not regress the
  /// local epoch line.
  void install_at(data::Dataset rows, std::vector<PoolKey> keys, std::uint64_t epoch);

  /// Streaming ingest: append `batch` under `nonce`, assigning consecutive
  /// canonical seq numbers. Bumps the epoch WITHOUT dropping cached models
  /// (incremental refits pick up exactly the appended rows). Amortized
  /// O(batch): the rows go into the generation's RowStore, which doubles
  /// when full. Returns the new epoch and the shard's row count at it.
  AppendReceipt append(std::uint64_t nonce, const data::Dataset& batch);

  /// False until the first install().
  [[nodiscard]] bool installed() const;

  [[nodiscard]] View view() const;
  [[nodiscard]] std::uint64_t epoch() const;

  /// Fitted model for (spec, resolved params) serving `view` — from this
  /// shard's cache when current, extended incrementally from an earlier
  /// epoch's model when possible, freshly trained otherwise. Identical
  /// logic to the pre-shard engine's model_for, scoped to one shard.
  std::shared_ptr<const ml::Classifier> model_for(const JobSpec& spec,
                                                  const JobParams& resolved,
                                                  const View& view, bool& cached,
                                                  bool& incremental);

  /// Cumulative cache and row-store accounting for this shard.
  struct Stats {
    std::size_t fits = 0;         ///< models trained from scratch
    std::size_t incremental = 0;  ///< models extended via partial_fit
    std::size_t hits = 0;         ///< requests served from a cached model
    std::size_t entries = 0;      ///< live cache entries
    std::size_t snapshot_builds = 0;  ///< store snapshots built into a Dataset
    std::size_t store_grows = 0;  ///< RowStores allocated (first append of a
                                  ///< generation, or a full store doubling)
  };
  [[nodiscard]] Stats stats() const;

 private:
  using ModelFuture = std::shared_future<std::shared_ptr<const ml::Classifier>>;

  /// One cached fitted model: the epoch it answers plus the (possibly still
  /// in-flight) fit. Keys are (job '\0' model-params).
  struct CacheEntry {
    std::uint64_t epoch = 0;
    ModelFuture future;
  };

  /// Row count this shard had at `epoch`, if `epoch` belongs to the current
  /// install generation (false otherwise — lineage severed).
  [[nodiscard]] bool rows_at_epoch(std::uint64_t epoch, std::size_t& rows) const;

  const bool cache_models_;

  mutable Mutex pool_mutex_;  ///< guards snap_, epoch_, epoch_rows_
  /// Serializes install/append; held around (never inside) pool_mutex_ so
  /// mutators write the store outside the lock serving contends on.
  Mutex ingest_mutex_ SAP_ACQUIRED_BEFORE(pool_mutex_);
  /// The generation's row store (null until its first append) — the only
  /// writable handle to it; snapshots hold it read-only.
  std::shared_ptr<RowStore> store_ SAP_GUARDED_BY(ingest_mutex_);
  std::shared_ptr<const ShardSnapshot> snap_ SAP_GUARDED_BY(pool_mutex_);
  std::uint64_t epoch_ SAP_GUARDED_BY(pool_mutex_) = 0;
  /// Shard size per epoch of the current generation (cleared by install) —
  /// what lets an incremental refit slice out exactly the appended rows.
  std::map<std::uint64_t, std::size_t> epoch_rows_ SAP_GUARDED_BY(pool_mutex_);
  /// Next canonical seq per nonce (appends continue where install left off).
  std::map<std::uint64_t, std::uint32_t> next_seq_ SAP_GUARDED_BY(ingest_mutex_);

  mutable Mutex cache_mutex_;
  /// key: job '\0' model-params
  std::map<std::string, CacheEntry> cache_ SAP_GUARDED_BY(cache_mutex_);
  std::atomic<std::size_t> fits_{0};
  std::atomic<std::size_t> incremental_{0};
  std::atomic<std::size_t> hits_{0};
  /// Shared with every store snapshot, which may outlive the shard.
  const std::shared_ptr<std::atomic<std::size_t>> snapshot_builds_ =
      std::make_shared<std::atomic<std::size_t>>(0);
  std::atomic<std::size_t> store_grows_{0};
};

}  // namespace sap::proto
