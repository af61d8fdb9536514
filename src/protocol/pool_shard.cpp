#include "protocol/pool_shard.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sap::proto {

/// Fixed capacity; only the owning PoolShard writes, under its ingest lock,
/// and only rows past every count it has published — so a reader of a
/// snapshot's first `count` rows never touches memory a writer is writing
/// (publication goes through the shard's pool lock).
struct RowStore {
  RowStore(std::string name, std::size_t dims, std::size_t capacity);

  const std::string name;
  const std::size_t dims;
  const std::size_t capacity;  ///< rows
  const std::unique_ptr<double[]> features;  ///< capacity x dims, row-major
  const std::unique_ptr<int[]> labels;
  const std::unique_ptr<PoolKey[]> keys;
};

RowStore::RowStore(std::string name_, std::size_t dims_, std::size_t capacity_)
    : name(std::move(name_)),
      dims(dims_),
      capacity(capacity_),
      // Left uninitialized: a row is read only after append wrote it, so
      // pages past the published rows are never touched.
      features(std::make_unique_for_overwrite<double[]>(capacity_ * dims_)),
      labels(std::make_unique_for_overwrite<int[]>(capacity_)),
      keys(std::make_unique<PoolKey[]>(capacity_)) {}

ShardSnapshot::ShardSnapshot(data::Dataset rows, std::vector<PoolKey> keys)
    : count_(rows.size()), installed_keys_(std::move(keys)), rows_(std::move(rows)) {}

ShardSnapshot::ShardSnapshot(std::shared_ptr<const RowStore> store, std::size_t count,
                             std::shared_ptr<std::atomic<std::size_t>> builds)
    : store_(std::move(store)), count_(count), builds_(std::move(builds)) {}

std::size_t ShardSnapshot::dims() const noexcept {
  return store_ ? store_->dims : rows_.dims();
}

const std::string& ShardSnapshot::name() const noexcept {
  return store_ ? store_->name : rows_.name();
}

std::span<const double> ShardSnapshot::record(std::size_t i) const {
  if (!store_) return rows_.record(i);
  SAP_REQUIRE(i < count_, "ShardSnapshot::record: index out of range");
  return {store_->features.get() + i * store_->dims, store_->dims};
}

int ShardSnapshot::label(std::size_t i) const {
  if (!store_) return rows_.label(i);
  SAP_REQUIRE(i < count_, "ShardSnapshot::label: index out of range");
  return store_->labels[i];
}

std::span<const PoolKey> ShardSnapshot::keys() const noexcept {
  if (!store_) return installed_keys_;
  return {store_->keys.get(), count_};
}

const data::Dataset& ShardSnapshot::rows() const {
  if (!store_) return rows_;
  std::call_once(built_once_, [this] {
    const std::size_t values = count_ * store_->dims;
    linalg::Matrix features(count_, store_->dims);
    std::copy(store_->features.get(), store_->features.get() + values,
              features.data().begin());
    rows_ = data::Dataset(store_->name, std::move(features),
                          {store_->labels.get(), store_->labels.get() + count_});
    builds_->fetch_add(1, std::memory_order_relaxed);
  });
  return rows_;
}

void PoolShard::install(data::Dataset rows, std::vector<PoolKey> keys) {
  SAP_REQUIRE(rows.size() == keys.size(),
              "PoolShard::install: rows/keys size mismatch");
  MutexLock ingest(ingest_mutex_);
  next_seq_.clear();
  for (const auto& key : keys) {
    auto& next = next_seq_[key.nonce];
    if (key.seq >= next) next = key.seq + 1;
  }
  store_.reset();  // the next append starts this generation's store
  auto snapshot = std::make_shared<const ShardSnapshot>(std::move(rows), std::move(keys));
  {
    MutexLock lk(pool_mutex_);
    snap_ = std::move(snapshot);
    ++epoch_;
    // New generation: only the new epoch's size is known lineage, so a
    // model fitted on any replaced shard can never seed an incremental
    // refit.
    epoch_rows_.clear();
    epoch_rows_[epoch_] = snap_->size();
  }
  // Dropping the cache releases dead models' memory; correctness never
  // depends on it (a stale entry fails the lineage check and is refitted).
  MutexLock lk(cache_mutex_);
  cache_.clear();
}

void PoolShard::install_at(data::Dataset rows, std::vector<PoolKey> keys,
                           std::uint64_t epoch) {
  SAP_REQUIRE(rows.size() == keys.size(),
              "PoolShard::install_at: rows/keys size mismatch");
  SAP_REQUIRE(epoch >= 1, "PoolShard::install_at: epoch must be >= 1");
  MutexLock ingest(ingest_mutex_);
  next_seq_.clear();
  for (const auto& key : keys) {
    auto& next = next_seq_[key.nonce];
    if (key.seq >= next) next = key.seq + 1;
  }
  store_.reset();
  auto snapshot = std::make_shared<const ShardSnapshot>(std::move(rows), std::move(keys));
  {
    MutexLock lk(pool_mutex_);
    SAP_REQUIRE(epoch >= epoch_,
                "PoolShard::install_at: adopted epoch " + std::to_string(epoch) +
                    " would regress local epoch " + std::to_string(epoch_));
    snap_ = std::move(snapshot);
    epoch_ = epoch;
    epoch_rows_.clear();
    epoch_rows_[epoch_] = snap_->size();
  }
  MutexLock lk(cache_mutex_);
  cache_.clear();
}

AppendReceipt PoolShard::append(std::uint64_t nonce, const data::Dataset& batch) {
  SAP_REQUIRE(batch.size() > 0, "PoolShard::append: empty batch");
  MutexLock ingest(ingest_mutex_);
  const View current = view();
  SAP_REQUIRE(current.snap != nullptr,
              "PoolShard::append: shard not installed (install first)");
  const ShardSnapshot& published = *current.snap;
  const std::size_t count = published.size();
  SAP_REQUIRE(count == 0 || batch.dims() == published.dims(),
              "PoolShard::append: dimension mismatch");
  // Appends are serialized by ingest_mutex_, so `published` is the newest
  // snapshot and every published count is <= count: the rows written below
  // are ones no reader can be reading. Only a full (or absent) store costs
  // O(N) — the move to one of twice the capacity.
  const std::size_t total = count + batch.size();
  if (!store_ || total > store_->capacity) {
    // An empty shard adopts the batch's dimensionality and name.
    auto grown = std::make_shared<RowStore>(
        count == 0 ? batch.name() : published.name(),
        count == 0 ? batch.dims() : published.dims(),
        std::max(total, 2 * (store_ ? store_->capacity : count)));
    for (std::size_t i = 0; i < count; ++i) {
      const auto rec = published.record(i);
      std::copy(rec.begin(), rec.end(), grown->features.get() + i * grown->dims);
      grown->labels[i] = published.label(i);
    }
    const auto keys = published.keys();
    std::copy(keys.begin(), keys.end(), grown->keys.get());
    store_ = std::move(grown);
    store_grows_.fetch_add(1, std::memory_order_relaxed);
  }
  const auto in = batch.features().data();
  std::copy(in.begin(), in.end(), store_->features.get() + count * store_->dims);
  std::copy(batch.labels().begin(), batch.labels().end(), store_->labels.get() + count);
  auto& next = next_seq_[nonce];
  for (std::size_t i = 0; i < batch.size(); ++i) store_->keys[count + i] = {nonce, next++};
  auto snapshot = std::make_shared<const ShardSnapshot>(store_, total, snapshot_builds_);
  MutexLock lk(pool_mutex_);
  snap_ = std::move(snapshot);
  ++epoch_;
  epoch_rows_[epoch_] = total;
  // Bound the lineage history on long-running streams: a cache entry more
  // than kEpochHistory appends behind just loses its incremental seed and
  // refits in full (rows_at_epoch fails), so pruning never affects
  // correctness.
  constexpr std::size_t kEpochHistory = 64;
  while (epoch_rows_.size() > kEpochHistory) epoch_rows_.erase(epoch_rows_.begin());
  return {epoch_, total};
}

bool PoolShard::installed() const {
  MutexLock lk(pool_mutex_);
  return snap_ != nullptr;
}

PoolShard::View PoolShard::view() const {
  MutexLock lk(pool_mutex_);
  return {snap_, epoch_};
}

std::uint64_t PoolShard::epoch() const {
  MutexLock lk(pool_mutex_);
  return epoch_;
}

bool PoolShard::rows_at_epoch(std::uint64_t epoch, std::size_t& rows) const {
  MutexLock lk(pool_mutex_);
  const auto it = epoch_rows_.find(epoch);
  if (it == epoch_rows_.end()) return false;
  rows = it->second;
  return true;
}

std::shared_ptr<const ml::Classifier> PoolShard::model_for(const JobSpec& spec,
                                                           const JobParams& resolved,
                                                           const View& view,
                                                           bool& cached,
                                                           bool& incremental) {
  cached = false;
  incremental = false;
  const data::Dataset& rows = view.snap->rows();
  if (!cache_models_) {
    auto model = spec.make_model(resolved);
    model->fit(rows);
    fits_.fetch_add(1, std::memory_order_relaxed);
    return model;
  }

  std::string key = spec.name;
  key += '\0';
  key += spec.model_key_params(resolved);  // serve-only params share a model

  std::promise<std::shared_ptr<const ml::Classifier>> promise;
  ModelFuture future;
  ModelFuture base;
  std::uint64_t base_epoch = 0;
  bool fitter = false;
  bool have_base = false;
  {
    MutexLock lk(cache_mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end() && it->second.epoch == view.epoch) {
      // Current-epoch entry: a completed one is a genuine cache hit; an
      // in-flight one means a peer worker is fitting this exact key right
      // now and we share its result — counted as a hit too.
      future = it->second.future;
      cached = true;
    } else if (it != cache_.end() && it->second.epoch > view.epoch) {
      // The slot already answers a NEWER shard epoch (this request started
      // before an append landed). Bounded staleness: serve this request's
      // own epoch with a one-off fit, and never regress the cache.
      fitter = false;
    } else {
      if (it != cache_.end()) {
        base = it->second.future;  // older epoch's model: incremental seed
        base_epoch = it->second.epoch;
        have_base = true;
      }
      future = ModelFuture(promise.get_future());
      cache_[key] = {view.epoch, future};
      fitter = true;
    }
  }

  if (!cached && !fitter) {  // the stale-request one-off path
    auto model = spec.make_model(resolved);
    model->fit(rows);
    fits_.fetch_add(1, std::memory_order_relaxed);
    return model;
  }

  if (fitter) {
    try {
      std::shared_ptr<const ml::Classifier> model;
      std::size_t base_rows = 0;
      if (have_base && rows_at_epoch(base_epoch, base_rows)) {
        std::shared_ptr<const ml::Classifier> seed;
        try {
          seed = base.get();
        } catch (...) {
          seed = nullptr;  // the base fit failed; fall through to a full fit
        }
        if (seed && seed->supports_partial_fit() && base_rows < rows.size()) {
          model = seed->partial_fit(rows.slice(base_rows, rows.size()));
          incremental = true;
          incremental_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (!model) {
        auto fresh = spec.make_model(resolved);
        fresh->fit(rows);
        fits_.fetch_add(1, std::memory_order_relaxed);
        model = std::move(fresh);
      }
      promise.set_value(std::move(model));
    } catch (...) {
      // Waiting peers see the exception; drop the poisoned entry (only if it
      // is still ours) so a later request retries instead of replaying a
      // stale error forever.
      promise.set_exception(std::current_exception());
      MutexLock lk(cache_mutex_);
      const auto it = cache_.find(key);
      if (it != cache_.end() && it->second.epoch == view.epoch) cache_.erase(it);
    }
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return future.get();  // rethrows a fit failure
}

PoolShard::Stats PoolShard::stats() const {
  Stats stats;
  stats.fits = fits_.load(std::memory_order_relaxed);
  stats.incremental = incremental_.load(std::memory_order_relaxed);
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.snapshot_builds = snapshot_builds_->load(std::memory_order_relaxed);
  stats.store_grows = store_grows_.load(std::memory_order_relaxed);
  MutexLock lk(cache_mutex_);
  stats.entries = cache_.size();
  return stats;
}

}  // namespace sap::proto
