#include "cache/subquery_cache.h"

#include <algorithm>

namespace s4 {

SubQueryCache::SubQueryCache(size_t budget_bytes, int32_t num_shards)
    : budget_(budget_bytes) {
  if (num_shards < 1) num_shards = 1;
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int32_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

int32_t SubQueryCache::ShardsForThreads(int32_t num_threads) {
  if (num_threads <= 1) return 1;
  // Saturate before multiplying: num_threads arrives unchecked from the
  // wire, and num_threads * 4 overflows past 2^29.
  return std::min<int32_t>(num_threads, 16) * 4;
}

void SubQueryCache::AttachShared(SubQueryCache* shared,
                                 std::string key_prefix) {
  shared_ = shared == this ? nullptr : shared;
  shared_prefix_ = std::move(key_prefix);
}

CacheStats SubQueryCache::stats() const {
  CacheStats out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.Add(shard->stats);
  }
  // Shards leave peak_bytes at 0: the peak is tracked cache-wide.
  out.peak_bytes = peak_bytes_.load(std::memory_order_relaxed);
  return out;
}

std::shared_ptr<const SubQueryTable> SubQueryCache::Get(
    const std::string& key) {
  {
    Shard& shard = *shards_[ShardIndex(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      ++shard.stats.hits;
      shard.lru.erase(it->second.lru_it);
      shard.lru.push_front(key);
      it->second.lru_it = shard.lru.begin();
      return it->second.table;
    }
    ++shard.stats.misses;
  }
  // Fall through to the cross-query cache; its own stats record the
  // cross-query hit rate. The table is returned without re-inserting it
  // locally so local bytes/LRU reflect only this run's insertions.
  if (shared_ != nullptr) return shared_->Get(shared_prefix_ + key);
  return nullptr;
}

bool SubQueryCache::Contains(const std::string& key) const {
  {
    const Shard& shard = *shards_[ShardIndex(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.entries.count(key) > 0) return true;
  }
  return shared_ != nullptr && shared_->Contains(shared_prefix_ + key);
}

bool SubQueryCache::EvictOneFrom(Shard& shard) {
  std::lock_guard<std::mutex> lock(shard.mu);
  for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
    auto eit = shard.entries.find(*it);
    if (eit->second.pinned) continue;
    bytes_used_.fetch_sub(eit->second.bytes, std::memory_order_relaxed);
    ++shard.stats.evictions;
    auto victim = std::prev(it.base());
    shard.entries.erase(eit);
    shard.lru.erase(victim);
    return true;
  }
  return false;
}

void SubQueryCache::RemoveLocked(Shard& shard, const std::string& key) {
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return;
  bytes_used_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
  shard.lru.erase(it->second.lru_it);
  shard.entries.erase(it);
}

void SubQueryCache::UpdatePeak() {
  size_t cur = bytes_used_.load(std::memory_order_relaxed);
  size_t peak = peak_bytes_.load(std::memory_order_relaxed);
  while (cur > peak && !peak_bytes_.compare_exchange_weak(
                           peak, cur, std::memory_order_relaxed)) {
  }
}

bool SubQueryCache::Add(const std::string& key,
                        std::shared_ptr<const SubQueryTable> table,
                        bool pinned) {
  // Republish to the cross-query cache (best-effort, never pinned: pins
  // belong to this run's scheduler, not the shared LRU).
  if (shared_ != nullptr) {
    shared_->Add(shared_prefix_ + key, table, /*pinned=*/false);
  }
  const size_t bytes = table->ByteSize();
  const size_t home_index = ShardIndex(key);
  Shard& home = *shards_[home_index];
  {
    std::lock_guard<std::mutex> lock(home.mu);
    RemoveLocked(home, key);  // re-inserting an existing key replaces it
    if (bytes > budget_) {
      ++home.stats.rejected_too_large;
      return false;
    }
  }
  // Reserve the new entry's bytes, then evict — one shard locked at a
  // time, the home shard first — until the global budget holds again.
  size_t used =
      bytes_used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  while (used > budget_) {
    bool evicted = false;
    for (size_t off = 0; off < shards_.size() && !evicted; ++off) {
      evicted = EvictOneFrom(*shards_[(home_index + off) % shards_.size()]);
    }
    if (!evicted) {  // everything left is pinned
      bytes_used_.fetch_sub(bytes, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(home.mu);
      ++home.stats.rejected_too_large;
      return false;
    }
    used = bytes_used_.load(std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(home.mu);
    // A racing Add of the same key may have landed while unlocked.
    RemoveLocked(home, key);
    home.lru.push_front(key);
    Entry e;
    e.table = std::move(table);
    e.bytes = bytes;
    e.pinned = pinned;
    e.lru_it = home.lru.begin();
    home.entries.emplace(key, std::move(e));
    ++home.stats.insertions;
  }
  UpdatePeak();
  return true;
}

void SubQueryCache::Remove(const std::string& key) {
  Shard& shard = *shards_[ShardIndex(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  RemoveLocked(shard, key);
}

void SubQueryCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    size_t bytes = 0;
    for (const auto& [key, e] : shard->entries) {
      (void)key;
      bytes += e.bytes;
    }
    bytes_used_.fetch_sub(bytes, std::memory_order_relaxed);
    shard->entries.clear();
    shard->lru.clear();
  }
}

void SubQueryCache::Unpin(const std::string& key) {
  Shard& shard = *shards_[ShardIndex(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) it->second.pinned = false;
}

int64_t SubQueryCache::NumEntries() const {
  int64_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += static_cast<int64_t>(shard->entries.size());
  }
  return n;
}

}  // namespace s4
