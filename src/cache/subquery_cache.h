#ifndef S4_CACHE_SUBQUERY_CACHE_H_
#define S4_CACHE_SUBQUERY_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/flat_table.h"
#include "obs/run_stats.h"

namespace s4 {

// The materialized output relation of a (sub-)PJ query in the form the
// hash-join execution plan consumes (Appendix B.1/B.2): one flat
// open-addressing table mapping each join key to a row of a contiguous
// `num_es_rows`-strided double arena holding the per-example-row best
// partial similarity scores of the subtree. Keys that join but carry
// all-zero scores (needed for exact inner-join semantics) map to the
// sentinel row id kZeroRow instead of an arena row, so they cost one
// 12-byte slot and no payload.
struct SubQueryTable {
  // Sentinel arena-row id for keys that join with all-zero scores.
  static constexpr uint32_t kZeroRow = 0xFFFFFFFEu;

  int32_t num_es_rows = 0;
  FlatMap64 keys;             // join key -> arena row id or kZeroRow
  std::vector<double> arena;  // NumScored() rows, num_es_rows doubles each

  // Scores for `key`: pointer to its num_es_rows-wide arena row,
  // nullptr+exists for zero keys, nullptr+!exists when the key does not
  // join. The pointer stays valid while the table is not mutated.
  const double* Find(int64_t key, bool* exists) const {
    const uint32_t row = keys.Find(key);
    if (row == FlatMap64::kNotFound) {
      *exists = false;
      return nullptr;
    }
    *exists = true;
    if (row == kZeroRow) return nullptr;
    return arena.data() + static_cast<size_t>(row) * num_es_rows;
  }

  // Mutable arena row for `key`, allocating a fresh zero-filled row when
  // the key is new or promoting it when it was a zero sentinel; `*fresh`
  // reports which. The pointer is invalidated by the next Upsert.
  double* UpsertScored(int64_t key, bool* fresh) {
    bool inserted = false;
    uint32_t* slot = keys.FindOrInsert(key, 0, &inserted);
    if (inserted || *slot == kZeroRow) {
      const uint32_t row =
          static_cast<uint32_t>(arena.size() / static_cast<size_t>(num_es_rows));
      *slot = row;
      arena.resize(arena.size() + static_cast<size_t>(num_es_rows), 0.0);
      *fresh = true;
      return arena.data() + static_cast<size_t>(row) * num_es_rows;
    }
    *fresh = false;
    return arena.data() + static_cast<size_t>(*slot) * num_es_rows;
  }

  // Records that `key` joins with all-zero scores; no-op when the key is
  // already present (scored or zero). True if newly inserted.
  bool InsertZero(int64_t key) {
    bool inserted = false;
    keys.FindOrInsert(key, kZeroRow, &inserted);
    return inserted;
  }

  // Batched Find over `probe_keys[0..n)`: fills `rows[j]` / `exists[j]`
  // with exactly what Find(probe_keys[j], ...) would produce, but
  // resolves the key-table probes through FlatMap64::FindBatch so the
  // slot cache misses overlap. The row pointers stay valid while the
  // table is not mutated.
  void FindBatch(const int64_t* probe_keys, size_t n, const double** rows,
                 bool* exists) const {
    uint32_t ids[FlatMap64::kBatchWidth];
    for (size_t lo = 0; lo < n; lo += FlatMap64::kBatchWidth) {
      const size_t m = std::min(n - lo, FlatMap64::kBatchWidth);
      keys.FindBatch(probe_keys + lo, m, ids);
      for (size_t j = 0; j < m; ++j) {
        const uint32_t row = ids[j];
        exists[lo + j] = row != FlatMap64::kNotFound;
        rows[lo + j] =
            (row == FlatMap64::kNotFound || row == kZeroRow)
                ? nullptr
                : arena.data() + static_cast<size_t>(row) * num_es_rows;
      }
    }
  }

  // Warms the key-table cache lines an UpsertScored(key) is about to
  // touch; advisory only. Build loops call this a few keys ahead of the
  // upsert so the slot line loads overlap the arena writes.
  void PrefetchUpsert(int64_t key) const { keys.Prefetch(key, true); }

  int64_t NumKeys() const { return static_cast<int64_t>(keys.size()); }
  int64_t NumScored() const {
    return num_es_rows == 0
               ? 0
               : static_cast<int64_t>(arena.size() /
                                      static_cast<size_t>(num_es_rows));
  }
  int64_t NumZero() const { return NumKeys() - NumScored(); }

  // Calls f(key) for every joining key (scored and zero), in slot order.
  template <typename F>
  void ForEachKey(F&& f) const {
    keys.ForEach([&](int64_t key, uint32_t) { f(key); });
  }

  // Calls f(key, row) for every joining key in slot order, `row`
  // pointing at its arena row or nullptr for zero-score keys — the
  // key-and-payload walk the evaluator's batched Stage-II loop seeds
  // from (one pass instead of ForEachKey + a re-probe per key).
  template <typename F>
  void ForEachEntry(F&& f) const {
    keys.ForEach([&](int64_t key, uint32_t row) {
      f(key, row == kZeroRow
                 ? nullptr
                 : arena.data() + static_cast<size_t>(row) * num_es_rows);
    });
  }

  // Calls f(key, row) for every scored key, `row` pointing at its
  // num_es_rows-wide arena row.
  template <typename F>
  void ForEachScored(F&& f) const {
    keys.ForEach([&](int64_t key, uint32_t row) {
      if (row != kZeroRow) {
        f(key, arena.data() + static_cast<size_t>(row) * num_es_rows);
      }
    });
  }

  // Pre-sizes the key table for `n` keys (the arena grows on demand).
  void Reserve(size_t n) { keys.Reserve(n); }

  // Drops arena growth slack once building is done, so cached tables are
  // charged (and occupy) exactly what they use.
  void ShrinkToFit() { arena.shrink_to_fit(); }

  // Exact bytes: the flat table's slot arrays at capacity plus the arena
  // allocation. Both allocate exactly their capacity, so the cache
  // budget B, eviction order, and the Fig. 8 sweep see true memory.
  size_t ByteSize() const {
    return sizeof(SubQueryTable) + keys.ByteSize() +
           arena.capacity() * sizeof(double);
  }
};

// Budgeted LRU cache M of sub-PJ query output relations (Sec 5.1-5.3).
// The scheduler explicitly Adds critical sub-PJ results (optionally
// pinned so the LRU heuristic never drops them mid-group, Sec 5.3.4),
// and the evaluator opportunistically offers intermediate tables.
//
// Concurrency: the cache is split into `num_shards` shards, each owning
// a mutex-guarded hash map + LRU list of the keys that hash to it, so
// parallel candidate evaluations contend only on colliding shards. The
// byte budget B is global, tracked by one atomic counter; an Add that
// would exceed it evicts unpinned LRU entries one shard at a time
// (own shard first), never holding two shard locks at once. The
// single-shard default preserves the exact global LRU order of the
// paper's serial scheduler, which the serial (num_threads = 1)
// strategies rely on for reproducibility.
//
// Cross-query sharing (service layer): a per-run cache may attach a
// long-lived *shared* cache via AttachShared. Local lookups that miss
// fall through to the shared cache under a caller-supplied key prefix
// (epoch + spreadsheet fingerprint, making keys canonical across
// requests), and local insertions are republished there unpinned.
// Sub-query tables are immutable once built and deterministic functions
// of their canonical key, so serving another request's table is always
// exact — sharing changes work counts, never scores. Clear() and pins
// stay strictly local: the scheduler's per-group reset and pin/unpin
// protocol must not perturb concurrent runs.
class SubQueryCache {
 public:
  explicit SubQueryCache(size_t budget_bytes, int32_t num_shards = 1);

  SubQueryCache(const SubQueryCache&) = delete;
  SubQueryCache& operator=(const SubQueryCache&) = delete;

  size_t budget() const { return budget_; }
  size_t bytes_used() const {
    return bytes_used_.load(std::memory_order_relaxed);
  }
  int32_t num_shards() const { return static_cast<int32_t>(shards_.size()); }

  // Merged snapshot of the per-shard counters. Each shard's counters are
  // read under that shard's mutex — the same lock every mutation holds —
  // so the per-shard sums are exact; only cross-shard skew is possible
  // while other threads keep operating. peak_bytes is an atomic read.
  CacheStats stats() const;

  // Shard count for a given evaluation thread count: one shard for the
  // serial path (exact global LRU), else enough shards to keep
  // lock contention low.
  static int32_t ShardsForThreads(int32_t num_threads);

  // Attaches a long-lived shared cache consulted on local misses and fed
  // on local insertions, with `key_prefix` namespacing this run's keys
  // into the shared key space. `shared` must outlive this cache and must
  // not be `this`. Pass nullptr to detach.
  void AttachShared(SubQueryCache* shared, std::string key_prefix);

  // Looks up `key`; records a hit/miss and refreshes LRU recency.
  std::shared_ptr<const SubQueryTable> Get(const std::string& key);

  // True without touching stats or recency (used by cost estimation).
  bool Contains(const std::string& key) const;

  // Inserts `table` under `key`, evicting unpinned LRU entries as needed.
  // Returns false (and stores nothing) if the table cannot fit even
  // after evicting everything unpinned. Re-inserting an existing key
  // replaces the value.
  bool Add(const std::string& key, std::shared_ptr<const SubQueryTable> table,
           bool pinned = false);

  // Removes one entry / all entries (type-c operator Delete).
  void Remove(const std::string& key);
  void Clear();

  // Pin management; pinned entries are never evicted by Add.
  void Unpin(const std::string& key);

  int64_t NumEntries() const;

 private:
  struct Entry {
    std::shared_ptr<const SubQueryTable> table;
    size_t bytes = 0;
    bool pinned = false;
    std::list<std::string>::iterator lru_it;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Entry> entries;
    std::list<std::string> lru;  // front = most recent
    CacheStats stats;            // shard-local; merged by stats()
  };

  size_t ShardIndex(const std::string& key) const {
    return std::hash<std::string>{}(key) % shards_.size();
  }

  // Evicts the shard's LRU unpinned entry; true if one was evicted.
  bool EvictOneFrom(Shard& shard);
  // Drops `key` from `shard` (shard.mu must be held by the caller).
  void RemoveLocked(Shard& shard, const std::string& key);
  void UpdatePeak();

  size_t budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<size_t> bytes_used_{0};
  std::atomic<size_t> peak_bytes_{0};
  // Cross-query fallthrough target (not owned); set before a run starts
  // and constant during it.
  SubQueryCache* shared_ = nullptr;
  std::string shared_prefix_;
};

}  // namespace s4

#endif  // S4_CACHE_SUBQUERY_CACHE_H_
