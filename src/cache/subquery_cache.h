#ifndef S4_CACHE_SUBQUERY_CACHE_H_
#define S4_CACHE_SUBQUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/run_stats.h"

namespace s4 {

// The materialized output relation of a (sub-)PJ query in the form the
// join execution plan consumes (Appendix B.1/B.2). Every join key is a
// dense row id of the link's domain relation (see LinkSpec), so the
// table is one uint32 slot per domain row plus a contiguous
// `num_es_rows`-strided double arena holding the per-example-row best
// partial similarity scores of the subtree. A slot holds kNotJoined, the
// sentinel kZeroRow for a key that joins with all-zero scores (needed
// for exact inner-join semantics; it costs no arena row), or the
// key's arena row. There is no hashing: a probe is one array read.
struct SubQueryTable {
  static constexpr uint32_t kNotJoined = 0xFFFFFFFFu;
  static constexpr uint32_t kZeroRow = 0xFFFFFFFEu;

  SubQueryTable() = default;
  // An empty table over a domain of `domain_rows` rows.
  SubQueryTable(int64_t domain_rows, int32_t es_rows)
      : num_es_rows(es_rows),
        slots(static_cast<size_t>(domain_rows), kNotJoined) {}

  int32_t num_es_rows = 0;
  std::vector<uint32_t> slots;  // per domain row: kNotJoined, kZeroRow or row
  std::vector<double> arena;    // NumScored() rows, num_es_rows doubles each
  int64_t num_keys = 0;         // slots other than kNotJoined

  // Scores for domain row `key`: pointer to its num_es_rows-wide arena
  // row, nullptr+exists for zero keys, nullptr+!exists when the key
  // does not join. The pointer stays valid while the table is not
  // mutated.
  const double* Find(int64_t key, bool* exists) const {
    const uint32_t slot = slots[static_cast<size_t>(key)];
    *exists = slot != kNotJoined;
    return slot >= kZeroRow ? nullptr : Row(slot);
  }

  // Mutable arena row for `key`, allocating a fresh zero-filled row when
  // the key is new or promoting it when it was a zero sentinel; `*fresh`
  // reports which. The pointer is invalidated by the next Upsert.
  double* UpsertScored(int64_t key, bool* fresh) {
    uint32_t& slot = slots[static_cast<size_t>(key)];
    *fresh = slot >= kZeroRow;
    if (*fresh) {
      if (slot == kNotJoined) ++num_keys;
      slot = static_cast<uint32_t>(NumScored());
      arena.resize(arena.size() + static_cast<size_t>(num_es_rows), 0.0);
    }
    return arena.data() + static_cast<size_t>(slot) * num_es_rows;
  }

  // Records that `key` joins with all-zero scores; no-op when the key is
  // already present (scored or zero). True if newly inserted.
  bool InsertZero(int64_t key) {
    uint32_t& slot = slots[static_cast<size_t>(key)];
    if (slot != kNotJoined) return false;
    slot = kZeroRow;
    ++num_keys;
    return true;
  }

  int64_t DomainRows() const { return static_cast<int64_t>(slots.size()); }
  int64_t NumKeys() const { return num_keys; }
  int64_t NumScored() const {
    return num_es_rows == 0
               ? 0
               : static_cast<int64_t>(arena.size() /
                                      static_cast<size_t>(num_es_rows));
  }
  int64_t NumZero() const { return NumKeys() - NumScored(); }

  // Calls f(key, row) for every joining key in ascending key order,
  // `row` pointing at its arena row or nullptr for zero-score keys.
  template <typename F>
  void ForEachEntry(F&& f) const {
    for (size_t key = 0; key < slots.size(); ++key) {
      const uint32_t slot = slots[key];
      if (slot == kNotJoined) continue;
      f(static_cast<int64_t>(key), slot == kZeroRow ? nullptr : Row(slot));
    }
  }

  // Calls f(key, row) for every scored key in ascending key order, `row`
  // pointing at its num_es_rows-wide arena row.
  template <typename F>
  void ForEachScored(F&& f) const {
    for (size_t key = 0; key < slots.size(); ++key) {
      const uint32_t slot = slots[key];
      if (slot < kZeroRow) f(static_cast<int64_t>(key), Row(slot));
    }
  }

  // Drops arena growth slack once building is done, so cached tables are
  // charged (and occupy) exactly what they use.
  void ShrinkToFit() { arena.shrink_to_fit(); }

  // Exact bytes: 4 per domain row plus the arena allocation. Both
  // allocate exactly their capacity, so the cache budget B, eviction
  // order, and the Fig. 8 sweep see true memory.
  size_t ByteSize() const {
    return sizeof(SubQueryTable) + slots.capacity() * sizeof(uint32_t) +
           arena.capacity() * sizeof(double);
  }

 private:
  const double* Row(uint32_t slot) const {
    return arena.data() + static_cast<size_t>(slot) * num_es_rows;
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
