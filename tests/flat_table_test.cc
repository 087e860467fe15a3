// Differential coverage of the table layouts: FlatMap64 (the snapshot's
// pk -> row map) and the dense-slot, arena-backed SubQueryTable are
// pitted against reference chained-hash models (unordered_map +
// unordered_set) under randomized operation streams, and the budgeted
// cache's eviction order under the exact ByteSize is replayed against a
// reference LRU model.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <list>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "cache/flat_table.h"
#include "cache/subquery_cache.h"

namespace s4 {
namespace {

TEST(FlatMap64Test, InsertFindGrow) {
  FlatMap64 m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(42), FlatMap64::kNotFound);
  bool inserted = false;
  for (int64_t k = 0; k < 10000; ++k) {
    uint32_t* slot = m.FindOrInsert(k * 7 - 5000, static_cast<uint32_t>(k),
                                    &inserted);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*slot, static_cast<uint32_t>(k));
  }
  EXPECT_EQ(m.size(), 10000u);
  for (int64_t k = 0; k < 10000; ++k) {
    EXPECT_EQ(m.Find(k * 7 - 5000), static_cast<uint32_t>(k));
    EXPECT_EQ(m.Find(k * 7 - 5001), FlatMap64::kNotFound);
  }
  // Re-inserting returns the existing slot.
  uint32_t* slot = m.FindOrInsert(-5000, 999, &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*slot, 0u);
  *slot = 123;
  EXPECT_EQ(m.Find(-5000), 123u);
}

TEST(FlatMap64Test, ExtremeKeys) {
  FlatMap64 m;
  bool inserted = false;
  const int64_t keys[] = {0, -1, 1, std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max()};
  uint32_t v = 0;
  for (int64_t k : keys) m.FindOrInsert(k, v++, &inserted);
  v = 0;
  for (int64_t k : keys) EXPECT_EQ(m.Find(k), v++);
  EXPECT_EQ(m.Find(2), FlatMap64::kNotFound);
}

TEST(FlatMap64Test, ReserveAvoidsGrowthAndCapacityForMatches) {
  FlatMap64 m;
  m.Reserve(1000);
  const size_t cap = m.capacity();
  EXPECT_EQ(cap, FlatMap64::CapacityFor(1000));
  EXPECT_GE(cap * 3, 1000u * 4 / 4 * 4);  // holds 1000 at 3/4 load
  bool inserted = false;
  for (int64_t k = 0; k < 1000; ++k) m.FindOrInsert(k, 0, &inserted);
  EXPECT_EQ(m.capacity(), cap);  // no rehash happened
  EXPECT_EQ(m.ByteSize(), cap * FlatMap64::kSlotBytes);
}

// Exact heap accounting including the tag array: the snapshot's
// ByteSize (Table 1) charges the map CapacityFor * kSlotBytes, so
// kSlotBytes must cover every parallel array byte — 8 key + 4 value +
// 1 tag per slot, allocated exactly.
TEST(FlatMap64Test, ByteSizeCoversTagArrayExactly) {
  FlatMap64 m;
  EXPECT_EQ(m.ByteSize(), 0u);
  EXPECT_EQ(FlatMap64::kSlotBytes,
            sizeof(int64_t) + sizeof(uint32_t) + sizeof(uint8_t));
  bool inserted = false;
  for (int64_t k = 0; k < 5000; ++k) {
    m.FindOrInsert(k * 13 + 1, 1, &inserted);
    EXPECT_EQ(m.ByteSize(), m.capacity() * FlatMap64::kSlotBytes);
  }
  for (size_t n : {size_t{0}, size_t{1}, size_t{11}, size_t{12}, size_t{13},
                   size_t{1000}, size_t{100000}}) {
    FlatMap64 r;
    r.Reserve(n);
    EXPECT_EQ(r.capacity(), FlatMap64::CapacityFor(n)) << n;
    EXPECT_EQ(r.ByteSize(), FlatMap64::CapacityFor(n) * FlatMap64::kSlotBytes)
        << n;
  }
}

// ForEachEntry must visit exactly the keys Find reports as joining, in
// ascending order, with Find's row pointers — including kZeroRow
// sentinel keys (exists, null row).
TEST(SubQueryTableTest, ForEachEntryMatchesFindWithZeroSentinels) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    std::mt19937_64 rng(seed);
    const int64_t domain = 1 + static_cast<int64_t>(rng() % 5000);
    SubQueryTable table(domain, 1 + static_cast<int32_t>(rng() % 7));
    bool fresh = false;
    for (int op = 0; op < 8000; ++op) {
      const int64_t key = static_cast<int64_t>(rng() % domain);
      if (rng() % 4 == 0) {
        table.InsertZero(key);
      } else {
        table.UpsertScored(key, &fresh)[rng() % table.num_es_rows] += 1.0;
      }
    }
    int64_t next = 0;
    int64_t visited = 0;
    table.ForEachEntry([&](int64_t key, const double* row) {
      for (; next < key; ++next) {
        bool e = true;
        EXPECT_EQ(table.Find(next, &e), nullptr);
        EXPECT_FALSE(e) << "key " << next;
      }
      bool e = false;
      EXPECT_EQ(table.Find(key, &e), row) << "key " << key;
      EXPECT_TRUE(e) << "key " << key;
      next = key + 1;
      ++visited;
    });
    EXPECT_EQ(visited, table.NumKeys());
  }
}

TEST(FlatMap64Test, ForEachVisitsEveryEntryOnce) {
  FlatMap64 m;
  std::unordered_map<int64_t, uint32_t> model;
  std::mt19937_64 rng(7);
  bool inserted = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t k = static_cast<int64_t>(rng() % 3000) - 1500;
    const uint32_t v = static_cast<uint32_t>(rng() % 1000);
    uint32_t* slot = m.FindOrInsert(k, v, &inserted);
    EXPECT_EQ(inserted, model.emplace(k, v).second);
    EXPECT_EQ(*slot, model.at(k));
  }
  std::unordered_map<int64_t, uint32_t> seen;
  m.ForEach([&](int64_t k, uint32_t v) { EXPECT_TRUE(seen.emplace(k, v).second); });
  EXPECT_EQ(seen, model);
}

// Reference model of a SubQueryTable: chained hashing.
struct ReferenceModel {
  int32_t num_es_rows = 0;
  std::unordered_map<int64_t, std::vector<double>> scored;
  std::unordered_set<int64_t> zero;

  const std::vector<double>* Find(int64_t key, bool* exists) const {
    auto it = scored.find(key);
    if (it != scored.end()) {
      *exists = true;
      return &it->second;
    }
    *exists = zero.count(key) > 0;
    return nullptr;
  }
};

// Randomized differential test: the dense table must agree with the
// chained-hash reference on every operation's outcome, on Find existence
// semantics, on iteration, and ByteSize must cover the malloc'd payload.
TEST(SubQueryTableDifferentialTest, MatchesReferenceModel) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    const int32_t es_rows = 1 + static_cast<int32_t>(rng() % 20);
    const int64_t key_space = 1 + static_cast<int64_t>(rng() % 4000);
    SubQueryTable flat(key_space, es_rows);
    ReferenceModel model;
    model.num_es_rows = es_rows;

    for (int op = 0; op < 20000; ++op) {
      const int64_t key = static_cast<int64_t>(rng() % key_space);
      switch (rng() % 4) {
        case 0: {  // scored upsert with max-merge, like the emit kernel
          const int32_t t = static_cast<int32_t>(rng() % es_rows);
          const double w =
              static_cast<double>(1 + rng() % 1000) / 64.0;
          bool fresh = false;
          double* row = flat.UpsertScored(key, &fresh);
          auto [it, inserted] = model.scored.try_emplace(key);
          if (inserted) {
            it->second.assign(es_rows, 0.0);
            model.zero.erase(key);
          }
          // A fresh arena row appears exactly when the key was not yet
          // scored (brand new or promoted from the zero set).
          EXPECT_EQ(fresh, inserted) << "key " << key;
          it->second[t] = std::max(it->second[t], w);
          row[t] = std::max(row[t], w);
          break;
        }
        case 1: {  // zero insert
          const bool flat_new = flat.InsertZero(key);
          const bool model_new = model.scored.find(key) == model.scored.end()
                                     ? model.zero.insert(key).second
                                     : false;
          EXPECT_EQ(flat_new, model_new) << "key " << key;
          break;
        }
        default: {  // probe (2x weight: probes dominate the hot path)
          bool fe = false;
          bool me = false;
          const double* fr = flat.Find(key, &fe);
          const std::vector<double>* mr = model.Find(key, &me);
          ASSERT_EQ(fe, me) << "key " << key;
          ASSERT_EQ(fr != nullptr, mr != nullptr) << "key " << key;
          if (fr != nullptr) {
            for (int32_t t = 0; t < es_rows; ++t) {
              ASSERT_DOUBLE_EQ(fr[t], (*mr)[t]) << "key " << key;
            }
          }
        }
      }
    }

    // Cardinalities and iteration agree with the model.
    EXPECT_EQ(flat.NumKeys(),
              static_cast<int64_t>(model.scored.size() + model.zero.size()));
    EXPECT_EQ(flat.NumScored(), static_cast<int64_t>(model.scored.size()));
    EXPECT_EQ(flat.NumZero(), static_cast<int64_t>(model.zero.size()));
    std::unordered_set<int64_t> keys_seen;
    flat.ForEachEntry([&](int64_t k, const double*) {
      EXPECT_TRUE(keys_seen.insert(k).second);
    });
    EXPECT_EQ(keys_seen.size(), model.scored.size() + model.zero.size());
    for (const auto& [k, v] : model.scored) {
      (void)v;
      EXPECT_TRUE(keys_seen.count(k) > 0);
    }
    for (int64_t k : model.zero) EXPECT_TRUE(keys_seen.count(k) > 0);
    int64_t scored_seen = 0;
    flat.ForEachScored([&](int64_t k, const double* row) {
      ++scored_seen;
      const auto it = model.scored.find(k);
      ASSERT_NE(it, model.scored.end());
      for (int32_t t = 0; t < es_rows; ++t) {
        ASSERT_DOUBLE_EQ(row[t], it->second[t]);
      }
    });
    EXPECT_EQ(scored_seen, flat.NumScored());

    // Exact accounting: ByteSize covers every malloc'd payload byte.
    const size_t payload = static_cast<size_t>(key_space) * sizeof(uint32_t) +
                           flat.arena.capacity() * sizeof(double);
    EXPECT_GE(flat.ByteSize(), payload);
    EXPECT_EQ(flat.ByteSize(), sizeof(SubQueryTable) + payload);
    flat.ShrinkToFit();
    EXPECT_EQ(flat.arena.capacity(), flat.arena.size());
  }
}

// Reference single-shard LRU model for the budgeted cache.
class LruModel {
 public:
  explicit LruModel(size_t budget) : budget_(budget) {}

  bool Add(const std::string& key, size_t bytes) {
    Remove(key);
    if (bytes > budget_) return false;
    while (used_ + bytes > budget_) {
      if (order_.empty()) return false;
      Remove(order_.back());
      ++evictions_;
    }
    order_.push_front(key);
    entries_[key] = bytes;
    used_ += bytes;
    return true;
  }

  bool Get(const std::string& key) {
    if (entries_.find(key) == entries_.end()) return false;
    order_.remove(key);
    order_.push_front(key);
    return true;
  }

  void Remove(const std::string& key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return;
    used_ -= it->second;
    order_.remove(key);
    entries_.erase(it);
  }

  bool Contains(const std::string& key) const {
    return entries_.count(key) > 0;
  }
  size_t used() const { return used_; }
  int64_t evictions() const { return evictions_; }
  const std::unordered_map<std::string, size_t>& entries() const {
    return entries_;
  }

 private:
  size_t budget_;
  size_t used_ = 0;
  int64_t evictions_ = 0;
  std::list<std::string> order_;  // front = most recent
  std::unordered_map<std::string, size_t> entries_;
};

std::shared_ptr<SubQueryTable> TableWithKeys(int32_t keys, int32_t es_rows) {
  auto t = std::make_shared<SubQueryTable>(keys, es_rows);
  bool fresh = false;
  for (int32_t i = 0; i < keys; ++i) {
    t->UpsertScored(i, &fresh)[0] = 1.0;
  }
  t->ShrinkToFit();
  return t;
}

// Regression: with the exact ByteSize, the single-shard cache must still
// evict in precisely the legacy global-LRU order — the serial strategies
// rely on that order for reproducibility.
TEST(CacheEvictionOrderTest, ExactByteSizePreservesLegacyLruOrder) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    std::mt19937_64 rng(seed);
    // Tables of a few distinct sizes; budget fits a handful, forcing
    // constant eviction.
    const size_t unit = TableWithKeys(40, 4)->ByteSize();
    SubQueryCache cache(unit * 5, /*num_shards=*/1);
    LruModel model(unit * 5);
    constexpr int kKeySpace = 24;
    for (int op = 0; op < 600; ++op) {
      const std::string key =
          "k" + std::to_string(rng() % kKeySpace);
      switch (rng() % 4) {
        case 0:
        case 1: {
          const int32_t nkeys = 20 + static_cast<int32_t>(rng() % 3) * 40;
          auto table = TableWithKeys(nkeys, 4);
          EXPECT_EQ(cache.Add(key, table), model.Add(key, table->ByteSize()));
          break;
        }
        case 2:
          EXPECT_EQ(cache.Get(key) != nullptr, model.Get(key));
          break;
        default:
          cache.Remove(key);
          model.Remove(key);
      }
      ASSERT_EQ(cache.bytes_used(), model.used()) << "op " << op;
    }
    // The surviving entry sets are identical — same victims, same order.
    for (int i = 0; i < kKeySpace; ++i) {
      const std::string key = "k" + std::to_string(i);
      EXPECT_EQ(cache.Contains(key), model.Contains(key)) << key;
    }
    EXPECT_EQ(cache.stats().evictions, model.evictions());
    EXPECT_EQ(cache.NumEntries(),
              static_cast<int64_t>(model.entries().size()));
  }
}

}  // namespace
}  // namespace s4
