// Sub-PJ query cache: LRU replacement, budget enforcement, pinning,
// byte accounting, and sharded concurrent access.
#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/subquery_cache.h"

namespace s4 {
namespace {

std::shared_ptr<SubQueryTable> MakeTable(int32_t keys, int32_t es_rows = 3) {
  auto t = std::make_shared<SubQueryTable>(keys, es_rows);
  bool fresh = false;
  for (int32_t i = 0; i < keys; ++i) {
    double* row = t->UpsertScored(i, &fresh);
    for (int32_t e = 0; e < es_rows; ++e) row[e] = 1.0;
  }
  return t;
}

TEST(SubQueryTableTest, FindSemantics) {
  SubQueryTable t(/*domain_rows=*/4, /*es_rows=*/2);
  bool fresh = false;
  t.UpsertScored(1, &fresh)[0] = 1.0;
  EXPECT_TRUE(fresh);
  EXPECT_TRUE(t.InsertZero(2));
  EXPECT_FALSE(t.InsertZero(2));  // already present
  bool exists = false;
  const double* row = t.Find(1, &exists);
  ASSERT_NE(row, nullptr);
  EXPECT_TRUE(exists);
  EXPECT_DOUBLE_EQ(row[0], 1.0);
  EXPECT_DOUBLE_EQ(row[1], 0.0);  // fresh rows are zero-filled
  EXPECT_EQ(t.Find(2, &exists), nullptr);
  EXPECT_TRUE(exists);
  EXPECT_EQ(t.Find(3, &exists), nullptr);
  EXPECT_FALSE(exists);
  EXPECT_EQ(t.NumKeys(), 2);
  EXPECT_EQ(t.NumScored(), 1);
  EXPECT_EQ(t.NumZero(), 1);
  EXPECT_GT(t.ByteSize(), 0u);
}

TEST(SubQueryTableTest, ZeroKeyPromotion) {
  SubQueryTable t(/*domain_rows=*/8, /*es_rows=*/2);
  EXPECT_TRUE(t.InsertZero(7));
  bool fresh = false;
  double* row = t.UpsertScored(7, &fresh);  // promote zero -> scored
  EXPECT_TRUE(fresh);
  row[1] = 3.5;
  EXPECT_FALSE(t.InsertZero(7));  // scored keys are never demoted
  bool exists = false;
  const double* found = t.Find(7, &exists);
  ASSERT_NE(found, nullptr);
  EXPECT_TRUE(exists);
  EXPECT_DOUBLE_EQ(found[1], 3.5);
  EXPECT_EQ(t.NumKeys(), 1);
  EXPECT_EQ(t.NumScored(), 1);
}

TEST(SubQueryCacheTest, AddGetRemove) {
  SubQueryCache cache(1u << 20);
  auto t = MakeTable(10);
  EXPECT_TRUE(cache.Add("k1", t));
  EXPECT_TRUE(cache.Contains("k1"));
  EXPECT_NE(cache.Get("k1"), nullptr);
  EXPECT_EQ(cache.Get("k2"), nullptr);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  cache.Remove("k1");
  EXPECT_FALSE(cache.Contains("k1"));
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(SubQueryCacheTest, BudgetRejectsOversized) {
  auto t = MakeTable(100);
  SubQueryCache cache(t->ByteSize() / 2);
  EXPECT_FALSE(cache.Add("big", t));
  EXPECT_EQ(cache.stats().rejected_too_large, 1);
  EXPECT_EQ(cache.NumEntries(), 0);
}

TEST(SubQueryCacheTest, LruEviction) {
  auto t = MakeTable(50);
  const size_t each = t->ByteSize();
  SubQueryCache cache(each * 2 + each / 2);  // fits two entries
  EXPECT_TRUE(cache.Add("a", MakeTable(50)));
  EXPECT_TRUE(cache.Add("b", MakeTable(50)));
  // Touch "a" so "b" is the LRU victim.
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_TRUE(cache.Add("c", MakeTable(50)));
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("c"));
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(SubQueryCacheTest, PinnedEntriesSurviveEviction) {
  auto probe = MakeTable(50);
  const size_t each = probe->ByteSize();
  SubQueryCache cache(each * 2 + each / 2);
  EXPECT_TRUE(cache.Add("pinned", MakeTable(50), /*pinned=*/true));
  EXPECT_TRUE(cache.Add("b", MakeTable(50)));
  EXPECT_TRUE(cache.Add("c", MakeTable(50)));  // evicts b, not pinned
  EXPECT_TRUE(cache.Contains("pinned"));
  EXPECT_FALSE(cache.Contains("b"));

  // With everything pinned, a new Add fails rather than evicting.
  SubQueryCache cache2(each + each / 2);
  EXPECT_TRUE(cache2.Add("p1", MakeTable(50), /*pinned=*/true));
  EXPECT_FALSE(cache2.Add("x", MakeTable(50)));
  cache2.Unpin("p1");
  EXPECT_TRUE(cache2.Add("x", MakeTable(50)));
  EXPECT_FALSE(cache2.Contains("p1"));
}

TEST(SubQueryCacheTest, ReinsertReplaces) {
  SubQueryCache cache(1u << 20);
  EXPECT_TRUE(cache.Add("k", MakeTable(10)));
  const size_t before = cache.bytes_used();
  EXPECT_TRUE(cache.Add("k", MakeTable(20)));
  EXPECT_EQ(cache.NumEntries(), 1);
  EXPECT_GT(cache.bytes_used(), before);
}

TEST(SubQueryCacheTest, ClearResetsBytes) {
  SubQueryCache cache(1u << 20);
  cache.Add("a", MakeTable(5));
  cache.Add("b", MakeTable(5));
  cache.Clear();
  EXPECT_EQ(cache.NumEntries(), 0);
  EXPECT_EQ(cache.bytes_used(), 0u);
  EXPECT_GT(cache.stats().peak_bytes, 0u);
}

TEST(SubQueryCacheTest, SharedPtrSurvivesEviction) {
  auto t = MakeTable(50);
  const size_t each = t->ByteSize();
  SubQueryCache cache(each + each / 2);
  cache.Add("a", t);
  std::shared_ptr<const SubQueryTable> held = cache.Get("a");
  cache.Add("b", MakeTable(50));  // evicts "a"
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->NumScored(), 50);  // still usable
}

// ByteSize() is exact: 4 bytes per domain row plus the arena
// allocation, nothing estimated.
TEST(SubQueryTableTest, ByteSizeIsExact) {
  auto t = MakeTable(200, /*es_rows=*/5);
  EXPECT_EQ(t->ByteSize(), sizeof(SubQueryTable) + 200 * sizeof(uint32_t) +
                               t->arena.capacity() * sizeof(double));

  // A sparse table is charged its whole domain, joined or not.
  SubQueryTable sparse(/*domain_rows=*/4096, /*es_rows=*/3);
  bool fresh = false;
  sparse.UpsertScored(1, &fresh);
  sparse.ShrinkToFit();
  EXPECT_EQ(sparse.ByteSize(), sizeof(SubQueryTable) +
                                   4096 * sizeof(uint32_t) +
                                   3 * sizeof(double));
}

TEST(SubQueryCacheTest, BudgetHonoredWithCapacityOverhead) {
  // A sparse table must be charged for its whole domain's slots: a
  // budget sized to its joined keys alone has to reject it.
  auto sparse = std::make_shared<SubQueryTable>(1 << 16, 3);
  bool fresh = false;
  for (int32_t i = 0; i < 4; ++i) {
    double* row = sparse->UpsertScored(i, &fresh);
    row[0] = 1.0;
  }
  const size_t payload_only =
      sizeof(SubQueryTable) +
      sparse->NumScored() * (sizeof(uint32_t) + 3 * sizeof(double));
  SubQueryCache cache(payload_only * 2);
  EXPECT_FALSE(cache.Add("sparse", sparse));
  EXPECT_EQ(cache.stats().rejected_too_large, 1);
}

TEST(ShardedCacheTest, ShardsForThreads) {
  EXPECT_EQ(SubQueryCache::ShardsForThreads(0), 1);
  EXPECT_EQ(SubQueryCache::ShardsForThreads(1), 1);
  EXPECT_GT(SubQueryCache::ShardsForThreads(4), 1);
  EXPECT_LE(SubQueryCache::ShardsForThreads(1024), 64);
}

// num_threads can arrive from the wire at any int32 value: the shard
// count saturates at 64 instead of overflowing num_threads * 4.
TEST(SubQueryCacheTest, ShardsForThreadsSaturates) {
  EXPECT_EQ(SubQueryCache::ShardsForThreads(1), 1);
  EXPECT_EQ(SubQueryCache::ShardsForThreads(2), 8);
  EXPECT_EQ(SubQueryCache::ShardsForThreads(16), 64);
  EXPECT_EQ(SubQueryCache::ShardsForThreads(
                std::numeric_limits<int32_t>::max()),
            64);
}

TEST(ShardedCacheTest, BasicOpsAcrossShards) {
  SubQueryCache cache(8u << 20, /*num_shards=*/8);
  EXPECT_EQ(cache.num_shards(), 8);
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(cache.Add("key" + std::to_string(i), MakeTable(5)));
  }
  EXPECT_EQ(cache.NumEntries(), 64);
  for (int i = 0; i < 64; ++i) {
    EXPECT_NE(cache.Get("key" + std::to_string(i)), nullptr);
  }
  EXPECT_EQ(cache.stats().hits, 64);
  EXPECT_EQ(cache.stats().insertions, 64);
  cache.Remove("key0");
  EXPECT_FALSE(cache.Contains("key0"));
  EXPECT_EQ(cache.NumEntries(), 63);
  cache.Clear();
  EXPECT_EQ(cache.NumEntries(), 0);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ShardedCacheTest, PinnedSurvivesCrossShardPressure) {
  auto probe = MakeTable(50);
  const size_t each = probe->ByteSize();
  SubQueryCache cache(each * 3 + each / 2, /*num_shards=*/8);
  EXPECT_TRUE(cache.Add("pinned", MakeTable(50), /*pinned=*/true));
  // Overflow the global budget from many shards; the pinned entry must
  // never be the victim.
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(cache.Add("filler" + std::to_string(i), MakeTable(50)));
  }
  EXPECT_TRUE(cache.Contains("pinned"));
  EXPECT_LE(cache.bytes_used(), cache.budget());
  EXPECT_GT(cache.stats().evictions, 0);
}

TEST(ShardedCacheTest, ConcurrentSameKeyAddKeepsOneEntry) {
  SubQueryCache cache(8u << 20, /*num_shards=*/8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache] {
      for (int i = 0; i < 50; ++i) {
        cache.Add("same-key", MakeTable(10));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.NumEntries(), 1);
  EXPECT_EQ(cache.bytes_used(), MakeTable(10)->ByteSize());
  ASSERT_NE(cache.Get("same-key"), nullptr);
}

TEST(SubQueryCacheTest, ConcurrentStatsSnapshotIsRaceFree) {
  // Regression test for the stats() aggregation path: shard counters
  // must be read under the shard mutex, never bare. Run under tsan this
  // catches any unsynchronized read; under plain builds it checks that
  // concurrent snapshots stay monotone and end exact.
  SubQueryCache cache(1 << 20, /*num_shards=*/4);
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 2000;
  std::atomic<bool> done{false};

  std::vector<std::thread> threads;
  std::atomic<int64_t> snapshots_taken{0};
  threads.emplace_back([&cache, &done, &snapshots_taken] {
    int64_t last_probes = 0;
    while (!done.load(std::memory_order_acquire)) {
      const CacheStats s = cache.stats();
      const int64_t probes = s.hits + s.misses;
      // Counters only ever increase; a torn read would show a decrease.
      EXPECT_GE(probes, last_probes);
      EXPECT_GE(s.insertions, 0);
      last_probes = probes;
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const std::string key =
            "k" + std::to_string(t) + "_" + std::to_string(i % 64);
        if (cache.Get(key) == nullptr) {
          cache.Add(key, MakeTable(4));
        }
      }
    });
  }
  for (size_t t = 1; t < threads.size(); ++t) threads[t].join();
  done.store(true, std::memory_order_release);
  threads[0].join();

  EXPECT_GT(snapshots_taken.load(), 0);
  const CacheStats final_stats = cache.stats();
  // Quiescent totals are exact: every Get recorded a hit or a miss.
  EXPECT_EQ(final_stats.hits + final_stats.misses,
            kWriters * kOpsPerWriter);
  EXPECT_EQ(final_stats.insertions, final_stats.misses);
}

TEST(ShardedCacheTest, ConcurrentHammerStaysWithinBudget) {
  // 8 threads hammer a small cache with mixed Add/Get/Remove across a
  // shared key space, forcing constant cross-shard eviction.
  auto probe = MakeTable(20);
  const size_t budget = probe->ByteSize() * 12;
  SubQueryCache cache(budget, /*num_shards=*/8);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  constexpr int kKeySpace = 48;
  std::atomic<int64_t> gets{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key =
            "k" + std::to_string((t * 31 + i * 7) % kKeySpace);
        switch (i % 4) {
          case 0:
          case 1:
            cache.Add(key, MakeTable(20));
            break;
          case 2: {
            cache.Get(key);
            gets.fetch_add(1);
            break;
          }
          default:
            if (i % 16 == 3) {
              cache.Remove(key);
            } else {
              cache.Contains(key);
            }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Quiescent invariants: the budget held, byte accounting balances,
  // and the shard-local stats add up.
  EXPECT_LE(cache.bytes_used(), budget);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, gets.load());
  EXPECT_GT(stats.evictions, 0);
  EXPECT_GE(stats.peak_bytes, cache.bytes_used());
  size_t recount = 0;
  for (int i = 0; i < kKeySpace; ++i) {
    auto table = cache.Get("k" + std::to_string(i));
    if (table != nullptr) recount += table->ByteSize();
  }
  EXPECT_EQ(recount, cache.bytes_used());
}

}  // namespace
}  // namespace s4
