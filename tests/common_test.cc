// Common substrate tests: Status/StatusOr, string utils, RNG, top-k
// heap, table printer.
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash_util.h"
#include "common/latency_histogram.h"
#include "common/stop_token.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/topk_heap.h"

namespace s4 {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  Status s = Status::NotFound("thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: thing");
  EXPECT_EQ(s, Status::NotFound("thing"));
  EXPECT_FALSE(s == Status::NotFound("other"));
}

Status Fails() { return Status::Internal("boom"); }
Status Propagates() {
  S4_RETURN_IF_ERROR(Fails());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_EQ(Propagates().code(), StatusCode::kInternal);
}

TEST(StatusOrTest, ValueAndError) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  StatusOr<int> e = Status::OutOfRange("x");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kOutOfRange);

  StatusOr<std::string> s = std::string("hi");
  EXPECT_EQ(s->size(), 2u);
  std::string moved = std::move(s).value();
  EXPECT_EQ(moved, "hi");
}

TEST(StringUtilTest, Basics) {
  EXPECT_EQ(ToLowerAscii("AbC1"), "abc1");
  EXPECT_EQ(SplitAndTrim("a, b ,,c", ","),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Join({"a", "b"}, "-"), "a-b");
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_TRUE(IsAlphaNumeric("abc123"));
  EXPECT_FALSE(IsAlphaNumeric("a b"));
  EXPECT_FALSE(IsAlphaNumeric(""));
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
}

TEST(HashUtilTest, Fingerprint) {
  EXPECT_EQ(FingerprintString("abc"), FingerprintString("abc"));
  EXPECT_NE(FingerprintString("abc"), FingerprintString("abd"));
  uint64_t seed = 1;
  HashCombine(seed, 42);
  EXPECT_NE(seed, 1u);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(124);
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(7), 7u);
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(ZipfSamplerTest, HeadHeavierThanTail) {
  Rng rng(7);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[50] * 2);
  EXPECT_GT(counts[0], 0);
}

TEST(TopKHeapTest, KeepsHighest) {
  TopKHeap<std::string> heap(2);
  heap.Offer(1.0, "a");
  heap.Offer(3.0, "b");
  heap.Offer(2.0, "c");
  EXPECT_TRUE(heap.Full());
  EXPECT_DOUBLE_EQ(heap.KthScore(), 2.0);
  auto sorted = heap.TakeSortedDescending();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].second, "b");
  EXPECT_EQ(sorted[1].second, "c");
}

TEST(TopKHeapTest, TieBreakByInsertionOrder) {
  TopKHeap<int> heap(2);
  heap.Offer(1.0, 1);
  heap.Offer(1.0, 2);
  heap.Offer(1.0, 3);  // tie: earlier entries win
  auto sorted = heap.TakeSortedDescending();
  EXPECT_EQ(sorted[0].second, 1);
  EXPECT_EQ(sorted[1].second, 2);
}

TEST(TopKHeapTest, TieBreakByCanonicalKey) {
  // With keys, boundary ties resolve by key ascending regardless of
  // offer order — the total order the distributed merge relies on.
  TopKHeap<int> heap(2);
  heap.Offer(1.0, 1, "zz");
  heap.Offer(1.0, 2, "mm");
  heap.Offer(1.0, 3, "aa");  // later offer, smaller key: displaces "zz"
  auto sorted = heap.TakeSortedDescending();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].second, 3);
  EXPECT_EQ(sorted[1].second, 2);
}

TEST(TopKHeapTest, KthScoreBeforeFull) {
  TopKHeap<int> heap(3);
  heap.Offer(5.0, 1);
  EXPECT_FALSE(heap.Full());
  EXPECT_LT(heap.KthScore(), -1e100);
}

TEST(TopKHeapTest, ZeroK) {
  TopKHeap<int> heap(0);
  heap.Offer(1.0, 1);
  EXPECT_EQ(heap.TakeSortedDescending().size(), 0u);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter tp({"name", "value"});
  tp.AddRow({"x", TablePrinter::Num(1.5)});
  tp.AddRow({"longer", TablePrinter::Int(42)});
  std::string s = tp.ToString();
  EXPECT_NE(s.find("| name   |"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  // Short rows are padded.
  TablePrinter tp2({"a", "b"});
  tp2.AddRow({"only"});
  EXPECT_NE(tp2.ToString().find("only"), std::string::npos);
}

TEST(StopTokenTest, CancelAndDeadline) {
  StopToken t;
  EXPECT_FALSE(t.ShouldStop());
  t.Cancel();
  EXPECT_TRUE(t.cancelled());
  EXPECT_TRUE(t.ShouldStop());

  StopToken expired(-1.0);
  EXPECT_TRUE(expired.deadline_expired());
  EXPECT_FALSE(expired.cancelled());

  StopToken future(3600.0);
  EXPECT_FALSE(future.ShouldStop());
}

TEST(StopTokenTest, HugeDeadlineNeverExpires) {
  // Past the clock's range (about 9.2e9 s of nanoseconds) a deadline
  // cannot be represented; it must mean "never", not wrap into the past.
  for (double seconds :
       {1e10, 1e300, std::numeric_limits<double>::infinity()}) {
    StopToken t(seconds);
    EXPECT_FALSE(t.deadline_expired()) << seconds;
    EXPECT_FALSE(t.ShouldStop()) << seconds;
  }
  StopToken tiny(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(tiny.deadline_expired());
}

TEST(LatencyHistogramTest, EmptySnapshot) {
  LatencyHistogram h;
  LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.total, 0);
  EXPECT_EQ(s.PercentileSeconds(0.5), 0.0);
  EXPECT_EQ(s.MeanSeconds(), 0.0);
}

TEST(LatencyHistogramTest, PercentilesWithinBucketResolution) {
  LatencyHistogram h;
  // 100 samples at 1 ms, 10 at 100 ms: p50 is in the 1 ms bucket, p99
  // in the 100 ms bucket. Geometric buckets grow by 3.9%, so an answer
  // within 5% of the true value proves the sample landed in the right
  // bucket.
  for (int i = 0; i < 100; ++i) h.Record(1e-3);
  for (int i = 0; i < 10; ++i) h.Record(0.1);
  LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.total, 110);
  EXPECT_NEAR(s.PercentileSeconds(0.50), 1e-3, 5e-5);
  EXPECT_NEAR(s.PercentileSeconds(0.99), 0.1, 5e-3);
  EXPECT_NEAR(s.MeanSeconds(), (100 * 1e-3 + 10 * 0.1) / 110.0, 1e-12);
}

TEST(LatencyHistogramTest, ExtremesClampToEdgeBuckets) {
  LatencyHistogram h;
  h.Record(0.0);     // below the first bucket
  h.Record(-1.0);    // negative clamps too
  h.Record(1e12);    // far beyond the last bucket
  LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.total, 3);
  EXPECT_GT(s.PercentileSeconds(1.0), 0.0);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllCounted) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(1e-5 * static_cast<double>(t + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
}

TEST(LatencyHistogramTest, HighQuantileOnTinySample) {
  // p99.9 of a 3-sample histogram must return the largest bucket, not
  // read past the counts or interpolate into emptiness.
  LatencyHistogram h;
  h.Record(1e-3);
  h.Record(2e-3);
  h.Record(8e-3);
  LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_NEAR(s.PercentileSeconds(0.999), 8e-3, 4e-4);
  EXPECT_NEAR(s.PercentileSeconds(1.0), 8e-3, 4e-4);
  // A single sample: every quantile is that sample's bucket.
  LatencyHistogram one;
  one.Record(3e-3);
  LatencyHistogram::Snapshot os = one.snapshot();
  EXPECT_NEAR(os.PercentileSeconds(0.001), 3e-3, 2e-4);
  EXPECT_NEAR(os.PercentileSeconds(0.999), 3e-3, 2e-4);
}

}  // namespace
}  // namespace s4
