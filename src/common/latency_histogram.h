#ifndef S4_COMMON_LATENCY_HISTOGRAM_H_
#define S4_COMMON_LATENCY_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace s4 {

// Lock-free latency histogram behind the metrics registry's distributions
// (obs::Histogram, e.g. s4_request_latency_seconds): geometric buckets
// spanning 1 microsecond .. ~1 hour (~3.9% relative width), each an
// atomic counter, so Record() from many request threads is one relaxed
// fetch_add and never serializes the hot path. Percentile queries read a
// relaxed snapshot — good enough for reporting (dashboards, the stats
// scrape), not for cross-thread invariants or benchmark percentiles.
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 576;

  LatencyHistogram() = default;

  // Not copyable (atomics); snapshot() gives a value type.
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(double seconds);

  // Plain-value copy of the counters for consistent multi-percentile
  // reporting.
  struct Snapshot {
    std::vector<int64_t> counts;  // kNumBuckets entries
    int64_t total = 0;
    double sum_seconds = 0.0;
    // Exact largest recorded sample (not bucket-quantized): tail reports
    // need the true max, which a ~3.9%-wide bucket midpoint would smear.
    double max_seconds = 0.0;

    // Latency at quantile q in [0, 1] (0.5 = median), as the geometric
    // midpoint of the bucket containing that rank; 0 when empty.
    double PercentileSeconds(double q) const;
    double MeanSeconds() const {
      return total == 0 ? 0.0 : sum_seconds / static_cast<double>(total);
    }
  };
  Snapshot snapshot() const;

  int64_t count() const { return total_.load(std::memory_order_relaxed); }

  // Lower bound of bucket `b` in seconds (exposed for tests).
  static double BucketLowerBound(int b);

 private:
  static int BucketIndex(double seconds);

  std::array<std::atomic<int64_t>, kNumBuckets> counts_{};
  std::atomic<int64_t> total_{0};
  // Sum / max in nanoseconds so the accumulators stay lock-free integers.
  std::atomic<int64_t> sum_nanos_{0};
  std::atomic<int64_t> max_nanos_{0};
};

}  // namespace s4

#endif  // S4_COMMON_LATENCY_HISTOGRAM_H_
