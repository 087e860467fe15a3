#include "common/latency_histogram.h"

#include <algorithm>
#include <cmath>

namespace s4 {

namespace {

// Bucket b covers [kMinSeconds * kGrowth^b, kMinSeconds * kGrowth^(b+1)).
// With kGrowth ~ 1.039 and 576 buckets the range is 1us .. ~3900s and the
// quantile error is under 2%.
constexpr double kMinSeconds = 1e-6;
constexpr double kGrowth = 1.039;
const double kLogGrowth = std::log(kGrowth);

}  // namespace

int LatencyHistogram::BucketIndex(double seconds) {
  if (!(seconds > kMinSeconds)) return 0;
  const int b = static_cast<int>(std::log(seconds / kMinSeconds) / kLogGrowth);
  return std::min(b, kNumBuckets - 1);
}

double LatencyHistogram::BucketLowerBound(int b) {
  return kMinSeconds * std::pow(kGrowth, static_cast<double>(b));
}

void LatencyHistogram::Record(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  counts_[BucketIndex(seconds)].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  const int64_t nanos = static_cast<int64_t>(seconds * 1e9);
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  int64_t seen = max_nanos_.load(std::memory_order_relaxed);
  while (nanos > seen &&
         !max_nanos_.compare_exchange_weak(seen, nanos,
                                           std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot s;
  s.counts.resize(kNumBuckets);
  for (int b = 0; b < kNumBuckets; ++b) {
    s.counts[b] = counts_[b].load(std::memory_order_relaxed);
    s.total += s.counts[b];
  }
  s.sum_seconds =
      static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  s.max_seconds =
      static_cast<double>(max_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  return s;
}

double LatencyHistogram::Snapshot::PercentileSeconds(double q) const {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile among `total` ordered samples (1-based).
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(total))));
  int64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    seen += counts[b];
    if (seen >= rank) {
      return LatencyHistogram::BucketLowerBound(b) * std::sqrt(kGrowth);
    }
  }
  return LatencyHistogram::BucketLowerBound(kNumBuckets - 1);
}

}  // namespace s4
