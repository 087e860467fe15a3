#ifndef S4_OBS_METRICS_H_
#define S4_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/latency_histogram.h"

namespace s4::obs {

// Stable small index for the calling thread, assigned once per thread
// from a process-wide sequence. Used to pick a counter stripe and as
// the `tid` of trace events.
uint32_t ThreadIndex();

// Minimal JSON string escaping (quotes, backslashes, control chars) for
// the snapshot and trace serializers.
std::string JsonEscape(const std::string& s);

// Monotonic counter, striped across cache lines so concurrent Add()
// from many threads is one relaxed fetch_add with no shared-line
// ping-pong. Value() folds the stripes; like the cache stats, readers
// get a momentarily-consistent sum, never a torn value.
class Counter {
 public:
  static constexpr uint32_t kStripes = 16;  // power of two

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(int64_t delta) {
    slots_[ThreadIndex() & (kStripes - 1)].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  int64_t Value() const {
    int64_t sum = 0;
    for (const Slot& s : slots_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<int64_t> v{0};
  };
  std::array<Slot, kStripes> slots_{};
};

// Last-writer-wins instantaneous value (queue depth, open sessions,
// bytes in cache). Single atomic: gauges are written at bounded rates
// (admission, connection churn), not per-candidate.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) { v_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  // Raises the value to `value` if it is higher (a high-water mark).
  void SetMax(int64_t value) {
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < value &&
           !v_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Distribution metric on top of the lock-free LatencyHistogram.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double seconds) { h_.Record(seconds); }
  LatencyHistogram::Snapshot Snapshot() const { return h_.snapshot(); }

 private:
  LatencyHistogram h_;
};

// Point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Kind kind = Kind::kCounter;
    int64_t value = 0;                     // counters and gauges
    LatencyHistogram::Snapshot histogram;  // histograms only
  };
  std::vector<Entry> entries;

  const Entry* Find(const std::string& name) const;
  // Counter/gauge value by name; 0 when absent.
  int64_t Value(const std::string& name) const;

  // Prometheus text exposition: `# TYPE` line plus one sample per
  // counter/gauge; histograms export summary quantiles (0.5/0.95/0.99/
  // 0.999) and _count/_sum/_max samples, all in seconds.
  std::string ToPrometheusText() const;
  // {"metrics":[{"name":...,"kind":...,"value":...},...]} — histograms
  // carry count/sum/max/p50/p99 instead of a single value.
  std::string ToJson() const;
};

// Process-wide registry. Metric objects are created on first use and
// never destroyed or moved, so callers may cache the returned
// references and hit them lock-free; the registry mutex guards only
// registration and Snapshot().
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace s4::obs

#endif  // S4_OBS_METRICS_H_
