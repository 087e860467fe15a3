#include "obs/run_stats.h"

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "obs/metrics.h"

namespace s4::obs {

void PublishRunStats(const RunStats& stats) {
  // One registry metric per schema field, resolved once (the registry
  // never moves them); publishing is then one striped add per field per
  // run, never per candidate, so the hot path stays free of shared-line
  // traffic.
  struct Sink {
    Counter* counter = nullptr;
    Histogram* histogram = nullptr;
    Gauge* gauge = nullptr;
  };
  static const std::vector<Sink> sinks = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    std::vector<Sink> out;
    ForEachStat([&](const StatField& f) {
      Sink s;
      switch (f.kind) {
        case StatKind::kCount:
          s.counter = &reg.GetCounter(f.metric);
          break;
        case StatKind::kSeconds:
          s.histogram = &reg.GetHistogram(f.metric);
          break;
        case StatKind::kPeak:
          s.gauge = &reg.GetGauge(f.metric);
          break;
      }
      out.push_back(s);
    });
    return out;
  }();
  size_t i = 0;
  ForEachStat(
      [&](const StatField& f, const auto& value) {
        const Sink& s = sinks[i++];
        switch (f.kind) {
          case StatKind::kCount:
            s.counter->Add(static_cast<int64_t>(value));
            break;
          case StatKind::kSeconds:
            s.histogram->Observe(static_cast<double>(value));
            break;
          case StatKind::kPeak:
            s.gauge->SetMax(static_cast<int64_t>(value));
            break;
        }
      },
      stats);
}

std::string RunStatsJson(const RunStats& stats) {
  std::string out = "{";
  ForEachStat(
      [&](const StatField& f, const auto& value) {
        char buf[128];
        if (f.kind == StatKind::kSeconds) {
          std::snprintf(buf, sizeof(buf), "\"%s\":%.9f", f.name,
                        static_cast<double>(value));
        } else {
          std::snprintf(buf, sizeof(buf), "\"%s\":%" PRId64, f.name,
                        static_cast<int64_t>(value));
        }
        if (out.size() > 1) out += ',';
        out += buf;
      },
      stats);
  out += '}';
  return out;
}

}  // namespace s4::obs
