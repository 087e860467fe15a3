#ifndef S4_PERFBENCH_SPANS_H_
#define S4_PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace s4::perfbench {

using Clock = obs::Trace::Clock;

// Self time of every span sharing one (category, name): its duration minus
// the part of that interval its child spans cover.
struct SelfTime {
  int64_t count = 0;
  double total_seconds = 0.0;
  double self_seconds = 0.0;

  double MeanSelfMs() const {
    return count == 0 ? 0.0 : 1e3 * self_seconds / static_cast<double>(count);
  }
};

// Key "<category>/<name>", e.g. "service/queue". The benchmark records
// every span with the ladder rung it ran on as its category, so the same
// layer name can be a measured span on one rung and a child derived from
// a returned profile on another.
std::map<std::string, SelfTime> SelfTimes(
    const std::vector<obs::TraceSegment::Event>& events);

}  // namespace s4::perfbench

#endif  // S4_PERFBENCH_SPANS_H_
