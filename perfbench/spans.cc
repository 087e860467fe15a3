#include "spans.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace s4::perfbench {

std::map<std::string, SelfTime> SelfTimes(
    const std::vector<obs::TraceSegment::Event>& events) {
  using Event = obs::TraceSegment::Event;
  std::unordered_map<uint64_t, std::vector<const Event*>> children;
  for (const Event& e : events) {
    if (e.parent_id != 0) children[e.parent_id].push_back(&e);
  }
  std::map<std::string, SelfTime> out;
  for (const Event& e : events) {
    const int64_t start = e.ts_us;
    const int64_t end = e.ts_us + std::max<int64_t>(0, e.dur_us);
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> iv;
    if (auto it = children.find(e.span_id); it != children.end()) {
      for (const Event* c : it->second) {
        const int64_t lo = std::max(c->ts_us, start);
        const int64_t hi = std::min(c->ts_us + c->dur_us, end);
        if (hi > lo) iv.emplace_back(lo, hi);
      }
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;

    SelfTime& t = out[e.category + "/" + e.name];
    ++t.count;
    t.total_seconds += 1e-6 * static_cast<double>(end - start);
    t.self_seconds += 1e-6 * static_cast<double>(end - start - covered);
  }
  return out;
}

}  // namespace s4::perfbench
