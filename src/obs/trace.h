#ifndef S4_OBS_TRACE_H_
#define S4_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace s4::obs {

// One trace process's worth of completed events, detachable from the
// Trace that recorded it: the unit a shard ships back to the
// coordinator on its final kSearchResponse. `origin_unix_us` is the
// wall-clock time (microseconds since the Unix epoch) of the recording
// Trace's steady epoch, so the importer can normalize the two machines'
// clocks by shifting every timestamp by the origin delta. Plain data —
// tests fabricate segments with hand-picked origins to pin the stitch
// math.
struct TraceSegment {
  struct Arg {
    std::string key;
    std::string value;
  };
  struct Event {
    std::string category;
    std::string name;
    int64_t ts_us = 0;   // relative to the recording trace's epoch
    int64_t dur_us = 0;  // <0 for instant events
    uint32_t tid = 0;
    uint64_t span_id = 0;    // 0 = unassigned
    uint64_t parent_id = 0;  // 0 = root within the segment
    std::vector<Arg> args;
  };

  int64_t origin_unix_us = 0;
  uint64_t trace_id = 0;
  std::vector<Event> events;
};

// Per-search trace: an append-only list of timestamped spans recorded
// by whichever threads touch the request (event loop, service worker,
// eval pool). Recording takes a short mutex — acceptable because a
// trace is only attached when explicitly requested; the designed-for
// fast path is a null Trace*, which SpanTimer turns into a single
// pointer test (no clock read, no allocation).
class Trace {
 public:
  using Clock = std::chrono::steady_clock;
  using Arg = TraceSegment::Arg;

  explicit Trace(std::string name = "search");
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  void set_request_id(uint64_t id) { request_id_ = id; }
  uint64_t request_id() const { return request_id_; }
  const std::string& name() const { return name_; }

  // Fleet-wide trace identity, propagated to shards in the shard
  // search request so every segment of one distributed request carries
  // the same id. 0 (the default) means standalone.
  void set_trace_id(uint64_t id) { trace_id_ = id; }
  uint64_t trace_id() const { return trace_id_; }

  // Wall-clock instant (µs since the Unix epoch) of this trace's
  // steady-clock epoch — the cross-machine normalization anchor.
  int64_t origin_unix_us() const { return origin_unix_us_; }

  // Hands out process-unique span ids so a parent id can be known
  // before the span completes (the coordinator ships its scatter span
  // id to shards while the scatter is still open).
  uint64_t ReserveSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // Records a completed span (Chrome "X" event). `category` must be a
  // string literal (stored by pointer). `span_id` 0 auto-assigns;
  // `parent_id` 0 means top-level.
  void AddSpan(const char* category, std::string name,
               Clock::time_point start, Clock::time_point end,
               std::vector<Arg> args = {}, uint64_t span_id = 0,
               uint64_t parent_id = 0);

  // Records a zero-duration instant event (Chrome "i" event).
  void AddInstant(const char* category, std::string name,
                  std::vector<Arg> args = {});

  // Detaches a copy of everything recorded so far, tagged with this
  // trace's wall origin and trace id.
  TraceSegment ExportSegment() const;

  // Stitches a remote segment into this trace under process id `pid`
  // (`label` names it in the exported timeline; the local events are
  // pid 1). Every timestamp is shifted by the segments' wall-clock
  // origin delta so remote spans land on this trace's timeline; span
  // ids are remapped into a per-pid range, and segment-root events
  // (parent_id 0) are re-parented under `parent_span_id` — the
  // coordinator passes its scatter span so shard work nests correctly.
  void ImportSegment(const TraceSegment& segment, uint32_t pid,
                     std::string label, uint64_t parent_span_id);

  size_t NumSpans() const;
  // True if any recorded event's name equals `name` (test helper).
  bool HasSpan(const std::string& name) const;
  // Number of events imported under process id `pid` (test helper).
  size_t NumSpansForPid(uint32_t pid) const;

  // Chrome trace event format — {"traceEvents":[...]} — loadable in
  // Perfetto and chrome://tracing. Timestamps are normalized so the
  // earliest event starts at ts=0. Imported segments appear as their
  // own processes (process_name metadata from the import label); span
  // id / parent id travel in each event's args as "id" / "parent".
  std::string ToChromeJson() const;

 private:
  struct Event {
    std::string category;
    std::string name;
    int64_t ts_us;   // relative to epoch_ (may be negative; see export)
    int64_t dur_us;  // <0 for instant events
    uint32_t tid;
    uint32_t pid;
    uint64_t span_id;
    uint64_t parent_id;
    std::vector<Arg> args;
  };

  const std::string name_;
  const Clock::time_point epoch_;
  const int64_t origin_unix_us_;
  uint64_t request_id_ = 0;
  uint64_t trace_id_ = 0;
  std::atomic<uint64_t> next_span_id_{1};

  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::map<uint32_t, std::string> pid_labels_;
};

// RAII span: times the enclosing scope and records it into `trace` on
// destruction. With a null trace every member function is a single
// branch — no clock read, no string, no lock. With a live trace the
// span's id is reserved up front so it can parent other work (local or
// remote) before the span closes.
class SpanTimer {
 public:
  SpanTimer(Trace* trace, const char* category, const char* name)
      : trace_(trace), category_(category), name_(name) {
    if (trace_ != nullptr) {
      start_ = Trace::Clock::now();
      span_id_ = trace_->ReserveSpanId();
    }
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  ~SpanTimer() {
    if (trace_ != nullptr) {
      trace_->AddSpan(category_, name_, start_, Trace::Clock::now(),
                      std::move(args_), span_id_, parent_id_);
    }
  }

  bool enabled() const { return trace_ != nullptr; }

  // The reserved span id (0 when disabled), valid from construction.
  uint64_t span_id() const { return span_id_; }
  void set_parent(uint64_t parent_id) { parent_id_ = parent_id; }

  // Attach a key/value to the span; callers should build `value` only
  // when enabled() to keep the disabled path allocation-free.
  void AddArg(std::string key, std::string value) {
    if (trace_ != nullptr) {
      args_.push_back({std::move(key), std::move(value)});
    }
  }

 private:
  Trace* const trace_;
  const char* const category_;
  const char* const name_;
  Trace::Clock::time_point start_{};
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
  std::vector<Trace::Arg> args_;
};

}  // namespace s4::obs

#endif  // S4_OBS_TRACE_H_
