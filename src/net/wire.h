#ifndef S4_NET_WIRE_H_
#define S4_NET_WIRE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "live/mutation.h"
#include "net/protocol.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "s4/s4.h"
#include "strategy/strategy.h"

namespace s4::net {

// --- frame header ------------------------------------------------------

struct FrameHeader {
  uint8_t version = kProtocolVersion;
  FrameType type = FrameType::kPing;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
};

// Appends the 20-byte header for `h` to `out` (magic included).
void AppendFrameHeader(const FrameHeader& h, std::string* out);

// Parses a header from the first kHeaderBytes of `buf`. Returns
// InvalidArgument on short input, bad magic, or an unknown frame type;
// FailedPrecondition on a version mismatch (the caller can still answer,
// the framing is intact). `h` is filled as far as parsing got, so the
// version/request_id of a rejected header are available for the error
// reply.
Status DecodeFrameHeader(std::string_view buf, FrameHeader* h);

// Blocking read of one whole frame from `fd` within `timeout_seconds`
// (<= 0 = no deadline): the header is decoded and its payload_len
// checked against kDefaultMaxFrameBytes before the payload is allocated
// and read. The caller checks the request-id echo.
Status RecvFrame(int fd, double timeout_seconds, FrameHeader* h,
                 std::string* payload);

// --- messages ----------------------------------------------------------
//
// Each message payload is written down once, as a field list in wire
// order: the Fields overload after the struct. WireWriter and WireReader
// (below) encode and decode every message from its list, and wire_test
// derives its generators and bitwise comparisons from the same lists.
// Editing a list changes the bytes on the wire: bump kProtocolVersion and
// regenerate wire_test's golden bytes.
//
// A list calls f(m.<field>...) once per field, zipping any number of
// same-typed messages (one to encode or decode, two to compare). Field
// types, all little-endian:
//   bool                 one byte, strictly 0 or 1 (decode rejects others)
//   fixed-width ints     their width; double as raw IEEE-754 bits, so
//                        scores survive bit-exactly
//   std::string          u32 length + bytes
//   S4System::Strategy   one byte, the enum value
//   a nested message     its own field list, inline
//   Capped<kCap>(v)      u32 count + elements; encode writes at most kCap,
//                        decode rejects a count above kCap
//   Tail(has, value)     a has-flag, then `value` only when set (decode
//                        resets an absent `value` to its default)

// Overload tag naming the message a field list describes.
template <class T>
struct Msg {};

template <uint32_t kCap, class V>
struct WireVector {
  V& items;
};
template <uint32_t kCap, class V>
WireVector<kCap, V> Capped(V& items) {
  return {items};
}

template <class B, class T>
struct WireTail {
  B& has;
  T& value;
};
template <class B, class T>
WireTail<B, T> Tail(B& has, T& value) {
  return {has, value};
}

// The strategy byte is the enum value: reordering the enum would
// silently re-map every peer's strategy, so the numbering is pinned here.
static_assert(static_cast<int>(S4System::Strategy::kNaive) == 0 &&
              static_cast<int>(S4System::Strategy::kBaseline) == 1 &&
              static_cast<int>(S4System::Strategy::kFastTopK) == 2);

// A search request as it travels on the wire: raw spreadsheet cells plus
// the SearchOptions it runs under. Only the options' wire subset travels
// (see its field list); every other SearchOptions field (pool, stop
// token, shared cache, progress sink, ...) is service-side plumbing and
// arrives at its default. The deadline is options.deadline_seconds,
// armed server-side at frame arrival, so it covers queue wait but not
// client-side network time. Decode validates the options exactly as
// ValidateSearchOptions does, plus the wire caps (protocol.h).
struct NetSearchRequest {
  std::vector<std::vector<std::string>> cells;
  SearchOptions options;
  S4System::Strategy strategy = S4System::Strategy::kFastTopK;
  int32_t priority = 0;
  // Ask the server to attach its QueryProfile (timing envelope) to the
  // response.
  bool want_profile = false;
  // Exchange fields (DESIGN.md "Distributed serving"). A plain search is
  // slice 0 of 1 (options.shard_count/shard_index) with no partials; a
  // coordinator names the candidate-space slice this shard owns and a
  // partial cadence: the server streams a kShardPartial every
  // `partial_every` strategy progress snapshots before the final
  // kSearchResponse (0 = none).
  uint32_t partial_every = 0;
  // Trace context (DESIGN.md "Observability"): when want_trace is set
  // the server records a per-request trace tagged with the caller's
  // trace id and returns the completed segment on the response, where
  // the coordinator stitches it under `parent_span_id` (its scatter
  // span) using `origin_unix_us` — the coordinator trace's wall-clock
  // origin — to normalize the two machines' clocks.
  bool want_trace = false;
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  int64_t origin_unix_us = 0;

  // NOT on the wire: seconds the server spent decoding this frame,
  // recorded by the connection so the dispatcher can attach a
  // frame_decode span to the request's trace.
  double decode_seconds = 0.0;

  // Builds the wire request from cells + in-process SearchOptions.
  static NetSearchRequest From(std::vector<std::vector<std::string>> cells,
                               const SearchOptions& options,
                               S4System::Strategy strategy,
                               int32_t priority = 0);
};

// The enumeration options travel whole. A request cannot name more
// active columns than the wire lets a spreadsheet have.
template <class F, class... M>
void Fields(Msg<EnumerationOptions>, F&& f, M&&... m) {
  f(m.max_tree_size...);
  f(m.max_queries...);
  f(Capped<kMaxWireCols>(m.active_columns)...);
  f(m.or_semantics...);
  f(m.cost_aware_rooting...);
}

// After the cells, which the codec writes by hand (a rows x cols
// rectangle with its own caps).
template <class F, class... M>
void Fields(Msg<NetSearchRequest>, F&& f, M&&... m) {
  f(m.strategy...);
  f(m.priority...);
  f(m.options.deadline_seconds...);
  f(m.options.k...);
  f(m.options.score.alpha...);
  f(m.options.epsilon...);
  f(m.options.score.use_idf...);
  f(m.options.score.exact_match_bonus...);
  f(m.options.score.spelling_edits...);
  f(m.options.drop_zero_rows...);
  f(m.options.num_threads...);
  f(m.options.enumeration...);
  f(m.options.cache_budget_bytes...);
  f(m.options.approx_epsilon...);
  f(m.options.approx_confidence...);
  f(m.options.sample_budget...);
  f(m.options.rng_seed...);
  f(m.want_profile...);
  f(m.options.shard_count...);
  f(m.options.shard_index...);
  f(m.partial_every...);
  f(m.want_trace...);
  f(m.trace_id...);
  f(m.parent_span_id...);
  f(m.origin_unix_us...);
}

// One ranked answer on the wire. Scores travel as raw IEEE-754 bits, so
// a networked client sees bit-identical values to an in-process caller.
struct NetTopkEntry {
  std::string signature;  // canonical PJQuery identity
  std::string sql;        // rendered SELECT (display; identity is above)
  double score = 0.0;
  double upper_bound = 0.0;
  double row_score = 0.0;
  double column_score = 0.0;
  // Sampling-estimator provenance: whether this hit was resolved
  // approximately, and its score bracket. Exact hits travel the
  // degenerate [score, score] interval at confidence 1.
  bool approximate = false;
  ScoreInterval interval;
};

template <class F, class... M>
void Fields(Msg<ScoreInterval>, F&& f, M&&... m) {
  f(m.lo...);
  f(m.hi...);
  f(m.confidence...);
  f(m.support...);
  f(m.sampled...);
}

template <class F, class... M>
void Fields(Msg<NetTopkEntry>, F&& f, M&&... m) {
  f(m.signature...);
  f(m.sql...);
  f(m.score...);
  f(m.upper_bound...);
  f(m.row_score...);
  f(m.column_score...);
  f(m.approximate...);
  f(m.interval...);
}

// The counter record travels every schema field in list order, each in
// its declared type (obs/run_stats.h), so a new counter travels without
// a codec edit.
template <class F, class... M>
void Fields(Msg<RunStats>, F&& f, M&&... m) {
  ForEachStat([&f](const StatField&, auto&... v) { f(v...); }, m...);
}

template <class F, class... M>
void Fields(Msg<obs::QueryProfile>, F&& f, M&&... m) {
  f(m.total_seconds...);
  f(m.queue_seconds...);
}

template <class F, class... M>
void Fields(Msg<obs::TraceSegment::Arg>, F&& f, M&&... m) {
  f(m.key...);
  f(m.value...);
}

template <class F, class... M>
void Fields(Msg<obs::TraceSegment::Event>, F&& f, M&&... m) {
  f(m.category...);
  f(m.name...);
  f(m.ts_us...);
  f(m.dur_us...);
  f(m.tid...);
  f(m.span_id...);
  f(m.parent_id...);
  f(Capped<kMaxWireTraceArgs>(m.args)...);
}

// Bounded on the encode side too: a server with a pathologically chatty
// trace truncates to the cap instead of emitting a frame its own peer
// must reject.
template <class F, class... M>
void Fields(Msg<obs::TraceSegment>, F&& f, M&&... m) {
  f(m.origin_unix_us...);
  f(m.trace_id...);
  f(Capped<kMaxWireTraceEvents>(m.events)...);
}

struct NetSearchResponse {
  std::vector<NetTopkEntry> topk;
  bool interrupted = false;
  // True when any entry was resolved by the sampling estimator or the
  // run terminated under the epsilon-relaxed bound.
  bool approximate = false;

  // The server's whole per-search counter record, always present.
  RunStats stats;

  // Server-side wall time, frame arrival -> completion (includes queue
  // wait; excludes network transfer either way).
  double server_seconds = 0.0;

  // The timing envelope around `stats`, present only when the request
  // set want_profile (when absent `profile` keeps its defaults).
  bool has_profile = false;
  obs::QueryProfile profile;

  // The server's completed trace segment, present only when the request
  // set want_trace.
  bool has_segment = false;
  obs::TraceSegment segment;
};

template <class F, class... M>
void Fields(Msg<NetSearchResponse>, F&& f, M&&... m) {
  f(m.interrupted...);
  f(m.approximate...);
  f(Capped<kMaxWireTopk>(m.topk)...);
  f(m.stats...);
  f(m.server_seconds...);
  f(Tail(m.has_profile, m.profile)...);
  f(Tail(m.has_segment, m.segment)...);
}

struct NetError {
  uint8_t code = 0;
  bool retryable = false;
  std::string message;

  Status ToStatus() const { return StatusFromWire(code, message); }
};

template <class F, class... M>
void Fields(Msg<NetError>, F&& f, M&&... m) {
  f(m.code...);
  f(m.retryable...);
  f(m.message...);
}

// --- scatter-gather shard exchange -------------------------------------

// One streamed snapshot of a shard's in-flight search: its current
// top-k plus the upper bound of everything it has not yet evaluated
// (non-increasing over the exchange, so a stale value is always a safe
// overestimate for the coordinator's termination check).
struct NetShardPartial {
  std::vector<NetTopkEntry> topk;
  double remaining_upper_bound = 0.0;
  // The run's counter record so far. queries_enumerated is the slice
  // size, known from the first snapshot on, so the coordinator reports
  // exact coverage even for shards it early-stops (whose final
  // kSearchResponse never arrives).
  RunStats stats;
};

template <class F, class... M>
void Fields(Msg<NetShardPartial>, F&& f, M&&... m) {
  f(Capped<kMaxWireTopk>(m.topk)...);
  f(m.remaining_upper_bound...);
  f(m.stats...);
}

// --- live mutation write path ------------------------------------------

// A mutation batch as it travels on the wire. Operations reuse the
// in-process Mutation struct (tables/columns by name, rows by pk);
// values carry a one-byte kind tag (kWireValueNull/Int/Text). The layout
// depends on the op, so this one message is coded by hand.
struct NetMutateRequest {
  std::vector<Mutation> mutations;

  // NOT on the wire: decode time, recorded by the connection (same
  // convention as NetSearchRequest).
  double decode_seconds = 0.0;
};

// Mirrors MutationResult plus the server-side wall time.
struct NetMutateResponse {
  int64_t applied = 0;
  uint64_t epoch = 0;
  bool interrupted = false;
  std::string error;
  std::vector<int32_t> touched;  // TableIds, ascending
  double server_seconds = 0.0;
};

// Touched tables are capped like mutations: a batch cannot touch more
// relations than it has operations.
template <class F, class... M>
void Fields(Msg<NetMutateResponse>, F&& f, M&&... m) {
  f(m.applied...);
  f(m.epoch...);
  f(m.interrupted...);
  f(m.error...);
  f(Capped<kMaxWireMutations>(m.touched)...);
  f(m.server_seconds...);
}

// --- frame encode (header + payload in one buffer) ---------------------

std::string EncodeSearchRequestFrame(const NetSearchRequest& req,
                                     uint64_t request_id);
std::string EncodeSearchResponseFrame(const NetSearchResponse& resp,
                                      uint64_t request_id);
std::string EncodeErrorFrame(const Status& status, uint64_t request_id);
std::string EncodePingFrame(uint64_t request_id);
std::string EncodePongFrame(uint64_t request_id);
// Stats/trace surface: requests carry no payload except the trace
// target (the id of a *previously completed* search, in the payload —
// the header's request_id still identifies this exchange); responses
// carry raw text bytes (Prometheus dump / Chrome-trace JSON).
std::string EncodeStatsRequestFrame(uint64_t request_id);
std::string EncodeStatsResponseFrame(std::string_view text,
                                     uint64_t request_id);
std::string EncodeTraceRequestFrame(uint64_t target_request_id,
                                    uint64_t request_id);
std::string EncodeTraceResponseFrame(std::string_view json,
                                     uint64_t request_id);
// Shard exchange frames. The stop frame names the exchange to cancel in
// its payload (like the trace target) so it can travel on the same
// connection under its own header request_id.
std::string EncodeShardPartialFrame(const NetShardPartial& partial,
                                    uint64_t request_id);
std::string EncodeShardStopFrame(uint64_t target_request_id,
                                 uint64_t request_id);
std::string EncodeMutateRequestFrame(const NetMutateRequest& req,
                                     uint64_t request_id);
std::string EncodeMutateResponseFrame(const NetMutateResponse& resp,
                                      uint64_t request_id);
// Slow-query log fetch (v3): empty request payload, JSON text response
// (same raw-text convention as the stats/trace surface).
std::string EncodeSlowLogRequestFrame(uint64_t request_id);
std::string EncodeSlowLogResponseFrame(std::string_view json,
                                       uint64_t request_id);

// --- payload decode (bounds-checked; never reads past `payload`) -------

Status DecodeSearchRequest(std::string_view payload, NetSearchRequest* req);
Status DecodeSearchResponse(std::string_view payload,
                            NetSearchResponse* resp);
Status DecodeError(std::string_view payload, NetError* err);
Status DecodeTraceRequest(std::string_view payload,
                          uint64_t* target_request_id);
Status DecodeShardPartial(std::string_view payload, NetShardPartial* partial);
Status DecodeShardStop(std::string_view payload,
                       uint64_t* target_request_id);
Status DecodeMutateRequest(std::string_view payload, NetMutateRequest* req);
Status DecodeMutateResponse(std::string_view payload,
                            NetMutateResponse* resp);
// kSlowLogRequest carries no payload; decode just enforces emptiness.
Status DecodeSlowLogRequest(std::string_view payload);

// --- codec -------------------------------------------------------------
//
// One writer and one reader cover every field type a list may hold (see
// "messages" above); a message's encode and decode is its field list run
// through them. Both are exposed for tests and fuzzing.

// Sequential little-endian writer (appends to an owned buffer).
class WireWriter {
 public:
  template <class T>
  void Put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      PutLE(v ? 1 : 0, 1);
    } else if constexpr (std::is_same_v<T, S4System::Strategy>) {
      PutLE(static_cast<uint64_t>(v), 1);
    } else if constexpr (std::is_integral_v<T>) {
      PutLE(static_cast<uint64_t>(v), sizeof(T));
    } else if constexpr (std::is_same_v<T, double>) {
      PutLE(std::bit_cast<uint64_t>(v), 8);
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      const std::string_view bytes(v);
      Put(static_cast<uint32_t>(bytes.size()));
      buf_.append(bytes);
    } else {
      Fields(Msg<T>{}, *this, v);
    }
  }
  template <uint32_t kCap, class V>
  void Put(WireVector<kCap, V> v) {
    const auto n =
        static_cast<uint32_t>(std::min<size_t>(v.items.size(), kCap));
    Put(n);
    for (uint32_t i = 0; i < n; ++i) Put(v.items[i]);
  }
  template <class B, class T>
  void Put(WireTail<B, T> t) {
    Put(t.has);
    if (t.has) Put(t.value);
  }
  // Field-list visitor entry point.
  template <class T>
  void operator()(const T& v) {
    Put(v);
  }

  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  void PutLE(uint64_t v, size_t bytes) {
    for (size_t i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string buf_;
};

// Sequential little-endian reader over a payload. Every read is
// bounds-checked; the first failure sticks and makes every later read a
// no-op, so a decode is one pass over the field list followed by one
// Finish(). A string length is checked against the bytes left, and a
// vector count against its cap, before anything is allocated, so a
// hostile length never causes an oversized reserve.
class WireReader {
 public:
  // `what` names the payload in error messages.
  explicit WireReader(std::string_view data, const char* what = "frame")
      : data_(data), what_(what) {}

  template <class T>
  void Read(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      uint8_t b = 0;
      Read(b);
      if (b > 1) Reject("bool field byte is not 0 or 1");
      v = b == 1;
    } else if constexpr (std::is_same_v<T, S4System::Strategy>) {
      uint8_t b = 0;
      Read(b);
      if (b > static_cast<uint8_t>(S4System::Strategy::kFastTopK)) {
        Reject("unknown strategy");
      }
      v = static_cast<T>(b);
    } else if constexpr (std::is_integral_v<T>) {
      uint64_t u = 0;
      if (const char* p = Take(sizeof(T))) {
        for (size_t i = 0; i < sizeof(T); ++i) {
          u |= uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
        }
      }
      v = static_cast<T>(u);
    } else if constexpr (std::is_same_v<T, double>) {
      uint64_t u = 0;
      Read(u);
      v = std::bit_cast<double>(u);
    } else if constexpr (std::is_same_v<T, std::string>) {
      uint32_t len = 0;
      Read(len);
      if (const char* p = Take(len)) v.assign(p, len);
    } else {
      Fields(Msg<T>{}, *this, v);
    }
  }
  template <uint32_t kCap, class V>
  void Read(WireVector<kCap, V> v) {
    uint32_t n = 0;
    Read(n);
    if (n > kCap) Reject("count exceeds its wire limit");
    v.items.clear();
    if (!ok()) return;
    // Grown as elements arrive: a short payload fails on the element
    // reads long before a large count could cost memory.
    v.items.reserve(std::min<uint32_t>(n, 1024));
    for (uint32_t i = 0; i < n && ok(); ++i) Read(v.items.emplace_back());
  }
  template <class B, class T>
  void Read(WireTail<B, T> t) {
    Read(t.has);
    t.value = T{};
    if (t.has && ok()) Read(t.value);
  }
  // Field-list visitor entry point.
  template <class T>
  void operator()(T&& v) {
    Read(v);
  }

  // Records an InvalidArgument naming the payload (unless an earlier
  // failure already stuck).
  void Reject(const char* why);
  bool ok() const { return status_.ok(); }
  // The first failure, else InvalidArgument if bytes are left over.
  Status Finish() const;

 private:
  // The next n bytes, or nullptr (and a truncation failure) when fewer
  // remain.
  const char* Take(size_t n);

  std::string_view data_;
  size_t pos_ = 0;
  const char* what_;
  Status status_;
};

}  // namespace s4::net

#endif  // S4_NET_WIRE_H_
