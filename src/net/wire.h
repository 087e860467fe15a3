#ifndef S4_NET_WIRE_H_
#define S4_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
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

// A search request as it travels on the wire: raw spreadsheet cells plus
// the SearchOptions subset a remote caller may set. Everything else
// (pool, stop token, shared cache) is service-side plumbing that never
// crosses the network.
struct NetSearchRequest {
  std::vector<std::vector<std::string>> cells;
  uint8_t strategy = kWireStrategyFastTopK;
  int32_t priority = 0;
  // Armed server-side at frame arrival, so it covers queue wait but not
  // client-side network time.
  double deadline_seconds = 0.0;

  int32_t k = 10;
  double alpha = 0.8;
  double epsilon = 0.6;
  bool use_idf = false;
  double exact_match_bonus = 0.0;
  int32_t spelling_edits = 0;
  bool drop_zero_rows = false;
  int32_t num_threads = 0;
  int32_t max_tree_size = 5;
  uint64_t cache_budget_bytes = 500u << 20;
  // Anytime approximate search knobs (v2 fields; SearchOptions mirror).
  // Decode enforces the same invariants as ValidateSearchOptions, so a
  // hostile frame cannot smuggle NaN/negative knobs past the boundary.
  double approx_epsilon = 0.0;
  double approx_confidence = 0.95;
  int64_t sample_budget = 4096;
  uint64_t rng_seed = 0x5344534453445344ULL;
  // v3: ask the server to attach its QueryProfile (timing envelope) to
  // the response.
  bool want_profile = false;
  // v5 exchange fields (DESIGN.md "Distributed serving"). A plain search
  // is slice 0 of 1 with no partials; a coordinator names the
  // candidate-space slice this shard owns and a partial cadence: the
  // server streams a kShardPartial every `partial_every` strategy
  // progress snapshots before the final kSearchResponse (0 = none).
  int32_t shard_count = 1;
  int32_t shard_index = 0;
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
                               int32_t priority = 0,
                               double deadline_seconds = 0.0);
  // Expands the wire subset back into SearchOptions (fields not on the
  // wire keep their defaults).
  SearchOptions ToSearchOptions() const;
  S4System::Strategy ToStrategy() const;
};

// One ranked answer on the wire. Scores travel as raw IEEE-754 bits, so
// a networked client sees bit-identical values to an in-process caller.
struct NetTopkEntry {
  std::string signature;  // canonical PJQuery identity
  std::string sql;        // rendered SELECT (display; identity is above)
  double score = 0.0;
  double upper_bound = 0.0;
  double row_score = 0.0;
  double column_score = 0.0;
  // Sampling-estimator provenance (v2 fields): the score bracket and
  // whether this hit was resolved approximately. Exact hits travel the
  // degenerate [score, score] interval at confidence 1.
  bool approximate = false;
  double interval_lo = 0.0;
  double interval_hi = 0.0;
  double interval_confidence = 1.0;
  int64_t support = 0;
  int64_t sampled = 0;
};

struct NetSearchResponse {
  std::vector<NetTopkEntry> topk;
  bool interrupted = false;
  // True when any entry was resolved by the sampling estimator or the
  // run terminated under the epsilon-relaxed bound (v2 field).
  bool approximate = false;

  // The server's whole per-search counter record, every schema field
  // (obs/run_stats.h), always present.
  RunStats stats;

  // Server-side wall time, frame arrival -> completion (includes queue
  // wait; excludes network transfer either way).
  double server_seconds = 0.0;

  // The timing envelope around `stats`, present only when the request
  // set want_profile (an optional tail section gated by a has-flag on
  // the wire; when absent `profile` keeps its defaults).
  bool has_profile = false;
  obs::QueryProfile profile;

  // The server's completed trace segment, present only when the request
  // set want_trace (a second has-flag tail). Bounded at encode *and*
  // decode by kMaxWireTraceEvents / kMaxWireTraceArgs.
  bool has_segment = false;
  obs::TraceSegment segment;
};

struct NetError {
  uint8_t code = 0;
  bool retryable = false;
  std::string message;

  Status ToStatus() const { return StatusFromWire(code, message); }
};

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

// --- live mutation write path ------------------------------------------

// A mutation batch as it travels on the wire. Operations reuse the
// in-process Mutation struct (tables/columns by name, rows by pk);
// values carry a one-byte kind tag (kWireValueNull/Int/Text).
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

// --- primitive reader (exposed for tests / fuzzing) ---------------------

// Sequential little-endian reader over a payload. All Read* methods are
// bounds-checked: on exhaustion they return false and the reader stays
// failed. Strings are u32-length-prefixed and the length is validated
// against the remaining bytes before any allocation, so a hostile
// length can never cause an oversized reserve.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* v);
  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  bool ReadI32(int32_t* v);
  bool ReadI64(int64_t* v);
  bool ReadDouble(double* v);
  bool ReadString(std::string* v);

  bool failed() const { return failed_; }
  size_t remaining() const { return data_.size() - pos_; }
  // True iff every byte was consumed and nothing failed.
  bool Exhausted() const { return !failed_ && pos_ == data_.size(); }

 private:
  bool Take(size_t n, const char** out);

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// Sequential little-endian writer (appends to an owned buffer).
class WireWriter {
 public:
  void PutU8(uint8_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI32(int32_t v);
  void PutI64(int64_t v);
  void PutDouble(double v);
  void PutString(std::string_view v);

  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

}  // namespace s4::net

#endif  // S4_NET_WIRE_H_
