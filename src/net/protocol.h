#ifndef S4_NET_PROTOCOL_H_
#define S4_NET_PROTOCOL_H_

#include <cstdint>

#include "common/status.h"

namespace s4::net {

// --- S4 wire protocol v6 ----------------------------------------------
//
// Every frame on the wire is a fixed 20-byte header followed by a
// type-specific payload, all integers little-endian:
//
//   offset  size  field
//        0     4  magic        0x53345750 ("S4WP")
//        4     1  version      kProtocolVersion
//        5     1  type         FrameType
//        6     2  reserved     must be 0
//        8     8  request_id   echoed verbatim in the response frame
//       16     4  payload_len  bytes following the header
//
// The magic is checked first: a stream that does not start every frame
// with it is garbage (or a different protocol) and the connection is cut
// without a response — nothing later in such a stream can be trusted.
// A version mismatch or an unknown type is answered with an Error frame
// (the peer speaks *a* version of this protocol, so an explanation is
// deliverable) before the connection closes.

inline constexpr uint32_t kMagic = 0x53345750u;  // "S4WP"
// v2 appended the anytime-approximate fields: four search-request knobs
// (approx_epsilon, approx_confidence, sample_budget, rng_seed), the
// per-entry score-interval block, and the response-level approximate
// flag. v3 appended the profiling surface: a want_profile request flag,
// an optional QueryProfile section on search responses, trace context
// (trace_id, parent span, wall origin) on shard requests, an optional
// trace segment on the shard's final frame, and the kSlowLogRequest/
// Response pair.
// v4 replaced the search response's hand-picked counter subset with the
// whole RunStats record, encoded field by field from the counter schema
// (obs/run_stats.h), and cut the QueryProfile section down to the timing
// envelope. v5 folded the shard exchange into the plain search: the
// separate shard request and shard final frames are gone; the search
// request gained the slice, partial cadence and trace context, the
// search response gained the optional trace segment, kShardPartial
// carries the whole RunStats record, and the frame types from
// kShardPartial on were renumbered to close the two freed slots. v6
// carries options.enumeration whole, so an OR search answers as it does
// in-process. Both sides must agree — the
// header version check rejects older peers with FailedPrecondition
// before any payload is parsed.
inline constexpr uint8_t kProtocolVersion = 6;
inline constexpr size_t kHeaderBytes = 20;

// Frames larger than this are rejected with InvalidArgument and the
// connection closed: the server never buffers an attacker-sized frame.
inline constexpr uint32_t kDefaultMaxFrameBytes = 16u << 20;

enum class FrameType : uint8_t {
  kSearchRequest = 1,   // client -> server
  kSearchResponse = 2,  // server -> client (success)
  kError = 3,           // server -> client (Status + retryable flag)
  kPing = 4,            // client -> server (pool health check)
  kPong = 5,            // server -> client
  kStatsRequest = 6,    // client -> server (empty payload)
  kStatsResponse = 7,   // server -> client (Prometheus text dump)
  kTraceRequest = 8,    // client -> server (u64 target request_id)
  kTraceResponse = 9,   // server -> client (Chrome-trace JSON)
  // Scatter-gather shard exchange (DESIGN.md "Distributed serving"): a
  // coordinator sends a kSearchRequest naming the shard's slice, the
  // shard streams zero or more kShardPartial frames (current top-k +
  // remaining upper bound) at the requested cadence and finishes with
  // exactly one kSearchResponse (or kError). kShardStop flows
  // coordinator -> shard mid-exchange once the merged k-th score proves
  // the shard can no longer contribute.
  kShardPartial = 10,  // shard -> coordinator (streamed)
  kShardStop = 11,     // coordinator -> shard (u64 target request_id)
  // Live mutation write path (src/live/): a batch of insert/delete/
  // update operations applied in order; the response reports the applied
  // prefix and the epoch it was published as. Sent client -> server and
  // coordinator -> shard (the coordinator broadcasts writes to every
  // shard, which all hold the full database).
  kMutateRequest = 12,   // client -> server
  kMutateResponse = 13,  // server -> client
  // Slow-query log fetch: the server answers with the JSON dump of its
  // slowest-request ring (empty request payload, like kStatsRequest).
  kSlowLogRequest = 14,   // client -> server (empty payload)
  kSlowLogResponse = 15,  // server -> client (JSON text)
};

inline bool IsValidFrameType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kSearchRequest) &&
         t <= static_cast<uint8_t>(FrameType::kSlowLogResponse);
}

// Decode-side caps on a search request's spreadsheet, all far above
// anything a legitimate request carries but small enough that a hostile
// frame cannot make the decoder allocate unbounded vectors before the
// byte-level bounds checks bite.
inline constexpr uint32_t kMaxWireRows = 4096;
inline constexpr uint32_t kMaxWireCols = 4096;
inline constexpr uint64_t kMaxWireCells = 1u << 20;

// Decode-side cap on a search request's options.shard_count: far above any
// deployment this code targets, small enough that a hostile frame cannot
// claim an absurd topology.
inline constexpr int32_t kMaxWireShards = 1024;

// Decode-side caps for mutate frames: operations per batch and values
// per inserted row (i.e. columns). Same philosophy as kMaxWireShards —
// generous for real traffic, hostile frames cannot force absurd
// allocations before the byte-level bounds checks bite.
inline constexpr uint32_t kMaxWireMutations = 4096;
inline constexpr uint32_t kMaxWireMutationValues = 4096;

// Decode-side caps on the anytime-approximate request knobs. Epsilon is
// a relative slack on the k-th score — anything above a few is already
// absurd, 1e6 is pure hostility; the budget cap keeps a hostile frame
// from pinning a worker on one candidate for minutes.
inline constexpr double kMaxWireApproxEpsilon = 1e6;
inline constexpr int64_t kMaxWireSampleBudget = int64_t{1} << 32;

// Decode-side caps on options.enumeration: enumeration runs before any
// deadline or cancel poll, so these bound its time and memory. The query
// cap is the EnumerationOptions default.
inline constexpr int32_t kMaxWireQueries = 500000;
inline constexpr int32_t kMaxWireTreeSize = 8;

// Cap on the top-k entries one response or partial carries: far above
// any k a caller asks for, small enough that a hostile count cannot
// force an absurd allocation.
inline constexpr uint32_t kMaxWireTopk = 1u << 20;

// Caps on the trace segment a search response carries:
// events per segment and args per event. A real per-request trace is a
// few hundred events; a hostile frame cannot force absurd allocations.
inline constexpr uint32_t kMaxWireTraceEvents = 4096;
inline constexpr uint32_t kMaxWireTraceArgs = 16;

// Value kind tags inside mutate frames.
inline constexpr uint8_t kWireValueNull = 0;
inline constexpr uint8_t kWireValueInt = 1;
inline constexpr uint8_t kWireValueText = 2;

// --- Status <-> wire error code mapping -------------------------------
//
// The Error frame carries the StatusCode as a stable small integer plus
// a retryable hint, so S4Client can hand typed Status values back to
// callers (the "error-mapping table" of DESIGN.md).

inline uint8_t WireCodeFor(StatusCode code) {
  return static_cast<uint8_t>(code);
}

inline StatusCode StatusCodeFromWire(uint8_t code) {
  switch (code) {
    case static_cast<uint8_t>(StatusCode::kInvalidArgument):
      return StatusCode::kInvalidArgument;
    case static_cast<uint8_t>(StatusCode::kNotFound):
      return StatusCode::kNotFound;
    case static_cast<uint8_t>(StatusCode::kAlreadyExists):
      return StatusCode::kAlreadyExists;
    case static_cast<uint8_t>(StatusCode::kOutOfRange):
      return StatusCode::kOutOfRange;
    case static_cast<uint8_t>(StatusCode::kFailedPrecondition):
      return StatusCode::kFailedPrecondition;
    case static_cast<uint8_t>(StatusCode::kResourceExhausted):
      return StatusCode::kResourceExhausted;
    case static_cast<uint8_t>(StatusCode::kCancelled):
      return StatusCode::kCancelled;
    case static_cast<uint8_t>(StatusCode::kDeadlineExceeded):
      return StatusCode::kDeadlineExceeded;
    default:
      // Unknown / kOk in an error frame: a peer bug; surface as Internal
      // rather than inventing success.
      return StatusCode::kInternal;
  }
}

// Whether a request failing with `code` may be retried verbatim.
// ResourceExhausted is the admission queue saying "later"; everything
// else either cannot succeed unchanged (InvalidArgument,
// FailedPrecondition, ...) or already consumed its budget
// (DeadlineExceeded, Cancelled).
inline bool IsRetryable(StatusCode code) {
  return code == StatusCode::kResourceExhausted;
}

inline Status StatusFromWire(uint8_t code, std::string message) {
  const StatusCode sc = StatusCodeFromWire(code);
  switch (sc) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(message));
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(std::move(message));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(message));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(message));
    case StatusCode::kCancelled:
      return Status::Cancelled(std::move(message));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(message));
    default:
      return Status::Internal(std::move(message));
  }
}

}  // namespace s4::net

#endif  // S4_NET_PROTOCOL_H_
