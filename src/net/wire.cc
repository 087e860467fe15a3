#include "net/wire.h"

#include <chrono>

#include "common/string_util.h"
#include "net/socket_util.h"

namespace s4::net {

namespace {

std::string FinishFrame(FrameType type, uint64_t request_id,
                        std::string payload) {
  FrameHeader h;
  h.type = type;
  h.request_id = request_id;
  h.payload_len = static_cast<uint32_t>(payload.size());
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  AppendFrameHeader(h, &frame);
  frame += payload;
  return frame;
}

template <class M>
std::string EncodeFrame(FrameType type, uint64_t request_id,
                        const M& message) {
  WireWriter w;
  w.Put(message);
  return FinishFrame(type, request_id, w.Take());
}

template <class M>
Status DecodePayload(std::string_view payload, const char* what,
                     M* message) {
  WireReader r(payload, what);
  r.Read(*message);
  return r.Finish();
}

}  // namespace

// --- codec -------------------------------------------------------------

const char* WireReader::Take(size_t n) {
  if (!status_.ok()) return nullptr;
  if (data_.size() - pos_ < n) {
    status_ = Status::InvalidArgument(
        StrFormat("truncated %s payload", what_));
    return nullptr;
  }
  const char* p = data_.data() + pos_;
  pos_ += n;
  return p;
}

void WireReader::Reject(const char* why) {
  if (status_.ok()) {
    status_ = Status::InvalidArgument(StrFormat("%s: %s", what_, why));
  }
}

Status WireReader::Finish() const {
  if (!status_.ok()) return status_;
  if (pos_ != data_.size()) {
    return Status::InvalidArgument(
        StrFormat("trailing bytes after %s payload", what_));
  }
  return Status::OK();
}

// --- frame header ------------------------------------------------------

void AppendFrameHeader(const FrameHeader& h, std::string* out) {
  WireWriter w;
  w.Put(kMagic);
  w.Put(h.version);
  w.Put(static_cast<uint8_t>(h.type));
  w.Put(uint16_t{0});  // reserved
  w.Put(h.request_id);
  w.Put(h.payload_len);
  out->append(w.data());
}

Status DecodeFrameHeader(std::string_view buf, FrameHeader* h) {
  if (buf.size() < kHeaderBytes) {
    return Status::InvalidArgument("short frame header");
  }
  WireReader r(buf.substr(0, kHeaderBytes), "frame header");
  uint32_t magic = 0;
  uint8_t version = 0, type = 0;
  uint16_t reserved = 0;
  r.Read(magic);
  r.Read(version);
  r.Read(type);
  r.Read(reserved);
  r.Read(h->request_id);
  r.Read(h->payload_len);
  if (magic != kMagic) {
    return Status::InvalidArgument("bad frame magic (not an S4 wire peer)");
  }
  h->version = version;
  if (version != kProtocolVersion) {
    return Status::FailedPrecondition(
        StrFormat("protocol version mismatch: peer speaks v%u, this side v%u",
                  version, kProtocolVersion));
  }
  if (!IsValidFrameType(type)) {
    return Status::InvalidArgument(
        StrFormat("unknown frame type %u", type));
  }
  h->type = static_cast<FrameType>(type);
  return Status::OK();
}

Status RecvFrame(int fd, double timeout_seconds, FrameHeader* h,
                 std::string* payload) {
  const auto start = std::chrono::steady_clock::now();
  char header[kHeaderBytes];
  S4_RETURN_IF_ERROR(RecvAll(fd, header, kHeaderBytes, timeout_seconds));
  S4_RETURN_IF_ERROR(
      DecodeFrameHeader(std::string_view(header, kHeaderBytes), h));
  if (h->payload_len > kDefaultMaxFrameBytes) {
    return Status::Internal(StrFormat("peer sent an oversized frame (%u bytes)",
                                      h->payload_len));
  }
  payload->resize(h->payload_len);
  if (h->payload_len == 0) return Status::OK();
  return RecvAll(fd, payload->data(), h->payload_len,
                 Remaining(start, timeout_seconds));
}

// --- search exchange ----------------------------------------------------

NetSearchRequest NetSearchRequest::From(
    std::vector<std::vector<std::string>> cells, const SearchOptions& options,
    S4System::Strategy strategy, int32_t priority) {
  NetSearchRequest req;
  req.cells = std::move(cells);
  req.options = options;
  req.strategy = strategy;
  req.priority = priority;
  return req;
}

std::string EncodeSearchRequestFrame(const NetSearchRequest& req,
                                     uint64_t request_id) {
  WireWriter w;
  w.Put(static_cast<uint32_t>(req.cells.size()));
  const uint32_t cols =
      req.cells.empty() ? 0 : static_cast<uint32_t>(req.cells[0].size());
  w.Put(cols);
  for (const auto& row : req.cells) {
    for (uint32_t c = 0; c < cols; ++c) {
      w.Put(c < row.size() ? std::string_view(row[c]) : std::string_view());
    }
  }
  w.Put(req);
  return FinishFrame(FrameType::kSearchRequest, request_id, w.Take());
}

Status DecodeSearchRequest(std::string_view payload, NetSearchRequest* req) {
  WireReader r(payload, "request");
  uint32_t rows = 0, cols = 0;
  r.Read(rows);
  r.Read(cols);
  if (!r.ok()) return r.Finish();
  if (rows > kMaxWireRows || cols > kMaxWireCols ||
      static_cast<uint64_t>(rows) * cols > kMaxWireCells) {
    return Status::InvalidArgument(
        StrFormat("request spreadsheet %u x %u exceeds wire limits", rows,
                  cols));
  }
  req->cells.assign(rows, std::vector<std::string>(cols));
  for (auto& row : req->cells) {
    for (std::string& cell : row) r.Read(cell);
  }
  r.Read(*req);
  S4_RETURN_IF_ERROR(r.Finish());
  // The doubles travel as raw bits, so anything encodes: the options are
  // held to the in-process invariants plus the wire caps before they
  // reach the service.
  const SearchOptions& o = req->options;
  S4_RETURN_IF_ERROR(ValidateSearchOptions(o));
  if (!(o.approx_epsilon <= kMaxWireApproxEpsilon) ||
      o.sample_budget > kMaxWireSampleBudget ||
      o.shard_count > kMaxWireShards ||
      o.enumeration.max_queries > kMaxWireQueries ||
      o.enumeration.max_tree_size > kMaxWireTreeSize) {
    return Status::InvalidArgument(StrFormat(
        "request exceeds the wire caps (approx_epsilon <= %g, "
        "sample_budget <= %lld, shard_count <= %d, "
        "enumeration.max_queries <= %d, enumeration.max_tree_size <= %d)",
        kMaxWireApproxEpsilon, static_cast<long long>(kMaxWireSampleBudget),
        kMaxWireShards, kMaxWireQueries, kMaxWireTreeSize));
  }
  return Status::OK();
}

std::string EncodeSearchResponseFrame(const NetSearchResponse& resp,
                                      uint64_t request_id) {
  return EncodeFrame(FrameType::kSearchResponse, request_id, resp);
}

Status DecodeSearchResponse(std::string_view payload,
                            NetSearchResponse* resp) {
  return DecodePayload(payload, "response", resp);
}

std::string EncodeShardPartialFrame(const NetShardPartial& partial,
                                    uint64_t request_id) {
  return EncodeFrame(FrameType::kShardPartial, request_id, partial);
}

Status DecodeShardPartial(std::string_view payload,
                          NetShardPartial* partial) {
  return DecodePayload(payload, "shard partial", partial);
}

// kShardStop and kTraceRequest carry one u64: the id of the exchange to
// cancel or whose trace to fetch (the header's request_id still names
// this exchange).
std::string EncodeShardStopFrame(uint64_t target_request_id,
                                 uint64_t request_id) {
  return EncodeFrame(FrameType::kShardStop, request_id, target_request_id);
}

Status DecodeShardStop(std::string_view payload,
                       uint64_t* target_request_id) {
  return DecodePayload(payload, "shard stop", target_request_id);
}

std::string EncodeTraceRequestFrame(uint64_t target_request_id,
                                    uint64_t request_id) {
  return EncodeFrame(FrameType::kTraceRequest, request_id, target_request_id);
}

Status DecodeTraceRequest(std::string_view payload,
                          uint64_t* target_request_id) {
  return DecodePayload(payload, "trace request", target_request_id);
}

// --- error / empty and raw-text frames -----------------------------------

std::string EncodeErrorFrame(const Status& status, uint64_t request_id) {
  const NetError err{WireCodeFor(status.code()), IsRetryable(status.code()),
                     status.message()};
  return EncodeFrame(FrameType::kError, request_id, err);
}

Status DecodeError(std::string_view payload, NetError* err) {
  return DecodePayload(payload, "error", err);
}

std::string EncodePingFrame(uint64_t request_id) {
  return FinishFrame(FrameType::kPing, request_id, std::string());
}

std::string EncodePongFrame(uint64_t request_id) {
  return FinishFrame(FrameType::kPong, request_id, std::string());
}

std::string EncodeStatsRequestFrame(uint64_t request_id) {
  return FinishFrame(FrameType::kStatsRequest, request_id, std::string());
}

std::string EncodeStatsResponseFrame(std::string_view text,
                                     uint64_t request_id) {
  return FinishFrame(FrameType::kStatsResponse, request_id,
                     std::string(text));
}

std::string EncodeTraceResponseFrame(std::string_view json,
                                     uint64_t request_id) {
  return FinishFrame(FrameType::kTraceResponse, request_id,
                     std::string(json));
}

std::string EncodeSlowLogRequestFrame(uint64_t request_id) {
  return FinishFrame(FrameType::kSlowLogRequest, request_id, std::string());
}

std::string EncodeSlowLogResponseFrame(std::string_view json,
                                       uint64_t request_id) {
  return FinishFrame(FrameType::kSlowLogResponse, request_id,
                     std::string(json));
}

Status DecodeSlowLogRequest(std::string_view payload) {
  if (!payload.empty()) {
    return Status::InvalidArgument(
        "trailing bytes after slow-log request payload");
  }
  return Status::OK();
}

// --- live mutation write path -------------------------------------------
//
// Coded by hand: a mutation's layout depends on its op. Each is u8 op,
// table name, then the op's fields; a Value is a u8 kind tag followed by
// nothing (NULL), an i64 (Int) or a string (Text).

namespace {

void PutValue(const Value& v, WireWriter& w) {
  if (v.is_null()) {
    w.Put(kWireValueNull);
  } else if (v.is_int()) {
    w.Put(kWireValueInt);
    w.Put(v.AsInt());
  } else {
    w.Put(kWireValueText);
    w.Put(v.AsText());
  }
}

Value ReadValue(WireReader& r) {
  uint8_t kind = kWireValueNull;
  r.Read(kind);
  switch (kind) {
    case kWireValueNull:
      return Value::Null();
    case kWireValueInt: {
      int64_t i = 0;
      r.Read(i);
      return Value::Int(i);
    }
    case kWireValueText: {
      std::string s;
      r.Read(s);
      return Value::Text(std::move(s));
    }
  }
  r.Reject("bad value kind");
  return Value::Null();
}

}  // namespace

std::string EncodeMutateRequestFrame(const NetMutateRequest& req,
                                     uint64_t request_id) {
  WireWriter w;
  w.Put(static_cast<uint32_t>(req.mutations.size()));
  for (const Mutation& m : req.mutations) {
    w.Put(static_cast<uint8_t>(m.op));
    w.Put(m.table);
    switch (m.op) {
      case Mutation::Op::kInsertRow:
        w.Put(static_cast<uint32_t>(m.values.size()));
        for (const Value& v : m.values) PutValue(v, w);
        break;
      case Mutation::Op::kDeleteRow:
        w.Put(m.pk);
        break;
      case Mutation::Op::kUpdateCell:
        w.Put(m.pk);
        w.Put(m.column);
        PutValue(m.value, w);
        break;
    }
  }
  return FinishFrame(FrameType::kMutateRequest, request_id, w.Take());
}

Status DecodeMutateRequest(std::string_view payload, NetMutateRequest* req) {
  WireReader r(payload, "mutate request");
  uint32_t count = 0;
  r.Read(count);
  if (count > kMaxWireMutations) r.Reject("too many operations");
  req->mutations.clear();
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    Mutation& m = req->mutations.emplace_back();
    uint8_t op = 0;
    r.Read(op);
    r.Read(m.table);
    if (op > static_cast<uint8_t>(Mutation::Op::kUpdateCell)) {
      r.Reject("bad op");
      break;
    }
    m.op = static_cast<Mutation::Op>(op);
    switch (m.op) {
      case Mutation::Op::kInsertRow: {
        uint32_t nvals = 0;
        r.Read(nvals);
        if (nvals > kMaxWireMutationValues) r.Reject("too many values");
        for (uint32_t j = 0; j < nvals && r.ok(); ++j) {
          m.values.push_back(ReadValue(r));
        }
        break;
      }
      case Mutation::Op::kDeleteRow:
        r.Read(m.pk);
        break;
      case Mutation::Op::kUpdateCell:
        r.Read(m.pk);
        r.Read(m.column);
        m.value = ReadValue(r);
        break;
    }
  }
  return r.Finish();
}

std::string EncodeMutateResponseFrame(const NetMutateResponse& resp,
                                      uint64_t request_id) {
  return EncodeFrame(FrameType::kMutateResponse, request_id, resp);
}

Status DecodeMutateResponse(std::string_view payload,
                            NetMutateResponse* resp) {
  return DecodePayload(payload, "mutate response", resp);
}

}  // namespace s4::net
