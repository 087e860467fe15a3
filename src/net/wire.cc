#include "net/wire.h"

#include <algorithm>
#include <bit>

#include "common/string_util.h"

namespace s4::net {

namespace {

// Decode-side sanity caps, all far above anything a legitimate request
// carries but small enough that a hostile frame cannot make the decoder
// allocate unbounded vectors before the byte-level bounds checks bite.
constexpr uint32_t kMaxRows = 4096;
constexpr uint32_t kMaxCols = 4096;
constexpr uint64_t kMaxCells = 1u << 20;
constexpr uint32_t kMaxTopk = 1u << 20;

void PutLE(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

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

Status Truncated(const char* what) {
  return Status::InvalidArgument(
      StrFormat("truncated %s payload", what));
}

}  // namespace

// --- primitives --------------------------------------------------------

bool WireReader::Take(size_t n, const char** out) {
  if (failed_ || data_.size() - pos_ < n) {
    failed_ = true;
    return false;
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool WireReader::ReadU8(uint8_t* v) {
  const char* p;
  if (!Take(1, &p)) return false;
  *v = static_cast<uint8_t>(*p);
  return true;
}

bool WireReader::ReadU32(uint32_t* v) {
  const char* p;
  if (!Take(4, &p)) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  *v = out;
  return true;
}

bool WireReader::ReadU64(uint64_t* v) {
  const char* p;
  if (!Take(8, &p)) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  *v = out;
  return true;
}

bool WireReader::ReadI32(int32_t* v) {
  uint32_t u;
  if (!ReadU32(&u)) return false;
  *v = static_cast<int32_t>(u);
  return true;
}

bool WireReader::ReadI64(int64_t* v) {
  uint64_t u;
  if (!ReadU64(&u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

bool WireReader::ReadDouble(double* v) {
  uint64_t u;
  if (!ReadU64(&u)) return false;
  *v = std::bit_cast<double>(u);
  return true;
}

bool WireReader::ReadString(std::string* v) {
  uint32_t len;
  if (!ReadU32(&len)) return false;
  const char* p;
  if (!Take(len, &p)) return false;  // validates len <= remaining
  v->assign(p, len);
  return true;
}

void WireWriter::PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
void WireWriter::PutU32(uint32_t v) { PutLE(&buf_, v, 4); }
void WireWriter::PutU64(uint64_t v) { PutLE(&buf_, v, 8); }
void WireWriter::PutI32(int32_t v) { PutLE(&buf_, static_cast<uint32_t>(v), 4); }
void WireWriter::PutI64(int64_t v) { PutLE(&buf_, static_cast<uint64_t>(v), 8); }
void WireWriter::PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }

void WireWriter::PutString(std::string_view v) {
  PutU32(static_cast<uint32_t>(v.size()));
  buf_.append(v.data(), v.size());
}

// --- frame header ------------------------------------------------------

void AppendFrameHeader(const FrameHeader& h, std::string* out) {
  PutLE(out, kMagic, 4);
  out->push_back(static_cast<char>(h.version));
  out->push_back(static_cast<char>(h.type));
  PutLE(out, 0, 2);  // reserved
  PutLE(out, h.request_id, 8);
  PutLE(out, h.payload_len, 4);
}

Status DecodeFrameHeader(std::string_view buf, FrameHeader* h) {
  if (buf.size() < kHeaderBytes) {
    return Status::InvalidArgument("short frame header");
  }
  WireReader r(buf.substr(0, kHeaderBytes));
  uint32_t magic;
  uint8_t version, type;
  uint8_t reserved0, reserved1;
  r.ReadU32(&magic);
  r.ReadU8(&version);
  r.ReadU8(&type);
  r.ReadU8(&reserved0);
  r.ReadU8(&reserved1);
  uint64_t request_id;
  uint32_t payload_len;
  r.ReadU64(&request_id);
  r.ReadU32(&payload_len);
  if (magic != kMagic) {
    return Status::InvalidArgument("bad frame magic (not an S4 wire peer)");
  }
  h->version = version;
  h->request_id = request_id;
  h->payload_len = payload_len;
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

// --- NetSearchRequest ---------------------------------------------------

NetSearchRequest NetSearchRequest::From(
    std::vector<std::vector<std::string>> cells, const SearchOptions& options,
    S4System::Strategy strategy, int32_t priority, double deadline_seconds) {
  NetSearchRequest req;
  req.cells = std::move(cells);
  switch (strategy) {
    case S4System::Strategy::kNaive:
      req.strategy = kWireStrategyNaive;
      break;
    case S4System::Strategy::kBaseline:
      req.strategy = kWireStrategyBaseline;
      break;
    case S4System::Strategy::kFastTopK:
      req.strategy = kWireStrategyFastTopK;
      break;
  }
  req.priority = priority;
  req.deadline_seconds = deadline_seconds;
  req.k = options.k;
  req.alpha = options.score.alpha;
  req.epsilon = options.epsilon;
  req.use_idf = options.score.use_idf;
  req.exact_match_bonus = options.score.exact_match_bonus;
  req.spelling_edits = options.score.spelling_edits;
  req.drop_zero_rows = options.drop_zero_rows;
  req.num_threads = options.num_threads;
  req.max_tree_size = options.enumeration.max_tree_size;
  req.cache_budget_bytes = options.cache_budget_bytes;
  req.approx_epsilon = options.approx_epsilon;
  req.approx_confidence = options.approx_confidence;
  req.sample_budget = options.sample_budget;
  req.rng_seed = options.rng_seed;
  return req;
}

SearchOptions NetSearchRequest::ToSearchOptions() const {
  SearchOptions options;
  options.k = k;
  options.score.alpha = alpha;
  options.epsilon = epsilon;
  options.score.use_idf = use_idf;
  options.score.exact_match_bonus = exact_match_bonus;
  options.score.spelling_edits = spelling_edits;
  options.drop_zero_rows = drop_zero_rows;
  options.num_threads = num_threads;
  options.enumeration.max_tree_size = max_tree_size;
  options.cache_budget_bytes = cache_budget_bytes;
  options.approx_epsilon = approx_epsilon;
  options.approx_confidence = approx_confidence;
  options.sample_budget = sample_budget;
  options.rng_seed = rng_seed;
  return options;
}

S4System::Strategy NetSearchRequest::ToStrategy() const {
  switch (strategy) {
    case kWireStrategyNaive:
      return S4System::Strategy::kNaive;
    case kWireStrategyBaseline:
      return S4System::Strategy::kBaseline;
    default:
      return S4System::Strategy::kFastTopK;
  }
}

namespace {

// The search-request payload layout, shared verbatim by kSearchRequest
// and the trailing section of kShardSearchRequest so the two cannot
// drift apart.
void AppendSearchRequestPayload(const NetSearchRequest& req, WireWriter* w) {
  w->PutU32(static_cast<uint32_t>(req.cells.size()));
  const uint32_t cols =
      req.cells.empty() ? 0 : static_cast<uint32_t>(req.cells[0].size());
  w->PutU32(cols);
  for (const auto& row : req.cells) {
    for (uint32_t c = 0; c < cols; ++c) {
      w->PutString(c < row.size() ? std::string_view(row[c])
                                  : std::string_view());
    }
  }
  w->PutU8(req.strategy);
  w->PutI32(req.priority);
  w->PutDouble(req.deadline_seconds);
  w->PutI32(req.k);
  w->PutDouble(req.alpha);
  w->PutDouble(req.epsilon);
  w->PutU8(req.use_idf ? 1 : 0);
  w->PutDouble(req.exact_match_bonus);
  w->PutI32(req.spelling_edits);
  w->PutU8(req.drop_zero_rows ? 1 : 0);
  w->PutI32(req.num_threads);
  w->PutI32(req.max_tree_size);
  w->PutU64(req.cache_budget_bytes);
  w->PutDouble(req.approx_epsilon);
  w->PutDouble(req.approx_confidence);
  w->PutI64(req.sample_budget);
  w->PutU64(req.rng_seed);
  w->PutU8(req.want_profile ? 1 : 0);
}

Status ReadSearchRequestPayload(WireReader& r, NetSearchRequest* req) {
  uint32_t rows, cols;
  if (!r.ReadU32(&rows) || !r.ReadU32(&cols)) return Truncated("request");
  if (rows > kMaxRows || cols > kMaxCols ||
      static_cast<uint64_t>(rows) * cols > kMaxCells) {
    return Status::InvalidArgument(
        StrFormat("request spreadsheet %u x %u exceeds wire limits", rows,
                  cols));
  }
  req->cells.assign(rows, std::vector<std::string>(cols));
  for (uint32_t t = 0; t < rows; ++t) {
    for (uint32_t c = 0; c < cols; ++c) {
      if (!r.ReadString(&req->cells[t][c])) return Truncated("request cell");
    }
  }
  uint8_t use_idf = 0, drop_zero = 0;
  if (!r.ReadU8(&req->strategy) || !r.ReadI32(&req->priority) ||
      !r.ReadDouble(&req->deadline_seconds) || !r.ReadI32(&req->k) ||
      !r.ReadDouble(&req->alpha) || !r.ReadDouble(&req->epsilon) ||
      !r.ReadU8(&use_idf) || !r.ReadDouble(&req->exact_match_bonus) ||
      !r.ReadI32(&req->spelling_edits) || !r.ReadU8(&drop_zero) ||
      !r.ReadI32(&req->num_threads) || !r.ReadI32(&req->max_tree_size) ||
      !r.ReadU64(&req->cache_budget_bytes) ||
      !r.ReadDouble(&req->approx_epsilon) ||
      !r.ReadDouble(&req->approx_confidence) ||
      !r.ReadI64(&req->sample_budget) || !r.ReadU64(&req->rng_seed)) {
    return Truncated("request options");
  }
  uint8_t want_profile = 0;
  if (!r.ReadU8(&want_profile)) return Truncated("request options");
  req->want_profile = want_profile != 0;
  req->use_idf = use_idf != 0;
  req->drop_zero_rows = drop_zero != 0;
  if (req->strategy > kWireStrategyFastTopK) {
    return Status::InvalidArgument(
        StrFormat("unknown strategy %u", req->strategy));
  }
  // Mirror the ValidateSearchOptions invariants at the decode boundary
  // so a hostile frame cannot carry NaN/out-of-range approx knobs into
  // the service (the doubles travel as raw bits, so anything encodes).
  if (!(req->approx_epsilon >= 0.0) ||
      req->approx_epsilon > kMaxWireApproxEpsilon) {
    return Status::InvalidArgument("request approx_epsilon out of range");
  }
  if (!(req->approx_confidence > 0.0) || req->approx_confidence > 1.0) {
    return Status::InvalidArgument("request approx_confidence out of range");
  }
  if (req->sample_budget < 1 || req->sample_budget > kMaxWireSampleBudget) {
    return Status::InvalidArgument("request sample_budget out of range");
  }
  return Status::OK();
}

}  // namespace

std::string EncodeSearchRequestFrame(const NetSearchRequest& req,
                                     uint64_t request_id) {
  WireWriter w;
  AppendSearchRequestPayload(req, &w);
  return FinishFrame(FrameType::kSearchRequest, request_id, w.Take());
}

Status DecodeSearchRequest(std::string_view payload, NetSearchRequest* req) {
  WireReader r(payload);
  S4_RETURN_IF_ERROR(ReadSearchRequestPayload(r, req));
  if (!r.Exhausted()) {
    return Status::InvalidArgument("trailing bytes after request payload");
  }
  return Status::OK();
}

// --- NetSearchResponse --------------------------------------------------

namespace {

void AppendTopkEntries(const std::vector<NetTopkEntry>& topk, WireWriter* w) {
  w->PutU32(static_cast<uint32_t>(topk.size()));
  for (const NetTopkEntry& e : topk) {
    w->PutString(e.signature);
    w->PutString(e.sql);
    w->PutDouble(e.score);
    w->PutDouble(e.upper_bound);
    w->PutDouble(e.row_score);
    w->PutDouble(e.column_score);
    w->PutU8(e.approximate ? 1 : 0);
    w->PutDouble(e.interval_lo);
    w->PutDouble(e.interval_hi);
    w->PutDouble(e.interval_confidence);
    w->PutI64(e.support);
    w->PutI64(e.sampled);
  }
}

Status ReadTopkEntries(WireReader& r, std::vector<NetTopkEntry>* topk,
                       const char* what) {
  uint32_t n;
  if (!r.ReadU32(&n)) return Truncated(what);
  if (n > kMaxTopk) {
    return Status::InvalidArgument(
        StrFormat("top-k count %u exceeds wire limits", n));
  }
  topk->clear();
  topk->reserve(std::min<uint32_t>(n, 1024));
  for (uint32_t i = 0; i < n; ++i) {
    NetTopkEntry e;
    uint8_t approximate = 0;
    if (!r.ReadString(&e.signature) || !r.ReadString(&e.sql) ||
        !r.ReadDouble(&e.score) || !r.ReadDouble(&e.upper_bound) ||
        !r.ReadDouble(&e.row_score) || !r.ReadDouble(&e.column_score) ||
        !r.ReadU8(&approximate) || !r.ReadDouble(&e.interval_lo) ||
        !r.ReadDouble(&e.interval_hi) ||
        !r.ReadDouble(&e.interval_confidence) || !r.ReadI64(&e.support) ||
        !r.ReadI64(&e.sampled)) {
      return Truncated(what);
    }
    e.approximate = approximate != 0;
    topk->push_back(std::move(e));
  }
  return Status::OK();
}

// The RunStats section (v4): every counter-schema field in list order,
// each in its declared type (obs/run_stats.h), so a new schema field
// travels without a codec edit. Always present on search responses.
void PutStat(WireWriter* w, int64_t v) { w->PutI64(v); }
void PutStat(WireWriter* w, uint64_t v) { w->PutU64(v); }
void PutStat(WireWriter* w, double v) { w->PutDouble(v); }
bool ReadStat(WireReader& r, int64_t* v) { return r.ReadI64(v); }
bool ReadStat(WireReader& r, uint64_t* v) { return r.ReadU64(v); }
bool ReadStat(WireReader& r, double* v) { return r.ReadDouble(v); }

void AppendRunStats(const RunStats& stats, WireWriter* w) {
  ForEachStat([w](const StatField&, const auto& v) { PutStat(w, v); },
              stats);
}

Status ReadRunStats(WireReader& r, RunStats* stats) {
  bool ok = true;
  ForEachStat([&](const StatField&, auto& v) { ok = ok && ReadStat(r, &v); },
              *stats);
  return ok ? Status::OK() : Truncated("response stats");
}

// The QueryProfile section: the timing envelope. Appended to search
// responses behind a has-flag when the request asked for profiling.
void AppendProfile(const obs::QueryProfile& p, WireWriter* w) {
  w->PutDouble(p.total_seconds);
  w->PutDouble(p.queue_seconds);
}

Status ReadProfile(WireReader& r, obs::QueryProfile* p) {
  if (!r.ReadDouble(&p->total_seconds) || !r.ReadDouble(&p->queue_seconds)) {
    return Truncated("profile");
  }
  return Status::OK();
}

// The search-response payload layout, shared by kSearchResponse and the
// leading section of kShardDone.
void AppendSearchResponsePayload(const NetSearchResponse& resp,
                                 WireWriter* w) {
  w->PutU8(resp.interrupted ? 1 : 0);
  w->PutU8(resp.approximate ? 1 : 0);
  AppendTopkEntries(resp.topk, w);
  AppendRunStats(resp.stats, w);
  w->PutDouble(resp.server_seconds);
  w->PutU8(resp.has_profile ? 1 : 0);
  if (resp.has_profile) AppendProfile(resp.profile, w);
}

Status ReadSearchResponsePayload(WireReader& r, NetSearchResponse* resp) {
  uint8_t interrupted, approximate;
  if (!r.ReadU8(&interrupted) || !r.ReadU8(&approximate)) {
    return Truncated("response");
  }
  resp->interrupted = interrupted != 0;
  resp->approximate = approximate != 0;
  S4_RETURN_IF_ERROR(ReadTopkEntries(r, &resp->topk, "response entry"));
  S4_RETURN_IF_ERROR(ReadRunStats(r, &resp->stats));
  if (!r.ReadDouble(&resp->server_seconds)) {
    return Truncated("response stats");
  }
  uint8_t has_profile = 0;
  if (!r.ReadU8(&has_profile)) return Truncated("response stats");
  if (has_profile > 1) {
    return Status::InvalidArgument("response has_profile flag out of range");
  }
  resp->has_profile = has_profile != 0;
  resp->profile = obs::QueryProfile{};
  if (resp->has_profile) {
    S4_RETURN_IF_ERROR(ReadProfile(r, &resp->profile));
  }
  return Status::OK();
}

}  // namespace

std::string EncodeSearchResponseFrame(const NetSearchResponse& resp,
                                      uint64_t request_id) {
  WireWriter w;
  AppendSearchResponsePayload(resp, &w);
  return FinishFrame(FrameType::kSearchResponse, request_id, w.Take());
}

Status DecodeSearchResponse(std::string_view payload,
                            NetSearchResponse* resp) {
  WireReader r(payload);
  S4_RETURN_IF_ERROR(ReadSearchResponsePayload(r, resp));
  if (!r.Exhausted()) {
    return Status::InvalidArgument("trailing bytes after response payload");
  }
  return Status::OK();
}

// --- shard exchange -----------------------------------------------------

std::string EncodeShardSearchRequestFrame(const NetShardSearchRequest& req,
                                          uint64_t request_id) {
  WireWriter w;
  w.PutI32(req.shard_count);
  w.PutI32(req.shard_index);
  w.PutU32(req.partial_every);
  w.PutU8(req.want_trace ? 1 : 0);
  w.PutU64(req.trace_id);
  w.PutU64(req.parent_span_id);
  w.PutI64(req.origin_unix_us);
  AppendSearchRequestPayload(req.base, &w);
  return FinishFrame(FrameType::kShardSearchRequest, request_id, w.Take());
}

Status DecodeShardSearchRequest(std::string_view payload,
                                NetShardSearchRequest* req) {
  WireReader r(payload);
  if (!r.ReadI32(&req->shard_count) || !r.ReadI32(&req->shard_index) ||
      !r.ReadU32(&req->partial_every)) {
    return Truncated("shard request");
  }
  if (req->shard_count < 1 || req->shard_count > kMaxWireShards) {
    return Status::InvalidArgument(
        StrFormat("shard_count %d outside [1, %d]", req->shard_count,
                  kMaxWireShards));
  }
  if (req->shard_index < 0 || req->shard_index >= req->shard_count) {
    return Status::InvalidArgument(
        StrFormat("shard_index %d outside [0, %d)", req->shard_index,
                  req->shard_count));
  }
  uint8_t want_trace = 0;
  if (!r.ReadU8(&want_trace) || !r.ReadU64(&req->trace_id) ||
      !r.ReadU64(&req->parent_span_id) || !r.ReadI64(&req->origin_unix_us)) {
    return Truncated("shard request");
  }
  if (want_trace > 1) {
    return Status::InvalidArgument(
        "shard request want_trace flag out of range");
  }
  req->want_trace = want_trace != 0;
  S4_RETURN_IF_ERROR(ReadSearchRequestPayload(r, &req->base));
  if (!r.Exhausted()) {
    return Status::InvalidArgument(
        "trailing bytes after shard request payload");
  }
  return Status::OK();
}

std::string EncodeShardPartialFrame(const NetShardPartial& partial,
                                    uint64_t request_id) {
  WireWriter w;
  AppendTopkEntries(partial.topk, &w);
  w.PutDouble(partial.remaining_upper_bound);
  w.PutI64(partial.enumerated);
  w.PutI64(partial.evaluated);
  w.PutI64(partial.batches);
  return FinishFrame(FrameType::kShardPartial, request_id, w.Take());
}

Status DecodeShardPartial(std::string_view payload,
                          NetShardPartial* partial) {
  WireReader r(payload);
  S4_RETURN_IF_ERROR(ReadTopkEntries(r, &partial->topk, "shard partial"));
  if (!r.ReadDouble(&partial->remaining_upper_bound) ||
      !r.ReadI64(&partial->enumerated) || !r.ReadI64(&partial->evaluated) ||
      !r.ReadI64(&partial->batches)) {
    return Truncated("shard partial");
  }
  if (!r.Exhausted()) {
    return Status::InvalidArgument(
        "trailing bytes after shard partial payload");
  }
  return Status::OK();
}

namespace {

// The trace segment a shard ships back on kShardDone (v3). Bounded on
// the encode side too: a shard with a pathologically chatty trace
// truncates to the cap instead of emitting a frame its own peer must
// reject.
void AppendTraceSegment(const obs::TraceSegment& seg, WireWriter* w) {
  w->PutI64(seg.origin_unix_us);
  w->PutU64(seg.trace_id);
  const uint32_t n = static_cast<uint32_t>(
      std::min<size_t>(seg.events.size(), kMaxWireTraceEvents));
  w->PutU32(n);
  for (uint32_t i = 0; i < n; ++i) {
    const obs::TraceSegment::Event& e = seg.events[i];
    w->PutString(e.category);
    w->PutString(e.name);
    w->PutI64(e.ts_us);
    w->PutI64(e.dur_us);
    w->PutU32(e.tid);
    w->PutU64(e.span_id);
    w->PutU64(e.parent_id);
    const uint32_t nargs = static_cast<uint32_t>(
        std::min<size_t>(e.args.size(), kMaxWireTraceArgs));
    w->PutU32(nargs);
    for (uint32_t j = 0; j < nargs; ++j) {
      w->PutString(e.args[j].key);
      w->PutString(e.args[j].value);
    }
  }
}

Status ReadTraceSegment(WireReader& r, obs::TraceSegment* seg) {
  uint32_t n;
  if (!r.ReadI64(&seg->origin_unix_us) || !r.ReadU64(&seg->trace_id) ||
      !r.ReadU32(&n)) {
    return Truncated("trace segment");
  }
  if (n > kMaxWireTraceEvents) {
    return Status::InvalidArgument(
        StrFormat("trace segment event count %u exceeds wire limits", n));
  }
  seg->events.clear();
  seg->events.reserve(std::min<uint32_t>(n, 1024));
  for (uint32_t i = 0; i < n; ++i) {
    obs::TraceSegment::Event e;
    uint32_t nargs;
    if (!r.ReadString(&e.category) || !r.ReadString(&e.name) ||
        !r.ReadI64(&e.ts_us) || !r.ReadI64(&e.dur_us) || !r.ReadU32(&e.tid) ||
        !r.ReadU64(&e.span_id) || !r.ReadU64(&e.parent_id) ||
        !r.ReadU32(&nargs)) {
      return Truncated("trace segment event");
    }
    if (nargs > kMaxWireTraceArgs) {
      return Status::InvalidArgument(
          StrFormat("trace event arg count %u exceeds wire limits", nargs));
    }
    e.args.reserve(nargs);
    for (uint32_t j = 0; j < nargs; ++j) {
      obs::TraceSegment::Arg a;
      if (!r.ReadString(&a.key) || !r.ReadString(&a.value)) {
        return Truncated("trace segment arg");
      }
      e.args.push_back(std::move(a));
    }
    seg->events.push_back(std::move(e));
  }
  return Status::OK();
}

}  // namespace

std::string EncodeShardDoneFrame(const NetShardDone& done,
                                 uint64_t request_id) {
  WireWriter w;
  AppendSearchResponsePayload(done.response, &w);
  w.PutDouble(done.remaining_upper_bound);
  w.PutU8(done.has_segment ? 1 : 0);
  if (done.has_segment) AppendTraceSegment(done.segment, &w);
  return FinishFrame(FrameType::kShardDone, request_id, w.Take());
}

Status DecodeShardDone(std::string_view payload, NetShardDone* done) {
  WireReader r(payload);
  S4_RETURN_IF_ERROR(ReadSearchResponsePayload(r, &done->response));
  if (!r.ReadDouble(&done->remaining_upper_bound)) {
    return Truncated("shard done");
  }
  uint8_t has_segment = 0;
  if (!r.ReadU8(&has_segment)) return Truncated("shard done");
  if (has_segment > 1) {
    return Status::InvalidArgument(
        "shard done has_segment flag out of range");
  }
  done->has_segment = has_segment != 0;
  done->segment = obs::TraceSegment{};
  if (done->has_segment) {
    S4_RETURN_IF_ERROR(ReadTraceSegment(r, &done->segment));
  }
  if (!r.Exhausted()) {
    return Status::InvalidArgument("trailing bytes after shard done payload");
  }
  return Status::OK();
}

std::string EncodeShardStopFrame(uint64_t target_request_id,
                                 uint64_t request_id) {
  WireWriter w;
  w.PutU64(target_request_id);
  return FinishFrame(FrameType::kShardStop, request_id, w.Take());
}

Status DecodeShardStop(std::string_view payload,
                       uint64_t* target_request_id) {
  WireReader r(payload);
  if (!r.ReadU64(target_request_id)) {
    return Truncated("shard stop");
  }
  if (!r.Exhausted()) {
    return Status::InvalidArgument("trailing bytes after shard stop payload");
  }
  return Status::OK();
}

// --- error / ping -------------------------------------------------------

std::string EncodeErrorFrame(const Status& status, uint64_t request_id) {
  WireWriter w;
  w.PutU8(WireCodeFor(status.code()));
  w.PutU8(IsRetryable(status.code()) ? 1 : 0);
  w.PutString(status.message());
  return FinishFrame(FrameType::kError, request_id, w.Take());
}

Status DecodeError(std::string_view payload, NetError* err) {
  WireReader r(payload);
  uint8_t retryable;
  if (!r.ReadU8(&err->code) || !r.ReadU8(&retryable) ||
      !r.ReadString(&err->message)) {
    return Truncated("error");
  }
  err->retryable = retryable != 0;
  if (!r.Exhausted()) {
    return Status::InvalidArgument("trailing bytes after error payload");
  }
  return Status::OK();
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

std::string EncodeTraceRequestFrame(uint64_t target_request_id,
                                    uint64_t request_id) {
  WireWriter w;
  w.PutU64(target_request_id);
  return FinishFrame(FrameType::kTraceRequest, request_id, w.Take());
}

std::string EncodeTraceResponseFrame(std::string_view json,
                                     uint64_t request_id) {
  return FinishFrame(FrameType::kTraceResponse, request_id,
                     std::string(json));
}

Status DecodeTraceRequest(std::string_view payload,
                          uint64_t* target_request_id) {
  WireReader r(payload);
  if (!r.ReadU64(target_request_id)) {
    return Truncated("trace request");
  }
  if (!r.Exhausted()) {
    return Status::InvalidArgument(
        "trailing bytes after trace request payload");
  }
  return Status::OK();
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

namespace {

// One Value on the wire: u8 kind tag, then the payload for that kind
// (nothing for NULL, i64 for Int, length-prefixed string for Text).
void AppendValue(const Value& v, WireWriter* w) {
  if (v.is_null()) {
    w->PutU8(kWireValueNull);
  } else if (v.is_int()) {
    w->PutU8(kWireValueInt);
    w->PutI64(v.AsInt());
  } else {
    w->PutU8(kWireValueText);
    w->PutString(v.AsText());
  }
}

Status ReadValue(WireReader& r, Value* v) {
  uint8_t kind;
  if (!r.ReadU8(&kind)) return Truncated("mutate request");
  switch (kind) {
    case kWireValueNull:
      *v = Value::Null();
      return Status::OK();
    case kWireValueInt: {
      int64_t i;
      if (!r.ReadI64(&i)) return Truncated("mutate request");
      *v = Value::Int(i);
      return Status::OK();
    }
    case kWireValueText: {
      std::string s;
      if (!r.ReadString(&s)) return Truncated("mutate request");
      *v = Value::Text(std::move(s));
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("mutate request: bad value kind");
  }
}

}  // namespace

std::string EncodeMutateRequestFrame(const NetMutateRequest& req,
                                     uint64_t request_id) {
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(req.mutations.size()));
  for (const Mutation& m : req.mutations) {
    w.PutU8(static_cast<uint8_t>(m.op));
    w.PutString(m.table);
    switch (m.op) {
      case Mutation::Op::kInsertRow:
        w.PutU32(static_cast<uint32_t>(m.values.size()));
        for (const Value& v : m.values) AppendValue(v, &w);
        break;
      case Mutation::Op::kDeleteRow:
        w.PutI64(m.pk);
        break;
      case Mutation::Op::kUpdateCell:
        w.PutI64(m.pk);
        w.PutString(m.column);
        AppendValue(m.value, &w);
        break;
    }
  }
  return FinishFrame(FrameType::kMutateRequest, request_id, w.Take());
}

Status DecodeMutateRequest(std::string_view payload, NetMutateRequest* req) {
  WireReader r(payload);
  uint32_t count;
  if (!r.ReadU32(&count)) return Truncated("mutate request");
  if (count > kMaxWireMutations) {
    return Status::InvalidArgument("mutate request: too many operations");
  }
  req->mutations.clear();
  req->mutations.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Mutation m;
    uint8_t op;
    if (!r.ReadU8(&op) || !r.ReadString(&m.table)) {
      return Truncated("mutate request");
    }
    if (op > static_cast<uint8_t>(Mutation::Op::kUpdateCell)) {
      return Status::InvalidArgument("mutate request: bad op");
    }
    m.op = static_cast<Mutation::Op>(op);
    switch (m.op) {
      case Mutation::Op::kInsertRow: {
        uint32_t nvals;
        if (!r.ReadU32(&nvals)) return Truncated("mutate request");
        if (nvals > kMaxWireMutationValues) {
          return Status::InvalidArgument("mutate request: too many values");
        }
        m.values.reserve(nvals);
        for (uint32_t j = 0; j < nvals; ++j) {
          Value v;
          S4_RETURN_IF_ERROR(ReadValue(r, &v));
          m.values.push_back(std::move(v));
        }
        break;
      }
      case Mutation::Op::kDeleteRow:
        if (!r.ReadI64(&m.pk)) return Truncated("mutate request");
        break;
      case Mutation::Op::kUpdateCell:
        if (!r.ReadI64(&m.pk) || !r.ReadString(&m.column)) {
          return Truncated("mutate request");
        }
        S4_RETURN_IF_ERROR(ReadValue(r, &m.value));
        break;
    }
    req->mutations.push_back(std::move(m));
  }
  if (!r.Exhausted()) {
    return Status::InvalidArgument(
        "trailing bytes after mutate request payload");
  }
  return Status::OK();
}

std::string EncodeMutateResponseFrame(const NetMutateResponse& resp,
                                      uint64_t request_id) {
  WireWriter w;
  w.PutI64(resp.applied);
  w.PutU64(resp.epoch);
  w.PutU8(resp.interrupted ? 1 : 0);
  w.PutString(resp.error);
  w.PutU32(static_cast<uint32_t>(resp.touched.size()));
  for (int32_t t : resp.touched) w.PutI32(t);
  w.PutDouble(resp.server_seconds);
  return FinishFrame(FrameType::kMutateResponse, request_id, w.Take());
}

Status DecodeMutateResponse(std::string_view payload,
                            NetMutateResponse* resp) {
  WireReader r(payload);
  uint8_t interrupted;
  uint32_t touched_count;
  if (!r.ReadI64(&resp->applied) || !r.ReadU64(&resp->epoch) ||
      !r.ReadU8(&interrupted) || !r.ReadString(&resp->error) ||
      !r.ReadU32(&touched_count)) {
    return Truncated("mutate response");
  }
  resp->interrupted = interrupted != 0;
  // Touched tables are capped like mutations: a batch cannot touch more
  // relations than it has operations.
  if (touched_count > kMaxWireMutations) {
    return Status::InvalidArgument("mutate response: too many tables");
  }
  resp->touched.clear();
  resp->touched.reserve(touched_count);
  for (uint32_t i = 0; i < touched_count; ++i) {
    int32_t t;
    if (!r.ReadI32(&t)) return Truncated("mutate response");
    resp->touched.push_back(t);
  }
  if (!r.ReadDouble(&resp->server_seconds)) {
    return Truncated("mutate response");
  }
  if (!r.Exhausted()) {
    return Status::InvalidArgument(
        "trailing bytes after mutate response payload");
  }
  return Status::OK();
}

}  // namespace s4::net
