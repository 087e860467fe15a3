// Wire codec tests: randomized round-trip properties over requests and
// responses (scores must survive bit-exactly), rejection of truncated
// frames and garbage prefixes, and a deterministic fuzz corpus run
// against every decoder. The fuzz suites are part of the asan CI filter:
// a decoder fed hostile bytes must return a Status, never touch memory
// it does not own.
#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/wire.h"

namespace s4::net {
namespace {

// A random byte string, including NUL and high bytes (cells are
// arbitrary user text as far as the wire is concerned).
std::string RandomBytes(Rng& rng, size_t max_len) {
  std::string s(rng.Uniform(max_len + 1), '\0');
  for (char& c : s) c = static_cast<char>(rng.Uniform(256));
  return s;
}

// Doubles whose bit patterns stress the codec: specials, denormals, and
// random bit patterns (which may be NaN — compared bitwise below).
double RandomDouble(Rng& rng) {
  switch (rng.Uniform(6)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return std::numeric_limits<double>::infinity();
    case 3:
      return std::numeric_limits<double>::denorm_min();
    case 4:
      return rng.NextDouble();
    default:
      return std::bit_cast<double>(rng.Next());
  }
}

// Bitwise equality: the protocol promise is bit-identical doubles, which
// operator== cannot check (NaN != NaN, -0.0 == 0.0).
::testing::AssertionResult BitEqual(double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in bits";
}

NetSearchRequest RandomRequest(Rng& rng) {
  NetSearchRequest req;
  // Rectangular: the encoder normalizes every row to row 0's width, so
  // only rectangles round-trip verbatim (as the spreadsheet model
  // requires anyway).
  const size_t rows = rng.Uniform(5);
  const size_t cols = rows == 0 ? 0 : 1 + rng.Uniform(4);
  req.cells.assign(rows, std::vector<std::string>(cols));
  for (auto& row : req.cells) {
    for (auto& cell : row) cell = RandomBytes(rng, 24);
  }
  req.strategy = static_cast<uint8_t>(rng.Uniform(3));
  req.priority = static_cast<int32_t>(rng.Next());
  req.deadline_seconds = RandomDouble(rng);
  req.k = static_cast<int32_t>(rng.Next());
  req.alpha = RandomDouble(rng);
  req.epsilon = RandomDouble(rng);
  req.use_idf = rng.Bernoulli(0.5);
  req.exact_match_bonus = RandomDouble(rng);
  req.spelling_edits = static_cast<int32_t>(rng.Next());
  req.drop_zero_rows = rng.Bernoulli(0.5);
  req.num_threads = static_cast<int32_t>(rng.Next());
  req.max_tree_size = static_cast<int32_t>(rng.Next());
  req.cache_budget_bytes = rng.Next();
  // The approx knobs are decode-validated (unlike the legacy fields), so
  // the round-trip corpus draws them from their legal ranges; hostile
  // values get their own rejection test below.
  req.approx_epsilon = rng.NextDouble() * 4.0;
  req.approx_confidence = 0.001 + rng.NextDouble() * 0.999;
  req.sample_budget = 1 + static_cast<int64_t>(rng.Uniform(1u << 20));
  req.rng_seed = rng.Next();
  req.want_profile = rng.Bernoulli(0.5);
  return req;
}

// Every counter-schema field drawn at random, each in its own type (the
// generator derives from the schema, so a new field is covered without
// an edit here).
RunStats RandomStats(Rng& rng) {
  RunStats stats;
  ForEachStat(
      [&](const StatField&, auto& v) {
        using T = std::remove_reference_t<decltype(v)>;
        if constexpr (std::is_floating_point_v<T>) {
          v = RandomDouble(rng);
        } else {
          v = static_cast<T>(rng.Next());
        }
      },
      stats);
  return stats;
}

obs::QueryProfile RandomProfile(Rng& rng) {
  obs::QueryProfile p;
  p.total_seconds = RandomDouble(rng);
  p.queue_seconds = RandomDouble(rng);
  return p;
}

obs::TraceSegment RandomSegment(Rng& rng) {
  obs::TraceSegment seg;
  seg.origin_unix_us = static_cast<int64_t>(rng.Next());
  seg.trace_id = rng.Next();
  const size_t n = rng.Uniform(5);
  for (size_t i = 0; i < n; ++i) {
    obs::TraceSegment::Event e;
    e.category = RandomBytes(rng, 12);
    e.name = RandomBytes(rng, 24);
    e.ts_us = static_cast<int64_t>(rng.Next());
    e.dur_us = static_cast<int64_t>(rng.Next());
    e.tid = static_cast<uint32_t>(rng.Next());
    e.span_id = rng.Next();
    e.parent_id = rng.Next();
    const size_t nargs = rng.Uniform(3);
    for (size_t a = 0; a < nargs; ++a) {
      e.args.push_back({RandomBytes(rng, 8), RandomBytes(rng, 16)});
    }
    seg.events.push_back(std::move(e));
  }
  return seg;
}

NetSearchResponse RandomResponse(Rng& rng) {
  NetSearchResponse resp;
  const size_t n = rng.Uniform(6);
  for (size_t i = 0; i < n; ++i) {
    NetTopkEntry e;
    e.signature = RandomBytes(rng, 40);
    e.sql = RandomBytes(rng, 120);
    e.score = RandomDouble(rng);
    e.upper_bound = RandomDouble(rng);
    e.row_score = RandomDouble(rng);
    e.column_score = RandomDouble(rng);
    e.approximate = rng.Bernoulli(0.5);
    e.interval_lo = RandomDouble(rng);
    e.interval_hi = RandomDouble(rng);
    e.interval_confidence = RandomDouble(rng);
    e.support = static_cast<int64_t>(rng.Next());
    e.sampled = static_cast<int64_t>(rng.Next());
    resp.topk.push_back(std::move(e));
  }
  resp.interrupted = rng.Bernoulli(0.5);
  resp.approximate = rng.Bernoulli(0.5);
  resp.stats = RandomStats(rng);
  resp.server_seconds = RandomDouble(rng);
  resp.has_profile = rng.Bernoulli(0.5);
  if (resp.has_profile) resp.profile = RandomProfile(rng);
  return resp;
}

NetShardSearchRequest RandomShardRequest(Rng& rng) {
  NetShardSearchRequest req;
  req.base = RandomRequest(rng);
  req.shard_count = 1 + static_cast<int32_t>(rng.Uniform(kMaxWireShards));
  req.shard_index =
      static_cast<int32_t>(rng.Uniform(static_cast<uint64_t>(req.shard_count)));
  req.partial_every = static_cast<uint32_t>(rng.Uniform(16));
  req.want_trace = rng.Bernoulli(0.5);
  req.trace_id = rng.Next();
  req.parent_span_id = rng.Next();
  req.origin_unix_us = static_cast<int64_t>(rng.Next());
  return req;
}

NetShardPartial RandomShardPartial(Rng& rng) {
  NetShardPartial p;
  const size_t n = rng.Uniform(6);
  for (size_t i = 0; i < n; ++i) {
    NetTopkEntry e;
    e.signature = RandomBytes(rng, 40);
    e.sql = RandomBytes(rng, 60);
    e.score = RandomDouble(rng);
    e.upper_bound = RandomDouble(rng);
    e.row_score = RandomDouble(rng);
    e.column_score = RandomDouble(rng);
    p.topk.push_back(std::move(e));
  }
  p.remaining_upper_bound = RandomDouble(rng);
  p.enumerated = static_cast<int64_t>(rng.Next());
  p.evaluated = static_cast<int64_t>(rng.Next());
  p.batches = static_cast<int64_t>(rng.Next());
  return p;
}

NetShardDone RandomShardDone(Rng& rng) {
  NetShardDone done;
  done.response = RandomResponse(rng);
  done.remaining_upper_bound = RandomDouble(rng);
  done.has_segment = rng.Bernoulli(0.5);
  if (done.has_segment) done.segment = RandomSegment(rng);
  return done;
}

Value RandomValue(Rng& rng) {
  switch (rng.Uniform(3)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Int(static_cast<int64_t>(rng.Next()));
    default:
      return Value::Text(RandomBytes(rng, 32));
  }
}

NetMutateRequest RandomMutateRequest(Rng& rng) {
  NetMutateRequest req;
  const size_t n = rng.Uniform(6);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.Uniform(3)) {
      case 0: {
        std::vector<Value> values;
        const size_t nv = rng.Uniform(5);
        for (size_t j = 0; j < nv; ++j) values.push_back(RandomValue(rng));
        req.mutations.push_back(
            Mutation::Insert(RandomBytes(rng, 16), std::move(values)));
        break;
      }
      case 1:
        req.mutations.push_back(Mutation::Delete(
            RandomBytes(rng, 16), static_cast<int64_t>(rng.Next())));
        break;
      default:
        req.mutations.push_back(Mutation::Update(
            RandomBytes(rng, 16), static_cast<int64_t>(rng.Next()),
            RandomBytes(rng, 16), RandomValue(rng)));
        break;
    }
  }
  return req;
}

NetMutateResponse RandomMutateResponse(Rng& rng) {
  NetMutateResponse resp;
  resp.applied = static_cast<int64_t>(rng.Next());
  resp.epoch = rng.Next();
  resp.interrupted = rng.Bernoulli(0.5);
  resp.error = RandomBytes(rng, 48);
  const size_t n = rng.Uniform(5);
  for (size_t i = 0; i < n; ++i) {
    resp.touched.push_back(static_cast<int32_t>(rng.Next()));
  }
  resp.server_seconds = RandomDouble(rng);
  return resp;
}

TEST(WireCodecTest, HeaderRoundTrip) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    FrameHeader h;
    h.type = static_cast<FrameType>(
        1 + rng.Uniform(static_cast<uint64_t>(FrameType::kSlowLogResponse)));
    h.request_id = rng.Next();
    h.payload_len = static_cast<uint32_t>(rng.Next());
    std::string buf;
    AppendFrameHeader(h, &buf);
    ASSERT_EQ(buf.size(), kHeaderBytes);
    FrameHeader got;
    ASSERT_TRUE(DecodeFrameHeader(buf, &got).ok());
    EXPECT_EQ(got.version, kProtocolVersion);
    EXPECT_EQ(got.type, h.type);
    EXPECT_EQ(got.request_id, h.request_id);
    EXPECT_EQ(got.payload_len, h.payload_len);
  }
}

TEST(WireCodecTest, RequestRoundTripProperty) {
  Rng rng(42);
  for (int i = 0; i < 300; ++i) {
    const NetSearchRequest req = RandomRequest(rng);
    const uint64_t id = rng.Next();
    const std::string frame = EncodeSearchRequestFrame(req, id);

    FrameHeader h;
    ASSERT_TRUE(DecodeFrameHeader(frame, &h).ok());
    EXPECT_EQ(h.type, FrameType::kSearchRequest);
    EXPECT_EQ(h.request_id, id);
    ASSERT_EQ(frame.size(), kHeaderBytes + h.payload_len);

    NetSearchRequest got;
    const Status st = DecodeSearchRequest(
        std::string_view(frame).substr(kHeaderBytes), &got);
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_EQ(got.cells, req.cells);
    EXPECT_EQ(got.strategy, req.strategy);
    EXPECT_EQ(got.priority, req.priority);
    EXPECT_TRUE(BitEqual(got.deadline_seconds, req.deadline_seconds));
    EXPECT_EQ(got.k, req.k);
    EXPECT_TRUE(BitEqual(got.alpha, req.alpha));
    EXPECT_TRUE(BitEqual(got.epsilon, req.epsilon));
    EXPECT_EQ(got.use_idf, req.use_idf);
    EXPECT_TRUE(BitEqual(got.exact_match_bonus, req.exact_match_bonus));
    EXPECT_EQ(got.spelling_edits, req.spelling_edits);
    EXPECT_EQ(got.drop_zero_rows, req.drop_zero_rows);
    EXPECT_EQ(got.num_threads, req.num_threads);
    EXPECT_EQ(got.max_tree_size, req.max_tree_size);
    EXPECT_EQ(got.cache_budget_bytes, req.cache_budget_bytes);
    EXPECT_TRUE(BitEqual(got.approx_epsilon, req.approx_epsilon));
    EXPECT_TRUE(BitEqual(got.approx_confidence, req.approx_confidence));
    EXPECT_EQ(got.sample_budget, req.sample_budget);
    EXPECT_EQ(got.rng_seed, req.rng_seed);
    EXPECT_EQ(got.want_profile, req.want_profile);
  }
}

// Every schema field, bitwise (doubles included), shared by the response
// and shard-done round-trip suites.
void ExpectStatsEq(const RunStats& got, const RunStats& want) {
  ForEachStat(
      [](const StatField& f, const auto& g, const auto& w) {
        EXPECT_EQ(std::memcmp(&g, &w, sizeof(g)), 0) << f.name;
      },
      got, want);
}

void ExpectProfileEq(const obs::QueryProfile& got,
                     const obs::QueryProfile& want) {
  EXPECT_TRUE(BitEqual(got.total_seconds, want.total_seconds));
  EXPECT_TRUE(BitEqual(got.queue_seconds, want.queue_seconds));
}

void ExpectSegmentEq(const obs::TraceSegment& got,
                     const obs::TraceSegment& want) {
  EXPECT_EQ(got.origin_unix_us, want.origin_unix_us);
  EXPECT_EQ(got.trace_id, want.trace_id);
  ASSERT_EQ(got.events.size(), want.events.size());
  for (size_t i = 0; i < want.events.size(); ++i) {
    EXPECT_EQ(got.events[i].category, want.events[i].category);
    EXPECT_EQ(got.events[i].name, want.events[i].name);
    EXPECT_EQ(got.events[i].ts_us, want.events[i].ts_us);
    EXPECT_EQ(got.events[i].dur_us, want.events[i].dur_us);
    EXPECT_EQ(got.events[i].tid, want.events[i].tid);
    EXPECT_EQ(got.events[i].span_id, want.events[i].span_id);
    EXPECT_EQ(got.events[i].parent_id, want.events[i].parent_id);
    ASSERT_EQ(got.events[i].args.size(), want.events[i].args.size());
    for (size_t a = 0; a < want.events[i].args.size(); ++a) {
      EXPECT_EQ(got.events[i].args[a].key, want.events[i].args[a].key);
      EXPECT_EQ(got.events[i].args[a].value, want.events[i].args[a].value);
    }
  }
}

TEST(WireCodecTest, ResponseRoundTripProperty) {
  Rng rng(43);
  for (int i = 0; i < 300; ++i) {
    const NetSearchResponse resp = RandomResponse(rng);
    const uint64_t id = rng.Next();
    const std::string frame = EncodeSearchResponseFrame(resp, id);

    FrameHeader h;
    ASSERT_TRUE(DecodeFrameHeader(frame, &h).ok());
    EXPECT_EQ(h.type, FrameType::kSearchResponse);
    EXPECT_EQ(h.request_id, id);

    NetSearchResponse got;
    const Status st = DecodeSearchResponse(
        std::string_view(frame).substr(kHeaderBytes), &got);
    ASSERT_TRUE(st.ok()) << st;
    ASSERT_EQ(got.topk.size(), resp.topk.size());
    for (size_t j = 0; j < resp.topk.size(); ++j) {
      EXPECT_EQ(got.topk[j].signature, resp.topk[j].signature);
      EXPECT_EQ(got.topk[j].sql, resp.topk[j].sql);
      EXPECT_TRUE(BitEqual(got.topk[j].score, resp.topk[j].score));
      EXPECT_TRUE(BitEqual(got.topk[j].upper_bound, resp.topk[j].upper_bound));
      EXPECT_TRUE(BitEqual(got.topk[j].row_score, resp.topk[j].row_score));
      EXPECT_TRUE(
          BitEqual(got.topk[j].column_score, resp.topk[j].column_score));
      EXPECT_EQ(got.topk[j].approximate, resp.topk[j].approximate);
      EXPECT_TRUE(BitEqual(got.topk[j].interval_lo, resp.topk[j].interval_lo));
      EXPECT_TRUE(BitEqual(got.topk[j].interval_hi, resp.topk[j].interval_hi));
      EXPECT_TRUE(BitEqual(got.topk[j].interval_confidence,
                           resp.topk[j].interval_confidence));
      EXPECT_EQ(got.topk[j].support, resp.topk[j].support);
      EXPECT_EQ(got.topk[j].sampled, resp.topk[j].sampled);
    }
    EXPECT_EQ(got.interrupted, resp.interrupted);
    EXPECT_EQ(got.approximate, resp.approximate);
    ExpectStatsEq(got.stats, resp.stats);
    EXPECT_TRUE(BitEqual(got.server_seconds, resp.server_seconds));
    ASSERT_EQ(got.has_profile, resp.has_profile);
    if (resp.has_profile) ExpectProfileEq(got.profile, resp.profile);
  }
}

TEST(WireCodecTest, ErrorRoundTripAllCodes) {
  const std::vector<Status> statuses = {
      Status::InvalidArgument("bad"),     Status::NotFound("gone"),
      Status::AlreadyExists("dup"),       Status::OutOfRange("far"),
      Status::FailedPrecondition("pre"),  Status::ResourceExhausted("full"),
      Status::Cancelled("stop"),          Status::DeadlineExceeded("late"),
      Status::Internal("boom"),
  };
  for (const Status& s : statuses) {
    const std::string frame = EncodeErrorFrame(s, 77);
    FrameHeader h;
    ASSERT_TRUE(DecodeFrameHeader(frame, &h).ok());
    EXPECT_EQ(h.type, FrameType::kError);
    NetError err;
    ASSERT_TRUE(
        DecodeError(std::string_view(frame).substr(kHeaderBytes), &err).ok());
    const Status back = err.ToStatus();
    EXPECT_EQ(back.code(), s.code());
    EXPECT_EQ(back.message(), s.message());
    // The retryable hint is the error-mapping table's one policy bit:
    // only backpressure is worth a verbatim retry.
    EXPECT_EQ(err.retryable, s.code() == StatusCode::kResourceExhausted);
  }
}

TEST(WireCodecTest, PingPongFrames) {
  for (uint64_t id : {uint64_t{0}, uint64_t{1}, ~uint64_t{0}}) {
    FrameHeader h;
    ASSERT_TRUE(DecodeFrameHeader(EncodePingFrame(id), &h).ok());
    EXPECT_EQ(h.type, FrameType::kPing);
    EXPECT_EQ(h.request_id, id);
    EXPECT_EQ(h.payload_len, 0u);
    ASSERT_TRUE(DecodeFrameHeader(EncodePongFrame(id), &h).ok());
    EXPECT_EQ(h.type, FrameType::kPong);
  }
}

TEST(WireCodecTest, StatsAndTraceFrames) {
  // kStatsRequest: empty payload, id echoed.
  FrameHeader h;
  ASSERT_TRUE(DecodeFrameHeader(EncodeStatsRequestFrame(11), &h).ok());
  EXPECT_EQ(h.type, FrameType::kStatsRequest);
  EXPECT_EQ(h.request_id, 11u);
  EXPECT_EQ(h.payload_len, 0u);

  // Responses carry raw text bytes verbatim (no re-encoding).
  const std::string text = "# TYPE s4_searches_total counter\n"
                           "s4_searches_total 3\n";
  const std::string stats_frame = EncodeStatsResponseFrame(text, 12);
  ASSERT_TRUE(DecodeFrameHeader(stats_frame, &h).ok());
  EXPECT_EQ(h.type, FrameType::kStatsResponse);
  EXPECT_EQ(h.payload_len, text.size());
  EXPECT_EQ(stats_frame.substr(kHeaderBytes), text);

  const std::string json = "{\"traceEvents\":[]}";
  const std::string trace_frame = EncodeTraceResponseFrame(json, 13);
  ASSERT_TRUE(DecodeFrameHeader(trace_frame, &h).ok());
  EXPECT_EQ(h.type, FrameType::kTraceResponse);
  EXPECT_EQ(trace_frame.substr(kHeaderBytes), json);

  // kTraceRequest: the *target* id travels in the payload; the header id
  // identifies this exchange (RoundTrip matches on the echo).
  for (uint64_t target : {uint64_t{0}, uint64_t{42}, ~uint64_t{0}}) {
    const std::string frame = EncodeTraceRequestFrame(target, 14);
    ASSERT_TRUE(DecodeFrameHeader(frame, &h).ok());
    EXPECT_EQ(h.type, FrameType::kTraceRequest);
    EXPECT_EQ(h.request_id, 14u);
    uint64_t got = 1;
    ASSERT_TRUE(DecodeTraceRequest(
                    std::string_view(frame).substr(kHeaderBytes), &got)
                    .ok());
    EXPECT_EQ(got, target);
  }

  // Truncated / padded trace-request payloads are rejected.
  const std::string frame = EncodeTraceRequestFrame(42, 15);
  const std::string_view payload =
      std::string_view(frame).substr(kHeaderBytes);
  for (size_t len = 0; len < payload.size(); ++len) {
    uint64_t got = 0;
    EXPECT_FALSE(DecodeTraceRequest(payload.substr(0, len), &got).ok());
  }
  std::string padded(payload);
  padded.push_back('\0');
  uint64_t got = 0;
  EXPECT_FALSE(DecodeTraceRequest(padded, &got).ok());
}

TEST(WireCodecTest, ApproxKnobsHostileValuesRejected) {
  // The four approx knobs are the 32 payload bytes just before the
  // trailing want_profile flag (f64 epsilon, f64 confidence, i64 budget,
  // u64 seed); patch them in place on an otherwise-valid frame. Doubles
  // travel as raw bits, so NaN and negative values encode fine and must
  // be caught by the decoder.
  auto reencode = [](double eps, double conf, int64_t budget) {
    NetSearchRequest req;
    req.cells = {{"The Matrix"}};
    std::string frame = EncodeSearchRequestFrame(req, 1);
    WireWriter w;
    w.PutDouble(eps);
    w.PutDouble(conf);
    w.PutI64(budget);
    w.PutU64(req.rng_seed);
    frame.replace(frame.size() - 33, 32, w.data());
    NetSearchRequest got;
    return DecodeSearchRequest(
        std::string_view(frame).substr(kHeaderBytes), &got);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(reencode(0.0, 0.95, 4096).ok());
  EXPECT_TRUE(reencode(0.05, 1.0, 1).ok());
  EXPECT_FALSE(reencode(-0.1, 0.95, 4096).ok());  // negative epsilon
  EXPECT_FALSE(reencode(nan, 0.95, 4096).ok());   // NaN epsilon
  EXPECT_FALSE(reencode(kMaxWireApproxEpsilon * 2, 0.95, 4096).ok());
  EXPECT_FALSE(reencode(0.0, 0.0, 4096).ok());    // confidence = 0
  EXPECT_FALSE(reencode(0.0, -0.5, 4096).ok());   // negative confidence
  EXPECT_FALSE(reencode(0.0, 1.5, 4096).ok());    // confidence > 1
  EXPECT_FALSE(reencode(0.0, nan, 4096).ok());    // NaN confidence
  EXPECT_FALSE(reencode(0.0, 0.95, 0).ok());      // zero budget
  EXPECT_FALSE(reencode(0.0, 0.95, -7).ok());     // negative budget
  EXPECT_FALSE(reencode(0.0, 0.95, kMaxWireSampleBudget + 1).ok());
}

TEST(WireCodecTest, TruncatedRequestEveryPrefixRejected) {
  Rng rng(7);
  const NetSearchRequest req = RandomRequest(rng);
  const std::string frame = EncodeSearchRequestFrame(req, 5);
  const std::string_view payload = std::string_view(frame).substr(kHeaderBytes);
  // Every strict prefix of a valid payload must fail to decode: the
  // format has no optional tail, so truncation is always detectable.
  for (size_t len = 0; len < payload.size(); ++len) {
    NetSearchRequest got;
    EXPECT_FALSE(DecodeSearchRequest(payload.substr(0, len), &got).ok())
        << "prefix of " << len << " bytes decoded";
  }
  // And bytes beyond the payload are trailing garbage, also rejected.
  std::string padded(payload);
  padded.push_back('\0');
  NetSearchRequest got;
  EXPECT_FALSE(DecodeSearchRequest(padded, &got).ok());
}

TEST(WireCodecTest, TruncatedResponseEveryPrefixRejected) {
  Rng rng(9);
  NetSearchResponse resp = RandomResponse(rng);
  // Force the optional profile tail on so truncation mid-profile is
  // exercised too.
  resp.has_profile = true;
  resp.profile = RandomProfile(rng);
  const std::string frame = EncodeSearchResponseFrame(resp, 6);
  const std::string_view payload = std::string_view(frame).substr(kHeaderBytes);
  for (size_t len = 0; len < payload.size(); ++len) {
    NetSearchResponse got;
    EXPECT_FALSE(DecodeSearchResponse(payload.substr(0, len), &got).ok())
        << "prefix of " << len << " bytes decoded";
  }
}

// --- scatter-gather shard frames ---------------------------------------

TEST(WireCodecTest, ShardRequestRoundTripProperty) {
  Rng rng(51);
  for (int i = 0; i < 300; ++i) {
    const NetShardSearchRequest req = RandomShardRequest(rng);
    const uint64_t id = rng.Next();
    const std::string frame = EncodeShardSearchRequestFrame(req, id);
    FrameHeader h;
    ASSERT_TRUE(DecodeFrameHeader(frame, &h).ok());
    EXPECT_EQ(h.type, FrameType::kShardSearchRequest);
    EXPECT_EQ(h.request_id, id);
    NetShardSearchRequest got;
    const Status st = DecodeShardSearchRequest(
        std::string_view(frame).substr(kHeaderBytes), &got);
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_EQ(got.shard_count, req.shard_count);
    EXPECT_EQ(got.shard_index, req.shard_index);
    EXPECT_EQ(got.partial_every, req.partial_every);
    EXPECT_EQ(got.want_trace, req.want_trace);
    EXPECT_EQ(got.trace_id, req.trace_id);
    EXPECT_EQ(got.parent_span_id, req.parent_span_id);
    EXPECT_EQ(got.origin_unix_us, req.origin_unix_us);
    EXPECT_EQ(got.base.want_profile, req.base.want_profile);
    EXPECT_EQ(got.base.cells, req.base.cells);
    EXPECT_EQ(got.base.strategy, req.base.strategy);
    EXPECT_EQ(got.base.k, req.base.k);
    EXPECT_TRUE(BitEqual(got.base.deadline_seconds,
                         req.base.deadline_seconds));
    EXPECT_TRUE(BitEqual(got.base.alpha, req.base.alpha));
    EXPECT_TRUE(BitEqual(got.base.epsilon, req.base.epsilon));
  }
}

TEST(WireCodecTest, ShardPartialRoundTripProperty) {
  Rng rng(52);
  for (int i = 0; i < 300; ++i) {
    const NetShardPartial p = RandomShardPartial(rng);
    const std::string frame = EncodeShardPartialFrame(p, 9);
    FrameHeader h;
    ASSERT_TRUE(DecodeFrameHeader(frame, &h).ok());
    EXPECT_EQ(h.type, FrameType::kShardPartial);
    NetShardPartial got;
    const Status st =
        DecodeShardPartial(std::string_view(frame).substr(kHeaderBytes), &got);
    ASSERT_TRUE(st.ok()) << st;
    ASSERT_EQ(got.topk.size(), p.topk.size());
    for (size_t j = 0; j < p.topk.size(); ++j) {
      EXPECT_EQ(got.topk[j].signature, p.topk[j].signature);
      EXPECT_TRUE(BitEqual(got.topk[j].score, p.topk[j].score));
      EXPECT_TRUE(BitEqual(got.topk[j].upper_bound, p.topk[j].upper_bound));
    }
    EXPECT_TRUE(
        BitEqual(got.remaining_upper_bound, p.remaining_upper_bound));
    EXPECT_EQ(got.enumerated, p.enumerated);
    EXPECT_EQ(got.evaluated, p.evaluated);
    EXPECT_EQ(got.batches, p.batches);
  }
}

TEST(WireCodecTest, ShardDoneRoundTripProperty) {
  Rng rng(53);
  for (int i = 0; i < 300; ++i) {
    const NetShardDone done = RandomShardDone(rng);
    const std::string frame = EncodeShardDoneFrame(done, 4);
    FrameHeader h;
    ASSERT_TRUE(DecodeFrameHeader(frame, &h).ok());
    EXPECT_EQ(h.type, FrameType::kShardDone);
    NetShardDone got;
    const Status st =
        DecodeShardDone(std::string_view(frame).substr(kHeaderBytes), &got);
    ASSERT_TRUE(st.ok()) << st;
    ASSERT_EQ(got.response.topk.size(), done.response.topk.size());
    for (size_t j = 0; j < done.response.topk.size(); ++j) {
      EXPECT_EQ(got.response.topk[j].signature,
                done.response.topk[j].signature);
      EXPECT_TRUE(
          BitEqual(got.response.topk[j].score, done.response.topk[j].score));
    }
    EXPECT_EQ(got.response.interrupted, done.response.interrupted);
    ExpectStatsEq(got.response.stats, done.response.stats);
    ASSERT_EQ(got.response.has_profile, done.response.has_profile);
    if (done.response.has_profile) {
      ExpectProfileEq(got.response.profile, done.response.profile);
    }
    EXPECT_TRUE(
        BitEqual(got.remaining_upper_bound, done.remaining_upper_bound));
    ASSERT_EQ(got.has_segment, done.has_segment);
    if (done.has_segment) ExpectSegmentEq(got.segment, done.segment);
  }
}

TEST(WireCodecTest, ShardStopRoundTrip) {
  for (uint64_t target : {uint64_t{0}, uint64_t{42}, ~uint64_t{0}}) {
    const std::string frame = EncodeShardStopFrame(target, 19);
    FrameHeader h;
    ASSERT_TRUE(DecodeFrameHeader(frame, &h).ok());
    EXPECT_EQ(h.type, FrameType::kShardStop);
    EXPECT_EQ(h.request_id, 19u);
    uint64_t got = 1;
    ASSERT_TRUE(
        DecodeShardStop(std::string_view(frame).substr(kHeaderBytes), &got)
            .ok());
    EXPECT_EQ(got, target);
  }
}

TEST(WireCodecTest, ShardRequestBadSliceRejected) {
  auto reencode = [](int32_t count, int32_t index) {
    NetShardSearchRequest req;
    req.shard_count = 1;  // encode with a valid slice, then patch bytes
    req.shard_index = 0;
    std::string frame = EncodeShardSearchRequestFrame(req, 1);
    // Payload layout: i32 shard_count, i32 shard_index, ...
    memcpy(frame.data() + kHeaderBytes, &count, sizeof(count));
    memcpy(frame.data() + kHeaderBytes + 4, &index, sizeof(index));
    NetShardSearchRequest got;
    return DecodeShardSearchRequest(
        std::string_view(frame).substr(kHeaderBytes), &got);
  };
  EXPECT_FALSE(reencode(0, 0).ok());                  // no shards
  EXPECT_FALSE(reencode(-4, 0).ok());                 // negative count
  EXPECT_FALSE(reencode(kMaxWireShards + 1, 0).ok()); // over the cap
  EXPECT_FALSE(reencode(4, 4).ok());                  // index out of range
  EXPECT_FALSE(reencode(4, -1).ok());                 // negative index
  EXPECT_TRUE(reencode(4, 3).ok());
}

TEST(WireCodecTest, TruncatedShardFramesEveryPrefixRejected) {
  Rng rng(57);
  // Force the optional trace segment on so truncation inside the stitch
  // payload is exercised regardless of what the seed draws.
  NetShardDone done = RandomShardDone(rng);
  done.has_segment = true;
  done.segment = RandomSegment(rng);
  const std::string frames[] = {
      EncodeShardSearchRequestFrame(RandomShardRequest(rng), 1),
      EncodeShardPartialFrame(RandomShardPartial(rng), 2),
      EncodeShardDoneFrame(done, 3),
      EncodeShardStopFrame(77, 4),
  };
  for (const std::string& frame : frames) {
    FrameHeader h;
    ASSERT_TRUE(DecodeFrameHeader(frame, &h).ok());
    const std::string_view payload =
        std::string_view(frame).substr(kHeaderBytes);
    for (size_t len = 0; len < payload.size(); ++len) {
      const std::string_view prefix = payload.substr(0, len);
      switch (h.type) {
        case FrameType::kShardSearchRequest: {
          NetShardSearchRequest got;
          EXPECT_FALSE(DecodeShardSearchRequest(prefix, &got).ok())
              << "prefix of " << len << " bytes decoded";
          break;
        }
        case FrameType::kShardPartial: {
          NetShardPartial got;
          EXPECT_FALSE(DecodeShardPartial(prefix, &got).ok())
              << "prefix of " << len << " bytes decoded";
          break;
        }
        case FrameType::kShardDone: {
          NetShardDone got;
          EXPECT_FALSE(DecodeShardDone(prefix, &got).ok())
              << "prefix of " << len << " bytes decoded";
          break;
        }
        default: {
          uint64_t got = 0;
          EXPECT_FALSE(DecodeShardStop(prefix, &got).ok())
              << "prefix of " << len << " bytes decoded";
          break;
        }
      }
    }
    // Trailing garbage is rejected too: no frame has an optional tail.
    std::string padded(payload);
    padded.push_back('\0');
    switch (h.type) {
      case FrameType::kShardSearchRequest: {
        NetShardSearchRequest got;
        EXPECT_FALSE(DecodeShardSearchRequest(padded, &got).ok());
        break;
      }
      case FrameType::kShardPartial: {
        NetShardPartial got;
        EXPECT_FALSE(DecodeShardPartial(padded, &got).ok());
        break;
      }
      case FrameType::kShardDone: {
        NetShardDone got;
        EXPECT_FALSE(DecodeShardDone(padded, &got).ok());
        break;
      }
      default: {
        uint64_t got = 0;
        EXPECT_FALSE(DecodeShardStop(padded, &got).ok());
        break;
      }
    }
  }
}

// --- live mutation frames ----------------------------------------------

TEST(WireCodecTest, MutateRequestRoundTripProperty) {
  Rng rng(61);
  for (int i = 0; i < 300; ++i) {
    const NetMutateRequest req = RandomMutateRequest(rng);
    const uint64_t id = rng.Next();
    const std::string frame = EncodeMutateRequestFrame(req, id);
    FrameHeader h;
    ASSERT_TRUE(DecodeFrameHeader(frame, &h).ok());
    EXPECT_EQ(h.type, FrameType::kMutateRequest);
    EXPECT_EQ(h.request_id, id);
    NetMutateRequest got;
    const Status st = DecodeMutateRequest(
        std::string_view(frame).substr(kHeaderBytes), &got);
    ASSERT_TRUE(st.ok()) << st;
    ASSERT_EQ(got.mutations.size(), req.mutations.size());
    for (size_t j = 0; j < req.mutations.size(); ++j) {
      const Mutation& a = req.mutations[j];
      const Mutation& b = got.mutations[j];
      EXPECT_EQ(b.op, a.op);
      EXPECT_EQ(b.table, a.table);
      switch (a.op) {
        case Mutation::Op::kInsertRow:
          ASSERT_EQ(b.values.size(), a.values.size());
          for (size_t v = 0; v < a.values.size(); ++v) {
            EXPECT_TRUE(b.values[v] == a.values[v]);
          }
          break;
        case Mutation::Op::kDeleteRow:
          EXPECT_EQ(b.pk, a.pk);
          break;
        case Mutation::Op::kUpdateCell:
          EXPECT_EQ(b.pk, a.pk);
          EXPECT_EQ(b.column, a.column);
          EXPECT_TRUE(b.value == a.value);
          break;
      }
    }
  }
}

TEST(WireCodecTest, MutateResponseRoundTripProperty) {
  Rng rng(62);
  for (int i = 0; i < 300; ++i) {
    const NetMutateResponse resp = RandomMutateResponse(rng);
    const std::string frame = EncodeMutateResponseFrame(resp, 8);
    FrameHeader h;
    ASSERT_TRUE(DecodeFrameHeader(frame, &h).ok());
    EXPECT_EQ(h.type, FrameType::kMutateResponse);
    NetMutateResponse got;
    const Status st = DecodeMutateResponse(
        std::string_view(frame).substr(kHeaderBytes), &got);
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_EQ(got.applied, resp.applied);
    EXPECT_EQ(got.epoch, resp.epoch);
    EXPECT_EQ(got.interrupted, resp.interrupted);
    EXPECT_EQ(got.error, resp.error);
    EXPECT_EQ(got.touched, resp.touched);
    EXPECT_TRUE(BitEqual(got.server_seconds, resp.server_seconds));
  }
}

TEST(WireCodecTest, TruncatedMutateFramesEveryPrefixRejected) {
  Rng rng(63);
  // Use a request with at least one of each op so every branch of the
  // decoder sees truncation.
  NetMutateRequest req;
  req.mutations.push_back(Mutation::Insert(
      "Movie", {Value::Int(7), Value::Text("alpha beta"), Value::Null()}));
  req.mutations.push_back(Mutation::Delete("Movie", 3));
  req.mutations.push_back(
      Mutation::Update("Person", 9, "PersonName", Value::Text("gamma")));
  const std::string frames[] = {
      EncodeMutateRequestFrame(req, 1),
      EncodeMutateResponseFrame(RandomMutateResponse(rng), 2),
  };
  for (const std::string& frame : frames) {
    FrameHeader h;
    ASSERT_TRUE(DecodeFrameHeader(frame, &h).ok());
    const std::string_view payload =
        std::string_view(frame).substr(kHeaderBytes);
    for (size_t len = 0; len < payload.size(); ++len) {
      const std::string_view prefix = payload.substr(0, len);
      if (h.type == FrameType::kMutateRequest) {
        NetMutateRequest got;
        EXPECT_FALSE(DecodeMutateRequest(prefix, &got).ok())
            << "prefix of " << len << " bytes decoded";
      } else {
        NetMutateResponse got;
        EXPECT_FALSE(DecodeMutateResponse(prefix, &got).ok())
            << "prefix of " << len << " bytes decoded";
      }
    }
    std::string padded(payload);
    padded.push_back('\0');
    if (h.type == FrameType::kMutateRequest) {
      NetMutateRequest got;
      EXPECT_FALSE(DecodeMutateRequest(padded, &got).ok());
    } else {
      NetMutateResponse got;
      EXPECT_FALSE(DecodeMutateResponse(padded, &got).ok());
    }
  }
}

TEST(WireCodecTest, MutateRequestHostileFieldsRejected) {
  {
    // Operation count above the cap: rejected before any allocation.
    WireWriter w;
    w.PutU32(kMaxWireMutations + 1);
    NetMutateRequest got;
    const Status st = DecodeMutateRequest(w.data(), &got);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
  {
    // Unknown op tag.
    WireWriter w;
    w.PutU32(1);
    w.PutU8(3);  // ops are 0/1/2
    w.PutString("Movie");
    NetMutateRequest got;
    EXPECT_FALSE(DecodeMutateRequest(w.data(), &got).ok());
  }
  {
    // Insert claiming more values than the cap.
    WireWriter w;
    w.PutU32(1);
    w.PutU8(0);  // kInsertRow
    w.PutString("Movie");
    w.PutU32(kMaxWireMutationValues + 1);
    NetMutateRequest got;
    EXPECT_FALSE(DecodeMutateRequest(w.data(), &got).ok());
  }
  {
    // Unknown value kind tag.
    WireWriter w;
    w.PutU32(1);
    w.PutU8(0);  // kInsertRow
    w.PutString("Movie");
    w.PutU32(1);
    w.PutU8(9);  // kinds are 0/1/2
    NetMutateRequest got;
    EXPECT_FALSE(DecodeMutateRequest(w.data(), &got).ok());
  }
  {
    // Response claiming an absurd touched-table count.
    WireWriter w;
    w.PutI64(1);
    w.PutU64(1);
    w.PutU8(0);
    w.PutString("");
    w.PutU32(kMaxWireMutations + 1);
    NetMutateResponse got;
    EXPECT_FALSE(DecodeMutateResponse(w.data(), &got).ok());
  }
}

// --- slow-log frames ----------------------------------------------------

TEST(WireCodecTest, SlowLogFrames) {
  // kSlowLogRequest: empty payload, id echoed.
  FrameHeader h;
  ASSERT_TRUE(DecodeFrameHeader(EncodeSlowLogRequestFrame(31), &h).ok());
  EXPECT_EQ(h.type, FrameType::kSlowLogRequest);
  EXPECT_EQ(h.request_id, 31u);
  EXPECT_EQ(h.payload_len, 0u);
  EXPECT_TRUE(DecodeSlowLogRequest(std::string_view()).ok());
  // Any payload bytes on the request are trailing garbage.
  EXPECT_FALSE(DecodeSlowLogRequest(std::string_view("\0", 1)).ok());
  EXPECT_FALSE(DecodeSlowLogRequest("x").ok());

  // The response carries the JSON text verbatim (no re-encoding), like
  // the stats/trace responses.
  const std::string json =
      "{\"slow_log\":[{\"seq\":1,\"elapsed_ms\":12.5}]}";
  const std::string frame = EncodeSlowLogResponseFrame(json, 32);
  ASSERT_TRUE(DecodeFrameHeader(frame, &h).ok());
  EXPECT_EQ(h.type, FrameType::kSlowLogResponse);
  EXPECT_EQ(h.request_id, 32u);
  EXPECT_EQ(h.payload_len, json.size());
  EXPECT_EQ(frame.substr(kHeaderBytes), json);
}

// --- hostile profile / trace-segment sections ---------------------------

TEST(WireCodecTest, ProfileHostileFieldsRejected) {
  // has_profile must be a strict boolean: the flag byte is the last
  // payload byte when no profile follows.
  NetSearchResponse resp;
  std::string frame = EncodeSearchResponseFrame(resp, 1);
  frame.back() = 2;
  NetSearchResponse got;
  const Status st = DecodeSearchResponse(
      std::string_view(frame).substr(kHeaderBytes), &got);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(WireCodecTest, SegmentHostileFieldsRejected) {
  {
    // has_segment must be a strict boolean (last payload byte when the
    // segment is absent).
    NetShardDone done;
    std::string frame = EncodeShardDoneFrame(done, 1);
    frame.back() = 2;
    NetShardDone got;
    EXPECT_FALSE(
        DecodeShardDone(std::string_view(frame).substr(kHeaderBytes), &got)
            .ok());
  }
  {
    // Event count above the cap: the u32 count is the last 4 payload
    // bytes when the segment holds no events.
    NetShardDone done;
    done.has_segment = true;
    std::string frame = EncodeShardDoneFrame(done, 2);
    const uint32_t hostile = kMaxWireTraceEvents + 1;
    memcpy(frame.data() + frame.size() - 4, &hostile, sizeof(hostile));
    NetShardDone got;
    EXPECT_FALSE(
        DecodeShardDone(std::string_view(frame).substr(kHeaderBytes), &got)
            .ok());
  }
  {
    // Arg count above the cap: the u32 nargs is the last 4 payload bytes
    // when the final event carries no args.
    NetShardDone done;
    done.has_segment = true;
    obs::TraceSegment::Event e;
    e.category = "net";
    e.name = "frame_decode";
    done.segment.events.push_back(e);
    std::string frame = EncodeShardDoneFrame(done, 3);
    const uint32_t hostile = kMaxWireTraceArgs + 1;
    memcpy(frame.data() + frame.size() - 4, &hostile, sizeof(hostile));
    NetShardDone got;
    EXPECT_FALSE(
        DecodeShardDone(std::string_view(frame).substr(kHeaderBytes), &got)
            .ok());
  }
  {
    // Encoders truncate instead of emitting over-cap counts: a segment
    // with too many events round-trips to the cap, not a decode error.
    NetShardDone done;
    done.has_segment = true;
    obs::TraceSegment::Event e;
    e.category = "net";
    e.name = "x";
    done.segment.events.assign(kMaxWireTraceEvents + 10, e);
    const std::string frame = EncodeShardDoneFrame(done, 4);
    NetShardDone got;
    ASSERT_TRUE(
        DecodeShardDone(std::string_view(frame).substr(kHeaderBytes), &got)
            .ok());
    EXPECT_EQ(got.segment.events.size(), kMaxWireTraceEvents);
  }
}

TEST(WireCodecTest, TruncatedHeaderRejected) {
  std::string buf;
  AppendFrameHeader(FrameHeader{}, &buf);
  for (size_t len = 0; len < kHeaderBytes; ++len) {
    FrameHeader h;
    EXPECT_FALSE(DecodeFrameHeader(buf.substr(0, len), &h).ok());
  }
}

TEST(WireCodecTest, GarbagePrefixRejected) {
  Rng rng(21);
  for (int i = 0; i < 200; ++i) {
    std::string buf = RandomBytes(rng, 64);
    while (buf.size() < kHeaderBytes) buf.push_back('\0');
    // Force a magic mismatch (a random prefix collides with probability
    // 2^-32; make it deterministic).
    buf[0] = static_cast<char>(~buf[0]);
    if (memcmp(buf.data(), "\x50\x57\x34\x53", 4) == 0) buf[1] ^= 1;
    FrameHeader h;
    const Status st = DecodeFrameHeader(buf, &h);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireCodecTest, VersionMismatchKeepsRequestId) {
  std::string buf;
  AppendFrameHeader(FrameHeader{}, &buf);
  buf[4] = 9;  // version byte
  // Re-stamp a recognizable request id (offset 8, little-endian).
  for (int i = 0; i < 8; ++i) buf[8 + i] = 0;
  buf[8] = 0x2a;
  FrameHeader h;
  const Status st = DecodeFrameHeader(buf, &h);
  ASSERT_FALSE(st.ok());
  // FailedPrecondition, not InvalidArgument: the framing is intact and a
  // reply can be addressed to the request that provoked it.
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.request_id, 42u);
  EXPECT_EQ(h.version, 9);
}

TEST(WireCodecTest, UnknownFrameTypeRejected) {
  // 18 is the first unassigned type now that the slow-log frames (16-17)
  // are part of the protocol.
  for (uint8_t type : {uint8_t{0}, uint8_t{18}, uint8_t{255}}) {
    std::string buf;
    AppendFrameHeader(FrameHeader{}, &buf);
    buf[5] = static_cast<char>(type);
    FrameHeader h;
    const Status st = DecodeFrameHeader(buf, &h);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireCodecTest, HostileStringLengthDoesNotAllocate) {
  // A string length of 4 GiB - 1 with 4 bytes of actual data: the reader
  // must fail on the bounds check, not attempt the allocation.
  WireWriter w;
  w.PutU32(0xffffffffu);
  std::string payload = w.Take();
  payload += "abcd";
  WireReader r(payload);
  std::string s;
  EXPECT_FALSE(r.ReadString(&s));
  EXPECT_TRUE(r.failed());
}

TEST(WireCodecTest, OversizedSpreadsheetRejected) {
  WireWriter w;
  w.PutU32(4096);  // rows (at the cap)
  w.PutU32(4096);  // cols: rows * cols > kMaxCells
  NetSearchRequest req;
  const Status st = DecodeSearchRequest(w.data(), &req);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// --- deterministic fuzz corpus -----------------------------------------
//
// Three generations of hostile input, all seeded: pure noise, noise with
// a valid magic/header grafted on, and valid frames with bit flips. The
// assertion is simply "returns, with a Status" — memory safety is the
// sanitizer's job (these suites run under the asan CI configuration).

TEST(WireFuzzTest, DecodersSurvivePureNoise) {
  Rng rng(0xf00d);
  for (int i = 0; i < 2000; ++i) {
    const std::string noise = RandomBytes(rng, 96);
    FrameHeader h;
    (void)DecodeFrameHeader(noise, &h);
    NetSearchRequest req;
    (void)DecodeSearchRequest(noise, &req);
    NetSearchResponse resp;
    (void)DecodeSearchResponse(noise, &resp);
    NetError err;
    (void)DecodeError(noise, &err);
    NetShardSearchRequest sreq;
    (void)DecodeShardSearchRequest(noise, &sreq);
    NetShardPartial partial;
    (void)DecodeShardPartial(noise, &partial);
    NetShardDone done;
    (void)DecodeShardDone(noise, &done);
    uint64_t target;
    (void)DecodeShardStop(noise, &target);
    NetMutateRequest mreq;
    (void)DecodeMutateRequest(noise, &mreq);
    NetMutateResponse mresp;
    (void)DecodeMutateResponse(noise, &mresp);
    (void)DecodeSlowLogRequest(noise);
  }
}

TEST(WireFuzzTest, DecodersSurviveValidHeaderRandomPayload) {
  Rng rng(0xbeef);
  for (int i = 0; i < 2000; ++i) {
    const std::string payload = RandomBytes(rng, 96);
    FrameHeader h;
    h.type = static_cast<FrameType>(
        1 + rng.Uniform(static_cast<uint64_t>(FrameType::kSlowLogResponse)));
    h.request_id = rng.Next();
    h.payload_len = static_cast<uint32_t>(payload.size());
    std::string frame;
    AppendFrameHeader(h, &frame);
    frame += payload;
    FrameHeader got;
    ASSERT_TRUE(DecodeFrameHeader(frame, &got).ok());
    const std::string_view body = std::string_view(frame).substr(kHeaderBytes);
    NetSearchRequest req;
    (void)DecodeSearchRequest(body, &req);
    NetSearchResponse resp;
    (void)DecodeSearchResponse(body, &resp);
    NetError err;
    (void)DecodeError(body, &err);
    NetShardSearchRequest sreq;
    (void)DecodeShardSearchRequest(body, &sreq);
    NetShardPartial partial;
    (void)DecodeShardPartial(body, &partial);
    NetShardDone done;
    (void)DecodeShardDone(body, &done);
    uint64_t target;
    (void)DecodeShardStop(body, &target);
    NetMutateRequest mreq;
    (void)DecodeMutateRequest(body, &mreq);
    NetMutateResponse mresp;
    (void)DecodeMutateResponse(body, &mresp);
    (void)DecodeSlowLogRequest(body);
  }
}

TEST(WireFuzzTest, DecodersSurviveBitFlippedValidFrames) {
  Rng rng(0xcafe);
  for (int i = 0; i < 700; ++i) {
    std::string frame;
    switch (i % 7) {
      case 0:
        frame = EncodeSearchRequestFrame(RandomRequest(rng), rng.Next());
        break;
      case 1:
        frame = EncodeSearchResponseFrame(RandomResponse(rng), rng.Next());
        break;
      case 2:
        frame =
            EncodeShardSearchRequestFrame(RandomShardRequest(rng), rng.Next());
        break;
      case 3:
        frame = EncodeShardPartialFrame(RandomShardPartial(rng), rng.Next());
        break;
      case 4:
        frame = EncodeMutateRequestFrame(RandomMutateRequest(rng), rng.Next());
        break;
      case 5:
        frame =
            EncodeMutateResponseFrame(RandomMutateResponse(rng), rng.Next());
        break;
      default:
        frame = EncodeShardDoneFrame(RandomShardDone(rng), rng.Next());
        break;
    }
    const int flips = 1 + static_cast<int>(rng.Uniform(8));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.Uniform(frame.size());
      frame[pos] = static_cast<char>(
          static_cast<unsigned char>(frame[pos]) ^ (1u << rng.Uniform(8)));
    }
    const std::string_view body = std::string_view(frame).substr(
        std::min(frame.size(), kHeaderBytes));
    NetSearchRequest req;
    (void)DecodeSearchRequest(body, &req);
    NetSearchResponse resp;
    (void)DecodeSearchResponse(body, &resp);
    NetError err;
    (void)DecodeError(body, &err);
    NetShardSearchRequest sreq;
    (void)DecodeShardSearchRequest(body, &sreq);
    NetShardPartial partial;
    (void)DecodeShardPartial(body, &partial);
    NetShardDone done;
    (void)DecodeShardDone(body, &done);
    NetMutateRequest mreq;
    (void)DecodeMutateRequest(body, &mreq);
    NetMutateResponse mresp;
    (void)DecodeMutateResponse(body, &mresp);
    (void)DecodeSlowLogRequest(body);
  }
}

}  // namespace
}  // namespace s4::net
