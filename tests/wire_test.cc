// Wire codec tests: randomized round-trip properties over every message
// (scores must survive bit-exactly), the golden v6 bytes, rejection of
// truncated frames and garbage prefixes, and a deterministic fuzz corpus
// run against every decoder. The fuzz suites are part of the asan CI
// filter: a decoder fed hostile bytes must return a Status, never touch
// memory it does not own.
#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
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

// Draws every field of a message at random, walking its field list
// (wire.h), so a new field is generated without an edit here.
struct Randomizer {
  Rng& rng;

  void operator()(bool& v) { v = rng.Bernoulli(0.5); }
  void operator()(double& v) { v = RandomDouble(rng); }
  void operator()(std::string& v) { v = RandomBytes(rng, 32); }
  void operator()(S4System::Strategy& v) {
    v = static_cast<S4System::Strategy>(rng.Uniform(3));
  }
  template <uint32_t kCap, class V>
  void operator()(WireVector<kCap, V> v) {
    v.items.resize(rng.Uniform(5));
    for (auto& item : v.items) (*this)(item);
  }
  template <class B, class T>
  void operator()(WireTail<B, T> t) {
    (*this)(t.has);
    t.value = T{};
    if (t.has) (*this)(t.value);
  }
  template <class T>
  void operator()(T& v) {
    if constexpr (std::is_integral_v<T>) {
      v = static_cast<T>(rng.Next());
    } else {
      Fields(Msg<T>{}, *this, v);
    }
  }
};

template <class M>
M Random(Rng& rng) {
  M m;
  Randomizer{rng}(m);
  return m;
}

// Zips two messages over their field list and compares every field
// bitwise: the protocol promise is bit-identical doubles, which
// operator== cannot check (NaN != NaN, -0.0 == 0.0). Fields are numbered
// in wire order so a failure names the first one that differs.
struct BitwiseCompare {
  int field = 0;
  int first_diff = -1;

  void Leaf(bool same) {
    if (!same && first_diff < 0) first_diff = field;
    ++field;
  }
  void operator()(const std::string& a, const std::string& b) {
    Leaf(a == b);
  }
  template <uint32_t kCap, class V>
  void operator()(WireVector<kCap, V> a, WireVector<kCap, V> b) {
    Leaf(a.items.size() == b.items.size());
    for (size_t i = 0; i < std::min(a.items.size(), b.items.size()); ++i) {
      (*this)(a.items[i], b.items[i]);
    }
  }
  template <class B, class T>
  void operator()(WireTail<B, T> a, WireTail<B, T> b) {
    (*this)(a.has, b.has);
    if (a.has && b.has) (*this)(a.value, b.value);
  }
  template <class T>
  void operator()(const T& a, const T& b) {
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      Leaf(std::memcmp(&a, &b, sizeof(T)) == 0);
    } else {
      Fields(Msg<T>{}, *this, a, b);
    }
  }
};

template <class M>
::testing::AssertionResult BitEqual(const M& got, const M& want) {
  BitwiseCompare cmp;
  cmp(got, want);
  if (cmp.first_diff < 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "field #" << cmp.first_diff << " (wire order) differs in bits";
}

// The payload of `frame`, after checking its header names `type` and
// `request_id` and its length matches.
std::string_view PayloadOf(const std::string& frame, FrameType type,
                           uint64_t request_id) {
  FrameHeader h;
  EXPECT_TRUE(DecodeFrameHeader(frame, &h).ok());
  EXPECT_EQ(h.type, type);
  EXPECT_EQ(h.request_id, request_id);
  EXPECT_EQ(frame.size(), kHeaderBytes + h.payload_len);
  return std::string_view(frame).substr(kHeaderBytes);
}

// Decodes the payload of `frame` with `decode`, failing the test on a
// decode error.
template <class M>
M Decoded(const std::string& frame, FrameType type, uint64_t request_id,
          Status (*decode)(std::string_view, M*)) {
  M got{};
  const Status st = decode(PayloadOf(frame, type, request_id), &got);
  EXPECT_TRUE(st.ok()) << st;
  return got;
}

NetSearchRequest RandomRequest(Rng& rng) {
  NetSearchRequest req = Random<NetSearchRequest>(rng);
  // Rectangular: the encoder normalizes every row to row 0's width, so
  // only rectangles round-trip verbatim (as the spreadsheet model
  // requires anyway).
  const size_t rows = rng.Uniform(5);
  const size_t cols = rows == 0 ? 0 : 1 + rng.Uniform(4);
  req.cells.assign(rows, std::vector<std::string>(cols));
  for (auto& row : req.cells) {
    for (auto& cell : row) cell = RandomBytes(rng, 24);
  }
  // Decode holds the options to ValidateSearchOptions and the wire caps,
  // so the validated knobs are redrawn from their legal ranges; hostile
  // values get their own rejection tests below.
  SearchOptions& o = req.options;
  o.deadline_seconds = rng.NextDouble() * 60.0;
  o.k = 1 + static_cast<int32_t>(rng.Uniform(1000));
  o.score.alpha = rng.NextDouble();
  o.epsilon = 0.01 + rng.NextDouble();
  o.cache_budget_bytes = 1 + rng.Uniform(uint64_t{1} << 40);
  o.approx_epsilon = o.drop_zero_rows ? 0.0 : rng.NextDouble() * 4.0;
  o.approx_confidence = 0.001 + rng.NextDouble() * 0.999;
  o.sample_budget = 1 + static_cast<int64_t>(rng.Uniform(1u << 20));
  o.shard_count = 1 + static_cast<int32_t>(rng.Uniform(kMaxWireShards));
  o.shard_index =
      static_cast<int32_t>(rng.Uniform(static_cast<uint64_t>(o.shard_count)));
  o.enumeration.max_tree_size = 1 + static_cast<int32_t>(rng.Uniform(8));
  o.enumeration.max_queries =
      1 + static_cast<int64_t>(rng.Uniform(kMaxWireQueries));
  return req;
}

// Bytes the v5 exchange fields append after want_profile: i32 count,
// i32 index, u32 cadence, u8 want_trace, u64 trace id, u64 parent span,
// i64 origin.
constexpr size_t kExchangeTailBytes = 4 + 4 + 4 + 1 + 8 + 8 + 8;

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

// Mutations are coded by hand (the layout depends on the op), so their
// generator and comparison are too.
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

void ExpectMutationsEq(const std::vector<Mutation>& got,
                       const std::vector<Mutation>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t j = 0; j < want.size(); ++j) {
    const Mutation& a = want[j];
    const Mutation& b = got[j];
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

// A batch with at least one of each op, so every branch of the mutation
// codec is exercised.
NetMutateRequest AllOpsMutateRequest() {
  NetMutateRequest req;
  req.mutations.push_back(Mutation::Insert(
      "Movie", {Value::Int(7), Value::Text("alpha beta"), Value::Null()}));
  req.mutations.push_back(Mutation::Delete("Movie", 3));
  req.mutations.push_back(
      Mutation::Update("Person", 9, "PersonName", Value::Text("gamma")));
  return req;
}

// Every strict prefix of a valid payload fails to decode (optional
// sections sit behind has-flags, so truncation is always detectable), and
// so does the payload with one trailing byte.
template <class M>
void ExpectEveryPrefixRejected(std::string_view payload,
                               Status (*decode)(std::string_view, M*)) {
  for (size_t len = 0; len < payload.size(); ++len) {
    M got{};
    EXPECT_FALSE(decode(payload.substr(0, len), &got).ok())
        << "prefix of " << len << " bytes decoded";
  }
  std::string padded(payload);
  padded.push_back('\0');
  M got{};
  EXPECT_FALSE(decode(padded, &got).ok());
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
    const NetSearchRequest got =
        Decoded(EncodeSearchRequestFrame(req, id), FrameType::kSearchRequest,
                id, DecodeSearchRequest);
    EXPECT_EQ(got.cells, req.cells);
    EXPECT_TRUE(BitEqual(got, req));
  }
}

TEST(WireCodecTest, ResponseRoundTripProperty) {
  Rng rng(43);
  for (int i = 0; i < 300; ++i) {
    const auto resp = Random<NetSearchResponse>(rng);
    const uint64_t id = rng.Next();
    EXPECT_TRUE(BitEqual(Decoded(EncodeSearchResponseFrame(resp, id),
                                 FrameType::kSearchResponse, id,
                                 DecodeSearchResponse),
                         resp));
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
    const NetError err = Decoded(EncodeErrorFrame(s, 77), FrameType::kError,
                                 77, DecodeError);
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
  EXPECT_TRUE(
      PayloadOf(EncodeStatsRequestFrame(11), FrameType::kStatsRequest, 11)
          .empty());

  // Responses carry raw text bytes verbatim (no re-encoding).
  const std::string text = "# TYPE s4_searches_total counter\n"
                           "s4_searches_total 3\n";
  EXPECT_EQ(PayloadOf(EncodeStatsResponseFrame(text, 12),
                      FrameType::kStatsResponse, 12),
            text);
  const std::string json = "{\"traceEvents\":[]}";
  EXPECT_EQ(PayloadOf(EncodeTraceResponseFrame(json, 13),
                      FrameType::kTraceResponse, 13),
            json);

  // kTraceRequest: the *target* id travels in the payload; the header id
  // identifies this exchange (RoundTrip matches on the echo).
  for (uint64_t target : {uint64_t{0}, uint64_t{42}, ~uint64_t{0}}) {
    EXPECT_EQ(Decoded(EncodeTraceRequestFrame(target, 14),
                      FrameType::kTraceRequest, 14, DecodeTraceRequest),
              target);
  }

  // Truncated / padded trace-request payloads are rejected.
  const std::string frame = EncodeTraceRequestFrame(42, 15);
  ExpectEveryPrefixRejected(std::string_view(frame).substr(kHeaderBytes),
                            DecodeTraceRequest);
}

TEST(WireCodecTest, ApproxKnobsHostileValuesRejected) {
  // The four approx knobs are the 32 payload bytes just before the
  // want_profile flag and the exchange tail (f64 epsilon, f64
  // confidence, i64 budget, u64 seed); patch them in place on an
  // otherwise-valid frame. Doubles travel as raw bits, so NaN and
  // negative values encode fine and must be caught by the decoder.
  auto reencode = [](double eps, double conf, int64_t budget) {
    NetSearchRequest req;
    req.cells = {{"The Matrix"}};
    std::string frame = EncodeSearchRequestFrame(req, 1);
    WireWriter w;
    w.Put(eps);
    w.Put(conf);
    w.Put(budget);
    w.Put(req.options.rng_seed);
    frame.replace(frame.size() - kExchangeTailBytes - 33, 32, w.data());
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
  const std::string frame = EncodeSearchRequestFrame(RandomRequest(rng), 5);
  ExpectEveryPrefixRejected(std::string_view(frame).substr(kHeaderBytes),
                            DecodeSearchRequest);
}

TEST(WireCodecTest, TruncatedResponseEveryPrefixRejected) {
  Rng rng(9);
  auto resp = Random<NetSearchResponse>(rng);
  // Force both optional tails on so truncation mid-profile and inside
  // the stitch payload is exercised regardless of what the seed draws.
  resp.has_profile = true;
  resp.profile = Random<obs::QueryProfile>(rng);
  resp.has_segment = true;
  resp.segment = Random<obs::TraceSegment>(rng);
  const std::string frame = EncodeSearchResponseFrame(resp, 6);
  ExpectEveryPrefixRejected(std::string_view(frame).substr(kHeaderBytes),
                            DecodeSearchResponse);
}

// The v6 bytes of one fixed instance of every payload-carrying message.
// The round-trip properties pass under any format; this is the test that
// notices a format change. The v5 hex was produced by the encoder that
// predates the field lists; v6 changed only the version byte and the
// search request's enumeration block. A deliberate format change bumps
// kProtocolVersion and regenerates it.
TEST(WireCodecTest, GoldenBytesV6) {
  static_assert(kProtocolVersion == 6);
  auto hex = [](const std::string& bytes) {
    std::string out;
    for (unsigned char c : bytes) {
      out += "0123456789abcdef"[c >> 4];
      out += "0123456789abcdef"[c & 15];
    }
    return out;
  };

  SearchOptions o;
  o.deadline_seconds = 2.5;
  o.k = 7;
  o.score.alpha = 0.75;
  o.epsilon = 0.5;
  o.score.use_idf = true;
  o.score.exact_match_bonus = 0.125;
  o.score.spelling_edits = 1;
  o.num_threads = 2;
  o.enumeration.max_tree_size = 4;
  o.enumeration.max_queries = 4000;
  o.enumeration.active_columns = {1, 0};
  o.enumeration.or_semantics = true;
  o.enumeration.cost_aware_rooting = false;
  o.cache_budget_bytes = 1u << 20;
  o.approx_epsilon = 0.05;
  o.approx_confidence = 0.9;
  o.sample_budget = 1000;
  o.rng_seed = 0x0123456789abcdefULL;
  o.shard_count = 4;
  o.shard_index = 2;
  NetSearchRequest req =
      NetSearchRequest::From({{"The Matrix", "1999"}, {"Keanu", ""}}, o,
                             S4System::Strategy::kBaseline, /*priority=*/3);
  req.want_profile = true;
  req.partial_every = 3;
  req.want_trace = true;
  req.trace_id = 0x1111;
  req.parent_span_id = 0x2222;
  req.origin_unix_us = 1700000000000000;
  const std::string req_frame =
      EncodeSearchRequestFrame(req, 0x0102030405060708ULL);
  EXPECT_EQ(hex(req_frame),
            "50573453060100000807060504030201c600000002000000020000000a000000"
            "546865204d61747269780400000031393939050000004b65616e750000000001"
            "03000000000000000000044007000000000000000000e83f000000000000e03f"
            "01000000000000c03f01000000000200000004000000a00f0000000000000200"
            "00000100000000000000010000001000000000009a9999999999a93fcdcccccc"
            "ccccec3fe803000000000000efcdab8967452301010400000002000000030000"
            "00011111000000000000222200000000000000401e18240a0600");
  const NetSearchRequest req_back =
      Decoded(req_frame, FrameType::kSearchRequest, 0x0102030405060708ULL,
              DecodeSearchRequest);
  EXPECT_EQ(req_back.cells, req.cells);
  EXPECT_TRUE(BitEqual(req_back, req));

  NetTopkEntry sampled;
  sampled.signature = "q1";
  sampled.sql = "SELECT 1";
  sampled.score = 0.5;
  sampled.upper_bound = 0.75;
  sampled.row_score = 0.25;
  sampled.column_score = 1.0;
  sampled.approximate = true;
  sampled.interval = {0.4, 0.6, 0.9, 12, 5};
  NetTopkEntry exact;
  exact.signature = "q2";
  exact.score = 0.25;
  exact.upper_bound = 0.25;
  exact.row_score = 0.125;
  exact.column_score = 0.5;
  exact.interval = {0.25, 0.25, 1.0, 0, 0};
  RunStats stats;
  stats.enum_seconds = 0.001;
  stats.searches = 1;
  stats.queries_evaluated = 42;
  stats.counters.hash_lookups = 99;
  stats.cache.hits = 3;
  stats.cache.peak_bytes = 4096;
  NetSearchResponse resp;
  resp.topk = {sampled, exact};
  resp.interrupted = true;
  resp.stats = stats;
  resp.server_seconds = 0.0125;
  resp.has_profile = true;
  resp.profile = {0.02, 0.003};
  resp.has_segment = true;
  resp.segment.origin_unix_us = 17;
  resp.segment.trace_id = 0x1111;
  resp.segment.events.push_back(
      {"net", "frame_decode", 5, 7, 1, 2, 0, {{"k", "v"}}});
  const std::string resp_frame = EncodeSearchResponseFrame(resp, 2);
  EXPECT_EQ(hex(resp_frame),
            "505734530602000002000000000000000b020000010002000000020000007131"
            "0800000053454c4543542031000000000000e03f000000000000e83f00000000"
            "0000d03f000000000000f03f019a9999999999d93f333333333333e33fcdcccc"
            "ccccccec3f0c0000000000000005000000000000000200000071320000000000"
            "0000000000d03f000000000000d03f000000000000c03f000000000000e03f00"
            "000000000000d03f000000000000d03f000000000000f03f0000000000000000"
            "0000000000000000fca9f1d24d62503f00000000000000000100000000000000"
            "00000000000000002a0000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000630000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000003000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000010000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "00000000000000009a9999999999893f017b14ae47e17a943ffa7e6abc749368"
            "3f011100000000000000111100000000000001000000030000006e65740c0000"
            "006672616d655f6465636f646505000000000000000700000000000000010000"
            "000200000000000000000000000000000001000000010000006b0100000076");
  EXPECT_TRUE(BitEqual(Decoded(resp_frame, FrameType::kSearchResponse, 2,
                               DecodeSearchResponse),
                       resp));

  NetShardPartial partial;
  partial.topk = {exact};
  partial.remaining_upper_bound = 0.375;
  partial.stats = stats;
  const std::string partial_frame = EncodeShardPartialFrame(partial, 3);
  EXPECT_EQ(hex(partial_frame),
            "50573453060a000003000000000000003f010000010000000200000071320000"
            "0000000000000000d03f000000000000d03f000000000000c03f000000000000"
            "e03f00000000000000d03f000000000000d03f000000000000f03f0000000000"
            "0000000000000000000000000000000000d83ffca9f1d24d62503f0000000000"
            "000000010000000000000000000000000000002a000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000063000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000300000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0000000010000000000000000000000000000000000000000000000000000000"
            "00000000000000000000000000000000000000");
  EXPECT_TRUE(BitEqual(Decoded(partial_frame, FrameType::kShardPartial, 3,
                               DecodeShardPartial),
                       partial));

  const std::string error_frame =
      EncodeErrorFrame(Status::ResourceExhausted("queue full"), 4);
  EXPECT_EQ(hex(error_frame),
            "505734530603000004000000000000001000000006010a000000717565756520"
            "66756c6c");
  const NetError want_error{WireCodeFor(StatusCode::kResourceExhausted),
                            true, "queue full"};
  EXPECT_TRUE(BitEqual(
      Decoded(error_frame, FrameType::kError, 4, DecodeError), want_error));

  const std::string trace_frame = EncodeTraceRequestFrame(42, 5);
  EXPECT_EQ(hex(trace_frame),
            "50573453060800000500000000000000080000002a00000000000000");
  EXPECT_EQ(Decoded(trace_frame, FrameType::kTraceRequest, 5,
                    DecodeTraceRequest),
            42u);
  const std::string stop_frame = EncodeShardStopFrame(43, 6);
  EXPECT_EQ(hex(stop_frame),
            "50573453060b00000600000000000000080000002b00000000000000");
  EXPECT_EQ(Decoded(stop_frame, FrameType::kShardStop, 6, DecodeShardStop),
            43u);

  const NetMutateRequest mreq = AllOpsMutateRequest();
  const std::string mreq_frame = EncodeMutateRequestFrame(mreq, 7);
  EXPECT_EQ(hex(mreq_frame),
            "50573453060c00000700000000000000680000000300000000050000004d6f76"
            "696503000000010700000000000000020a000000616c70686120626574610001"
            "050000004d6f76696503000000000000000206000000506572736f6e09000000"
            "000000000a000000506572736f6e4e616d65020500000067616d6d61");
  ExpectMutationsEq(Decoded(mreq_frame, FrameType::kMutateRequest, 7,
                            DecodeMutateRequest)
                        .mutations,
                    mreq.mutations);

  const NetMutateResponse mresp{2, 9, true, "boom", {1, 3}, 0.5};
  const std::string mresp_frame = EncodeMutateResponseFrame(mresp, 8);
  EXPECT_EQ(hex(mresp_frame),
            "50573453060d000008000000000000002d000000020000000000000009000000"
            "000000000104000000626f6f6d020000000100000003000000000000000000e0"
            "3f");
  EXPECT_TRUE(BitEqual(Decoded(mresp_frame, FrameType::kMutateResponse, 8,
                               DecodeMutateResponse),
                       mresp));
}

// Every bool field decodes strictly: a byte other than 0 or 1 is
// InvalidArgument, not "true".
TEST(WireCodecTest, BoolFieldsDecodeStrictly) {
  // interrupted is the first response payload byte.
  std::string frame = EncodeSearchResponseFrame(NetSearchResponse{}, 1);
  frame[kHeaderBytes] = 2;
  NetSearchResponse resp;
  EXPECT_EQ(DecodeSearchResponse(std::string_view(frame).substr(kHeaderBytes),
                                 &resp)
                .code(),
            StatusCode::kInvalidArgument);
  // retryable is the second error payload byte.
  frame = EncodeErrorFrame(Status::Internal("x"), 2);
  frame[kHeaderBytes + 1] = static_cast<char>(0xff);
  NetError err;
  EXPECT_EQ(
      DecodeError(std::string_view(frame).substr(kHeaderBytes), &err).code(),
      StatusCode::kInvalidArgument);
}

// --- scatter-gather shard frames ---------------------------------------

TEST(WireCodecTest, ShardPartialRoundTripProperty) {
  Rng rng(52);
  for (int i = 0; i < 300; ++i) {
    const auto p = Random<NetShardPartial>(rng);
    EXPECT_TRUE(BitEqual(Decoded(EncodeShardPartialFrame(p, 9),
                                 FrameType::kShardPartial, 9,
                                 DecodeShardPartial),
                         p));
  }
}

TEST(WireCodecTest, ShardStopRoundTrip) {
  for (uint64_t target : {uint64_t{0}, uint64_t{42}, ~uint64_t{0}}) {
    EXPECT_EQ(Decoded(EncodeShardStopFrame(target, 19), FrameType::kShardStop,
                      19, DecodeShardStop),
              target);
  }
}

TEST(WireCodecTest, ShardRequestBadSliceRejected) {
  auto reencode = [](int32_t count, int32_t index) {
    NetSearchRequest req;
    req.cells = {{"The Matrix"}};
    std::string frame = EncodeSearchRequestFrame(req, 1);
    // The slice opens the exchange tail: i32 shard_count, i32 shard_index.
    const size_t at = frame.size() - kExchangeTailBytes;
    memcpy(frame.data() + at, &count, sizeof(count));
    memcpy(frame.data() + at + 4, &index, sizeof(index));
    NetSearchRequest got;
    return DecodeSearchRequest(std::string_view(frame).substr(kHeaderBytes),
                               &got);
  };
  EXPECT_FALSE(reencode(0, 0).ok());                  // no shards
  EXPECT_FALSE(reencode(-4, 0).ok());                 // negative count
  EXPECT_FALSE(reencode(kMaxWireShards + 1, 0).ok()); // over the cap
  EXPECT_FALSE(reencode(4, 4).ok());                  // index out of range
  EXPECT_FALSE(reencode(4, -1).ok());                 // negative index
  EXPECT_TRUE(reencode(4, 3).ok());
  EXPECT_TRUE(reencode(1, 0).ok());                   // the plain search

  // want_trace must be a strict boolean (the byte after the u32 cadence).
  NetSearchRequest req;
  std::string frame = EncodeSearchRequestFrame(req, 2);
  frame[frame.size() - kExchangeTailBytes + 12] = 2;
  NetSearchRequest got;
  EXPECT_FALSE(
      DecodeSearchRequest(std::string_view(frame).substr(kHeaderBytes), &got)
          .ok());
}

// The enumeration options travel whole, so decode holds them to
// ValidateSearchOptions and the wire caps: a tree size or query cap below
// 1 or above its wire cap, an active-column count above the wire cap and
// a non-boolean flag byte are all InvalidArgument.
TEST(WireCodecTest, EnumerationHostileValuesRejected) {
  auto decode = [](const std::string& frame) {
    NetSearchRequest got;
    return DecodeSearchRequest(std::string_view(frame).substr(kHeaderBytes),
                               &got)
        .code();
  };
  NetSearchRequest req;
  req.cells = {{"The Matrix"}};
  EnumerationOptions& e = req.options.enumeration;
  auto encoded = [&] { return EncodeSearchRequestFrame(req, 1); };
  EXPECT_EQ(decode(encoded()), StatusCode::kOk);
  for (int32_t size : {0, -1, std::numeric_limits<int32_t>::min(),
                       kMaxWireTreeSize + 1,
                       std::numeric_limits<int32_t>::max()}) {
    e.max_tree_size = size;
    EXPECT_EQ(decode(encoded()), StatusCode::kInvalidArgument) << size;
  }
  e.max_tree_size = kMaxWireTreeSize;
  EXPECT_EQ(decode(encoded()), StatusCode::kOk);
  e = {};
  for (int64_t cap : {int64_t{0}, int64_t{-1}, int64_t{kMaxWireQueries} + 1,
                      kMaxEnumerationQueries, kMaxEnumerationQueries + 1,
                      std::numeric_limits<int64_t>::max()}) {
    e.max_queries = cap;
    EXPECT_EQ(decode(encoded()), StatusCode::kInvalidArgument) << cap;
  }
  e.max_queries = kMaxWireQueries;
  EXPECT_EQ(decode(encoded()), StatusCode::kOk);

  // The encoder never writes a count above the cap, so patch one in. The
  // one-element list is followed by or_semantics, cost_aware_rooting,
  // the 40 bytes of cache budget and approx knobs, want_profile and the
  // exchange tail.
  e = {};
  e.active_columns = {0};
  std::string frame = encoded();
  const size_t count_at =
      frame.size() - kExchangeTailBytes - 1 - 40 - 2 - 4 - 4;
  uint32_t count = 0;
  memcpy(&count, frame.data() + count_at, sizeof(count));
  ASSERT_EQ(count, 1u);
  const uint32_t hostile = kMaxWireCols + 1;
  memcpy(frame.data() + count_at, &hostile, sizeof(hostile));
  EXPECT_EQ(decode(frame), StatusCode::kInvalidArgument);

  // or_semantics is the byte after the one element.
  frame = encoded();
  frame[count_at + 8] = 2;
  EXPECT_EQ(decode(frame), StatusCode::kInvalidArgument);
}

TEST(WireCodecTest, TruncatedShardFramesEveryPrefixRejected) {
  Rng rng(57);
  const std::string partial =
      EncodeShardPartialFrame(Random<NetShardPartial>(rng), 2);
  ExpectEveryPrefixRejected(std::string_view(partial).substr(kHeaderBytes),
                            DecodeShardPartial);
  const std::string stop = EncodeShardStopFrame(77, 4);
  ExpectEveryPrefixRejected(std::string_view(stop).substr(kHeaderBytes),
                            DecodeShardStop);
}

// --- live mutation frames ----------------------------------------------

TEST(WireCodecTest, MutateRequestRoundTripProperty) {
  Rng rng(61);
  for (int i = 0; i < 300; ++i) {
    const NetMutateRequest req = RandomMutateRequest(rng);
    const uint64_t id = rng.Next();
    ExpectMutationsEq(Decoded(EncodeMutateRequestFrame(req, id),
                              FrameType::kMutateRequest, id,
                              DecodeMutateRequest)
                          .mutations,
                      req.mutations);
  }
}

TEST(WireCodecTest, MutateResponseRoundTripProperty) {
  Rng rng(62);
  for (int i = 0; i < 300; ++i) {
    const auto resp = Random<NetMutateResponse>(rng);
    EXPECT_TRUE(BitEqual(Decoded(EncodeMutateResponseFrame(resp, 8),
                                 FrameType::kMutateResponse, 8,
                                 DecodeMutateResponse),
                         resp));
  }
}

TEST(WireCodecTest, TruncatedMutateFramesEveryPrefixRejected) {
  Rng rng(63);
  const std::string req = EncodeMutateRequestFrame(AllOpsMutateRequest(), 1);
  ExpectEveryPrefixRejected(std::string_view(req).substr(kHeaderBytes),
                            DecodeMutateRequest);
  const std::string resp =
      EncodeMutateResponseFrame(Random<NetMutateResponse>(rng), 2);
  ExpectEveryPrefixRejected(std::string_view(resp).substr(kHeaderBytes),
                            DecodeMutateResponse);
}

TEST(WireCodecTest, MutateRequestHostileFieldsRejected) {
  {
    // Operation count above the cap: rejected before any allocation.
    WireWriter w;
    w.Put(kMaxWireMutations + 1);
    NetMutateRequest got;
    const Status st = DecodeMutateRequest(w.data(), &got);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
  {
    // Unknown op tag.
    WireWriter w;
    w.Put(uint32_t{1});
    w.Put(uint8_t{3});  // ops are 0/1/2
    w.Put("Movie");
    NetMutateRequest got;
    EXPECT_FALSE(DecodeMutateRequest(w.data(), &got).ok());
  }
  {
    // Insert claiming more values than the cap.
    WireWriter w;
    w.Put(uint32_t{1});
    w.Put(uint8_t{0});  // kInsertRow
    w.Put("Movie");
    w.Put(kMaxWireMutationValues + 1);
    NetMutateRequest got;
    EXPECT_FALSE(DecodeMutateRequest(w.data(), &got).ok());
  }
  {
    // Unknown value kind tag.
    WireWriter w;
    w.Put(uint32_t{1});
    w.Put(uint8_t{0});  // kInsertRow
    w.Put("Movie");
    w.Put(uint32_t{1});
    w.Put(uint8_t{9});  // kinds are 0/1/2
    NetMutateRequest got;
    EXPECT_FALSE(DecodeMutateRequest(w.data(), &got).ok());
  }
  {
    // Response claiming an absurd touched-table count.
    WireWriter w;
    w.Put(int64_t{1});   // applied
    w.Put(uint64_t{1});  // epoch
    w.Put(false);        // interrupted
    w.Put("");
    w.Put(kMaxWireMutations + 1);
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
  // has_profile must be a strict boolean: the flag byte is the last but
  // one payload byte when neither optional tail follows.
  NetSearchResponse resp;
  std::string frame = EncodeSearchResponseFrame(resp, 1);
  frame[frame.size() - 2] = 2;
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
    NetSearchResponse resp;
    std::string frame = EncodeSearchResponseFrame(resp, 1);
    frame.back() = 2;
    NetSearchResponse got;
    EXPECT_FALSE(
        DecodeSearchResponse(std::string_view(frame).substr(kHeaderBytes), &got)
            .ok());
  }
  {
    // Event count above the cap: the u32 count is the last 4 payload
    // bytes when the segment holds no events.
    NetSearchResponse resp;
    resp.has_segment = true;
    std::string frame = EncodeSearchResponseFrame(resp, 2);
    const uint32_t hostile = kMaxWireTraceEvents + 1;
    memcpy(frame.data() + frame.size() - 4, &hostile, sizeof(hostile));
    NetSearchResponse got;
    EXPECT_FALSE(
        DecodeSearchResponse(std::string_view(frame).substr(kHeaderBytes), &got)
            .ok());
  }
  {
    // Arg count above the cap: the u32 nargs is the last 4 payload bytes
    // when the final event carries no args.
    NetSearchResponse resp;
    resp.has_segment = true;
    obs::TraceSegment::Event e;
    e.category = "net";
    e.name = "frame_decode";
    resp.segment.events.push_back(e);
    std::string frame = EncodeSearchResponseFrame(resp, 3);
    const uint32_t hostile = kMaxWireTraceArgs + 1;
    memcpy(frame.data() + frame.size() - 4, &hostile, sizeof(hostile));
    NetSearchResponse got;
    EXPECT_FALSE(
        DecodeSearchResponse(std::string_view(frame).substr(kHeaderBytes), &got)
            .ok());
  }
  {
    // Encoders truncate instead of emitting over-cap counts: a segment
    // with too many events round-trips to the cap, not a decode error.
    NetSearchResponse resp;
    resp.has_segment = true;
    obs::TraceSegment::Event e;
    e.category = "net";
    e.name = "x";
    resp.segment.events.assign(kMaxWireTraceEvents + 10, e);
    const std::string frame = EncodeSearchResponseFrame(resp, 4);
    NetSearchResponse got;
    ASSERT_TRUE(
        DecodeSearchResponse(std::string_view(frame).substr(kHeaderBytes), &got)
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
  // v5 retired two frame types and closed the gap, so 16 and 17 (the old
  // slow-log numbers) name no frame any more; 16 is the first unassigned
  // type.
  for (uint8_t type : {uint8_t{0}, uint8_t{16}, uint8_t{17}, uint8_t{255}}) {
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
  w.Put(0xffffffffu);
  std::string payload = w.Take();
  payload += "abcd";
  WireReader r(payload);
  std::string s;
  r.Read(s);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(s.empty());
}

TEST(WireCodecTest, OversizedSpreadsheetRejected) {
  WireWriter w;
  w.Put(uint32_t{4096});  // rows (at the cap)
  w.Put(uint32_t{4096});  // cols: rows * cols > kMaxCells
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

// Feeds `body` to every payload decoder.
void DecodeAsEveryMessage(std::string_view body) {
  NetSearchRequest req;
  (void)DecodeSearchRequest(body, &req);
  NetSearchResponse resp;
  (void)DecodeSearchResponse(body, &resp);
  NetError err;
  (void)DecodeError(body, &err);
  NetShardPartial partial;
  (void)DecodeShardPartial(body, &partial);
  uint64_t target;
  (void)DecodeShardStop(body, &target);
  (void)DecodeTraceRequest(body, &target);
  NetMutateRequest mreq;
  (void)DecodeMutateRequest(body, &mreq);
  NetMutateResponse mresp;
  (void)DecodeMutateResponse(body, &mresp);
  (void)DecodeSlowLogRequest(body);
}

TEST(WireFuzzTest, DecodersSurvivePureNoise) {
  Rng rng(0xf00d);
  for (int i = 0; i < 2000; ++i) {
    const std::string noise = RandomBytes(rng, 96);
    FrameHeader h;
    (void)DecodeFrameHeader(noise, &h);
    DecodeAsEveryMessage(noise);
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
    DecodeAsEveryMessage(std::string_view(frame).substr(kHeaderBytes));
  }
}

TEST(WireFuzzTest, DecodersSurviveBitFlippedValidFrames) {
  Rng rng(0xcafe);
  for (int i = 0; i < 700; ++i) {
    std::string frame;
    switch (i % 5) {
      case 0:
        frame = EncodeSearchRequestFrame(RandomRequest(rng), rng.Next());
        break;
      case 1:
        frame = EncodeSearchResponseFrame(Random<NetSearchResponse>(rng),
                                          rng.Next());
        break;
      case 2:
        frame =
            EncodeShardPartialFrame(Random<NetShardPartial>(rng), rng.Next());
        break;
      case 3:
        frame = EncodeMutateRequestFrame(RandomMutateRequest(rng), rng.Next());
        break;
      default:
        frame = EncodeMutateResponseFrame(Random<NetMutateResponse>(rng),
                                          rng.Next());
        break;
    }
    const int flips = 1 + static_cast<int>(rng.Uniform(8));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.Uniform(frame.size());
      frame[pos] = static_cast<char>(
          static_cast<unsigned char>(frame[pos]) ^ (1u << rng.Uniform(8)));
    }
    DecodeAsEveryMessage(std::string_view(frame).substr(
        std::min(frame.size(), kHeaderBytes)));
  }
}

}  // namespace
}  // namespace s4::net
