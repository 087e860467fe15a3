// Network-layer integration tests: a real S4Server on loopback driven by
// real sockets. The core claim is transparency — a networked client gets
// bit-identical results to an in-process S4Service caller — plus the
// protocol's failure-severity ladder (malformed payload survives the
// connection; framing violations close it; garbage closes it silently),
// disconnect-triggered cancellation, deadline mapping, backpressure as a
// retryable error, and the absence of fd leaks across all of it.
#include <bit>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/server.h"
#include "net/socket_util.h"
#include "obs/metrics.h"
#include "service/s4_service.h"
#include "tests/test_util.h"

namespace s4::net {
namespace {

using Cells = std::vector<std::vector<std::string>>;

const S4System& System() {
  static const S4System& system = *[] {
    auto s = S4System::Create(testing::TpchDb());
    if (!s.ok()) abort();
    return s->release();
  }();
  return system;
}

std::vector<Cells> TestSheets() {
  return {
      {{"Rick", "USA", "Xbox"}, {"Julie", "", "iPhone"}, {"Kevin", "Canada", ""}},
      {{"Rick", "USA"}, {"Kevin", "Canada"}},
      {{"Julie", "iPhone"}, {"Rick", "Xbox"}},
      {{"Laptop", "USA"}, {"iPhone", "Canada"}},
  };
}

SearchOptions BaseOptions() {
  SearchOptions options;
  options.k = 5;
  // Fixed thread count: parallel block geometry (and thus tie handling)
  // must match between the in-process reference and the served request.
  options.num_threads = 2;
  return options;
}

// CountOpenFds / WaitFor live in tests/test_util.h now (shared with the
// dist fault suite).
using testing::CountOpenFds;
using testing::WaitFor;

// True when the peer has closed: the next read yields EOF (mapped to
// Internal "connection closed by peer") rather than data.
bool PeerClosed(int fd) {
  char byte;
  const Status st = RecvAll(fd, &byte, 1, 5.0);
  return !st.ok();
}

struct ServerHarness {
  std::unique_ptr<S4Service> service;
  std::unique_ptr<S4Server> server;

  explicit ServerHarness(ServerOptions sopts = {},
                         ServiceOptions service_opts = {}) {
    if (service_opts.num_workers == 2 && service_opts.max_queue == 64) {
      service_opts.num_workers = 4;
      service_opts.eval_threads = 4;
      service_opts.max_queue = 1024;
    }
    service = std::make_unique<S4Service>(System(), service_opts);
    server = std::make_unique<S4Server>(service.get(), sopts);
    const Status st = server->Start();
    if (!st.ok()) {
      ADD_FAILURE() << "server start: " << st;
      abort();
    }
  }

  ClientOptions MakeClientOptions() const {
    ClientOptions copts;
    copts.port = server->port();
    copts.request_timeout_seconds = 60.0;
    return copts;
  }

  StatusOr<UniqueFd> RawConnect() const {
    return ConnectWithTimeout("127.0.0.1", server->port(), 5.0);
  }
};

TEST(NetIntegrationTest, PingPong) {
  ServerHarness h;
  S4Client client(h.MakeClientOptions());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Ping().ok());  // pooled connection reused
}

// The acceptance-criteria test: 8 concurrent S4Clients, all strategies,
// must see bit-identical top-k (signatures and all four score channels)
// to the same requests issued in-process against the same service, and
// identical eval counts for the strategies whose work is deterministic
// under a shared cache (NAIVE, BASELINE; FASTTOPK's counts legitimately
// vary with cross-query cache state, see DESIGN.md).
TEST(NetIntegrationTest, EightClientsBitIdenticalToInProcess) {
  ServerHarness h;
  const std::vector<Cells> sheets = TestSheets();
  const std::vector<S4System::Strategy> strategies = {
      S4System::Strategy::kNaive, S4System::Strategy::kBaseline,
      S4System::Strategy::kFastTopK};
  const SearchOptions options = BaseOptions();

  // In-process references through the same S4Service.
  std::vector<std::vector<SearchResult>> refs(sheets.size());
  for (size_t s = 0; s < sheets.size(); ++s) {
    for (S4System::Strategy strategy : strategies) {
      ServiceRequest req;
      req.cells = sheets[s];
      req.options = options;
      req.strategy = strategy;
      auto ref = h.service->Search(std::move(req));
      ASSERT_TRUE(ref.ok()) << ref.status();
      refs[s].push_back(std::move(ref).value());
    }
  }

  constexpr int kClients = 8;
  const size_t per_client = sheets.size() * strategies.size();
  std::vector<std::vector<StatusOr<NetSearchResponse>>> got(
      kClients, std::vector<StatusOr<NetSearchResponse>>(
                    per_client, Status::Internal("unset")));
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      S4Client client(h.MakeClientOptions());
      size_t slot = 0;
      for (size_t s = 0; s < sheets.size(); ++s) {
        for (size_t st = 0; st < strategies.size(); ++st) {
          const size_t sheet = (s + static_cast<size_t>(c)) % sheets.size();
          got[static_cast<size_t>(c)][slot++] = client.Search(
              NetSearchRequest::From(sheets[sheet], options,
                                     strategies[st]));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int c = 0; c < kClients; ++c) {
    size_t slot = 0;
    for (size_t s = 0; s < sheets.size(); ++s) {
      for (size_t st = 0; st < strategies.size(); ++st) {
        const size_t sheet = (s + static_cast<size_t>(c)) % sheets.size();
        const SearchResult& ref = refs[sheet][st];
        const auto& r = got[static_cast<size_t>(c)][slot++];
        ASSERT_TRUE(r.ok()) << r.status();
        ASSERT_EQ(r->topk.size(), ref.topk.size())
            << "client " << c << " sheet " << sheet << " strategy " << st;
        for (size_t i = 0; i < ref.topk.size(); ++i) {
          // Bit-identical: the doubles crossed the wire as raw IEEE-754
          // bit patterns.
          EXPECT_EQ(r->topk[i].signature, ref.topk[i].query.signature());
          EXPECT_EQ(r->topk[i].score, ref.topk[i].score);
          EXPECT_EQ(r->topk[i].upper_bound, ref.topk[i].upper_bound);
          EXPECT_EQ(r->topk[i].row_score, ref.topk[i].row_score);
          EXPECT_EQ(r->topk[i].column_score, ref.topk[i].column_score);
          EXPECT_EQ(r->topk[i].sql,
                    ref.topk[i].query.ToSql(System().db()));
        }
        if (strategies[st] != S4System::Strategy::kFastTopK) {
          EXPECT_EQ(r->stats.queries_enumerated, ref.stats.queries_enumerated);
          EXPECT_EQ(r->stats.queries_evaluated, ref.stats.queries_evaluated);
          EXPECT_EQ(r->stats.query_row_evals, ref.stats.query_row_evals);
        }
        EXPECT_FALSE(r->interrupted);
      }
    }
  }
  EXPECT_EQ(h.server->counters().protocol_errors.load(), 0);
}

TEST(NetProtocolTest, MalformedPayloadGetsErrorConnectionSurvives) {
  ServerHarness h;
  auto fd = h.RawConnect();
  ASSERT_TRUE(fd.ok()) << fd.status();

  // A well-framed SearchRequest whose payload is garbage: the stream
  // stays in sync, so the server must answer and keep the connection.
  FrameHeader bad;
  bad.type = FrameType::kSearchRequest;
  bad.request_id = 99;
  const std::string garbage = "this is not a search request";
  bad.payload_len = static_cast<uint32_t>(garbage.size());
  std::string frame;
  AppendFrameHeader(bad, &frame);
  frame += garbage;
  ASSERT_TRUE(SendAll(fd->get(), frame.data(), frame.size(), 5.0).ok());

  FrameHeader reply;
  std::string payload;
  ASSERT_TRUE(RecvFrame(fd->get(), 10.0, &reply, &payload).ok());
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.request_id, 99u);
  NetError err;
  ASSERT_TRUE(DecodeError(payload, &err).ok());
  EXPECT_EQ(err.ToStatus().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(err.retryable);

  // A well-formed request whose options fail ValidateSearchOptions is
  // rejected at decode the same way: InvalidArgument, stream in sync.
  SearchOptions bad_k = BaseOptions();
  bad_k.k = 0;
  const std::string bad_request = EncodeSearchRequestFrame(
      NetSearchRequest::From(TestSheets()[0], bad_k,
                             S4System::Strategy::kFastTopK),
      98);
  ASSERT_TRUE(
      SendAll(fd->get(), bad_request.data(), bad_request.size(), 5.0).ok());
  ASSERT_TRUE(RecvFrame(fd->get(), 10.0, &reply, &payload).ok());
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.request_id, 98u);
  ASSERT_TRUE(DecodeError(payload, &err).ok());
  EXPECT_EQ(err.ToStatus().code(), StatusCode::kInvalidArgument);

  // The same connection still serves a ping.
  const std::string ping = EncodePingFrame(100);
  ASSERT_TRUE(SendAll(fd->get(), ping.data(), ping.size(), 5.0).ok());
  ASSERT_TRUE(RecvFrame(fd->get(), 10.0, &reply, &payload).ok());
  EXPECT_EQ(reply.type, FrameType::kPong);
  EXPECT_EQ(reply.request_id, 100u);
}

// The one search exchange on the wire: a plain kSearchRequest is
// answered by exactly one kSearchResponse and no partials; the same
// request with a partial cadence streams kShardPartial frames and then
// exactly one kSearchResponse, every frame under the request's id.
TEST(NetProtocolTest, SearchStreamsPartialsOnlyWhenAsked) {
  ServerHarness h;
  auto fd = h.RawConnect();
  ASSERT_TRUE(fd.ok()) << fd.status();
  // Runs one exchange to its final response, then pings: the pong must
  // be the very next frame, so nothing else was queued for the search.
  auto exchange = [&](const NetSearchRequest& req, uint64_t id,
                      int* partials) {
    const std::string frame = EncodeSearchRequestFrame(req, id);
    ASSERT_TRUE(SendAll(fd->get(), frame.data(), frame.size(), 5.0).ok());
    *partials = 0;
    FrameHeader reply;
    std::string payload;
    for (;;) {
      ASSERT_TRUE(RecvFrame(fd->get(), 10.0, &reply, &payload).ok());
      ASSERT_EQ(reply.request_id, id);
      if (reply.type != FrameType::kShardPartial) break;
      NetShardPartial partial;
      ASSERT_TRUE(DecodeShardPartial(payload, &partial).ok());
      // Slice coverage rides every partial.
      EXPECT_GT(partial.stats.queries_enumerated, 0);
      ++*partials;
    }
    ASSERT_EQ(reply.type, FrameType::kSearchResponse);
    NetSearchResponse resp;
    ASSERT_TRUE(DecodeSearchResponse(payload, &resp).ok());
    EXPECT_FALSE(resp.topk.empty());
    EXPECT_FALSE(resp.has_segment);
    const std::string ping = EncodePingFrame(id + 1);
    ASSERT_TRUE(SendAll(fd->get(), ping.data(), ping.size(), 5.0).ok());
    ASSERT_TRUE(RecvFrame(fd->get(), 10.0, &reply, &payload).ok());
    EXPECT_EQ(reply.type, FrameType::kPong);
    EXPECT_EQ(reply.request_id, id + 1);
  };

  NetSearchRequest req = NetSearchRequest::From(
      TestSheets()[0], BaseOptions(), S4System::Strategy::kFastTopK);
  int partials = -1;
  exchange(req, 7, &partials);
  EXPECT_EQ(partials, 0);
  EXPECT_EQ(h.server->counters().shard_partials_sent.load(), 0);

  req.partial_every = 1;
  exchange(req, 9, &partials);
  EXPECT_GE(partials, 1);
  EXPECT_EQ(h.server->counters().shard_partials_sent.load(), partials);
}

// The blocking client has nowhere to deliver partials: a request with a
// partial cadence is refused before anything is sent, so the pooled
// connection never holds an unread exchange.
TEST(NetProtocolTest, ClientRefusesPartialCadence) {
  ServerHarness h;
  S4Client client(h.MakeClientOptions());
  ASSERT_TRUE(client.Ping().ok());  // one pooled connection
  const int64_t frames = h.server->counters().frames_received.load();
  NetSearchRequest req = NetSearchRequest::From(
      TestSheets()[0], BaseOptions(), S4System::Strategy::kFastTopK);
  req.partial_every = 1;
  auto refused = client.Search(req);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(h.server->counters().frames_received.load(), frames);

  req.partial_every = 0;
  auto served = client.Search(req);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(h.server->counters().connections_accepted.load(), 1);
}

// The search request carries options.enumeration whole, so an OR search
// (Appendix A.3) and the other enumeration settings reach the server: the
// networked answer is bit-identical to the in-process one. A bad
// active_columns list is refused server-side, as it is in-process.
TEST(NetProtocolTest, ClientCarriesOrSemantics) {
  ServerHarness h;
  S4Client client(h.MakeClientOptions());
  auto expect_same = [&](const Cells& cells, const SearchOptions& options,
                         const std::string& label) {
    auto ref = System().Search(cells, options);
    ASSERT_TRUE(ref.ok()) << label << ": " << ref.status();
    auto got = client.Search(
        NetSearchRequest::From(cells, options, S4System::Strategy::kFastTopK));
    ASSERT_TRUE(got.ok()) << label << ": " << got.status();
    ASSERT_EQ(got->topk.size(), ref->topk.size()) << label;
    for (size_t i = 0; i < ref->topk.size(); ++i) {
      EXPECT_EQ(got->topk[i].signature, ref->topk[i].query.signature())
          << label << " rank " << i;
      EXPECT_EQ(got->topk[i].score, ref->topk[i].score)
          << label << " rank " << i;
      EXPECT_EQ(got->topk[i].upper_bound, ref->topk[i].upper_bound)
          << label << " rank " << i;
    }
    EXPECT_EQ(got->stats.queries_enumerated, ref->stats.queries_enumerated)
        << label;
  };

  // No database column matches "zzznothing", so under AND nothing
  // answers; under OR the partial mappings do.
  SearchOptions options = BaseOptions();
  options.enumeration.or_semantics = true;
  options.enumeration.max_queries = 4000;
  options.enumeration.cost_aware_rooting = false;
  const Cells unmatchable = {{"Xbox", "zzznothing"}};
  ASSERT_FALSE(System().Search(unmatchable, options)->topk.empty());
  expect_same(unmatchable, options, "or");

  SearchOptions projected = BaseOptions();
  projected.enumeration.active_columns = {1};
  expect_same(TestSheets()[1], projected, "active_columns {1}");

  for (const std::vector<int32_t>& bad :
       {std::vector<int32_t>{2}, std::vector<int32_t>{-1},
        std::vector<int32_t>{0, 0}}) {
    projected.enumeration.active_columns = bad;
    auto refused = client.Search(NetSearchRequest::From(
        TestSheets()[1], projected, S4System::Strategy::kFastTopK));
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << refused.status();
  }
}

TEST(NetProtocolTest, GarbageStreamClosedWithoutResponse) {
  ServerHarness h;
  auto fd = h.RawConnect();
  ASSERT_TRUE(fd.ok()) << fd.status();
  const std::string garbage(64, 'x');  // no valid magic anywhere
  ASSERT_TRUE(SendAll(fd->get(), garbage.data(), garbage.size(), 5.0).ok());
  EXPECT_TRUE(PeerClosed(fd->get()));
  EXPECT_TRUE(WaitFor(
      [&] { return h.server->counters().protocol_errors.load() >= 1; }));
}

TEST(NetProtocolTest, VersionMismatchGetsErrorThenClose) {
  ServerHarness h;
  auto fd = h.RawConnect();
  ASSERT_TRUE(fd.ok()) << fd.status();
  std::string frame = EncodePingFrame(7);
  frame[4] = 99;  // version byte
  ASSERT_TRUE(SendAll(fd->get(), frame.data(), frame.size(), 5.0).ok());
  FrameHeader reply;
  std::string payload;
  ASSERT_TRUE(RecvFrame(fd->get(), 10.0, &reply, &payload).ok());
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.request_id, 7u);
  NetError err;
  ASSERT_TRUE(DecodeError(payload, &err).ok());
  EXPECT_EQ(err.ToStatus().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(PeerClosed(fd->get()));
}

TEST(NetProtocolTest, OversizedFrameGetsErrorThenClose) {
  ServerOptions sopts;
  sopts.max_frame_bytes = 1024;
  ServerHarness h(sopts);
  auto fd = h.RawConnect();
  ASSERT_TRUE(fd.ok()) << fd.status();
  FrameHeader big;
  big.type = FrameType::kSearchRequest;
  big.request_id = 13;
  big.payload_len = 1 << 20;  // over the 1 KiB limit; never actually sent
  std::string frame;
  AppendFrameHeader(big, &frame);
  ASSERT_TRUE(SendAll(fd->get(), frame.data(), frame.size(), 5.0).ok());
  FrameHeader reply;
  std::string payload;
  ASSERT_TRUE(RecvFrame(fd->get(), 10.0, &reply, &payload).ok());
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.request_id, 13u);
  NetError err;
  ASSERT_TRUE(DecodeError(payload, &err).ok());
  EXPECT_EQ(err.ToStatus().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(PeerClosed(fd->get()));
}

TEST(NetProtocolTest, SlowLorisPartialFrameIdleClosed) {
  ServerOptions sopts;
  sopts.idle_timeout_seconds = 0.2;
  ServerHarness h(sopts);
  auto fd = h.RawConnect();
  ASSERT_TRUE(fd.ok()) << fd.status();
  // Half a header, then silence: the sweep must cut us off.
  const std::string frame = EncodePingFrame(1);
  ASSERT_TRUE(SendAll(fd->get(), frame.data(), kHeaderBytes / 2, 5.0).ok());
  EXPECT_TRUE(PeerClosed(fd->get()));
  EXPECT_TRUE(
      WaitFor([&] { return h.server->counters().idle_closes.load() >= 1; }));
}

TEST(NetProtocolTest, DeadlineExceededMapsToTypedStatus) {
  ServerHarness h;
  // Deterministic expiry, no wall-clock race: the service is paused, so
  // the request provably sits in the queue past its (tiny) deadline; the
  // resumer thread releases it only after admission, and the worker's
  // queued-expiry check then fails it with the typed status.
  h.service->Pause();
  std::thread resumer([&] {
    ASSERT_TRUE(WaitFor([&] { return h.service->stats().accepted >= 1; }));
    h.service->Resume();
  });
  S4Client client(h.MakeClientOptions());
  SearchOptions options = BaseOptions();
  options.deadline_seconds = 1e-6;
  NetSearchRequest req = NetSearchRequest::From(
      TestSheets()[0], options, S4System::Strategy::kFastTopK);
  auto result = client.Search(req);
  resumer.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(IsRetryable(result.status().code()));
}

// A deadline too large for the clock (here +inf, which passes option
// validation) means no deadline: the search runs to completion with the
// same top-k as one that set none, instead of expiring before its first
// batch.
TEST(NetProtocolTest, InfiniteDeadlineRunsToCompletion) {
  ServerHarness h;
  S4Client client(h.MakeClientOptions());
  SearchOptions options = BaseOptions();
  auto ref = client.Search(NetSearchRequest::From(
      TestSheets()[0], options, S4System::Strategy::kFastTopK));
  ASSERT_TRUE(ref.ok()) << ref.status();
  options.deadline_seconds = std::numeric_limits<double>::infinity();
  auto got = client.Search(NetSearchRequest::From(
      TestSheets()[0], options, S4System::Strategy::kFastTopK));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_FALSE(got->interrupted);
  ASSERT_EQ(got->topk.size(), ref->topk.size());
  for (size_t i = 0; i < ref->topk.size(); ++i) {
    EXPECT_EQ(got->topk[i].signature, ref->topk[i].signature) << i;
    EXPECT_EQ(got->topk[i].score, ref->topk[i].score) << i;
  }
}

TEST(NetProtocolTest, BackpressureMapsToRetryableResourceExhausted) {
  ServiceOptions service_opts;
  service_opts.num_workers = 1;
  service_opts.max_queue = 1;
  ServerHarness h({}, service_opts);
  // Paused: admitted requests sit in the queue, so the second one in
  // flight is rejected at admission.
  h.service->Pause();
  auto fd = h.RawConnect();
  ASSERT_TRUE(fd.ok()) << fd.status();
  const NetSearchRequest req = NetSearchRequest::From(
      TestSheets()[1], BaseOptions(), S4System::Strategy::kBaseline);
  const std::string first = EncodeSearchRequestFrame(req, 1);
  const std::string second = EncodeSearchRequestFrame(req, 2);
  ASSERT_TRUE(SendAll(fd->get(), first.data(), first.size(), 5.0).ok());
  ASSERT_TRUE(SendAll(fd->get(), second.data(), second.size(), 5.0).ok());

  // The rejection comes back immediately while request 1 stays queued.
  FrameHeader reply;
  std::string payload;
  ASSERT_TRUE(RecvFrame(fd->get(), 10.0, &reply, &payload).ok());
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.request_id, 2u);
  NetError err;
  ASSERT_TRUE(DecodeError(payload, &err).ok());
  EXPECT_EQ(err.ToStatus().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(err.retryable);

  // Resume; request 1 completes normally on the same connection.
  h.service->Resume();
  ASSERT_TRUE(RecvFrame(fd->get(), 10.0, &reply, &payload).ok());
  EXPECT_EQ(reply.type, FrameType::kSearchResponse);
  EXPECT_EQ(reply.request_id, 1u);
  NetSearchResponse resp;
  EXPECT_TRUE(DecodeSearchResponse(payload, &resp).ok());
  EXPECT_GT(resp.topk.size(), 0u);
}

TEST(NetIntegrationTest, DisconnectCancelsInflightRequest) {
  ServiceOptions service_opts;
  service_opts.num_workers = 1;
  service_opts.max_queue = 8;
  ServerHarness h({}, service_opts);
  h.service->Pause();
  {
    auto fd = h.RawConnect();
    ASSERT_TRUE(fd.ok()) << fd.status();
    const std::string frame = EncodeSearchRequestFrame(
        NetSearchRequest::From(TestSheets()[0], BaseOptions(),
                               S4System::Strategy::kFastTopK),
        1);
    ASSERT_TRUE(SendAll(fd->get(), frame.data(), frame.size(), 5.0).ok());
    // Wait until the request is actually queued before disconnecting.
    ASSERT_TRUE(WaitFor([&] { return h.service->stats().accepted >= 1; }));
  }  // socket closes here, mid-request
  EXPECT_TRUE(WaitFor(
      [&] { return h.server->counters().disconnect_cancels.load() >= 1; }));
  h.service->Resume();
  // The worker observes the cancelled StopToken and finishes the request
  // as Cancelled; the completion finds the connection gone and is
  // dropped without crash.
  EXPECT_TRUE(WaitFor([&] { return h.service->stats().cancelled >= 1; }));
  EXPECT_TRUE(
      WaitFor([&] { return h.server->num_connections() == 0; }));
}

TEST(NetClientTest, PoolRecoversFromServerSideIdleClose) {
  ServerOptions sopts;
  sopts.idle_timeout_seconds = 0.15;
  ServerHarness h(sopts);
  S4Client client(h.MakeClientOptions());
  ASSERT_TRUE(client.Ping().ok());
  // Let the server idle-close the pooled connection, then search again:
  // the client must retry once on a fresh dial instead of failing.
  ASSERT_TRUE(
      WaitFor([&] { return h.server->counters().idle_closes.load() >= 1; }));
  auto result = client.Search(NetSearchRequest::From(
      TestSheets()[1], BaseOptions(), S4System::Strategy::kBaseline));
  EXPECT_TRUE(result.ok()) << result.status();
}

// num_threads travels unchecked; the largest value must still run (the
// per-run cache sizing saturates) and rank exactly like the default.
TEST(NetIntegrationTest, HugeThreadCountMatchesDefault) {
  ServerHarness h;
  S4Client client(h.MakeClientOptions());
  SearchOptions options;
  options.k = 5;
  auto base = client.Search(NetSearchRequest::From(
      TestSheets()[0], options, S4System::Strategy::kFastTopK));
  options.num_threads = std::numeric_limits<int32_t>::max();
  auto huge = client.Search(NetSearchRequest::From(
      TestSheets()[0], options, S4System::Strategy::kFastTopK));
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_TRUE(huge.ok()) << huge.status();
  ASSERT_FALSE(base->topk.empty());
  ASSERT_EQ(huge->topk.size(), base->topk.size());
  for (size_t i = 0; i < base->topk.size(); ++i) {
    EXPECT_EQ(huge->topk[i].signature, base->topk[i].signature) << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(huge->topk[i].score),
              std::bit_cast<uint64_t>(base->topk[i].score))
        << i;
  }
}

// Every error path above, then count fds: accepting, erroring, idling,
// disconnecting, and stopping must return every descriptor.
TEST(NetIntegrationTest, NoFdLeaksAcrossErrorPaths) {
  const int before = CountOpenFds();
  ASSERT_GT(before, 0);
  {
    ServerOptions sopts;
    sopts.idle_timeout_seconds = 0.2;
    ServerHarness h(sopts);
    S4Client client(h.MakeClientOptions());
    ASSERT_TRUE(client.Ping().ok());
    auto ok = client.Search(NetSearchRequest::From(
        TestSheets()[1], BaseOptions(), S4System::Strategy::kBaseline));
    EXPECT_TRUE(ok.ok()) << ok.status();
    {
      // Garbage stream -> server-side close.
      auto fd = h.RawConnect();
      ASSERT_TRUE(fd.ok());
      const std::string garbage(32, 'z');
      ASSERT_TRUE(
          SendAll(fd->get(), garbage.data(), garbage.size(), 5.0).ok());
      EXPECT_TRUE(PeerClosed(fd->get()));
    }
    {
      // Abrupt client disconnect with nothing in flight.
      auto fd = h.RawConnect();
      ASSERT_TRUE(fd.ok());
    }
    EXPECT_TRUE(WaitFor([&] {
      return h.server->counters().connections_closed.load() >= 2;
    }));
    h.server->Stop();
  }
  // Harness destroyed: every socket, epoll fd, and eventfd must be gone.
  EXPECT_TRUE(WaitFor([&] { return CountOpenFds() == before; }))
      << "fd count before=" << before << " after=" << CountOpenFds();
}

// --- observability wire surface (kStats / kTrace) ----------------------

// One traced search, then the two new frame types: kStatsRequest must
// return a Prometheus dump whose counters reflect the search, and
// kTraceRequest must return Chrome-trace JSON with the spans every layer
// is responsible for (net decode, Stage-I, Stage-II, cache probes).
TEST(NetTraceTest, StatsAndTraceRoundTripAfterSearch) {
  ServerOptions sopts;
  sopts.enable_tracing = true;
  ServerHarness h(sopts);
  S4Client client(h.MakeClientOptions());

  // Registry counters are process-global and other tests also search, so
  // assert on deltas.
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();

  uint64_t request_id = 0;
  auto result = client.Search(
      NetSearchRequest::From(TestSheets()[0], BaseOptions(),
                             S4System::Strategy::kFastTopK),
      &request_id);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GT(request_id, 0u);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_NE(stats->find("# TYPE s4_searches_total counter"),
            std::string::npos);
  EXPECT_NE(stats->find("s4_candidates_evaluated_total"),
            std::string::npos);
  EXPECT_NE(stats->find("s4_request_latency_seconds"), std::string::npos);
  EXPECT_NE(stats->find("s4_net_frames_received"), std::string::npos);

  obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(after.Value("s4_searches_total"),
            before.Value("s4_searches_total") + 1);
  EXPECT_GE(after.Value("s4_candidates_evaluated_total"),
            before.Value("s4_candidates_evaluated_total") + 1);
  EXPECT_GE(after.Value("s4_cache_probe_hits_total") +
                after.Value("s4_cache_probe_misses_total"),
            before.Value("s4_cache_probe_hits_total") +
                before.Value("s4_cache_probe_misses_total") + 1);

  auto trace_json = client.FetchTrace(request_id);
  ASSERT_TRUE(trace_json.ok()) << trace_json.status();
  EXPECT_NE(trace_json->find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_json->find("frame_decode"), std::string::npos);
  EXPECT_NE(trace_json->find("frame_encode"), std::string::npos);
  EXPECT_NE(trace_json->find("enumerate"), std::string::npos);
  EXPECT_NE(trace_json->find("evaluate_candidate"), std::string::npos);
  EXPECT_NE(trace_json->find("cache_probe"), std::string::npos);
  EXPECT_NE(trace_json->find("admission_queue_wait"), std::string::npos);
  // Export-time normalization: no negative timestamps even though the
  // frame_decode span was recorded before the trace epoch.
  EXPECT_EQ(trace_json->find("\"ts\":-"), std::string::npos);
}

TEST(NetTraceTest, UnknownTraceIdIsNotFoundAndKeepsConnection) {
  ServerOptions sopts;
  sopts.enable_tracing = true;
  ServerHarness h(sopts);
  S4Client client(h.MakeClientOptions());

  auto missing = client.FetchTrace(0xDEADBEEFull);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // Per-request miss, not a protocol violation: the stream survives.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(h.server->counters().protocol_errors.load(), 0);
}

TEST(NetTraceTest, TracingDisabledAnswersNotFound) {
  ServerHarness h;  // default options: tracing off
  S4Client client(h.MakeClientOptions());
  uint64_t request_id = 0;
  auto result = client.Search(
      NetSearchRequest::From(TestSheets()[1], BaseOptions(),
                             S4System::Strategy::kBaseline),
      &request_id);
  ASSERT_TRUE(result.ok()) << result.status();
  auto missing = client.FetchTrace(request_id);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(NetTraceTest, TraceHistoryEvictsOldestFirst) {
  ServerOptions sopts;
  sopts.enable_tracing = true;
  sopts.trace_history = 2;
  ServerHarness h(sopts);
  S4Client client(h.MakeClientOptions());

  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    uint64_t id = 0;
    auto result = client.Search(
        NetSearchRequest::From(TestSheets()[1], BaseOptions(),
                               S4System::Strategy::kBaseline),
        &id);
    ASSERT_TRUE(result.ok()) << result.status();
    ids.push_back(id);
  }
  // Oldest fell out of the 2-entry ring; the two newest are servable.
  auto oldest = client.FetchTrace(ids[0]);
  EXPECT_FALSE(oldest.ok());
  EXPECT_EQ(oldest.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(client.FetchTrace(ids[1]).ok());
  EXPECT_TRUE(client.FetchTrace(ids[2]).ok());
}

TEST(NetTraceTest, StatsWorkWithoutAnySearch) {
  ServerHarness h;
  S4Client client(h.MakeClientOptions());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  // Service/pool/net gauges are registered by the scrape itself.
  EXPECT_NE(stats->find("s4_service_queue_depth"), std::string::npos);
  EXPECT_NE(stats->find("s4_net_open_connections"), std::string::npos);
}

}  // namespace
}  // namespace s4::net
