// Fault-injection suite for the scatter-gather coordinator: a
// FaultyShard proxy (tests/test_util.h) sits between the coordinator
// and one real shard server, dropping connections mid-request,
// blackholing past the deadline, or replacing a response frame with
// injected ResourceExhausted backpressure. The coordinator must (a)
// come back within its budget every time, (b) report complete=false
// exactly when a shard is lost, (c) degrade to the exact top-k of the
// reached slices — full top-k minus the lost slice, never a corrupted
// in-between — (d) retry backpressure exactly once, and (e) leak no
// file descriptors across any of it.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/coordinator.h"
#include "net/server.h"
#include "net/wire.h"
#include "s4/s4.h"
#include "service/s4_service.h"
#include "strategy/strategy.h"
#include "tests/test_util.h"

namespace s4::dist {
namespace {

using s4::testing::CountOpenFds;
using s4::testing::FaultyShard;
using s4::testing::WaitFor;

using Cells = std::vector<std::vector<std::string>>;

constexpr int32_t kShards = 3;
constexpr int32_t kK = 5;

const S4System& TpchSystem() {
  static const S4System& system = *[] {
    auto s = S4System::Create(s4::testing::TpchDb());
    if (!s.ok()) abort();
    return s->release();
  }();
  return system;
}

Cells TestCells() { return {{"Rick", "USA"}, {"Morty", "USA"}}; }

SearchOptions TestOptions() {
  SearchOptions options;
  options.k = kK;
  options.enumeration.max_tree_size = 3;
  options.num_threads = 2;
  return options;
}

// 3 shard servers with one FaultyShard proxy in front of shard
// `faulty_index`; the coordinator talks to the proxy for that shard and
// directly to the others.
struct FaultHarness {
  std::vector<std::unique_ptr<S4Service>> services;
  std::vector<std::unique_ptr<net::S4Server>> servers;
  std::unique_ptr<FaultyShard> faulty;
  std::unique_ptr<S4Coordinator> coordinator;
  int32_t faulty_index;

  FaultHarness(int32_t faulty_idx, FaultyShard::Options fopts,
               CoordinatorOptions copts = {})
      : faulty_index(faulty_idx) {
    for (int32_t i = 0; i < kShards; ++i) {
      ServiceOptions sopts;
      sopts.num_workers = 2;
      sopts.max_queue = 32;
      sopts.shard_count = kShards;
      sopts.shard_index = i;
      services.push_back(std::make_unique<S4Service>(TpchSystem(), sopts));
      servers.push_back(
          std::make_unique<net::S4Server>(services.back().get()));
      const Status st = servers.back()->Start();
      if (!st.ok()) abort();
      uint16_t port = servers.back()->port();
      if (i == faulty_idx) {
        faulty = std::make_unique<FaultyShard>(port, fopts);
        port = faulty->port();
      }
      copts.shards.push_back({"127.0.0.1", port});
    }
    coordinator = std::make_unique<S4Coordinator>(std::move(copts));
  }
};

// The canonical rank order (score desc, signature asc) — restated here
// so the expected degraded result is computed independently of the code
// under test.
bool MergeBefore(const net::NetTopkEntry& a, const net::NetTopkEntry& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.signature < b.signature;
}

// Exact expected degraded top-k: per-slice single-node searches over
// every reached slice, merged under the coordinator's order. This is
// "the full top-k minus the lost slice" computed without any networking.
std::vector<net::NetTopkEntry> ExpectedWithoutShard(int32_t lost) {
  std::vector<net::NetTopkEntry> all;
  for (int32_t i = 0; i < kShards; ++i) {
    if (i == lost) continue;
    SearchOptions options = TestOptions();
    options.shard_count = kShards;
    options.shard_index = i;
    auto r = TpchSystem().Search(TestCells(), options);
    if (!r.ok()) abort();
    for (const auto& e : r->topk) {
      net::NetTopkEntry entry;
      entry.signature = e.query.signature();
      entry.score = e.score;
      entry.upper_bound = e.upper_bound;
      all.push_back(std::move(entry));
    }
  }
  std::sort(all.begin(), all.end(), MergeBefore);
  if (all.size() > static_cast<size_t>(kK)) all.resize(kK);
  return all;
}

void ExpectSameTopk(const std::vector<net::NetTopkEntry>& want,
                    const std::vector<net::NetTopkEntry>& got,
                    const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].signature, got[i].signature) << label << " rank " << i;
    EXPECT_EQ(want[i].score, got[i].score) << label << " rank " << i;
  }
}

TEST(DistFaultTest, DropMidRequestDegradesToReachedSlices) {
  const int fds_before = CountOpenFds();
  const int32_t lost = 1;
  {
    FaultyShard::Options fopts;
    fopts.fault = FaultyShard::Fault::kDropMidRequest;
    fopts.fail_connections = 100;  // every attempt, retries included
    FaultHarness h(lost, fopts);

    auto got = h.coordinator->Search(net::NetSearchRequest::From(
        TestCells(), TestOptions(), S4System::Strategy::kFastTopK));
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_FALSE(got->complete);
    ASSERT_EQ(got->unreached_shards, std::vector<int32_t>{lost});
    EXPECT_FALSE(got->shards[lost].reached);
    EXPECT_FALSE(got->shards[lost].error.empty());
    for (int32_t i = 0; i < kShards; ++i) {
      if (i != lost) {
        EXPECT_TRUE(got->shards[i].reached) << "shard " << i;
      }
    }
    ExpectSameTopk(ExpectedWithoutShard(lost), got->topk, "drop");

    // Transport failures are never retried: one attempt, one proxy
    // connection.
    EXPECT_EQ(got->shards[lost].retries, 0);
    EXPECT_EQ(h.faulty->connections_seen(), 1);
  }
  EXPECT_TRUE(WaitFor([&] { return CountOpenFds() <= fds_before; }))
      << "fd leak: " << CountOpenFds() << " open, was " << fds_before;
}

TEST(DistFaultTest, BlackholeShardTimesOutWithinBudget) {
  const int fds_before = CountOpenFds();
  const int32_t lost = 2;
  {
    FaultyShard::Options fopts;
    fopts.fault = FaultyShard::Fault::kBlackhole;
    fopts.fail_connections = 100;
    CoordinatorOptions copts;
    copts.request_timeout_seconds = 1.5;
    FaultHarness h(lost, fopts, std::move(copts));

    const auto start = std::chrono::steady_clock::now();
    auto got = h.coordinator->Search(net::NetSearchRequest::From(
        TestCells(), TestOptions(), S4System::Strategy::kFastTopK));
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_FALSE(got->complete);
    ASSERT_EQ(got->unreached_shards, std::vector<int32_t>{lost});
    // The whole search — including the hung shard — returns within the
    // budget plus bounded slack, instead of hanging until the peer
    // gives up.
    EXPECT_LT(elapsed, 6.0) << "coordinator did not honor its budget";
    EXPECT_EQ(got->shards[lost].retries, 0);  // timeouts are not retried
    ExpectSameTopk(ExpectedWithoutShard(lost), got->topk, "blackhole");
  }
  EXPECT_TRUE(WaitFor([&] { return CountOpenFds() <= fds_before; }))
      << "fd leak: " << CountOpenFds() << " open, was " << fds_before;
}

TEST(DistFaultTest, BackpressureRetriesOnceThenSucceeds) {
  const int fds_before = CountOpenFds();
  const int32_t flaky = 0;
  {
    FaultyShard::Options fopts;
    fopts.fault = FaultyShard::Fault::kErrorOnNthFrame;
    fopts.fail_connections = 1;  // first attempt poisoned, retry clean
    FaultHarness h(flaky, fopts);

    auto got = h.coordinator->Search(net::NetSearchRequest::From(
        TestCells(), TestOptions(), S4System::Strategy::kFastTopK));
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(got->complete);
    EXPECT_TRUE(got->unreached_shards.empty());
    EXPECT_EQ(got->shards[flaky].retries, 1);
    EXPECT_TRUE(got->shards[flaky].reached);
    EXPECT_EQ(h.faulty->connections_seen(), 2);

    // With the retry absorbed the result is the full, non-degraded
    // top-k — bit-identical to single-node.
    auto ref = TpchSystem().Search(TestCells(), TestOptions());
    ASSERT_TRUE(ref.ok());
    ASSERT_EQ(ref->topk.size(), got->topk.size());
    for (size_t i = 0; i < got->topk.size(); ++i) {
      EXPECT_EQ(ref->topk[i].query.signature(), got->topk[i].signature);
      EXPECT_EQ(ref->topk[i].score, got->topk[i].score);
    }
  }
  EXPECT_TRUE(WaitFor([&] { return CountOpenFds() <= fds_before; }))
      << "fd leak: " << CountOpenFds() << " open, was " << fds_before;
}

TEST(DistFaultTest, BackpressureBeyondRetryBudgetLosesShard) {
  const int fds_before = CountOpenFds();
  const int32_t lost = 0;
  {
    FaultyShard::Options fopts;
    fopts.fault = FaultyShard::Fault::kErrorOnNthFrame;
    fopts.fail_connections = 100;  // the retry fails too
    FaultHarness h(lost, fopts);

    auto got = h.coordinator->Search(net::NetSearchRequest::From(
        TestCells(), TestOptions(), S4System::Strategy::kFastTopK));
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_FALSE(got->complete);
    ASSERT_EQ(got->unreached_shards, std::vector<int32_t>{lost});
    EXPECT_EQ(got->shards[lost].retries, 1);  // bounded: exactly one retry
    EXPECT_EQ(h.faulty->connections_seen(), 2);
    ExpectSameTopk(ExpectedWithoutShard(lost), got->topk, "exhausted");
  }
  EXPECT_TRUE(WaitFor([&] { return CountOpenFds() <= fds_before; }))
      << "fd leak: " << CountOpenFds() << " open, was " << fds_before;
}

// A clean proxy in the path must be invisible: complete results,
// bit-identical to the directly-connected deployment, no retries.
TEST(DistFaultTest, PassthroughProxyIsInvisible) {
  const int fds_before = CountOpenFds();
  {
    FaultyShard::Options fopts;
    fopts.fault = FaultyShard::Fault::kNone;
    FaultHarness h(1, fopts);

    auto got = h.coordinator->Search(net::NetSearchRequest::From(
        TestCells(), TestOptions(), S4System::Strategy::kFastTopK));
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(got->complete);
    EXPECT_TRUE(got->unreached_shards.empty());
    for (const auto& s : got->shards) {
      EXPECT_TRUE(s.reached);
      EXPECT_EQ(s.retries, 0);
    }
    auto ref = TpchSystem().Search(TestCells(), TestOptions());
    ASSERT_TRUE(ref.ok());
    ASSERT_EQ(ref->topk.size(), got->topk.size());
    for (size_t i = 0; i < got->topk.size(); ++i) {
      EXPECT_EQ(ref->topk[i].query.signature(), got->topk[i].signature);
      EXPECT_EQ(ref->topk[i].score, got->topk[i].score);
    }
  }
  EXPECT_TRUE(WaitFor([&] { return CountOpenFds() <= fds_before; }))
      << "fd leak: " << CountOpenFds() << " open, was " << fds_before;
}

}  // namespace
}  // namespace s4::dist
