// Distributed scatter-gather differential suite: across randomly
// generated schemas, an S4Coordinator over N in-process shard servers
// (real loopback sockets, real wire frames) must return bit-identical
// top-k — signatures AND scores — to a single-node S4System::Search
// over the full candidate space, for N in {1, 2, 4}, every strategy,
// 20 seeds. Also pins down the sharding invariant: the per-shard slice
// sizes sum to the single-node enumeration count (disjoint + covering).
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/random_schema.h"
#include "dist/coordinator.h"
#include "net/server.h"
#include "net/wire.h"
#include "s4/s4.h"
#include "service/s4_service.h"
#include "strategy/strategy.h"
#include "tests/test_util.h"

namespace s4::dist {
namespace {

using Cells = std::vector<std::vector<std::string>>;

// N shard servers over one S4System, every one admission-locked to its
// slice, plus a coordinator wired to all of them.
struct DistHarness {
  std::vector<std::unique_ptr<S4Service>> services;
  std::vector<std::unique_ptr<net::S4Server>> servers;
  std::unique_ptr<S4Coordinator> coordinator;

  DistHarness(const S4System& system, int32_t shard_count,
              CoordinatorOptions copts = {}) {
    for (int32_t i = 0; i < shard_count; ++i) {
      ServiceOptions sopts;
      sopts.num_workers = 2;
      sopts.max_queue = 32;
      sopts.shard_count = shard_count;
      sopts.shard_index = i;
      services.push_back(std::make_unique<S4Service>(system, sopts));
      servers.push_back(
          std::make_unique<net::S4Server>(services.back().get()));
      const Status st = servers.back()->Start();
      if (!st.ok()) {
        ADD_FAILURE() << "shard " << i << ": " << st;
        abort();
      }
      copts.shards.push_back({"127.0.0.1", servers.back()->port()});
    }
    coordinator = std::make_unique<S4Coordinator>(std::move(copts));
  }
};

// Strict bit-identity: signatures and raw score bits at every rank.
void ExpectBitIdentical(const SearchResult& ref,
                        const DistSearchResult& got,
                        const std::string& label) {
  ASSERT_EQ(ref.topk.size(), got.topk.size()) << label;
  for (size_t i = 0; i < ref.topk.size(); ++i) {
    EXPECT_EQ(ref.topk[i].query.signature(), got.topk[i].signature)
        << label << " rank " << i;
    EXPECT_EQ(ref.topk[i].score, got.topk[i].score)
        << label << " rank " << i;
    EXPECT_EQ(ref.topk[i].upper_bound, got.topk[i].upper_bound)
        << label << " rank " << i;
  }
}

class DistDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DistDifferentialTest, CoordinatorBitIdenticalToSingleNode) {
  const uint64_t seed = GetParam();
  datagen::RandomSchemaOptions opts;
  opts.seed = seed;
  opts.num_tables = 4 + static_cast<int32_t>(seed % 4);
  auto db = datagen::MakeRandomSchema(opts);
  ASSERT_TRUE(db.ok()) << db.status();
  auto system = S4System::Create(*db);
  ASSERT_TRUE(system.ok()) << system.status();

  // Random spreadsheet over the generator's shared vocabulary (the
  // differential_test idiom).
  Rng rng(seed * 131 + 7);
  Cells cells(2);
  for (auto& row : cells) {
    for (int c = 0; c < 2; ++c) {
      std::string cell = StrFormat(
          "w%lld", static_cast<long long>(rng.Uniform(opts.vocab_size)));
      if (rng.Bernoulli(0.4)) {
        cell += StrFormat(
            " w%lld",
            static_cast<long long>(rng.Uniform(opts.vocab_size)));
      }
      row.push_back(cell);
    }
  }

  SearchOptions options;
  options.k = 5;
  options.enumeration.max_tree_size = 3;
  options.enumeration.max_queries = 4000;
  // Fixed thread count: parallel block geometry (and thus tie handling)
  // must match between the reference and every shard.
  options.num_threads = 2;

  const std::vector<S4System::Strategy> strategies = {
      S4System::Strategy::kNaive, S4System::Strategy::kBaseline,
      S4System::Strategy::kFastTopK};

  // Single-node references over the full candidate space.
  std::vector<SearchResult> refs;
  for (S4System::Strategy strategy : strategies) {
    auto ref = (*system)->Search(cells, options, strategy);
    ASSERT_TRUE(ref.ok()) << ref.status();
    refs.push_back(std::move(ref).value());
  }

  for (int32_t shard_count : {1, 2, 4}) {
    DistHarness h(**system, shard_count);
    for (size_t st = 0; st < strategies.size(); ++st) {
      const std::string label = StrFormat(
          "seed=%llu N=%d strategy=%d",
          static_cast<unsigned long long>(seed), shard_count,
          static_cast<int>(st));
      auto got = h.coordinator->Search(
          net::NetSearchRequest::From(cells, options, strategies[st]));
      ASSERT_TRUE(got.ok()) << label << ": " << got.status();
      EXPECT_TRUE(got->complete) << label;
      EXPECT_TRUE(got->unreached_shards.empty()) << label;
      ExpectBitIdentical(refs[st], *got, label);

      // The slices are disjoint and covering: per-shard enumeration
      // counts sum to the single-node count.
      EXPECT_EQ(got->stats.queries_enumerated,
                refs[st].stats.queries_enumerated)
          << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistDifferentialTest,
                         ::testing::Range<uint64_t>(1, 21));

// The candidate-space partition itself: every signature lands on
// exactly one shard, and the assignment is stable.
TEST(DistShardingTest, ShardOfSignatureIsStableAndInRange) {
  for (int32_t n : {1, 2, 4, 16, 1024}) {
    for (int i = 0; i < 200; ++i) {
      const std::string sig = StrFormat("J(T%d)P(%d.c)", i % 7, i);
      const int32_t shard = ShardOfSignature(sig, n);
      EXPECT_GE(shard, 0);
      EXPECT_LT(shard, n);
      EXPECT_EQ(shard, ShardOfSignature(sig, n)) << "unstable assignment";
    }
  }
  // shard_count == 1 short-circuits to slice 0.
  EXPECT_EQ(ShardOfSignature("anything", 1), 0);
}

// Shard-aware admission: a service locked to slice 2-of-4 must reject a
// request targeting any other slice with FailedPrecondition, loudly.
TEST(DistShardingTest, MisroutedSliceRejectedAtAdmission) {
  auto sys = S4System::Create(s4::testing::TpchDb());
  ASSERT_TRUE(sys.ok()) << sys.status();
  const S4System& system = **sys;
  ServiceOptions sopts;
  sopts.shard_count = 4;
  sopts.shard_index = 2;
  S4Service service(system, sopts);

  auto submit = [&](int32_t count, int32_t index) {
    ServiceRequest req;
    req.cells = {{"Rick", "USA"}};
    req.options.k = 3;
    req.options.shard_count = count;
    req.options.shard_index = index;
    auto ticket = service.Submit(std::move(req));
    if (!ticket.ok()) return ticket.status();
    return ticket->result.get().status();
  };

  EXPECT_EQ(submit(4, 2).code(), StatusCode::kOk);
  EXPECT_EQ(submit(4, 1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(submit(2, 0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(submit(1, 0).code(), StatusCode::kFailedPrecondition);
}

// End-to-end observability across the fleet: a traced+profiled search
// over real loopback shards must come back with (a) one row per shard
// whose counter record folds into the merged RunStats, and (b) a
// stitched timeline where every shard's wire-carried
// segment appears as its own process, re-parented under the
// coordinator's scatter span, with no negative timestamps.
TEST(DistTraceStitchTest, StitchesShardSegmentsAndMergesProfiles) {
  auto sys = S4System::Create(s4::testing::TpchDb());
  ASSERT_TRUE(sys.ok()) << sys.status();
  const S4System& system = **sys;
  constexpr int32_t kShards = 2;
  CoordinatorOptions copts;
  copts.enable_tracing = true;
  DistHarness h(system, kShards, std::move(copts));

  SearchOptions options;
  options.k = 3;
  auto request = net::NetSearchRequest::From(
      {{"Rick", "USA"}}, options, S4System::Strategy::kFastTopK);
  request.want_profile = true;
  auto got = h.coordinator->Search(request);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(got->complete);

  // Per-request accounting, merged across the fleet.
  ASSERT_EQ(got->shards.size(), static_cast<size_t>(kShards));
  EXPECT_GT(got->profile.total_seconds, 0.0);
  RunStats folded;
  for (const auto& row : got->shards) {
    EXPECT_TRUE(row.reached);
    folded.Add(row.run);
  }
  ForEachStat(
      [](const StatField& f, const auto& merged, const auto& want) {
        EXPECT_EQ(merged, want) << f.name;
      },
      got->stats, folded);

  // Stitched timeline: coordinator spans plus one process per shard.
  auto trace = h.coordinator->last_trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(trace->HasSpan("merge"));
  EXPECT_TRUE(trace->HasSpan("shard_exchange"));
  for (int32_t i = 0; i < kShards; ++i) {
    EXPECT_GT(trace->NumSpansForPid(2 + static_cast<uint32_t>(i)), 0u)
        << "no stitched spans for shard " << i;
  }
  const std::string json = trace->ToChromeJson();
  EXPECT_NE(json.find("\"shard 0\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard 1\""), std::string::npos) << json;
  EXPECT_NE(json.find("frame_decode"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"ts\":-"), std::string::npos) << json;
}

}  // namespace
}  // namespace s4::dist
