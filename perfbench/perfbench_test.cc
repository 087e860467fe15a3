#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "powerlaw_db.h"
#include "spans.h"
#include "stats.h"

namespace s4::perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(OrderStatsTest, NearestRankPercentilesAreSamples) {
  std::vector<double> v = OneTo(1000);
  std::reverse(v.begin(), v.end());  // order of arrival does not matter
  const OrderStats s(v);
  EXPECT_EQ(s.count(), 1000);
  EXPECT_EQ(s.Median(), 500.0);
  EXPECT_EQ(s.Q1(), 250.0);
  EXPECT_EQ(s.Q3(), 750.0);
  EXPECT_EQ(s.Percentile(0.99), 990.0);
  EXPECT_EQ(s.Beyond(0.99), 10);
  EXPECT_EQ(s.Percentile(0.0), 1.0);
  EXPECT_EQ(s.Percentile(1.0), 1000.0);
  EXPECT_EQ(s.Mean(), 500.5);
}

TEST(OrderStatsTest, OddCountAndTies) {
  const OrderStats odd({5.0, 1.0, 3.0});
  EXPECT_EQ(odd.Median(), 3.0);
  const OrderStats ties({2.0, 2.0, 2.0, 7.0});
  EXPECT_EQ(ties.Median(), 2.0);
  EXPECT_EQ(ties.Beyond(0.5), 1);  // only strictly larger samples count
}

TEST(OrderStatsTest, HighestSupportedPercentileKeepsTenBeyond) {
  const OrderStats s(OneTo(1000));
  const OrderStats::Tail tail = s.HighestSupported(10);
  EXPECT_DOUBLE_EQ(tail.level, 0.99);
  EXPECT_EQ(tail.value, 990.0);
  EXPECT_EQ(s.Beyond(tail.level), 10);

  const OrderStats small(OneTo(10));
  EXPECT_EQ(small.HighestSupported(10).level, 0.0);
  const OrderStats empty({});
  EXPECT_EQ(empty.Median(), 0.0);
  EXPECT_EQ(empty.Beyond(0.5), 0);
}

obs::TraceSegment::Event MakeSpan(uint64_t id, uint64_t parent,
                                  int64_t start_us, int64_t end_us,
                                  const char* name) {
  obs::TraceSegment::Event e;
  e.category = "direct";
  e.name = name;
  e.span_id = id;
  e.parent_id = parent;
  e.ts_us = start_us;
  e.dur_us = end_us - start_us;
  return e;
}

TEST(SpansTest, SelfTimeSubtractsTheUnionOfChildren) {
  // Parent [0, 100); children [10, 40), [30, 60) overlap, [90, 120)
  // sticks out of the parent. Covered: [10, 60) + [90, 100) = 60.
  const std::vector<obs::TraceSegment::Event> spans = {
      MakeSpan(1, 0, 0, 100, "parent"), MakeSpan(2, 1, 10, 40, "child"),
      MakeSpan(3, 1, 30, 60, "child"), MakeSpan(4, 1, 90, 120, "child")};
  const auto self = SelfTimes(spans);
  EXPECT_NEAR(self.at("direct/parent").self_seconds, 40e-6, 1e-12);
  EXPECT_NEAR(self.at("direct/parent").total_seconds, 100e-6, 1e-12);
  EXPECT_EQ(self.at("direct/child").count, 3);
}

TEST(SpansTest, SelfTimesKeyATraceExportByCategory) {
  obs::Trace trace;
  {
    obs::SpanTimer parent(&trace, "service", "service");
    const Clock::time_point t = Clock::now();
    trace.AddSpan("service", "queue", t, t, {}, 0, parent.span_id());
  }
  const auto self = SelfTimes(trace.ExportSegment().events);
  EXPECT_EQ(self.at("service/service").count, 1);
  EXPECT_EQ(self.at("service/queue").count, 1);
}

TEST(PowerlawTest, DegreesStayInRangeAndAreSkewed) {
  Rng rng(3);
  const std::vector<int64_t> d = PowerlawDegrees(rng, 5000, 1, 1000, -2.0);
  ASSERT_EQ(d.size(), 5000u);
  EXPECT_TRUE(std::is_sorted(d.begin(), d.end(), std::greater<>()));
  EXPECT_GE(d.back(), 1);
  EXPECT_LE(d.front(), 1000);
  // P(d = 1) is about half under gamma = -2; the head is heavy.
  const auto ones = std::count(d.begin(), d.end(), 1);
  EXPECT_GT(ones, 2000);
  EXPECT_GT(d.front(), 100);
}

TEST(PowerlawTest, HavelHakimiRealizesASimpleBipartiteGraph) {
  const std::vector<int64_t> left = {3, 1, 2, 0};
  const std::vector<int64_t> right = {2, 2, 1, 1};
  const auto edges = HavelHakimiBipartite(left, right);
  ASSERT_EQ(edges.size(), 6u);
  std::set<std::pair<int32_t, int32_t>> unique(edges.begin(), edges.end());
  EXPECT_EQ(unique.size(), edges.size());  // no multi-edges
  std::vector<int64_t> l(left.size(), 0), r(right.size(), 0);
  for (const auto& [u, v] : edges) {
    ++l[static_cast<size_t>(u)];
    ++r[static_cast<size_t>(v)];
  }
  EXPECT_EQ(l, left);
  EXPECT_EQ(r, right);
}

TEST(PowerlawTest, DatabaseFinalizesWithHubs) {
  auto db = MakePowerlawDb();
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const std::vector<Fanout> fan = MeasureFanout(*db);
  ASSERT_EQ(fan.size(), 6u);
  for (const Fanout& f : fan) {
    EXPECT_GT(f.children, 0) << f.label;
    EXPECT_GE(f.max, 1) << f.label;
  }
  // The member -> post edge is hub-heavy: the top 1% of members hold
  // far more than 1% of the posts.
  const auto it = std::find_if(fan.begin(), fan.end(), [](const Fanout& f) {
    return f.label == "Post.MemberId->Member";
  });
  ASSERT_NE(it, fan.end());
  EXPECT_GT(it->top1pct_share, 0.1);
  EXPECT_GE(db->NumTextColumns(), 6);
}

}  // namespace
}  // namespace s4::perfbench
