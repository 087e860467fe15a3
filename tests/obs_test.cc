// Observability layer tests: striped counters, gauges, histograms, the
// process-wide registry and its serializers, per-search trace spans,
// and the end-to-end wiring through a real FASTTOPK search.
#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/run_stats.h"
#include "obs/trace.h"
#include "strategy/strategy.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::SpanTimer;
using obs::Trace;
using testing::Fig2aSheet;
using testing::TpchGraph;
using testing::TpchIndex;

TEST(MetricsTest, CounterBasics) {
  Counter c;
  EXPECT_EQ(c.Value(), 0);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42);
  c.Add(-2);
  EXPECT_EQ(c.Value(), 40);
}

TEST(MetricsTest, ConcurrentCounterAdds) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), kThreads * kAddsPerThread);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(7);
  EXPECT_EQ(g.Value(), 7);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 4);
}

TEST(MetricsTest, HistogramObserve) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Observe(i * 1e-3);
  auto snap = h.Snapshot();
  EXPECT_EQ(snap.total, 100);
  EXPECT_NEAR(snap.max_seconds, 0.1, 1e-9);
  EXPECT_GT(snap.PercentileSeconds(0.5), 0.0);
}

TEST(MetricsTest, RegistryReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("test_counter");
  Counter& b = reg.GetCounter("test_counter");
  EXPECT_EQ(&a, &b);
  a.Add(5);
  EXPECT_EQ(b.Value(), 5);
  Gauge& g1 = reg.GetGauge("test_gauge");
  Gauge& g2 = reg.GetGauge("test_gauge");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = reg.GetHistogram("test_hist");
  Histogram& h2 = reg.GetHistogram("test_hist");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsTest, ConcurrentRegistryAccess) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Mix registration of fresh names with hot increments of a shared
      // one while another thread snapshots — the tsan target for the
      // registry's locking discipline.
      for (int i = 0; i < 200; ++i) {
        reg.GetCounter("shared_total").Increment();
        reg.GetCounter("per_thread_" + std::to_string(t)).Increment();
        if (i % 50 == 0) (void)reg.Snapshot();
      }
    });
  }
  for (auto& th : threads) th.join();
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("shared_total"), kThreads * 200);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.Value("per_thread_" + std::to_string(t)), 200);
  }
}

TEST(MetricsTest, SnapshotSortedAndQueryable) {
  MetricsRegistry reg;
  reg.GetCounter("zebra").Add(1);
  reg.GetCounter("apple").Add(2);
  reg.GetGauge("mango").Set(3);
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].name, "apple");
  EXPECT_EQ(snap.entries[1].name, "mango");
  EXPECT_EQ(snap.entries[2].name, "zebra");
  EXPECT_EQ(snap.Value("apple"), 2);
  EXPECT_EQ(snap.Value("mango"), 3);
  EXPECT_EQ(snap.Value("missing"), 0);
  EXPECT_EQ(snap.Find("missing"), nullptr);
  ASSERT_NE(snap.Find("zebra"), nullptr);
  EXPECT_EQ(snap.Find("zebra")->kind, MetricsSnapshot::Kind::kCounter);
  EXPECT_EQ(snap.Find("mango")->kind, MetricsSnapshot::Kind::kGauge);
}

TEST(MetricsTest, PrometheusText) {
  MetricsRegistry reg;
  reg.GetCounter("requests_total").Add(3);
  reg.GetGauge("queue_depth").Set(2);
  reg.GetHistogram("latency_seconds").Observe(0.25);
  std::string text = reg.Snapshot().ToPrometheusText();
  EXPECT_NE(text.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("requests_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("queue_depth 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_seconds summary"), std::string::npos);
  EXPECT_NE(text.find("latency_seconds{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_count 1"), std::string::npos);
}

TEST(MetricsTest, SnapshotJson) {
  MetricsRegistry reg;
  reg.GetCounter("hits_total").Add(9);
  reg.GetHistogram("wait_seconds").Observe(0.5);
  std::string json = reg.Snapshot().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"hits_total\""), std::string::npos);
  EXPECT_NE(json.find("\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"wait_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(MetricsTest, JsonEscaping) {
  EXPECT_EQ(obs::JsonEscape("plain"), "plain");
  EXPECT_EQ(obs::JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::JsonEscape("line\nbreak"), "line\\nbreak");
}

TEST(TraceTest, SpanAndInstantRecording) {
  Trace trace("unit");
  auto t0 = Trace::Clock::now();
  trace.AddSpan("test", "first_span", t0, t0 + std::chrono::microseconds(50));
  trace.AddInstant("test", "a_marker");
  EXPECT_EQ(trace.NumSpans(), 2u);
  EXPECT_TRUE(trace.HasSpan("first_span"));
  EXPECT_TRUE(trace.HasSpan("a_marker"));
  EXPECT_FALSE(trace.HasSpan("absent"));
}

TEST(TraceTest, SpanTimerDisabledIsNoop) {
  SpanTimer timer(nullptr, "test", "ignored");
  EXPECT_FALSE(timer.enabled());
  timer.AddArg("k", "v");  // must not crash or allocate into a trace
}

TEST(TraceTest, SpanTimerRecordsOnDestruction) {
  Trace trace("unit");
  {
    SpanTimer timer(&trace, "test", "scoped_work");
    EXPECT_TRUE(timer.enabled());
    timer.AddArg("items", "3");
  }
  EXPECT_EQ(trace.NumSpans(), 1u);
  EXPECT_TRUE(trace.HasSpan("scoped_work"));
  std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find("\"items\":\"3\""), std::string::npos);
}

TEST(TraceTest, ChromeJsonShape) {
  Trace trace("shape");
  trace.set_request_id(77);
  auto t0 = Trace::Clock::now();
  trace.AddSpan("cat", "work", t0, t0 + std::chrono::microseconds(10));
  trace.AddInstant("cat", "tick");
  std::string json = trace.ToChromeJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"request_id\":\"77\""), std::string::npos);
}

TEST(TraceTest, ExportNormalizesPreEpochTimestamps) {
  // Frame-decode spans are recorded against a trace created *after* the
  // decode happened, so their start precedes the trace epoch. The
  // export must shift all timestamps so none is negative.
  Trace trace("norm");
  auto epoch = Trace::Clock::now();
  trace.AddSpan("net", "frame_decode", epoch - std::chrono::milliseconds(5),
                epoch - std::chrono::milliseconds(4));
  trace.AddSpan("search", "enumerate", epoch,
                epoch + std::chrono::microseconds(100));
  std::string json = trace.ToChromeJson();
  EXPECT_EQ(json.find("\"ts\":-"), std::string::npos) << json;
}

TEST(TraceTest, ConcurrentSpanRecording) {
  Trace trace("mt");
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        SpanTimer timer(&trace, "mt", "concurrent_span");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(trace.NumSpans(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
  // Export under no contention must still be well-formed.
  std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find("concurrent_span"), std::string::npos);
}

// End-to-end: a real FASTTOPK search over the TPC-H fixture with a
// trace attached must produce Stage-I/Stage-II/cache spans, and the
// global registry counters must move by the amounts the run reports.
TEST(ObsSearchTraceTest, FastTopKSearchProducesSpansAndCounters) {
  SearchOptions options;
  options.k = 3;
  options.num_threads = 1;
  Trace trace("search");
  options.trace = &trace;

  MetricsRegistry& reg = MetricsRegistry::Global();
  const int64_t searches_before = reg.Snapshot().Value("s4_searches_total");
  const int64_t evaluated_before =
      reg.Snapshot().Value("s4_candidates_evaluated_total");

  ExampleSpreadsheet sheet = Fig2aSheet(TpchIndex());
  SearchResult result =
      SearchFastTopK(TpchIndex(), TpchGraph(), sheet, options);
  ASSERT_FALSE(result.topk.empty());

  EXPECT_TRUE(trace.HasSpan("enumerate"));
  EXPECT_TRUE(trace.HasSpan("evaluate_candidate"));
  EXPECT_TRUE(trace.HasSpan("cache_probe"));
  EXPECT_GT(trace.NumSpans(), 3u);

  MetricsSnapshot after = reg.Snapshot();
  EXPECT_EQ(after.Value("s4_searches_total"), searches_before + 1);
  EXPECT_GE(after.Value("s4_candidates_evaluated_total"),
            evaluated_before + result.stats.queries_evaluated);
  EXPECT_GE(after.Value("s4_cache_probe_hits_total") +
                after.Value("s4_cache_probe_misses_total"),
            1);
}

// The multi-threaded path records spans from pool workers into the same
// trace; run it under tsan to pin the Trace mutex discipline, and check
// the counters still add up.
TEST(ObsSearchTraceTest, ParallelSearchTraceIsRaceFree) {
  SearchOptions options;
  options.k = 3;
  options.num_threads = 4;
  Trace trace("search-mt");
  options.trace = &trace;

  ExampleSpreadsheet sheet = Fig2aSheet(TpchIndex());
  SearchResult result =
      SearchFastTopK(TpchIndex(), TpchGraph(), sheet, options);
  ASSERT_FALSE(result.topk.empty());
  EXPECT_TRUE(trace.HasSpan("evaluate_candidate"));
  std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

// Tracing disabled (the production default) must leave the trace
// pointer untouched end to end: same results, stats still populated.
TEST(ObsSearchTraceTest, DisabledTraceMatchesEnabled) {
  SearchOptions options;
  options.k = 3;
  options.num_threads = 1;
  ExampleSpreadsheet sheet = Fig2aSheet(TpchIndex());
  SearchResult plain =
      SearchFastTopK(TpchIndex(), TpchGraph(), sheet, options);

  Trace trace("search");
  options.trace = &trace;
  SearchResult traced =
      SearchFastTopK(TpchIndex(), TpchGraph(), sheet, options);

  ASSERT_EQ(plain.topk.size(), traced.topk.size());
  for (size_t i = 0; i < plain.topk.size(); ++i) {
    EXPECT_NEAR(plain.topk[i].score, traced.topk[i].score, 1e-12);
  }
}

// --- cross-shard trace stitching (deterministic, fabricated segments) --

// Builds a two-event segment: a root span and a child nested under it.
obs::TraceSegment MakeSegment(int64_t origin_unix_us, int64_t root_ts_us) {
  obs::TraceSegment seg;
  seg.origin_unix_us = origin_unix_us;
  seg.trace_id = 77;
  obs::TraceSegment::Event root;
  root.category = "net";
  root.name = "shard_root";
  root.ts_us = root_ts_us;
  root.dur_us = 400;
  root.tid = 9;
  root.span_id = 7;
  root.parent_id = 0;  // segment root
  seg.events.push_back(root);
  obs::TraceSegment::Event child;
  child.category = "fasttopk";
  child.name = "shard_child";
  child.ts_us = root_ts_us + 100;
  child.dur_us = 200;
  child.tid = 9;
  child.span_id = 8;
  child.parent_id = 7;
  seg.events.push_back(child);
  return seg;
}

TEST(TraceStitchTest, ImportShiftsTimestampsByOriginDelta) {
  Trace trace("coordinator");
  // Two "shards" whose steady-clock epochs started 1000us and 3000us
  // after the coordinator's, each reporting an event at local ts=500.
  obs::TraceSegment a = MakeSegment(trace.origin_unix_us() + 1000, 500);
  a.events.resize(1);
  obs::TraceSegment b = MakeSegment(trace.origin_unix_us() + 3000, 500);
  b.events.resize(1);
  trace.ImportSegment(a, /*pid=*/2, "shard 0", /*parent_span_id=*/0);
  trace.ImportSegment(b, /*pid=*/3, "shard 1", /*parent_span_id=*/0);

  // On the coordinator clock the events land at 1500 and 3500 — the
  // 2000us origin delta between the shards is preserved verbatim.
  // (Export only shifts when some span starts before the trace epoch;
  // all-positive timelines keep their absolute offsets.)
  const std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find("\"ts\":1500,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":3500,"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"ts\":-"), std::string::npos) << json;
}

TEST(TraceStitchTest, ImportRemapsSpanIdsAndReparentsRoots) {
  Trace trace("coordinator");
  const uint64_t scatter = trace.ReserveSpanId();
  obs::TraceSegment seg = MakeSegment(trace.origin_unix_us(), 0);
  trace.ImportSegment(seg, /*pid=*/2, "shard 0", scatter);

  ASSERT_EQ(trace.NumSpansForPid(2), 2u);
  const std::string json = trace.ToChromeJson();
  // Segment ids are remapped into the pid's range: (2<<32)|7 and
  // (2<<32)|8. The segment root is re-parented under the scatter span;
  // the child keeps its (remapped) intra-segment parent.
  const uint64_t remapped_root = (uint64_t{2} << 32) | 7u;
  const uint64_t remapped_child = (uint64_t{2} << 32) | 8u;
  EXPECT_NE(json.find("\"id\":\"" + std::to_string(remapped_root) + "\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"id\":\"" + std::to_string(remapped_child) + "\""),
            std::string::npos)
      << json;
  EXPECT_NE(
      json.find("\"parent\":\"" + std::to_string(scatter) + "\""),
      std::string::npos)
      << json;
  EXPECT_NE(
      json.find("\"parent\":\"" + std::to_string(remapped_root) + "\""),
      std::string::npos)
      << json;
}

TEST(TraceStitchTest, ImportedSegmentsBecomeNamedProcesses) {
  Trace trace("coordinator");
  obs::SpanTimer local(&trace, "dist", "merge");
  obs::TraceSegment seg = MakeSegment(trace.origin_unix_us(), 0);
  trace.ImportSegment(seg, /*pid=*/5, "shard 3", 0);

  const std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find("process_name"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard 3\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"pid\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos) << json;
}

TEST(TraceStitchTest, ExportSegmentCarriesTraceIdAndOrigin) {
  Trace trace("shard_search");
  trace.set_trace_id(4242);
  {
    obs::SpanTimer span(&trace, "net", "frame_decode");
  }
  obs::TraceSegment seg = trace.ExportSegment();
  EXPECT_EQ(seg.trace_id, 4242u);
  EXPECT_EQ(seg.origin_unix_us, trace.origin_unix_us());
  ASSERT_EQ(seg.events.size(), 1u);
  EXPECT_EQ(seg.events[0].name, "frame_decode");
  EXPECT_NE(seg.events[0].span_id, 0u);
}

// --- RunStats / QueryProfile ------------------------------------------

// A record with every schema field set to a distinct non-zero value.
RunStats EveryFieldSet() {
  RunStats s;
  int64_t next = 1;
  ForEachStat([&](const StatField&, auto& v) { v = next++; }, s);
  return s;
}

TEST(ObsProfileTest, AccumulateSumsWorkNotWall) {
  RunStats a = EveryFieldSet();
  RunStats b = EveryFieldSet();
  b.cache.peak_bytes = 1;
  const RunStats before = a;
  a.Add(b);
  // Counts and stage seconds add; a high-water mark takes the max. Wall
  // clocks live in QueryProfile, which has no Add: concurrent walls do
  // not sum.
  ForEachStat(
      [](const StatField& f, const auto& got, const auto& x, const auto& y) {
        if (f.kind == StatKind::kPeak) {
          EXPECT_EQ(got, std::max(x, y)) << f.name;
        } else {
          EXPECT_EQ(got, x + y) << f.name;
        }
      },
      a, before, b);
}

TEST(ObsProfileTest, FormatProfileSectionsAndErrorBars) {
  RunStats stats;
  stats.queries_evaluated = 42;
  obs::QueryProfile p;
  p.total_seconds = 0.002;

  obs::ProfileHit exact;
  exact.score = 2.5;
  exact.label = "SELECT ...";
  obs::ProfileHit approx;
  approx.score = 1.25;
  approx.interval.lo = 1.0;
  approx.interval.hi = 1.5;
  approx.interval.confidence = 0.95;
  approx.approximate = true;
  approx.label = "SELECT sampled";

  const std::string out = obs::FormatProfile(stats, p, {exact, approx});
  EXPECT_NE(out.find("query profile"), std::string::npos);
  EXPECT_NE(out.find("total wall"), std::string::npos);
  EXPECT_NE(out.find("candidates evaluated"), std::string::npos);
  // Sampler section only appears when the sampler did something.
  EXPECT_EQ(out.find("sampler"), std::string::npos);
  // Error bars on the approximate hit, plain score on the exact one.
  EXPECT_NE(out.find("score=2.5000  SELECT ..."), std::string::npos);
  EXPECT_NE(out.find("in [1.0000, 1.5000] @ 95% conf"), std::string::npos);
}

TEST(ObsProfileTest, FormatProfileListsEveryField) {
  const std::string out = obs::FormatProfile(EveryFieldSet(), {});
  ForEachStat(
      [&](const StatField& f) {
        EXPECT_NE(out.find(f.label), std::string::npos) << f.name;
      });
}

TEST(ObsProfileTest, RunStatsJsonHasEveryField) {
  const std::string json = obs::RunStatsJson(EveryFieldSet());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  ForEachStat([&](const StatField& f) {
    EXPECT_NE(json.find(std::string("\"") + f.name + "\":"),
              std::string::npos)
        << f.name;
  });
}

// The registry reconciles with a search's RunStats field by field: every
// counter moves by exactly the run's value, every stage histogram gains
// one observation of it, and every high-water gauge covers it.
TEST(ObsProfileTest, SearchFillsProfileReconcilingWithStats) {
  SearchOptions options;
  options.k = 3;
  options.num_threads = 1;
  ExampleSpreadsheet sheet = Fig2aSheet(TpchIndex());
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  SearchResult result =
      SearchFastTopK(TpchIndex(), TpchGraph(), sheet, options);
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();

  EXPECT_EQ(result.stats.searches, 1);
  EXPECT_GT(result.stats.queries_evaluated, 0);
  EXPECT_GT(result.stats.counters.rows_scanned, 0);
  ForEachStat(
      [&](const StatField& f, const auto& value) {
        const MetricsSnapshot::Entry* a = after.Find(f.metric);
        ASSERT_NE(a, nullptr) << f.metric;
        const MetricsSnapshot::Entry* b = before.Find(f.metric);
        switch (f.kind) {
          case StatKind::kCount:
            EXPECT_EQ(a->value - (b == nullptr ? 0 : b->value),
                      static_cast<int64_t>(value))
                << f.metric;
            break;
          case StatKind::kSeconds:
            EXPECT_EQ(a->histogram.total -
                          (b == nullptr ? 0 : b->histogram.total),
                      1)
                << f.metric;
            EXPECT_NEAR(a->histogram.sum_seconds -
                            (b == nullptr ? 0.0 : b->histogram.sum_seconds),
                        static_cast<double>(value), 1e-6)
                << f.metric;
            break;
          case StatKind::kPeak:
            EXPECT_GE(a->value, static_cast<int64_t>(value)) << f.metric;
            break;
        }
      },
      result.stats);
}

}  // namespace
}  // namespace s4
