// Determinism guarantees of the parallel evaluation path: a fixed seed
// and fixed options produce identical SearchResults across repeated
// runs, and the parallel strategies reproduce the serial top-k. NAIVE
// and BASELINE are bit-identical to the serial path by construction
// (ordered merge / speculative replay); FASTTOPK pins the top-k and the
// scheduling-invariant stats while cache-content-dependent bookkeeping
// (model cost, hash counters, hit rates) may legitimately differ from
// the serial schedule.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stop_token.h"
#include "common/thread_pool.h"
#include "datagen/es_gen.h"
#include "datagen/synthetic.h"
#include "strategy/strategy.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

struct DetWorld {
  Database db;
  std::unique_ptr<IndexSet> index;
  std::unique_ptr<SchemaGraph> graph;
  std::unique_ptr<ExampleSpreadsheet> sheet;
};

const DetWorld& World() {
  static const DetWorld& world = *[] {
    auto* w = new DetWorld;
    datagen::CsuppSimOptions opts;
    opts.num_cities = 15;
    opts.num_customers = 50;
    opts.num_products = 30;
    opts.num_agents = 20;
    opts.num_tickets = 160;
    opts.num_notes = 220;
    auto db = datagen::MakeCsuppSim(opts);
    if (!db.ok()) abort();
    w->db = std::move(db).value();
    auto index = IndexSet::Build(w->db);
    if (!index.ok()) abort();
    w->index = std::move(index).value();
    w->graph = std::make_unique<SchemaGraph>(w->db);
    datagen::EsGenerator gen(*w->index, *w->graph, /*seed=*/77);
    if (!gen.Init(/*min_text_columns=*/6, /*max_tree_size=*/4).ok()) abort();
    auto es = gen.Generate();
    if (!es.ok()) abort();
    w->sheet = std::make_unique<ExampleSpreadsheet>(std::move(es->sheet));
    return w;
  }();
  return world;
}

SearchOptions Options(int32_t threads) {
  SearchOptions options;
  options.k = 8;
  options.enumeration.max_tree_size = 4;
  options.num_threads = threads;
  return options;
}

// Byte-identical top-k: signatures and exact (==) double scores.
void ExpectIdenticalTopK(const SearchResult& a, const SearchResult& b,
                         const std::string& label) {
  ASSERT_EQ(a.topk.size(), b.topk.size()) << label;
  for (size_t i = 0; i < a.topk.size(); ++i) {
    EXPECT_EQ(a.topk[i].query.signature(), b.topk[i].query.signature())
        << label << " rank " << i;
    EXPECT_EQ(a.topk[i].score, b.topk[i].score) << label << " rank " << i;
    EXPECT_EQ(a.topk[i].row_score, b.topk[i].row_score)
        << label << " rank " << i;
    EXPECT_EQ(a.topk[i].upper_bound, b.topk[i].upper_bound)
        << label << " rank " << i;
  }
}

// Scheduling-invariant stats: identical for a fixed thread count, and
// for NAIVE/BASELINE identical across thread counts too.
void ExpectInvariantStatsEqual(const RunStats& a, const RunStats& b,
                               const std::string& label) {
  EXPECT_EQ(a.queries_enumerated, b.queries_enumerated) << label;
  EXPECT_EQ(a.queries_evaluated, b.queries_evaluated) << label;
  EXPECT_EQ(a.query_row_evals, b.query_row_evals) << label;
  EXPECT_EQ(a.skipped_by_condition, b.skipped_by_condition) << label;
  EXPECT_EQ(a.batches, b.batches) << label;
  EXPECT_EQ(a.critical_subs_cached, b.critical_subs_cached) << label;
}

// Everything except wall-clock timings.
void ExpectAllStatsEqual(const RunStats& a, const RunStats& b,
                         const std::string& label) {
  ExpectInvariantStatsEqual(a, b, label);
  EXPECT_EQ(a.model_cost, b.model_cost) << label;
  EXPECT_EQ(a.counters.rows_scanned, b.counters.rows_scanned) << label;
  EXPECT_EQ(a.counters.hash_lookups, b.counters.hash_lookups) << label;
  EXPECT_EQ(a.counters.hash_inserts, b.counters.hash_inserts) << label;
  EXPECT_EQ(a.counters.postings_scanned, b.counters.postings_scanned)
      << label;
  EXPECT_EQ(a.counters.tables_reused, b.counters.tables_reused) << label;
  EXPECT_EQ(a.counters.subtree_misses, b.counters.subtree_misses) << label;
}

TEST(DeterminismTest, SerialRepeatedRunsIdentical) {
  const DetWorld& w = World();
  SearchOptions options = Options(/*threads=*/1);
  PreparedSearch prep(*w.index, *w.graph, *w.sheet, options);
  for (auto* runner : {&RunNaive, &RunBaseline, &RunFastTopK}) {
    SearchResult a = runner(prep, options);
    SearchResult b = runner(prep, options);
    ExpectIdenticalTopK(a, b, "serial-repeat");
    ExpectAllStatsEqual(a.stats, b.stats, "serial-repeat");
    ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
    for (size_t i = 0; i < a.evaluated.size(); ++i) {
      EXPECT_EQ(a.evaluated[i].signature, b.evaluated[i].signature);
      EXPECT_EQ(a.evaluated[i].row_scores, b.evaluated[i].row_scores);
    }
  }
}

TEST(DeterminismTest, ParallelRepeatedRunsIdentical) {
  const DetWorld& w = World();
  SearchOptions options = Options(/*threads=*/8);
  PreparedSearch prep(*w.index, *w.graph, *w.sheet, options);
  for (auto* runner : {&RunNaive, &RunBaseline, &RunFastTopK}) {
    SearchResult a = runner(prep, options);
    SearchResult b = runner(prep, options);
    ExpectIdenticalTopK(a, b, "parallel-repeat");
    ExpectInvariantStatsEqual(a.stats, b.stats, "parallel-repeat");
  }
}

TEST(DeterminismTest, NaiveParallelBitIdenticalToSerial) {
  const DetWorld& w = World();
  SearchOptions serial = Options(1);
  SearchOptions parallel = Options(8);
  PreparedSearch prep(*w.index, *w.graph, *w.sheet, serial);
  SearchResult a = RunNaive(prep, serial);
  SearchResult b = RunNaive(prep, parallel);
  ExpectIdenticalTopK(a, b, "naive-1v8");
  ExpectAllStatsEqual(a.stats, b.stats, "naive-1v8");
  // Session records merge in candidate order: identical too.
  ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
  for (size_t i = 0; i < a.evaluated.size(); ++i) {
    EXPECT_EQ(a.evaluated[i].signature, b.evaluated[i].signature);
    EXPECT_EQ(a.evaluated[i].row_scores, b.evaluated[i].row_scores);
  }
}

TEST(DeterminismTest, BaselineParallelBitIdenticalToSerial) {
  const DetWorld& w = World();
  SearchOptions serial = Options(1);
  SearchOptions parallel = Options(8);
  PreparedSearch prep(*w.index, *w.graph, *w.sheet, serial);
  SearchResult a = RunBaseline(prep, serial);
  SearchResult b = RunBaseline(prep, parallel);
  ExpectIdenticalTopK(a, b, "baseline-1v8");
  // Speculative replay drops outcomes past the stop rank, so even the
  // Thm-1 minimal evaluation count survives parallelism exactly.
  ExpectAllStatsEqual(a.stats, b.stats, "baseline-1v8");
  ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
}

TEST(DeterminismTest, FastTopKParallelMatchesSerialTopK) {
  const DetWorld& w = World();
  SearchOptions serial = Options(1);
  PreparedSearch prep(*w.index, *w.graph, *w.sheet, serial);
  SearchResult a = RunFastTopK(prep, serial);
  for (int32_t threads : {2, 4, 8}) {
    const std::string label = "fasttopk-1v" + std::to_string(threads);
    SearchResult b = RunFastTopK(prep, Options(threads));
    // Frozen skip decisions can shift work between "evaluated" and
    // "skipped", but never change the returned queries or their scores.
    ExpectIdenticalTopK(a, b, label);
    EXPECT_EQ(a.stats.queries_enumerated, b.stats.queries_enumerated)
        << label;
    EXPECT_EQ(a.stats.batches, b.stats.batches) << label;
    // Prop 2 safety: parallel skipping never skips its way past work the
    // serial path had to do to certify the answer.
    EXPECT_LE(b.stats.queries_evaluated + b.stats.skipped_by_condition,
              a.stats.queries_enumerated)
        << label;
  }
}

// The batch, not the critical group, is the unit of parallel work: each
// batch is one ParallelFor, which submits at most one pool task per
// worker. A per-group fan-out would run several per batch.
TEST(DeterminismTest, FastTopKFansOutOncePerBatch) {
  const DetWorld& w = World();
  ThreadPool pool(4);
  SearchOptions options = Options(4);
  options.pool = &pool;
  PreparedSearch prep(*w.index, *w.graph, *w.sheet, options);
  const int64_t before = pool.stats().executed;
  SearchResult r = RunFastTopK(prep, options);
  const int64_t tasks = pool.stats().executed - before;
  ASSERT_GT(r.stats.batches, 1);
  EXPECT_GT(r.stats.critical_subs_cached, 0);
  EXPECT_LE(tasks, 4 * r.stats.batches);
}

// A cancel from the first progress snapshot (after batch 0) stops the
// run at the next batch boundary. Batch 0 starts with a heap that is not
// full, so it cannot skip at any thread count: serial and parallel runs
// evaluate exactly the same queries before stopping.
TEST(DeterminismTest, FastTopKCancelAfterFirstBatchStopsAlike) {
  const DetWorld& w = World();
  int64_t evaluated[2] = {0, 0};
  const int32_t thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    const std::string label = "threads=" + std::to_string(thread_counts[i]);
    StopToken stop;
    SearchOptions options = Options(thread_counts[i]);
    options.stop = &stop;
    int snapshots = 0;
    options.progress = [&](const SearchProgress&) {
      if (snapshots++ == 0) stop.Cancel();
    };
    PreparedSearch prep(*w.index, *w.graph, *w.sheet, options);
    SearchResult r = RunFastTopK(prep, options);
    EXPECT_TRUE(r.interrupted) << label;
    EXPECT_EQ(snapshots, 1) << label;
    EXPECT_EQ(r.stats.batches, 1) << label;
    EXPECT_EQ(r.stats.skipped_by_condition, 0) << label;
    evaluated[i] = r.stats.queries_evaluated;
  }
  EXPECT_GT(evaluated[0], 0);
  EXPECT_EQ(evaluated[0], evaluated[1]);
}

}  // namespace
}  // namespace s4
