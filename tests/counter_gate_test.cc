// Serial work-counter gate: BASELINE and FASTTOPK on a small fixed
// CSUPP-sim workload at num_threads = 1 must reproduce pinned values of
// the machine-independent counters. The counters are deterministic for
// a fixed seed, so any change to what Stage II counts — or to how much
// work a strategy does — shows up here as an exact mismatch. A change
// that moves them on purpose re-records the goldens and says why.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/es_gen.h"
#include "datagen/synthetic.h"
#include "strategy/strategy.h"

namespace s4 {
namespace {

struct GateWorld {
  Database db;
  std::unique_ptr<IndexSet> index;
  std::unique_ptr<SchemaGraph> graph;
  std::vector<ExampleSpreadsheet> sheets;
};

const GateWorld& World() {
  static const GateWorld& world = *[] {
    auto* w = new GateWorld;
    datagen::CsuppSimOptions opts;
    opts.num_cities = 20;
    opts.num_customers = 60;
    opts.num_products = 40;
    opts.num_agents = 25;
    opts.num_tickets = 220;
    opts.num_notes = 300;
    auto db = datagen::MakeCsuppSim(opts);
    if (!db.ok()) abort();
    w->db = std::move(db).value();
    auto index = IndexSet::Build(w->db);
    if (!index.ok()) abort();
    w->index = std::move(index).value();
    w->graph = std::make_unique<SchemaGraph>(w->db);
    datagen::EsGenerator gen(*w->index, *w->graph, /*seed=*/2024);
    if (!gen.Init(/*min_text_columns=*/6, /*max_tree_size=*/4).ok()) abort();
    auto many = gen.GenerateMany(/*count=*/4);
    if (!many.ok()) abort();
    for (datagen::GeneratedEs& es : *many) {
      w->sheets.push_back(std::move(es.sheet));
    }
    return w;
  }();
  return world;
}

struct Totals {
  int64_t queries_evaluated = 0;
  int64_t query_row_evals = 0;
  int64_t rows_scanned = 0;
  int64_t hash_lookups = 0;
  int64_t hash_inserts = 0;
};

Totals RunWorkload(bool fast) {
  const GateWorld& w = World();
  SearchOptions options;
  options.k = 5;
  options.enumeration.max_tree_size = 4;
  options.num_threads = 1;
  Totals t;
  for (const ExampleSpreadsheet& sheet : w.sheets) {
    const SearchResult r =
        fast ? SearchFastTopK(*w.index, *w.graph, sheet, options)
             : SearchBaseline(*w.index, *w.graph, sheet, options);
    t.queries_evaluated += r.stats.queries_evaluated;
    t.query_row_evals += r.stats.query_row_evals;
    t.rows_scanned += r.stats.counters.rows_scanned;
    t.hash_lookups += r.stats.counters.hash_lookups;
    t.hash_inserts += r.stats.counters.hash_inserts;
  }
  return t;
}

void ExpectTotals(const Totals& got, const Totals& want, const char* label) {
  EXPECT_EQ(got.queries_evaluated, want.queries_evaluated) << label;
  EXPECT_EQ(got.query_row_evals, want.query_row_evals) << label;
  EXPECT_EQ(got.rows_scanned, want.rows_scanned) << label;
  EXPECT_EQ(got.hash_lookups, want.hash_lookups) << label;
  EXPECT_EQ(got.hash_inserts, want.hash_inserts) << label;
}

TEST(CounterGateTest, SerialCountersMatchGoldens) {
  ASSERT_EQ(World().sheets.size(), 4u);
  const Totals baseline = RunWorkload(/*fast=*/false);
  const Totals fast = RunWorkload(/*fast=*/true);
  // queries_evaluated, query_row_evals, rows_scanned, hash_lookups,
  // hash_inserts.
  ExpectTotals(baseline, Totals{39, 117, 16845, 9585, 10171}, "baseline");
  ExpectTotals(fast, Totals{39, 117, 14045, 7905, 8520}, "fasttopk");
  // Sharing critical sub-PJ tables never scans more rows than
  // evaluating every candidate on its own.
  EXPECT_LE(fast.rows_scanned, baseline.rows_scanned);
}

}  // namespace
}  // namespace s4
