// Randomized property sweeps: system-level invariants over many
// generated databases, spreadsheets and configurations.
#include <gtest/gtest.h>

#include "datagen/es_gen.h"
#include "datagen/synthetic.h"
#include "strategy/incremental.h"
#include "strategy/strategy.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

struct World {
  Database db;
  std::unique_ptr<IndexSet> index;
  std::unique_ptr<SchemaGraph> graph;
};

std::unique_ptr<World> MakeWorld(uint64_t seed) {
  auto w = std::make_unique<World>();
  datagen::CsuppSimOptions opts;
  opts.seed = seed;
  opts.num_cities = 12;
  opts.num_customers = 35;
  opts.num_products = 20;
  opts.num_agents = 12;
  opts.num_tickets = 90;
  opts.num_notes = 110;
  auto db = datagen::MakeCsuppSim(opts);
  if (!db.ok()) return nullptr;
  w->db = std::move(db).value();
  auto index = IndexSet::Build(w->db);
  if (!index.ok()) return nullptr;
  w->index = std::move(index).value();
  w->graph = std::make_unique<SchemaGraph>(w->db);
  return w;
}

class PropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Invariant bundle per random world:
//  (a) upper bounds dominate exact scores (Prop 2);
//  (b) results are sorted by score;
//  (c) NAIVE / BASELINE / FASTTOPK agree on the top-k score sequence
//      (Thm 1/3);
//  (d) BASELINE never evaluates more than NAIVE;
//  (e) evaluation through the cache changes no score.
TEST_P(PropertyTest, StrategyInvariants) {
  const uint64_t seed = GetParam();
  std::unique_ptr<World> w = MakeWorld(seed);
  ASSERT_NE(w, nullptr);

  datagen::EsGenerator gen(*w->index, *w->graph, seed * 31 + 7);
  ASSERT_TRUE(gen.Init(5, 4).ok());
  datagen::EsGenOptions es_opts;
  es_opts.relationship_errors = static_cast<int32_t>(seed % 4);
  auto es = gen.Generate(es_opts);
  ASSERT_TRUE(es.ok()) << es.status();

  SearchOptions options;
  options.k = 5 + static_cast<int32_t>(seed % 3) * 5;
  options.score.alpha = 0.5 + 0.1 * static_cast<double>(seed % 5);
  options.epsilon = 0.2 + 0.4 * static_cast<double>(seed % 3);
  options.cache_budget_bytes = (seed % 2 == 0) ? (32u << 20) : (1u << 20);
  options.enumeration.max_tree_size = 4;

  PreparedSearch prep(*w->index, *w->graph, es->sheet, options);

  // (a): verify on NAIVE, which evaluates everything.
  SearchResult naive = RunNaive(prep, options);
  for (const ScoredQuery& sq : naive.topk) {
    EXPECT_LE(sq.score, sq.upper_bound + 1e-9);
  }
  // (b)
  for (size_t i = 1; i < naive.topk.size(); ++i) {
    EXPECT_GE(naive.topk[i - 1].score, naive.topk[i].score - 1e-12);
  }

  SearchResult baseline = RunBaseline(prep, options);
  SearchResult fast = RunFastTopK(prep, options);

  // (c)
  ASSERT_EQ(naive.topk.size(), baseline.topk.size());
  ASSERT_EQ(naive.topk.size(), fast.topk.size());
  for (size_t i = 0; i < naive.topk.size(); ++i) {
    EXPECT_NEAR(naive.topk[i].score, baseline.topk[i].score, 1e-9)
        << "seed " << seed << " rank " << i;
    EXPECT_NEAR(naive.topk[i].score, fast.topk[i].score, 1e-9)
        << "seed " << seed << " rank " << i;
  }
  // (d)
  EXPECT_LE(baseline.stats.queries_evaluated,
            naive.stats.queries_evaluated);

  // (e): spot-check a few candidates cold vs warm.
  Evaluator ev(prep.ctx);
  SubQueryCache cache(16u << 20);
  EvalCounters counters;
  EvalOptions eopts;
  eopts.offer_to_cache = true;
  const size_t step = std::max<size_t>(1, prep.candidates.size() / 7);
  for (size_t i = 0; i < prep.candidates.size(); i += step) {
    const PJQuery& q = prep.candidates[i].query;
    std::vector<double> cold = ev.RowScores(q, nullptr, &counters);
    std::vector<double> warm = ev.RowScores(q, &cache, &counters, eopts);
    std::vector<double> warm2 = ev.RowScores(q, &cache, &counters, eopts);
    for (size_t t = 0; t < cold.size(); ++t) {
      EXPECT_NEAR(cold[t], warm[t], 1e-9) << "seed " << seed;
      EXPECT_NEAR(cold[t], warm2[t], 1e-9) << "seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

// Incremental sessions agree exactly with fresh searches on random
// worlds and random single-cell edits.
class IncrementalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalPropertyTest, SessionMatchesFreshAfterEdits) {
  const uint64_t seed = GetParam();
  std::unique_ptr<World> w = MakeWorld(seed + 100);
  ASSERT_NE(w, nullptr);

  datagen::EsGenerator gen(*w->index, *w->graph, seed * 17 + 3);
  ASSERT_TRUE(gen.Init(5, 4).ok());
  auto es = gen.Generate();
  ASSERT_TRUE(es.ok());

  SearchOptions options;
  options.k = 8;
  options.enumeration.max_tree_size = 4;
  SearchSession session(*w->index, *w->graph, options);
  ExampleSpreadsheet sheet = es->sheet;
  session.Search(sheet);

  Rng rng(seed);
  for (int edit = 0; edit < 3; ++edit) {
    // Replace one random cell with a term from another generated sheet.
    auto other = gen.Generate();
    ASSERT_TRUE(other.ok());
    const int32_t r =
        static_cast<int32_t>(rng.Uniform(sheet.NumRows()));
    const int32_t c =
        static_cast<int32_t>(rng.Uniform(sheet.NumColumns()));
    sheet = sheet.WithCell(r, c, other->sheet.cell(0, 0).raw,
                           w->index->tokenizer());
    SearchResult inc = session.Search(sheet);
    SearchResult fresh =
        SearchFastTopK(*w->index, *w->graph, sheet, options);
    ASSERT_EQ(inc.topk.size(), fresh.topk.size()) << "seed " << seed;
    // Reused row scores are the stored doubles, so the top-k is exact,
    // ties included.
    for (size_t i = 0; i < inc.topk.size(); ++i) {
      EXPECT_EQ(inc.topk[i].score, fresh.topk[i].score)
          << "seed " << seed << " edit " << edit << " rank " << i;
      EXPECT_EQ(inc.topk[i].query.signature(),
                fresh.topk[i].query.signature())
          << "seed " << seed << " edit " << edit << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalPropertyTest,
                         ::testing::Range<uint64_t>(1, 7));

// The A.2 scoring extensions preserve the upper-bound property.
class ExtensionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExtensionPropertyTest, UpperBoundHoldsUnderExtensions) {
  const uint64_t seed = GetParam();
  std::unique_ptr<World> w = MakeWorld(seed + 200);
  ASSERT_NE(w, nullptr);
  datagen::EsGenerator gen(*w->index, *w->graph, seed);
  ASSERT_TRUE(gen.Init(5, 4).ok());
  auto es = gen.Generate();
  ASSERT_TRUE(es.ok());

  SearchOptions options;
  options.k = 5;
  options.score.use_idf = true;
  options.score.exact_match_bonus = 2.0;
  options.enumeration.max_tree_size = 4;
  SearchResult naive =
      SearchNaive(*w->index, *w->graph, es->sheet, options);
  SearchResult fast =
      SearchFastTopK(*w->index, *w->graph, es->sheet, options);
  ASSERT_EQ(naive.topk.size(), fast.topk.size());
  for (size_t i = 0; i < naive.topk.size(); ++i) {
    EXPECT_NEAR(naive.topk[i].score, fast.topk[i].score, 1e-9);
    EXPECT_LE(naive.topk[i].score, naive.topk[i].upper_bound + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtensionPropertyTest,
                         ::testing::Range<uint64_t>(1, 5));

}  // namespace
}  // namespace s4
