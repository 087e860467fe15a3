// Validates the hash-join evaluator (Appendix B.1/B.2) against a
// brute-force join reference, and its cache-aware paths.
#include <gtest/gtest.h>

#include "cache/subquery_cache.h"
#include "enumerate/enumerator.h"
#include "exec/cost_model.h"
#include "exec/evaluator.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

using testing::BruteForceEvaluator;
using testing::Fig2aSheet;
using testing::TpchGraph;
using testing::TpchIndex;

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest()
      : sheet_(Fig2aSheet(TpchIndex())),
        ctx_(TpchIndex(), sheet_, ScoreParams{}),
        result_(EnumerateCandidates(TpchGraph(), ctx_)) {}

  ExampleSpreadsheet sheet_;
  ScoreContext ctx_;
  EnumerationResult result_;
};

// Every enumerated candidate's row scores match the brute-force join.
TEST_F(EvaluatorTest, MatchesBruteForceOnAllCandidates) {
  ASSERT_GT(result_.candidates.size(), 0u);
  BruteForceEvaluator reference(TpchIndex(), sheet_);
  Evaluator ev(ctx_);
  for (const CandidateQuery& c : result_.candidates) {
    EvalCounters counters;
    std::vector<double> got = ev.RowScores(c.query, nullptr, &counters);
    std::vector<double> want = reference.RowScores(c.query);
    ASSERT_EQ(got.size(), want.size());
    for (size_t t = 0; t < got.size(); ++t) {
      EXPECT_DOUBLE_EQ(got[t], want[t])
          << c.query.ToString(TpchIndex().db()) << " row " << t;
    }
  }
}

// Evaluating through a warm cache must not change any score.
TEST_F(EvaluatorTest, CacheDoesNotChangeScores) {
  Evaluator ev(ctx_);
  SubQueryCache cache(64u << 20);
  for (const CandidateQuery& c : result_.candidates) {
    EvalCounters counters;
    std::vector<double> cold = ev.RowScores(c.query, nullptr, &counters);
    EvalOptions opts;
    opts.offer_to_cache = true;
    std::vector<double> warm1 = ev.RowScores(c.query, &cache, &counters, opts);
    std::vector<double> warm2 = ev.RowScores(c.query, &cache, &counters, opts);
    EXPECT_EQ(cold, warm1) << c.query.ToString(TpchIndex().db());
    EXPECT_EQ(cold, warm2) << c.query.ToString(TpchIndex().db());
  }
  EXPECT_GT(cache.stats().hits, 0);
}

// A pre-evaluated critical sub-PJ table is picked up and reused.
TEST_F(EvaluatorTest, ReusesExplicitlyCachedSubPj) {
  // Use a multi-node candidate with a non-trivial subtree.
  const CandidateQuery* cand = nullptr;
  for (const CandidateQuery& c : result_.candidates) {
    if (c.query.tree().size() >= 3) {
      cand = &c;
      break;
    }
  }
  ASSERT_NE(cand, nullptr);

  Evaluator ev(ctx_);
  EvalCounters counters;
  std::vector<double> cold = ev.RowScores(cand->query, nullptr, &counters);

  for (const SubPJQuery& sub : cand->query.EnumerateSubQueries()) {
    if (sub.anchor == cand->query.tree().root()) continue;
    SubQueryCache cache(64u << 20);
    EvalCounters sub_counters;
    auto table = ev.EvaluateSub(sub, &cache, &sub_counters);
    ASSERT_TRUE(cache.Add(sub.cache_key, table));
    EvalCounters warm_counters;
    std::vector<double> warm =
        ev.RowScores(cand->query, &cache, &warm_counters);
    EXPECT_EQ(cold, warm) << "sub anchored at " << sub.anchor;
    EXPECT_GT(warm_counters.tables_reused, 0);
  }
}

// Restricting evaluation to a row subset zeroes the other rows and
// matches the full evaluation on the selected ones.
TEST_F(EvaluatorTest, RowSubsetEvaluation) {
  Evaluator ev(ctx_);
  for (const CandidateQuery& c : result_.candidates) {
    EvalCounters counters;
    std::vector<double> full = ev.RowScores(c.query, nullptr, &counters);
    EvalOptions opts;
    opts.es_rows = {1};
    std::vector<double> partial =
        ev.RowScores(c.query, nullptr, &counters, opts);
    EXPECT_DOUBLE_EQ(partial[1], full[1]);
    EXPECT_DOUBLE_EQ(partial[0], 0.0);
    EXPECT_DOUBLE_EQ(partial[2], 0.0);
  }
}

// The drop-zero-rows shortcut can only lower scores, never raise them.
TEST_F(EvaluatorTest, DropZeroRowsIsLowerBound) {
  Evaluator ev(ctx_);
  for (const CandidateQuery& c : result_.candidates) {
    EvalCounters counters;
    std::vector<double> exact = ev.RowScores(c.query, nullptr, &counters);
    EvalOptions opts;
    opts.drop_zero_rows = true;
    std::vector<double> dropped =
        ev.RowScores(c.query, nullptr, &counters, opts);
    for (size_t t = 0; t < exact.size(); ++t) {
      EXPECT_LE(dropped[t], exact[t] + 1e-12);
    }
  }
}

// Operator counters line up with the cost model's posting component.
TEST_F(EvaluatorTest, CountersReflectWork) {
  Evaluator ev(ctx_);
  for (const CandidateQuery& c : result_.candidates) {
    EvalCounters counters;
    ev.RowScores(c.query, nullptr, &counters);
    EXPECT_GT(counters.rows_scanned, 0);
    int64_t posting_cost = 0;
    for (const ProjectionBinding& b : c.query.bindings()) {
      const int32_t gid = TpchIndex().column_ids().Gid(
          ColumnRef{c.query.tree().node(b.node).table, b.column});
      posting_cost += ctx_.PostingCost(b.es_column, gid);
    }
    EXPECT_EQ(counters.postings_scanned, posting_cost)
        << c.query.ToString(TpchIndex().db());
  }
}

// Cost model sanity: cost(Q) > 0, discounts never increase it, and the
// discount matches the cached sub-PJ's own cost.
TEST_F(EvaluatorTest, CostModelDiscounts) {
  for (const CandidateQuery& c : result_.candidates) {
    if (c.query.tree().size() < 3) continue;
    const int64_t base = EvaluationCost(c.query, ctx_);
    EXPECT_GT(base, 0);
    auto subs = c.query.EnumerateSubQueries();
    SubQueryCache cache(64u << 20);
    // Fake-cache one non-root sub-PJ and check the discount.
    for (const SubPJQuery& sub : subs) {
      if (sub.anchor == c.query.tree().root()) continue;
      auto table = std::make_shared<SubQueryTable>();
      cache.Add(sub.cache_key, table);
      const int64_t with = EvaluationCostWithCache(c.query, subs, cache, ctx_);
      EXPECT_LE(with, base);
      EXPECT_EQ(base - with, EvaluationCost(sub.tree, sub.bindings, ctx_));
      cache.Clear();
    }
  }
}

// Sub-PJ evaluation honors the byFk link: keys must be FK values of the
// sub-PJ root's rows.
TEST_F(EvaluatorTest, SubPjLinkKeys) {
  for (const CandidateQuery& c : result_.candidates) {
    for (const SubPJQuery& sub : c.query.EnumerateSubQueries()) {
      Evaluator ev(ctx_);
      EvalCounters counters;
      auto table = ev.EvaluateSub(sub, nullptr, &counters);
      ASSERT_NE(table, nullptr);
      if (sub.link.kind == LinkSpec::Kind::kByPk) {
        // Keys must be primary keys of the root table.
        const Table& root =
            TpchIndex().db().table(sub.tree.node(0).table);
        table->ForEachScored([&](int64_t key, const double* sims) {
          (void)sims;
          EXPECT_GE(root.FindByPk(key), 0);
        });
      }
    }
  }
}

}  // namespace
}  // namespace s4
