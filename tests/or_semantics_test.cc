// OR-column-mapping semantics (Appendix A.3): one search over the
// extended candidate set, selected by options.enumeration.or_semantics
// and honoured by every strategy.
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "strategy/strategy.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

using testing::Fig2aSheet;
using testing::TpchGraph;
using testing::TpchIndex;

SearchOptions OrOptions(int32_t k) {
  SearchOptions options;
  options.k = k;
  options.enumeration.or_semantics = true;
  return options;
}

// Every top-k query maps only spreadsheet column 0.
void ExpectOnlyColumnZeroMapped(const SearchResult& r) {
  ASSERT_FALSE(r.topk.empty());
  for (const ScoredQuery& sq : r.topk) {
    for (const ProjectionBinding& b : sq.query.bindings()) {
      EXPECT_EQ(b.es_column, 0);
    }
  }
}

TEST(OrSemanticsTest, SupersetOfAndCandidates) {
  ExampleSpreadsheet sheet = Fig2aSheet(TpchIndex());
  SearchOptions options;
  options.k = 10;
  SearchResult and_result =
      SearchFastTopK(TpchIndex(), TpchGraph(), sheet, options);
  SearchResult or_result =
      SearchFastTopK(TpchIndex(), TpchGraph(), sheet, OrOptions(10));

  // OR enumerates at least as many queries in total.
  EXPECT_GE(or_result.stats.queries_enumerated,
            and_result.stats.queries_enumerated);

  // Paper Fig 12(a): for fully-matched spreadsheets the top results of
  // OR and AND coincide — every AND top-k query also exists under OR,
  // and the best OR scores are not below the best AND scores.
  ASSERT_FALSE(or_result.topk.empty());
  EXPECT_GE(or_result.topk[0].score, and_result.topk[0].score - 1e-9);
}

TEST(OrSemanticsTest, FullMappingWinsWhenSpreadsheetMatches) {
  ExampleSpreadsheet sheet = Fig2aSheet(TpchIndex());
  SearchResult or_result =
      SearchFastTopK(TpchIndex(), TpchGraph(), sheet, OrOptions(3));
  ASSERT_FALSE(or_result.topk.empty());
  // The winner should map all three columns (AND semantics dominates
  // when the data supports it) — subsets lose score mass.
  std::set<int32_t> mapped;
  for (const ProjectionBinding& b : or_result.topk[0].query.bindings()) {
    mapped.insert(b.es_column);
  }
  EXPECT_EQ(mapped.size(), 3u);
}

TEST(OrSemanticsTest, NaiveAndFastAgree) {
  ExampleSpreadsheet sheet = Fig2aSheet(TpchIndex());
  const SearchOptions options = OrOptions(5);
  SearchResult fast = SearchFastTopK(TpchIndex(), TpchGraph(), sheet, options);
  SearchResult naive = SearchNaive(TpchIndex(), TpchGraph(), sheet, options);
  ASSERT_EQ(fast.topk.size(), naive.topk.size());
  for (size_t i = 0; i < fast.topk.size(); ++i) {
    EXPECT_NEAR(fast.topk[i].score, naive.topk[i].score, 1e-9);
  }
  // NAIVE evaluates everything it enumerates.
  EXPECT_EQ(naive.stats.queries_evaluated, naive.stats.queries_enumerated);
  EXPECT_LE(fast.stats.queries_evaluated, naive.stats.queries_evaluated);
}

TEST(OrSemanticsTest, HandlesUnmatchableColumn) {
  auto sheet = ExampleSpreadsheet::FromCells({{"Xbox", "qqqnothing"}},
                                             TpchIndex().tokenizer());
  ASSERT_TRUE(sheet.ok());
  ExpectOnlyColumnZeroMapped(
      SearchFastTopK(TpchIndex(), TpchGraph(), *sheet, OrOptions(10)));
}

// The OR search enumerates one extended candidate set directly rather
// than looping over column subsets, so a sheet wider than a 32-bit mask
// of column subsets can name still finds its one matchable column.
TEST(OrSemanticsTest, DirectHandlesUnmatchableColumn) {
  std::vector<std::string> row(33);
  row[0] = "Xbox";
  for (size_t c = 1; c < row.size(); ++c) {
    row[c] = "qqqnothing" + std::to_string(c);
  }
  auto wide = ExampleSpreadsheet::FromCells({row}, TpchIndex().tokenizer());
  ASSERT_TRUE(wide.ok());
  ExpectOnlyColumnZeroMapped(
      SearchFastTopK(TpchIndex(), TpchGraph(), *wide, OrOptions(10)));
}

// One OR search is one search: it publishes one run to the registry and
// its RunStats count one search.
TEST(OrSemanticsTest, OneSearchCountsOnce) {
  ExampleSpreadsheet sheet = Fig2aSheet(TpchIndex());
  const int64_t before =
      obs::MetricsRegistry::Global().Snapshot().Value("s4_searches_total");
  SearchResult r =
      SearchFastTopK(TpchIndex(), TpchGraph(), sheet, OrOptions(3));
  const int64_t after =
      obs::MetricsRegistry::Global().Snapshot().Value("s4_searches_total");
  EXPECT_EQ(r.stats.searches, 1);
  EXPECT_EQ(after - before, 1);
}

// SearchProgress's contract holds for an OR search: the upper bound of
// what is not yet evaluated never rises across one run's snapshots.
TEST(OrSemanticsTest, ProgressBoundNeverRises) {
  ExampleSpreadsheet sheet = Fig2aSheet(TpchIndex());
  SearchOptions options = OrOptions(3);
  options.num_threads = 1;
  std::vector<double> bounds;
  options.progress = [&](const SearchProgress& p) {
    bounds.push_back(p.remaining_upper_bound);
  };
  SearchResult r = SearchFastTopK(TpchIndex(), TpchGraph(), sheet, options);
  ASSERT_FALSE(r.topk.empty());
  ASSERT_FALSE(bounds.empty());
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LE(bounds[i], bounds[i - 1]) << "snapshot " << i;
  }
}

}  // namespace
}  // namespace s4
