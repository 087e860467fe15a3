// Candidate enumeration (Sec 4.1.1): candidate columns, minimality
// pruning, deduplication, caps, and OR-semantics column subsets.
#include <gtest/gtest.h>

#include "enumerate/enumerator.h"
#include "strategy/incremental.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

using testing::Fig2aSheet;
using testing::TpchDb;
using testing::TpchGraph;
using testing::TpchIndex;

class EnumeratorTest : public ::testing::Test {
 protected:
  EnumeratorTest()
      : sheet_(Fig2aSheet(TpchIndex())),
        ctx_(TpchIndex(), sheet_, ScoreParams{}) {}

  ExampleSpreadsheet sheet_;
  ScoreContext ctx_;
};

TEST_F(EnumeratorTest, EmitsExpectedCandidates) {
  EnumerationResult r = EnumerateCandidates(TpchGraph(), ctx_);
  // The Fig 2(a) spreadsheet admits exactly the A-mapping choices
  // {CustName, Clerk, SuppName} joined to Nation and Part; with the
  // default size cap 5 this gives a small set that includes the paper's
  // queries (i), (ii), (iii).
  EXPECT_GT(r.candidates.size(), 2u);
  bool found_i = false, found_ii = false, found_iii = false;
  for (const CandidateQuery& c : r.candidates) {
    std::string s = c.query.ToString(TpchDb());
    if (s.find("A->Customer.CustName") != std::string::npos &&
        s.find("LineItem") != std::string::npos) {
      found_i = true;
    }
    if (s.find("A->Supplier.SuppName") != std::string::npos) found_ii = true;
    if (s.find("A->Orders.Clerk") != std::string::npos) found_iii = true;
  }
  EXPECT_TRUE(found_i);
  EXPECT_TRUE(found_ii);
  EXPECT_TRUE(found_iii);
}

TEST_F(EnumeratorTest, AllCandidatesAreMinimalAndDistinct) {
  EnumerationResult r = EnumerateCandidates(TpchGraph(), ctx_);
  std::set<std::string> sigs;
  for (const CandidateQuery& c : r.candidates) {
    EXPECT_TRUE(c.query.IsMinimalShape()) << c.query.ToString(TpchDb());
    EXPECT_TRUE(sigs.insert(c.query.signature()).second)
        << "duplicate " << c.query.ToString(TpchDb());
    EXPECT_GT(c.upper_bound, 0.0);
    // Every ES column is mapped under AND semantics.
    std::set<int32_t> mapped;
    for (const ProjectionBinding& b : c.query.bindings()) {
      mapped.insert(b.es_column);
    }
    EXPECT_EQ(mapped.size(), 3u);
  }
}

TEST_F(EnumeratorTest, TreeSizeCapRespected) {
  EnumerationOptions opts;
  opts.max_tree_size = 4;
  EnumerationResult r = EnumerateCandidates(TpchGraph(), ctx_, opts);
  for (const CandidateQuery& c : r.candidates) {
    EXPECT_LE(c.query.tree().size(), 4);
  }
  // Size 4 excludes the 5-relation queries (i)/(iii) but keeps (ii).
  bool found_ii = false;
  for (const CandidateQuery& c : r.candidates) {
    if (c.query.ToString(TpchDb()).find("A->Supplier.SuppName") !=
        std::string::npos) {
      found_ii = true;
    }
  }
  EXPECT_TRUE(found_ii);
}

TEST_F(EnumeratorTest, MaxQueriesTruncates) {
  EnumerationOptions opts;
  opts.max_queries = 2;
  EnumerationResult r = EnumerateCandidates(TpchGraph(), ctx_, opts);
  EXPECT_LE(static_cast<int64_t>(r.candidates.size()), 2);
  EXPECT_TRUE(r.stats.truncated);
}

TEST_F(EnumeratorTest, ActiveColumnSubset) {
  EnumerationOptions opts;
  opts.active_columns = {0, 2};  // skip the country column
  EnumerationResult r = EnumerateCandidates(TpchGraph(), ctx_, opts);
  EXPECT_GT(r.candidates.size(), 0u);
  for (const CandidateQuery& c : r.candidates) {
    for (const ProjectionBinding& b : c.query.bindings()) {
      EXPECT_NE(b.es_column, 1);
    }
    // Nation may still appear as an internal connector (e.g. Customer -
    // Nation - Supplier) but never as a leaf: leaves must carry mapped
    // columns (Def 3 i) and column B is inactive.
    for (TreeNodeId leaf : c.query.tree().Leaves()) {
      EXPECT_NE(c.query.tree().node(leaf).table,
                TpchDb().FindTable("Nation")->id())
          << c.query.ToString(TpchDb());
    }
  }
}

TEST_F(EnumeratorTest, UpperBoundsMatchColumnScores) {
  EnumerationResult r = EnumerateCandidates(TpchGraph(), ctx_);
  for (const CandidateQuery& c : r.candidates) {
    EXPECT_NEAR(c.upper_bound,
                UpperBoundFromColumnScore(c.column_score,
                                          c.query.tree().size()),
                1e-12);
  }
}

TEST(EnumeratorEdgeTest, NoCandidatesForUnknownTerms) {
  auto sheet = ExampleSpreadsheet::FromCells({{"xyzzy"}},
                                             TpchIndex().tokenizer());
  ASSERT_TRUE(sheet.ok());
  ScoreContext ctx(TpchIndex(), *sheet, ScoreParams{});
  EnumerationResult r = EnumerateCandidates(TpchGraph(), ctx);
  EXPECT_TRUE(r.candidates.empty());
}

TEST(EnumeratorEdgeTest, SingleColumnSingleTable) {
  auto sheet = ExampleSpreadsheet::FromCells({{"Xbox"}, {"Samsung"}},
                                             TpchIndex().tokenizer());
  ASSERT_TRUE(sheet.ok());
  ScoreContext ctx(TpchIndex(), *sheet, ScoreParams{});
  EnumerationResult r = EnumerateCandidates(TpchGraph(), ctx);
  // Minimal candidates should include the single-relation Part query.
  bool found_single = false;
  for (const CandidateQuery& c : r.candidates) {
    if (c.query.tree().size() == 1) {
      EXPECT_EQ(TpchDb().table(c.query.tree().node(0).table).name(), "Part");
      found_single = true;
    }
  }
  EXPECT_TRUE(found_single);
}

// Two ES columns with vocabulary from the same database column: both map
// into (possibly distinct instances of) that column.
TEST(EnumeratorEdgeTest, TwoColumnsSameDomain) {
  auto sheet = ExampleSpreadsheet::FromCells({{"Xbox", "Samsung"}},
                                             TpchIndex().tokenizer());
  ASSERT_TRUE(sheet.ok());
  ScoreContext ctx(TpchIndex(), *sheet, ScoreParams{});
  EnumerationResult r = EnumerateCandidates(TpchGraph(), ctx);
  bool single_table = false;
  for (const CandidateQuery& c : r.candidates) {
    if (c.query.tree().size() == 1 && c.query.bindings().size() == 2) {
      single_table = true;
    }
  }
  EXPECT_TRUE(single_table);
}

// An active_columns entry out of range or repeated is InvalidArgument,
// and every in-process entry point, which takes it unchecked, gets no
// candidates instead of indexing past the per-column state.
TEST_F(EnumeratorTest, InvalidActiveColumnsYieldNoCandidates) {
  EnumerationOptions ok;
  ok.active_columns = {2, 0};
  EXPECT_TRUE(ValidateActiveColumns(ok, 3).ok());
  for (const std::vector<int32_t>& bad :
       {std::vector<int32_t>{3}, std::vector<int32_t>{-1},
        std::vector<int32_t>{0, 0}, std::vector<int32_t>{1, 5, 1}}) {
    EnumerationOptions opts;
    opts.active_columns = bad;
    EXPECT_EQ(ValidateActiveColumns(opts, 3).code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(
        EnumerateCandidates(TpchGraph(), ctx_, opts).candidates.empty());

    SearchOptions options;
    options.enumeration = opts;
    SearchResult fresh =
        SearchFastTopK(TpchIndex(), TpchGraph(), sheet_, options);
    EXPECT_TRUE(fresh.topk.empty());
    EXPECT_EQ(fresh.stats.queries_enumerated, 0);
    SearchSession session(TpchIndex(), TpchGraph(), options);
    EXPECT_TRUE(session.Search(sheet_).topk.empty());
  }
}

}  // namespace
}  // namespace s4
