// Incremental computation (Sec 5.4, Appendix A.1): correctness of the
// session-based strategies versus fresh searches, and the work savings.
#include <gtest/gtest.h>

#include "strategy/incremental.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

using testing::Fig2aSheet;
using testing::TpchGraph;
using testing::TpchIndex;

// Incremental searches reuse stored row scores verbatim, so their top-k
// must equal a fresh search's exactly: same scores, same queries, same
// (score desc, signature asc) order.
void ExpectSameTopK(const SearchResult& a, const SearchResult& b,
                    const std::string& label) {
  ASSERT_EQ(a.topk.size(), b.topk.size()) << label;
  for (size_t i = 0; i < a.topk.size(); ++i) {
    EXPECT_EQ(a.topk[i].score, b.topk[i].score) << label << " rank " << i;
    EXPECT_EQ(a.topk[i].query.signature(), b.topk[i].query.signature())
        << label << " rank " << i;
  }
}

class IncrementalTest : public ::testing::TestWithParam<IncrementalMode> {};

// Typing the Fig 2(a) spreadsheet cell-by-cell must give, after every
// step, the same top-k as a fresh FASTTOPK search on the current sheet.
TEST_P(IncrementalTest, CellByCellMatchesFreshSearch) {
  const IncrementalMode mode = GetParam();
  SearchOptions options;
  options.k = 5;
  SearchSession session = [&] {
    return SearchSession(TpchIndex(), TpchGraph(), options);
  }();

  const std::vector<std::vector<std::string>> full{
      {"Rick", "USA", "Xbox"},
      {"Julie", "", "iPhone"},
      {"Kevin", "Canada", ""},
  };
  // Simulate row-wise, left-to-right typing: after the first full row,
  // add one cell at a time (paper's Fig 11 simulation).
  std::vector<std::vector<std::string>> cells{full[0]};
  for (size_t row = 1; row < full.size(); ++row) {
    cells.push_back({"", "", ""});
    for (size_t col = 0; col < full[row].size(); ++col) {
      cells[row][col] = full[row][col];
      auto sheet =
          ExampleSpreadsheet::FromCells(cells, TpchIndex().tokenizer());
      ASSERT_TRUE(sheet.ok());
      if (!sheet->Validate().ok()) continue;  // row still empty

      SearchResult inc = session.Search(*sheet, mode);
      SearchResult fresh =
          SearchFastTopK(TpchIndex(), TpchGraph(), *sheet, options);
      ExpectSameTopK(inc, fresh,
                       "row " + std::to_string(row) + " col " +
                           std::to_string(col));
    }
  }
  EXPECT_GT(session.NumRememberedQueries(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, IncrementalTest,
    ::testing::Values(IncrementalMode::kFastTopKInc,
                      IncrementalMode::kBaselineInc),
    [](const ::testing::TestParamInfo<IncrementalMode>& info) {
      switch (info.param) {
        case IncrementalMode::kFastTopKInc:
          return "FastTopKInc";
        case IncrementalMode::kBaselineInc:
          return "BaselineInc";
      }
      return "Unknown";
    });

// The incremental strategy evaluates fewer query-rows than the
// non-incremental restart (FASTTOPK-NINC, a fresh search on the edited
// sheet) when only one cell changes.
TEST(IncrementalSavingsTest, FewerRowEvaluationsThanRestart) {
  SearchOptions options;
  options.k = 5;
  ExampleSpreadsheet sheet = Fig2aSheet(TpchIndex());

  SearchSession inc(TpchIndex(), TpchGraph(), options);
  inc.Search(sheet, IncrementalMode::kFastTopKInc);
  ExampleSpreadsheet edited =
      sheet.WithCell(2, 2, "Samsung", TpchIndex().tokenizer());
  SearchResult inc_result =
      inc.Search(edited, IncrementalMode::kFastTopKInc);

  SearchResult ninc_result =
      SearchFastTopK(TpchIndex(), TpchGraph(), edited, options);

  ExpectSameTopK(inc_result, ninc_result, "inc-vs-ninc");
  EXPECT_LT(inc_result.stats.query_row_evals,
            ninc_result.stats.query_row_evals);
}

// Editing the same row twice in a row keeps results correct (stale-score
// invalidation path).
TEST(IncrementalSavingsTest, RepeatedEditsStayCorrect) {
  SearchOptions options;
  options.k = 5;
  SearchSession session(TpchIndex(), TpchGraph(), options);
  ExampleSpreadsheet sheet = Fig2aSheet(TpchIndex());
  session.Search(sheet);

  for (const char* value : {"Samsung", "Xbox", "iPhone"}) {
    sheet = sheet.WithCell(2, 2, value, TpchIndex().tokenizer());
    SearchResult inc = session.Search(sheet);
    SearchResult fresh =
        SearchFastTopK(TpchIndex(), TpchGraph(), sheet, options);
    ExpectSameTopK(inc, fresh, std::string("edit ") + value);
  }
}

// Adding a column restarts cleanly.
TEST(IncrementalSavingsTest, ColumnChangeRestarts) {
  SearchOptions options;
  options.k = 5;
  SearchSession session(TpchIndex(), TpchGraph(), options);
  auto sheet2 = ExampleSpreadsheet::FromCells(
      {{"Rick", "USA"}, {"Kevin", "Canada"}}, TpchIndex().tokenizer());
  ASSERT_TRUE(sheet2.ok());
  session.Search(*sheet2);

  ExampleSpreadsheet sheet3 = Fig2aSheet(TpchIndex());
  SearchResult inc = session.Search(sheet3);
  SearchResult fresh =
      SearchFastTopK(TpchIndex(), TpchGraph(), sheet3, options);
  ExpectSameTopK(inc, fresh, "column-added");
}

}  // namespace
}  // namespace s4
