// End-to-end S4System tests: the public API a downstream user touches.
#include <gtest/gtest.h>

#include "datagen/tpch_mini.h"
#include "s4/s4.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

const S4System& System() {
  static const S4System& system = *[] {
    auto s = S4System::Create(testing::TpchDb());
    if (!s.ok()) abort();
    return s->release();
  }();
  return system;
}

TEST(S4SystemTest, QuickstartTopResultContainsSpreadsheet) {
  SearchOptions options;
  options.k = 5;
  auto result = System().Search(
      {
          {"Rick", "USA", "Xbox"},
          {"Julie", "", "iPhone"},
          {"Kevin", "Canada", ""},
      },
      options);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->topk.size(), 3u);
  // The full-containment queries score row=7 at the top.
  EXPECT_DOUBLE_EQ(result->topk[0].row_score, 7.0);
  // Figure 2(b)-(i) — Customer-rooted with LineItem — is among the top-k.
  bool found = false;
  for (const ScoredQuery& sq : result->topk) {
    std::string s = sq.query.ToString(System().db());
    if (s.find("A->Customer.CustName") != std::string::npos &&
        s.find("LineItem") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(S4SystemTest, StrategiesExposedOnFacade) {
  SearchOptions options;
  options.k = 3;
  std::vector<std::vector<std::string>> cells{{"Rick", "USA", "Xbox"},
                                              {"Julie", "", "iPhone"},
                                              {"Kevin", "Canada", ""}};
  auto naive = System().Search(cells, options, S4System::Strategy::kNaive);
  auto base = System().Search(cells, options, S4System::Strategy::kBaseline);
  auto fast = System().Search(cells, options, S4System::Strategy::kFastTopK);
  ASSERT_TRUE(naive.ok() && base.ok() && fast.ok());
  ASSERT_EQ(naive->topk.size(), fast->topk.size());
  for (size_t i = 0; i < naive->topk.size(); ++i) {
    EXPECT_NEAR(naive->topk[i].score, base->topk[i].score, 1e-9);
    EXPECT_NEAR(naive->topk[i].score, fast->topk[i].score, 1e-9);
  }
}

TEST(S4SystemTest, RejectsInvalidSpreadsheet) {
  auto r = System().Search({{"", ""}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(S4SystemTest, FormatResultsMentionsSqlAndScores) {
  SearchOptions options;
  options.k = 2;
  auto result = System().Search({{"Xbox"}, {"Samsung"}}, options);
  ASSERT_TRUE(result.ok());
  std::string report = System().FormatResults(*result);
  EXPECT_NE(report.find("score="), std::string::npos);
  EXPECT_NE(report.find("SELECT"), std::string::npos);
  EXPECT_NE(report.find("top-"), std::string::npos);
}

TEST(S4SystemTest, SearchOrFindsPartialMappings) {
  // Column B's vocabulary ("zzz") matches nothing, so AND semantics
  // yields no candidates but OR semantics still finds Part queries via
  // column A.
  auto sheet = System().MakeSpreadsheet({{"Xbox", "zzznothing"}});
  ASSERT_TRUE(sheet.ok());
  SearchOptions options;
  SearchResult and_result = System().Search(*sheet, options);
  EXPECT_TRUE(and_result.topk.empty());
  options.enumeration.or_semantics = true;
  SearchResult or_result = System().Search(*sheet, options);
  ASSERT_FALSE(or_result.topk.empty());
  bool mentions_part = false;
  for (const ScoredQuery& sq : or_result.topk) {
    if (sq.query.ToString(System().db()).find("Part") !=
        std::string::npos) {
      mentions_part = true;
    }
  }
  EXPECT_TRUE(mentions_part);
}

TEST(S4SystemTest, SessionViaFacade) {
  SearchOptions options;
  options.k = 3;
  SearchSession session = System().NewSession(options);
  auto sheet = System().MakeSpreadsheet({{"Rick", "USA"}});
  ASSERT_TRUE(sheet.ok());
  SearchResult r1 = session.Search(*sheet);
  EXPECT_FALSE(r1.topk.empty());
  ExampleSpreadsheet edited =
      sheet->WithCell(0, 0, "Kevin", System().index().tokenizer());
  SearchResult r2 = session.Search(edited);
  EXPECT_FALSE(r2.topk.empty());
}

TEST(S4SystemTest, IndexStats) {
  IndexStats stats = System().index_stats();
  EXPECT_EQ(stats.num_tokens, 20);
  EXPECT_GT(stats.inverted_index_bytes, 0u);
}

}  // namespace
}  // namespace s4
