// Strategy-equivalence differential suite: across randomly generated
// schemas, NAIVE, BASELINE and FASTTOPK must return the same top-k sets
// and scores (Thm 1 / Thm 3) at every thread count, under AND and under
// OR column mapping, and so must the incremental sessions (Sec 5.4) at
// every edit. The serial NAIVE run is the reference; every other
// (strategy, num_threads) combination is compared against it
// rank-by-rank.
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/random_schema.h"
#include "strategy/incremental.h"
#include "strategy/strategy.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

using Cells = std::vector<std::vector<std::string>>;

// Rank-by-rank score agreement plus tie-safe signature agreement: where
// the reference score is unique (no neighbor within tolerance), the
// signature at that rank must match too; among exact ties only the
// score sequence is pinned down.
void ExpectEquivalentTopK(const SearchResult& ref, const SearchResult& got,
                          const std::string& label) {
  ASSERT_EQ(ref.topk.size(), got.topk.size()) << label;
  const double kTol = 1e-9;
  for (size_t i = 0; i < ref.topk.size(); ++i) {
    EXPECT_NEAR(ref.topk[i].score, got.topk[i].score, kTol)
        << label << " rank " << i;
    const bool tied_prev =
        i > 0 && std::abs(ref.topk[i].score - ref.topk[i - 1].score) <= kTol;
    const bool tied_next =
        i + 1 < ref.topk.size() &&
        std::abs(ref.topk[i].score - ref.topk[i + 1].score) <= kTol;
    if (!tied_prev && !tied_next) {
      EXPECT_EQ(ref.topk[i].query.signature(), got.topk[i].query.signature())
          << label << " rank " << i;
    }
  }
}

// Rank-by-rank bit identity: the same score (==, no tolerance) and the
// same signature at every rank, ties included.
void ExpectBitIdenticalTopK(const SearchResult& ref, const SearchResult& got,
                            const std::string& label) {
  ASSERT_EQ(ref.topk.size(), got.topk.size()) << label;
  for (size_t i = 0; i < ref.topk.size(); ++i) {
    EXPECT_EQ(ref.topk[i].score, got.topk[i].score) << label << " rank " << i;
    EXPECT_EQ(ref.topk[i].query.signature(), got.topk[i].query.signature())
        << label << " rank " << i;
  }
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    seed_ = GetParam();
    opts_.seed = seed_;
    opts_.num_tables = 4 + static_cast<int32_t>(seed_ % 4);
    auto db = datagen::MakeRandomSchema(opts_);
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(db).value();
    auto index = IndexSet::Build(db_);
    ASSERT_TRUE(index.ok());
    index_ = std::move(index).value();
    graph_ = std::make_unique<SchemaGraph>(db_);
  }

  // Random spreadsheet cells over the generator's shared vocabulary:
  // each cell holds one word, or two with probability 0.4.
  Cells RandomCells(int rows, int cols) const {
    Rng rng(seed_ * 131 + 7);
    Cells cells(rows);
    for (auto& row : cells) {
      for (int c = 0; c < cols; ++c) {
        std::string cell = StrFormat(
            "w%lld", static_cast<long long>(rng.Uniform(opts_.vocab_size)));
        if (rng.Bernoulli(0.4)) {
          cell += StrFormat(
              " w%lld",
              static_cast<long long>(rng.Uniform(opts_.vocab_size)));
        }
        row.push_back(cell);
      }
    }
    return cells;
  }

  // A random two-row spreadsheet.
  StatusOr<ExampleSpreadsheet> RandomSheet(int cols) const {
    return ExampleSpreadsheet::FromCells(RandomCells(2, cols),
                                         index_->tokenizer());
  }

  static SearchOptions BaseOptions() {
    SearchOptions base;
    base.k = 5;
    base.enumeration.max_tree_size = 3;
    base.enumeration.max_queries = 4000;
    base.num_threads = 1;
    return base;
  }

  uint64_t seed_ = 0;
  datagen::RandomSchemaOptions opts_;
  Database db_;
  std::unique_ptr<IndexSet> index_;
  std::unique_ptr<SchemaGraph> graph_;
};

TEST_P(DifferentialTest, StrategiesAgreeAcrossThreadCounts) {
  auto sheet = RandomSheet(2);
  ASSERT_TRUE(sheet.ok());

  const SearchOptions base = BaseOptions();
  PreparedSearch prep(*index_, *graph_, *sheet, base);
  SearchResult ref = RunNaive(prep, base);

  for (int32_t threads : {1, 4}) {
    SearchOptions options = base;
    options.num_threads = threads;
    const std::string suffix =
        " seed=" + std::to_string(seed_) + " T=" + std::to_string(threads);
    SearchResult naive = RunNaive(prep, options);
    SearchResult baseline = RunBaseline(prep, options);
    SearchResult fast = RunFastTopK(prep, options);
    ExpectEquivalentTopK(ref, naive, "naive" + suffix);
    ExpectEquivalentTopK(ref, baseline, "baseline" + suffix);
    ExpectEquivalentTopK(ref, fast, "fasttopk" + suffix);
    // Pruning invariants hold at any thread count.
    EXPECT_EQ(naive.stats.queries_evaluated, naive.stats.queries_enumerated)
        << suffix;
    EXPECT_LE(baseline.stats.queries_evaluated,
              naive.stats.queries_evaluated)
        << suffix;
    EXPECT_LE(fast.stats.queries_evaluated + fast.stats.skipped_by_condition,
              naive.stats.queries_evaluated)
        << suffix;
  }
}

// OR column mapping (Appendix A.3). The one extended enumeration is the
// disjoint union of the per-subset enumerations, one per non-empty set
// of mapped columns, with bit-identical upper bounds (the paper's
// "simple extension" and "more direct way" search the same space).
TEST_P(DifferentialTest, OrEnumerationIsDisjointSubsetUnion) {
  constexpr int kCols = 3;
  auto sheet = RandomSheet(kCols);
  ASSERT_TRUE(sheet.ok());

  SearchOptions or_options = BaseOptions();
  or_options.enumeration.or_semantics = true;
  PreparedSearch direct(*index_, *graph_, *sheet, or_options);
  ASSERT_FALSE(direct.enum_stats.truncated);
  std::map<std::string, double> direct_ub;
  for (const CandidateQuery& c : direct.candidates) {
    direct_ub.emplace(c.query.signature(), c.upper_bound);
  }
  ASSERT_EQ(direct_ub.size(), direct.candidates.size());

  std::map<std::string, double> union_ub;
  for (int mask = 1; mask < (1 << kCols); ++mask) {
    SearchOptions options = BaseOptions();
    for (int32_t c = 0; c < kCols; ++c) {
      if (mask & (1 << c)) options.enumeration.active_columns.push_back(c);
    }
    PreparedSearch subset(*index_, *graph_, *sheet, options);
    ASSERT_FALSE(subset.enum_stats.truncated);
    for (const CandidateQuery& c : subset.candidates) {
      EXPECT_TRUE(union_ub.emplace(c.query.signature(), c.upper_bound).second)
          << "seed=" << seed_ << " mask=" << mask << " repeats "
          << c.query.signature();
    }
  }
  // Exact map equality: same signatures, bit-identical bounds.
  EXPECT_TRUE(direct_ub == union_ub)
      << "seed=" << seed_ << " direct " << direct_ub.size() << " union "
      << union_ub.size();
}

// Every strategy honours or_semantics: BASELINE and FASTTOPK at 1 and 4
// threads are bit-identical to serial NAIVE, rank by rank.
TEST_P(DifferentialTest, OrStrategiesAreBitIdentical) {
  auto sheet = RandomSheet(3);
  ASSERT_TRUE(sheet.ok());

  SearchOptions base = BaseOptions();
  base.enumeration.or_semantics = true;
  PreparedSearch prep(*index_, *graph_, *sheet, base);
  SearchResult ref = RunNaive(prep, base);

  for (int32_t threads : {1, 4}) {
    SearchOptions options = base;
    options.num_threads = threads;
    const std::string suffix =
        " seed=" + std::to_string(seed_) + " T=" + std::to_string(threads);
    ExpectBitIdenticalTopK(ref, RunBaseline(prep, options),
                           "baseline" + suffix);
    ExpectBitIdenticalTopK(ref, RunFastTopK(prep, options),
                           "fasttopk" + suffix);
  }
}

// Incremental search (Sec 5.4): type a 3x2 sheet cell by cell after a
// full first row, then edit a row-0 cell and revert it. At every step,
// FASTTOPK-INC and BASELINE-INC at 1 and 4 threads are bit-identical to
// a fresh serial NAIVE search.
TEST_P(DifferentialTest, IncrementalSessionsAreBitIdentical) {
  const Cells full = RandomCells(3, 2);
  std::vector<Cells> steps;
  Cells cells{full[0]};
  steps.push_back(cells);
  for (size_t row = 1; row < full.size(); ++row) {
    cells.push_back({"", ""});
    for (size_t col = 0; col < full[row].size(); ++col) {
      cells[row][col] = full[row][col];
      steps.push_back(cells);
    }
  }
  cells[0][0] = full[2][1];
  steps.push_back(cells);
  cells[0][0] = full[0][0];
  steps.push_back(cells);

  std::vector<ExampleSpreadsheet> sheets;
  std::vector<SearchResult> refs;
  for (const Cells& step : steps) {
    auto sheet = ExampleSpreadsheet::FromCells(step, index_->tokenizer());
    ASSERT_TRUE(sheet.ok());
    ASSERT_TRUE(sheet->Validate().ok());
    refs.push_back(SearchNaive(*index_, *graph_, *sheet, BaseOptions()));
    sheets.push_back(std::move(sheet).value());
  }

  for (IncrementalMode mode :
       {IncrementalMode::kFastTopKInc, IncrementalMode::kBaselineInc}) {
    for (int32_t threads : {1, 4}) {
      SearchOptions options = BaseOptions();
      options.num_threads = threads;
      SearchSession session(*index_, *graph_, options);
      for (size_t step = 0; step < sheets.size(); ++step) {
        ExpectBitIdenticalTopK(
            refs[step], session.Search(sheets[step], mode),
            StrFormat("%s seed=%llu T=%d step=%zu",
                      mode == IncrementalMode::kFastTopKInc ? "inc"
                                                            : "baseline-inc",
                      static_cast<unsigned long long>(seed_), threads, step));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace s4
