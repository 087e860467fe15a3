// Anytime approximate search suite (DESIGN.md "Anytime approximate
// search"): option validation at the system boundary, the JoinSampler
// estimator contract (exhaustive walks reproduce exact scores; partial
// walks cover the true score at no less than the stated confidence),
// the epsilon = 0 bit-identity guarantee across strategies, thread
// counts and shard slicings, determinism of the sampled path, epsilon
// soundness of the relaxed skipping rule, and the deadline fallback
// that turns a truncated result into a bounded-error approximate one.
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "approx/join_sampler.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/random_schema.h"
#include "exec/evaluator.h"
#include "s4/s4.h"
#include "score/score_model.h"
#include "strategy/strategy.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

constexpr double kTol = 1e-9;

// Exact final score of one candidate, recomputed from first principles
// through the hash-join evaluator (no cache, no pruning).
double ExactScore(const ScoreContext& ctx, const SearchOptions& options,
                  const CandidateQuery& cand,
                  std::vector<double>* row_scores_out = nullptr) {
  Evaluator ev(ctx);
  EvalCounters counters;
  std::vector<double> rows = ev.RowScores(cand.query, nullptr, &counters);
  double row_score = 0.0;
  for (double s : rows) row_score += s;
  if (row_scores_out != nullptr) *row_scores_out = rows;
  return CombineScore(row_score, cand.column_score, options.score.alpha,
                      cand.query.tree().size());
}

// Random 2x2 spreadsheet over the generator's shared vocabulary, the
// differential-suite recipe.
std::vector<std::vector<std::string>> RandomCells(Rng& rng,
                                                  int32_t vocab_size) {
  std::vector<std::vector<std::string>> cells(2);
  for (auto& row : cells) {
    for (int c = 0; c < 2; ++c) {
      std::string cell = StrFormat(
          "w%lld", static_cast<long long>(rng.Uniform(vocab_size)));
      if (rng.Bernoulli(0.4)) {
        cell += StrFormat(
            " w%lld", static_cast<long long>(rng.Uniform(vocab_size)));
      }
      row.push_back(cell);
    }
  }
  return cells;
}

// --- option validation -------------------------------------------------

TEST(ApproxOptionsTest, ValidateRejectsBadApproxKnobs) {
  SearchOptions ok;
  EXPECT_TRUE(ValidateSearchOptions(ok).ok());

  SearchOptions on = ok;
  on.approx_epsilon = 0.05;
  EXPECT_TRUE(ValidateSearchOptions(on).ok());
  on.approx_confidence = 1.0;
  on.sample_budget = 1;
  EXPECT_TRUE(ValidateSearchOptions(on).ok());

  SearchOptions bad = ok;
  bad.approx_epsilon = -0.01;
  EXPECT_EQ(ValidateSearchOptions(bad).code(), StatusCode::kInvalidArgument);

  bad = ok;
  bad.approx_confidence = 0.0;
  EXPECT_EQ(ValidateSearchOptions(bad).code(), StatusCode::kInvalidArgument);
  bad.approx_confidence = 1.5;
  EXPECT_EQ(ValidateSearchOptions(bad).code(), StatusCode::kInvalidArgument);
  bad.approx_confidence = std::nan("");
  EXPECT_EQ(ValidateSearchOptions(bad).code(), StatusCode::kInvalidArgument);

  bad = ok;
  bad.sample_budget = 0;
  EXPECT_EQ(ValidateSearchOptions(bad).code(), StatusCode::kInvalidArgument);
  bad.sample_budget = -7;
  EXPECT_EQ(ValidateSearchOptions(bad).code(), StatusCode::kInvalidArgument);

  // The sampler mirrors keep-zero-rows join semantics; the drop-zero
  // ablation would make its certain lower bounds unsound.
  bad = ok;
  bad.approx_epsilon = 0.1;
  bad.drop_zero_rows = true;
  EXPECT_EQ(ValidateSearchOptions(bad).code(), StatusCode::kInvalidArgument);
  bad.approx_epsilon = 0.0;
  EXPECT_TRUE(ValidateSearchOptions(bad).ok());
}

// --- JoinSampler estimator contract ------------------------------------

// confidence = 1 forces an exhaustive walk of every support: the
// estimate must be flagged exact and agree with the evaluator up to
// floating-point accumulation order, including the per-ES-row scores
// reusable as session records.
TEST(JoinSamplerTest, ExhaustiveWalkReproducesExactScores) {
  const IndexSet& index = testing::TpchIndex();
  ExampleSpreadsheet sheet = testing::Fig2aSheet(index);
  SearchOptions options;
  PreparedSearch prep(index, testing::TpchGraph(), sheet, options);
  ASSERT_GT(prep.candidates.size(), 0u);

  approx::ApproxParams params;
  params.epsilon = 0.05;
  params.confidence = 1.0;
  params.sample_budget = int64_t{1} << 20;
  params.rng_seed = 42;
  approx::JoinSampler sampler(prep.ctx, params);

  for (const CandidateQuery& cand : prep.candidates) {
    SCOPED_TRACE(cand.query.signature());
    approx::CandidateEstimate est = sampler.Estimate(cand, false, nullptr);
    ASSERT_FALSE(est.escalate);
    EXPECT_TRUE(est.interval.exact());
    EXPECT_EQ(est.interval.sampled, est.interval.support);

    std::vector<double> exact_rows;
    const double exact = ExactScore(prep.ctx, options, cand, &exact_rows);
    EXPECT_NEAR(est.interval.lo, exact, kTol);
    EXPECT_NEAR(est.interval.hi, exact, kTol);
    EXPECT_LE(est.interval.lo, cand.upper_bound + kTol);

    ASSERT_EQ(est.row_scores.size(), exact_rows.size());
    for (size_t t = 0; t < exact_rows.size(); ++t) {
      EXPECT_NEAR(est.row_scores[t], exact_rows[t], kTol) << "row " << t;
    }
  }
}

// Statistical contract of a partial walk: a resolved interval [lo, lo]
// at confidence c pins the true score with probability >= c. Aggregated
// over 24 (schema, sampler-seed) combinations, the empirical coverage
// of genuinely partial resolutions (sampled < support) must not fall
// below the stated confidence. A vacuity guard keeps the assertion
// honest: the workload must actually produce partial resolutions.
TEST(JoinSamplerTest, PartialWalkCoversTrueScoreAtStatedConfidence) {
  const double kConfidence = 0.7;
  int64_t trials = 0;
  int64_t covered = 0;

  for (uint64_t schema_seed : {11, 12, 13, 14}) {
    datagen::RandomSchemaOptions sopts;
    sopts.seed = schema_seed;
    sopts.num_tables = 4;
    sopts.min_rows = 10;   // no empty tables: supports must be sizable
    sopts.max_rows = 60;
    sopts.vocab_size = 10;  // dense term collisions
    auto db = datagen::MakeRandomSchema(sopts);
    ASSERT_TRUE(db.ok()) << db.status();
    auto index = IndexSet::Build(*db);
    ASSERT_TRUE(index.ok());
    SchemaGraph graph(*db);

    Rng rng(schema_seed * 977 + 5);
    auto sheet = ExampleSpreadsheet::FromCells(
        RandomCells(rng, sopts.vocab_size), (*index)->tokenizer());
    ASSERT_TRUE(sheet.ok());

    SearchOptions base;
    base.k = 5;
    base.enumeration.max_tree_size = 3;
    base.enumeration.max_queries = 600;
    PreparedSearch prep(**index, graph, *sheet, base);

    // Exact reference, computed lazily once per candidate.
    std::vector<double> exact(prep.candidates.size(), -1.0);

    for (uint64_t s = 0; s < 6; ++s) {
      approx::ApproxParams params;
      params.confidence = kConfidence;
      params.sample_budget = int64_t{1} << 20;  // budget never caps
      params.rng_seed = 0x9E3779B97F4A7C15ull * (s + 1) + schema_seed;
      approx::JoinSampler sampler(prep.ctx, params);

      for (size_t ci = 0; ci < prep.candidates.size(); ++ci) {
        approx::CandidateEstimate est =
            sampler.Estimate(prep.candidates[ci], false, nullptr);
        if (est.escalate || !est.interval.resolved()) continue;
        if (est.interval.sampled >= est.interval.support) continue;
        ASSERT_LT(est.interval.confidence, 1.0);
        ++trials;
        if (exact[ci] < 0.0) {
          exact[ci] = ExactScore(prep.ctx, base, prep.candidates[ci]);
        }
        // lo is a certain lower bound; "covered" means the resolved
        // interval actually pinned the score.
        EXPECT_LE(est.interval.lo, exact[ci] + kTol);
        if (est.interval.lo >= exact[ci] - kTol) ++covered;
      }
    }
  }

  ASSERT_GE(trials, 50) << "workload produced too few partial resolutions"
                           " for the coverage assertion to mean anything";
  EXPECT_GE(static_cast<double>(covered) / static_cast<double>(trials),
            kConfidence)
      << covered << "/" << trials << " partial intervals covered the"
      << " true score";
}

// --- epsilon = 0 bit-identity ------------------------------------------

// Merges per-slice top-k lists the way the coordinator does: global
// order by (score desc, signature asc), prefix k.
std::vector<ScoredQuery> MergeSlices(
    const std::vector<SearchResult>& slices, int32_t k) {
  std::vector<ScoredQuery> all;
  for (const SearchResult& r : slices) {
    all.insert(all.end(), r.topk.begin(), r.topk.end());
  }
  std::sort(all.begin(), all.end(),
            [](const ScoredQuery& a, const ScoredQuery& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.query.signature() < b.query.signature();
            });
  if (all.size() > static_cast<size_t>(k)) all.resize(k);
  return all;
}

void ExpectBitIdenticalTopK(const std::vector<ScoredQuery>& ref,
                            const std::vector<ScoredQuery>& got,
                            const std::string& label) {
  ASSERT_EQ(ref.size(), got.size()) << label;
  for (size_t i = 0; i < ref.size(); ++i) {
    // Exact double equality on purpose: epsilon = 0 must leave the
    // computation untouched, not merely close.
    EXPECT_EQ(ref[i].score, got[i].score) << label << " rank " << i;
    EXPECT_EQ(ref[i].query.signature(), got[i].query.signature())
        << label << " rank " << i;
    EXPECT_FALSE(got[i].approximate) << label << " rank " << i;
    EXPECT_TRUE(got[i].interval.exact()) << label << " rank " << i;
  }
}

class ApproxZeroEpsilonTest : public ::testing::TestWithParam<uint64_t> {};

// approx_epsilon = 0 disables the machinery entirely: runs with the
// other approx knobs set to aggressive values must be bit-identical to
// runs with defaults, for every strategy, thread count and shard
// slicing, and the merged sharded answer must be bit-identical too.
TEST_P(ApproxZeroEpsilonTest, BitIdenticalAcrossStrategiesThreadsShards) {
  const uint64_t seed = GetParam();
  datagen::RandomSchemaOptions sopts;
  sopts.seed = seed;
  sopts.num_tables = 4 + static_cast<int32_t>(seed % 3);
  auto db = datagen::MakeRandomSchema(sopts);
  ASSERT_TRUE(db.ok()) << db.status();
  auto index = IndexSet::Build(*db);
  ASSERT_TRUE(index.ok());
  SchemaGraph graph(*db);

  Rng rng(seed * 131 + 7);
  auto sheet = ExampleSpreadsheet::FromCells(RandomCells(rng, 25),
                                             (*index)->tokenizer());
  ASSERT_TRUE(sheet.ok());

  SearchOptions base;
  base.k = 5;
  base.enumeration.max_tree_size = 3;
  base.enumeration.max_queries = 4000;

  using Runner = SearchResult (*)(PreparedSearch&, const SearchOptions&);
  const std::pair<const char*, Runner> strategies[] = {
      {"naive", &RunNaive},
      {"baseline", &RunBaseline},
      {"fasttopk", &RunFastTopK},
  };

  for (int32_t shard_count : {1, 2, 4}) {
    for (int32_t threads : {1, 4}) {
      for (const auto& [name, run] : strategies) {
        const std::string label =
            StrFormat("%s seed=%llu S=%d T=%d", name,
                      static_cast<unsigned long long>(seed), shard_count,
                      threads);
        std::vector<SearchResult> plain_slices;
        std::vector<SearchResult> knob_slices;
        for (int32_t shard = 0; shard < shard_count; ++shard) {
          SearchOptions plain = base;
          plain.num_threads = threads;
          plain.shard_count = shard_count;
          plain.shard_index = shard;
          // Same run with epsilon pinned to 0 but every other approx
          // knob set to values that would wreck the answer if read.
          SearchOptions knobs = plain;
          knobs.approx_epsilon = 0.0;
          knobs.approx_confidence = 0.31;
          knobs.sample_budget = 3;
          knobs.rng_seed = 0xDEADBEEFull;

          PreparedSearch prep(**index, graph, *sheet, plain);
          plain_slices.push_back(run(prep, plain));
          knob_slices.push_back(run(prep, knobs));

          EXPECT_FALSE(knob_slices.back().approximate) << label;
          EXPECT_EQ(knob_slices.back().stats.approx_sampled, 0) << label;
          EXPECT_EQ(knob_slices.back().stats.approx_skipped, 0) << label;
          ExpectBitIdenticalTopK(plain_slices.back().topk,
                                 knob_slices.back().topk,
                                 label + " slice " + std::to_string(shard));
        }
        ExpectBitIdenticalTopK(MergeSlices(plain_slices, base.k),
                               MergeSlices(knob_slices, base.k),
                               label + " merged");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproxZeroEpsilonTest,
                         ::testing::Range<uint64_t>(1, 5));

// --- sampled-path determinism and soundness ----------------------------

void ExpectIdenticalApproxResults(const SearchResult& a,
                                  const SearchResult& b,
                                  const std::string& label) {
  ASSERT_EQ(a.topk.size(), b.topk.size()) << label;
  for (size_t i = 0; i < a.topk.size(); ++i) {
    EXPECT_EQ(a.topk[i].score, b.topk[i].score) << label << " rank " << i;
    EXPECT_EQ(a.topk[i].query.signature(), b.topk[i].query.signature())
        << label << " rank " << i;
    EXPECT_EQ(a.topk[i].approximate, b.topk[i].approximate)
        << label << " rank " << i;
    EXPECT_EQ(a.topk[i].interval.lo, b.topk[i].interval.lo)
        << label << " rank " << i;
    EXPECT_EQ(a.topk[i].interval.hi, b.topk[i].interval.hi)
        << label << " rank " << i;
    EXPECT_EQ(a.topk[i].interval.confidence, b.topk[i].interval.confidence)
        << label << " rank " << i;
    EXPECT_EQ(a.topk[i].interval.support, b.topk[i].interval.support)
        << label << " rank " << i;
    EXPECT_EQ(a.topk[i].interval.sampled, b.topk[i].interval.sampled)
        << label << " rank " << i;
  }
  EXPECT_EQ(a.approximate, b.approximate) << label;
}

// The per-candidate rng streams are keyed by signature, and sampling
// decisions are applied serially in candidate order against a frozen
// bound, so an approximate run is reproducible at any thread count.
TEST(ApproxFastTopKTest, SampledRunIsDeterministicAcrossThreadCounts) {
  for (uint64_t seed : {3, 17, 29}) {
    datagen::RandomSchemaOptions sopts;
    sopts.seed = seed;
    sopts.num_tables = 5;
    sopts.min_rows = 5;
    sopts.max_rows = 40;
    sopts.vocab_size = 12;
    auto db = datagen::MakeRandomSchema(sopts);
    ASSERT_TRUE(db.ok()) << db.status();
    auto index = IndexSet::Build(*db);
    ASSERT_TRUE(index.ok());
    SchemaGraph graph(*db);

    Rng rng(seed * 53 + 1);
    auto sheet = ExampleSpreadsheet::FromCells(
        RandomCells(rng, sopts.vocab_size), (*index)->tokenizer());
    ASSERT_TRUE(sheet.ok());

    SearchOptions options;
    options.k = 5;
    options.enumeration.max_tree_size = 3;
    options.enumeration.max_queries = 2000;
    options.approx_epsilon = 0.3;
    options.approx_confidence = 0.9;
    options.sample_budget = 64;  // small: force a sampling/escalation mix

    PreparedSearch prep(**index, graph, *sheet, options);
    SearchOptions serial = options;
    serial.num_threads = 1;
    SearchOptions pooled = options;
    pooled.num_threads = 4;
    SearchResult a = RunFastTopK(prep, serial);
    SearchResult b = RunFastTopK(prep, pooled);
    ExpectIdenticalApproxResults(
        a, b, "seed=" + std::to_string(seed) + " T1-vs-T4");
  }
}

// Epsilon soundness at confidence 1 (every resolved interval is exact,
// escalations fall back to exact evaluation): each returned entry's
// score must be its true score, and the approximate k-th score can
// trail the exact k-th by at most the relative slack.
TEST(ApproxFastTopKTest, RelaxedRunIsEpsilonSound) {
  const double kEpsilon = 0.25;
  for (uint64_t seed : {7, 19}) {
    datagen::RandomSchemaOptions sopts;
    sopts.seed = seed;
    sopts.num_tables = 5;
    sopts.min_rows = 5;
    sopts.max_rows = 40;
    sopts.vocab_size = 12;
    auto db = datagen::MakeRandomSchema(sopts);
    ASSERT_TRUE(db.ok()) << db.status();
    auto index = IndexSet::Build(*db);
    ASSERT_TRUE(index.ok());
    SchemaGraph graph(*db);

    Rng rng(seed * 53 + 2);
    auto sheet = ExampleSpreadsheet::FromCells(
        RandomCells(rng, sopts.vocab_size), (*index)->tokenizer());
    ASSERT_TRUE(sheet.ok());

    SearchOptions exact_opts;
    exact_opts.k = 5;
    exact_opts.enumeration.max_tree_size = 3;
    exact_opts.enumeration.max_queries = 2000;
    exact_opts.num_threads = 1;

    SearchOptions approx_opts = exact_opts;
    approx_opts.approx_epsilon = kEpsilon;
    approx_opts.approx_confidence = 1.0;
    approx_opts.sample_budget = 48;

    PreparedSearch prep(**index, graph, *sheet, exact_opts);
    SearchResult exact = RunFastTopK(prep, exact_opts);
    SearchResult approx = RunFastTopK(prep, approx_opts);
    ASSERT_EQ(exact.topk.size(), approx.topk.size());
    if (exact.topk.empty()) continue;

    const std::string label = "seed=" + std::to_string(seed);
    for (const ScoredQuery& sq : approx.topk) {
      // Find the candidate to recompute its true score.
      const CandidateQuery* cand = nullptr;
      for (const CandidateQuery& c : prep.candidates) {
        if (c.query.signature() == sq.query.signature()) {
          cand = &c;
          break;
        }
      }
      ASSERT_NE(cand, nullptr) << label;
      const double truth = ExactScore(prep.ctx, approx_opts, *cand);
      EXPECT_NEAR(sq.score, truth, kTol) << label;
      EXPECT_GE(truth, sq.interval.lo - kTol) << label;
      EXPECT_LE(truth, sq.interval.hi + kTol) << label;
    }
    const double exact_kth = exact.topk.back().score;
    const double approx_kth = approx.topk.back().score;
    EXPECT_GE(approx_kth * (1.0 + kEpsilon), exact_kth - kTol) << label;
  }
}

// --- deadline fallback --------------------------------------------------

// An already-expired deadline: the exact path truncates (the StatusOr
// entry point maps that to DeadlineExceeded), while the approximate
// path finishes every candidate in best-effort sampling mode and
// returns a complete bounded-error answer flagged approximate.
TEST(ApproxDeadlineTest, FallbackTurnsTruncationIntoApproximation) {
  datagen::RandomSchemaOptions sopts;
  sopts.seed = 23;
  sopts.num_tables = 6;
  sopts.min_rows = 10;
  sopts.max_rows = 60;
  sopts.vocab_size = 12;
  auto db = datagen::MakeRandomSchema(sopts);
  ASSERT_TRUE(db.ok()) << db.status();
  auto system = S4System::Create(*db);
  ASSERT_TRUE(system.ok());

  Rng rng(404);
  const std::vector<std::vector<std::string>> cells =
      RandomCells(rng, sopts.vocab_size);

  // Serially and on the parallel walk, whose fan-outs poll the same
  // token.
  for (int32_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SearchOptions options;
    options.k = 5;
    options.enumeration.max_tree_size = 3;
    options.enumeration.max_queries = 2000;
    options.num_threads = threads;
    options.deadline_seconds = 1e-9;  // expired before the first poll

    auto truncated = (*system)->Search(cells, options);
    ASSERT_FALSE(truncated.ok());
    EXPECT_EQ(truncated.status().code(), StatusCode::kDeadlineExceeded);

    SearchOptions fallback = options;
    fallback.approx_epsilon = 0.1;
    fallback.sample_budget = 32;
    auto approx = (*system)->Search(cells, fallback);
    ASSERT_TRUE(approx.ok()) << approx.status();
    EXPECT_FALSE(approx->interrupted);
    EXPECT_TRUE(approx->approximate);
    EXPECT_GT(approx->stats.approx_sampled, 0);
    EXPECT_FALSE(approx->topk.empty());
  }
}

}  // namespace
}  // namespace s4
