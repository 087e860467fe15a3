#include "strategy/strategy.h"

#include <algorithm>

#include "common/hash_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "common/topk_heap.h"
#include "exec/cost_model.h"
#include "obs/trace.h"
#include "strategy/strategy_internal.h"

namespace s4 {

Status ValidateSearchOptions(const SearchOptions& options) {
  if (options.k <= 0) {
    return Status::InvalidArgument(
        StrFormat("k must be positive, got %d", options.k));
  }
  if (options.cache_budget_bytes == 0) {
    return Status::InvalidArgument("cache_budget_bytes must be positive");
  }
  if (!(options.epsilon > 0.0)) {
    return Status::InvalidArgument(
        StrFormat("epsilon must be positive, got %f", options.epsilon));
  }
  if (!(options.deadline_seconds >= 0.0)) {
    return Status::InvalidArgument(
        StrFormat("deadline_seconds must be non-negative, got %f",
                  options.deadline_seconds));
  }
  if (!(options.score.alpha >= 0.0 && options.score.alpha <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("alpha must be in [0, 1], got %f", options.score.alpha));
  }
  if (!(options.approx_epsilon >= 0.0)) {
    return Status::InvalidArgument(
        StrFormat("approx_epsilon must be non-negative, got %f",
                  options.approx_epsilon));
  }
  if (!(options.approx_confidence > 0.0) || options.approx_confidence > 1.0) {
    return Status::InvalidArgument(
        StrFormat("approx_confidence must be in (0, 1], got %f",
                  options.approx_confidence));
  }
  if (options.sample_budget <= 0) {
    return Status::InvalidArgument(
        StrFormat("sample_budget must be positive, got %lld",
                  static_cast<long long>(options.sample_budget)));
  }
  if (options.approx_epsilon > 0.0 && options.drop_zero_rows) {
    // The sampler mirrors the evaluator's keep-zero-rows inner-join
    // semantics; the drop-zero ablation would make its lower bounds
    // unsound.
    return Status::InvalidArgument(
        "approx_epsilon > 0 is incompatible with drop_zero_rows");
  }
  if (options.shard_count < 1) {
    return Status::InvalidArgument(
        StrFormat("shard_count must be >= 1, got %d", options.shard_count));
  }
  if (options.shard_index < 0 || options.shard_index >= options.shard_count) {
    return Status::InvalidArgument(
        StrFormat("shard_index must be in [0, %d), got %d",
                  options.shard_count, options.shard_index));
  }
  const EnumerationOptions& e = options.enumeration;
  if (e.max_tree_size < 1 || e.max_queries < 1 ||
      e.max_queries > kMaxEnumerationQueries) {
    return Status::InvalidArgument(StrFormat(
        "enumeration.max_tree_size must be >= 1 and max_queries in [1, %lld], "
        "got %d and %lld",
        static_cast<long long>(kMaxEnumerationQueries), e.max_tree_size,
        static_cast<long long>(e.max_queries)));
  }
  return Status::OK();
}

int32_t ShardOfSignature(std::string_view signature, int32_t shard_count) {
  if (shard_count <= 1) return 0;
  return static_cast<int32_t>(
      FingerprintString(signature) %
      static_cast<uint64_t>(shard_count));
}

PreparedSearch::PreparedSearch(const IndexSet& index,
                               const SchemaGraph& graph,
                               const ExampleSpreadsheet& sheet,
                               const SearchOptions& options)
    : ctx(index, sheet, options.score) {
  WallTimer timer;
  obs::SpanTimer span(options.trace, "stage1", "enumerate");
  EnumerationResult result =
      EnumerateCandidates(graph, ctx, options.enumeration);
  candidates = std::move(result.candidates);
  enum_stats = result.stats;
  if (options.shard_count > 1) {
    // Candidate-space sharding: keep only this shard's slice. Done
    // before the sort so queries_enumerated reports the slice size and
    // per-shard counts sum to the single-node total.
    candidates.erase(
        std::remove_if(candidates.begin(), candidates.end(),
                       [&options](const CandidateQuery& c) {
                         return ShardOfSignature(c.query.signature(),
                                                 options.shard_count) !=
                                options.shard_index;
                       }),
        candidates.end());
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const CandidateQuery& a, const CandidateQuery& b) {
              if (a.upper_bound != b.upper_bound) {
                return a.upper_bound > b.upper_bound;
              }
              return a.query.signature() < b.query.signature();
            });
  enum_seconds = timer.ElapsedSeconds();
  if (span.enabled()) {
    span.AddArg("candidates", std::to_string(candidates.size()));
  }
}

namespace internal {

std::vector<RuntimeCandidate> MakePlainRuntime(
    const std::vector<CandidateQuery>& candidates) {
  std::vector<RuntimeCandidate> rts;
  rts.reserve(candidates.size());
  for (const CandidateQuery& c : candidates) {
    RuntimeCandidate rt;
    rt.cand = &c;
    rt.ub = c.upper_bound;
    rts.push_back(std::move(rt));
  }
  return rts;
}

void SortRuntime(std::vector<RuntimeCandidate>* rts) {
  std::sort(rts->begin(), rts->end(),
            [](const RuntimeCandidate& a, const RuntimeCandidate& b) {
              if (a.ub != b.ub) return a.ub > b.ub;
              return a.cand->query.signature() < b.cand->query.signature();
            });
}

// One candidate evaluation is the atomic unit every driver schedules
// around: stop-token polls and frozen-skip decisions happen only at the
// drivers' batch / critical-group boundaries, never inside RowScores.
// The evaluator's Stage-II batched probe loop keeps the serial emit
// order and counter values, so upper bounds, skip conditions, and
// early-termination tests see bit-identical inputs on every strategy.
ScoredQuery EvaluateCandidate(PreparedSearch& prep,
                              const RuntimeCandidate& rt,
                              SubQueryCache* cache, bool offer_to_cache,
                              const SearchOptions& options, RunStats* stats,
                              std::vector<EvaluatedRecord>* records) {
  const CandidateQuery& cand = *rt.cand;
  obs::SpanTimer span(options.trace, "stage2", "evaluate_candidate");
  if (span.enabled()) {
    span.AddArg("query", cand.query.signature());
  }
  Evaluator evaluator(prep.ctx);
  EvalOptions eopts;
  eopts.es_rows = rt.es_rows;
  eopts.offer_to_cache = offer_to_cache;
  eopts.drop_zero_rows = options.drop_zero_rows;
  eopts.trace = options.trace;

  if (cache != nullptr) {
    stats->model_cost += EvaluationCostWithCache(
        cand.query, cand.query.EnumerateSubQueries(), *cache, prep.ctx,
        rt.suffix);
  } else {
    stats->model_cost += EvaluationCost(cand.query, prep.ctx);
  }

  std::vector<double> row_scores =
      evaluator.RowScores(cand.query, cache, &stats->counters, eopts);

  // Merge prior scores for rows outside the evaluated subset.
  if (rt.prior_row_scores != nullptr && !rt.es_rows.empty()) {
    std::vector<bool> evaluated(row_scores.size(), false);
    for (int32_t t : rt.es_rows) evaluated[t] = true;
    for (size_t t = 0; t < row_scores.size(); ++t) {
      if (!evaluated[t] && t < rt.prior_row_scores->size()) {
        row_scores[t] = (*rt.prior_row_scores)[t];
      }
    }
  }

  ++stats->queries_evaluated;
  stats->query_row_evals += rt.es_rows.empty()
                                ? prep.ctx.NumEsRows()
                                : static_cast<int64_t>(rt.es_rows.size());

  ScoredQuery sq;
  sq.query = cand.query;
  sq.upper_bound = rt.ub;
  sq.column_score = cand.column_score;
  for (double v : row_scores) sq.row_score += v;
  sq.score = CombineScore(sq.row_score, sq.column_score,
                          options.score.alpha, cand.query.tree().size());
  // Exact hits carry a degenerate certain interval so downstream
  // consumers (wire, coordinator merge) read one uniform field.
  sq.interval.lo = sq.interval.hi = sq.score;
  sq.interval.confidence = 1.0;
  if (records != nullptr) {
    records->push_back(
        EvaluatedRecord{cand.query.signature(), std::move(row_scores)});
  }
  return sq;
}

void FinishStats(const PreparedSearch& prep, const SubQueryCache* cache,
                 SearchResult* result) {
  RunStats* stats = &result->stats;
  stats->queries_enumerated =
      static_cast<int64_t>(prep.candidates.size());
  stats->enum_seconds = prep.enum_seconds;
  if (cache != nullptr) stats->cache = cache->stats();

  stats->searches = 1;
  obs::PublishRunStats(*stats);
}

int32_t ResolveNumThreads(const SearchOptions& options) {
  if (options.num_threads > 0) return options.num_threads;
  if (options.pool != nullptr) return options.pool->num_threads();
  return ThreadPool::DefaultThreads();
}

EvalOutcome EvaluateCandidateIsolated(PreparedSearch& prep,
                                      const RuntimeCandidate& rt,
                                      SubQueryCache* cache,
                                      bool offer_to_cache,
                                      const SearchOptions& options) {
  EvalOutcome out;
  out.sq = EvaluateCandidate(prep, rt, cache, offer_to_cache, options,
                             &out.stats, &out.records);
  return out;
}

void MergeOutcome(EvalOutcome&& outcome, SearchResult* result,
                  TopKHeap<ScoredQuery>* topk) {
  result->stats.Add(outcome.stats);
  for (EvaluatedRecord& rec : outcome.records) {
    result->evaluated.push_back(std::move(rec));
  }
  OfferCounted(topk, std::move(outcome.sq), &result->stats);
}

SearchResult RunBaselineCore(PreparedSearch& prep,
                             std::vector<RuntimeCandidate> rts,
                             const SearchOptions& options) {
  SortRuntime(&rts);
  SearchResult result;
  WallTimer timer;
  TopKHeap<ScoredQuery> topk(static_cast<size_t>(options.k));
  // Termination condition (7): the k-th best known score strictly
  // dominates the best possible score of everything not yet evaluated
  // (strict so an exact ub == kth tie is still evaluated and resolved
  // under the canonical signature order).
  auto stop_after = [&](size_t rank) {
    return rank + 1 < rts.size() && topk.Full() &&
           topk.KthScore() > rts[rank + 1].ub;
  };
  PoolHandle pool(options, rts.size());
  if (pool.get() == nullptr) {
    for (size_t i = 0; i < rts.size(); ++i) {
      if (StopRequested(options)) {
        result.interrupted = true;
        break;
      }
      ScoredQuery sq =
          EvaluateCandidate(prep, rts[i], /*cache=*/nullptr,
                            /*offer_to_cache=*/false, options, &result.stats,
                            &result.evaluated);
      OfferCounted(&topk, std::move(sq), &result.stats);
      EmitProgress(options, topk, rts, i + 1, result.stats);
      if (stop_after(i)) break;
    }
  } else {
    // Speculative lookahead: evaluate a block of candidates in parallel,
    // then replay the outcomes in rank order applying condition (7)
    // exactly as the serial scan would. Outcomes past the stop point are
    // dropped unmerged, so the top-k, session records, and stats —
    // including the Thm-1 minimal evaluation count — are identical to
    // the serial path at any thread count; the only speculative waste is
    // at most one block beyond the stopping rank.
    const size_t block = 2 * static_cast<size_t>(ResolveNumThreads(options));
    bool stop = false;
    for (size_t lo = 0; lo < rts.size() && !stop; lo += block) {
      if (StopRequested(options)) {
        result.interrupted = true;
        break;
      }
      const size_t hi = std::min(rts.size(), lo + block);
      std::vector<EvalOutcome> outcomes(hi - lo);
      pool.get()->ParallelFor(hi - lo, [&](size_t j) {
        outcomes[j] = EvaluateCandidateIsolated(
            prep, rts[lo + j], /*cache=*/nullptr,
            /*offer_to_cache=*/false, options);
      });
      for (size_t j = 0; j < outcomes.size() && !stop; ++j) {
        MergeOutcome(std::move(outcomes[j]), &result, &topk);
        EmitProgress(options, topk, rts, lo + j + 1, result.stats);
        stop = stop_after(lo + j);
      }
    }
  }
  for (auto& [score, sq] : topk.TakeSortedDescending()) {
    (void)score;
    result.topk.push_back(std::move(sq));
  }
  result.stats.eval_seconds = timer.ElapsedSeconds();
  FinishStats(prep, nullptr, &result);
  return result;
}

}  // namespace internal

SearchResult RunNaive(PreparedSearch& prep, const SearchOptions& options) {
  SearchResult result;
  WallTimer timer;
  TopKHeap<ScoredQuery> topk(static_cast<size_t>(options.k));
  std::vector<internal::RuntimeCandidate> rts =
      internal::MakePlainRuntime(prep.candidates);
  internal::PoolHandle pool(options, rts.size());
  if (pool.get() == nullptr) {
    for (size_t i = 0; i < rts.size(); ++i) {
      if (internal::StopRequested(options)) {
        result.interrupted = true;
        break;
      }
      ScoredQuery sq =
          internal::EvaluateCandidate(prep, rts[i], /*cache=*/nullptr,
                                      /*offer_to_cache=*/false, options,
                                      &result.stats, &result.evaluated);
      internal::OfferCounted(&topk, std::move(sq), &result.stats);
      internal::EmitProgress(options, topk, rts, i + 1, result.stats);
    }
  } else {
    // Cache-less evaluations are fully independent: fan blocks out to
    // the pool (block boundaries double as stop-token poll points) and
    // merge in candidate order, which reproduces the serial result
    // bit-for-bit (heap tie-breaking included).
    const size_t block =
        8 * static_cast<size_t>(internal::ResolveNumThreads(options));
    for (size_t lo = 0; lo < rts.size(); lo += block) {
      if (internal::StopRequested(options)) {
        result.interrupted = true;
        break;
      }
      const size_t hi = std::min(rts.size(), lo + block);
      std::vector<internal::EvalOutcome> outcomes(hi - lo);
      pool.get()->ParallelFor(hi - lo, [&](size_t j) {
        outcomes[j] = internal::EvaluateCandidateIsolated(
            prep, rts[lo + j], /*cache=*/nullptr, /*offer_to_cache=*/false,
            options);
      });
      for (internal::EvalOutcome& o : outcomes) {
        internal::MergeOutcome(std::move(o), &result, &topk);
      }
      internal::EmitProgress(options, topk, rts, hi, result.stats);
    }
  }
  for (auto& [score, sq] : topk.TakeSortedDescending()) {
    (void)score;
    result.topk.push_back(std::move(sq));
  }
  result.stats.eval_seconds = timer.ElapsedSeconds();
  internal::FinishStats(prep, nullptr, &result);
  return result;
}

SearchResult RunBaseline(PreparedSearch& prep, const SearchOptions& options) {
  return internal::RunBaselineCore(
      prep, internal::MakePlainRuntime(prep.candidates), options);
}

SearchResult RunFastTopK(PreparedSearch& prep, const SearchOptions& options) {
  return internal::RunFastTopKCore(
      prep, internal::MakePlainRuntime(prep.candidates), options);
}

SearchResult SearchNaive(const IndexSet& index, const SchemaGraph& graph,
                         const ExampleSpreadsheet& sheet,
                         const SearchOptions& options) {
  PreparedSearch prep(index, graph, sheet, options);
  return RunNaive(prep, options);
}

SearchResult SearchBaseline(const IndexSet& index, const SchemaGraph& graph,
                            const ExampleSpreadsheet& sheet,
                            const SearchOptions& options) {
  PreparedSearch prep(index, graph, sheet, options);
  return RunBaseline(prep, options);
}

SearchResult SearchFastTopK(const IndexSet& index, const SchemaGraph& graph,
                            const ExampleSpreadsheet& sheet,
                            const SearchOptions& options) {
  PreparedSearch prep(index, graph, sheet, options);
  return RunFastTopK(prep, options);
}

}  // namespace s4
