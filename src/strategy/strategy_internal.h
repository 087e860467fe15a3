#ifndef S4_STRATEGY_STRATEGY_INTERNAL_H_
#define S4_STRATEGY_STRATEGY_INTERNAL_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/topk_heap.h"
#include "strategy/strategy.h"

namespace s4::internal {

// Runtime view of one candidate inside a strategy run. The incremental
// strategies override the upper bound, restrict evaluation to the
// changed spreadsheet rows, and supply prior per-row scores for the
// unchanged rows; plain runs leave those fields empty.
struct RuntimeCandidate {
  const CandidateQuery* cand = nullptr;
  double ub = 0.0;
  std::vector<int32_t> es_rows;            // empty = evaluate all rows
  std::string suffix;                      // cache-key row-subset tag
  const std::vector<double>* prior_row_scores = nullptr;
};

// Builds the runtime list for a plain (non-incremental) run: one entry
// per candidate, sorted by descending upper bound with deterministic
// signature tie-breaking.
std::vector<RuntimeCandidate> MakePlainRuntime(
    const std::vector<CandidateQuery>& candidates);

// Sorts by (ub desc, signature asc).
void SortRuntime(std::vector<RuntimeCandidate>* rts);

// Evaluates one candidate (type-a operator on a full PJ query): runs the
// hash-join plan on the candidate's row subset, merges prior row scores,
// and produces the final Eq. 5 score plus the session record.
ScoredQuery EvaluateCandidate(PreparedSearch& prep,
                              const RuntimeCandidate& rt,
                              SubQueryCache* cache, bool offer_to_cache,
                              const SearchOptions& options, RunStats* stats,
                              std::vector<EvaluatedRecord>* records);

// Shared epilogue: fold per-run cache stats and enumeration stats into
// `result->stats` and publish that record to the metrics registry.
void FinishStats(const PreparedSearch& prep, const SubQueryCache* cache,
                 SearchResult* result);

// SearchOptions::num_threads resolved: <= 0 means auto (the injected
// pool's size when one is set, else one worker per hardware thread).
int32_t ResolveNumThreads(const SearchOptions& options);

// True once the run's stop token (if any) fired; polled at batch/group
// boundaries so the evaluation loops stay synchronization-free.
inline bool StopRequested(const SearchOptions& options) {
  return options.stop != nullptr && options.stop->ShouldStop();
}

// Owns-or-borrows the Stage-II evaluation pool: borrows
// SearchOptions::pool when injected (the service's machine-sized shared
// pool), else constructs one for this call (the legacy per-call path).
// get() is null on the serial path (resolved threads <= 1 or nothing to
// fan out).
class PoolHandle {
 public:
  PoolHandle(const SearchOptions& options, size_t work_items) {
    if (work_items <= 1 || ResolveNumThreads(options) <= 1) return;
    if (options.pool != nullptr) {
      pool_ = options.pool;
    } else {
      owned_ = std::make_unique<ThreadPool>(ResolveNumThreads(options));
      pool_ = owned_.get();
    }
  }

  ThreadPool* get() const { return pool_; }

 private:
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_ = nullptr;
};

// Everything one candidate evaluation produces, isolated for off-thread
// execution: the scored query plus per-candidate stats/record deltas.
// Workers never touch shared accumulators; outcomes are merged at join
// points in deterministic candidate order (no hot-path atomics), which
// keeps topk tie-breaking and stats reproducible at any thread count.
struct EvalOutcome {
  ScoredQuery sq;
  RunStats stats;
  std::vector<EvaluatedRecord> records;
};

// EvaluateCandidate writing into a fresh EvalOutcome (thread-safe given
// a sharded cache: all other inputs are read-only during a run).
EvalOutcome EvaluateCandidateIsolated(PreparedSearch& prep,
                                      const RuntimeCandidate& rt,
                                      SubQueryCache* cache,
                                      bool offer_to_cache,
                                      const SearchOptions& options);

// Offers a scored query to the heap, counting the offer as a bound
// update in `stats` when it raised the k-th best score (the
// termination/skipping bound of condition (7)).
inline void OfferCounted(TopKHeap<ScoredQuery>* topk, ScoredQuery sq,
                         RunStats* stats) {
  const bool was_full = topk->Full();
  const double before = topk->KthScore();
  const double score = sq.score;
  // The signature is the canonical tie-break key: boundary ties resolve
  // the same way regardless of evaluation order or shard slicing.
  std::string key = sq.query.signature();
  topk->Offer(score, std::move(sq), std::move(key));
  if (topk->Full() && (!was_full || topk->KthScore() > before)) {
    ++stats->bound_updates;
  }
}

// Folds one outcome into the run result and heap. Must be called in
// deterministic candidate order.
void MergeOutcome(EvalOutcome&& outcome, SearchResult* result,
                  TopKHeap<ScoredQuery>* topk);

// Streams one progress snapshot to SearchOptions::progress (when set):
// the current top-k plus the upper bound of everything at or past
// `next_rank` in the (ub desc)-sorted runtime list — -inf once the list
// is exhausted. A single pointer test per boundary when no sink is
// installed.
inline void EmitProgress(const SearchOptions& options,
                         const TopKHeap<ScoredQuery>& topk,
                         const std::vector<RuntimeCandidate>& rts,
                         size_t next_rank, const RunStats& stats) {
  if (!options.progress) return;
  SearchProgress p;
  p.remaining_upper_bound =
      next_rank < rts.size() ? rts[next_rank].ub
                             : -std::numeric_limits<double>::infinity();
  p.enumerated = static_cast<int64_t>(rts.size());
  p.evaluated = stats.queries_evaluated;
  p.batches = stats.batches;
  for (auto& [score, sq] : topk.SnapshotSortedDescending()) {
    (void)score;
    p.topk.push_back(std::move(sq));
  }
  options.progress(p);
}

// FASTTOPK core over an arbitrary runtime list (used by both the plain
// and the incremental drivers).
SearchResult RunFastTopKCore(PreparedSearch& prep,
                             std::vector<RuntimeCandidate> rts,
                             const SearchOptions& options);

// BASELINE core (Algorithm 2) over an arbitrary runtime list.
SearchResult RunBaselineCore(PreparedSearch& prep,
                             std::vector<RuntimeCandidate> rts,
                             const SearchOptions& options);

}  // namespace s4::internal

#endif  // S4_STRATEGY_STRATEGY_INTERNAL_H_
