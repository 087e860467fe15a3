#ifndef S4_STRATEGY_STRATEGY_H_
#define S4_STRATEGY_STRATEGY_H_

#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "approx/score_interval.h"
#include "cache/subquery_cache.h"
#include "obs/profile.h"
#include "obs/run_stats.h"
#include "common/stop_token.h"
#include "enumerate/enumerator.h"
#include "exec/evaluator.h"
#include "index/index_set.h"
#include "query/spreadsheet.h"
#include "schema/schema_graph.h"
#include "score/score_context.h"

namespace s4 {

namespace obs {
class Trace;
}  // namespace obs

class ThreadPool;
struct SearchProgress;

// End-to-end search configuration (defaults follow Table 2).
struct SearchOptions {
  int32_t k = 10;
  ScoreParams score;                       // alpha = 0.8 default
  double epsilon = 0.6;                    // batch growth factor (Alg 3)
  size_t cache_budget_bytes = 500u << 20;  // B = 500 MiB
  EnumerationOptions enumeration;
  // Evaluation ablation: paper's drop-zero-rows Stage II shortcut.
  bool drop_zero_rows = false;
  // Worker threads for Stage-II candidate evaluation, the online
  // bottleneck (Fig 5): 0 = auto (std::thread::hardware_concurrency()),
  // 1 = the exact serial legacy path. Candidate evaluations are
  // independent given the shared sub-PJ cache, so any thread count
  // returns the same top-k set and scores (Thms 3-5); order-dependent
  // bookkeeping (skipping-condition hits, cache hit/miss counts, model
  // cost) may differ from the serial path but stays deterministic for a
  // fixed thread count. See DESIGN.md "Parallel evaluation model".
  int32_t num_threads = 0;

  // --- service-layer plumbing (DESIGN.md "Service layer") -------------
  // Shared evaluation pool: when set, strategies fan out on it instead
  // of constructing a pool per call (num_threads = 1 still forces the
  // serial path; num_threads = 0 resolves to the pool's size). Not owned.
  ThreadPool* pool = nullptr;
  // Cooperative cancellation/deadline, polled at strategy batch/group
  // boundaries; on observation the run returns its partial top-k with
  // SearchResult::interrupted set. Not owned.
  const StopToken* stop = nullptr;
  // Deadline for this search in seconds (0 = none). Honored by the
  // StatusOr entry points (S4System::Search over raw cells, S4Service),
  // which arm a StopToken when `stop` is not already provided.
  double deadline_seconds = 0.0;
  // Cross-query shared sub-PJ cache (service layer): attached behind the
  // per-run FASTTOPK cache under `shared_cache_prefix`, which must make
  // keys canonical across requests (epoch + spreadsheet/score-parameter
  // fingerprint). Not owned.
  SubQueryCache* shared_cache = nullptr;
  std::string shared_cache_prefix;
  // Per-search trace sink (DESIGN.md "Observability"): when set, the
  // run records Stage-I/Stage-II/cache spans into it. Null (the
  // default) keeps the hot path span-free — a single pointer test per
  // site. Not owned; must outlive the search.
  obs::Trace* trace = nullptr;

  // --- distributed serving (DESIGN.md "Distributed serving") ----------
  // Candidate-space sharding: the run keeps only the candidates whose
  // signature fingerprint maps to `shard_index` of `shard_count`
  // (ShardOfSignature), applied right after Stage-I enumeration. Every
  // shard sees the full database and schema graph; the slices are
  // disjoint and cover the candidate space, so per-shard top-k lists
  // are exact over their slices and merge losslessly. shard_count = 1
  // (the default) keeps everything.
  int32_t shard_count = 1;
  int32_t shard_index = 0;
  // --- anytime approximate search (DESIGN.md "Anytime approximate
  // search") ------------------------------------------------------------
  // Relative slack on the k-th score: > 0 enables the FASTTOPK sampling
  // estimator, which skips candidates whose score interval upper bound
  // is at most kth * (1 + approx_epsilon) and escalates straddling
  // candidates to exact evaluation. 0 (the default) disables the
  // machinery entirely — the run is bit-identical to the exact path.
  // Only FASTTOPK honors these knobs; NAIVE/BASELINE stay exact.
  double approx_epsilon = 0.0;
  // Per-candidate confidence of a sampling-resolved score interval
  // (see JoinSampler for the coverage bound). Must be in (0, 1].
  double approx_confidence = 0.95;
  // Max join-result rows walked per candidate before the sampler gives
  // up and escalates. Must be positive.
  int64_t sample_budget = 4096;
  // Base seed of the per-candidate rng streams (each candidate draws
  // from rng_seed ^ FingerprintString(signature), so estimates are
  // reproducible across thread counts, shard slicings, and runs).
  uint64_t rng_seed = 0x5344534453445344ULL;

  // Incremental progress sink: when set, strategies call it at batch /
  // block boundaries with the current top-k snapshot and the upper
  // bound of everything not yet evaluated. Runs on the search thread
  // between fan-outs; must not re-enter the search. A single pointer
  // test per boundary when unset.
  std::function<void(const SearchProgress&)> progress;
};

// Shard owning `signature` under candidate-space sharding: stable FNV-1a
// fingerprint of the signature modulo shard_count, so the strategy-side
// filter, the coordinator, and the tests agree on slice membership
// across processes and platforms.
int32_t ShardOfSignature(std::string_view signature, int32_t shard_count);

// Rejects nonsensical configurations (non-positive k, zero byte budget,
// non-positive epsilon, negative deadline, alpha outside [0, 1], NaN
// knobs, bad approx, shard or enumeration settings) with InvalidArgument.
// Checked at the S4System / S4Service boundary and by the wire decoder,
// so bad values fail loudly instead of relying on downstream behavior.
Status ValidateSearchOptions(const SearchOptions& options);

// One ranked answer.
struct ScoredQuery {
  PJQuery query;
  double score = 0.0;        // Eq. 5
  double upper_bound = 0.0;  // Prop 2
  double row_score = 0.0;    // Eq. 3
  double column_score = 0.0; // Eq. 4
  // Bracket on the exact score: degenerate [score, score] at confidence
  // 1 for exactly evaluated hits; a sampling interval (and
  // approximate = true) when the hit was resolved by the estimator.
  ScoreInterval interval;
  bool approximate = false;
};

// Per-evaluated-query record kept for incremental sessions (Sec 5.4):
// the per-example-row containment scores score(t | Q) that can be reused
// verbatim for unchanged rows after the user edits the spreadsheet.
struct EvaluatedRecord {
  std::string signature;
  std::vector<double> row_scores;
};

struct SearchResult {
  std::vector<ScoredQuery> topk;  // descending score
  // Every counter of the run (obs/run_stats.h). The shared FinishStats
  // epilogue publishes exactly this record to the `s4_*` registry, so
  // the two reconcile field by field.
  RunStats stats;
  // The timing envelope around `stats`: the service layer stamps the
  // total/queue wall times.
  obs::QueryProfile profile;
  std::vector<EvaluatedRecord> evaluated;
  // True when the run observed SearchOptions::stop and wound down early:
  // `topk` holds the best-of-what-was-evaluated, not the proven top-k.
  bool interrupted = false;
  // True when any candidate was resolved by the sampling estimator
  // instead of exact evaluation: the top-k is correct up to the
  // per-entry intervals and the epsilon-relaxed skipping rule.
  bool approximate = false;
};

// One snapshot streamed out of a running strategy at a batch / block
// boundary (the scatter-gather partial-frame payload): the current
// best-of-evaluated top-k plus the best possible score of everything
// not yet evaluated. `remaining_upper_bound` is non-increasing across
// snapshots of one run, so a stale value observed by a remote merger is
// always a safe overestimate.
struct SearchProgress {
  std::vector<ScoredQuery> topk;  // descending score
  double remaining_upper_bound = std::numeric_limits<double>::infinity();
  // The run's counters so far. queries_enumerated is the candidates
  // enumerated for this run (the slice size under sharding), known from
  // the first snapshot on — enumeration completes before any evaluation
  // — so even an early-stopped shard reports its slice size.
  RunStats stats;
};

// Enumeration + upper-bound computation, shared by all strategies (the
// cheap phase of Fig 5). Candidates come back sorted by descending upper
// bound with deterministic tie-breaking.
struct PreparedSearch {
  ScoreContext ctx;
  std::vector<CandidateQuery> candidates;
  EnumerationStats enum_stats;
  double enum_seconds = 0.0;

  PreparedSearch(const IndexSet& index, const SchemaGraph& graph,
                 const ExampleSpreadsheet& sheet,
                 const SearchOptions& options);
};

// NAIVE: evaluates every candidate, no upper-bound pruning, no caching.
SearchResult RunNaive(PreparedSearch& prep, const SearchOptions& options);

// BASELINE (Algorithm 2): evaluates candidates in descending upper-bound
// order and stops at termination condition (7); provably evaluates
// exactly the minimal evaluation set Q_min (Thm 1).
SearchResult RunBaseline(PreparedSearch& prep, const SearchOptions& options);

// FASTTOPK (Algorithms 3-4): batch formation, critical sub-PJ caching,
// similarity-ordered group evaluation with LRU cache offers, and the
// skipping condition.
SearchResult RunFastTopK(PreparedSearch& prep, const SearchOptions& options);

// Convenience one-shot drivers (prepare + run).
SearchResult SearchNaive(const IndexSet&, const SchemaGraph&,
                         const ExampleSpreadsheet&, const SearchOptions&);
SearchResult SearchBaseline(const IndexSet&, const SchemaGraph&,
                            const ExampleSpreadsheet&, const SearchOptions&);
SearchResult SearchFastTopK(const IndexSet&, const SchemaGraph&,
                            const ExampleSpreadsheet&, const SearchOptions&);

}  // namespace s4

#endif  // S4_STRATEGY_STRATEGY_H_
