#ifndef S4_EXEC_EVALUATOR_H_
#define S4_EXEC_EVALUATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "cache/subquery_cache.h"
#include "common/status.h"
#include "obs/run_stats.h"
#include "query/pj_query.h"
#include "score/score_context.h"

namespace s4 {

namespace obs {
class Trace;
}  // namespace obs

struct EvalOptions {
  // Spreadsheet rows to evaluate; empty = all rows. The incremental
  // strategies (Sec 5.4) re-evaluate only updated rows.
  std::vector<int32_t> es_rows;
  // If true, intermediate node tables computed during evaluation are
  // offered to the cache under LRU replacement (heuristic 1, Sec 5.3.4).
  bool offer_to_cache = false;
  // Paper's Stage-II shortcut: drop all-zero-similarity rows from hash
  // tables. Slightly under-scores queries whose matches straddle
  // branches with unscored join rows; kept as an ablation option.
  bool drop_zero_rows = false;
  // Per-search trace sink: when set, cache probes and node-table builds
  // record spans into it. Null keeps evaluation span-free. Not owned.
  obs::Trace* trace = nullptr;
};

// Evaluates PJ queries against the in-memory indexes with the bottom-up
// hash-join plan of Appendix B.1, reusing cached sub-PJ output relations
// per Appendix B.2. Stateless across calls except for the ScoreContext
// it reads.
class Evaluator {
 public:
  explicit Evaluator(const ScoreContext& ctx) : ctx_(&ctx) {}

  // Computes score(t | Q) for every spreadsheet row t (Eq. 1-2): the
  // row-containment components whose sum is score_row (Eq. 3). Rows not
  // selected by `options.es_rows` get 0. `cache` may be nullptr.
  std::vector<double> RowScores(const PJQuery& query, SubQueryCache* cache,
                                EvalCounters* counters,
                                const EvalOptions& options = {});

  // Evaluates a sub-PJ query to its keyed output table (type-a operator
  // Evaluate for sub-PJ queries). The result is NOT added to the cache;
  // the scheduler decides that (type-b operator Add).
  std::shared_ptr<const SubQueryTable> EvaluateSub(const SubPJQuery& sub,
                                             SubQueryCache* cache,
                                             EvalCounters* counters,
                                             const EvalOptions& options = {});

  // Exposed for testing: evaluates the subtree of (tree, bindings)
  // rooted at `v`, keyed by `link`.
  std::shared_ptr<const SubQueryTable> EvalSubtree(
      const JoinTree& tree, const std::vector<ProjectionBinding>& bindings,
      TreeNodeId v, const LinkSpec& link, SubQueryCache* cache,
      EvalCounters* counters, const EvalOptions& options);

 private:
  struct Ctx;  // per-call state bundle

  std::shared_ptr<const SubQueryTable> EvalNode(const Ctx& c, TreeNodeId v,
                                          const LinkSpec& link);

  // Stage I: per-row similarity rows of node v's own bindings, built
  // directly into an arena-backed table keyed by dense row id.
  void ComputeOwnSims(const Ctx& c, TreeNodeId v, SubQueryTable* own);

  const ScoreContext* ctx_;
};

// Suffix appended to cache keys when evaluating a proper subset of the
// spreadsheet rows, so partial-row tables never collide with full ones.
std::string EsRowsCacheSuffix(const std::vector<int32_t>& es_rows);

}  // namespace s4

#endif  // S4_EXEC_EVALUATOR_H_
