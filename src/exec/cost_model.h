#ifndef S4_EXEC_COST_MODEL_H_
#define S4_EXEC_COST_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cache/subquery_cache.h"
#include "query/pj_query.h"
#include "score/score_context.h"

namespace s4 {

// cost(Q) of evaluating a (sub-)PJ query without any cache (Eq. 12):
//   sum_R |R| * d_J(R)   (hash lookups/inserts over the snapshot)
// + sum_i sum_{w in T[i]} |inv(w, J[phi(i)])|   (posting scans).
int64_t EvaluationCost(const JoinTree& tree,
                       const std::vector<ProjectionBinding>& bindings,
                       const ScoreContext& ctx);

inline int64_t EvaluationCost(const PJQuery& q, const ScoreContext& ctx) {
  return EvaluationCost(q.tree(), q.bindings(), ctx);
}

// Size estimate |A(Q')| of the materialized output relation of a sub-PJ
// query keyed by `link`, in bytes, in SubQueryTable::ByteSize()'s two
// terms. Used by the scheduler to respect the cache budget B
// (Sec 5.3.2).
struct TableBytesEstimate {
  size_t slot_bytes = 0;   // exact: the header plus 4 per domain row
  size_t arena_bytes = 0;  // upper bound: every root row scored
  size_t total() const { return slot_bytes + arena_bytes; }
};
TableBytesEstimate EstimateTableBytes(const JoinTree& tree,
                                      const LinkSpec& link,
                                      const ScoreContext& ctx);

// cost(Q, M) of evaluating Q reusing the cached output relations of its
// maximal cached sub-PJ queries (Eq. 13): cost(Q) minus their costs.
// `subs` must be Q's EnumerateSubQueries() result; `rows_suffix` is the
// ES-row-subset tag appended to cache keys (empty for full evaluation).
int64_t EvaluationCostWithCache(const PJQuery& q,
                                const std::vector<SubPJQuery>& subs,
                                const SubQueryCache& cache,
                                const ScoreContext& ctx,
                                const std::string& rows_suffix = {});

}  // namespace s4

#endif  // S4_EXEC_COST_MODEL_H_
