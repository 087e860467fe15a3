#ifndef S4_ENUMERATE_ENUMERATOR_H_
#define S4_ENUMERATE_ENUMERATOR_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "query/pj_query.h"
#include "schema/schema_graph.h"
#include "score/score_context.h"

namespace s4 {

// Largest EnumerationOptions::max_queries: the enumerator caps explored
// trees at max_queries * 4 + 4096, which must not overflow.
inline constexpr int64_t kMaxEnumerationQueries =
    (std::numeric_limits<int64_t>::max() - 4096) / 4;

struct EnumerationOptions {
  // Maximum number of relations |J| in a join tree (candidate-network
  // size cap, standard in keyword-search enumeration [5,12,13]).
  int32_t max_tree_size = 5;
  // Hard cap on emitted candidate queries (safety valve for adversarial
  // schemas; enumeration stops once reached). In [1, kMaxEnumerationQueries].
  int64_t max_queries = 500000;
  // Columns of the example spreadsheet to map, each a distinct column
  // index (see ValidateActiveColumns). Empty = all columns.
  // A proper subset searches that projection of the spreadsheet alone;
  // the OR enumeration below is the disjoint union of these over every
  // non-empty subset, which the differential tests check.
  std::vector<int32_t> active_columns;
  // OR-column-mapping semantics (Appendix A.3, "more direct way"):
  // candidates may map any non-empty subset of the active columns, i.e.
  // phi maps unmatched columns to ⊥. Default (false) is AND semantics.
  bool or_semantics = false;
  // Root canonical join trees at the relation with the fewest rows so
  // expensive relations sit in shareable subtrees (see DESIGN.md).
  // Disable to fall back to pure signature-based rooting (ablation).
  bool cost_aware_rooting = true;
};

// A candidate PJ query with its upper-bound score (Prop 2), produced
// during enumeration without executing any join.
struct CandidateQuery {
  PJQuery query;
  double upper_bound = 0.0;   // score̅(Q) = score_col / (1+ln(1+ln|J|))
  double column_score = 0.0;  // score_col(T | Q), exact (Eq. 4)
};

struct EnumerationStats {
  int64_t trees_explored = 0;   // partial trees popped from the queue
  int64_t trees_complete = 0;   // distinct trees with all leaves relevant
  int64_t queries_emitted = 0;
  int64_t pruned_minimality = 0;  // assignments violating Def 3(i)
  bool truncated = false;         // hit max_queries
};

struct EnumerationResult {
  std::vector<CandidateQuery> candidates;
  EnumerationStats stats;
};

// InvalidArgument unless every options.active_columns entry is a distinct
// column index of a `num_columns`-column spreadsheet. S4System::Search
// reports it; EnumerateCandidates yields no candidates for such a list.
Status ValidateActiveColumns(const EnumerationOptions& options,
                             int32_t num_columns);

// Enumerates the candidate set Q_C of minimal PJ queries for the
// spreadsheet behind `ctx` (Sec 4.1.1): grows connected subtrees of the
// schema graph (relation instances allowed, both edge orientations) whose
// leaves are relations holding candidate projection columns, then assigns
// each active spreadsheet column to a candidate column of some tree node,
// pruning assignments that violate minimality. Upper bounds come from the
// precomputed column scores, so no join is executed.
EnumerationResult EnumerateCandidates(const SchemaGraph& graph,
                                      const ScoreContext& ctx,
                                      const EnumerationOptions& options = {});

}  // namespace s4

#endif  // S4_ENUMERATE_ENUMERATOR_H_
