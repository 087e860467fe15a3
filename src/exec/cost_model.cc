#include "exec/cost_model.h"

#include <algorithm>

#include "index/column_ids.h"

namespace s4 {

int64_t EvaluationCost(const JoinTree& tree,
                       const std::vector<ProjectionBinding>& bindings,
                       const ScoreContext& ctx) {
  const KfkSnapshot& snap = ctx.index().snapshot();
  int64_t cost = 0;
  for (TreeNodeId v = 0; v < tree.size(); ++v) {
    cost += snap.NumRows(tree.node(v).table) *
            static_cast<int64_t>(tree.Degree(v));
  }
  // A single-relation query still scans its rows once.
  if (tree.size() == 1) cost += snap.NumRows(tree.node(0).table);
  for (const ProjectionBinding& b : bindings) {
    const int32_t gid = ctx.index().column_ids().Gid(
        ColumnRef{tree.node(b.node).table, b.column});
    cost += ctx.PostingCost(b.es_column, gid);
  }
  return cost;
}

TableBytesEstimate EstimateTableBytes(const JoinTree& tree,
                                      const LinkSpec& link,
                                      const ScoreContext& ctx) {
  const KfkSnapshot& snap = ctx.index().snapshot();
  const TableId root_table = tree.node(tree.root()).table;
  const size_t root_rows = static_cast<size_t>(snap.NumRows(root_table));
  const size_t domain_rows =
      static_cast<size_t>(snap.NumRows(LinkDomain(link, root_table)));
  // Mirrors SubQueryTable::ByteSize(). Every root row emits at most one
  // key, so at most min(root, domain) keys hold an arena row.
  TableBytesEstimate est;
  est.slot_bytes = sizeof(SubQueryTable) + domain_rows * sizeof(uint32_t);
  est.arena_bytes = std::min(root_rows, domain_rows) * sizeof(double) *
                    static_cast<size_t>(ctx.NumEsRows());
  return est;
}

int64_t EvaluationCostWithCache(const PJQuery& q,
                                const std::vector<SubPJQuery>& subs,
                                const SubQueryCache& cache,
                                const ScoreContext& ctx,
                                const std::string& rows_suffix) {
  const int64_t base = EvaluationCost(q, ctx);
  const std::vector<uint64_t>& gens = ctx.index().relation_gens();

  // Greedily discount maximal cached sub-PJ queries: consider larger
  // subtrees first and never double-count overlapping node sets.
  std::vector<const SubPJQuery*> sorted;
  sorted.reserve(subs.size());
  for (const SubPJQuery& s : subs) sorted.push_back(&s);
  std::sort(sorted.begin(), sorted.end(),
            [](const SubPJQuery* a, const SubPJQuery* b) {
              return a->tree.size() > b->tree.size();
            });

  std::vector<bool> covered(q.tree().size(), false);
  int64_t savings = 0;
  for (const SubPJQuery* s : sorted) {
    if (!cache.Contains(s->cache_key + RelationGenSuffix(s->tree, gens) +
                        LinkGenSuffix(s->link, gens) + rows_suffix)) {
      continue;
    }
    std::vector<TreeNodeId> nodes = q.tree().DescendantsOf(s->anchor);
    if (s->kind == SubPJQuery::Kind::kSubtreeWithParent) {
      nodes.push_back(q.tree().node(s->anchor).parent);
    }
    bool overlaps = false;
    for (TreeNodeId n : nodes) overlaps = overlaps || covered[n];
    if (overlaps) continue;
    for (TreeNodeId n : nodes) covered[n] = true;
    savings += EvaluationCost(s->tree, s->bindings, ctx);
  }
  return std::max<int64_t>(0, base - savings);
}

}  // namespace s4
