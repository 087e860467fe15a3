#include "enumerate/enumerator.h"

#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "index/column_ids.h"
#include "score/score_model.h"

namespace s4 {

namespace {

// Per-table candidate projection columns: table -> list of
// (es_column, column_index) pairs that some spreadsheet column may map to.
using TableTargets =
    std::unordered_map<TableId, std::vector<std::pair<int32_t, int32_t>>>;

// True if adding a child to `v` over (edge, dir) would recreate the same
// referenced row as an existing neighbor: a forward edge determines a
// single row (the one v's FK points at), so duplicating it as a second
// child — or bouncing back to the parent v was reached from — yields a
// redundant relation instance (CN pruning as in DISCOVER [13]).
bool IsRedundantExpansion(const JoinTree& tree, TreeNodeId v,
                          SchemaEdgeId edge, EdgeDir dir) {
  if (dir != EdgeDir::kForward) return false;
  const JoinTree::Node& vn = tree.node(v);
  if (vn.parent != kNoNode && vn.edge_to_parent == edge &&
      !vn.parent_holds_fk) {
    // v reached its parent through this very FK; the FK value is fixed,
    // so the "new" child would be the parent row again.
    return true;
  }
  for (TreeNodeId c : tree.ChildrenOf(v)) {
    const JoinTree::Node& cn = tree.node(c);
    if (cn.edge_to_parent == edge && cn.parent_holds_fk) return true;
  }
  return false;
}

class Assigner {
 public:
  Assigner(const JoinTree& tree, const TableTargets& targets,
           const std::vector<int32_t>& active, const ScoreContext& ctx,
           const ColumnIds& cols, const EnumerationOptions& options,
           EnumerationResult* result,
           std::unordered_set<std::string>* emitted)
      : tree_(tree),
        active_(active),
        ctx_(ctx),
        cols_(cols),
        options_(options),
        result_(result),
        emitted_(emitted) {
    // Root-choice weights: relation row counts, so the canonical root is
    // the cheapest relation and expensive relations end up in shareable
    // subtrees (Sec 5.3.2).
    root_weights_.reserve(tree.size());
    for (TreeNodeId v = 0; v < tree.size(); ++v) {
      root_weights_.push_back(
          ctx.index().snapshot().NumRows(tree.node(v).table));
    }
    // Targets of each active spreadsheet column within this tree.
    per_column_.resize(active.size());
    for (size_t a = 0; a < active.size(); ++a) {
      int32_t es_col = active[a];
      for (TreeNodeId v = 0; v < tree.size(); ++v) {
        auto it = targets.find(tree.node(v).table);
        if (it == targets.end()) continue;
        for (const auto& [col_es, col_idx] : it->second) {
          if (col_es == es_col) per_column_[a].emplace_back(v, col_idx);
        }
      }
    }
  }

  bool Feasible() const {
    if (options_.or_semantics) return true;
    for (const auto& t : per_column_) {
      if (t.empty()) return false;
    }
    return true;
  }

  void Run() {
    bindings_.clear();
    Recurse(0);
  }

 private:
  void Recurse(size_t a) {
    if (result_->stats.truncated) return;
    if (a == per_column_.size()) {
      // Under OR semantics a candidate must still map at least one
      // column (an all-unmapped query scores 0 and is never minimal).
      if (!bindings_.empty()) Emit();
      return;
    }
    for (const auto& [node, col] : per_column_[a]) {
      bindings_.push_back(ProjectionBinding{active_[a], node, col});
      Recurse(a + 1);
      bindings_.pop_back();
    }
    if (options_.or_semantics) {
      // phi(active_[a]) = ⊥: leave this spreadsheet column unmapped.
      Recurse(a + 1);
    }
  }

  void Emit() {
    // Def 3(i): every degree-<=1 node must carry a mapped column.
    std::vector<bool> bound(tree_.size(), false);
    for (const ProjectionBinding& b : bindings_) bound[b.node] = true;
    for (TreeNodeId v = 0; v < tree_.size(); ++v) {
      if (tree_.Degree(v) <= 1 && !bound[v]) {
        ++result_->stats.pruned_minimality;
        return;
      }
    }
    PJQuery q(tree_, bindings_,
              options_.cost_aware_rooting ? &root_weights_ : nullptr);
    if (!emitted_->insert(q.signature()).second) return;

    CandidateQuery cand;
    double score_col = 0.0;
    for (const ProjectionBinding& b : q.bindings()) {
      int32_t gid = cols_.Gid(
          ColumnRef{q.tree().node(b.node).table, b.column});
      score_col += ctx_.ColumnScore(b.es_column, gid);
    }
    cand.column_score = score_col;
    cand.upper_bound = UpperBoundFromColumnScore(score_col, q.tree().size());
    cand.query = std::move(q);
    result_->candidates.push_back(std::move(cand));
    if (++result_->stats.queries_emitted >= options_.max_queries) {
      result_->stats.truncated = true;
    }
  }

  const JoinTree& tree_;
  const std::vector<int32_t>& active_;
  const ScoreContext& ctx_;
  const ColumnIds& cols_;
  const EnumerationOptions& options_;
  EnumerationResult* result_;
  std::unordered_set<std::string>* emitted_;
  std::vector<int64_t> root_weights_;
  std::vector<std::vector<std::pair<TreeNodeId, int32_t>>> per_column_;
  std::vector<ProjectionBinding> bindings_;
};

}  // namespace

Status ValidateActiveColumns(const EnumerationOptions& options,
                             int32_t num_columns) {
  std::vector<bool> mapped(num_columns, false);
  for (int32_t c : options.active_columns) {
    if (c < 0 || c >= num_columns || mapped[c]) {
      return Status::InvalidArgument(StrFormat(
          "enumeration.active_columns entry %d is out of range or repeated "
          "for a %d-column spreadsheet",
          c, num_columns));
    }
    mapped[c] = true;
  }
  return Status::OK();
}

EnumerationResult EnumerateCandidates(const SchemaGraph& graph,
                                      const ScoreContext& ctx,
                                      const EnumerationOptions& options) {
  EnumerationResult result;
  // Per-column state below is indexed by these entries unchecked.
  if (!ValidateActiveColumns(options, ctx.NumEsColumns()).ok()) return result;

  std::vector<int32_t> active = options.active_columns;
  if (active.empty()) {
    for (int32_t i = 0; i < ctx.NumEsColumns(); ++i) active.push_back(i);
  }

  const ColumnIds& cols = ctx.index().column_ids();
  TableTargets targets;
  for (int32_t es_col : active) {
    for (int32_t gid : ctx.CandidateColumns(es_col)) {
      const ColumnRef& ref = cols.FromGid(gid);
      targets[ref.table_id].emplace_back(es_col, ref.column_index);
    }
  }
  if (targets.empty()) return result;

  // Breadth-first growth of connected subtrees (relation instances) whose
  // leaves are relations holding candidate columns, deduplicated by
  // unrooted canonical signature.
  std::deque<JoinTree> queue;
  std::unordered_set<std::string> seen;
  std::vector<JoinTree> complete;
  for (const auto& [table, t] : targets) {
    (void)t;
    JoinTree tree = JoinTree::Single(table);
    std::string sig = tree.UnrootedSignature({std::string()});
    if (seen.insert(sig).second) queue.push_back(std::move(tree));
  }

  // Safety valve: the number of distinct partial trees explored is capped
  // proportionally to the query cap.
  const int64_t max_trees = options.max_queries * 4 + 4096;

  while (!queue.empty()) {
    JoinTree tree = std::move(queue.front());
    queue.pop_front();
    ++result.stats.trees_explored;

    bool all_leaves_relevant = true;
    for (TreeNodeId leaf : tree.Leaves()) {
      if (targets.find(tree.node(leaf).table) == targets.end()) {
        all_leaves_relevant = false;
        break;
      }
    }
    if (all_leaves_relevant) {
      ++result.stats.trees_complete;
      complete.push_back(tree);
    }

    if (tree.size() >= options.max_tree_size ||
        result.stats.trees_explored >= max_trees) {
      continue;
    }
    for (TreeNodeId v = 0; v < tree.size(); ++v) {
      for (const SchemaGraph::Incidence& inc :
           graph.IncidentEdges(tree.node(v).table)) {
        if (IsRedundantExpansion(tree, v, inc.edge, inc.dir)) continue;
        JoinTree grown = tree;
        grown.AddChild(v, graph, inc.edge, inc.dir);
        std::string sig = grown.UnrootedSignature(
            std::vector<std::string>(grown.size()));
        if (seen.insert(sig).second) queue.push_back(std::move(grown));
      }
    }
  }

  // Column-mapping assignment per complete tree.
  std::unordered_set<std::string> emitted;
  for (const JoinTree& tree : complete) {
    if (result.stats.truncated) break;
    Assigner assigner(tree, targets, active, ctx, cols, options, &result,
                      &emitted);
    if (!assigner.Feasible()) continue;
    assigner.Run();
  }
  return result;
}

}  // namespace s4
