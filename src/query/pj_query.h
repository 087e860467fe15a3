#ifndef S4_QUERY_PJ_QUERY_H_
#define S4_QUERY_PJ_QUERY_H_

#include <string>
#include <vector>

#include "schema/join_tree.h"

namespace s4 {

// One element of the column mapping φ: example-spreadsheet column
// `es_column` is mapped to column `column` of the relation instance
// `node` of the join tree. The set of distinct (node, column) pairs is
// the projection C of Def 2.
struct ProjectionBinding {
  int32_t es_column = -1;
  TreeNodeId node = kNoNode;
  int32_t column = -1;

  bool operator==(const ProjectionBinding&) const = default;
};

// How a sub-PJ query's cached output relation is keyed, i.e. the join
// attribute that links the sub-PJ's root to the rest of an enclosing
// query (Appendix B.2). Keys are dense row ids of the link's *domain*
// relation: the root's own relation under kByPk, the relation `edge`
// references (the enclosing parent's) under kByFk.
struct LinkSpec {
  enum class Kind : uint8_t {
    kByPk,  // keyed by the root relation's primary key
    kByFk,  // keyed by the root's FK value on `edge`
  };
  Kind kind = Kind::kByPk;
  SchemaEdgeId edge = -1;            // only for kByFk
  TableId target = kInvalidTableId;  // only for kByFk: `edge`'s target

  std::string ToString() const;
};

class PJQuery;

// A sub-PJ query of some PJ query Q (Def 4) together with the bookkeeping
// the caching-evaluation scheduler needs: where it anchors inside Q, how
// its output relation is keyed, and a canonical cache key that collides
// exactly for shareable occurrences across different PJ queries.
struct SubPJQuery {
  enum class Kind : uint8_t {
    kSubtree,            // type i: full rooted subtree at a node
    kSubtreeWithParent,  // type ii: type i plus the parent of its root
  };

  Kind kind = Kind::kSubtree;
  // The sub-PJ as a standalone rooted query (restricted bindings).
  // Shared via copy; trees are tiny.
  JoinTree tree;
  std::vector<ProjectionBinding> bindings;
  LinkSpec link;
  // Anchor node within the *enclosing* query's tree: the node v of Def 4
  // (for kSubtreeWithParent this is still v, whose parent became the
  // sub-PJ root).
  TreeNodeId anchor = kNoNode;
  std::string cache_key;
};

// A (minimal) project-join query Q = (J, C, φ) for an example spreadsheet
// (Def 2/3). Always stored in canonical form: the tree is rooted at the
// canonical root with deterministically ordered children, so equal
// queries have equal signatures.
class PJQuery {
 public:
  PJQuery() = default;
  // Takes any rooted tree plus bindings (node ids relative to `tree`)
  // and canonicalizes both. `root_weights` (aligned with `tree`'s nodes,
  // typically relation row counts) biases the canonical root toward the
  // cheapest relation so expensive relations land in cacheable subtrees;
  // query *identity* (signature) is root-independent either way.
  PJQuery(JoinTree tree, std::vector<ProjectionBinding> bindings,
          const std::vector<int64_t>* root_weights = nullptr);

  const JoinTree& tree() const { return tree_; }
  const std::vector<ProjectionBinding>& bindings() const {
    return bindings_;
  }

  // Bindings attached to tree node `node`.
  std::vector<ProjectionBinding> BindingsOf(TreeNodeId node) const;

  // Distinct (node, column) projection pairs, i.e. C of Def 2.
  std::vector<std::pair<TreeNodeId, int32_t>> ProjectionColumns() const;

  // Canonical signature of (J, C, φ), independent of the rooting chosen
  // for evaluation; equal queries compare equal.
  const std::string& signature() const { return signature_; }

  // Checks Def 3(i): every degree-1 relation has a mapped column.
  bool IsMinimalShape() const;

  // Enumerates the sub-PJ queries of this query usable by the scheduler:
  // one type-i per node (the root's type-i is the query itself, keyed by
  // the root PK), one type-ii per non-root node whose parent exists.
  std::vector<SubPJQuery> EnumerateSubQueries() const;

  // Renders an executable SQL SELECT for the query; ES columns are
  // aliased A, B, C, ... in the projection (Fig 2 style).
  std::string ToSql(const Database& db) const;

  // Compact one-line description for logs and examples.
  std::string ToString(const Database& db) const;

  bool operator==(const PJQuery& other) const {
    return signature_ == other.signature_;
  }

  // Annotation strings (one per node) encoding φ, used for tree
  // canonicalization and sub-PJ cache keys.
  static std::vector<std::string> NodeAnnotations(
      const JoinTree& tree, const std::vector<ProjectionBinding>& bindings);

 private:
  JoinTree tree_;
  std::vector<ProjectionBinding> bindings_;
  std::string signature_;
};

// How node `v`'s output relation is keyed when joined from its parent in
// `tree` (the root is keyed by its primary key). Used by both sub-PJ
// enumeration and the cache-aware evaluator so cache keys agree.
LinkSpec LinkSpecFor(const JoinTree& tree, TreeNodeId v);

// The relation whose dense row ids number the slots of a table keyed by
// `link`, for a sub-PJ rooted at a node of relation `root_table`.
inline TableId LinkDomain(const LinkSpec& link, TableId root_table) {
  return link.kind == LinkSpec::Kind::kByFk ? link.target : root_table;
}

// Canonical cache key of the type-i sub-PJ query rooted at `v` of
// (tree, bindings) when keyed by `link`.
std::string SubtreeCacheKey(const JoinTree& tree,
                            const std::vector<ProjectionBinding>& bindings,
                            TreeNodeId v, const LinkSpec& link);

// Canonical cache key of the type-ii sub-PJ query: subtree at `v` plus
// v's parent, keyed by the parent's primary key. Requires v != root.
std::string SubtreeWithParentCacheKey(
    const JoinTree& tree, const std::vector<ProjectionBinding>& bindings,
    TreeNodeId v);

// Per-relation-generation stamp appended to sub-PJ cache keys so a
// cached table is reused only while every relation it was computed from
// is unchanged (live mutation invalidates per relation, not globally).
// `gens` is IndexSet::relation_gens(); an empty vector (offline builds)
// yields an empty suffix, keeping static cache keys byte-identical to
// the pre-live format. Generations of repeated relation instances are
// combined with a wrapping sum of per-node hashes (not XOR, which would
// cancel for self-joins). The first form covers every node of `tree`
// (use when the tree *is* the extracted sub-PJ tree); the second covers
// the subtree rooted at `v` within a larger candidate tree, plus v's
// parent when `include_parent` is set (type-ii keys).
std::string RelationGenSuffix(const JoinTree& tree,
                              const std::vector<uint64_t>& gens);
std::string RelationGenSuffix(const JoinTree& tree, TreeNodeId v,
                              bool include_parent,
                              const std::vector<uint64_t>& gens);

// Generation stamp of a link's domain relation when it lies outside the
// sub-PJ: a kByFk table's slots are numbered by its target's rows, and
// a live delete there renumbers them, so every cache key of a kByFk
// table ends with this. Empty for kByPk links (their domain is the
// sub-PJ root, already in RelationGenSuffix) and for offline builds.
std::string LinkGenSuffix(const LinkSpec& link,
                          const std::vector<uint64_t>& gens);

}  // namespace s4

#endif  // S4_QUERY_PJ_QUERY_H_
