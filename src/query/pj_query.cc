#include "query/pj_query.h"

#include <algorithm>

#include "common/string_util.h"

namespace s4 {

namespace {

// Spreadsheet column display name: A, B, ..., Z, ES26, ES27, ...
std::string EsColumnName(int32_t col) {
  if (col < 26) return std::string(1, static_cast<char>('A' + col));
  return StrFormat("ES%d", col);
}

}  // namespace

std::string LinkSpec::ToString() const {
  if (kind == Kind::kByPk) return "pk";
  return StrFormat("fk%d", edge);
}

std::vector<std::string> PJQuery::NodeAnnotations(
    const JoinTree& tree, const std::vector<ProjectionBinding>& bindings) {
  std::vector<std::vector<std::string>> per_node(tree.size());
  for (const ProjectionBinding& b : bindings) {
    per_node[b.node].push_back(StrFormat("m%d:%d", b.column, b.es_column));
  }
  std::vector<std::string> out(tree.size());
  for (int32_t i = 0; i < tree.size(); ++i) {
    std::sort(per_node[i].begin(), per_node[i].end());
    out[i] = Join(per_node[i], ",");
  }
  return out;
}

PJQuery::PJQuery(JoinTree tree, std::vector<ProjectionBinding> bindings,
                 const std::vector<int64_t>* root_weights) {
  std::vector<std::string> ann = NodeAnnotations(tree, bindings);
  std::vector<TreeNodeId> remap;
  tree_ = tree.Canonicalize(ann, &remap, root_weights);
  bindings_ = std::move(bindings);
  for (ProjectionBinding& b : bindings_) b.node = remap[b.node];
  std::sort(bindings_.begin(), bindings_.end(),
            [](const ProjectionBinding& a, const ProjectionBinding& b) {
              if (a.es_column != b.es_column) return a.es_column < b.es_column;
              if (a.node != b.node) return a.node < b.node;
              return a.column < b.column;
            });
  signature_ = tree_.UnrootedSignature(NodeAnnotations(tree_, bindings_));
}

std::vector<ProjectionBinding> PJQuery::BindingsOf(TreeNodeId node) const {
  std::vector<ProjectionBinding> out;
  for (const ProjectionBinding& b : bindings_) {
    if (b.node == node) out.push_back(b);
  }
  return out;
}

std::vector<std::pair<TreeNodeId, int32_t>> PJQuery::ProjectionColumns()
    const {
  std::vector<std::pair<TreeNodeId, int32_t>> out;
  for (const ProjectionBinding& b : bindings_) {
    out.emplace_back(b.node, b.column);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool PJQuery::IsMinimalShape() const {
  for (TreeNodeId v = 0; v < tree_.size(); ++v) {
    if (tree_.Degree(v) <= 1 && BindingsOf(v).empty()) return false;
  }
  return true;
}

namespace {

struct Extracted {
  JoinTree tree;
  std::vector<ProjectionBinding> bindings;
};

Extracted ExtractSubtree(const JoinTree& tree,
                         const std::vector<ProjectionBinding>& bindings,
                         TreeNodeId v) {
  Extracted out;
  std::vector<TreeNodeId> remap;
  out.tree = tree.RootedSubtree(v, &remap);
  for (const ProjectionBinding& b : bindings) {
    if (remap[b.node] != kNoNode) {
      out.bindings.push_back(
          ProjectionBinding{b.es_column, remap[b.node], b.column});
    }
  }
  return out;
}

Extracted ExtractWithParent(const JoinTree& tree,
                            const std::vector<ProjectionBinding>& bindings,
                            TreeNodeId v) {
  Extracted out;
  std::vector<TreeNodeId> remap;
  out.tree = tree.SubtreeWithParent(v, &remap);
  TreeNodeId parent = tree.node(v).parent;
  for (const ProjectionBinding& b : bindings) {
    TreeNodeId new_node = kNoNode;
    if (b.node == parent) {
      new_node = 0;  // the parent became the sub-PJ root
    } else if (remap[b.node] != kNoNode) {
      new_node = remap[b.node];
    }
    if (new_node != kNoNode) {
      out.bindings.push_back(
          ProjectionBinding{b.es_column, new_node, b.column});
    }
  }
  return out;
}

}  // namespace

LinkSpec LinkSpecFor(const JoinTree& tree, TreeNodeId v) {
  if (tree.node(v).parent == kNoNode) return LinkSpec{LinkSpec::Kind::kByPk, -1};
  const JoinTree::Node& n = tree.node(v);
  if (n.parent_holds_fk) return LinkSpec{LinkSpec::Kind::kByPk, -1};
  return LinkSpec{LinkSpec::Kind::kByFk, n.edge_to_parent,
                  tree.node(n.parent).table};
}

namespace {

// splitmix64 finalizer over the (table, generation) pair of one relation
// instance. Full avalanche matters: RelationGenSuffix sums these over a
// tree's nodes, and sums of weakly mixed hashes of neighbouring pairs
// can cancel, so a cached table would survive a mutation of two of its
// relations.
uint64_t GenMix(TableId table, uint64_t gen) {
  uint64_t x = gen ^ (static_cast<uint64_t>(static_cast<uint32_t>(table)) *
                      0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t NodeGen(const JoinTree& tree, TreeNodeId v,
                 const std::vector<uint64_t>& gens) {
  const TableId table = tree.node(v).table;
  const uint64_t gen =
      static_cast<size_t>(table) < gens.size() ? gens[table] : 0;
  return GenMix(table, gen);
}

}  // namespace

std::string RelationGenSuffix(const JoinTree& tree,
                              const std::vector<uint64_t>& gens) {
  if (gens.empty()) return std::string();
  uint64_t sum = 0;
  for (TreeNodeId v = 0; v < tree.size(); ++v) sum += NodeGen(tree, v, gens);
  return StrFormat("|G%016llx", static_cast<unsigned long long>(sum));
}

std::string RelationGenSuffix(const JoinTree& tree, TreeNodeId v,
                              bool include_parent,
                              const std::vector<uint64_t>& gens) {
  if (gens.empty()) return std::string();
  uint64_t sum = 0;
  for (TreeNodeId d : tree.DescendantsOf(v)) sum += NodeGen(tree, d, gens);
  if (include_parent && tree.node(v).parent != kNoNode) {
    sum += NodeGen(tree, tree.node(v).parent, gens);
  }
  return StrFormat("|G%016llx", static_cast<unsigned long long>(sum));
}

std::string LinkGenSuffix(const LinkSpec& link,
                          const std::vector<uint64_t>& gens) {
  if (gens.empty() || link.kind != LinkSpec::Kind::kByFk) return {};
  const uint64_t gen = static_cast<size_t>(link.target) < gens.size()
                           ? gens[link.target]
                           : 0;
  return StrFormat("|D%016llx", static_cast<unsigned long long>(
                                    GenMix(link.target, gen)));
}

std::string SubtreeCacheKey(const JoinTree& tree,
                            const std::vector<ProjectionBinding>& bindings,
                            TreeNodeId v, const LinkSpec& link) {
  Extracted ex = ExtractSubtree(tree, bindings, v);
  return ex.tree.RootedSignature(
             PJQuery::NodeAnnotations(ex.tree, ex.bindings)) +
         "|" + link.ToString();
}

std::string SubtreeWithParentCacheKey(
    const JoinTree& tree, const std::vector<ProjectionBinding>& bindings,
    TreeNodeId v) {
  // Keyed by the root (parent) PK, so the key format deliberately matches
  // a type-i subtree of the same shape: the materialized tables are
  // identical, letting type-i and type-ii occurrences share cache entries.
  Extracted ex = ExtractWithParent(tree, bindings, v);
  return ex.tree.RootedSignature(
             PJQuery::NodeAnnotations(ex.tree, ex.bindings)) +
         "|pk";
}

std::vector<SubPJQuery> PJQuery::EnumerateSubQueries() const {
  std::vector<SubPJQuery> out;
  for (TreeNodeId v = 0; v < tree_.size(); ++v) {
    // Type i: full rooted subtree at v.
    {
      SubPJQuery sub;
      sub.kind = SubPJQuery::Kind::kSubtree;
      sub.anchor = v;
      Extracted ex = ExtractSubtree(tree_, bindings_, v);
      sub.tree = std::move(ex.tree);
      sub.bindings = std::move(ex.bindings);
      sub.link = LinkSpecFor(tree_, v);
      sub.cache_key = SubtreeCacheKey(tree_, bindings_, v, sub.link);
      out.push_back(std::move(sub));
    }
    // Type ii: subtree at v plus v's parent (keyed by the parent's PK so
    // the parent's other children can still be joined on reuse).
    if (tree_.node(v).parent != kNoNode) {
      SubPJQuery sub;
      sub.kind = SubPJQuery::Kind::kSubtreeWithParent;
      sub.anchor = v;
      Extracted ex = ExtractWithParent(tree_, bindings_, v);
      sub.tree = std::move(ex.tree);
      sub.bindings = std::move(ex.bindings);
      sub.link = LinkSpec{LinkSpec::Kind::kByPk, -1};
      sub.cache_key = SubtreeWithParentCacheKey(tree_, bindings_, v);
      out.push_back(std::move(sub));
    }
  }
  return out;
}

std::string PJQuery::ToSql(const Database& db) const {
  std::vector<std::string> selects;
  for (const ProjectionBinding& b : bindings_) {
    const Table& t = db.table(tree_.node(b.node).table);
    selects.push_back(StrFormat("t%d.%s AS %s", b.node,
                                t.column(b.column).name.c_str(),
                                EsColumnName(b.es_column).c_str()));
  }
  std::string sql = "SELECT " + Join(selects, ", ");
  sql += "\nFROM " + db.table(tree_.node(0).table).name() + " t0";
  for (TreeNodeId v = 1; v < tree_.size(); ++v) {
    const JoinTree::Node& n = tree_.node(v);
    const Table& vt = db.table(n.table);
    const ForeignKeyDef& fk = db.foreign_keys()[n.edge_to_parent];
    const Table& pt = db.table(tree_.node(n.parent).table);
    std::string cond;
    if (n.parent_holds_fk) {
      // Parent references this node: parent.fkcol = v.pk.
      cond = StrFormat(
          "t%d.%s = t%d.%s", n.parent, fk.label.c_str(), v,
          vt.column(vt.primary_key_column()).name.c_str());
    } else {
      cond = StrFormat(
          "t%d.%s = t%d.%s", v, fk.label.c_str(), n.parent,
          pt.column(pt.primary_key_column()).name.c_str());
    }
    sql += StrFormat("\nJOIN %s t%d ON %s", vt.name().c_str(), v,
                     cond.c_str());
  }
  return sql;
}

std::string PJQuery::ToString(const Database& db) const {
  std::vector<std::string> tables;
  for (const JoinTree::Node& n : tree_.nodes()) {
    tables.push_back(db.table(n.table).name());
  }
  std::vector<std::string> maps;
  for (const ProjectionBinding& b : bindings_) {
    const Table& t = db.table(tree_.node(b.node).table);
    maps.push_back(EsColumnName(b.es_column) + "->" + t.name() + "." +
                   t.column(b.column).name);
  }
  return "PJ{" + Join(tables, "*") + "; " + Join(maps, ", ") + "}";
}

}  // namespace s4
