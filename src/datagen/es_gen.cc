#include "datagen/es_gen.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

namespace s4::datagen {

namespace {

// Drops unprojected degree-1 relations until the query is minimal
// (Prop 1): the paper's source queries project onto a random column
// subset, which can leave dangling relations. A dropped leaf may expose
// a new unbound leaf, so iterate to a fixpoint. If the root itself
// becomes an unbound degree-1 node, re-rooting is handled by PJQuery's
// canonicalization, so we only need to prune childless non-roots plus an
// unbound root with exactly one child (by promoting the child).
PJQuery MinimizeSourceQuery(JoinTree tree,
                            std::vector<ProjectionBinding> bindings) {
  while (true) {
    std::vector<bool> bound(tree.size(), false);
    for (const ProjectionBinding& b : bindings) bound[b.node] = true;

    // Childless, unbound, non-root victim?
    TreeNodeId victim = kNoNode;
    for (TreeNodeId v = tree.size() - 1; v > 0; --v) {
      if (!bound[v] && tree.ChildrenOf(v).empty()) {
        victim = v;
        break;
      }
    }
    if (victim != kNoNode) {
      std::vector<JoinTree::Node> nodes;
      std::vector<TreeNodeId> remap(tree.size(), kNoNode);
      for (TreeNodeId v = 0; v < tree.size(); ++v) {
        if (v == victim) continue;
        JoinTree::Node n = tree.node(v);
        if (n.parent != kNoNode) n.parent = remap[n.parent];
        remap[v] = static_cast<TreeNodeId>(nodes.size());
        nodes.push_back(n);
      }
      tree = JoinTree::FromNodes(std::move(nodes));
      for (ProjectionBinding& b : bindings) b.node = remap[b.node];
      continue;
    }

    // Unbound root with a single child: promote the child to root.
    if (!bound[0] && tree.size() > 1 && tree.ChildrenOf(0).size() == 1 &&
        tree.Degree(0) == 1) {
      std::vector<TreeNodeId> remap;
      TreeNodeId child = tree.ChildrenOf(0)[0];
      JoinTree sub = tree.RootedSubtree(child, &remap);
      tree = std::move(sub);
      for (ProjectionBinding& b : bindings) b.node = remap[b.node];
      continue;
    }
    break;
  }
  return PJQuery(std::move(tree), std::move(bindings));
}

}  // namespace

const char* EsBucketName(EsBucket bucket) {
  switch (bucket) {
    case EsBucket::kLow:
      return "low";
    case EsBucket::kMedium:
      return "medium";
    case EsBucket::kHigh:
      return "high";
  }
  return "?";
}

EsGenerator::EsGenerator(const IndexSet& index, const SchemaGraph& graph,
                         uint64_t seed)
    : index_(&index), graph_(&graph), rng_(seed) {}

Status EsGenerator::Init(int32_t min_text_columns, int32_t max_tree_size,
                         int32_t pool_size) {
  pool_.clear();
  const Database& db = index_->db();

  // Enumerate distinct connected join trees up to max_tree_size whose
  // nodes jointly expose enough text columns.
  std::deque<JoinTree> queue;
  std::unordered_set<std::string> seen;
  for (TableId t = 0; t < db.NumTables(); ++t) {
    JoinTree tree = JoinTree::Single(t);
    if (seen.insert(tree.UnrootedSignature({std::string()})).second) {
      queue.push_back(std::move(tree));
    }
  }
  std::vector<SourceQuery> eligible;
  int64_t explored = 0;
  while (!queue.empty() && explored < 20000) {
    JoinTree tree = std::move(queue.front());
    queue.pop_front();
    ++explored;

    SourceQuery sq;
    sq.tree = tree;
    for (TreeNodeId v = 0; v < tree.size(); ++v) {
      for (int32_t c : db.table(tree.node(v).table).TextColumnIndexes()) {
        sq.text_columns.emplace_back(v, c);
      }
    }
    if (tree.size() >= 2 &&
        static_cast<int32_t>(sq.text_columns.size()) >= min_text_columns) {
      eligible.push_back(std::move(sq));
    }

    if (tree.size() >= max_tree_size) continue;
    for (TreeNodeId v = 0; v < tree.size(); ++v) {
      for (const SchemaGraph::Incidence& inc :
           graph_->IncidentEdges(tree.node(v).table)) {
        JoinTree grown = tree;
        grown.AddChild(v, *graph_, inc.edge, inc.dir);
        std::string sig =
            grown.UnrootedSignature(std::vector<std::string>(grown.size()));
        if (seen.insert(sig).second) queue.push_back(std::move(grown));
      }
    }
  }
  if (eligible.empty()) {
    return Status::NotFound(
        "no join tree offers enough text columns; lower min_text_columns");
  }
  rng_.Shuffle(eligible);
  const size_t keep =
      std::min<size_t>(eligible.size(), static_cast<size_t>(pool_size));
  pool_.assign(std::make_move_iterator(eligible.begin()),
               std::make_move_iterator(eligible.begin() + keep));
  return Status::OK();
}

std::vector<int64_t> EsGenerator::SampleJoinRow(const JoinTree& tree) {
  const KfkSnapshot& snap = index_->snapshot();
  std::vector<int64_t> rows(tree.size(), -1);
  const TableId root_table = tree.node(0).table;
  if (snap.NumRows(root_table) == 0) return {};
  rows[0] = static_cast<int64_t>(
      rng_.Uniform(static_cast<uint64_t>(snap.NumRows(root_table))));
  for (TreeNodeId v = 1; v < tree.size(); ++v) {
    const JoinTree::Node& n = tree.node(v);
    const int64_t parent_row = rows[n.parent];
    if (n.parent_holds_fk) {
      // Parent references this node: follow the FK.
      const int32_t r = snap.FkRow(n.edge_to_parent)[parent_row];
      if (r < 0) return {};
      rows[v] = r;
    } else {
      // This node references the parent: pick among the referencing rows.
      auto [lo, hi] =
          snap.ReverseFkOf(n.edge_to_parent).RowsFor(parent_row);
      if (lo == hi) return {};
      rows[v] = lo[rng_.Uniform(static_cast<uint64_t>(hi - lo))];
    }
  }
  return rows;
}

std::string EsGenerator::FirstToken(TableId table, int64_t row,
                                    int32_t col) const {
  const Table& t = index_->db().table(table);
  if (t.IsNull(row, col)) return {};
  std::vector<std::string> tokens =
      index_->tokenizer().Tokenize(t.GetText(row, col));
  return tokens.empty() ? std::string() : tokens[0];
}

StatusOr<GeneratedEs> EsGenerator::Generate(const EsGenOptions& options) {
  if (pool_.empty()) {
    return Status::FailedPrecondition("call Init() first");
  }
  constexpr int32_t kMaxAttempts = 300;
  for (int32_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const SourceQuery& sq = pool_[rng_.Uniform(pool_.size())];
    if (static_cast<int32_t>(sq.text_columns.size()) < options.num_cols) {
      continue;
    }
    // Random column subset (paper: random n of the projected text cols).
    std::vector<std::pair<TreeNodeId, int32_t>> cols = sq.text_columns;
    rng_.Shuffle(cols);
    cols.resize(static_cast<size_t>(options.num_cols));

    // Sample m output rows and keep first tokens.
    std::vector<std::vector<std::string>> cells(
        static_cast<size_t>(options.num_rows));
    bool ok = true;
    for (int32_t m = 0; m < options.num_rows && ok; ++m) {
      std::vector<int64_t> rows = SampleJoinRow(sq.tree);
      if (rows.empty()) {
        ok = false;
        break;
      }
      for (const auto& [node, col] : cols) {
        std::string tok =
            FirstToken(sq.tree.node(node).table, rows[node], col);
        if (tok.empty()) {
          ok = false;
          break;
        }
        cells[m].push_back(std::move(tok));
      }
    }
    if (!ok) continue;

    // Relationship errors: replace random cells with the same column's
    // value from a different output row.
    const int32_t total_cells = options.num_rows * options.num_cols;
    const int32_t rel_errors =
        std::min(options.relationship_errors, total_cells);
    std::vector<int32_t> cell_order(total_cells);
    for (int32_t i = 0; i < total_cells; ++i) cell_order[i] = i;
    rng_.Shuffle(cell_order);
    int32_t injected = 0;
    for (int32_t i = 0; i < total_cells && injected < rel_errors; ++i) {
      const int32_t m = cell_order[i] / options.num_cols;
      const int32_t c = cell_order[i] % options.num_cols;
      std::vector<int64_t> other = SampleJoinRow(sq.tree);
      if (other.empty()) continue;
      const auto& [node, col] = cols[c];
      std::string tok = FirstToken(sq.tree.node(node).table, other[node], col);
      if (tok.empty() || tok == cells[m][c]) continue;
      cells[m][c] = std::move(tok);
      ++injected;
    }
    if (injected < rel_errors) continue;

    // Domain errors (extension): replace random cells with a token from
    // an unrelated table's text column.
    int32_t dom_injected = 0;
    const Database& db = index_->db();
    for (int32_t i = total_cells - 1;
         i >= 0 && dom_injected < options.domain_errors; --i) {
      const int32_t m = cell_order[i] / options.num_cols;
      const int32_t c = cell_order[i] % options.num_cols;
      const TableId home = sq.tree.node(cols[c].first).table;
      for (int32_t tries = 0; tries < 50; ++tries) {
        const TableId t =
            static_cast<TableId>(rng_.Uniform(db.NumTables()));
        if (t == home || db.table(t).NumRows() == 0) continue;
        std::vector<int32_t> tcols = db.table(t).TextColumnIndexes();
        if (tcols.empty()) continue;
        const int32_t col = tcols[rng_.Uniform(tcols.size())];
        const int64_t row = static_cast<int64_t>(
            rng_.Uniform(static_cast<uint64_t>(db.table(t).NumRows())));
        std::string tok = FirstToken(t, row, col);
        if (tok.empty() || tok == cells[m][c]) continue;
        cells[m][c] = std::move(tok);
        ++dom_injected;
        break;
      }
    }

    auto sheet = ExampleSpreadsheet::FromCells(cells, index_->tokenizer());
    if (!sheet.ok() || !sheet->Validate().ok()) continue;

    GeneratedEs out{std::move(sheet).value(), PJQuery(), 0};
    // Source query for relevance judging: tree + chosen columns,
    // minimized per Prop 1.
    std::vector<ProjectionBinding> bindings;
    for (int32_t c = 0; c < options.num_cols; ++c) {
      bindings.push_back(ProjectionBinding{c, cols[c].first, cols[c].second});
    }
    out.source_query = MinimizeSourceQuery(sq.tree, std::move(bindings));

    // Bucketing key: total row-level posting length of the sheet terms.
    for (int32_t col = 0; col < out.sheet.NumColumns(); ++col) {
      for (const std::string& term : out.sheet.ColumnTerms(col)) {
        TermId id = index_->dict().Lookup(term);
        if (id == kInvalidTermId) continue;
        const std::vector<int32_t>* gids = index_->column_index().Find(id);
        if (gids == nullptr) continue;
        for (int32_t gid : *gids) {
          out.term_frequency += index_->row_index().PostingLength(id, gid);
        }
      }
    }
    return out;
  }
  return Status::Internal("ES sampling failed repeatedly");
}

StatusOr<std::vector<GeneratedEs>> EsGenerator::GenerateMany(
    int32_t count, const EsGenOptions& options) {
  std::vector<GeneratedEs> out;
  out.reserve(static_cast<size_t>(count));
  for (int32_t i = 0; i < count; ++i) {
    auto es = Generate(options);
    if (!es.ok()) return es.status();
    out.push_back(std::move(es).value());
  }
  return out;
}

std::vector<EsBucket> EsGenerator::AssignBuckets(
    const std::vector<GeneratedEs>& es) {
  std::vector<size_t> order(es.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return es[a].term_frequency < es[b].term_frequency;
  });
  std::vector<EsBucket> buckets(es.size(), EsBucket::kLow);
  const size_t n = es.size();
  for (size_t rank = 0; rank < n; ++rank) {
    EsBucket b = EsBucket::kLow;
    if (rank >= n * 8 / 10) {
      b = EsBucket::kHigh;
    } else if (rank >= n / 2) {
      b = EsBucket::kMedium;
    }
    buckets[order[rank]] = b;
  }
  return buckets;
}

}  // namespace s4::datagen
