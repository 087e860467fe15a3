#include "exec/evaluator.h"

#include <algorithm>

#include "common/string_util.h"
#include "index/column_ids.h"
#include "obs/trace.h"

namespace s4 {

std::string EsRowsCacheSuffix(const std::vector<int32_t>& es_rows) {
  if (es_rows.empty()) return std::string();
  std::string out = "|r";
  for (int32_t r : es_rows) out += StrFormat(",%d", r);
  return out;
}

// Per-call immutable state threaded through the recursion.
struct Evaluator::Ctx {
  const JoinTree* tree;
  const std::vector<ProjectionBinding>* bindings;
  SubQueryCache* cache;
  EvalCounters* counters;
  const EvalOptions* options;
  std::vector<int32_t> es_rows;  // resolved: never empty
  std::string rows_suffix;
  // IndexSet::relation_gens() of the epoch under evaluation; empty for
  // offline builds (gen suffixes collapse to ""). Not owned.
  const std::vector<uint64_t>* gens;
};

void Evaluator::ComputeOwnSims(const Ctx& c, TreeNodeId v,
                               SubQueryTable* own) {
  const ResolvedSpreadsheet& rs = ctx_->resolved();
  const IndexSet& index = ctx_->index();
  const bool bonus = ctx_->params().exact_match_bonus != 0.0;
  const TableId table = c.tree->node(v).table;
  std::unordered_map<int32_t, int32_t> matchcnt;
  bool fresh = false;

  for (const ProjectionBinding& b : *c.bindings) {
    if (b.node != v) continue;
    // Sized on the first binding, so a node without one allocates none.
    if (own->slots.empty()) {
      *own = SubQueryTable(index.snapshot().NumRows(table), rs.num_rows);
    }
    const int32_t gid =
        index.column_ids().Gid(ColumnRef{table, b.column});
    const std::vector<uint16_t>* lengths =
        bonus ? index.CellLengths(gid) : nullptr;
    for (int32_t t : c.es_rows) {
      const auto& groups = rs.cell_term_groups[t][b.es_column];
      if (groups.empty()) continue;
      if (bonus) matchcnt.clear();
      std::unordered_map<int32_t, double> group_best;
      for (const std::vector<TermId>& group : groups) {
        // Union semantics within a term's spelling expansions (App A.2).
        const bool single = group.size() == 1;
        if (!single) group_best.clear();
        for (TermId w : group) {
          const std::vector<Posting>* plist = index.row_index().Find(w, gid);
          if (plist == nullptr) continue;
          c.counters->postings_scanned +=
              static_cast<int64_t>(plist->size());
          const double weight = ctx_->TermWeight(w, gid);
          if (single) {
            for (const Posting& p : *plist) {
              own->UpsertScored(p.row, &fresh)[t] += weight;
              if (bonus) ++matchcnt[p.row];
            }
          } else {
            for (const Posting& p : *plist) {
              double& best = group_best[p.row];
              best = std::max(best, weight);
            }
          }
        }
        if (!single) {
          for (const auto& [row, weight] : group_best) {
            own->UpsertScored(row, &fresh)[t] += weight;
            if (bonus) ++matchcnt[row];
          }
        }
      }
      if (bonus && lengths != nullptr) {
        const int32_t cell_terms = rs.cell_num_terms[t][b.es_column];
        for (const auto& [row, cnt] : matchcnt) {
          if (cnt == cell_terms &&
              static_cast<int32_t>((*lengths)[row]) == cell_terms) {
            own->UpsertScored(row, &fresh)[t] +=
                ctx_->params().exact_match_bonus;
          }
        }
      }
    }
  }
}

std::shared_ptr<const SubQueryTable> Evaluator::EvalNode(
    const Ctx& c, TreeNodeId v, const LinkSpec& link) {
  const JoinTree& tree = *c.tree;
  const KfkSnapshot& snap = ctx_->index().snapshot();

  // Reuse the full rooted subtree at v if cached (type-i hit).
  std::string key;
  if (c.cache != nullptr) {
    key = SubtreeCacheKey(tree, *c.bindings, v, link) +
          RelationGenSuffix(tree, v, /*include_parent=*/false, *c.gens) +
          LinkGenSuffix(link, *c.gens) + c.rows_suffix;
    std::shared_ptr<const SubQueryTable> hit = c.cache->Get(key);
    if (c.options->trace != nullptr) {
      c.options->trace->AddInstant(
          "cache", "cache_probe",
          {{"kind", "subtree"}, {"hit", hit != nullptr ? "1" : "0"}});
    }
    if (hit != nullptr) {
      ++c.counters->tables_reused;
      return hit;
    }
    ++c.counters->subtree_misses;
  }

  const std::vector<TreeNodeId> children = tree.ChildrenOf(v);

  // Reuse a type-ii table (subtree of one child + this node, keyed by
  // this node's PK). It already folds this node's own similarities, so
  // only the remaining children need joining.
  std::shared_ptr<const SubQueryTable> base;
  TreeNodeId covered_child = kNoNode;
  if (c.cache != nullptr) {
    for (TreeNodeId child : children) {
      std::string key2 =
          SubtreeWithParentCacheKey(tree, *c.bindings, child) +
          RelationGenSuffix(tree, child, /*include_parent=*/true, *c.gens) +
          c.rows_suffix;
      std::shared_ptr<const SubQueryTable> hit = c.cache->Get(key2);
      if (c.options->trace != nullptr) {
        c.options->trace->AddInstant(
            "cache", "cache_probe",
            {{"kind", "subtree_with_parent"},
             {"hit", hit != nullptr ? "1" : "0"}});
      }
      if (hit != nullptr) {
        ++c.counters->tables_reused;
        base = std::move(hit);
        covered_child = child;
        break;
      }
    }
  }

  obs::SpanTimer build_span(c.options->trace, "cache", "build_table");

  // Recursively evaluate the remaining children bottom-up. A child whose
  // parent (this node) holds the FK is probed through that FK's row-id
  // column; otherwise the child's table is keyed by this node's rows.
  struct ChildProbe {
    std::shared_ptr<const SubQueryTable> table;
    const int32_t* fk_rows;  // nullptr: probe with this node's row id
  };
  std::vector<ChildProbe> probes;
  for (TreeNodeId child : children) {
    if (child == covered_child) continue;
    const JoinTree::Node& cn = tree.node(child);
    probes.push_back(ChildProbe{
        EvalNode(c, child, LinkSpecFor(tree, child)),
        cn.parent_holds_fk ? snap.FkRow(cn.edge_to_parent).data()
                           : nullptr});
  }

  // Stage I: this node's own cell similarities (folded into `base`
  // already when a type-ii table is reused).
  SubQueryTable own;
  if (base == nullptr) ComputeOwnSims(c, v, &own);

  const TableId table_id = tree.node(v).table;
  const int32_t num_es_rows = ctx_->resolved().num_rows;
  auto out = std::make_shared<SubQueryTable>(
      snap.NumRows(LinkDomain(link, table_id)), num_es_rows);
  const int32_t* link_rows = link.kind == LinkSpec::Kind::kByFk
                                 ? snap.FkRow(link.edge).data()
                                 : nullptr;

  // Full-row runs (the common plain-search case) accumulate over the
  // whole contiguous arena row, which keeps the inner loops index-free
  // and auto-vectorizable; row-subset runs iterate es_rows.
  bool full_rows = static_cast<int32_t>(c.es_rows.size()) == num_es_rows;
  if (full_rows) {
    for (int32_t t = 0; t < num_es_rows; ++t) {
      if (c.es_rows[static_cast<size_t>(t)] != t) {
        full_rows = false;
        break;
      }
    }
  }
  const size_t stride = static_cast<size_t>(num_es_rows);
  std::vector<double> sims(stride);
  int64_t lookups = 0;
  int64_t inserts = 0;

  // Stage II for one row r of this node: seed with its own (or type-ii)
  // similarities, add each child's in child order — a child that does
  // not join drops the row — then max-merge the sum into the output
  // slot of r's link key. Adding a 0.0 is a bitwise no-op on these
  // non-negative scores, so zero-score children are skipped.
  auto join_row = [&](int64_t r, const double* seed) {
    if (seed != nullptr) {
      std::copy(seed, seed + stride, sims.begin());
    } else {
      std::fill(sims.begin(), sims.end(), 0.0);
    }
    for (const ChildProbe& p : probes) {
      const int64_t slot = p.fk_rows != nullptr ? p.fk_rows[r] : r;
      if (slot < 0) return;  // NULL or dangling FK
      ++lookups;
      bool exists = false;
      const double* cs = p.table->Find(slot, &exists);
      if (!exists) return;
      if (cs == nullptr) continue;
      if (full_rows) {
        for (size_t t = 0; t < stride; ++t) sims[t] += cs[t];
      } else {
        for (int32_t t : c.es_rows) sims[t] += cs[t];
      }
    }
    const int64_t out_key = link_rows != nullptr ? link_rows[r] : r;
    if (out_key < 0) return;
    // All contributions are >= 0, so a positive final value appears
    // exactly when some seed or child contribution was positive.
    bool nonzero = false;
    if (full_rows) {
      for (size_t t = 0; t < stride && !nonzero; ++t) nonzero = sims[t] > 0.0;
    } else {
      for (int32_t t : c.es_rows) {
        if (sims[t] > 0.0) {
          nonzero = true;
          break;
        }
      }
    }
    if (nonzero) {
      bool fresh = false;
      double* row = out->UpsertScored(out_key, &fresh);
      if (fresh) {
        std::copy(sims.begin(), sims.end(), row);
      } else if (full_rows) {
        for (size_t t = 0; t < stride; ++t) row[t] = std::max(row[t], sims[t]);
      } else {
        for (int32_t t : c.es_rows) row[t] = std::max(row[t], sims[t]);
      }
      ++inserts;
    } else if (!c.options->drop_zero_rows) {
      if (out->InsertZero(out_key)) ++inserts;
    }
  };

  if (base != nullptr) {
    // The type-ii table is keyed by this node's rows: its entries are
    // exactly the rows that join, each with its seed. Each counts as
    // one slot read, like a probe.
    c.counters->rows_scanned += base->NumKeys();
    lookups += base->NumKeys();
    base->ForEachEntry(join_row);
  } else {
    const int64_t rows = snap.NumRows(table_id);
    c.counters->rows_scanned += rows;
    bool unused = false;
    for (int64_t r = 0; r < rows; ++r) {
      join_row(r, own.slots.empty() ? nullptr : own.Find(r, &unused));
    }
  }
  c.counters->hash_lookups += lookups;
  c.counters->hash_inserts += inserts;

  // Cached (and returned) tables are charged exactly what they use.
  out->ShrinkToFit();
  if (c.cache != nullptr && c.options->offer_to_cache) {
    c.cache->Add(key, out);
  }
  return out;
}

std::shared_ptr<const SubQueryTable> Evaluator::EvalSubtree(
    const JoinTree& tree, const std::vector<ProjectionBinding>& bindings,
    TreeNodeId v, const LinkSpec& link, SubQueryCache* cache,
    EvalCounters* counters, const EvalOptions& options) {
  Ctx c;
  c.tree = &tree;
  c.bindings = &bindings;
  c.cache = cache;
  c.counters = counters;
  c.options = &options;
  c.gens = &ctx_->index().relation_gens();
  c.es_rows = options.es_rows;
  if (c.es_rows.empty()) {
    for (int32_t t = 0; t < ctx_->resolved().num_rows; ++t) {
      c.es_rows.push_back(t);
    }
  } else {
    c.rows_suffix = EsRowsCacheSuffix(c.es_rows);
  }
  return EvalNode(c, v, link);
}

std::vector<double> Evaluator::RowScores(const PJQuery& query,
                                         SubQueryCache* cache,
                                         EvalCounters* counters,
                                         const EvalOptions& options) {
  std::shared_ptr<const SubQueryTable> root_table =
      EvalSubtree(query.tree(), query.bindings(), query.tree().root(),
                  LinkSpec{LinkSpec::Kind::kByPk, -1}, cache, counters,
                  options);
  std::vector<double> scores(ctx_->resolved().num_rows, 0.0);
  std::vector<int32_t> rows = options.es_rows;
  if (rows.empty()) {
    for (int32_t t = 0; t < ctx_->resolved().num_rows; ++t) rows.push_back(t);
  }
  root_table->ForEachScored([&](int64_t key, const double* sims) {
    (void)key;
    for (int32_t t : rows) scores[t] = std::max(scores[t], sims[t]);
  });
  return scores;
}

std::shared_ptr<const SubQueryTable> Evaluator::EvaluateSub(
    const SubPJQuery& sub, SubQueryCache* cache, EvalCounters* counters,
    const EvalOptions& options) {
  return EvalSubtree(sub.tree, sub.bindings, sub.tree.root(), sub.link,
                     cache, counters, options);
}

}  // namespace s4
