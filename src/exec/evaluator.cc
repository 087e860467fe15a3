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
  own->num_es_rows = rs.num_rows;
  std::unordered_map<int32_t, int32_t> matchcnt;
  bool fresh = false;

  for (const ProjectionBinding& b : *c.bindings) {
    if (b.node != v) continue;
    const int32_t gid = index.column_ids().Gid(
        ColumnRef{c.tree->node(v).table, b.column});
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
            // Build-side software pipelining: warm the slot lines of the
            // upsert a few postings ahead, so the table's cache misses
            // overlap the arena writes. Upsert order is unchanged.
            constexpr size_t kAhead = 8;
            const Posting* pd = plist->data();
            const size_t np = plist->size();
            for (size_t pi = 0; pi < np; ++pi) {
              if (pi + kAhead < np) own->PrefetchUpsert(pd[pi + kAhead].row);
              own->UpsertScored(pd[pi].row, &fresh)[t] += weight;
              if (bonus) ++matchcnt[pd[pi].row];
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
          c.rows_suffix;
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

  // Recursively evaluate the remaining children bottom-up.
  std::vector<std::pair<TreeNodeId, std::shared_ptr<const SubQueryTable>>>
      child_tables;
  for (TreeNodeId child : children) {
    if (child == covered_child) continue;
    child_tables.emplace_back(
        child, EvalNode(c, child, LinkSpecFor(tree, child)));
  }

  // Stage I: this node's own cell similarities (folded into `base`
  // already when a type-ii table is reused).
  SubQueryTable own;
  if (base == nullptr) ComputeOwnSims(c, v, &own);

  const TableId table_id = tree.node(v).table;
  const std::vector<int64_t>& pks = snap.Pk(table_id);
  const int32_t num_es_rows = ctx_->resolved().num_rows;

  auto out = std::make_shared<SubQueryTable>();
  out->num_es_rows = num_es_rows;

  // Row loop (Stage II), restructured around memory-level parallelism:
  // rows advance in kProbeBatch-wide lanes instead of one dependent
  // cache miss at a time. Per batch: seeds stream from the type-ii
  // table's slot walk (or batched probes of the own-sims table), each
  // remaining child subtree is probed for all live lanes at once through
  // the hash-ahead/prefetch FindBatch, and similarities accumulate into
  // one contiguous per-batch buffer before being emitted in row order.
  // Lane death (invalid FK, non-joining key) short-circuits that lane's
  // later children exactly like the serial `break`, so every counter —
  // and, because the per-row arithmetic order (seed copy, child
  // additions in child order, ordered max-merge emit) is unchanged,
  // every score bit — matches the one-row-at-a-time loop.
  static constexpr size_t kProbeBatch = FlatMap64::kBatchWidth;

  // When a type-ii table supplies the joining rows, walk its entries
  // once (key + seed row together) and resolve the pk->row ids with
  // batched, prefetched probes of the snapshot's flat index.
  std::vector<int64_t> base_rows;
  std::vector<const double*> base_seeds;
  if (base != nullptr) {
    const size_t nb = static_cast<size_t>(base->NumKeys());
    std::vector<int64_t> base_pks;
    base_pks.reserve(nb);
    base_seeds.reserve(nb);
    base->ForEachEntry([&](int64_t pk, const double* row) {
      base_pks.push_back(pk);
      base_seeds.push_back(row);
    });
    base_rows.resize(base_pks.size());
    snap.RowOfPkBatch(table_id, base_pks.data(), base_pks.size(),
                      base_rows.data());
    c.counters->hash_lookups += static_cast<int64_t>(base_rows.size());
  }
  const int64_t limit = base != nullptr
                            ? static_cast<int64_t>(base_rows.size())
                            : snap.NumRows(table_id);
  c.counters->rows_scanned += limit;

  // Full-row runs (the common plain-search case) accumulate over the
  // whole contiguous arena row, which keeps the inner loops index-free
  // and auto-vectorizable; row-subset runs iterate es_rows as before.
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
  std::vector<double> batch_sims(kProbeBatch * stride);
  int64_t lane_row[kProbeBatch];          // dense row id per lane
  bool alive[kProbeBatch];                // lane still joining
  const double* seed_rows[kProbeBatch];
  bool seed_exists[kProbeBatch];
  int64_t own_keys[kProbeBatch];
  int64_t probe_keys[kProbeBatch];        // packed live-lane probes
  size_t packed_lane[kProbeBatch];
  const double* child_rows[kProbeBatch];
  bool child_exists[kProbeBatch];
  int64_t out_keys[kProbeBatch];
  bool emit[kProbeBatch];

  for (int64_t lo = 0; lo < limit; lo += static_cast<int64_t>(kProbeBatch)) {
    const size_t lanes = static_cast<size_t>(
        std::min<int64_t>(static_cast<int64_t>(kProbeBatch), limit - lo));

    // Lane setup: dense row id + seed pointer, mirroring the serial
    // r < 0 skip. Seeds for the no-base path come from batched probes
    // of the own-sims table (keyed by dense row id); a missing row is
    // an all-zero seed, like the serial nullptr result.
    if (base != nullptr) {
      for (size_t l = 0; l < lanes; ++l) {
        const int64_t r = base_rows[static_cast<size_t>(lo) + l];
        lane_row[l] = r;
        alive[l] = r >= 0;
        seed_rows[l] = base_seeds[static_cast<size_t>(lo) + l];
      }
    } else {
      for (size_t l = 0; l < lanes; ++l) {
        lane_row[l] = lo + static_cast<int64_t>(l);
        alive[l] = true;
        own_keys[l] = lane_row[l];
      }
      own.FindBatch(own_keys, lanes, seed_rows, seed_exists);
    }

    // Seed the contiguous batch buffer.
    for (size_t l = 0; l < lanes; ++l) {
      if (!alive[l]) continue;
      double* dst = batch_sims.data() + l * stride;
      const double* seed = seed_rows[l];
      if (seed != nullptr) {
        std::copy(seed, seed + stride, dst);
      } else {
        std::fill(dst, dst + stride, 0.0);
      }
    }

    // Join with every remaining child subtree: pack the live lanes'
    // probe keys, batch-probe the child table, then stream the hits
    // into the batch buffer. The adds are unconditional — a 0.0 addend
    // is a bitwise no-op on these non-negative scores — so the
    // accumulation loop carries no data-dependent branches.
    for (const auto& [child, ctab] : child_tables) {
      const JoinTree::Node& cn = tree.node(child);
      size_t packed = 0;
      if (cn.parent_holds_fk) {
        // This node's FK references the child relation.
        const std::vector<int64_t>& fks = snap.Fk(cn.edge_to_parent);
        const std::vector<bool>& fk_valid =
            snap.FkValidColumn(cn.edge_to_parent);
        for (size_t l = 0; l < lanes; ++l) {
          if (!alive[l]) continue;
          if (!fk_valid[static_cast<size_t>(lane_row[l])]) {
            alive[l] = false;
            continue;
          }
          probe_keys[packed] = fks[static_cast<size_t>(lane_row[l])];
          packed_lane[packed++] = l;
        }
      } else {
        for (size_t l = 0; l < lanes; ++l) {
          if (!alive[l]) continue;
          probe_keys[packed] = pks[static_cast<size_t>(lane_row[l])];
          packed_lane[packed++] = l;
        }
      }
      if (packed == 0) continue;
      c.counters->hash_lookups += static_cast<int64_t>(packed);
      ctab->FindBatch(probe_keys, packed, child_rows, child_exists);
      for (size_t p = 0; p < packed; ++p) {
        const size_t l = packed_lane[p];
        if (!child_exists[p]) {
          alive[l] = false;
          continue;
        }
        const double* cs = child_rows[p];
        if (cs == nullptr) continue;
        double* dst = batch_sims.data() + l * stride;
        if (full_rows) {
          for (size_t t = 0; t < stride; ++t) dst[t] += cs[t];
        } else {
          for (int32_t t : c.es_rows) dst[t] += cs[t];
        }
      }
    }

    // Stage II-B: emit surviving lanes under their link keys. Pass 1
    // resolves the keys and warms the output table's slot lines; pass 2
    // upserts in row order, so insertion order — and with it robin-hood
    // layout, arena row ids, and growth points — matches serial.
    const std::vector<int64_t>* link_fks = nullptr;
    const std::vector<bool>* link_fk_valid = nullptr;
    if (link.kind == LinkSpec::Kind::kByFk) {
      link_fks = &snap.Fk(link.edge);
      link_fk_valid = &snap.FkValidColumn(link.edge);
    }
    for (size_t l = 0; l < lanes; ++l) {
      emit[l] = false;
      if (!alive[l]) continue;
      const int64_t r = lane_row[l];
      if (link.kind == LinkSpec::Kind::kByPk) {
        out_keys[l] = pks[static_cast<size_t>(r)];
      } else {
        if (!(*link_fk_valid)[static_cast<size_t>(r)]) continue;
        out_keys[l] = (*link_fks)[static_cast<size_t>(r)];
      }
      emit[l] = true;
      out->PrefetchUpsert(out_keys[l]);
    }
    for (size_t l = 0; l < lanes; ++l) {
      if (!emit[l]) continue;
      const double* sims = batch_sims.data() + l * stride;
      // All contributions are >= 0, so a positive final value appears
      // exactly when some seed or child contribution was positive —
      // the same predicate the serial loop tracked incrementally.
      bool nonzero = false;
      if (full_rows) {
        for (size_t t = 0; t < stride; ++t) {
          if (sims[t] > 0.0) {
            nonzero = true;
            break;
          }
        }
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
        double* row = out->UpsertScored(out_keys[l], &fresh);
        if (fresh) {
          std::copy(sims, sims + stride, row);
        } else if (full_rows) {
          for (size_t t = 0; t < stride; ++t) {
            row[t] = std::max(row[t], sims[t]);
          }
        } else {
          for (int32_t t : c.es_rows) {
            row[t] = std::max(row[t], sims[t]);
          }
        }
        ++c.counters->hash_inserts;
      } else if (!c.options->drop_zero_rows) {
        if (out->InsertZero(out_keys[l])) ++c.counters->hash_inserts;
      }
    }
  }

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
