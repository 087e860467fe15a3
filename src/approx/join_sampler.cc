#include "approx/join_sampler.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/hash_util.h"
#include "common/rng.h"
#include "index/column_ids.h"
#include "obs/trace.h"
#include "score/score_model.h"

namespace s4::approx {

namespace {

// Packs an (es_col, gid) pair the same way ScoreContext does.
uint64_t PairKey(int32_t es_col, int32_t gid) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(es_col)) << 32) |
         static_cast<uint32_t>(gid);
}

// Work caps, scaled with the sample budget so a bigger budget buys a
// bigger search but a hub-heavy candidate still escalates instead of
// devolving into a full exact evaluation done badly.
int64_t DiscoveryCap(int64_t sample_budget) {
  return std::max<int64_t>(int64_t{1} << 18, sample_budget * 64);
}
int64_t WalkCap(int64_t sample_budget) {
  return std::max<int64_t>(int64_t{1} << 16, sample_budget * 64);
}

// Cost gate for the non-deadline path: discovery + walking together may
// spend at most this fraction of the exact evaluator's work proxy (the
// summed row counts of the tree's tables — Stage II scans every row of
// every joined table to build its hash tables). Beyond it the candidate
// escalates, bounding the overhead of a failed sampling attempt at ~25%
// of the evaluation it falls back to, while candidates whose support is
// genuinely small relative to their tables resolve at a fraction of the
// exact cost. The floor keeps tiny candidates sampleable outright.
constexpr int64_t kCostGateFloor = 1024;
constexpr int64_t kCostGateDivisor = 4;

}  // namespace

struct JoinSampler::WalkCtx {
  const JoinTree* tree;
  const KfkSnapshot* snap;
  // Per tree node: the pair-sims tables of its bindings (in binding
  // order, so the accumulation order matches ComputeOwnSims) and its
  // children (storage order, matching the evaluator's child_tables).
  std::vector<std::vector<const PairSims*>> node_pairs;
  std::vector<std::vector<TreeNodeId>> children;
  size_t stride;
  // Two stride-wide buffers per tree level: one receives a child
  // subtree's scores, one holds the running max over a reverse-fk
  // child's rows. Reused across rows of a fan-out, so a walk allocates
  // nothing per visited row.
  double* scratch;
};

JoinSampler::JoinSampler(const ScoreContext& ctx, const ApproxParams& params)
    : ctx_(&ctx), params_(params) {
  for (int32_t es_col = 0; es_col < ctx.NumEsColumns(); ++es_col) {
    for (int32_t gid : ctx.CandidateColumns(es_col)) {
      PairSims& pair = pairs_[PairKey(es_col, gid)];
      BuildPair(es_col, gid, &pair);
    }
  }
}

// Mirrors Evaluator::ComputeOwnSims for a single binding across every
// ES row: identical postings, weights, spelling-group union semantics,
// and exact-match bonus, so a walked row's own similarities equal what
// the exact Stage-II row loop seeds its lanes with.
void JoinSampler::BuildPair(int32_t es_col, int32_t gid,
                            PairSims* out) const {
  const ResolvedSpreadsheet& rs = ctx_->resolved();
  const IndexSet& index = ctx_->index();
  const bool bonus = ctx_->params().exact_match_bonus != 0.0;
  const size_t stride = static_cast<size_t>(rs.num_rows);
  const std::vector<uint16_t>* lengths =
      bonus ? index.CellLengths(gid) : nullptr;

  auto slot_of = [&](int64_t row) -> double* {
    auto [it, fresh] = out->slot.try_emplace(
        row, static_cast<uint32_t>(out->slot.size()));
    if (fresh) out->sims.resize(out->slot.size() * stride, 0.0);
    return out->sims.data() + it->second * stride;
  };

  std::unordered_map<int64_t, int32_t> matchcnt;
  std::unordered_map<int64_t, double> group_best;
  for (int32_t t = 0; t < rs.num_rows; ++t) {
    const auto& groups = rs.cell_term_groups[t][es_col];
    if (groups.empty()) continue;
    if (bonus) matchcnt.clear();
    for (const std::vector<TermId>& group : groups) {
      const bool single = group.size() == 1;
      if (!single) group_best.clear();
      for (TermId w : group) {
        const std::vector<Posting>* plist = index.row_index().Find(w, gid);
        if (plist == nullptr) continue;
        const double weight = ctx_->TermWeight(w, gid);
        if (single) {
          for (const Posting& p : *plist) {
            slot_of(p.row)[t] += weight;
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
          slot_of(row)[t] += weight;
          if (bonus) ++matchcnt[row];
        }
      }
    }
    if (bonus && lengths != nullptr) {
      const int32_t cell_terms = rs.cell_num_terms[t][es_col];
      for (const auto& [row, cnt] : matchcnt) {
        if (cnt == cell_terms &&
            static_cast<int32_t>((*lengths)[row]) == cell_terms) {
          slot_of(row)[t] += ctx_->params().exact_match_bonus;
        }
      }
    }
  }

  out->rows_ascending.reserve(out->slot.size());
  for (const auto& [row, slot] : out->slot) {
    (void)slot;
    out->rows_ascending.push_back(row);
  }
  std::sort(out->rows_ascending.begin(), out->rows_ascending.end());

  // Per-ES-row max own-sim over all matched rows: the building block of
  // the admissible per-root-row bound the best-first resolver sorts by.
  out->max_sims.assign(stride, 0.0);
  for (size_t s = 0; s < out->slot.size(); ++s) {
    const double* sims = out->sims.data() + s * stride;
    for (size_t t = 0; t < stride; ++t) {
      out->max_sims[t] = std::max(out->max_sims[t], sims[t]);
    }
  }
}

const JoinSampler::PairSims* JoinSampler::FindPair(int32_t es_col,
                                                   int32_t gid) const {
  auto it = pairs_.find(PairKey(es_col, gid));
  return it == pairs_.end() ? nullptr : &it->second;
}

bool JoinSampler::DiscoverSupport(const CandidateQuery& cand,
                                  int64_t* work_budget,
                                  std::vector<int64_t>* support) const {
  const JoinTree& tree = cand.query.tree();
  const KfkSnapshot& snap = ctx_->index().snapshot();
  const ColumnIds& cols = ctx_->index().column_ids();
  int64_t& work_left = *work_budget;

  // Matched rows per binding node (union over that node's bindings).
  // Seeding is charged against the budget up front: a hub-heavy binding
  // with thousands of matched rows should escalate for the price of a
  // size lookup, not after materializing the hash sets.
  std::vector<std::unordered_set<int64_t>> seeds(tree.size());
  for (const ProjectionBinding& b : cand.query.bindings()) {
    const int32_t gid =
        cols.Gid(ColumnRef{tree.node(b.node).table, b.column});
    const PairSims* pair = FindPair(b.es_column, gid);
    if (pair == nullptr) continue;
    // Check before subtracting: a failed discovery should leave the
    // budget it did not spend to whoever tries next.
    if (static_cast<int64_t>(pair->rows_ascending.size()) > work_left) {
      return false;
    }
    work_left -= static_cast<int64_t>(pair->rows_ascending.size());
    seeds[b.node].insert(pair->rows_ascending.begin(),
                         pair->rows_ascending.end());
  }

  std::unordered_set<int64_t> roots;
  std::vector<int64_t> frontier;
  std::vector<int64_t> next;
  for (TreeNodeId u = 0; u < tree.size(); ++u) {
    if (seeds[u].empty()) continue;
    frontier.assign(seeds[u].begin(), seeds[u].end());
    std::sort(frontier.begin(), frontier.end());
    // Climb the parent chain: each step turns rows of the current node
    // into the parent rows they join with, root-ward only (sibling
    // subtrees are resolved by the walk, not here — the support is a
    // superset of the positively-scoring roots either way).
    TreeNodeId v = u;
    while (v != tree.root()) {
      const JoinTree::Node& n = tree.node(v);
      next.clear();
      if (n.parent_holds_fk) {
        // The parent's fk references this node: reverse-fk fan-in.
        const KfkSnapshot::ReverseFkIndex& rev =
            snap.ReverseFkOf(n.edge_to_parent);
        for (int64_t row : frontier) {
          if (--work_left < 0) return false;
          auto [lo, hi] = rev.RowsFor(row);
          for (const uint32_t* p = lo; p != hi; ++p) {
            if (--work_left < 0) return false;
            next.push_back(static_cast<int64_t>(*p));
          }
        }
      } else {
        // This node holds the fk: at most one parent row per row.
        const std::vector<int32_t>& fk_rows = snap.FkRow(n.edge_to_parent);
        for (int64_t row : frontier) {
          if (--work_left < 0) return false;
          const int32_t prow = fk_rows[static_cast<size_t>(row)];
          if (prow >= 0) next.push_back(prow);
        }
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      frontier.swap(next);
      if (frontier.empty()) break;
      v = n.parent;
    }
    if (v == tree.root()) {
      roots.insert(frontier.begin(), frontier.end());
    }
  }

  support->assign(roots.begin(), roots.end());
  std::sort(support->begin(), support->end());
  return true;
}

bool JoinSampler::WalkRow(const WalkCtx& w, TreeNodeId v, int64_t row,
                          int32_t depth, double* out, int64_t* visits_left,
                          bool* capped) const {
  if (--*visits_left < 0) {
    *capped = true;
    return false;
  }
  const size_t stride = w.stride;
  std::fill(out, out + stride, 0.0);
  for (const PairSims* pair : w.node_pairs[v]) {
    if (pair == nullptr) continue;
    const double* sims = pair->Find(row, stride);
    if (sims == nullptr) continue;
    for (size_t t = 0; t < stride; ++t) out[t] += sims[t];
  }
  const KfkSnapshot& snap = *w.snap;
  double* cbuf = w.scratch + static_cast<size_t>(2 * depth) * stride;
  double* best = cbuf + stride;
  for (TreeNodeId child : w.children[v]) {
    const JoinTree::Node& cn = w.tree->node(child);
    if (cn.parent_holds_fk) {
      // This node's fk points at the child: zero or one joining row,
      // and a NULL or dangling fk kills the row exactly like the
      // evaluator's.
      const int32_t crow =
          snap.FkRow(cn.edge_to_parent)[static_cast<size_t>(row)];
      if (crow < 0) return false;
      if (!WalkRow(w, child, crow, depth + 1, cbuf, visits_left, capped)) {
        return false;
      }
      for (size_t t = 0; t < stride; ++t) out[t] += cbuf[t];
    } else {
      // The child holds the fk: max-merge over the fan-in, mirroring
      // the kByFk-keyed table the evaluator would have probed. A child
      // row that joins but scores zero still counts as alive (the
      // evaluator's InsertZero row), so inner-join semantics match
      // drop_zero_rows = false exactly.
      const KfkSnapshot::ReverseFkIndex& rev =
          snap.ReverseFkOf(cn.edge_to_parent);
      auto [lo, hi] = rev.RowsFor(row);
      bool any = false;
      for (const uint32_t* p = lo; p != hi; ++p) {
        if (!WalkRow(w, child, static_cast<int64_t>(*p), depth + 1, cbuf,
                     visits_left, capped)) {
          if (*capped) return false;
          continue;
        }
        if (!any) {
          std::copy(cbuf, cbuf + stride, best);
          any = true;
        } else {
          for (size_t t = 0; t < stride; ++t) {
            best[t] = std::max(best[t], cbuf[t]);
          }
        }
      }
      if (!any) return false;
      for (size_t t = 0; t < stride; ++t) out[t] += best[t];
    }
  }
  return true;
}

bool JoinSampler::BestFirstResolve(const WalkCtx& w,
                                   const std::vector<int64_t>& support,
                                   bool full_support, int64_t* work_budget,
                                   CandidateEstimate* est) const {
  const size_t stride = w.stride;
  const size_t K = support.size();
  // Bound construction touches every support row (potential, sort,
  // suffix maxima): charge it before doing it.
  if (static_cast<int64_t>(K) > *work_budget) return false;
  *work_budget -= static_cast<int64_t>(K);

  // Per-ES-row cap on what any root row's subtree can add: each
  // non-root node contributes at most the max own-sim of each of its
  // bindings (max of a sum <= sum of maxes, and a dead join adds 0).
  std::vector<double> subtree_cap(stride, 0.0);
  for (TreeNodeId v = 0; v < w.tree->size(); ++v) {
    if (v == w.tree->root()) continue;
    for (const PairSims* pair : w.node_pairs[v]) {
      if (pair == nullptr) continue;
      for (size_t t = 0; t < stride; ++t) {
        subtree_cap[t] += pair->max_sims[t];
      }
    }
  }

  // Admissible potential of each support row: its own root sims plus
  // the subtree cap.
  std::vector<double> pot(K * stride);
  std::vector<double> potsum(K, 0.0);
  for (size_t i = 0; i < K; ++i) {
    double* p = pot.data() + i * stride;
    std::copy(subtree_cap.begin(), subtree_cap.end(), p);
    for (const PairSims* pair : w.node_pairs[w.tree->root()]) {
      if (pair == nullptr) continue;
      const double* sims = pair->Find(support[i], stride);
      if (sims == nullptr) continue;
      for (size_t t = 0; t < stride; ++t) p[t] += sims[t];
    }
    for (size_t t = 0; t < stride; ++t) potsum[i] += p[t];
  }

  // Highest potential first; row id breaks ties so the walk order — and
  // with it the estimate — is deterministic.
  std::vector<uint32_t> order(K);
  for (size_t i = 0; i < K; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (potsum[a] != potsum[b]) return potsum[a] > potsum[b];
    return support[a] < support[b];
  });

  // suffix[i * stride + t]: max potential among rows not yet walked
  // when the walk is about to visit order[i]. Without the full support
  // set, undiscovered rows (no root binding match) are forever
  // unwalked and bounded by the subtree cap, so it floors the suffix.
  std::vector<double> suffix((K + 1) * stride, 0.0);
  if (!full_support) {
    std::copy(subtree_cap.begin(), subtree_cap.end(),
              suffix.data() + K * stride);
  }
  for (size_t i = K; i-- > 0;) {
    const double* p = pot.data() + static_cast<size_t>(order[i]) * stride;
    const double* nxt = suffix.data() + (i + 1) * stride;
    double* s = suffix.data() + i * stride;
    for (size_t t = 0; t < stride; ++t) s[t] = std::max(nxt[t], p[t]);
  }

  const int64_t visits_init =
      std::min(WalkCap(params_.sample_budget), *work_budget);
  int64_t visits_left = visits_init;
  std::vector<double> lo_t(stride, 0.0);
  std::vector<double> row_buf(stride, 0.0);
  bool capped = false;
  bool proven = false;
  int64_t walked = 0;
  // If the proof hasn't fired after this many rows the potentials are
  // too flat for it to fire soon: give up while the attempt is still
  // cheap relative to the exact evaluation the caller falls back to.
  constexpr int64_t kRowCap = 64;
  for (size_t i = 0; i <= K; ++i) {
    const double* rem = suffix.data() + i * stride;
    bool dominated = true;
    for (size_t t = 0; t < stride; ++t) {
      if (lo_t[t] < rem[t]) {
        dominated = false;
        break;
      }
    }
    if (dominated) {
      proven = true;
      break;
    }
    if (i == K || static_cast<int64_t>(i) >= kRowCap) break;
    const bool alive =
        WalkRow(w, w.tree->root(), support[order[i]], 0, row_buf.data(),
                &visits_left, &capped);
    if (capped) break;
    ++walked;
    if (!alive) continue;
    for (size_t t = 0; t < stride; ++t) {
      lo_t[t] = std::max(lo_t[t], row_buf[t]);
    }
  }
  *work_budget -= visits_init - visits_left;
  if (!proven) return false;

  // The dominance proof fired: the per-ES-row maxima are the exact row
  // scores.
  est->interval.sampled = walked;
  double row_lo = 0.0;
  for (double v : lo_t) row_lo += v;
  est->row_score_lo = row_lo;
  est->row_scores = std::move(lo_t);
  return true;
}

CandidateEstimate JoinSampler::Estimate(const CandidateQuery& cand,
                                        bool best_effort,
                                        obs::Trace* trace) const {
  obs::SpanTimer span(trace, "approx", "sample_candidate");
  if (span.enabled()) {
    span.AddArg("query", cand.query.signature());
  }

  const JoinTree& tree = cand.query.tree();
  const int32_t T = ctx_->NumEsRows();
  const double alpha = ctx_->params().alpha;
  const double col = cand.column_score;
  const int32_t size = tree.size();

  CandidateEstimate est;
  est.interval.hi = cand.upper_bound;
  est.interval.confidence = 1.0;
  // Even with nothing sampled, row_score >= 0 certainly holds.
  est.row_score_lo = 0.0;
  est.interval.lo = CombineScore(0.0, col, alpha, size);

  // Exact-evaluation work proxy: Stage II scans every row of every
  // joined table to build its hash tables, so the summed table sizes
  // approximate what escalating costs. Outside the deadline fallback,
  // discovery and walking share a budget capped at a fraction of that
  // proxy — sampling either beats exact evaluation by a margin or gets
  // out of its way early. Best-effort keeps the generous global caps:
  // the bracket is the only answer the caller will get.
  int64_t cost_proxy = 0;
  for (TreeNodeId v = 0; v < tree.size(); ++v) {
    cost_proxy += ctx_->index().db().table(tree.node(v).table).NumRows();
  }
  int64_t work_left =
      best_effort
          ? DiscoveryCap(params_.sample_budget)
          : std::min(DiscoveryCap(params_.sample_budget),
                     std::max(kCostGateFloor, cost_proxy / kCostGateDivisor));

  WalkCtx w;
  w.tree = &tree;
  w.snap = &ctx_->index().snapshot();
  w.stride = static_cast<size_t>(T);
  w.node_pairs.resize(static_cast<size_t>(tree.size()));
  w.children.resize(static_cast<size_t>(tree.size()));
  const ColumnIds& cols = ctx_->index().column_ids();
  for (const ProjectionBinding& b : cand.query.bindings()) {
    const int32_t gid =
        cols.Gid(ColumnRef{tree.node(b.node).table, b.column});
    w.node_pairs[b.node].push_back(FindPair(b.es_column, gid));
  }
  for (TreeNodeId v = 0; v < tree.size(); ++v) {
    w.children[v] = tree.ChildrenOf(v);
  }
  std::vector<double> scratch(
      static_cast<size_t>(2 * (tree.size() + 1)) * w.stride, 0.0);
  w.scratch = scratch.data();

  // The best-first resolver gets its own allowance, decoupled from what
  // discovery spent: its failure mode is bounded by construction (one
  // pass over the candidate rows plus a capped number of walks), and a
  // success saves an entire exact evaluation, so it is worth a fresh
  // fraction of the work proxy even when discovery ate the shared gate.
  const int64_t bf_allowance =
      std::max(kCostGateFloor, cost_proxy / 2);
  auto best_first_exact = [&](const std::vector<int64_t>& rows,
                              bool full_support) -> bool {
    int64_t budget = std::max(work_left, bf_allowance);
    if (!BestFirstResolve(w, rows, full_support, &budget, &est)) return false;
    est.interval.lo = est.interval.hi =
        CombineScore(est.row_score_lo, col, alpha, size);
    est.interval.confidence = 1.0;
    if (span.enabled()) {
      span.AddArg("support", std::to_string(est.interval.support));
      span.AddArg("sampled", std::to_string(est.interval.sampled));
      span.AddArg("outcome", "best_first_exact");
    }
    return true;
  };

  std::vector<int64_t> support;
  if (!DiscoverSupport(cand, &work_left, &support)) {
    // Even mapping out the support is too expensive for this candidate
    // (hub-heavy bindings). One more shot, without discovery: walk the
    // root-matched rows best-potential-first and treat every
    // undiscovered row as bounded by the subtree cap — on quantized
    // similarity distributions the top row often attains the cap, which
    // proves the exact score from a handful of walks.
    if (!best_effort) {
      std::vector<int64_t> root_rows;
      for (const PairSims* pair : w.node_pairs[tree.root()]) {
        if (pair == nullptr) continue;
        root_rows.insert(root_rows.end(), pair->rows_ascending.begin(),
                         pair->rows_ascending.end());
      }
      std::sort(root_rows.begin(), root_rows.end());
      root_rows.erase(std::unique(root_rows.begin(), root_rows.end()),
                      root_rows.end());
      est.interval.support = static_cast<int64_t>(root_rows.size());
      if (best_first_exact(root_rows, /*full_support=*/false)) {
        return est;
      }
      est.interval.support = 0;
    }
    est.escalate = true;
    if (span.enabled()) span.AddArg("outcome", "discovery_capped");
    return est;
  }
  const int64_t K = static_cast<int64_t>(support.size());
  est.interval.support = K;

  if (K == 0) {
    // No root row can score: the row score is exactly 0.
    est.interval.lo = est.interval.hi = CombineScore(0.0, col, alpha, size);
    est.row_scores.assign(static_cast<size_t>(T), 0.0);
    if (span.enabled()) span.AddArg("outcome", "empty_support");
    return est;
  }

  // Coverage target: a uniform prefix of fraction f contains any fixed
  // row with probability f, so all T per-ES-row argmaxes are covered
  // with probability >= 1 - T * (1 - f); solving for the stated
  // confidence gives f >= 1 - (1 - confidence) / T.
  const double f_needed =
      1.0 - (1.0 - params_.confidence) / static_cast<double>(T);
  int64_t m_needed = static_cast<int64_t>(
      std::ceil(f_needed * static_cast<double>(K)));
  m_needed = std::clamp<int64_t>(m_needed, 1, K);

  if (m_needed > params_.sample_budget && !best_effort) {
    // Too much support to sample at the stated confidence — but a
    // best-first walk over the same support can still resolve *exactly*
    // when the highest-potential rows dominate the rest, which the
    // quantized similarity distributions of real corpora make common.
    if (best_first_exact(support, /*full_support=*/true)) {
      return est;
    }
    // The caller evaluates exactly; don't burn what's left of the
    // budget on a bound nobody will use.
    est.escalate = true;
    if (span.enabled()) {
      span.AddArg("support", std::to_string(K));
      span.AddArg("outcome", "budget_exceeded");
    }
    return est;
  }
  const int64_t m = std::min(m_needed, params_.sample_budget);

  // Deterministic per-candidate sample: Fisher-Yates prefix of the
  // sorted support under the signature-keyed rng stream.
  Rng rng(params_.rng_seed ^ FingerprintString(cand.query.signature()));
  for (int64_t i = 0; i < m; ++i) {
    const int64_t j =
        i + static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(K - i)));
    std::swap(support[static_cast<size_t>(i)], support[static_cast<size_t>(j)]);
  }

  std::vector<double> lo_t(static_cast<size_t>(T), 0.0);
  std::vector<double> row_buf(w.stride, 0.0);
  int64_t visits_left = best_effort
                            ? WalkCap(params_.sample_budget)
                            : std::min(WalkCap(params_.sample_budget),
                                       work_left);
  bool capped = false;
  int64_t walked = 0;
  for (int64_t i = 0; i < m; ++i) {
    const bool alive = WalkRow(w, tree.root(), support[static_cast<size_t>(i)],
                               0, row_buf.data(), &visits_left, &capped);
    if (capped) break;  // the partial row is discarded; lo stays certain
    ++walked;
    if (!alive) continue;
    for (int32_t t = 0; t < T; ++t) {
      lo_t[t] = std::max(lo_t[t], row_buf[static_cast<size_t>(t)]);
    }
  }
  est.interval.sampled = walked;

  double row_lo = 0.0;
  for (double v : lo_t) row_lo += v;
  est.row_score_lo = row_lo;
  est.interval.lo = CombineScore(row_lo, col, alpha, size);

  if (!capped && walked == K) {
    est.interval.hi = est.interval.lo;
    est.interval.confidence = 1.0;
    est.row_scores = std::move(lo_t);
  } else if (!capped && walked >= m_needed) {
    est.interval.hi = est.interval.lo;
    est.interval.confidence = params_.confidence;
  } else {
    // Unresolved: the deterministic Prop-2 bound stands.
    est.escalate = true;
  }

  if (span.enabled()) {
    span.AddArg("support", std::to_string(K));
    span.AddArg("sampled", std::to_string(walked));
    span.AddArg("outcome", est.escalate          ? "escalate"
                           : est.interval.exact() ? "exact"
                                                  : "resolved");
  }
  return est;
}

}  // namespace s4::approx
