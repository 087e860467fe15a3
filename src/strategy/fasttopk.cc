#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "approx/join_sampler.h"
#include "common/timer.h"
#include "common/topk_heap.h"
#include "exec/cost_model.h"
#include "obs/trace.h"
#include "strategy/strategy_internal.h"

namespace s4::internal {

namespace {

// Per-candidate state inside one batch. Cache keys are interned to
// dense per-batch ids once, so planning compares integers, never
// strings.
struct BatchEntry {
  size_t rt_index;                   // into the runtime list
  std::vector<SubPJQuery> subs;      // enumerated once
  std::vector<uint32_t> sub_ids;     // key id of subs[s]
  std::vector<uint32_t> sorted_ids;  // sub_ids sorted, duplicates kept
};

// One Alg-4 critical group: Q*, and Critical^{-1}(Q*) in similarity
// order (heuristic 1 of Sec 5.3.4).
struct CriticalGroup {
  const SubPJQuery* sub = nullptr;  // Q*, owned by the plan's entries
  std::string key;                  // Q*'s cache key
  int64_t cost = 0;                 // Eq. 12 cost of Q*
  size_t bytes = 0;                 // EstimateTableBytes(Q*): its share of B
  std::vector<size_t> members;      // entry indices, similarity order
};

// Alg 4's whole schedule for one batch. The greedy Q* picks depend only
// on which entries are still unplaced, never on scores, so the plan is
// fixed before anything is evaluated: groups in pick order, then the
// remainder that shares nothing (Alg 4 line 5), in entry order.
struct BatchPlan {
  std::vector<BatchEntry> entries;
  std::vector<CriticalGroup> groups;
  std::vector<size_t> remainder;
};

// Occurrences of `a`'s ids (with multiplicity) that also appear in
// `b`; both sorted.
int64_t SharedKeys(const std::vector<uint32_t>& a,
                   const std::vector<uint32_t>& b) {
  int64_t shared = 0;
  size_t j = 0;
  for (uint32_t id : a) {
    while (j < b.size() && b[j] < id) ++j;
    if (j == b.size()) break;
    if (b[j] == id) ++shared;
  }
  return shared;
}

// Orders `group` so that consecutive queries share as many sub-PJ
// queries as possible (heuristic 1 of Sec 5.3.4): greedy chain that
// starts from the highest-upper-bound member and always appends the
// unplaced query sharing the most keys with the last placed one.
std::vector<size_t> SimilarityOrder(const std::vector<size_t>& group,
                                    const std::vector<BatchEntry>& entries) {
  if (group.size() <= 2) return group;
  std::vector<size_t> order;
  std::vector<bool> used(group.size(), false);
  order.push_back(group[0]);
  used[0] = true;
  for (size_t step = 1; step < group.size(); ++step) {
    const std::vector<uint32_t>& last_ids = entries[order.back()].sorted_ids;
    size_t best = group.size();
    int64_t best_shared = -1;
    for (size_t g = 0; g < group.size(); ++g) {
      if (used[g]) continue;
      const int64_t shared =
          SharedKeys(entries[group[g]].sorted_ids, last_ids);
      if (shared > best_shared) {
        best_shared = shared;
        best = g;
      }
    }
    used[best] = true;
    order.push_back(group[best]);
  }
  return order;
}

// Calls f(id) once per distinct id of a sorted id vector.
template <typename F>
void ForEachDistinct(const std::vector<uint32_t>& sorted, F&& f) {
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || sorted[i] != sorted[i - 1]) f(sorted[i]);
  }
}

class FastTopKRun {
 public:
  FastTopKRun(PreparedSearch& prep, std::vector<RuntimeCandidate> rts,
              const SearchOptions& options)
      : prep_(prep),
        rts_(std::move(rts)),
        options_(options),
        topk_(static_cast<size_t>(options.k)),
        cache_(options.cache_budget_bytes,
               SubQueryCache::ShardsForThreads(ResolveNumThreads(options))),
        pool_(options, rts_.size()) {
    // Cross-query sharing: misses in the per-run cache fall through to
    // the service's shared cache; insertions are republished there.
    if (options.shared_cache != nullptr) {
      cache_.AttachShared(options.shared_cache, options.shared_cache_prefix);
    }
  }

  SearchResult Run() {
    WallTimer timer;
    if (ApproxOn()) {
      // Built once per run; construction precomputes the per-binding
      // similarity tables (one posting scan per pair, like Stage I).
      approx::ApproxParams params;
      params.epsilon = options_.approx_epsilon;
      params.confidence = options_.approx_confidence;
      params.sample_budget = options_.sample_budget;
      params.rng_seed = options_.rng_seed;
      sampler_ = std::make_unique<approx::JoinSampler>(prep_.ctx, params);
    }
    const size_t n = rts_.size();
    size_t next = 0;
    int64_t batch_index = 0;
    while (next < n) {
      // Batch boundary: the natural stop-token poll point (Alg 3). The
      // evaluator's Stage-II 16-lane probe batches sit strictly inside
      // one candidate evaluation, so they never add or move a poll:
      // cancellation granularity stays exactly one candidate.
      if (ShouldAbort()) {
        result_.interrupted = true;
        break;
      }
      // Batch j covers candidates up to rank k*(1+eps)^j (Alg 3).
      const double bound =
          static_cast<double>(options_.k) *
          std::pow(1.0 + options_.epsilon, static_cast<double>(batch_index));
      size_t end = std::min(
          n, std::max(next + 1, static_cast<size_t>(std::ceil(bound))));
      {
        obs::SpanTimer span(options_.trace, "fasttopk", "batch");
        if (span.enabled()) {
          span.AddArg("index", std::to_string(batch_index));
          span.AddArg("size", std::to_string(end - next));
        }
        EvaluateBatch(next, end);
      }
      ++result_.stats.batches;
      next = end;
      ++batch_index;
      // Batch boundary: stream a progress snapshot (the distributed
      // kShardPartial payload) before the termination check so a
      // coordinator sees the tightest remaining upper bound we know.
      EmitProgress(options_, topk_, rts_, next, result_.stats);
      // Termination condition (7) after each batch. Strict: a remaining
      // candidate with ub == kth can still displace the boundary entry
      // under the canonical (score desc, signature asc) tie order. In
      // approximate mode, the epsilon-relaxed variant also fires: every
      // remaining candidate's Prop-2 bound is within (1 + eps) of the
      // k-th score, so none could improve it beyond the stated slack.
      if (next < n && topk_.Full()) {
        const double kth = topk_.KthScore();
        const bool exact_term = kth > rts_[next].ub;
        const bool approx_term =
            ApproxOn() &&
            rts_[next].ub <= kth * (1.0 + kSkipSlack * options_.approx_epsilon);
        if (exact_term || approx_term) {
          if (!exact_term) result_.approximate = true;
          if (options_.trace != nullptr) {
            options_.trace->AddInstant(
                "fasttopk", "early_termination",
                {{"evaluated_through", std::to_string(next)},
                 {"remaining", std::to_string(n - next)},
                 {"relaxed", exact_term ? "0" : "1"}});
          }
          break;
        }
      }
      if (options_.trace != nullptr) {
        options_.trace->AddInstant("fasttopk", "termination_check");
      }
    }
    for (auto& [score, sq] : topk_.TakeSortedDescending()) {
      (void)score;
      result_.topk.push_back(std::move(sq));
    }
    result_.stats.eval_seconds = timer.ElapsedSeconds();
    FinishStats(prep_, &cache_, &result_);
    return std::move(result_);
  }

 private:
  // Approximate mode is a FASTTOPK-only, plain-evaluation-only feature;
  // the drop-zero ablation is rejected at the validation boundary, and
  // guarded again here for callers that bypass it.
  bool ApproxOn() const {
    return options_.approx_epsilon > 0.0 && !options_.drop_zero_rows;
  }

  // Row-subset / prior-score candidates (incremental sessions) always
  // evaluate exactly; the sampler walks full rows only.
  bool Sampleable(const RuntimeCandidate& rt) const {
    return rt.es_rows.empty() && rt.prior_row_scores == nullptr;
  }

  // Stop-token poll with the deadline fallback: in approximate mode a
  // *deadline* firing switches the run into best-effort sampling for
  // every remaining candidate — a bounded-error anytime result instead
  // of a truncated one — while an explicit cancellation (client gone,
  // nobody wants the answer) still aborts immediately.
  bool ShouldAbort() {
    if (options_.stop == nullptr) return false;
    if (options_.stop->cancelled()) return true;
    if (!options_.stop->ShouldStop()) return false;
    if (!ApproxOn()) return true;
    if (!deadline_fallback_) {
      deadline_fallback_ = true;
      if (options_.trace != nullptr) {
        options_.trace->AddInstant("approx", "deadline_fallback_entered");
      }
    }
    return false;
  }

  // Fraction of the epsilon band actually spent on skip/termination
  // decisions. The contract allows dropping anything provably within
  // eps of the k-th score, but spending the whole band realizes the
  // worst case: every boundary candidate gets dropped. A quarter of
  // the band prunes nearly as much while keeping the realized error
  // comfortably inside the guarantee.
  static constexpr double kSkipSlack = 0.25;

  double SkipBound() const {
    // kth * (1 + slack * eps): with eps = 0 this is the exact
    // strict-skip threshold; KthScore() is -inf while the heap is not
    // full, so the bound never fires early.
    return topk_.KthScore() * (1.0 + kSkipSlack * options_.approx_epsilon);
  }

  ScoredQuery MakeApproxScored(const RuntimeCandidate& rt,
                               const approx::CandidateEstimate& est) const {
    ScoredQuery sq;
    sq.query = rt.cand->query;
    sq.score = est.interval.lo;
    sq.upper_bound = rt.ub;
    sq.row_score = est.row_score_lo;
    sq.column_score = rt.cand->column_score;
    sq.interval = est.interval;
    sq.approximate = !est.interval.exact();
    return sq;
  }

  // Resolves batch candidates [lo, hi) by sampling where possible,
  // marking resolved slots so the exact machinery only sees the
  // escalations. Estimates fan out to the pool (they are pure given the
  // immutable sampler); skip/offer decisions replay serially in rank
  // order against the live heap, so a fixed thread count is
  // deterministic and the heap evolution matches the serial path.
  void ResolveBySampling(size_t lo, size_t hi, std::vector<bool>* resolved) {
    std::vector<size_t> want;
    want.reserve(hi - lo);
    {
      // Prefilter against the frozen bound: skip thresholds only rise,
      // so anything at or below them now will still be skippable at
      // apply time — no estimate needed.
      const bool full = topk_.Full();
      const double bound = SkipBound();
      for (size_t i = lo; i < hi; ++i) {
        if (!Sampleable(rts_[i])) continue;
        if (full && rts_[i].ub <= bound) continue;
        want.push_back(i);
      }
    }
    std::vector<approx::CandidateEstimate> ests(want.size());
    auto estimate = [&](size_t j) {
      ests[j] = sampler_->Estimate(*rts_[want[j]].cand,
                                   /*best_effort=*/deadline_fallback_,
                                   options_.trace);
    };
    if (pool_.get() != nullptr && want.size() > 1) {
      pool_.get()->ParallelFor(want.size(), estimate);
    } else {
      for (size_t j = 0; j < want.size(); ++j) estimate(j);
    }

    size_t next_want = 0;
    for (size_t i = lo; i < hi; ++i) {
      if (!Sampleable(rts_[i])) continue;
      const approx::CandidateEstimate* est = nullptr;
      if (next_want < want.size() && want[next_want] == i) {
        est = &ests[next_want++];
      }
      // Exact strict skip first (identical to EvaluateOne), so the
      // epsilon-relaxed decisions below only ever see candidates the
      // exact path would have evaluated.
      if (topk_.Full() && rts_[i].ub < topk_.KthScore()) {
        ++result_.stats.skipped_by_condition;
        (*resolved)[i - lo] = true;
        continue;
      }
      if (topk_.Full() && rts_[i].ub <= SkipBound()) {
        ++result_.stats.approx_skipped;
        result_.approximate = true;
        (*resolved)[i - lo] = true;
        continue;
      }
      if (est == nullptr) continue;  // prefiltered but bound regressed: exact
      result_.stats.approx_samples += est->interval.sampled;
      if (est->escalate && !deadline_fallback_) {
        ++result_.stats.approx_escalated;
        continue;
      }
      if (topk_.Full() && est->interval.hi <= SkipBound()) {
        ++result_.stats.approx_skipped;
        result_.approximate = true;
        (*resolved)[i - lo] = true;
        continue;
      }
      if (est->interval.resolved() || deadline_fallback_) {
        ++result_.stats.approx_sampled;
        if (deadline_fallback_ && est->escalate) {
          ++result_.stats.approx_deadline_fallbacks;
        }
        if (est->interval.exact() && !est->row_scores.empty()) {
          result_.evaluated.push_back(EvaluatedRecord{
              rts_[i].cand->query.signature(), est->row_scores});
        } else {
          result_.approximate = true;
        }
        OfferCounted(&topk_, MakeApproxScored(rts_[i], *est),
                     &result_.stats);
        (*resolved)[i - lo] = true;
        continue;
      }
      // Unresolved interval outside fallback: escalate to exact.
      ++result_.stats.approx_escalated;
    }
  }

  void EvaluateOne(size_t rt_index, bool offer_to_cache) {
    // Skipping condition (heuristic 2, Sec 5.3.4): an upper bound below
    // the current k-th score cannot enter the top-k. Strict so an exact
    // tie (ub == kth) is still evaluated and resolved canonically.
    if (topk_.Full() && rts_[rt_index].ub < topk_.KthScore()) {
      ++result_.stats.skipped_by_condition;
      return;
    }
    ScoredQuery sq =
        EvaluateCandidate(prep_, rts_[rt_index], &cache_, offer_to_cache,
                          options_, &result_.stats, &result_.evaluated);
    OfferCounted(&topk_, std::move(sq), &result_.stats);
  }

  // BatchEval (Algorithm 4) over candidates [lo, hi) of the runtime list.
  void EvaluateBatch(size_t lo, size_t hi) {
    // Approximate mode: resolve what sampling can (interval skips and
    // interval offers) before the critical-sub machinery spins up, so
    // Q* selection, pinning, and similarity ordering only ever see the
    // escalated candidates that truly need exact evaluation.
    std::vector<bool> sampled_out(hi - lo, false);
    if (ApproxOn()) {
      obs::SpanTimer span(options_.trace, "approx", "resolve_batch");
      ResolveBySampling(lo, hi, &sampled_out);
    }
    const BatchPlan plan = PlanBatch(lo, hi, sampled_out);
    if (pool_.get() == nullptr) {
      WalkSerial(plan);
    } else {
      WalkParallel(plan);
    }
  }

  // Alg 4's greedy selection, run to completion up front: pick the
  // critical sub-PJ query Q* — highest cost among those shared by >= 2
  // unplaced entries whose output fits in B, first (entry, sub) in scan
  // order on ties — place its sharers, repeat until nothing is shared.
  BatchPlan PlanBatch(size_t lo, size_t hi,
                      const std::vector<bool>& sampled_out) const {
    BatchPlan plan;
    plan.entries.reserve(hi - lo);
    std::unordered_map<std::string, uint32_t> key_ids;
    std::vector<const std::string*> keys;      // id -> key
    std::vector<std::vector<size_t>> holders;  // id -> entries, entry order
    const std::vector<uint64_t>& gens = prep_.ctx.index().relation_gens();
    for (size_t i = lo; i < hi; ++i) {
      if (sampled_out[i - lo]) continue;
      BatchEntry e;
      e.rt_index = i;
      e.subs = rts_[i].cand->query.EnumerateSubQueries();
      for (const SubPJQuery& s : e.subs) {
        // Gen-stamp matches the evaluator's probe keys: a mutation to
        // any relation of the sub-PJ, or to a kByFk link's target whose
        // rows number the table, changes its suffix, so stale cached
        // tables from earlier epochs can never be shared.
        auto [it, inserted] = key_ids.try_emplace(
            s.cache_key + RelationGenSuffix(s.tree, gens) +
                LinkGenSuffix(s.link, gens) + rts_[i].suffix,
            static_cast<uint32_t>(keys.size()));
        if (inserted) {
          keys.push_back(&it->first);
          holders.emplace_back();
        }
        e.sub_ids.push_back(it->second);
      }
      e.sorted_ids = e.sub_ids;
      std::sort(e.sorted_ids.begin(), e.sorted_ids.end());
      ForEachDistinct(e.sorted_ids, [&](uint32_t id) {
        holders[id].push_back(plan.entries.size());
      });
      plan.entries.push_back(std::move(e));
    }

    // Cost and size per distinct key, for keys shared at all; the
    // sharer counts below only fall, so no other key is ever a pick.
    const size_t num_ids = keys.size();
    std::vector<size_t> sharers(num_ids);
    for (size_t id = 0; id < num_ids; ++id) sharers[id] = holders[id].size();
    std::vector<int64_t> cost(num_ids, -1);
    std::vector<size_t> bytes(num_ids, 0);
    for (const BatchEntry& e : plan.entries) {
      for (size_t s = 0; s < e.subs.size(); ++s) {
        const uint32_t id = e.sub_ids[s];
        if (sharers[id] < 2 || cost[id] >= 0) continue;
        cost[id] = EvaluationCost(e.subs[s].tree, e.subs[s].bindings,
                                  prep_.ctx);
        bytes[id] =
            EstimateTableBytes(e.subs[s].tree, e.subs[s].link, prep_.ctx)
                .total();
      }
    }

    std::vector<bool> placed(plan.entries.size(), false);
    size_t remaining = plan.entries.size();
    while (remaining > 0) {
      const SubPJQuery* best_sub = nullptr;
      uint32_t best_id = 0;
      int64_t best_cost = -1;
      for (size_t e = 0; e < plan.entries.size(); ++e) {
        if (placed[e]) continue;
        const BatchEntry& entry = plan.entries[e];
        for (size_t s = 0; s < entry.subs.size(); ++s) {
          const uint32_t id = entry.sub_ids[s];
          if (sharers[id] < 2 || cost[id] <= best_cost) continue;
          if (bytes[id] > options_.cache_budget_bytes) continue;
          best_cost = cost[id];
          best_sub = &entry.subs[s];
          best_id = id;
        }
      }
      if (best_sub == nullptr) break;
      CriticalGroup group;
      group.sub = best_sub;
      group.key = *keys[best_id];
      group.cost = best_cost;
      group.bytes = bytes[best_id];
      for (size_t e : holders[best_id]) {
        if (!placed[e]) group.members.push_back(e);
      }
      group.members = SimilarityOrder(group.members, plan.entries);
      for (size_t e : group.members) {
        placed[e] = true;
        --remaining;
        ForEachDistinct(plan.entries[e].sorted_ids,
                        [&](uint32_t id) { --sharers[id]; });
      }
      plan.groups.push_back(std::move(group));
    }
    for (size_t e = 0; e < plan.entries.size(); ++e) {
      if (!placed[e]) plan.remainder.push_back(e);
    }
    return plan;
  }

  // True if some member of `group` can still enter the top-k against
  // the k-th score `kth` (-inf while the heap is not full); otherwise
  // evaluating Q* itself is wasted work.
  bool GroupLive(const BatchPlan& plan, const CriticalGroup& group,
                 double kth) const {
    for (size_t e : group.members) {
      if (rts_[plan.entries[e].rt_index].ub >= kth) return true;
    }
    return false;
  }

  // Evaluates Q* and pins its output relation in M (Alg 4 line 7),
  // counting the build into `stats`.
  void BuildCritical(const BatchPlan& plan, const CriticalGroup& group,
                     RunStats* stats) {
    EvalOptions eopts;
    eopts.es_rows = rts_[plan.entries[group.members[0]].rt_index].es_rows;
    eopts.drop_zero_rows = options_.drop_zero_rows;
    eopts.trace = options_.trace;
    std::shared_ptr<const SubQueryTable> table;
    {
      obs::SpanTimer critical_span(options_.trace, "fasttopk",
                                   "evaluate_critical_sub");
      if (critical_span.enabled()) {
        critical_span.AddArg("sharers", std::to_string(group.members.size()));
      }
      table = Evaluator(prep_.ctx).EvaluateSub(*group.sub, &cache_,
                                               &stats->counters, eopts);
    }
    stats->model_cost += group.cost;
    cache_.Add(group.key, std::move(table), /*pinned=*/true);
    ++stats->critical_subs_cached;
  }

  // The deadline fired mid-batch: resolves the given entries (in entry
  // order) by best-effort sampling, one rank at a time — entries are no
  // longer a contiguous range. Row-subset candidates the sampler cannot
  // bracket still evaluate exactly; they are rare and per-candidate, so
  // the cancel path can abort them.
  void FallBack(const BatchPlan& plan, const std::vector<size_t>& entries) {
    std::vector<size_t> rest;
    for (size_t e : entries) {
      const size_t rt = plan.entries[e].rt_index;
      std::vector<bool> one(1, false);
      ResolveBySampling(rt, rt + 1, &one);
      if (!one[0]) rest.push_back(rt);
    }
    for (size_t rt : rest) EvaluateOne(rt, /*offer_to_cache=*/false);
  }

  // Serial walk of the plan (the paper's schedule): every group
  // boundary polls the stop token and resets M, and every skip decision
  // reads the live heap.
  void WalkSerial(const BatchPlan& plan) {
    std::vector<bool> done(plan.entries.size(), false);
    // Group boundary: poll the stop token so an abandoned request stops
    // before evaluating the next Q*. A deadline in approximate mode
    // resolves the rest of the batch by best-effort sampling instead of
    // dropping it. True when the batch ends here.
    auto boundary = [&] {
      if (ShouldAbort()) {
        result_.interrupted = true;
        return true;
      }
      if (deadline_fallback_) {
        std::vector<size_t> rest;
        for (size_t e = 0; e < done.size(); ++e) {
          if (!done[e]) rest.push_back(e);
        }
        FallBack(plan, rest);
        return true;
      }
      cache_.Clear();
      return false;
    };
    for (const CriticalGroup& group : plan.groups) {
      if (boundary()) return;
      for (size_t e : group.members) done[e] = true;
      if (!GroupLive(plan, group, topk_.KthScore())) {
        result_.stats.skipped_by_condition +=
            static_cast<int64_t>(group.members.size());
        continue;
      }
      BuildCritical(plan, group, &result_.stats);
      // Evaluate Critical^{-1}(Q*) in similarity order, re-using M with
      // LRU offers of intermediate tables (heuristic 1).
      for (size_t e : group.members) {
        EvaluateOne(plan.entries[e].rt_index, /*offer_to_cache=*/true);
      }
      cache_.Unpin(group.key);
    }
    if (plan.remainder.empty() || boundary()) return;
    for (size_t e : plan.remainder) {
      EvaluateOne(plan.entries[e].rt_index, /*offer_to_cache=*/false);
    }
  }

  // What one pool task of a parallel walk produced: Q*'s build and the
  // frozen skips in `stats`, the evaluations in order, and the entries
  // a stop left untouched.
  struct TaskOutcome {
    RunStats stats;
    std::vector<EvalOutcome> evals;
    std::vector<size_t> unstarted;
  };

  // Evaluates `entries` (indices into the plan) in order inside one
  // task, skipping against the frozen k-th score.
  void EvaluateInTask(const BatchPlan& plan, const size_t* entries, size_t n,
                      bool offer_to_cache, double kth, TaskOutcome* out) {
    for (size_t m = 0; m < n; ++m) {
      if (StopRequested(options_)) {
        out->unstarted.assign(entries + m, entries + n);
        return;
      }
      const RuntimeCandidate& rt = rts_[plan.entries[entries[m]].rt_index];
      if (rt.ub < kth) {
        ++out->stats.skipped_by_condition;
        continue;
      }
      out->evals.push_back(EvaluateCandidateIsolated(prep_, rt, &cache_,
                                                     offer_to_cache, options_));
    }
  }

  // Parallel walk: one ParallelFor per fan-out, each task a whole
  // critical group (build Q*, pin it, evaluate its live members in
  // similarity order, unpin) or one remainder candidate. Groups come
  // first in plan order (descending Q* cost), so the long tasks start
  // first. Fan-outs pack groups whose Q* estimates sum to at most B —
  // one fan-out per batch at the default budget. Skip decisions freeze
  // the k-th score at fan-out entry: Prop 2 still guarantees a skipped
  // candidate cannot enter the top-k, so only the skip *counts* (and
  // cache-dependent bookkeeping) can differ from the serial walk. The
  // run cache is shared by all tasks and reset once per batch; outcomes
  // merge in plan order, so a fixed thread count is deterministic.
  void WalkParallel(const BatchPlan& plan) {
    cache_.Clear();
    size_t next_group = 0;
    bool remainder_pending = !plan.remainder.empty();
    // Entries a stop kept a task from starting. Stops latch, so the poll
    // after such a fan-out either aborts or enters the deadline fallback.
    std::vector<size_t> unstarted;
    while (next_group < plan.groups.size() || remainder_pending ||
           !unstarted.empty()) {
      // Fan-out boundary: the same poll as a serial group boundary. A
      // cancel (or an exact-mode deadline) ends the run; an
      // approximate-mode deadline sends every entry not yet started
      // through the best-effort sampling fallback.
      if (ShouldAbort()) {
        result_.interrupted = true;
        return;
      }
      if (deadline_fallback_) {
        for (size_t g = next_group; g < plan.groups.size(); ++g) {
          const std::vector<size_t>& m = plan.groups[g].members;
          unstarted.insert(unstarted.end(), m.begin(), m.end());
        }
        if (remainder_pending) {
          unstarted.insert(unstarted.end(), plan.remainder.begin(),
                           plan.remainder.end());
        }
        std::sort(unstarted.begin(), unstarted.end());
        FallBack(plan, unstarted);
        return;
      }
      const double kth = topk_.KthScore();
      std::vector<const CriticalGroup*> groups;
      size_t packed_bytes = 0;
      for (; next_group < plan.groups.size(); ++next_group) {
        const CriticalGroup& group = plan.groups[next_group];
        if (!GroupLive(plan, group, kth)) {
          result_.stats.skipped_by_condition +=
              static_cast<int64_t>(group.members.size());
          continue;
        }
        if (!groups.empty() &&
            packed_bytes + group.bytes > options_.cache_budget_bytes) {
          break;
        }
        packed_bytes += group.bytes;
        groups.push_back(&group);
      }
      const bool with_remainder =
          next_group == plan.groups.size() && remainder_pending;
      if (with_remainder) remainder_pending = false;

      std::vector<TaskOutcome> outcomes(
          groups.size() + (with_remainder ? plan.remainder.size() : 0));
      pool_.get()->ParallelFor(outcomes.size(), [&](size_t t) {
        TaskOutcome* out = &outcomes[t];
        if (t >= groups.size()) {
          EvaluateInTask(plan, &plan.remainder[t - groups.size()], 1,
                         /*offer_to_cache=*/false, kth, out);
          return;
        }
        const CriticalGroup& group = *groups[t];
        if (StopRequested(options_)) {
          out->unstarted = group.members;
          return;
        }
        BuildCritical(plan, group, &out->stats);
        EvaluateInTask(plan, group.members.data(), group.members.size(),
                       /*offer_to_cache=*/true, kth, out);
        cache_.Unpin(group.key);
      });
      for (TaskOutcome& out : outcomes) {
        result_.stats.Add(out.stats);
        for (EvalOutcome& o : out.evals) {
          MergeOutcome(std::move(o), &result_, &topk_);
        }
        unstarted.insert(unstarted.end(), out.unstarted.begin(),
                         out.unstarted.end());
      }
    }
  }

  PreparedSearch& prep_;
  std::vector<RuntimeCandidate> rts_;
  const SearchOptions& options_;
  SearchResult result_;
  TopKHeap<ScoredQuery> topk_;
  SubQueryCache cache_;
  PoolHandle pool_;  // get() is null on the serial legacy path
  // Anytime approximate mode: null unless approx_epsilon > 0.
  std::unique_ptr<approx::JoinSampler> sampler_;
  // Latched once the run's deadline fires: remaining candidates finish
  // in best-effort sampling mode instead of being dropped.
  bool deadline_fallback_ = false;
};

}  // namespace

SearchResult RunFastTopKCore(PreparedSearch& prep,
                             std::vector<RuntimeCandidate> rts,
                             const SearchOptions& options) {
  SortRuntime(&rts);
  FastTopKRun run(prep, std::move(rts), options);
  return run.Run();
}

}  // namespace s4::internal
