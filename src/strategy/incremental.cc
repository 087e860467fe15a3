#include "strategy/incremental.h"

#include <algorithm>
#include <unordered_set>

#include "index/column_ids.h"
#include "strategy/strategy_internal.h"

namespace s4 {

using internal::MakePlainRuntime;
using internal::RunBaselineCore;
using internal::RunFastTopKCore;
using internal::RuntimeCandidate;

SearchResult SearchSession::Search(const ExampleSpreadsheet& sheet,
                                   IncrementalMode mode) {
  // Column add/delete (or no prior state) restarts from scratch
  // (Sec 5.4), as FASTTOPK-NINC, a plain SearchFastTopK, always does.
  bool fresh = !last_sheet_.has_value() ||
               last_sheet_->NumColumns() != sheet.NumColumns() ||
               sheet.NumRows() < last_sheet_->NumRows();

  PreparedSearch prep(*index_, *graph_, sheet, options_);

  std::vector<int32_t> changed;
  if (!fresh) {
    changed = sheet.ChangedRows(*last_sheet_);
    if (changed.size() == static_cast<size_t>(sheet.NumRows())) fresh = true;
  } else {
    for (int32_t t = 0; t < sheet.NumRows(); ++t) changed.push_back(t);
  }

  std::vector<RuntimeCandidate> rts;
  if (fresh) {
    rts = MakePlainRuntime(prep.candidates);
  } else {
    std::unordered_set<int32_t> changed_set(changed.begin(), changed.end());
    const double alpha = options_.score.alpha;
    const ColumnIds& cols = index_->column_ids();
    rts.reserve(prep.candidates.size());
    for (const CandidateQuery& cand : prep.candidates) {
      RuntimeCandidate rt;
      rt.cand = &cand;
      rt.ub = cand.upper_bound;
      auto it = history_.find(cand.query.signature());
      if (it != history_.end()) {
        const HistoryEntry& entry = it->second;
        // Rows needing evaluation: edited rows plus rows whose stored
        // score is stale or missing. The evaluator's Stage-II batched
        // accumulation indexes its per-batch score buffer through this
        // es_rows subset (it only takes the contiguous fast path for
        // the full identity row set), so the re-evaluated rows come
        // back bit-identical to a from-scratch run and merge cleanly
        // with the reused prior scores.
        std::vector<int32_t> eval_rows;
        std::vector<int32_t> reuse_rows;
        for (int32_t t = 0; t < sheet.NumRows(); ++t) {
          const bool reusable =
              changed_set.count(t) == 0 &&
              t < static_cast<int32_t>(entry.valid.size()) && entry.valid[t];
          (reusable ? reuse_rows : eval_rows).push_back(t);
        }
        if (!reuse_rows.empty()) {
          // Tighter upper bound (Eq. 11): exact contribution of the
          // reusable rows plus a column-wise bound on the rest.
          double row_old = 0.0;
          for (int32_t t : reuse_rows) row_old += entry.scores[t];
          double col_old = 0.0;
          double col_rest = 0.0;
          for (const ProjectionBinding& b : cand.query.bindings()) {
            const int32_t gid = cols.Gid(ColumnRef{
                cand.query.tree().node(b.node).table, b.column});
            const std::vector<double>* cm =
                prep.ctx.CellMax(b.es_column, gid);
            if (cm == nullptr) continue;
            for (int32_t t : reuse_rows) col_old += (*cm)[t];
            for (int32_t t : eval_rows) col_rest += (*cm)[t];
          }
          const double penalty = SizePenalty(cand.query.tree().size());
          const double old_part =
              (alpha * row_old + (1.0 - alpha) * col_old) / penalty;
          // The bound sums in a different order from the score, so a
          // bound equal to the score in exact arithmetic can round below
          // it, and the strict skip would drop a candidate tied with the
          // k-th. Round up: 1e-12 relative exceeds the sums' error.
          const double ub = (old_part + col_rest / penalty) * (1.0 + 1e-12);
          rt.ub = std::min(cand.upper_bound, ub);
          if (!eval_rows.empty()) {
            rt.es_rows = std::move(eval_rows);
            rt.suffix = EsRowsCacheSuffix(rt.es_rows);
          }
          rt.prior_row_scores = &entry.scores;
        }
      }
      rts.push_back(std::move(rt));
    }
  }

  // The shared cores carry SearchOptions::num_threads, so incremental
  // re-searches parallelize (and stay equivalent) exactly like plain runs.
  SearchResult result = (mode == IncrementalMode::kBaselineInc)
                            ? RunBaselineCore(prep, std::move(rts), options_)
                            : RunFastTopKCore(prep, std::move(rts), options_);
  Remember(sheet, result, changed);
  return result;
}

void SearchSession::Remember(const ExampleSpreadsheet& sheet,
                             const SearchResult& result,
                             const std::vector<int32_t>& changed_rows) {
  const size_t num_rows = static_cast<size_t>(sheet.NumRows());
  // Stored rows edited in this round go stale unless re-evaluated below.
  for (auto& [sig, entry] : history_) {
    (void)sig;
    entry.valid.resize(num_rows, false);
    entry.scores.resize(num_rows, 0.0);
    for (int32_t t : changed_rows) entry.valid[t] = false;
  }
  for (const EvaluatedRecord& rec : result.evaluated) {
    HistoryEntry& entry = history_[rec.signature];
    entry.scores = rec.row_scores;
    entry.scores.resize(num_rows, 0.0);
    entry.valid.assign(num_rows, true);
  }
  last_sheet_ = sheet;
}

}  // namespace s4
