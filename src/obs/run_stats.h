#ifndef S4_OBS_RUN_STATS_H_
#define S4_OBS_RUN_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

namespace s4 {

// The per-search counter schema (DESIGN.md "Observability"). Every
// counter a search produces is declared exactly once, in the list below,
// and everything that carries or reports counters is generated from it:
// the RunStats / EvalCounters / CacheStats structs and their Add, the
// `s4_*` registry publish, the wire codec, the FormatProfile rows, the
// slow-log JSON and the bench JSON. A new counter is one line here.
//
// Each entry is X(type, field, kind, section, metric, label) and is
// listed under the macro argument naming the struct that owns it:
//   RUN   -> RunStats (strategy-level work, timings, sampler outcomes)
//   EVAL  -> EvalCounters (Stage-II evaluator work), RunStats::counters
//   CACHE -> CacheStats (sub-PJ cache traffic), RunStats::cache
// `kind` fixes both the merge rule and the registry metric type:
//   kCount   summed; published as a Counter
//   kSeconds summed wall time; published as a Histogram observation
//   kPeak    high-water mark (max); published as a max-only Gauge
// `section` groups the FormatProfile rows; `label` is the row text.
// List order is the wire order and the report order.
//
// hash_lookups and hash_inserts keep their names from the hash-join
// tables; sub-PJ tables are dense row-id arrays now (DESIGN.md "Dense
// row-id sub-PJ tables"), and the two count slot probes (one per child
// probe, one per entry of a reused type-ii table) and slot writes (every
// scored emit, every new zero-score key).
#define S4_RUN_STATS_FIELDS(RUN, EVAL, CACHE)                                \
  RUN(double, enum_seconds, kSeconds, "stages", "s4_enum_seconds",           \
      "stage I (enumerate)")                                                 \
  RUN(double, eval_seconds, kSeconds, "stages", "s4_eval_seconds",           \
      "stage II (evaluate)")                                                 \
  RUN(int64_t, searches, kCount, "work", "s4_searches_total",                \
      "strategy runs")                                                       \
  RUN(int64_t, queries_enumerated, kCount, "work",                           \
      "s4_candidates_enumerated_total", "candidates enumerated")             \
  RUN(int64_t, queries_evaluated, kCount, "work",                            \
      "s4_candidates_evaluated_total", "candidates evaluated")               \
  RUN(int64_t, query_row_evals, kCount, "work", "s4_query_row_evals_total",  \
      "query-row evals")                                                     \
  RUN(int64_t, skipped_by_condition, kCount, "work",                         \
      "s4_skipped_by_condition_total", "skipped by condition")               \
  RUN(int64_t, batches, kCount, "work", "s4_batches_total", "batches")       \
  RUN(int64_t, bound_updates, kCount, "work", "s4_bound_updates_total",      \
      "bound updates")                                                       \
  RUN(int64_t, critical_subs_cached, kCount, "work",                         \
      "s4_critical_subs_cached_total", "critical subs cached")               \
  RUN(int64_t, model_cost, kCount, "work", "s4_model_cost_total",            \
      "model cost (Eq. 12-13)")                                              \
  EVAL(int64_t, rows_scanned, kCount, "work", "s4_rows_scanned_total",       \
       "rows scanned")                                                       \
  EVAL(int64_t, hash_lookups, kCount, "work", "s4_hash_lookups_total",       \
       "slot probes")                                                        \
  EVAL(int64_t, hash_inserts, kCount, "work", "s4_hash_inserts_total",       \
       "slot writes")                                                        \
  EVAL(int64_t, postings_scanned, kCount, "work",                            \
       "s4_postings_scanned_total", "postings scanned")                      \
  EVAL(int64_t, tables_reused, kCount, "cache",                              \
       "s4_cache_tables_reused_total", "tables reused")                      \
  EVAL(int64_t, subtree_misses, kCount, "cache",                             \
       "s4_cache_subtree_misses_total", "subtree misses")                    \
  CACHE(int64_t, hits, kCount, "cache", "s4_cache_probe_hits_total",         \
        "probe hits")                                                        \
  CACHE(int64_t, misses, kCount, "cache", "s4_cache_probe_misses_total",     \
        "probe misses")                                                      \
  CACHE(int64_t, insertions, kCount, "cache", "s4_cache_insertions_total",   \
        "insertions")                                                        \
  CACHE(int64_t, evictions, kCount, "cache", "s4_cache_evictions_total",     \
        "evictions")                                                         \
  CACHE(int64_t, rejected_too_large, kCount, "cache",                        \
        "s4_cache_rejected_too_large_total", "rejected (too large)")         \
  CACHE(size_t, peak_bytes, kPeak, "cache", "s4_cache_peak_bytes",           \
        "peak bytes")                                                        \
  RUN(int64_t, approx_sampled, kCount, "sampler",                            \
      "s4_approx_candidates_sampled_total", "candidates sampled")            \
  RUN(int64_t, approx_skipped, kCount, "sampler", "s4_approx_skipped_total", \
      "skipped on interval")                                                 \
  RUN(int64_t, approx_escalated, kCount, "sampler",                          \
      "s4_approx_escalated_total", "escalated to exact")                     \
  RUN(int64_t, approx_samples, kCount, "sampler", "s4_approx_samples_total", \
      "join rows walked")                                                    \
  RUN(int64_t, approx_deadline_fallbacks, kCount, "sampler",                 \
      "s4_approx_deadline_fallbacks_total", "deadline fallbacks")

enum class StatKind { kCount, kSeconds, kPeak };

// One schema entry as data, handed to ForEachStat visitors.
struct StatField {
  const char* name;  // member path from RunStats, e.g. "cache.hits"
  StatKind kind;
  const char* section;
  const char* metric;
  const char* label;
};

template <typename T>
void MergeStat(StatKind kind, T* into, const T& from) {
  *into = kind == StatKind::kPeak ? std::max(*into, from) : *into + from;
}

#define S4_STATS_SKIP(...)
#define S4_STATS_DECLARE(type, field, ...) type field = 0;
#define S4_STATS_MERGE(type, field, kind, ...) \
  MergeStat(StatKind::kind, &field, o.field);

// Stage-II evaluator work for one or more candidate evaluations.
struct EvalCounters {
  S4_RUN_STATS_FIELDS(S4_STATS_SKIP, S4_STATS_DECLARE, S4_STATS_SKIP)

  void Add(const EvalCounters& o) {
    S4_RUN_STATS_FIELDS(S4_STATS_SKIP, S4_STATS_MERGE, S4_STATS_SKIP)
  }
};

// Sub-PJ cache traffic (SubQueryCache::stats()).
struct CacheStats {
  S4_RUN_STATS_FIELDS(S4_STATS_SKIP, S4_STATS_SKIP, S4_STATS_DECLARE)

  void Add(const CacheStats& o) {
    S4_RUN_STATS_FIELDS(S4_STATS_SKIP, S4_STATS_SKIP, S4_STATS_MERGE)
  }
};

// The per-search counter record: the one struct every layer hands
// counters around in (strategy results, the service, the wire, the
// coordinator merge, the slow log, the benches). Add folds another
// record in under each field's merge rule; `searches` counts the
// strategy runs folded in, so it is the denominator of any mean.
struct RunStats {
  S4_RUN_STATS_FIELDS(S4_STATS_DECLARE, S4_STATS_SKIP, S4_STATS_SKIP)
  EvalCounters counters;
  CacheStats cache;

  void Add(const RunStats& o) {
    S4_RUN_STATS_FIELDS(S4_STATS_MERGE, S4_STATS_SKIP, S4_STATS_SKIP)
    counters.Add(o.counters);
    cache.Add(o.cache);
  }
};

#undef S4_STATS_MERGE
#undef S4_STATS_DECLARE
#undef S4_STATS_SKIP

// Calls f(field, s.<field>...) for every schema field in list order,
// with the matching member of each RunStats passed in (so one call can
// read one record, or zip several, e.g. for comparisons).
template <typename F, typename... Stats>
void ForEachStat(F&& f, Stats&&... s) {
#define S4_STATS_VISIT_RUN(type, field, kind, section, metric, label) \
  f(StatField{#field, StatKind::kind, section, metric, label}, s.field...);
#define S4_STATS_VISIT_EVAL(type, field, kind, section, metric, label)      \
  f(StatField{"counters." #field, StatKind::kind, section, metric, label}, \
    s.counters.field...);
#define S4_STATS_VISIT_CACHE(type, field, kind, section, metric, label) \
  f(StatField{"cache." #field, StatKind::kind, section, metric, label}, \
    s.cache.field...);
  S4_RUN_STATS_FIELDS(S4_STATS_VISIT_RUN, S4_STATS_VISIT_EVAL,
                      S4_STATS_VISIT_CACHE)
#undef S4_STATS_VISIT_CACHE
#undef S4_STATS_VISIT_EVAL
#undef S4_STATS_VISIT_RUN
}

namespace obs {

// Adds one finished run to the process-wide registry, one metric per
// schema field (see StatKind). Called once per strategy run.
void PublishRunStats(const RunStats& stats);

// The record as one JSON object keyed by StatField::name; seconds stay
// seconds, counts stay integers.
std::string RunStatsJson(const RunStats& stats);

}  // namespace obs
}  // namespace s4

#endif  // S4_OBS_RUN_STATS_H_
