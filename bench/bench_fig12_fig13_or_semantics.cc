// Reproduces Appendix A.3's experiments: Figure 12(a) (set difference
// between AND- and OR-semantics result sets as k varies), Figure 12(b)
// (execution time of the two), and Figure 13 (queries enumerated vs
// evaluated under both semantics for NAIVE and FASTTOPK). OR is one
// search over the extended candidate set
// (options.enumeration.or_semantics); Figs 12(b) and 13 run serially
// (the paper's setting) and at num_threads = 0 (one thread per core).
#include <cstdio>
#include <set>
#include <string>

#include "common/string_util.h"

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace s4;
  using namespace s4::bench;
  using datagen::EsBucket;

  JsonInit(argc, argv, "fig12_fig13_or_semantics");
  PrintHeader("Figures 12-13: AND vs OR column mapping (App A.3)",
              "CSUPP-sim; OR = one search over the extended candidate set"
              " (enumeration.or_semantics)");

  std::unique_ptr<World> world =
      CsuppWorld(static_cast<int32_t>(EnvInt("S4_BENCH_CSUPP_SCALE", 1)));
  const int32_t es_count =
      static_cast<int32_t>(EnvInt("S4_BENCH_ES_COUNT", 12));
  Workload workload = MakeWorkload(*world, es_count);

  SearchOptions and_options;
  and_options.enumeration.max_tree_size = 4;
  SearchOptions or_options = and_options;
  or_options.enumeration.or_semantics = true;

  std::printf("Figure 12(a): avg |top-k(AND) \\ top-k(OR)| per ES\n");
  TablePrinter t12a({"k", "avg set difference", "identical result sets"});
  for (int32_t k : {5, 10, 20, 50}) {
    SearchOptions and_k = and_options;
    SearchOptions or_k = or_options;
    and_k.k = or_k.k = k;
    double diff_sum = 0.0;
    int identical = 0;
    for (const datagen::GeneratedEs& es : workload.es) {
      SearchResult and_r =
          SearchFastTopK(*world->index, *world->graph, es.sheet, and_k);
      SearchResult or_r =
          SearchFastTopK(*world->index, *world->graph, es.sheet, or_k);
      std::set<std::string> and_set, or_set;
      for (const ScoredQuery& sq : and_r.topk) {
        and_set.insert(sq.query.signature());
      }
      for (const ScoredQuery& sq : or_r.topk) {
        or_set.insert(sq.query.signature());
      }
      int diff = 0;
      for (const std::string& sig : and_set) {
        if (or_set.count(sig) == 0) ++diff;
      }
      diff_sum += diff;
      if (diff == 0 && and_set.size() == or_set.size()) ++identical;
    }
    const double avg_diff = diff_sum / workload.es.size();
    t12a.AddRow({TablePrinter::Int(k), TablePrinter::Num(avg_diff, 2),
                 StrFormat("%d/%zu", identical, workload.es.size())});
    const std::string section = "fig12a/k=" + std::to_string(k);
    JsonMetric(section, "avg_set_difference", avg_diff);
    JsonMetric(section, "identical", identical);
  }
  t12a.Print();
  std::printf(
      "paper's shape: for small k the result sets barely differ — full"
      " mappings dominate the ranking even under OR semantics.\n\n");

  // num_threads as run: serially and one thread per core.
  const int32_t thread_counts[2] = {1, 0};

  std::printf("Figure 12(b): execution time AND vs OR per bucket (k=%d)\n",
              and_options.k);
  TablePrinter t12b({"threads", "bucket", "semantics", "enum+ub (ms)",
                     "eval (ms)", "total (ms)", "OR / AND"});
  // Serial per-ES detail: why OR's time can undercut AND's.
  TablePrinter tkth({"ES", "bucket", "k-th score AND", "k-th score OR",
                     "evaluated AND", "evaluated OR"});
  int64_t evaluated_and = 0, evaluated_or = 0;
  for (int32_t threads : thread_counts) {
    SearchOptions and_t = and_options;
    SearchOptions or_t = or_options;
    and_t.num_threads = or_t.num_threads = threads;
    for (EsBucket bucket :
         {EsBucket::kLow, EsBucket::kMedium, EsBucket::kHigh}) {
      RunStats and_agg, or_agg;
      for (size_t i : workload.InBucket(bucket)) {
        SearchResult and_r = SearchFastTopK(*world->index, *world->graph,
                                            workload.es[i].sheet, and_t);
        SearchResult or_r = SearchFastTopK(*world->index, *world->graph,
                                           workload.es[i].sheet, or_t);
        and_agg.Add(and_r.stats);
        or_agg.Add(or_r.stats);
        if (threads != 1) continue;
        auto kth = [](const SearchResult& r) {
          return r.topk.empty() ? 0.0 : r.topk.back().score;
        };
        tkth.AddRow({TablePrinter::Int(static_cast<int64_t>(i)),
                     datagen::EsBucketName(bucket),
                     TablePrinter::Num(kth(and_r), 4),
                     TablePrinter::Num(kth(or_r), 4),
                     TablePrinter::Int(and_r.stats.queries_evaluated),
                     TablePrinter::Int(or_r.stats.queries_evaluated)});
        evaluated_and += and_r.stats.queries_evaluated;
        evaluated_or += or_r.stats.queries_evaluated;
        const std::string section = "fig12b_kth/es=" + std::to_string(i);
        JsonMetric(section, "kth_score_and", kth(and_r));
        JsonMetric(section, "kth_score_or", kth(or_r));
        JsonMetric(section, "evaluated_and",
                   static_cast<double>(and_r.stats.queries_evaluated));
        JsonMetric(section, "evaluated_or",
                   static_cast<double>(or_r.stats.queries_evaluated));
      }
      if (and_agg.searches == 0) continue;
      auto row = [&](const char* semantics, const RunStats& a,
                     const std::string& ratio) {
        t12b.AddRow({ThreadsLabel(threads), datagen::EsBucketName(bucket),
                     semantics,
                     TablePrinter::Num(PerSearch(a, 1e3 * a.enum_seconds), 3),
                     TablePrinter::Num(PerSearch(a, 1e3 * a.eval_seconds), 3),
                     TablePrinter::Num(AvgTotalMs(a), 3), ratio});
        JsonRunStats(std::string("fig12b/threads=") + ThreadsLabel(threads) +
                         "/bucket=" + datagen::EsBucketName(bucket) +
                         "/semantics=" + semantics,
                     a);
      };
      row("AND", and_agg, "");
      row("OR", or_agg,
          TablePrinter::Num(AvgTotalMs(or_agg) / AvgTotalMs(and_agg), 2) +
              "x");
    }
  }
  t12b.Print();
  std::printf(
      "paper's shape: OR costs only modestly more — the full-column"
      " subset dominates the runtime.\n\n");
  std::printf("Figure 12(b) detail, serial: k-th score and candidates"
              " evaluated per ES\n");
  tkth.AddRow({"total", "", "", "", TablePrinter::Int(evaluated_and),
               TablePrinter::Int(evaluated_or)});
  JsonMetric("fig12b_kth/total", "evaluated_and",
             static_cast<double>(evaluated_and));
  JsonMetric("fig12b_kth/total", "evaluated_or",
             static_cast<double>(evaluated_or));
  tkth.Print();
  std::printf(
      "a higher OR k-th score lifts Algorithm 1's termination threshold,"
      " so OR can stop after fewer evaluations than AND.\n\n");

  std::printf("Figure 13: queries enumerated vs evaluated\n");
  TablePrinter t13({"threads", "strategy", "semantics", "enumerated/ES",
                    "evaluated/ES"});
  for (int32_t threads : thread_counts) {
    SearchOptions and_t = and_options;
    SearchOptions or_t = or_options;
    and_t.num_threads = or_t.num_threads = threads;
    RunStats naive_and, naive_or, fast_and, fast_or;
    for (const datagen::GeneratedEs& es : workload.es) {
      naive_and.Add(
          SearchNaive(*world->index, *world->graph, es.sheet, and_t).stats);
      naive_or.Add(
          SearchNaive(*world->index, *world->graph, es.sheet, or_t).stats);
      fast_and.Add(
          SearchFastTopK(*world->index, *world->graph, es.sheet, and_t)
              .stats);
      fast_or.Add(
          SearchFastTopK(*world->index, *world->graph, es.sheet, or_t).stats);
    }
    auto row = [&](const char* strat, const char* sem, const RunStats& a) {
      const double enumerated = PerSearch(a, a.queries_enumerated);
      const double evaluated = PerSearch(a, a.queries_evaluated);
      t13.AddRow({ThreadsLabel(threads), strat, sem,
                  TablePrinter::Num(enumerated, 1),
                  TablePrinter::Num(evaluated, 1)});
      const std::string section = "fig13/threads=" + ThreadsLabel(threads) +
                                  "/strategy=" + strat + "/semantics=" + sem;
      JsonMetric(section, "enumerated_per_es", enumerated);
      JsonMetric(section, "evaluated_per_es", evaluated);
    };
    row("Naive", "AND", naive_and);
    row("Naive", "OR", naive_or);
    row("FastTopK", "AND", fast_and);
    row("FastTopK", "OR", fast_or);
  }
  t13.Print();
  std::printf(
      "\npaper's shape: OR enumerates more queries than AND; FASTTOPK"
      " evaluates a small fraction of either.\n");
  return 0;
}
