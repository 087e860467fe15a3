// Reproduces Appendix A.3's experiments: Figure 12(a) (set difference
// between AND- and OR-semantics result sets as k varies), Figure 12(b)
// (execution time of the two), and Figure 13 (queries enumerated vs
// evaluated under both semantics for NAIVE and FASTTOPK).
#include <cstdio>
#include <set>

#include "common/string_util.h"

#include "bench/bench_util.h"
#include "strategy/or_semantics.h"

int main(int argc, char** argv) {
  using namespace s4;
  using namespace s4::bench;
  using datagen::EsBucket;

  JsonInit(argc, argv, "fig12_fig13_or_semantics");
  PrintHeader("Figures 12-13: AND vs OR column mapping (App A.3)",
              "CSUPP-sim; OR = aggregate FASTTOPK over all non-empty"
              " column subsets");

  std::unique_ptr<World> world =
      CsuppWorld(static_cast<int32_t>(EnvInt("S4_BENCH_CSUPP_SCALE", 1)));
  const int32_t es_count =
      static_cast<int32_t>(EnvInt("S4_BENCH_ES_COUNT", 12));
  Workload workload = MakeWorkload(*world, es_count);

  std::printf("Figure 12(a): avg |top-k(AND) \\ top-k(OR)| per ES\n");
  TablePrinter t12a({"k", "avg set difference", "identical result sets"});
  for (int32_t k : {5, 10, 20, 50}) {
    SearchOptions options;
    options.enumeration.max_tree_size = 4;
    options.k = k;
    double diff_sum = 0.0;
    int identical = 0;
    for (const datagen::GeneratedEs& es : workload.es) {
      SearchResult and_r =
          SearchFastTopK(*world->index, *world->graph, es.sheet, options);
      SearchResult or_r = SearchOrSemantics(*world->index, *world->graph,
                                            es.sheet, options);
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
    t12a.AddRow({TablePrinter::Int(k),
                 TablePrinter::Num(diff_sum / workload.es.size(), 2),
                 StrFormat("%d/%zu", identical, workload.es.size())});
  }
  t12a.Print();
  std::printf(
      "paper's shape: for small k the result sets barely differ — full"
      " mappings dominate the ranking even under OR semantics.\n\n");

  std::printf("Figure 12(b): execution time AND vs OR per bucket\n");
  TablePrinter t12b({"bucket", "semantics", "enum+ub (ms)", "eval (ms)",
                     "total (ms)"});
  SearchOptions options;
  options.enumeration.max_tree_size = 4;
  for (EsBucket bucket :
       {EsBucket::kLow, EsBucket::kMedium, EsBucket::kHigh}) {
    RunStats and_agg, or_agg, direct_agg;
    for (size_t i : workload.InBucket(bucket)) {
      and_agg.Add(SearchFastTopK(*world->index, *world->graph,
                                 workload.es[i].sheet, options)
                      .stats);
      or_agg.Add(SearchOrSemantics(*world->index, *world->graph,
                                   workload.es[i].sheet, options)
                     .stats);
      direct_agg.Add(SearchOrSemantics(*world->index, *world->graph,
                                       workload.es[i].sheet, options,
                                       OrStrategy::kDirect)
                         .stats);
    }
    // One AND run per ES; an OR search folds one run per column subset,
    // so every row is averaged per ES, not per run.
    const double n = static_cast<double>(and_agg.searches);
    if (n == 0) continue;
    auto row = [&](const char* semantics, const RunStats& a) {
      t12b.AddRow({datagen::EsBucketName(bucket), semantics,
                   TablePrinter::Num(1e3 * a.enum_seconds / n, 3),
                   TablePrinter::Num(1e3 * a.eval_seconds / n, 3),
                   TablePrinter::Num(
                       1e3 * (a.enum_seconds + a.eval_seconds) / n, 3)});
    };
    row("AND", and_agg);
    row("OR (subsets)", or_agg);
    row("OR (direct)", direct_agg);
  }
  t12b.Print();
  std::printf(
      "paper's shape: OR costs only modestly more — the full-column"
      " subset dominates the runtime.\n\n");

  std::printf("Figure 13: queries enumerated vs evaluated\n");
  TablePrinter t13({"strategy", "semantics", "enumerated/ES",
                    "evaluated/ES"});
  RunStats naive_and, naive_or, fast_and, fast_or;
  for (const datagen::GeneratedEs& es : workload.es) {
    naive_and.Add(
        SearchNaive(*world->index, *world->graph, es.sheet, options).stats);
    naive_or.Add(SearchOrSemantics(*world->index, *world->graph, es.sheet,
                                   options, OrStrategy::kNaive)
                     .stats);
    fast_and.Add(
        SearchFastTopK(*world->index, *world->graph, es.sheet, options)
            .stats);
    fast_or.Add(SearchOrSemantics(*world->index, *world->graph, es.sheet,
                                  options, OrStrategy::kFastTopK)
                    .stats);
  }
  const double n = static_cast<double>(workload.es.size());
  auto row = [&](const char* strat, const char* sem, const RunStats& a) {
    t13.AddRow({strat, sem,
                TablePrinter::Num(static_cast<double>(a.queries_enumerated) / n,
                                  1),
                TablePrinter::Num(static_cast<double>(a.queries_evaluated) / n,
                                  1)});
  };
  row("Naive", "AND", naive_and);
  row("Naive", "OR", naive_or);
  row("FastTopK", "AND", fast_and);
  row("FastTopK", "OR", fast_or);
  t13.Print();
  std::printf(
      "\npaper's shape: OR enumerates more queries than AND; FASTTOPK"
      " evaluates a small fraction of either.\n");
  return 0;
}
