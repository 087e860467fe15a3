// Reproduces Exp-V: varying the number of relationship errors injected
// into the example spreadsheets (0..5). More errors lower the top-k
// scores, delay termination condition (7), and increase evaluations.
#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace s4;
  using namespace s4::bench;

  JsonInit(argc, argv, "expv_errors");
  PrintHeader("Exp-V: varying #relationship errors",
              "CSUPP-sim; fresh ES set per error count, other parameters"
              " at Table-2 defaults");

  std::unique_ptr<World> world =
      CsuppWorld(static_cast<int32_t>(EnvInt("S4_BENCH_CSUPP_SCALE", 2)));
  const int32_t es_count =
      static_cast<int32_t>(EnvInt("S4_BENCH_ES_COUNT", 16));

  TablePrinter tp({"#errors", "Baseline (ms)", "FastTopK (ms)", "speedup",
                   "row-evals Baseline", "row-evals FastTopK",
                   "avg top-1 score"});
  for (int32_t errors = 0; errors <= 5; ++errors) {
    datagen::EsGenOptions es_opts;
    es_opts.relationship_errors = errors;
    Workload workload =
        MakeWorkload(*world, es_count, es_opts, /*seed=*/5000 + errors);

    SearchOptions options;
    options.enumeration.max_tree_size = 4;
    RunStats base_agg, fast_agg;
    double top1 = 0.0;
    int64_t top1_n = 0;
    for (const datagen::GeneratedEs& es : workload.es) {
      PreparedSearch prep(*world->index, *world->graph, es.sheet, options);
      base_agg.Add(RunBaseline(prep, options).stats);
      SearchResult fast = RunFastTopK(prep, options);
      fast_agg.Add(fast.stats);
      if (!fast.topk.empty()) {
        top1 += fast.topk[0].score;
        ++top1_n;
      }
    }
    tp.AddRow({TablePrinter::Int(errors),
               TablePrinter::Num(AvgTotalMs(base_agg), 3),
               TablePrinter::Num(AvgTotalMs(fast_agg), 3),
               TablePrinter::Num(
                   AvgTotalMs(base_agg) / AvgTotalMs(fast_agg), 2) +
                   "x",
               TablePrinter::Num(PerSearch(base_agg, base_agg.query_row_evals), 1),
               TablePrinter::Num(PerSearch(fast_agg, fast_agg.query_row_evals), 1),
               TablePrinter::Num(top1_n ? top1 / top1_n : 0.0, 2)});
  }
  tp.Print();
  std::printf(
      "\npaper's shape: evaluations grow significantly with errors (lower"
      " k-th score delays termination); FASTTOPK stays 2-6x ahead.\n");
  return 0;
}
