// Reproduces Exp-III / Figure 9(a) (varying the score weight alpha) and
// Exp-IV / Figure 9(b) (varying k), BASELINE vs FASTTOPK on the medium
// term-frequency bucket.
#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace s4;
  using namespace s4::bench;
  using datagen::EsBucket;

  JsonInit(argc, argv, "fig9_alpha_k");
  PrintHeader("Figure 9: varying alpha (Exp-III) and k (Exp-IV)",
              "CSUPP-sim, medium bucket; other parameters at Table-2"
              " defaults");

  std::unique_ptr<World> world =
      CsuppWorld(static_cast<int32_t>(EnvInt("S4_BENCH_CSUPP_SCALE", 2)));
  const int32_t es_count =
      static_cast<int32_t>(EnvInt("S4_BENCH_ES_COUNT", 24));
  Workload workload = MakeWorkload(*world, es_count);
  const std::vector<size_t> members =
      workload.InBucket(EsBucket::kMedium);

  auto run_point = [&](const SearchOptions& options, RunStats* base_agg,
                       RunStats* fast_agg) {
    for (size_t i : members) {
      PreparedSearch prep(*world->index, *world->graph,
                          workload.es[i].sheet, options);
      base_agg->Add(RunBaseline(prep, options).stats);
      fast_agg->Add(RunFastTopK(prep, options).stats);
    }
  };

  std::printf("Figure 9(a): varying alpha\n");
  TablePrinter ta({"alpha", "Baseline (ms)", "FastTopK (ms)", "speedup",
                   "row-evals Baseline", "row-evals FastTopK"});
  for (double alpha : {0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    SearchOptions options;
    options.enumeration.max_tree_size = 4;
    options.score.alpha = alpha;
    RunStats base_agg, fast_agg;
    run_point(options, &base_agg, &fast_agg);
    if (fast_agg.searches == 0) continue;
    ta.AddRow({TablePrinter::Num(alpha, 1),
               TablePrinter::Num(AvgTotalMs(base_agg), 3),
               TablePrinter::Num(AvgTotalMs(fast_agg), 3),
               TablePrinter::Num(
                   AvgTotalMs(base_agg) / AvgTotalMs(fast_agg), 2) +
                   "x",
               TablePrinter::Num(PerSearch(base_agg, base_agg.query_row_evals), 1),
               TablePrinter::Num(PerSearch(fast_agg, fast_agg.query_row_evals), 1)});
  }
  ta.Print();
  std::printf(
      "paper's shape: larger alpha loosens the upper bound (it is"
      " proportional to score_col), so both strategies evaluate more and"
      " slow down; FASTTOPK stays ahead at every alpha.\n\n");

  std::printf("Figure 9(b): varying k\n");
  TablePrinter tk({"k", "Baseline (ms)", "FastTopK (ms)", "speedup",
                   "row-evals Baseline", "row-evals FastTopK"});
  for (int32_t k : {5, 10, 20, 50, 100}) {
    SearchOptions options;
    options.enumeration.max_tree_size = 4;
    options.k = k;
    RunStats base_agg, fast_agg;
    run_point(options, &base_agg, &fast_agg);
    if (fast_agg.searches == 0) continue;
    tk.AddRow({TablePrinter::Int(k),
               TablePrinter::Num(AvgTotalMs(base_agg), 3),
               TablePrinter::Num(AvgTotalMs(fast_agg), 3),
               TablePrinter::Num(
                   AvgTotalMs(base_agg) / AvgTotalMs(fast_agg), 2) +
                   "x",
               TablePrinter::Num(PerSearch(base_agg, base_agg.query_row_evals), 1),
               TablePrinter::Num(PerSearch(fast_agg, fast_agg.query_row_evals), 1)});
  }
  tk.Print();
  std::printf(
      "paper's shape: both strategies evaluate more queries as k grows;"
      " shared evaluation keeps FASTTOPK ~3-4x ahead.\n");
  return 0;
}
