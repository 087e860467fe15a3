// Reproduces Exp-VI: FASTTOPK's robustness to the batch growth factor
// epsilon. The paper reports negligible change across 0.2..2.0 thanks to
// caching-evaluation scheduling and the skipping condition.
#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace s4;
  using namespace s4::bench;

  JsonInit(argc, argv, "expvi_epsilon");
  PrintHeader("Exp-VI: varying batch factor epsilon",
              "CSUPP-sim; FASTTOPK only (epsilon does not affect"
              " BASELINE)");

  std::unique_ptr<World> world =
      CsuppWorld(static_cast<int32_t>(EnvInt("S4_BENCH_CSUPP_SCALE", 2)));
  const int32_t es_count =
      static_cast<int32_t>(EnvInt("S4_BENCH_ES_COUNT", 24));
  Workload workload = MakeWorkload(*world, es_count);

  TablePrinter tp({"epsilon", "FastTopK (ms)", "batches/ES",
                   "evaluated/ES", "skipped/ES"});
  for (double eps : {0.2, 0.4, 0.6, 0.8, 1.0, 2.0}) {
    SearchOptions options;
    options.enumeration.max_tree_size = 4;
    options.epsilon = eps;
    RunStats agg;
    for (const datagen::GeneratedEs& es : workload.es) {
      PreparedSearch prep(*world->index, *world->graph, es.sheet, options);
      SearchResult r = RunFastTopK(prep, options);
      agg.Add(r.stats);
    }
    tp.AddRow({TablePrinter::Num(eps, 1),
               TablePrinter::Num(AvgTotalMs(agg), 3),
               TablePrinter::Num(PerSearch(agg, agg.batches), 2),
               TablePrinter::Num(PerSearch(agg, agg.queries_evaluated), 1),
               TablePrinter::Num(PerSearch(agg, agg.skipped_by_condition),
                                 1)});
  }
  tp.Print();
  std::printf(
      "\npaper's shape: execution time is flat in epsilon — larger"
      " batches admit extra candidates, but the skipping condition"
      " prevents evaluating them.\n");
  return 0;
}
