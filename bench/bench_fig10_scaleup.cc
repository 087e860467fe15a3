// Reproduces Exp-IIV / Figure 10: FASTTOPK execution time on ADVW-sim
// while (a) scaling up dimension tables with unreferenced copies and
// (b) scaling up fact tables with copies referencing the same dimension
// rows. (a) should grow slowly (only posting lists lengthen); (b) grows
// superlinearly (join/hash work dominates).
#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace s4;
  using namespace s4::bench;

  JsonInit(argc, argv, "fig10_scaleup");
  PrintHeader("Figure 10: ADVW-sim scale-up (Exp-IIV)",
              "per-point: rebuild database+indexes, run FASTTOPK over a"
              " fresh ES workload, report averages");

  const int32_t es_count =
      static_cast<int32_t>(EnvInt("S4_BENCH_ES_COUNT", 12));

  std::printf("Figure 10(a): scaling up dimension tables\n");
  TablePrinter ta({"dim scale", "dim rows", "fact rows", "FastTopK (ms)",
                   "postings read/ES"});
  for (int32_t scale : {1, 4, 16, 64, 256}) {
    std::unique_ptr<World> world = AdvwWorld(scale, 1);
    RunStats agg;
    datagen::EsGenOptions es_opts;
    Workload workload = MakeWorkload(*world, es_count, es_opts, 777, 5, 4);
    SearchOptions options;
    options.enumeration.max_tree_size = 4;
    for (const datagen::GeneratedEs& es : workload.es) {
      PreparedSearch prep(*world->index, *world->graph, es.sheet, options);
      SearchResult r = RunFastTopK(prep, options);
      agg.Add(r.stats);
    }
    ta.AddRow({TablePrinter::Int(scale),
               TablePrinter::Int(world->db.FindTable("DimProduct")
                                     ->NumRows()),
               TablePrinter::Int(world->db.FindTable("FactSales")
                                     ->NumRows()),
               TablePrinter::Num(AvgTotalMs(agg), 3),
               TablePrinter::Num(
                   PerSearch(agg, agg.counters.postings_scanned), 0)});
  }
  ta.Print();
  std::printf(
      "paper's shape: slow growth — only inverted-index retrieval grows;"
      " join cost is unchanged because facts reference only base rows.\n\n");

  std::printf("Figure 10(b): scaling up fact tables\n");
  TablePrinter tb({"fact scale", "dim rows", "fact rows", "FastTopK (ms)",
                   "hash ops/ES"});
  for (int32_t scale : {1, 2, 4, 8, 16}) {
    std::unique_ptr<World> world = AdvwWorld(1, scale);
    datagen::EsGenOptions es_opts;
    Workload workload = MakeWorkload(*world, es_count, es_opts, 777, 5, 4);
    SearchOptions options;
    options.enumeration.max_tree_size = 4;
    RunStats agg;
    for (const datagen::GeneratedEs& es : workload.es) {
      PreparedSearch prep(*world->index, *world->graph, es.sheet, options);
      SearchResult r = RunFastTopK(prep, options);
      agg.Add(r.stats);
    }
    tb.AddRow({TablePrinter::Int(scale),
               TablePrinter::Int(world->db.FindTable("DimProduct")
                                     ->NumRows()),
               TablePrinter::Int(world->db.FindTable("FactSales")
                                     ->NumRows()),
               TablePrinter::Num(AvgTotalMs(agg), 3),
               TablePrinter::Num(
                   PerSearch(agg, agg.counters.hash_lookups +
                                      agg.counters.hash_inserts),
                   0)});
  }
  tb.Print();
  std::printf(
      "paper's shape: much faster (superlinear) growth — hash-join work"
      " over the fact table dominates query processing.\n");
  return 0;
}
