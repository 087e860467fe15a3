// Ablations of the implementation's design choices (DESIGN.md):
//   (a) exact inner-join semantics vs the paper's drop-zero-rows Stage II
//       shortcut (speed vs score fidelity);
//   (b) FASTTOPK with a degenerate 1-byte cache budget vs the default
//       (isolates the benefit of sub-PJ caching from batching/skipping);
//   (c) cost-aware rooting (root join trees at the smallest relation)
//       vs pure signature rooting (how much sharing the rooting buys).
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace s4;
  using namespace s4::bench;

  JsonInit(argc, argv, "ablations");
  PrintHeader("Ablations of design choices",
              "CSUPP-sim, Table-2 defaults unless stated");

  std::unique_ptr<World> world =
      CsuppWorld(static_cast<int32_t>(EnvInt("S4_BENCH_CSUPP_SCALE", 2)));
  const int32_t es_count =
      static_cast<int32_t>(EnvInt("S4_BENCH_ES_COUNT", 20));
  Workload workload = MakeWorkload(*world, es_count);

  // (a) drop-zero-rows shortcut.
  {
    SearchOptions exact_opts;
    exact_opts.enumeration.max_tree_size = 4;
    SearchOptions drop_opts = exact_opts;
    drop_opts.drop_zero_rows = true;

    RunStats exact_agg, drop_agg;
    double max_score_delta = 0.0;
    int64_t changed_results = 0;
    for (const datagen::GeneratedEs& es : workload.es) {
      SearchResult exact =
          SearchFastTopK(*world->index, *world->graph, es.sheet, exact_opts);
      SearchResult drop =
          SearchFastTopK(*world->index, *world->graph, es.sheet, drop_opts);
      exact_agg.Add(exact.stats);
      drop_agg.Add(drop.stats);
      const size_t n = std::min(exact.topk.size(), drop.topk.size());
      for (size_t i = 0; i < n; ++i) {
        max_score_delta =
            std::max(max_score_delta,
                     std::fabs(exact.topk[i].score - drop.topk[i].score));
        if (exact.topk[i].query.signature() !=
            drop.topk[i].query.signature()) {
          ++changed_results;
        }
      }
    }
    std::printf("(a) exact join semantics vs drop-zero-rows shortcut\n");
    TablePrinter tp({"variant", "FastTopK (ms)", "model cost/ES"});
    for (const auto& [name, a] : {std::pair{"exact (default)", &exact_agg},
                                  std::pair{"drop-zero-rows", &drop_agg}}) {
      tp.AddRow({name, TablePrinter::Num(AvgTotalMs(*a), 3),
                 TablePrinter::Num(PerSearch(*a, a->model_cost), 0)});
    }
    tp.Print();
    std::printf("max |score delta| across top-k: %.4f;"
                " result swaps: %lld\n\n",
                max_score_delta, static_cast<long long>(changed_results));
  }

  // (b) cache budget.
  {
    SearchOptions with_cache;
    with_cache.enumeration.max_tree_size = 4;
    SearchOptions no_cache = with_cache;
    no_cache.cache_budget_bytes = 1;  // nothing fits

    RunStats with_agg, without_agg;
    for (const datagen::GeneratedEs& es : workload.es) {
      with_agg.Add(SearchFastTopK(*world->index, *world->graph, es.sheet,
                                  with_cache)
                       .stats);
      without_agg.Add(SearchFastTopK(*world->index, *world->graph, es.sheet,
                                     no_cache)
                          .stats);
    }
    std::printf("(b) FASTTOPK with vs without a usable cache\n");
    TablePrinter tp({"variant", "FastTopK (ms)", "cache hits/ES",
                     "critical subs/ES"});
    auto row = [&](const char* name, const RunStats& a) {
      tp.AddRow({name, TablePrinter::Num(AvgTotalMs(a), 3),
                 TablePrinter::Num(PerSearch(a, a.cache.hits),
                                   1),
                 TablePrinter::Num(PerSearch(a, a.critical_subs_cached),
                                   1)});
    };
    row("B = 500 MiB (default)", with_agg);
    row("B = 1 byte", without_agg);
    tp.Print();
    std::printf("\n");
  }

  // (c) rooting policy.
  {
    SearchOptions cheap_root;
    cheap_root.enumeration.max_tree_size = 4;
    SearchOptions sig_root = cheap_root;
    sig_root.enumeration.cost_aware_rooting = false;

    RunStats cheap_agg, sig_agg;
    for (const datagen::GeneratedEs& es : workload.es) {
      cheap_agg.Add(SearchFastTopK(*world->index, *world->graph, es.sheet,
                                   cheap_root)
                        .stats);
      sig_agg.Add(SearchFastTopK(*world->index, *world->graph, es.sheet,
                                 sig_root)
                      .stats);
    }
    std::printf("(c) join-tree rooting policy (affects sub-PJ sharing)\n");
    TablePrinter tp({"variant", "FastTopK (ms)", "cache hits/ES"});
    tp.AddRow({"cost-aware rooting (default)",
               TablePrinter::Num(AvgTotalMs(cheap_agg), 3),
               TablePrinter::Num(PerSearch(cheap_agg, cheap_agg.cache.hits),
                                 1)});
    tp.AddRow({"signature rooting",
               TablePrinter::Num(AvgTotalMs(sig_agg), 3),
               TablePrinter::Num(PerSearch(sig_agg, sig_agg.cache.hits),
                                 1)});
    tp.Print();
  }
  return 0;
}
