// Reproduces Exp-II / Figure 8: execution time of BASELINE vs FASTTOPK
// as the cache budget B varies, for the low and high term-frequency
// buckets. The paper sweeps 100..2000 MiB on a 95 GB database; the
// synthetic stand-in sweeps budgets proportional to its own sub-PJ
// table sizes so the same saturation shape appears.
#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace s4;
  using namespace s4::bench;
  using datagen::EsBucket;

  JsonInit(argc, argv, "fig8_cache_size");
  PrintHeader("Figure 8: varying cache size B (Exp-II)",
              "CSUPP-sim; BASELINE is cache-independent (flat line)");

  std::unique_ptr<World> world =
      CsuppWorld(static_cast<int32_t>(EnvInt("S4_BENCH_CSUPP_SCALE", 2)));
  const int32_t es_count =
      static_cast<int32_t>(EnvInt("S4_BENCH_ES_COUNT", 36));
  Workload workload = MakeWorkload(*world, es_count);

  const std::vector<size_t> budgets_kib = {16, 64, 256, 1024, 4096};

  for (EsBucket bucket : {EsBucket::kLow, EsBucket::kHigh}) {
    std::printf("bucket: %s\n", datagen::EsBucketName(bucket));
    TablePrinter tp({"B (KiB)", "Baseline (ms)", "FastTopK (ms)",
                     "speedup", "cache hits/ES", "critical subs/ES"});
    const std::vector<size_t> members = workload.InBucket(bucket);
    for (size_t kib : budgets_kib) {
      SearchOptions options;
      options.enumeration.max_tree_size = 4;
      options.cache_budget_bytes = kib << 10;
      RunStats base_agg, fast_agg;
      for (size_t i : members) {
        PreparedSearch prep(*world->index, *world->graph,
                            workload.es[i].sheet, options);
        base_agg.Add(RunBaseline(prep, options).stats);
        fast_agg.Add(RunFastTopK(prep, options).stats);
      }
      if (fast_agg.searches == 0) continue;
      tp.AddRow(
          {TablePrinter::Int(static_cast<long long>(kib)),
           TablePrinter::Num(AvgTotalMs(base_agg), 3),
           TablePrinter::Num(AvgTotalMs(fast_agg), 3),
           TablePrinter::Num(AvgTotalMs(base_agg) / AvgTotalMs(fast_agg),
                             2) +
               "x",
           TablePrinter::Num(PerSearch(fast_agg, fast_agg.cache.hits), 1),
           TablePrinter::Num(
               PerSearch(fast_agg, fast_agg.critical_subs_cached), 1)});
      const std::string section = std::string("bucket=") +
                                  datagen::EsBucketName(bucket) +
                                  "/B_kib=" + std::to_string(kib);
      JsonMetric(section, "baseline_ms", AvgTotalMs(base_agg));
      JsonMetric(section, "fasttopk_ms", AvgTotalMs(fast_agg));
      JsonRunStats(section, fast_agg);
    }
    tp.Print();
    std::printf("\n");
  }
  // Process-wide view of the same work, from the metrics registry the
  // strategies publish into (additive fields; the per-section metrics
  // above are unchanged).
  JsonMetricsSnapshot("registry", obs::MetricsRegistry::Global().Snapshot());

  std::printf(
      "paper's shape: FASTTOPK beats BASELINE at every budget; the gap"
      " widens with B until the shared sub-PJ outputs all fit.\n");
  return 0;
}
