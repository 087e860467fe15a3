// Reproduces Exp-I: Figure 6 (average execution time of NAIVE vs
// BASELINE vs FASTTOPK, split into enumeration+upper-bound and
// evaluation, per term-frequency bucket) and Figure 7 (number of PJ
// query-row evaluations per strategy and bucket). Both run serially
// (the paper's setting) and at num_threads = 0 (one thread per core).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"

int main(int argc, char** argv) {
  using namespace s4;
  using namespace s4::bench;
  using datagen::EsBucket;

  JsonInit(argc, argv, "fig6_fig7_strategies");
  PrintHeader("Figures 6-7: strategy comparison (Exp-I)",
              "CSUPP-sim, Table-2 defaults: k=10, alpha=0.8, eps=0.6,"
              " 2 relationship errors");

  std::unique_ptr<World> world =
      CsuppWorld(static_cast<int32_t>(EnvInt("S4_BENCH_CSUPP_SCALE", 2)));
  const int32_t es_count =
      static_cast<int32_t>(EnvInt("S4_BENCH_ES_COUNT", 24));
  Workload workload = MakeWorkload(*world, es_count);

  SearchOptions options;
  options.enumeration.max_tree_size = 4;

  // num_threads as run: serially and one thread per core.
  const int32_t thread_counts[2] = {1, 0};
  JsonThreads({1, ThreadPool::DefaultThreads()});

  const char* strategy_names[3] = {"Naive", "Baseline", "FastTopK"};
  // cells[t][s][b]: summed stats at thread_counts[t], strategy s, bucket b.
  RunStats cells[2][3][3];
  for (int t = 0; t < 2; ++t) {
    SearchOptions topt = options;
    topt.num_threads = thread_counts[t];
    for (size_t i = 0; i < workload.es.size(); ++i) {
      const int b = static_cast<int>(workload.buckets[i]);
      PreparedSearch prep(*world->index, *world->graph, workload.es[i].sheet,
                          topt);
      cells[t][0][b].Add(RunNaive(prep, topt).stats);
      cells[t][1][b].Add(RunBaseline(prep, topt).stats);
      cells[t][2][b].Add(RunFastTopK(prep, topt).stats);
    }
  }

  std::printf("Figure 6: average execution time (ms)\n");
  TablePrinter t6({"threads", "bucket", "strategy", "enum+ub (ms)",
                   "eval (ms)", "total (ms)", "speedup vs naive",
                   "speedup vs baseline"});
  for (int t = 0; t < 2; ++t) {
    const std::string label = ThreadsLabel(thread_counts[t]);
    for (int b = 0; b < 3; ++b) {
      const double naive_total = AvgTotalMs(cells[t][0][b]);
      const double baseline_total = AvgTotalMs(cells[t][1][b]);
      const std::string bucket =
          datagen::EsBucketName(static_cast<EsBucket>(b));
      for (int s = 0; s < 3; ++s) {
        const RunStats& a = cells[t][s][b];
        if (a.searches == 0) continue;
        t6.AddRow({label, bucket, strategy_names[s],
                   TablePrinter::Num(PerSearch(a, 1e3 * a.enum_seconds), 3),
                   TablePrinter::Num(PerSearch(a, 1e3 * a.eval_seconds), 3),
                   TablePrinter::Num(AvgTotalMs(a), 3),
                   TablePrinter::Num(naive_total / AvgTotalMs(a), 2) + "x",
                   TablePrinter::Num(baseline_total / AvgTotalMs(a), 2) +
                       "x"});
        JsonRunStats("threads=" + label + "/bucket=" + bucket +
                         "/strategy=" + strategy_names[s],
                     a);
      }
    }
  }
  t6.Print();

  std::printf(
      "\nFigure 7: PJ query-row evaluations (avg per ES; NAIVE has no"
      " upper-bound pruning)\n");
  TablePrinter t7({"threads", "bucket", "Naive", "Baseline", "FastTopK",
                   "enumerated"});
  for (int t = 0; t < 2; ++t) {
    for (int b = 0; b < 3; ++b) {
      const RunStats& naive = cells[t][0][b];
      if (naive.searches == 0) continue;
      std::vector<std::string> row{
          ThreadsLabel(thread_counts[t]),
          datagen::EsBucketName(static_cast<EsBucket>(b))};
      for (int s = 0; s < 3; ++s) {
        const RunStats& a = cells[t][s][b];
        row.push_back(TablePrinter::Num(PerSearch(a, a.query_row_evals), 1));
      }
      row.push_back(
          TablePrinter::Num(PerSearch(naive, naive.queries_enumerated), 1));
      t7.AddRow(std::move(row));
    }
  }
  t7.Print();
  std::printf(
      "\npaper's shape: FASTTOPK beats NAIVE by ~5-11x and BASELINE by"
      " ~1.5-5x; BASELINE/FASTTOPK evaluate far fewer queries than"
      " NAIVE.\n");

  // Thread-count sweep over the Stage-II evaluation path: FASTTOPK on
  // the whole workload at 1/2/4/8 evaluation threads. The top-k score
  // checksum must be identical at every thread count (Thm 3 preserved
  // by the batch-boundary merge); the speedup column is only meaningful
  // on a machine with that many hardware threads.
  const int32_t max_threads =
      static_cast<int32_t>(EnvInt("S4_BENCH_THREADS_MAX", 8));
  std::printf("\nThread sweep: FASTTOPK evaluation (whole workload)\n");
  TablePrinter tt({"threads", "eval (ms)", "speedup vs 1T",
                   "topk score checksum"});
  double serial_eval_ms = 0.0;
  for (int32_t threads = 1; threads <= max_threads; threads *= 2) {
    SearchOptions topt = options;
    topt.num_threads = threads;
    double eval_ms = 0.0;
    double checksum = 0.0;
    for (size_t i = 0; i < workload.es.size(); ++i) {
      PreparedSearch prep(*world->index, *world->graph,
                          workload.es[i].sheet, topt);
      SearchResult r = RunFastTopK(prep, topt);
      eval_ms += r.stats.eval_seconds * 1e3;
      for (const ScoredQuery& sq : r.topk) checksum += sq.score;
    }
    if (threads == 1) serial_eval_ms = eval_ms;
    tt.AddRow({std::to_string(threads), TablePrinter::Num(eval_ms, 3),
               TablePrinter::Num(serial_eval_ms / eval_ms, 2) + "x",
               TablePrinter::Num(checksum, 6)});
    const std::string section =
        "thread_sweep/threads=" + std::to_string(threads);
    JsonMetric(section, "eval_ms", eval_ms);
    JsonMetric(section, "topk_score_checksum", checksum);
  }
  tt.Print();

  // Process-wide counters the strategies published while the tables
  // above ran — additive fields, per-section metrics unchanged.
  JsonMetricsSnapshot("registry", obs::MetricsRegistry::Global().Snapshot());

  std::printf(
      "\nhardware threads on this machine: %d (speedups flatten beyond"
      " that)\n",
      ThreadPool::DefaultThreads());
  return 0;
}
