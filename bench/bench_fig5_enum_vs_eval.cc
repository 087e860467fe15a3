// Reproduces Figure 5: average running time of "query enumeration +
// upper-bound computation" vs. "query evaluation", per PJ query, for the
// low/medium/high term-frequency buckets.
#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace s4;
  using namespace s4::bench;
  using datagen::EsBucket;

  JsonInit(argc, argv, "fig5_enum_vs_eval");
  PrintHeader("Figure 5: enumeration+upper-bound vs evaluation time",
              "per-PJ-query average microseconds on CSUPP-sim; NAIVE"
              " evaluates every candidate so both phases cover the same"
              " query set");

  std::unique_ptr<World> world =
      CsuppWorld(static_cast<int32_t>(EnvInt("S4_BENCH_CSUPP_SCALE", 2)));
  const int32_t es_count =
      static_cast<int32_t>(EnvInt("S4_BENCH_ES_COUNT", 24));
  Workload workload = MakeWorkload(*world, es_count);

  SearchOptions options;
  options.enumeration.max_tree_size = 4;

  TablePrinter tp({"bucket", "#ES", "enum+ub (us/query)",
                   "eval (us/query)", "enum share", "eval share"});
  for (EsBucket bucket :
       {EsBucket::kLow, EsBucket::kMedium, EsBucket::kHigh}) {
    RunStats agg;
    const std::vector<size_t> members = workload.InBucket(bucket);
    for (size_t i : members) {
      SearchResult r = SearchNaive(*world->index, *world->graph,
                                   workload.es[i].sheet, options);
      if (r.stats.queries_evaluated > 0) agg.Add(r.stats);
    }
    if (agg.queries_evaluated == 0) continue;
    const double queries = static_cast<double>(agg.queries_evaluated);
    const double e = 1e6 * agg.enum_seconds / queries;
    const double v = 1e6 * agg.eval_seconds / queries;
    tp.AddRow({datagen::EsBucketName(bucket),
               TablePrinter::Int(static_cast<long long>(members.size())),
               TablePrinter::Num(e, 2), TablePrinter::Num(v, 2),
               TablePrinter::Num(100.0 * e / (e + v), 2) + "%",
               TablePrinter::Num(100.0 * v / (e + v), 2) + "%"});
  }
  tp.Print();
  std::printf(
      "\npaper's shape: evaluation dominates (99%%+ for the high bucket);"
      " enumeration + upper bounds are a negligible fraction.\n");
  return 0;
}
