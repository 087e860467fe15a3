// Google-benchmark micro-benchmarks of the individual operators the
// cost model (Eq. 12) assumes to be constant-time: tokenization, posting
// scans (Algorithm 1), hash-join evaluation, sub-PJ cache operations,
// candidate enumeration and index building — plus a hand-rolled
// build/probe comparison of the dense row-id SubQueryTable against the
// FlatMap64 hash layout it replaced.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "bench/bench_util.h"
#include "cache/flat_table.h"
#include "cache/subquery_cache.h"
#include "common/simd.h"
#include "common/timer.h"
#include "datagen/tpch_mini.h"
#include "enumerate/enumerator.h"
#include "exec/evaluator.h"

namespace {

using namespace s4;
using namespace s4::bench;

World& SharedWorld() {
  static World& world = *CsuppWorld(1).release();
  return world;
}

const datagen::GeneratedEs& SharedEs() {
  static const datagen::GeneratedEs& es = *[] {
    World& world = SharedWorld();
    datagen::EsGenerator gen(*world.index, *world.graph, 4242);
    Status st = gen.Init(6, 4);
    if (!st.ok()) abort();
    auto generated = gen.Generate();
    if (!generated.ok()) abort();
    return new datagen::GeneratedEs(std::move(generated).value());
  }();
  return es;
}

void BM_Tokenize(benchmark::State& state) {
  Tokenizer tok;
  const std::string text =
      "Quarterly revenue dashboard for the Pacific Northwest region 2015";
  for (auto _ : state) {
    benchmark::DoNotOptimize(tok.Tokenize(text));
  }
}
BENCHMARK(BM_Tokenize);

void BM_IndexBuildTpchMini(benchmark::State& state) {
  auto db = datagen::MakeTpchMini();
  if (!db.ok()) state.SkipWithError("db build failed");
  for (auto _ : state) {
    auto index = IndexSet::Build(*db);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_IndexBuildTpchMini);

void BM_ScoreContextBuild(benchmark::State& state) {
  World& world = SharedWorld();
  const datagen::GeneratedEs& es = SharedEs();
  for (auto _ : state) {
    ScoreContext ctx(*world.index, es.sheet, ScoreParams{});
    benchmark::DoNotOptimize(ctx);
  }
}
BENCHMARK(BM_ScoreContextBuild);

void BM_Enumerate(benchmark::State& state) {
  World& world = SharedWorld();
  const datagen::GeneratedEs& es = SharedEs();
  ScoreContext ctx(*world.index, es.sheet, ScoreParams{});
  EnumerationOptions opts;
  opts.max_tree_size = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EnumerateCandidates(*world.graph, ctx, opts));
  }
}
BENCHMARK(BM_Enumerate);

void BM_EvaluateQuery(benchmark::State& state) {
  World& world = SharedWorld();
  const datagen::GeneratedEs& es = SharedEs();
  ScoreContext ctx(*world.index, es.sheet, ScoreParams{});
  EnumerationOptions opts;
  opts.max_tree_size = 4;
  EnumerationResult r = EnumerateCandidates(*world.graph, ctx, opts);
  if (r.candidates.empty()) state.SkipWithError("no candidates");
  // Use the biggest candidate (join-heavy).
  const CandidateQuery* heaviest = &r.candidates[0];
  for (const CandidateQuery& c : r.candidates) {
    if (c.query.tree().size() > heaviest->query.tree().size()) {
      heaviest = &c;
    }
  }
  Evaluator ev(ctx);
  for (auto _ : state) {
    EvalCounters counters;
    benchmark::DoNotOptimize(
        ev.RowScores(heaviest->query, nullptr, &counters));
  }
}
BENCHMARK(BM_EvaluateQuery);

void BM_EvaluateQueryWarmCache(benchmark::State& state) {
  World& world = SharedWorld();
  const datagen::GeneratedEs& es = SharedEs();
  ScoreContext ctx(*world.index, es.sheet, ScoreParams{});
  EnumerationOptions opts;
  opts.max_tree_size = 4;
  EnumerationResult r = EnumerateCandidates(*world.graph, ctx, opts);
  if (r.candidates.empty()) state.SkipWithError("no candidates");
  const CandidateQuery* heaviest = &r.candidates[0];
  for (const CandidateQuery& c : r.candidates) {
    if (c.query.tree().size() > heaviest->query.tree().size()) {
      heaviest = &c;
    }
  }
  Evaluator ev(ctx);
  SubQueryCache cache(64u << 20);
  EvalCounters counters;
  EvalOptions eopts;
  eopts.offer_to_cache = true;
  ev.RowScores(heaviest->query, &cache, &counters, eopts);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ev.RowScores(heaviest->query, &cache, &counters, eopts));
  }
}
BENCHMARK(BM_EvaluateQueryWarmCache);

void BM_CacheAddGet(benchmark::State& state) {
  SubQueryCache cache(64u << 20);
  auto table = std::make_shared<SubQueryTable>(1000, 3);
  bool fresh = false;
  for (int i = 0; i < 1000; ++i) {
    double* row = table->UpsertScored(i, &fresh);
    row[0] = 1.0;
    row[1] = 2.0;
    row[2] = 3.0;
  }
  int i = 0;
  for (auto _ : state) {
    std::string key = "key" + std::to_string(i++ % 64);
    cache.Add(key, table);
    benchmark::DoNotOptimize(cache.Get(key));
  }
}
BENCHMARK(BM_CacheAddGet);

void BM_FullSearchFastTopK(benchmark::State& state) {
  World& world = SharedWorld();
  const datagen::GeneratedEs& es = SharedEs();
  SearchOptions options;
  options.enumeration.max_tree_size = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SearchFastTopK(*world.index, *world.graph, es.sheet, options));
  }
}
BENCHMARK(BM_FullSearchFastTopK);

// --- dense vs FlatMap64 SubQueryTable layout --------------------------

// The pre-dense SubQueryTable layout, kept here as the comparison
// reference: a FlatMap64 from join key to arena row (or the zero-score
// sentinel) plus the same arena, with its exact ByteSize.
struct FlatTable {
  static constexpr uint32_t kZeroRow = SubQueryTable::kZeroRow;
  int32_t num_es_rows = 0;
  FlatMap64 keys;
  std::vector<double> arena;

  const double* Find(int64_t key, bool* exists) const {
    const uint32_t row = keys.Find(key);
    *exists = row != FlatMap64::kNotFound;
    if (!*exists || row == kZeroRow) return nullptr;
    return arena.data() + static_cast<size_t>(row) * num_es_rows;
  }

  double* UpsertScored(int64_t key) {
    bool inserted = false;
    uint32_t* slot = keys.FindOrInsert(key, 0, &inserted);
    if (inserted || *slot == kZeroRow) {
      *slot = static_cast<uint32_t>(arena.size() /
                                    static_cast<size_t>(num_es_rows));
      arena.resize(arena.size() + static_cast<size_t>(num_es_rows), 0.0);
    }
    return arena.data() + static_cast<size_t>(*slot) * num_es_rows;
  }

  void InsertZero(int64_t key) {
    bool inserted = false;
    keys.FindOrInsert(key, kZeroRow, &inserted);
  }

  size_t ByteSize() const {
    return sizeof(FlatTable) + keys.ByteSize() +
           arena.capacity() * sizeof(double);
  }
};

// Build + probe microbenchmark over one (num_es_rows, fill)
// configuration: a domain of `domain_rows` rows of which a `fill`
// fraction joins, built in random key order, then probed at uniformly
// random domain rows (so `fill` is also the probe hit rate), like a
// Stage-II probe stream.
void RunDenseVsFlatConfig(int32_t num_es_rows, double fill,
                          int64_t domain_rows, int64_t num_probes,
                          TablePrinter* tp) {
  uint64_t state = 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(num_es_rows);
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<int64_t> keys(static_cast<size_t>(domain_rows));
  std::iota(keys.begin(), keys.end(), int64_t{0});
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[next() % i]);
  }
  keys.resize(static_cast<size_t>(fill * static_cast<double>(domain_rows)));
  const int64_t num_keys = static_cast<int64_t>(keys.size());
  std::vector<int64_t> probes(static_cast<size_t>(num_probes));
  for (int64_t& p : probes) {
    p = static_cast<int64_t>(next() % static_cast<uint64_t>(domain_rows));
  }

  // Build both layouts: every 8th key joins with all-zero scores.
  WallTimer dense_build_timer;
  SubQueryTable dense(domain_rows, num_es_rows);
  bool fresh = false;
  for (int64_t i = 0; i < num_keys; ++i) {
    if ((i & 7) == 0) {
      dense.InsertZero(keys[i]);
    } else {
      double* row = dense.UpsertScored(keys[i], &fresh);
      row[static_cast<size_t>(i) % num_es_rows] += 1.0;
    }
  }
  dense.ShrinkToFit();
  const double dense_build_ns =
      dense_build_timer.ElapsedSeconds() * 1e9 / static_cast<double>(num_keys);

  WallTimer flat_build_timer;
  FlatTable flat;
  flat.num_es_rows = num_es_rows;
  for (int64_t i = 0; i < num_keys; ++i) {
    if ((i & 7) == 0) {
      flat.InsertZero(keys[i]);
    } else {
      flat.UpsertScored(keys[i])[static_cast<size_t>(i) % num_es_rows] += 1.0;
    }
  }
  flat.arena.shrink_to_fit();
  const double flat_build_ns =
      flat_build_timer.ElapsedSeconds() * 1e9 / static_cast<double>(num_keys);

  // Probe both layouts, accumulating a checksum the optimizer cannot
  // drop; assert the layouts agree while at it.
  auto probe = [&](const auto& table, double* sum, int64_t* hits) {
    WallTimer timer;
    for (int64_t p : probes) {
      bool exists = false;
      const double* row = table.Find(p, &exists);
      *hits += exists ? 1 : 0;
      if (row != nullptr) *sum += row[0];
    }
    return timer.ElapsedSeconds() * 1e9 / static_cast<double>(num_probes);
  };
  double dense_sum = 0.0;
  double flat_sum = 0.0;
  int64_t dense_hits = 0;
  int64_t flat_hits = 0;
  const double dense_probe_ns = probe(dense, &dense_sum, &dense_hits);
  const double flat_probe_ns = probe(flat, &flat_sum, &flat_hits);
  if (dense_hits != flat_hits || dense_sum != flat_sum) {
    std::fprintf(stderr, "layout mismatch: dense %lld/%f flat %lld/%f\n",
                 static_cast<long long>(dense_hits), dense_sum,
                 static_cast<long long>(flat_hits), flat_sum);
    std::abort();
  }

  const double dense_bpk = static_cast<double>(dense.ByteSize()) /
                           static_cast<double>(dense.NumKeys());
  const double flat_bpk = static_cast<double>(flat.ByteSize()) /
                          static_cast<double>(flat.keys.size());
  tp->AddRow({std::to_string(num_es_rows), TablePrinter::Num(fill, 2),
              TablePrinter::Num(dense_probe_ns, 1),
              TablePrinter::Num(flat_probe_ns, 1),
              TablePrinter::Num(flat_probe_ns / dense_probe_ns, 2) + "x",
              TablePrinter::Num(dense_build_ns, 1),
              TablePrinter::Num(flat_build_ns, 1),
              TablePrinter::Num(dense_bpk, 1), TablePrinter::Num(flat_bpk, 1),
              TablePrinter::Num(100.0 * (1.0 - dense_bpk / flat_bpk), 1) +
                  "%"});
  const std::string section = "es_rows=" + std::to_string(num_es_rows) +
                              "/fill=" + TablePrinter::Num(fill, 2);
  JsonMetric(section, "dense_probe_ns", dense_probe_ns);
  JsonMetric(section, "flat_probe_ns", flat_probe_ns);
  JsonMetric(section, "probe_speedup", flat_probe_ns / dense_probe_ns);
  JsonMetric(section, "dense_build_ns", dense_build_ns);
  JsonMetric(section, "flat_build_ns", flat_build_ns);
  JsonMetric(section, "dense_bytes_per_key", dense_bpk);
  JsonMetric(section, "flat_bytes_per_key", flat_bpk);
}

void RunDenseVsFlat(bool smoke) {
  const int64_t domain_rows =
      EnvInt("S4_BENCH_FLAT_KEYS", smoke ? 20000 : 50000);
  const int64_t num_probes =
      EnvInt("S4_BENCH_FLAT_PROBES", smoke ? 200000 : 2000000);
  std::printf(
      "Dense row-id SubQueryTable vs FlatMap64 layout"
      " (%lld domain rows, %lld probes per config, simd=%s)\n",
      static_cast<long long>(domain_rows), static_cast<long long>(num_probes),
      simd::BackendName());
  TablePrinter tp({"es_rows", "fill", "dense ns/probe", "flat ns/probe",
                   "probe speedup", "dense ns/build", "flat ns/build",
                   "dense B/key", "flat B/key", "B/key saved"});
  for (int32_t es_rows : {1, 5, 20}) {
    for (double fill : {0.1, 0.5, 0.9}) {
      RunDenseVsFlatConfig(es_rows, fill, domain_rows, num_probes, &tp);
    }
  }
  tp.Print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const int remaining = s4::bench::JsonInit(argc, argv, "micro_operators");
  bool smoke = false;
  for (int i = 1; i < remaining; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  s4::bench::JsonMetric("config", "smoke", smoke ? 1.0 : 0.0);
  RunDenseVsFlat(smoke);
  if (smoke) return 0;  // CI gate: skip the google-benchmark section.
  int bench_argc = remaining;
  benchmark::Initialize(&bench_argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
