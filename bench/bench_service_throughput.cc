// Load generator for the concurrent service layer: N client threads
// issue blocking searches against one S4Service over one database, all
// rounds replaying the same ES workload so later requests can reuse
// sub-PJ relations another request already built (the cross-query
// cache). Reports QPS, p50/p95/p99/p99.9/max end-to-end latency,
// deadline-miss rate, and the cross-query cache hit rate.
//
// Two modes, sharing RunLoadGen with bench_net_throughput:
//   * closed loop (default): each client issues as fast as responses
//     return, so offered load self-throttles to capacity;
//   * open loop (S4_BENCH_ARRIVAL_QPS > 0): Poisson arrivals at a fixed
//     aggregate rate, latency measured from the scheduled arrival so
//     queueing delay shows in the tail (no coordinated omission).
//
// Knobs (environment): S4_BENCH_CLIENTS (8), S4_BENCH_ROUNDS (3),
// S4_BENCH_ES_COUNT (10), S4_BENCH_CSUPP_SCALE (1), S4_BENCH_WORKERS
// (= clients), S4_BENCH_EVAL_THREADS (0 = hardware),
// S4_BENCH_ARRIVAL_QPS (0 = closed loop).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "service/s4_service.h"

int main(int argc, char** argv) {
  using namespace s4;
  using namespace s4::bench;

  JsonInit(argc, argv, "service_throughput");

  const int32_t clients =
      static_cast<int32_t>(EnvInt("S4_BENCH_CLIENTS", 8));
  const int32_t rounds = static_cast<int32_t>(EnvInt("S4_BENCH_ROUNDS", 3));
  const int32_t es_count =
      static_cast<int32_t>(EnvInt("S4_BENCH_ES_COUNT", 10));
  const double arrival_qps =
      static_cast<double>(EnvInt("S4_BENCH_ARRIVAL_QPS", 0));
  const bool open_loop = arrival_qps > 0.0;

  PrintHeader("Service throughput: concurrent clients, one S4Service",
              open_loop ? "CSUPP-sim; open loop (Poisson arrivals), "
                          "repeated workload"
                        : "CSUPP-sim; closed loop, repeated workload");

  std::unique_ptr<World> world =
      CsuppWorld(static_cast<int32_t>(EnvInt("S4_BENCH_CSUPP_SCALE", 1)));
  Workload workload = MakeWorkload(*world, es_count);

  auto system = S4System::Create(world->db);
  if (!system.ok()) {
    std::fprintf(stderr, "S4System::Create failed: %s\n",
                 system.status().ToString().c_str());
    return 1;
  }

  // Raw cells per ES, as a client would submit them.
  std::vector<std::vector<std::vector<std::string>>> requests;
  for (const datagen::GeneratedEs& es : workload.es) {
    std::vector<std::vector<std::string>> cells(
        static_cast<size_t>(es.sheet.NumRows()));
    for (int32_t r = 0; r < es.sheet.NumRows(); ++r) {
      for (int32_t c = 0; c < es.sheet.NumColumns(); ++c) {
        cells[static_cast<size_t>(r)].push_back(es.sheet.cell(r, c).raw);
      }
    }
    requests.push_back(std::move(cells));
  }
  if (requests.empty()) {
    std::fprintf(stderr, "empty workload\n");
    return 1;
  }

  ServiceOptions sopts;
  sopts.num_workers =
      static_cast<int32_t>(EnvInt("S4_BENCH_WORKERS", clients));
  sopts.eval_threads =
      static_cast<int32_t>(EnvInt("S4_BENCH_EVAL_THREADS", 0));
  sopts.max_queue = static_cast<size_t>(4 * clients);
  sopts.shared_cache_bytes = 64u << 20;
  S4Service service(**system, sopts);

  SearchOptions search_options;
  search_options.enumeration.max_tree_size = 4;

  LoadGenOptions gen;
  gen.clients = clients;
  gen.requests_per_client =
      rounds * static_cast<int32_t>(requests.size());
  gen.arrival_rate_qps = arrival_qps;
  const LoadGenResult run = RunLoadGen(gen, [&](int32_t c, int32_t i) {
    // Clients start at staggered offsets so distinct spreadsheets are in
    // flight together, like distinct users would be.
    ServiceRequest req;
    req.cells = requests[(static_cast<size_t>(i) + static_cast<size_t>(c)) %
                         requests.size()];
    req.options = search_options;
    return service.Search(std::move(req)).status();
  });
  const LatencyHistogram::Snapshot lat = service.latency();

  // Deadline probe: a handful of requests with a deadline no search can
  // meet, exercising the miss path (expired-while-queued or stopped at a
  // batch boundary) against the warm shared cache.
  int64_t probe_misses = 0;
  for (int32_t t = 0; t < clients; ++t) {
    ServiceRequest req;
    req.cells = requests[static_cast<size_t>(t) % requests.size()];
    req.options = search_options;
    req.options.deadline_seconds = 1e-6;
    auto result = service.Search(std::move(req));
    if (!result.ok() &&
        result.status().code() == StatusCode::kDeadlineExceeded) {
      ++probe_misses;
    }
  }

  const ServiceStats stats = service.stats();
  const int64_t total = run.ok + run.errors;
  const int64_t shared_lookups =
      stats.shared_cache.hits + stats.shared_cache.misses;
  const double hit_rate =
      shared_lookups > 0
          ? static_cast<double>(stats.shared_cache.hits) /
                static_cast<double>(shared_lookups)
          : 0.0;
  const double miss_rate =
      stats.accepted > 0 ? static_cast<double>(stats.deadline_misses) /
                               static_cast<double>(stats.accepted)
                         : 0.0;

  TablePrinter tp({"metric", "value"});
  tp.AddRow({"mode", open_loop ? "open loop" : "closed loop"});
  tp.AddRow({"clients", TablePrinter::Int(clients)});
  if (open_loop) {
    tp.AddRow({"arrival rate (QPS)", TablePrinter::Num(arrival_qps, 1)});
  }
  tp.AddRow({"requests", TablePrinter::Int(static_cast<long long>(total))});
  tp.AddRow({"errors", TablePrinter::Int(static_cast<long long>(run.errors))});
  tp.AddRow({"elapsed (s)", TablePrinter::Num(run.elapsed_seconds, 3)});
  tp.AddRow({"QPS", TablePrinter::Num(run.Qps(), 1)});
  tp.AddRow({"p50 (ms)",
             TablePrinter::Num(1e3 * run.latency.PercentileSeconds(0.50), 3)});
  tp.AddRow({"p95 (ms)",
             TablePrinter::Num(1e3 * run.latency.PercentileSeconds(0.95), 3)});
  tp.AddRow({"p99 (ms)",
             TablePrinter::Num(1e3 * run.latency.PercentileSeconds(0.99), 3)});
  tp.AddRow({"p99.9 (ms)",
             TablePrinter::Num(1e3 * run.latency.PercentileSeconds(0.999), 3)});
  tp.AddRow({"max (ms)", TablePrinter::Num(1e3 * run.latency.max_seconds, 3)});
  tp.AddRow({"mean (ms)", TablePrinter::Num(1e3 * run.latency.MeanSeconds(), 3)});
  tp.AddRow({"deadline misses",
             TablePrinter::Int(static_cast<long long>(stats.deadline_misses))});
  tp.AddRow({"deadline-miss rate", TablePrinter::Num(miss_rate, 4)});
  tp.AddRow({"cross-query hits",
             TablePrinter::Int(static_cast<long long>(stats.shared_cache.hits))});
  tp.AddRow({"cross-query hit rate", TablePrinter::Num(hit_rate, 4)});
  tp.AddRow({"shared cache peak (KiB)",
             TablePrinter::Int(static_cast<long long>(
                 stats.shared_cache.peak_bytes >> 10))});
  tp.Print();

  JsonMetric("service", "open_loop", open_loop ? 1.0 : 0.0);
  JsonMetric("service", "clients", static_cast<double>(clients));
  JsonMetric("service", "rounds", static_cast<double>(rounds));
  JsonMetric("service", "arrival_rate_qps", arrival_qps);
  JsonMetric("service", "es_count", static_cast<double>(requests.size()));
  JsonMetric("service", "requests", static_cast<double>(total));
  JsonMetric("service", "errors", static_cast<double>(run.errors));
  JsonMetric("service", "elapsed_s", run.elapsed_seconds);
  JsonMetric("service", "qps", run.Qps());
  // Client-observed latency (includes open-loop schedule slip) ...
  JsonLatency("service", run.latency);
  // ... and the service's own admission-to-completion view.
  JsonLatency("service_internal", lat);
  JsonMetric("service", "accepted", static_cast<double>(stats.accepted));
  JsonMetric("service", "rejected", static_cast<double>(stats.rejected));
  JsonMetric("service", "deadline_misses",
             static_cast<double>(stats.deadline_misses));
  JsonMetric("service", "deadline_miss_rate", miss_rate);
  JsonMetric("service", "deadline_probe_misses",
             static_cast<double>(probe_misses));
  JsonMetric("service", "cross_query_cache_hits",
             static_cast<double>(stats.shared_cache.hits));
  JsonMetric("service", "cross_query_cache_misses",
             static_cast<double>(stats.shared_cache.misses));
  JsonMetric("service", "cross_query_hit_rate", hit_rate);
  JsonMetric("service", "shared_cache_evictions",
             static_cast<double>(stats.shared_cache.evictions));
  JsonMetric("service", "shared_cache_peak_bytes",
             static_cast<double>(stats.shared_cache.peak_bytes));
  // Full registry snapshot (additive; the names above are unchanged).
  JsonMetricsSnapshot("registry", obs::MetricsRegistry::Global().Snapshot());

  std::printf(
      "\nexpected shape: hit rate grows with rounds (every spreadsheet"
      " after its first visit reuses shared sub-PJ relations); p99 stays"
      " bounded because admission control rejects rather than buffers."
      " Open loop additionally exposes queueing delay: past saturation"
      " the tail grows with offered rate instead of QPS.\n");
  return run.errors == 0 ? 0 : 1;
}
