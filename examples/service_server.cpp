// Service server: one long-lived S4Service shared by many concurrent
// "users" of the Figure-1 database — the deployment shape of a real S4
// installation (one index, many spreadsheets in flight).
//
// Demonstrates the full service surface:
//   * concurrent one-shot searches sharing the evaluation pool and the
//     cross-query sub-PJ cache (the second wave of identical requests
//     hits relations the first wave built);
//   * priorities and admission control (a burst beyond the queue bound
//     is rejected with ResourceExhausted, not buffered);
//   * deadlines and cancellation (a doomed request fails fast with
//     DeadlineExceeded and never corrupts shared state).
#include <cstdio>
#include <thread>
#include <vector>

#include "datagen/tpch_mini.h"
#include "obs/metrics.h"
#include "service/s4_service.h"

int main() {
  using namespace s4;

  auto db = datagen::MakeTpchMini();
  if (!db.ok()) {
    std::fprintf(stderr, "failed to build database: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  auto system = S4System::Create(*db);
  if (!system.ok()) {
    std::fprintf(stderr, "failed to build indexes: %s\n",
                 system.status().ToString().c_str());
    return 1;
  }

  ServiceOptions sopts;
  sopts.num_workers = 4;
  sopts.max_queue = 32;
  S4Service service(**system, sopts);

  const std::vector<std::vector<std::vector<std::string>>> sheets = {
      {{"Rick", "USA", "Xbox"}, {"Julie", "", "iPhone"}, {"Kevin", "Canada", ""}},
      {{"Rick", "USA"}, {"Kevin", "Canada"}},
      {{"Julie", "iPhone"}, {"Rick", "Xbox"}},
  };

  // --- many users, one service ----------------------------------------
  constexpr int kClients = 6;
  constexpr int kRounds = 2;
  std::vector<std::thread> clients;
  std::vector<int> ok_counts(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t s = 0; s < sheets.size(); ++s) {
          ServiceRequest req;
          req.cells = sheets[(s + static_cast<size_t>(c)) % sheets.size()];
          req.priority = c % 2;  // alternate users get priority
          if (service.Search(std::move(req)).ok()) ++ok_counts[c];
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  int total_ok = 0;
  for (int n : ok_counts) total_ok += n;

  ServiceStats stats = service.stats();
  std::printf("served %d searches from %d concurrent clients\n", total_ok,
              kClients);
  std::printf("cross-query cache: %lld hits / %lld misses (%.0f%% hit rate)\n",
              static_cast<long long>(stats.shared_cache.hits),
              static_cast<long long>(stats.shared_cache.misses),
              100.0 * static_cast<double>(stats.shared_cache.hits) /
                  static_cast<double>(stats.shared_cache.hits +
                                      stats.shared_cache.misses));
  // Admission-to-completion latency of every request the service ran;
  // the registry is process-wide, and this is the only service here.
  const LatencyHistogram::Snapshot lat =
      obs::MetricsRegistry::Global()
          .GetHistogram("s4_request_latency_seconds")
          .Snapshot();
  std::printf("latency: p50=%.2fms p95=%.2fms p99=%.2fms\n\n",
              1e3 * lat.PercentileSeconds(0.50),
              1e3 * lat.PercentileSeconds(0.95),
              1e3 * lat.PercentileSeconds(0.99));

  // --- deadlines fail fast, cleanly ------------------------------------
  ServiceRequest doomed;
  doomed.cells = sheets[0];
  doomed.options.deadline_seconds = 1e-9;
  auto missed = service.Search(std::move(doomed));
  std::printf("1ns-deadline request: %s\n",
              missed.status().ToString().c_str());

  // --- cancellation via the ticket -------------------------------------
  service.Pause();  // hold the queue so the cancel provably wins the race
  ServiceRequest abandoned;
  abandoned.cells = sheets[0];
  auto ticket = service.Submit(std::move(abandoned));
  if (ticket.ok()) {
    ticket->stop->Cancel();
    service.Resume();
    std::printf("cancelled request:    %s\n",
                ticket->result.get().status().ToString().c_str());
  }

  stats = service.stats();
  std::printf(
      "\nfinal counters: accepted=%lld completed=%lld deadline_misses=%lld"
      " cancelled=%lld rejected=%lld\n",
      static_cast<long long>(stats.accepted),
      static_cast<long long>(stats.completed),
      static_cast<long long>(stats.deadline_misses),
      static_cast<long long>(stats.cancelled),
      static_cast<long long>(stats.rejected));
  return 0;
}
