// Network server over the movie dataset: builds the IMDB-sim database,
// wraps it in an S4Service, and serves the S4 wire protocol on loopback
// so examples/net_client (or any wire-speaking client) can discover
// queries from another process.
//
//   ./net_server --port 4321        # serve until stdin closes
//   ./net_server --port 4321 --live # accept kMutateRequest writes too
//   ./net_server --port 4321 --trace --verbose --stats-port 9090
//   ./net_server --self-test       # start, round-trip one search
//                                  # (and, with --live, one write)
//                                  # through a real socket, exit
//
// Observability flags:
//   --trace        keep per-request Chrome-trace JSON, retrievable with
//                  net_client --trace-out (or a kTraceRequest frame)
//   --verbose      one-line summary per completed request on stderr
//   --stats-port P plain-text scrape endpoint (curl P/metrics) serving
//                  the Prometheus dump of the metrics registry
//   --slow-log     keep the 32 slowest requests (any latency qualifies;
//                  tune in code via ServiceOptions), dumped as JSON by
//                  net_client --slow-log (or a kSlowLogRequest frame)
//
// The self-test mode is what ctest runs: it crosses the full stack
// (framing, epoll loops, admission queue, completion marshalling, the
// stats/trace wire surface) in a few seconds with no free port or
// second process required.
#include <cstdio>
#include <cstring>
#include <string>

#include "datagen/synthetic.h"
#include "live/live_s4.h"
#include "net/client.h"
#include "net/server.h"
#include "net/stats_endpoint.h"
#include "service/s4_service.h"

int main(int argc, char** argv) {
  using namespace s4;

  uint16_t port = 4321;
  int stats_port = -1;  // <0 = disabled; 0 = kernel-assigned
  bool self_test = false;
  bool trace = false;
  bool verbose = false;
  bool live = false;
  bool slow_log = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-test") == 0) {
      self_test = true;
      port = 0;  // kernel-assigned; nothing else needs to know it
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--stats-port") == 0 && i + 1 < argc) {
      stats_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else if (std::strcmp(argv[i], "--live") == 0) {
      live = true;
    } else if (std::strcmp(argv[i], "--slow-log") == 0) {
      slow_log = true;
    }
  }
  if (self_test) {
    // The self-test exercises every observability surface.
    trace = true;
    verbose = true;
    slow_log = true;
    if (stats_port < 0) stats_port = 0;
  }

  std::printf("building the movie database + indexes...\n");
  auto db = datagen::MakeImdbSim();
  if (!db.ok()) {
    std::fprintf(stderr, "dataset: %s\n", db.status().ToString().c_str());
    return 1;
  }

  ServiceOptions sopts;
  sopts.num_workers = 2;
  sopts.max_queue = 32;
  if (slow_log) {
    // Threshold 0: every completed request competes for a ring slot, so
    // the log is always the 32 slowest seen. Production deployments
    // would set a real threshold (say 0.1s) to skip the fast majority.
    sopts.slow_log_size = 32;
    sopts.slow_log_threshold_seconds = 0.0;
  }

  // --live hands the database to a LiveS4System (epoch-publishing,
  // accepts kMutateRequest); otherwise a plain immutable S4System.
  std::unique_ptr<S4System> system;
  std::unique_ptr<LiveS4System> live_system;
  std::unique_ptr<S4Service> service;
  const Database* served_db = nullptr;
  if (live) {
    auto ls = LiveS4System::Create(std::move(*db));
    if (!ls.ok()) {
      std::fprintf(stderr, "indexes: %s\n", ls.status().ToString().c_str());
      return 1;
    }
    live_system = std::move(*ls);
    served_db = &live_system->db();
    service = std::make_unique<S4Service>(*live_system, sopts);
  } else {
    auto sys = S4System::Create(*db);
    if (!sys.ok()) {
      std::fprintf(stderr, "indexes: %s\n",
                   sys.status().ToString().c_str());
      return 1;
    }
    system = std::move(*sys);
    served_db = &*db;
    service = std::make_unique<S4Service>(*system, sopts);
  }

  net::ServerOptions nopts;
  nopts.port = port;
  nopts.enable_tracing = trace;
  nopts.verbose = verbose;
  net::S4Server server(service.get(), nopts);
  if (Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "server: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("serving the S4 wire protocol on 127.0.0.1:%u%s%s%s%s\n",
              server.port(), live ? " [live]" : "",
              trace ? " [tracing]" : "", verbose ? " [verbose]" : "",
              slow_log ? " [slow-log]" : "");

  net::StatsTextServer stats_server;
  if (stats_port >= 0) {
    if (Status st = stats_server.Start(
            "127.0.0.1", static_cast<uint16_t>(stats_port),
            [&server] { return server.CollectStatsText(); });
        !st.ok()) {
      std::fprintf(stderr, "stats endpoint: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("metrics scrape endpoint on 127.0.0.1:%u\n",
                stats_server.port());
  }

  if (self_test) {
    // Borrow a movie title and an actor the database is known to hold,
    // exactly like net_client would type them.
    const Table* movie = served_db->FindTable("Movie");
    const Table* person = served_db->FindTable("Person");
    const std::string title = movie->GetText(0, 1);
    const std::string actor = person->GetText(3, 1);
    std::printf("self-test: searching for {\"%s\", \"%s\"}\n", title.c_str(),
                actor.c_str());

    net::ClientOptions copts;
    copts.port = server.port();
    net::S4Client client(copts);
    if (Status st = client.Ping(); !st.ok()) {
      std::fprintf(stderr, "ping: %s\n", st.ToString().c_str());
      return 1;
    }
    SearchOptions options;
    options.k = 3;
    uint64_t request_id = 0;
    net::NetSearchRequest req = net::NetSearchRequest::From(
        {{title, actor}}, options, S4System::Strategy::kFastTopK);
    req.want_profile = true;
    auto result = client.Search(req, &request_id);
    if (!result.ok()) {
      std::fprintf(stderr, "search: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("got %zu queries in %.1f ms server time; best:\n%s\n",
                result->topk.size(), 1e3 * result->server_seconds,
                result->topk.empty() ? "(none)"
                                     : result->topk[0].sql.c_str());

    // The timing envelope must come back beside the response's RunStats
    // (one record from one finished run).
    if (!result->has_profile) {
      std::fprintf(stderr, "response is missing the requested profile\n");
      return 1;
    }
    const obs::QueryProfile& prof = result->profile;
    if (result->stats.searches != 1 || prof.total_seconds <= 0.0 ||
        prof.total_seconds < prof.queue_seconds) {
      std::fprintf(stderr,
                   "profile does not reconcile: %lld runs, total=%.6f "
                   "queue=%.6f\n",
                   static_cast<long long>(result->stats.searches),
                   prof.total_seconds, prof.queue_seconds);
      return 1;
    }
    std::printf("profile: total=%.3f ms (queued %.3f ms), %lld evaluated\n",
                1e3 * prof.total_seconds, 1e3 * prof.queue_seconds,
                static_cast<long long>(result->stats.queries_evaluated));

    // Stats over the wire must reflect the search that just completed.
    auto stats = client.Stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "stats: %s\n", stats.status().ToString().c_str());
      return 1;
    }
    if (stats->find("s4_candidates_evaluated_total") == std::string::npos ||
        stats->find("s4_searches_total") == std::string::npos) {
      std::fprintf(stderr, "stats dump is missing search counters:\n%s\n",
                   stats->c_str());
      return 1;
    }
    std::printf("stats dump: %zu bytes of Prometheus text\n", stats->size());

    // The trace for that request must come back as Chrome-trace JSON
    // with the spans the wire path is responsible for.
    auto trace_json = client.FetchTrace(request_id);
    if (!trace_json.ok()) {
      std::fprintf(stderr, "trace: %s\n",
                   trace_json.status().ToString().c_str());
      return 1;
    }
    if (trace_json->find("\"traceEvents\"") == std::string::npos ||
        trace_json->find("frame_decode") == std::string::npos ||
        trace_json->find("evaluate_candidate") == std::string::npos ||
        trace_json->find("cache_probe") == std::string::npos ||
        trace_json->find("enumerate") == std::string::npos) {
      std::fprintf(stderr, "trace JSON is missing expected spans:\n%s\n",
                   trace_json->c_str());
      return 1;
    }
    std::printf("trace JSON: %zu bytes, spans present\n",
                trace_json->size());

    // The slow-query log must hold the completed search (threshold 0 in
    // self-test mode) with the documented JSON shape.
    auto slow_json = client.FetchSlowLog();
    if (!slow_json.ok()) {
      std::fprintf(stderr, "slow log: %s\n",
                   slow_json.status().ToString().c_str());
      return 1;
    }
    if (slow_json->find("\"slow_log\":[") == std::string::npos ||
        slow_json->find("\"elapsed_ms\"") == std::string::npos ||
        slow_json->find("\"strategy\":\"fasttopk\"") == std::string::npos ||
        slow_json->find("\"stats\":{") == std::string::npos) {
      std::fprintf(stderr, "slow-log JSON has the wrong shape:\n%s\n",
                   slow_json->c_str());
      return 1;
    }
    std::printf("slow log: %zu bytes of JSON, shape ok\n",
                slow_json->size());

    // With --live, drive the write path over the wire: insert a movie
    // with a nonsense title, search for it, then clean it up.
    if (live) {
      const int64_t pk = 900000001;
      auto mut = client.Mutate(
          {Mutation::Insert("Movie",
                            {Value::Int(pk),
                             Value::Text("zelkova quasar tangerine"),
                             Value::Null()})});
      if (!mut.ok() || mut->applied != 1) {
        std::fprintf(stderr, "mutate: %s (applied=%lld)\n",
                     mut.ok() ? mut->error.c_str()
                              : mut.status().ToString().c_str(),
                     mut.ok() ? static_cast<long long>(mut->applied) : 0);
        return 1;
      }
      std::printf("wrote 1 row, now at epoch %llu\n",
                  static_cast<unsigned long long>(mut->epoch));
      auto found = client.Search(
          net::NetSearchRequest::From({{"zelkova quasar tangerine"}},
                                      options,
                                      S4System::Strategy::kFastTopK));
      if (!found.ok() || found->topk.empty()) {
        std::fprintf(stderr, "inserted row not searchable: %s\n",
                     found.ok() ? "(empty top-k)"
                                : found.status().ToString().c_str());
        return 1;
      }
      std::printf("inserted row found, best score=%.4f\n",
                  found->topk[0].score);
      auto del = client.Mutate({Mutation::Delete("Movie", pk)});
      if (!del.ok() || del->applied != 1) {
        std::fprintf(stderr, "delete failed\n");
        return 1;
      }
    } else {
      // Writes against an immutable deployment must be rejected with
      // the typed error, not a dropped connection.
      auto mut = client.Mutate({Mutation::Delete("Movie", 1)});
      if (mut.ok() ||
          mut.status().code() != StatusCode::kFailedPrecondition) {
        std::fprintf(stderr,
                     "expected FailedPrecondition for a write to an "
                     "immutable server\n");
        return 1;
      }
    }

    // An unknown id must answer NotFound without dropping the stream.
    auto missing = client.FetchTrace(request_id + 12345);
    if (missing.ok() ||
        missing.status().code() != StatusCode::kNotFound) {
      std::fprintf(stderr, "expected NotFound for an unknown trace id\n");
      return 1;
    }
    if (Status st = client.Ping(); !st.ok()) {
      std::fprintf(stderr, "ping after NotFound: %s\n",
                   st.ToString().c_str());
      return 1;
    }

    stats_server.Stop();
    server.Stop();
    const net::NetServerCounters& c = server.counters();
    std::printf("frames=%lld responses=%lld errors=%lld stats_reqs=%lld"
                " trace_reqs=%lld slow_log_reqs=%lld\n",
                static_cast<long long>(c.frames_received.load()),
                static_cast<long long>(c.responses_sent.load()),
                static_cast<long long>(c.errors_sent.load()),
                static_cast<long long>(c.stats_requests.load()),
                static_cast<long long>(c.trace_requests.load()),
                static_cast<long long>(c.slow_log_requests.load()));
    return result->topk.empty() ? 1 : 0;
  }

  std::printf("try: ./net_client --port %u \"<movie title>\" \"<actor>\"\n",
              server.port());
  std::printf("serving until stdin closes...\n");
  while (std::getchar() != EOF) {
  }
  stats_server.Stop();
  server.Stop();
  return 0;
}
