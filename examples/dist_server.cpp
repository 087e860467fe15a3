// Distributed scatter-gather serving demo: boots N shard servers in one
// process — each an S4Service over the same movie database, owning one
// candidate-space slice — plus an S4Coordinator fanning searches out
// over them and merging the streamed partials (DESIGN.md "Distributed
// serving").
//
//   ./dist_server --shards 4            # serve until stdin closes
//   ./dist_server --self-test           # boot 3 shards, prove the
//                                       # merged top-k matches a
//                                       # single-node search, exit
//
// The self-test mode is what ctest runs: it crosses the whole dist
// stack (shard frames, per-shard services, partial streaming, merge,
// early stop) and cross-checks the coordinator's answer against an
// in-process S4System::Search over the same cells.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "datagen/synthetic.h"
#include "dist/coordinator.h"
#include "net/server.h"
#include "service/s4_service.h"

int main(int argc, char** argv) {
  using namespace s4;

  int shards = 3;
  bool self_test = false;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-test") == 0) {
      self_test = true;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    }
  }
  if (shards < 1 || shards > 64) {
    std::fprintf(stderr, "--shards must be in [1, 64]\n");
    return 1;
  }

  std::printf("building the movie database + indexes...\n");
  auto db = datagen::MakeImdbSim();
  if (!db.ok()) {
    std::fprintf(stderr, "dataset: %s\n", db.status().ToString().c_str());
    return 1;
  }
  auto system = S4System::Create(*db);
  if (!system.ok()) {
    std::fprintf(stderr, "indexes: %s\n",
                 system.status().ToString().c_str());
    return 1;
  }

  // One service + server per shard, every one owning slice i of N. In a
  // real deployment these live on separate machines; the wiring is
  // identical because everything crosses real loopback sockets here.
  std::vector<std::unique_ptr<S4Service>> services;
  std::vector<std::unique_ptr<net::S4Server>> servers;
  dist::CoordinatorOptions copts;
  for (int i = 0; i < shards; ++i) {
    ServiceOptions sopts;
    sopts.num_workers = 2;
    sopts.max_queue = 32;
    sopts.shard_count = shards;
    sopts.shard_index = i;
    services.push_back(std::make_unique<S4Service>(**system, sopts));
    net::ServerOptions nopts;
    nopts.port = 0;  // kernel-assigned
    nopts.verbose = verbose;
    servers.push_back(
        std::make_unique<net::S4Server>(services.back().get(), nopts));
    if (Status st = servers.back()->Start(); !st.ok()) {
      std::fprintf(stderr, "shard %d: %s\n", i, st.ToString().c_str());
      return 1;
    }
    copts.shards.push_back({"127.0.0.1", servers.back()->port()});
    std::printf("shard %d/%d serving on 127.0.0.1:%u\n", i, shards,
                servers.back()->port());
  }
  copts.enable_tracing = self_test;
  dist::S4Coordinator coordinator(copts);

  // Borrow a movie title and an actor the database is known to hold.
  const Table* movie = db->FindTable("Movie");
  const Table* person = db->FindTable("Person");
  const std::string title = movie->GetText(0, 1);
  const std::string actor = person->GetText(3, 1);

  auto run_once = [&](int k) -> int {
    SearchOptions options;
    options.k = k;
    auto request = net::NetSearchRequest::From(
        {{title, actor}}, options, S4System::Strategy::kFastTopK);
    request.want_profile = self_test;
    auto dist_result = coordinator.Search(request);
    if (!dist_result.ok()) {
      std::fprintf(stderr, "dist search: %s\n",
                   dist_result.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "merged %zu queries over %d shards in %.1f ms (complete=%s, "
        "partials=%lld, early_stops=%lld)\n",
        dist_result->topk.size(), shards, 1e3 * dist_result->wall_seconds,
        dist_result->complete ? "true" : "false",
        static_cast<long long>(dist_result->partials_received),
        static_cast<long long>(dist_result->early_stops_sent));
    if (!dist_result->topk.empty()) {
      std::printf("best: %s (score %.4f)\n",
                  dist_result->topk[0].sql.empty()
                      ? dist_result->topk[0].signature.c_str()
                      : dist_result->topk[0].sql.c_str(),
                  dist_result->topk[0].score);
    }
    if (!self_test) return 0;

    // Cross-check: the merged distributed answer must be bit-identical
    // (signatures AND scores) to one in-process search over the full
    // candidate space.
    auto local = (*system)->Search({{title, actor}}, options,
                                   S4System::Strategy::kFastTopK);
    if (!local.ok()) {
      std::fprintf(stderr, "local search: %s\n",
                   local.status().ToString().c_str());
      return 1;
    }
    if (local->topk.size() != dist_result->topk.size()) {
      std::fprintf(stderr, "size mismatch: local %zu vs dist %zu\n",
                   local->topk.size(), dist_result->topk.size());
      return 1;
    }
    for (size_t i = 0; i < local->topk.size(); ++i) {
      if (local->topk[i].query.signature() !=
              dist_result->topk[i].signature ||
          local->topk[i].score != dist_result->topk[i].score) {
        std::fprintf(stderr,
                     "rank %zu mismatch: local %s %.17g vs dist %s %.17g\n",
                     i, local->topk[i].query.signature().c_str(),
                     local->topk[i].score,
                     dist_result->topk[i].signature.c_str(),
                     dist_result->topk[i].score);
        return 1;
      }
    }
    std::printf("self-test: dist top-%d bit-identical to single-node\n", k);

    // Per-shard enumeration must cover the space exactly once.
    int64_t slices = 0;
    for (const auto& s : dist_result->shards) {
      slices += s.run.queries_enumerated;
    }
    if (slices != local->stats.queries_enumerated) {
      std::fprintf(stderr,
                   "slice sizes sum to %lld but single-node enumerated "
                   "%lld candidates\n",
                   static_cast<long long>(slices),
                   static_cast<long long>(local->stats.queries_enumerated));
      return 1;
    }
    std::printf("self-test: %d slices cover all %lld candidates\n", shards,
                static_cast<long long>(slices));
    // Cluster-wide profile: the coordinator's envelope, and the merged
    // RunStats folding every shard's record.
    if (dist_result->stats.queries_enumerated != slices ||
        dist_result->profile.total_seconds <= 0.0) {
      std::fprintf(stderr,
                   "merged profile wrong: enumerated %lld vs %lld, "
                   "total=%.6f\n",
                   static_cast<long long>(
                       dist_result->stats.queries_enumerated),
                   static_cast<long long>(slices),
                   dist_result->profile.total_seconds);
      return 1;
    }
    std::printf("self-test: merged stats fold all %d shards\n", shards);

    // Stitched timeline: one trace holding the coordinator's own spans
    // plus every shard's segment as its own process (pid 2+i), all on
    // the coordinator's normalized clock.
    auto trace = coordinator.last_trace();
    if (trace == nullptr || !trace->HasSpan("merge") ||
        !trace->HasSpan("shard_exchange")) {
      std::fprintf(stderr, "coordinator trace is missing dist spans\n");
      return 1;
    }
    for (int i = 0; i < shards; ++i) {
      if (trace->NumSpansForPid(2 + static_cast<uint32_t>(i)) == 0) {
        std::fprintf(stderr,
                     "stitched trace has no spans for shard %d\n", i);
        return 1;
      }
    }
    const std::string stitched = trace->ToChromeJson();
    if (stitched.find("\"shard 0\"") == std::string::npos ||
        stitched.find("frame_decode") == std::string::npos ||
        stitched.find("\"ts\":-") != std::string::npos) {
      std::fprintf(stderr,
                   "stitched Chrome JSON is missing shard processes or "
                   "has unnormalized timestamps\n");
      return 1;
    }
    std::printf(
        "self-test: stitched trace has %zu spans across %d processes "
        "(%zu bytes of Chrome JSON)\n",
        trace->NumSpans(), shards + 1, stitched.size());
    return 0;
  };

  if (self_test) {
    const int rc = run_once(/*k=*/5);
    for (auto& server : servers) server->Stop();
    return rc;
  }

  if (run_once(/*k=*/3) != 0) return 1;
  std::printf("serving until stdin closes...\n");
  while (std::getchar() != EOF) {
  }
  for (auto& server : servers) server->Stop();
  return 0;
}
