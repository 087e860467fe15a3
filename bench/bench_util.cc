#include "bench/bench_util.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <thread>

#include "common/rng.h"
#include "common/timer.h"

namespace s4::bench {

namespace {

struct JsonRecord {
  std::string section;
  std::string name;
  double value;
};

struct JsonState {
  std::string path;
  std::string bench_name;
  std::vector<JsonRecord> records;
  bool written = false;
};

JsonState& State() {
  static JsonState* state = new JsonState();
  return *state;
}

// Escapes the characters JSON strings cannot hold verbatim; the metric
// labels are ASCII identifiers, so this only has to be correct, not fast.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

int JsonInit(int argc, char** argv, const std::string& bench_name) {
  JsonState& state = State();
  state.bench_name = bench_name;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      state.path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      state.path = argv[i] + 7;
    } else {
      argv[out++] = argv[i];
    }
  }
  if (!state.path.empty()) std::atexit(JsonWrite);
  return out;
}

bool JsonEnabled() { return !State().path.empty(); }

void JsonMetric(const std::string& section, const std::string& name,
                double value) {
  if (!JsonEnabled()) return;
  State().records.push_back(JsonRecord{section, name, value});
}

void JsonRunStats(const std::string& section, const RunStats& stats) {
  JsonMetric(section, "total_ms", AvgTotalMs(stats));
  ForEachStat(
      [&](const StatField& f, const auto& value) {
        // The denominator and high-water marks are reported as they are.
        const double v = static_cast<double>(value);
        const bool as_is = f.kind == StatKind::kPeak ||
                           std::string_view(f.name) == "searches";
        JsonMetric(section, f.name, as_is ? v : PerSearch(stats, v));
      },
      stats);
}

void JsonLatency(const std::string& section,
                 const LatencyHistogram::Snapshot& snapshot) {
  JsonMetric(section, "latency_samples", static_cast<double>(snapshot.total));
  JsonMetric(section, "p50_ms", 1e3 * snapshot.PercentileSeconds(0.50));
  JsonMetric(section, "p95_ms", 1e3 * snapshot.PercentileSeconds(0.95));
  JsonMetric(section, "p99_ms", 1e3 * snapshot.PercentileSeconds(0.99));
  JsonMetric(section, "p999_ms", 1e3 * snapshot.PercentileSeconds(0.999));
  JsonMetric(section, "max_ms", 1e3 * snapshot.max_seconds);
  JsonMetric(section, "mean_ms", 1e3 * snapshot.MeanSeconds());
}

void JsonMetricsSnapshot(const std::string& section,
                         const obs::MetricsSnapshot& snapshot) {
  for (const obs::MetricsSnapshot::Entry& e : snapshot.entries) {
    if (e.kind == obs::MetricsSnapshot::Kind::kHistogram) {
      JsonMetric(section, e.name + "_count",
                 static_cast<double>(e.histogram.total));
      JsonMetric(section, e.name + "_sum_seconds", e.histogram.sum_seconds);
      JsonMetric(section, e.name + "_max_seconds", e.histogram.max_seconds);
      JsonMetric(section, e.name + "_p50_seconds",
                 e.histogram.PercentileSeconds(0.5));
      JsonMetric(section, e.name + "_p99_seconds",
                 e.histogram.PercentileSeconds(0.99));
    } else {
      JsonMetric(section, e.name, static_cast<double>(e.value));
    }
  }
}

void JsonWrite() {
  JsonState& state = State();
  if (state.path.empty() || state.written) return;
  std::FILE* f = std::fopen(state.path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write --json file %s\n",
                 state.path.c_str());
    return;
  }
  state.written = true;
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"metrics\": [",
               JsonEscape(state.bench_name).c_str());
  for (size_t i = 0; i < state.records.size(); ++i) {
    const JsonRecord& r = state.records[i];
    std::fprintf(f, "%s\n    {\"section\": \"%s\", \"name\": \"%s\", \"value\": %.17g}",
                 i == 0 ? "" : ",", JsonEscape(r.section).c_str(),
                 JsonEscape(r.name).c_str(), r.value);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("json metrics written to %s (%zu records)\n",
              state.path.c_str(), state.records.size());
}

std::unique_ptr<World> MakeWorld(StatusOr<Database> db) {
  if (!db.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 db.status().ToString().c_str());
    std::exit(1);
  }
  auto w = std::make_unique<World>();
  w->db = std::move(db).value();
  WallTimer timer;
  auto index = IndexSet::Build(w->db);
  if (!index.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 index.status().ToString().c_str());
    std::exit(1);
  }
  w->index = std::move(index).value();
  w->index_build_seconds = timer.ElapsedSeconds();
  w->graph = std::make_unique<SchemaGraph>(w->db);
  return w;
}

std::unique_ptr<World> CsuppWorld(int32_t scale, uint64_t seed) {
  datagen::CsuppSimOptions opts;
  opts.seed = seed;
  opts.scale = scale;
  return MakeWorld(datagen::MakeCsuppSim(opts));
}

std::unique_ptr<World> AdvwWorld(int32_t dim_scale, int32_t fact_scale) {
  datagen::AdvwSimOptions opts;
  opts.dim_scale = dim_scale;
  opts.fact_scale = fact_scale;
  return MakeWorld(datagen::MakeAdvwSim(opts));
}

std::unique_ptr<World> ImdbWorld() {
  return MakeWorld(datagen::MakeImdbSim({}));
}

std::vector<size_t> Workload::InBucket(datagen::EsBucket bucket) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == bucket) out.push_back(i);
  }
  return out;
}

Workload MakeWorkload(const World& world, int32_t count,
                      const datagen::EsGenOptions& options, uint64_t seed,
                      int32_t min_text_columns, int32_t max_tree_size) {
  datagen::EsGenerator gen(*world.index, *world.graph, seed);
  Status st = gen.Init(min_text_columns, max_tree_size);
  if (!st.ok()) {
    std::fprintf(stderr, "ES generator init failed: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }
  auto many = gen.GenerateMany(count, options);
  if (!many.ok()) {
    std::fprintf(stderr, "ES generation failed: %s\n",
                 many.status().ToString().c_str());
    std::exit(1);
  }
  Workload w;
  w.es = std::move(many).value();
  w.buckets = datagen::EsGenerator::AssignBuckets(w.es);
  return w;
}

double PerSearch(const RunStats& s, double total) {
  return s.searches == 0 ? 0.0 : total / static_cast<double>(s.searches);
}

double AvgTotalMs(const RunStats& s) {
  return PerSearch(s, 1e3 * (s.enum_seconds + s.eval_seconds));
}

int64_t EnvInt(const char* name, int64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return std::atoll(v);
}

LoadGenResult RunLoadGen(
    const LoadGenOptions& options,
    const std::function<Status(int32_t client, int32_t seq)>& issue) {
  const int32_t clients = options.clients < 1 ? 1 : options.clients;
  const int32_t per_client =
      options.requests_per_client < 0 ? 0 : options.requests_per_client;
  const bool open_loop = options.arrival_rate_qps > 0.0;
  // Deterministic per-client Poisson schedule, precomputed before any
  // thread starts so the arrival process is independent of service time.
  std::vector<std::vector<double>> schedule(static_cast<size_t>(clients));
  if (open_loop) {
    const double per_client_rate =
        options.arrival_rate_qps / static_cast<double>(clients);
    for (int32_t c = 0; c < clients; ++c) {
      Rng rng(options.seed + static_cast<uint64_t>(c) * 0x9e3779b9ULL);
      double t = 0.0;
      auto& s = schedule[static_cast<size_t>(c)];
      s.reserve(static_cast<size_t>(per_client));
      for (int32_t i = 0; i < per_client; ++i) {
        // Exponential interarrival; 1 - U keeps log() away from 0.
        t += -std::log(1.0 - rng.NextDouble()) / per_client_rate;
        s.push_back(t);
      }
    }
  }

  LatencyHistogram latency;
  std::atomic<int64_t> ok{0}, errors{0};
  WallTimer timer;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int32_t i = 0; i < per_client; ++i) {
        std::chrono::steady_clock::time_point issued_from;
        if (open_loop) {
          const auto scheduled =
              start + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(
                              schedule[static_cast<size_t>(c)]
                                      [static_cast<size_t>(i)]));
          std::this_thread::sleep_until(scheduled);
          // Latency anchors at the *scheduled* arrival: if the previous
          // request overran its slot, the slip counts against us.
          issued_from = scheduled;
        } else {
          issued_from = std::chrono::steady_clock::now();
        }
        const Status st = issue(c, i);
        latency.Record(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - issued_from)
                           .count());
        if (st.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LoadGenResult result;
  result.ok = ok.load();
  result.errors = errors.load();
  result.elapsed_seconds = timer.ElapsedSeconds();
  result.latency = latency.snapshot();
  return result;
}

void PrintHeader(const std::string& title, const std::string& what) {
  std::printf("=== %s ===\n%s\n", title.c_str(), what.c_str());
  std::printf(
      "note: synthetic stand-ins for the paper's datasets (see DESIGN.md);"
      " absolute numbers differ from the paper's testbed, trends are the"
      " target.\n\n");
}

}  // namespace s4::bench
