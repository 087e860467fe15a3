#include "bench/bench_util.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <thread>

#include "common/simd.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
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
  std::vector<int32_t> threads;
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

// First line of `command`'s standard output, without the newline; empty
// when the command cannot run or prints nothing.
std::string FirstLineOf(const std::string& command) {
  std::FILE* p = popen(command.c_str(), "r");
  if (p == nullptr) return "";
  char buf[256] = {};
  std::string line = std::fgets(buf, sizeof(buf), p) != nullptr ? buf : "";
  pclose(p);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

// HEAD of the source tree this binary was built from, suffixed "-dirty"
// when tracked sources under src/ or bench/ differ from it; "unknown"
// outside a git checkout.
std::string GitSha() {
  const std::string git = std::string("git -C '") + S4_SOURCE_DIR + "' ";
  const std::string sha = FirstLineOf(git + "rev-parse HEAD 2>/dev/null");
  if (sha.empty()) return "unknown";
  const std::string changed = FirstLineOf(
      git + "status --porcelain --untracked-files=no -- src bench "
            "':!bench/*.json' 2>/dev/null");
  return changed.empty() ? sha : sha + "-dirty";
}

// The provenance object of the JSON file: commit, machine, build, and
// every S4_BENCH_* knob that is set (sorted, so files diff cleanly),
// plus the declared thread counts.
std::string ProvenanceJson() {
  std::vector<std::string> knobs;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "S4_BENCH_", 9) == 0) knobs.push_back(*e);
  }
  std::sort(knobs.begin(), knobs.end());
  std::string env;
  for (const std::string& knob : knobs) {
    const size_t eq = knob.find('=');
    env += std::string(env.empty() ? "" : ", ") + "\"" +
           JsonEscape(knob.substr(0, eq)) + "\": \"" +
           JsonEscape(knob.substr(eq + 1)) + "\"";
  }
  std::string threads;
  for (int32_t t : State().threads) {
    threads += threads.empty() ? ", \"threads\": [" : ", ";
    threads += std::to_string(t);
  }
  if (!threads.empty()) threads += "]";
  return "{\"git_sha\": \"" + JsonEscape(GitSha()) +
         "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + JsonEscape(S4_COMPILER) +
         "\", \"build_type\": \"" + JsonEscape(S4_BUILD_TYPE) +
         "\", \"simd\": \"" + simd::BackendName() + "\", \"env\": {" + env +
         "}" + threads + "}";
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

void JsonThreads(const std::vector<int32_t>& threads) {
  State().threads = threads;
}

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
  std::fprintf(f,
               "{\n  \"bench\": \"%s\",\n  \"provenance\": %s,\n"
               "  \"metrics\": [",
               JsonEscape(state.bench_name).c_str(), ProvenanceJson().c_str());
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

std::string ThreadsLabel(int32_t num_threads) {
  return num_threads > 0
             ? std::to_string(num_threads)
             : StrFormat("nproc=%d", ThreadPool::DefaultThreads());
}

int64_t EnvInt(const char* name, int64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return std::atoll(v);
}

void PrintHeader(const std::string& title, const std::string& what) {
  std::printf("=== %s ===\n%s\n", title.c_str(), what.c_str());
  std::printf(
      "note: synthetic stand-ins for the paper's datasets (see DESIGN.md);"
      " absolute numbers differ from the paper's testbed, trends are the"
      " target.\n\n");
}

}  // namespace s4::bench
