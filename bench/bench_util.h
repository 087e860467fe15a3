#ifndef S4_BENCH_BENCH_UTIL_H_
#define S4_BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/table_printer.h"
#include "datagen/es_gen.h"
#include "datagen/synthetic.h"
#include "index/index_set.h"
#include "obs/metrics.h"
#include "schema/schema_graph.h"
#include "strategy/strategy.h"

namespace s4::bench {

// A database with its offline indexes and schema graph, ready to search.
struct World {
  Database db;
  std::unique_ptr<IndexSet> index;
  std::unique_ptr<SchemaGraph> graph;
  double index_build_seconds = 0.0;
};

// Builds a World from any generated database.
std::unique_ptr<World> MakeWorld(StatusOr<Database> db);

// The standard benchmark datasets. `scale` multiplies base row counts;
// the default sizes are tuned so every bench binary finishes in tens of
// seconds on one core while keeping the paper's relative trends visible.
std::unique_ptr<World> CsuppWorld(int32_t scale = 1, uint64_t seed = 42);
std::unique_ptr<World> AdvwWorld(int32_t dim_scale = 1,
                                 int32_t fact_scale = 1);
std::unique_ptr<World> ImdbWorld();

// A bucketed example-spreadsheet workload per Sec 6.1.
struct Workload {
  std::vector<datagen::GeneratedEs> es;
  std::vector<datagen::EsBucket> buckets;

  // Indexes of the ESs in `bucket`.
  std::vector<size_t> InBucket(datagen::EsBucket bucket) const;
};

Workload MakeWorkload(const World& world, int32_t count,
                      const datagen::EsGenOptions& options = {},
                      uint64_t seed = 1234, int32_t min_text_columns = 6,
                      int32_t max_tree_size = 4);

// Mean of `total` over the strategy runs folded into `s` with
// RunStats::Add (`s.searches`); 0 for an empty record. Benches sum
// each run's RunStats into one record and report means through this.
double PerSearch(const RunStats& s, double total);

// Mean Stage I + Stage II wall time per run, in milliseconds.
double AvgTotalMs(const RunStats& s);

// Label of a SearchOptions::num_threads setting in bench tables and
// JSON sections: the count itself, or "nproc=<n>" for 0 (one thread
// per core).
std::string ThreadsLabel(int32_t num_threads);

// Reads an integer knob from the environment (e.g. S4_BENCH_ES_COUNT) so
// users can scale benchmarks up without recompiling.
int64_t EnvInt(const char* name, int64_t def);

// Prints the standard bench banner (dataset + substitution note).
void PrintHeader(const std::string& title, const std::string& what);

// --- machine-readable output ------------------------------------------
//
// Every bench binary accepts `--json <path>` (or `--json=<path>`): the
// metrics recorded through JsonMetric are written to `path` on exit as
//
//   {"bench": "<name>",
//    "provenance": {"git_sha": ..., "nproc": ..., "compiler": ...,
//                   "build_type": ..., "simd": ..., "env": {...},
//                   "threads": [...]},
//    "metrics": [{"section": "...", "name": "...", "value": ...}, ...]}
//
// so perf trajectories can be tracked across commits without parsing the
// human-readable tables. `provenance` names the commit (HEAD of the
// source tree, suffixed "-dirty" when its tracked sources differ, or
// "unknown"), the machine and build, every S4_BENCH_* variable that
// was set, and (when the bench declares them through JsonThreads) the
// evaluation thread counts it ran at. Without the flag, recording is a
// no-op.

// Parses `--json` out of argv (call first in main). Returns the new argc
// with the flag removed, so binaries that forward argv elsewhere (e.g.
// google-benchmark) can pass the remainder along.
int JsonInit(int argc, char** argv, const std::string& bench_name);

// Declares the resolved evaluation thread counts the bench's tables
// were run at, for the provenance object.
void JsonThreads(const std::vector<int32_t>& threads);

// True when `--json` was given.
bool JsonEnabled();

// Records one numeric metric under a section label (e.g. the table cell
// coordinates: "bucket=low/strategy=FastTopK").
void JsonMetric(const std::string& section, const std::string& name,
                double value);

// Records a summed RunStats under `section`: `total_ms`, then every
// counter-schema field under its schema name — `searches` and peak
// fields as they are, everything else as the per-run mean.
void JsonRunStats(const std::string& section, const RunStats& stats);

// Records every entry of a metrics-registry snapshot under `section`:
// counters/gauges as {name, value}; histograms expand to name_count,
// name_sum_seconds, name_max_seconds, name_p50_seconds, name_p99_seconds.
void JsonMetricsSnapshot(const std::string& section,
                         const obs::MetricsSnapshot& snapshot);

// Writes the JSON file now (also runs automatically at exit).
void JsonWrite();

}  // namespace s4::bench

#endif  // S4_BENCH_BENCH_UTIL_H_
