#ifndef S4_BENCH_BENCH_UTIL_H_
#define S4_BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/latency_histogram.h"
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

// Reads an integer knob from the environment (e.g. S4_BENCH_ES_COUNT) so
// users can scale benchmarks up without recompiling.
int64_t EnvInt(const char* name, int64_t def);

// --- load generation ---------------------------------------------------
//
// Shared by the service- and network-throughput benches so both report
// comparable numbers from the same arrival process.

struct LoadGenOptions {
  int32_t clients = 8;
  int32_t requests_per_client = 30;
  // 0 = closed loop: each client issues its next request the moment the
  // previous one returns, so offered load self-throttles to capacity.
  // > 0 = open loop: arrivals follow a Poisson process at this aggregate
  // rate (split evenly across clients), each request's latency measured
  // from its *scheduled* arrival time. A slow server cannot slow the
  // arrival schedule down, so queueing delay lands in the tail instead
  // of being absorbed by client back-off (coordinated omission).
  double arrival_rate_qps = 0.0;
  uint64_t seed = 7;
};

struct LoadGenResult {
  int64_t ok = 0;
  int64_t errors = 0;
  double elapsed_seconds = 0.0;
  // Per-request latency: completion minus scheduled arrival (open loop)
  // or minus issue time (closed loop).
  LatencyHistogram::Snapshot latency;

  double Qps() const {
    return elapsed_seconds > 0.0
               ? static_cast<double>(ok + errors) / elapsed_seconds
               : 0.0;
  }
};

// Runs `issue(client, seq)` from `clients` threads per `options`. The
// interarrival schedule is precomputed (deterministic per seed); open
// loop sleeps each client to its next scheduled arrival even when the
// previous request has not returned yet... which it cannot express with
// one blocking issue() per client, so late requests are issued
// back-to-back and their measured latency includes the schedule slip —
// the standard single-threaded open-loop approximation.
LoadGenResult RunLoadGen(
    const LoadGenOptions& options,
    const std::function<Status(int32_t client, int32_t seq)>& issue);

// Prints the standard bench banner (dataset + substitution note).
void PrintHeader(const std::string& title, const std::string& what);

// --- machine-readable output ------------------------------------------
//
// Every bench binary accepts `--json <path>` (or `--json=<path>`): the
// metrics recorded through JsonMetric are written to `path` on exit as
//
//   {"bench": "<name>", "metrics": [
//     {"section": "...", "name": "...", "value": ...}, ...]}
//
// so perf trajectories can be tracked across commits without parsing the
// human-readable tables. Without the flag, recording is a no-op.

// Parses `--json` out of argv (call first in main). Returns the new argc
// with the flag removed, so binaries that forward argv elsewhere (e.g.
// google-benchmark) can pass the remainder along.
int JsonInit(int argc, char** argv, const std::string& bench_name);

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

// Records the standard latency metrics (p50/p95/p99/p99.9/max/mean, in
// milliseconds, plus the sample count) under `section`.
void JsonLatency(const std::string& section,
                 const LatencyHistogram::Snapshot& snapshot);

// Records every entry of a metrics-registry snapshot under `section`:
// counters/gauges as {name, value}; histograms expand to name_count,
// name_sum_seconds, name_max_seconds, name_p50_seconds, name_p99_seconds.
void JsonMetricsSnapshot(const std::string& section,
                         const obs::MetricsSnapshot& snapshot);

// Writes the JSON file now (also runs automatically at exit).
void JsonWrite();

}  // namespace s4::bench

#endif  // S4_BENCH_BENCH_UTIL_H_
