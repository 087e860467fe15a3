#ifndef S4_PERFBENCH_WORKLOADS_H_
#define S4_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "live/live_s4.h"
#include "net/client.h"
#include "net/server.h"
#include "s4/s4.h"
#include "service/s4_service.h"
#include "spans.h"

namespace s4::perfbench {

using Cells = std::vector<std::vector<std::string>>;

// The ladder: each rung calls one layer further out than the rung below.
// The untraced run measures a workload on its own top rung only.
enum class Rung : int32_t {
  kDirect = 1,       // PreparedSearch + RunFastTopK (serial)
  kSystem = 2,       // S4System::Search
  kService = 3,      // S4Service::Search
  kClient = 4,       // S4Client::Search -> S4Server over loopback
  kCoordinator = 5,  // S4Coordinator::Search over shard servers
};
const char* RungName(Rung rung);

struct WorkloadSpec {
  std::string name;
  std::string why;
  // CSUPP-sim at scale 1, or the power-law forum of powerlaw_db.h.
  enum class Data { kCsupp, kPowerlaw } data = Data::kCsupp;
  int32_t clients = 1;
  Rung top = Rung::kClient;
  int32_t shards = 1;       // coordinator shards on the kCoordinator rung
  bool live = false;        // serve LiveS4System epochs
  int32_t write_every = 0;  // each client's every Nth op is a write batch
  // How a search picks its spreadsheet: every one distinct and sent once,
  // a Zipf-popular hot set, or a uniform pool.
  enum class Pick { kDistinct, kZipfHot, kUniformPool } pick = Pick::kDistinct;
  int32_t pool = 0;  // hot-set / pool size
  size_t shared_cache_bytes = 500u << 20;  // per service
  SearchOptions search;
  // Expected ops per second over all clients on the top rung; sizes the
  // untraced op list with headroom, so clients never run dry.
  double ops_per_second = 100.0;
  // Ops per second of --seconds in the traced replay, summed over its
  // six passes. The replay is a fixed op list, so its counts depend on
  // the seed alone; this only sizes it to take about --seconds.
  double trace_ops_per_second = 60.0;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// One client operation: a search of `sheet`, or a write batch.
struct Op {
  int32_t sheet = -1;
  std::vector<Mutation> batch;
  bool write() const { return !batch.empty(); }
};

struct Inputs {
  std::vector<Cells> sheets;
  std::vector<std::vector<Op>> per_client;
};

// Builds the served database of `spec` (fixed per workload; the seed
// drives the requests, not the data).
StatusOr<Database> MakeDatabase(const WorkloadSpec& spec);

// Generates `ops_per_client` ops for each client from `seed` against the
// database indexed by `system`.
StatusOr<Inputs> MakeInputs(const WorkloadSpec& spec, const S4System& system,
                            uint64_t seed, int64_t ops_per_client);

struct Hit {
  std::string signature;
  double score = 0.0;
};

struct Outcome {
  bool write = false;
  int32_t sheet = -1;
  bool ok = false;  // no error, complete, write fully applied
  std::string error;
  double seconds = 0.0;      // client-observed
  double finished_at = 0.0;  // seconds since the load started
  std::vector<Hit> topk;
};

// Work counts gathered by one deployment while it served.
struct Tally {
  RunStats stats;  // summed over kDirect searches
  int64_t searches = 0;
  int64_t candidates = 0;
  double queue_seconds = 0.0;  // kService
  int64_t partials = 0;        // kCoordinator
  int64_t early_stops = 0;
  double shard_wall_seconds = 0.0;
  int64_t shard_exchanges = 0;
};

// A fresh instance of everything one rung needs: database, indexes and,
// from kService up, services, servers, clients and a coordinator.
class Deployment {
 public:
  // `trace` (may be null) receives a "setup/index" span per index build.
  static StatusOr<std::unique_ptr<Deployment>> Create(const WorkloadSpec& spec,
                                                      Rung rung,
                                                      obs::Trace* trace);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Runs one op as client `client`. With `trace` set, records a span
  // around the call into the rung's layer plus the children its reply
  // reports (queue, stage and shard times), all under the rung's name as
  // category and tagged with `request`.
  Outcome Run(int32_t client, const Op& op, const Inputs& inputs,
              uint64_t request, obs::Trace* trace);

  Tally tally() const;
  // Summed over this deployment's services.
  ServiceStats service_stats() const;
  // Epochs published by the (first) live system; 0 when static.
  uint64_t epochs() const;
  size_t index_bytes() const { return index_bytes_; }

 private:
  Deployment(const WorkloadSpec& spec, Rung rung) : spec_(spec), rung_(rung) {}

  Status Build(obs::Trace* trace);
  // The searchable system right now (pins the live epoch).
  std::shared_ptr<const S4System> Current() const;

  const WorkloadSpec& spec_;
  const Rung rung_;
  size_t index_bytes_ = 0;

  // Declared in dependency order: each member may use those above it,
  // and is destroyed before them.
  std::unique_ptr<Database> db_;
  std::unique_ptr<S4System> system_;
  std::vector<std::unique_ptr<LiveS4System>> lives_;
  std::vector<std::unique_ptr<S4Service>> services_;
  std::vector<std::unique_ptr<net::S4Server>> servers_;
  std::vector<std::unique_ptr<net::S4Client>> clients_;
  std::unique_ptr<dist::S4Coordinator> coordinator_;

  mutable std::mutex tally_mu_;
  Tally tally_;
};

// Exact serial FASTTOPK (num_threads = 1) top-k of each listed sheet on
// `system`, computed on `threads` threads. The oracle every served
// answer is checked against.
std::vector<std::vector<Hit>> ComputeReferences(
    const WorkloadSpec& spec, const S4System& system, const Inputs& inputs,
    const std::vector<int32_t>& sheets, int32_t threads);

}  // namespace s4::perfbench

#endif  // S4_PERFBENCH_WORKLOADS_H_
