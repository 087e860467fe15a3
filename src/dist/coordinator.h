#ifndef S4_DIST_COORDINATOR_H_
#define S4_DIST_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/wire.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace s4::dist {

// One shard endpoint of a scatter-gather deployment. Every shard serves
// the same schema graph and indexes; the candidate space is partitioned
// by ShardOfSignature (strategy.h), so slice `i` of `N` answers exactly
// the PJ-queries whose fingerprint hashes to `i`.
struct ShardAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct CoordinatorOptions {
  std::vector<ShardAddress> shards;
  double connect_timeout_seconds = 2.0;
  // Overall search budget when the request does not carry its own
  // deadline. The coordinator always returns within the budget — a
  // shard that cannot answer in time degrades the result instead of
  // extending it.
  double request_timeout_seconds = 30.0;
  // Fraction of the remaining coordinator budget granted to each shard
  // exchange as its server-side deadline, reserving headroom for the
  // final merge and the network.
  double shard_deadline_fraction = 0.9;
  // Bounded retries per shard, applied only to retryable failures
  // (ResourceExhausted — admission backpressure), never to timeouts.
  int32_t max_retries = 1;
  // Partial-streaming cadence forwarded to the shards: a kShardPartial
  // every this many strategy progress snapshots (0 = finals only, which
  // also disables cross-shard early stopping).
  uint32_t partial_every = 1;
  // When true, every Search records a coordinator trace (dist/scatter,
  // dist/shard_exchange, dist/merge spans) retrievable via last_trace().
  bool enable_tracing = false;
};

// Per-shard outcome of one distributed search (diagnostics).
struct DistShardStats {
  int32_t shard_index = 0;
  bool reached = false;         // contributed data to the merge
  bool early_stopped = false;   // coordinator sent kShardStop
  int32_t retries = 0;
  int64_t partials = 0;         // kShardPartial frames received
  // The shard's counter record: its kShardDone RunStats, or — for a
  // shard stopped before it finished — the slice coverage its last
  // partial reported (queries_enumerated, queries_evaluated, batches).
  RunStats run;
  double wall_seconds = 0.0;
  std::string error;  // last failure message when not reached
};

// Result of a scatter-gather search. When `complete` is false one or
// more shards were unreached (timeout / disconnect / non-retryable
// error); `topk` is then the exact top-k of the union of the reached
// slices — a consistent answer over a subset of the candidate space,
// never a corrupted one.
struct DistSearchResult {
  std::vector<net::NetTopkEntry> topk;
  bool complete = true;
  // True when any merged shard answer was approximate (sampling-resolved
  // entries or an epsilon-relaxed shard termination), or when the
  // coordinator itself early-stopped a shard under the epsilon-relaxed
  // dominance rule. The merged top-k is then correct up to the per-entry
  // intervals and the requested approx_epsilon.
  bool approximate = false;
  std::vector<int32_t> unreached_shards;

  // The reached shards' counter records folded with RunStats::Add.
  RunStats stats;
  int64_t partials_received = 0;
  int64_t early_stops_sent = 0;
  std::vector<DistShardStats> shards;
  double wall_seconds = 0.0;

  // The coordinator's timing envelope (its own wall clock).
  obs::QueryProfile profile;
};

// Per-shard outcome of one broadcast write.
struct DistShardMutate {
  int32_t shard_index = 0;
  bool reached = false;  // got a kMutateResponse back
  net::NetMutateResponse response;
  std::string error;  // transport / admission failure when not reached
};

// Result of broadcasting one mutation batch to every shard. Shards all
// hold the full database (only the candidate space is partitioned), so
// a write must land everywhere; `complete` means every shard applied
// the whole batch. A diverged shard (unreached, or applied a shorter
// prefix) serves stale/partial epochs until an operator re-syncs it —
// the per-shard slots say exactly which and why.
struct DistMutateResult {
  bool complete = true;
  int64_t applied = 0;  // min applied count over reached shards
  std::vector<int32_t> diverged_shards;
  std::vector<DistShardMutate> shards;
  double wall_seconds = 0.0;
};

// Scatter-gather coordinator over N S4Server shards (DESIGN.md
// "Distributed serving"). Fans a search out as kShardSearchRequest
// exchanges, one blocking connection per shard, merges the streamed
// kShardPartial snapshots under the global top-k, and sends kShardStop
// to any shard whose remaining upper bound can no longer beat the
// merged kth score — the FASTTOPK termination condition (7) lifted to
// cluster scope. Thread-safe: concurrent Search calls share nothing but
// the process-wide metrics registry.
class S4Coordinator {
 public:
  explicit S4Coordinator(CoordinatorOptions options);

  // Fans `request` out over every configured shard and merges. Returns
  // a Status error only for coordinator-level failures (no shards
  // configured, invalid request rejected by every shard); partial
  // failures degrade the DistSearchResult instead.
  StatusOr<DistSearchResult> Search(const net::NetSearchRequest& request);

  // Broadcasts one mutation batch to every shard, serialized under a
  // coordinator-wide write lock so concurrent Mutate calls reach all
  // shards in one identical order (shards then publish identical
  // epochs). Returns a Status error only when no shards are configured
  // or the batch is empty; per-shard failures degrade the result.
  StatusOr<DistMutateResult> Mutate(const std::vector<Mutation>& mutations);

  // Trace of the most recent Search (nullptr unless enable_tracing).
  std::shared_ptr<obs::Trace> last_trace() const;

  size_t num_shards() const { return options_.shards.size(); }

 private:
  struct MergeState;

  // Runs the full exchange against shard `index`, including bounded
  // retries. Marks the slot done/lost under the merge lock.
  void ExchangeShard(MergeState& state, int32_t index,
                     const net::NetSearchRequest& request, obs::Trace* trace);
  // One connect/send/stream attempt. OK = the slot holds merged data.
  Status RunExchangeOnce(MergeState& state, int32_t index,
                         const net::NetSearchRequest& request);
  // Under state.mu: recomputes the merged kth score and sends
  // kShardStop to every live shard that can no longer contribute.
  void CheckEarlyStops(MergeState& state);

  CoordinatorOptions options_;
  std::atomic<uint64_t> next_request_id_{1};

  // Serializes write broadcasts: every shard sees every batch in the
  // same order, which (deterministic apply) keeps their epochs
  // bit-identical.
  std::mutex mutate_mu_;

  mutable std::mutex trace_mu_;
  std::shared_ptr<obs::Trace> last_trace_;
};

}  // namespace s4::dist

#endif  // S4_DIST_COORDINATOR_H_
