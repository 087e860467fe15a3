#ifndef S4_SERVICE_S4_SERVICE_H_
#define S4_SERVICE_S4_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "common/stop_token.h"
#include "common/thread_pool.h"
#include "live/live_s4.h"
#include "live/mutation.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "s4/s4.h"

namespace s4 {

// Configuration of a long-lived S4Service instance.
struct ServiceOptions {
  // Dispatcher threads popping the admission queue and driving searches.
  // Each running request fans its Stage-II evaluation out on the shared
  // pool, so a few workers saturate the machine.
  int32_t num_workers = 2;
  // Size of the shared work-stealing evaluation pool; 0 = one worker per
  // hardware thread. One pool serves every request instead of a pool per
  // Search call.
  int32_t eval_threads = 0;
  // Admission-queue capacity: a Submit finding this many requests queued
  // is rejected with ResourceExhausted (backpressure, never unbounded
  // buffering).
  size_t max_queue = 64;
  // Byte budget of the global cross-query sub-PJ cache.
  size_t shared_cache_bytes = 500u << 20;
  // Shards of the shared cache; 0 = derived from eval_threads.
  int32_t shared_cache_shards = 0;
  // Deadline applied to requests that do not carry their own (0 = none).
  double default_deadline_seconds = 0.0;
  // Shard-aware admission (DESIGN.md "Distributed serving"): when
  // shard_count > 0 this service owns exactly one candidate-space slice
  // and rejects (FailedPrecondition) any request that does not
  // explicitly target it, so a mis-routed request fails loudly instead
  // of silently answering with a slice of the top-k. 0 (the default) =
  // not shard-aware: requests may carry any slice through their own
  // SearchOptions.
  int32_t shard_count = 0;
  int32_t shard_index = 0;
  // Slow-query log: keep the `slow_log_size` slowest completed requests
  // (0 = disabled, no capture cost on the completion path beyond one
  // relaxed atomic load). Hybrid capture rule: a request is considered
  // only when its end-to-end latency reaches the threshold, and once the
  // ring is full it must also beat the current slowest-N floor.
  size_t slow_log_size = 0;
  double slow_log_threshold_seconds = 0.0;
};

// One search request as admitted by the service.
struct ServiceRequest {
  // Raw spreadsheet cells (rows x columns; empty string = empty cell).
  std::vector<std::vector<std::string>> cells;
  // options.deadline_seconds (else the service default) is measured
  // from admission, so it covers queue wait.
  SearchOptions options;
  S4System::Strategy strategy = S4System::Strategy::kFastTopK;
  // Higher runs first; FIFO among equal priorities.
  int32_t priority = 0;
  // Per-request trace sink: when set, the service records queue-wait
  // and search spans into it (and points options.trace at it for the
  // strategy/evaluator spans). Shared so the caller can keep the trace
  // alive past completion (e.g. the server's trace store).
  std::shared_ptr<obs::Trace> trace;
};

// Monotonic service counters plus a snapshot of the shared-cache stats.
struct ServiceStats {
  int64_t accepted = 0;
  int64_t rejected = 0;         // backpressure rejections at admission
  int64_t completed = 0;        // finished with OK
  int64_t deadline_misses = 0;  // finished with DeadlineExceeded
  int64_t cancelled = 0;        // finished with Cancelled
  int64_t failed = 0;           // finished with any other error
  uint64_t cache_generation = 0;
  size_t queue_depth = 0;
  CacheStats shared_cache;  // cross-query hits/misses/evictions/bytes
};

// One captured slow request (see ServiceOptions::slow_log_size). Holds
// everything needed to re-run and diagnose the query without the
// original connection: a summary of the canonical request, the outcome,
// and the full per-request resource profile.
struct SlowLogEntry {
  uint64_t seq = 0;           // capture order (monotonic)
  int64_t unix_ts_us = 0;     // wall-clock completion time
  uint64_t request_id = 0;    // trace request id (0 when untraced)
  uint64_t trace_id = 0;      // distributed trace id (0 when untraced)
  int32_t rows = 0;              // query spreadsheet shape
  int32_t cols = 0;
  int32_t k = 0;
  std::string strategy;
  std::string status;  // "OK" or the error Status string
  RunStats stats;      // zero when the request failed
  // Admission -> completion and admission-queue wall times, stamped
  // for failed requests too.
  obs::QueryProfile profile;
};

// Long-lived concurrent query service over one database (ROADMAP north
// star: one S4 deployment serving many users). Wraps an S4System with:
//
//  * one shared work-stealing ThreadPool sized to the machine — Search
//    calls no longer construct a pool each;
//  * a global cross-query SubQueryCache: sub-PJ output relations built
//    for one request are reused verbatim by later requests with the same
//    canonical signature (Sec 5.2's sharing argument lifted from
//    intra-query to inter-query scope), under one byte budget, with a
//    generation tag for invalidation;
//  * a bounded priority admission queue with reject-with-Status
//    backpressure;
//  * per-request deadlines and cooperative cancellation (StopToken
//    polled at strategy batch boundaries), so abandoned requests stop
//    burning evaluator work.
//
// Thread-safe: any thread may Submit/Search/Mutate/etc. The wrapped
// S4System (and its Database) must outlive the service.
class S4Service {
 public:
  // Handle of an admitted request: the future resolves to the search
  // result or to Cancelled / DeadlineExceeded / an execution error, and
  // the token lets the client abandon the request cooperatively.
  struct Ticket {
    std::future<StatusOr<SearchResult>> result;
    std::shared_ptr<StopToken> stop;
  };

  explicit S4Service(const S4System& system, ServiceOptions options = {});
  // Live deployment: searches run against the mutable system's current
  // epoch (pinned per request, so a search sees one consistent snapshot
  // no matter how many mutations land while it runs) and Mutate /
  // SubmitMutateAsync are enabled. The LiveS4System must outlive the
  // service.
  explicit S4Service(LiveS4System& live, ServiceOptions options = {});
  // Drains the queue (every admitted future resolves) and joins workers.
  ~S4Service();

  S4Service(const S4Service&) = delete;
  S4Service& operator=(const S4Service&) = delete;

  // Admission control: validates the request, then either enqueues it
  // (returning a Ticket) or rejects it immediately — InvalidArgument for
  // nonsensical options, ResourceExhausted when the queue is full.
  StatusOr<Ticket> Submit(ServiceRequest request);

  // Callback-style admission for event-driven callers (the network
  // layer): same validation/backpressure as Submit, but instead of a
  // future the completion is delivered by invoking `done` exactly once
  // on the worker thread that ran (or drained) the request. The caller
  // must therefore treat `done` as running on a foreign thread and
  // marshal back to its own executor (e.g. EventLoop::Post). Returns the
  // request's StopToken so the caller can cancel on client disconnect.
  StatusOr<std::shared_ptr<StopToken>> SubmitAsync(
      ServiceRequest request,
      std::function<void(StatusOr<SearchResult>)> done);

  // Blocking convenience wrapper: Submit + wait.
  StatusOr<SearchResult> Search(ServiceRequest request);

  // --- live mutation write path (live-constructed services only) ------
  // Applies one batch against the wrapped LiveS4System (see
  // src/live/mutation.h for batch-as-a-sequence semantics). Blocking;
  // writes serialize inside the live system. Returns FailedPrecondition
  // when the service wraps an immutable S4System. Mutations never bump
  // the shared-cache generation: invalidation is per-relation, via the
  // generation stamps baked into sub-PJ cache keys, so entries built
  // against untouched relations keep hitting.
  StatusOr<MutationResult> Mutate(const std::vector<Mutation>& batch,
                                  const StopToken* stop = nullptr,
                                  obs::Trace* trace = nullptr);

  // Callback-style write admission for event-driven callers (the network
  // layer): the batch runs on the shared evaluation pool and `done` is
  // invoked exactly once on a foreign thread (marshal back to your own
  // executor). The returned StopToken cancels cooperatively — the
  // applied prefix is still published. Fails fast (before scheduling)
  // for immutable deployments and during shutdown.
  StatusOr<std::shared_ptr<StopToken>> SubmitMutateAsync(
      std::vector<Mutation> batch,
      std::function<void(StatusOr<MutationResult>)> done,
      obs::Trace* trace = nullptr);

  // Invalidates every cross-query cache entry by bumping the key-space
  // generation (and eagerly dropping the bytes). The blunt "invalidate
  // everything" instrument, kept for out-of-band database reloads; the
  // live write path (Mutate) never needs it — its invalidation is
  // per-relation through the key stamps.
  void InvalidateSharedCache();

  // Ops/test hook: a paused service keeps admitting up to max_queue
  // requests but runs none until Resume (deterministic backpressure and
  // cancellation tests; drain-before-maintenance in deployments).
  void Pause();
  void Resume();

  ServiceStats stats() const;

  bool slow_log_enabled() const { return options_.slow_log_size > 0; }
  // Snapshot of the slow-query ring, slowest first. Empty when disabled.
  std::vector<SlowLogEntry> SlowLog() const;
  // The same snapshot as a JSON document ({"slow_log":[...]}) — the
  // payload of the kSlowLogResponse frame and `net_server --slow-log`.
  std::string SlowLogJson() const;

  // The served system. Live deployments: epoch 0 — stable for schema /
  // database access (neither changes; there is no DDL), NOT for reading
  // index state. Searches pin the current epoch internally.
  const S4System& system() const { return *system_; }
  // Null for immutable deployments.
  LiveS4System* live() const { return live_; }
  ThreadPool& eval_pool() { return *pool_; }
  SubQueryCache& shared_cache() { return shared_cache_; }

 private:
  struct Pending {
    ServiceRequest request;
    std::shared_ptr<StopToken> stop;
    std::promise<StatusOr<SearchResult>> promise;
    // When set, completion goes through the callback instead of the
    // promise (SubmitAsync admissions).
    std::function<void(StatusOr<SearchResult>)> done;
    int64_t seq = 0;
    std::chrono::steady_clock::time_point admitted;
  };
  struct PendingOrder {
    bool operator()(const std::shared_ptr<Pending>& a,
                    const std::shared_ptr<Pending>& b) const {
      if (a->request.priority != b->request.priority) {
        return a->request.priority < b->request.priority;  // max-heap
      }
      return a->seq > b->seq;  // FIFO among equals
    }
  };

  // Common constructor: `root` pins the system the service serves when
  // live (epoch 0 of a LiveS4System; non-owning alias for the static
  // overload), `live` is null for immutable deployments.
  S4Service(std::shared_ptr<const S4System> root, LiveS4System* live,
            ServiceOptions options);

  void WorkerLoop();
  // Validation + deadline arming + enqueue, shared by Submit and
  // SubmitAsync (the Pending must already carry its completion style).
  Status Admit(std::shared_ptr<Pending> pending);
  void RunPending(Pending& p);
  void CountOutcome(const Status& status);
  // Slow-log capture (completion path). The atomic floor makes the
  // common case — a fast request against a full ring — a single relaxed
  // load with no lock.
  void MaybeRecordSlowQuery(const Pending& p,
                            const StatusOr<SearchResult>& result,
                            double elapsed, double queue_seconds);
  // Canonical cross-query key namespace for a request: generation tag +
  // fingerprint of everything the sub-PJ tables depend on besides the
  // canonical sub-query key (spreadsheet cells and the scoring/eval
  // parameters that shape table contents).
  std::string CachePrefix(
      const std::vector<std::vector<std::string>>& cells,
      const SearchOptions& options) const;

  // Declared before system_: system_ aliases root_system_.get() when
  // live, so the pin must construct first and destroy last.
  std::shared_ptr<const S4System> root_system_;
  LiveS4System* live_ = nullptr;  // null = immutable deployment
  const S4System* system_;
  ServiceOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  SubQueryCache shared_cache_;
  std::atomic<uint64_t> generation_{0};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<std::shared_ptr<Pending>,
                      std::vector<std::shared_ptr<Pending>>, PendingOrder>
      queue_;
  bool paused_ = false;
  bool shutdown_ = false;
  int64_t next_seq_ = 0;
  std::vector<std::thread> workers_;

  // Slow-query ring (unsorted; SlowLog() sorts the snapshot). The floor
  // is the smallest captured latency once the ring is full, bit-cast to
  // u64 so the reject fast path needs no lock; 0.0 while space remains.
  mutable std::mutex slow_log_mu_;
  std::vector<SlowLogEntry> slow_log_;
  std::atomic<uint64_t> slow_log_floor_bits_{0};
  uint64_t slow_log_seq_ = 0;

  std::atomic<int64_t> accepted_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> deadline_misses_{0};
  std::atomic<int64_t> cancelled_{0};
  std::atomic<int64_t> failed_{0};
};

}  // namespace s4

#endif  // S4_SERVICE_S4_SERVICE_H_
