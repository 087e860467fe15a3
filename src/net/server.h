#ifndef S4_NET_SERVER_H_
#define S4_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fd.h"
#include "common/latency_histogram.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "obs/trace.h"
#include "service/s4_service.h"

namespace s4::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  // 0 = kernel-assigned; read the real one back with port().
  uint16_t port = 0;
  // Event-loop threads sharing the accepted connections round-robin.
  int32_t num_event_loops = 2;
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  double idle_timeout_seconds = 60.0;
  // Observability (DESIGN.md "Observability"): when true, every search
  // request gets a per-request Trace whose Chrome-trace JSON is
  // retrievable over the wire (kTraceRequest) while it stays in the
  // bounded history below.
  bool enable_tracing = false;
  // Completed traces retained for kTraceRequest lookups (FIFO evicted).
  size_t trace_history = 128;
  // One-line per-request summary on stderr at completion.
  bool verbose = false;
};

// TCP front-end for an S4Service: one acceptor thread plus
// `num_event_loops` epoll threads, each owning its connections outright
// (the data path takes no locks; cross-thread handoff goes through
// EventLoop::Post). A decoded SearchRequest is dispatched into the
// service's admission queue from the loop thread — the deadline is armed
// at admission, i.e. effectively at frame arrival — and the completion
// callback marshals the response back to the owning loop. A client
// disconnect cancels its in-flight requests through their StopTokens.
//
// The wrapped service must outlive the server. Stop() (also run by the
// destructor) refuses new connections, closes existing ones, then waits
// for in-flight dispatches to drain before the loops are joined, so no
// completion ever posts to a dead loop.
class S4Server : public SearchDispatcher {
 public:
  explicit S4Server(S4Service* service, ServerOptions options = {});
  ~S4Server() override;

  S4Server(const S4Server&) = delete;
  S4Server& operator=(const S4Server&) = delete;

  Status Start();
  void Stop();

  // The port actually bound (differs from options when it was 0).
  uint16_t port() const { return port_; }

  const NetServerCounters& counters() const { return counters_; }
  size_t num_connections() const;
  // Server-side request latency (frame arrival -> response queued),
  // merged across event loops.
  LatencyHistogram::Snapshot latency() const;

  // SearchDispatcher (called on a loop thread). A request with
  // partial_every > 0 also gets a strategy progress sink that streams
  // kShardPartial frames (throttled to that cadence) back through the
  // owning loop ahead of the final kSearchResponse.
  void DispatchSearch(const std::shared_ptr<Connection>& conn,
                      uint64_t request_id, NetSearchRequest req) override;
  // Live mutation write path: hands the batch to the service (which
  // rejects it on immutable deployments) and answers kMutateResponse.
  // Even a batch that stopped early (per-op failure, cancellation)
  // travels as a kMutateResponse — the applied prefix and its epoch are
  // the answer; kError is reserved for admission-level rejection.
  void DispatchMutate(const std::shared_ptr<Connection>& conn,
                      uint64_t request_id, NetMutateRequest req) override;
  // Refreshes the net/service gauges and returns a Prometheus text dump
  // of the global registry. Also the renderer behind a --stats-port
  // scrape endpoint.
  std::string CollectStatsText() override;
  // Chrome-trace JSON of a completed traced request still in history.
  StatusOr<std::string> CollectTraceJson(uint64_t request_id) override;
  // JSON dump of the service's slow-query ring; NotFound when disabled.
  StatusOr<std::string> CollectSlowLogJson() override;

 private:
  void AcceptorMain();
  // The dispatch skeleton shared by searches and mutations: counts the
  // dispatch in flight (Stop() drains them), hands `submit` a completion
  // that encodes the answer on the worker thread — `encode` for a
  // success, a kError frame otherwise — and posts it to the owning
  // loop, and answers an admission rejection on the spot. `label`
  // prefixes the verbose log line; `encode` fills its detail when asked.
  template <typename Result, typename Submit, typename Encode>
  void Dispatch(const std::shared_ptr<Connection>& conn, uint64_t request_id,
                std::chrono::steady_clock::time_point start,
                std::shared_ptr<obs::Trace> trace, std::string label,
                Submit submit, Encode encode);
  void StoreTrace(uint64_t request_id, std::shared_ptr<obs::Trace> trace);

  S4Service* service_;
  ServerOptions options_;
  NetServerCounters counters_;
  std::vector<std::unique_ptr<EventLoop>> loops_;

  UniqueFd listen_fd_;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> stop_{false};
  size_t next_loop_ = 0;  // acceptor-thread only

  // Dispatches whose completion callback has not yet run; Stop() waits
  // for zero before tearing the loops down.
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  int64_t inflight_dispatches_ = 0;

  // Bounded history of completed traces keyed by wire request_id
  // (last-writer-wins on a client reusing an id).
  mutable std::mutex traces_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<obs::Trace>> traces_;
  std::deque<uint64_t> trace_order_;
};

}  // namespace s4::net

#endif  // S4_NET_SERVER_H_
