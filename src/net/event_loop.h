#ifndef S4_NET_EVENT_LOOP_H_
#define S4_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fd.h"
#include "common/status.h"
#include "net/wire.h"

namespace s4::net {

class Connection;

// Per-server atomic counters, shared by every loop and connection (all
// relaxed: they are reporting, not synchronization).
struct NetServerCounters {
  std::atomic<int64_t> connections_accepted{0};
  std::atomic<int64_t> connections_closed{0};
  std::atomic<int64_t> frames_received{0};
  std::atomic<int64_t> responses_sent{0};
  std::atomic<int64_t> errors_sent{0};
  std::atomic<int64_t> protocol_errors{0};
  std::atomic<int64_t> disconnect_cancels{0};
  std::atomic<int64_t> idle_closes{0};
  std::atomic<int64_t> bytes_received{0};
  std::atomic<int64_t> bytes_sent{0};
  std::atomic<int64_t> stats_requests{0};
  std::atomic<int64_t> trace_requests{0};
  // Scatter-gather shard exchanges (coordinator-facing side of a shard).
  std::atomic<int64_t> shard_partials_sent{0};
  std::atomic<int64_t> shard_stops{0};
  // Live mutation write path.
  std::atomic<int64_t> mutate_requests{0};
  // Slow-query log fetches (kSlowLogRequest frames).
  std::atomic<int64_t> slow_log_requests{0};
};

// Frame limits + timeouts a connection enforces (one copy per server,
// read-only after construction).
struct ServerTuning {
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  // A connection is closed when no bytes move for this long while a
  // partial frame is pending (slow-loris) or while it is completely idle
  // with nothing in flight. In-flight requests keep a connection alive
  // regardless.
  double idle_timeout_seconds = 60.0;
};

// Implemented by S4Server: turns decoded requests into service work.
// Called on the loop thread owning `conn`; the implementation must
// deliver the eventual response by Post()ing back to that loop.
class SearchDispatcher {
 public:
  virtual ~SearchDispatcher() = default;
  // A search, plain or one slice of a scatter-gather exchange: the
  // implementation streams kShardPartial frames at strategy batch
  // boundaries when the request asks for them (partial_every > 0), then
  // answers with one kSearchResponse (or kError).
  virtual void DispatchSearch(const std::shared_ptr<Connection>& conn,
                              uint64_t request_id, NetSearchRequest req) = 0;
  // Live mutation write path: applies the batch and answers with a
  // kMutateResponse (or kError).
  virtual void DispatchMutate(const std::shared_ptr<Connection>& conn,
                              uint64_t request_id, NetMutateRequest req) = 0;

  // Observability surface, answered synchronously on the loop thread
  // (snapshot reads, not searches).
  virtual std::string CollectStatsText() = 0;
  virtual StatusOr<std::string> CollectTraceJson(uint64_t request_id) = 0;
  // Slow-query log dump ({"slow_log":[...]} JSON).
  virtual StatusOr<std::string> CollectSlowLogJson() = 0;
};

// One epoll thread owning a set of connections. All connection I/O and
// frame parsing happens on this thread — the data path takes no locks.
// The only synchronized surface is Post(), the task queue other threads
// (acceptor, service workers) use to hand a connection work, woken
// through an eventfd.
class EventLoop {
 public:
  EventLoop(SearchDispatcher* dispatcher, NetServerCounters* counters,
            const ServerTuning& tuning);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Creates the epoll/eventfd pair and spawns the loop thread.
  Status Start();
  // Stops the thread (pending posted tasks are executed first) and
  // closes every connection still registered.
  void Stop();

  // Thread-safe: runs `fn` on the loop thread (immediately queued, run
  // on the next wakeup). Safe to call from service worker threads.
  void Post(std::function<void()> fn);

  // Thread-safe: hands a freshly accepted socket to this loop.
  void AdoptSocket(UniqueFd fd);

  // Thread-safe: closes every connection (cancelling in-flight work).
  void CloseAllConnections();

  size_t num_connections() const {
    return num_connections_.load(std::memory_order_relaxed);
  }

  SearchDispatcher* dispatcher() const { return dispatcher_; }
  NetServerCounters* counters() const { return counters_; }
  const ServerTuning& tuning() const { return tuning_; }

  // Loop-thread only (Connection back-calls).
  Status WatchConnection(Connection* conn, bool want_write);
  void RemoveConnection(int fd);

 private:
  void ThreadMain();
  void RunPostedTasks();
  void SweepIdle();

  SearchDispatcher* dispatcher_;
  NetServerCounters* counters_;
  ServerTuning tuning_;

  UniqueFd epoll_;
  UniqueFd wakeup_;  // eventfd
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> num_connections_{0};

  std::mutex tasks_mu_;
  std::vector<std::function<void()>> tasks_;

  // Loop-thread only.
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;
};

}  // namespace s4::net

#endif  // S4_NET_EVENT_LOOP_H_
