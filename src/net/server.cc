#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/string_util.h"
#include "net/socket_util.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace s4::net {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ScoredQuery -> NetTopkEntry for responses and partials. A null `db`
// leaves the SQL empty: partials carry identity + scores only (all the
// merge needs); the rendered SELECT rides the final response.
std::vector<NetTopkEntry> ToWireTopk(const std::vector<ScoredQuery>& topk,
                                     const Database* db) {
  std::vector<NetTopkEntry> out;
  out.reserve(topk.size());
  for (const ScoredQuery& sq : topk) {
    NetTopkEntry e;
    e.signature = sq.query.signature();
    if (db != nullptr) e.sql = sq.query.ToSql(*db);
    e.score = sq.score;
    e.upper_bound = sq.upper_bound;
    e.row_score = sq.row_score;
    e.column_score = sq.column_score;
    e.approximate = sq.approximate;
    e.interval = sq.interval;
    out.push_back(std::move(e));
  }
  return out;
}

// Reconstructs the frame_decode span of a request whose trace was
// created after its frame was decoded: the span ends at `start`. It
// lands before the trace epoch — export-time normalization shifts
// everything so the earliest event is ts=0.
void AddDecodeSpan(obs::Trace* trace,
                   std::chrono::steady_clock::time_point start,
                   double decode_seconds) {
  trace->AddSpan(
      "net", "frame_decode",
      start - std::chrono::duration_cast<obs::Trace::Clock::duration>(
                  std::chrono::duration<double>(decode_seconds)),
      start);
}

}  // namespace

S4Server::S4Server(S4Service* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  if (options_.num_event_loops < 1) options_.num_event_loops = 1;
}

S4Server::~S4Server() { Stop(); }

Status S4Server::Start() {
  if (acceptor_.joinable()) {
    return Status::FailedPrecondition("server already started");
  }
  auto listener = Listen(options_.bind_address, options_.port);
  if (!listener.ok()) return listener.status();
  listen_fd_ = std::move(*listener);
  auto port = LocalPort(listen_fd_.get());
  if (!port.ok()) return port.status();
  port_ = *port;

  ServerTuning tuning;
  tuning.max_frame_bytes = options_.max_frame_bytes;
  tuning.idle_timeout_seconds = options_.idle_timeout_seconds;
  loops_.reserve(static_cast<size_t>(options_.num_event_loops));
  for (int32_t i = 0; i < options_.num_event_loops; ++i) {
    auto loop = std::make_unique<EventLoop>(this, &counters_, tuning);
    S4_RETURN_IF_ERROR(loop->Start());
    loops_.push_back(std::move(loop));
  }
  acceptor_ = std::thread([this] { AcceptorMain(); });
  return Status::OK();
}

void S4Server::Stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  if (acceptor_.joinable()) acceptor_.join();
  listen_fd_.Reset();
  // Close every connection first: that cancels in-flight StopTokens, so
  // running searches wind down at their next batch boundary instead of
  // holding the drain below for a full search.
  for (auto& loop : loops_) loop->CloseAllConnections();
  {
    std::unique_lock<std::mutex> lock(inflight_mu_);
    inflight_cv_.wait(lock, [this] { return inflight_dispatches_ == 0; });
  }
  // Every completion has been posted; the loops run their queues before
  // joining, so nothing posts to a dead loop.
  for (auto& loop : loops_) loop->Stop();
}

size_t S4Server::num_connections() const {
  size_t n = 0;
  for (const auto& loop : loops_) n += loop->num_connections();
  return n;
}

void S4Server::AcceptorMain() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_.get(), POLLIN, 0};
    const int pr = poll(&pfd, 1, 100);
    if (pr <= 0) continue;  // timeout/EINTR; re-check the stop flag
    for (;;) {
      const int raw =
          accept4(listen_fd_.get(), nullptr, nullptr,
                  SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (raw < 0) break;  // EAGAIN: emptied the backlog
      UniqueFd fd(raw);
      (void)SetNoDelay(fd.get());
      loops_[next_loop_]->AdoptSocket(std::move(fd));
      next_loop_ = (next_loop_ + 1) % loops_.size();
    }
  }
}

template <typename Result, typename Submit, typename Encode>
void S4Server::Dispatch(const std::shared_ptr<Connection>& conn,
                        uint64_t request_id,
                        std::chrono::steady_clock::time_point start,
                        std::shared_ptr<obs::Trace> trace, std::string label,
                        Submit submit, Encode encode) {
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    ++inflight_dispatches_;
  }
  std::weak_ptr<Connection> wconn = conn;
  EventLoop* loop = conn->loop();
  auto done = [this, wconn, loop, request_id, start, trace,
               label = std::move(label),
               encode = std::move(encode)](StatusOr<Result> result) {
    const double server_seconds = SecondsSince(start);
    const bool is_error = !result.ok();
    std::string frame;
    std::string detail;
    {
      obs::SpanTimer encode_span(trace.get(), "net", "frame_encode");
      frame = is_error ? EncodeErrorFrame(result.status(), request_id)
                       : encode(*result, server_seconds,
                                options_.verbose ? &detail : nullptr);
    }
    if (options_.verbose) {
      if (is_error) detail = "error=" + result.status().ToString();
      std::fprintf(stderr, "[net_server] request_id=%llu %s %s "
                   "wall_seconds=%.6f\n",
                   static_cast<unsigned long long>(request_id), label.c_str(),
                   detail.c_str(), server_seconds);
    }
    if (trace) StoreTrace(request_id, trace);
    // This runs on a service worker thread; only the owning loop may
    // touch the connection. The weak_ptr keeps a disconnected peer from
    // resurrecting: the completion just evaporates.
    loop->Post([wconn, request_id, frame = std::move(frame),
                is_error]() mutable {
      if (auto c = wconn.lock(); c && !c->closed()) {
        c->CompleteRequest(request_id, std::move(frame), is_error);
      }
    });
    // Notify under the lock: the moment the count hits zero, Stop()'s
    // waiter may return and destroy the cv, so the broadcast must not
    // outlive the critical section.
    std::lock_guard<std::mutex> lock(inflight_mu_);
    --inflight_dispatches_;
    inflight_cv_.notify_all();
  };
  StatusOr<std::shared_ptr<StopToken>> stop = submit(std::move(done));
  if (!stop.ok()) {
    // Rejected at admission (backpressure, validation, immutable
    // deployment, shutdown): the callback will never run. Answer right
    // here on the loop thread — ResourceExhausted carries the retryable
    // flag on the wire.
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      --inflight_dispatches_;
      inflight_cv_.notify_all();
    }
    conn->CompleteRequest(request_id,
                          EncodeErrorFrame(stop.status(), request_id),
                          /*is_error=*/true);
    return;
  }
  conn->RegisterInflight(request_id, *stop);
}

void S4Server::DispatchSearch(const std::shared_ptr<Connection>& conn,
                              uint64_t request_id, NetSearchRequest req) {
  const auto start = std::chrono::steady_clock::now();
  ServiceRequest sreq;
  sreq.cells = std::move(req.cells);
  sreq.options = std::move(req.options);
  sreq.strategy = req.strategy;
  sreq.priority = req.priority;
  // A coordinator asking for a stitched timeline (want_trace) gets a
  // per-request trace regardless of this server's own tracing flag —
  // the segment rides back on the response either way.
  const bool want_trace = req.want_trace;
  if (options_.enable_tracing || want_trace) {
    sreq.trace = std::make_shared<obs::Trace>("search");
    sreq.trace->set_request_id(request_id);
    if (want_trace) sreq.trace->set_trace_id(req.trace_id);
    AddDecodeSpan(sreq.trace.get(), start, req.decode_seconds);
  }
  if (req.partial_every > 0) {
    // Stream every partial_every-th strategy progress snapshot as a
    // kShardPartial. The sink runs on the search thread; FIFO posting to
    // the owning loop keeps partials ordered before the final response.
    std::weak_ptr<Connection> wconn = conn;
    EventLoop* loop = conn->loop();
    const uint32_t every = req.partial_every;
    auto snapshots = std::make_shared<uint64_t>(0);
    sreq.options.progress = [this, wconn, loop, request_id, every,
                             snapshots](const SearchProgress& p) {
      if (++*snapshots % every != 0) return;
      NetShardPartial partial;
      partial.topk = ToWireTopk(p.topk, /*db=*/nullptr);
      partial.remaining_upper_bound = p.remaining_upper_bound;
      partial.stats = p.stats;
      counters_.shard_partials_sent.fetch_add(1, std::memory_order_relaxed);
      loop->Post([wconn, frame = EncodeShardPartialFrame(
                             partial, request_id)]() mutable {
        if (auto c = wconn.lock(); c && !c->closed()) {
          c->SendFrame(std::move(frame));
        }
      });
    };
  }
  const S4System::Strategy strategy = sreq.strategy;
  const bool want_profile = req.want_profile;
  std::shared_ptr<obs::Trace> trace = sreq.trace;
  Dispatch<SearchResult>(
      conn, request_id, start, trace,
      options_.verbose
          ? StrFormat("strategy=%s", S4System::StrategyName(strategy))
          : std::string(),
      [&](auto done) {
        return service_->SubmitAsync(std::move(sreq), std::move(done));
      },
      [this, request_id, want_profile, want_trace, trace](
          const SearchResult& result, double server_seconds,
          std::string* detail) {
        NetSearchResponse resp;
        resp.topk = ToWireTopk(result.topk, &service_->system().db());
        resp.interrupted = result.interrupted;
        resp.approximate = result.approximate;
        resp.stats = result.stats;
        resp.server_seconds = server_seconds;
        if (want_profile) {
          // The service stamped the timing envelope (total/queue wall) on
          // the profile before completing.
          resp.has_profile = true;
          resp.profile = result.profile;
        }
        if (want_trace) {
          // Detach everything recorded so far (the encode span is still
          // open and stays local). The wire encoder enforces the segment
          // caps; the coordinator re-checks them on decode.
          resp.has_segment = true;
          resp.segment = trace->ExportSegment();
        }
        if (detail != nullptr) {
          const RunStats& s = result.stats;
          const int64_t probes = s.cache.hits + s.cache.misses;
          *detail = StrFormat(
              "evaluated=%lld cache_hit_rate=%.3f",
              static_cast<long long>(s.queries_evaluated),
              probes > 0 ? static_cast<double>(s.cache.hits) / probes : 0.0);
        }
        return EncodeSearchResponseFrame(resp, request_id);
      });
}

void S4Server::DispatchMutate(const std::shared_ptr<Connection>& conn,
                              uint64_t request_id, NetMutateRequest req) {
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<obs::Trace> trace;
  if (options_.enable_tracing) {
    trace = std::make_shared<obs::Trace>("mutate");
    trace->set_request_id(request_id);
    AddDecodeSpan(trace.get(), start, req.decode_seconds);
  }
  Dispatch<MutationResult>(
      conn, request_id, start, trace, "mutate",
      [&](auto done) {
        return service_->SubmitMutateAsync(std::move(req.mutations),
                                           std::move(done), trace.get());
      },
      [request_id](const MutationResult& result, double server_seconds,
                   std::string* detail) {
        NetMutateResponse resp;
        resp.applied = result.applied;
        resp.epoch = result.epoch;
        resp.interrupted = result.interrupted;
        resp.error = result.error;
        resp.touched.assign(result.touched.begin(), result.touched.end());
        resp.server_seconds = server_seconds;
        if (detail != nullptr) {
          *detail = StrFormat("applied=%lld epoch=%llu",
                              static_cast<long long>(result.applied),
                              static_cast<unsigned long long>(result.epoch));
        }
        return EncodeMutateResponseFrame(resp, request_id);
      });
}

void S4Server::StoreTrace(uint64_t request_id,
                          std::shared_ptr<obs::Trace> trace) {
  std::lock_guard<std::mutex> lock(traces_mu_);
  auto it = traces_.find(request_id);
  if (it != traces_.end()) {
    // Reused id: replace the trace but keep its position in the ring.
    it->second = std::move(trace);
    return;
  }
  traces_.emplace(request_id, std::move(trace));
  trace_order_.push_back(request_id);
  while (trace_order_.size() > options_.trace_history) {
    traces_.erase(trace_order_.front());
    trace_order_.pop_front();
  }
}

std::string S4Server::CollectStatsText() {
  // Service stats collection refreshes the s4_service_* / s4_pool_* /
  // s4_shared_cache_bytes gauges as a side effect.
  (void)service_->stats();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const NetServerCounters& c = counters_;
  reg.GetGauge("s4_net_open_connections")
      .Set(static_cast<int64_t>(num_connections()));
  reg.GetGauge("s4_net_connections_accepted")
      .Set(c.connections_accepted.load(std::memory_order_relaxed));
  reg.GetGauge("s4_net_connections_closed")
      .Set(c.connections_closed.load(std::memory_order_relaxed));
  reg.GetGauge("s4_net_frames_received")
      .Set(c.frames_received.load(std::memory_order_relaxed));
  reg.GetGauge("s4_net_responses_sent")
      .Set(c.responses_sent.load(std::memory_order_relaxed));
  reg.GetGauge("s4_net_errors_sent")
      .Set(c.errors_sent.load(std::memory_order_relaxed));
  reg.GetGauge("s4_net_protocol_errors")
      .Set(c.protocol_errors.load(std::memory_order_relaxed));
  reg.GetGauge("s4_net_disconnect_cancels")
      .Set(c.disconnect_cancels.load(std::memory_order_relaxed));
  reg.GetGauge("s4_net_idle_closes")
      .Set(c.idle_closes.load(std::memory_order_relaxed));
  reg.GetGauge("s4_net_bytes_received")
      .Set(c.bytes_received.load(std::memory_order_relaxed));
  reg.GetGauge("s4_net_bytes_sent")
      .Set(c.bytes_sent.load(std::memory_order_relaxed));
  reg.GetGauge("s4_net_stats_requests")
      .Set(c.stats_requests.load(std::memory_order_relaxed));
  reg.GetGauge("s4_net_trace_requests")
      .Set(c.trace_requests.load(std::memory_order_relaxed));
  reg.GetGauge("s4_net_shard_partials_sent")
      .Set(c.shard_partials_sent.load(std::memory_order_relaxed));
  reg.GetGauge("s4_net_shard_stops")
      .Set(c.shard_stops.load(std::memory_order_relaxed));
  reg.GetGauge("s4_net_mutate_requests")
      .Set(c.mutate_requests.load(std::memory_order_relaxed));
  reg.GetGauge("s4_net_slow_log_requests")
      .Set(c.slow_log_requests.load(std::memory_order_relaxed));
  for (size_t i = 0; i < loops_.size(); ++i) {
    reg.GetGauge(StrFormat("s4_net_loop%zu_connections", i))
        .Set(static_cast<int64_t>(loops_[i]->num_connections()));
  }
  return reg.Snapshot().ToPrometheusText();
}

StatusOr<std::string> S4Server::CollectTraceJson(uint64_t request_id) {
  if (!options_.enable_tracing) {
    return Status::NotFound("tracing is not enabled on this server");
  }
  std::shared_ptr<obs::Trace> trace;
  {
    std::lock_guard<std::mutex> lock(traces_mu_);
    auto it = traces_.find(request_id);
    if (it != traces_.end()) trace = it->second;
  }
  if (!trace) {
    return Status::NotFound(StrFormat(
        "no trace for request_id %llu (not traced yet, or evicted from "
        "the %zu-entry history)",
        static_cast<unsigned long long>(request_id),
        options_.trace_history));
  }
  return trace->ToChromeJson();
}

StatusOr<std::string> S4Server::CollectSlowLogJson() {
  if (!service_->slow_log_enabled()) {
    return Status::NotFound(
        "the slow-query log is not enabled (ServiceOptions::slow_log_size "
        "is 0)");
  }
  return service_->SlowLogJson();
}

}  // namespace s4::net
