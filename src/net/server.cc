#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <limits>
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

NetSearchResponse BuildResponse(const SearchResult& result,
                                double server_seconds, const Database& db,
                                bool want_profile) {
  NetSearchResponse resp;
  resp.topk.reserve(result.topk.size());
  for (const ScoredQuery& sq : result.topk) {
    NetTopkEntry e;
    e.signature = sq.query.signature();
    e.sql = sq.query.ToSql(db);
    e.score = sq.score;
    e.upper_bound = sq.upper_bound;
    e.row_score = sq.row_score;
    e.column_score = sq.column_score;
    e.approximate = sq.approximate;
    e.interval_lo = sq.interval.lo;
    e.interval_hi = sq.interval.hi;
    e.interval_confidence = sq.interval.confidence;
    e.support = sq.interval.support;
    e.sampled = sq.interval.sampled;
    resp.topk.push_back(std::move(e));
  }
  resp.interrupted = result.interrupted;
  resp.approximate = result.approximate;
  resp.stats = result.stats;
  resp.server_seconds = server_seconds;
  if (want_profile) {
    // The service stamped the timing envelope (total/queue wall) on the
    // profile before completing.
    resp.has_profile = true;
    resp.profile = result.profile;
  }
  return resp;
}

const char* StrategyName(S4System::Strategy s) {
  switch (s) {
    case S4System::Strategy::kNaive:
      return "naive";
    case S4System::Strategy::kBaseline:
      return "baseline";
    case S4System::Strategy::kFastTopK:
      return "fasttopk";
  }
  return "unknown";
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

LatencyHistogram::Snapshot S4Server::latency() const {
  LatencyHistogram::Snapshot merged;
  for (const auto& loop : loops_) {
    merged.Merge(loop->latency().snapshot());
  }
  return merged;
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

void S4Server::DispatchSearch(const std::shared_ptr<Connection>& conn,
                              uint64_t request_id, NetSearchRequest req) {
  const auto start = std::chrono::steady_clock::now();
  ServiceRequest sreq;
  sreq.options = req.ToSearchOptions();
  sreq.strategy = req.ToStrategy();
  sreq.priority = req.priority;
  sreq.deadline_seconds = req.deadline_seconds;
  sreq.cells = std::move(req.cells);
  if (options_.enable_tracing) {
    sreq.trace = std::make_shared<obs::Trace>("search");
    sreq.trace->set_request_id(request_id);
    // The frame was decoded before the trace existed; reconstruct its
    // span ending now. It lands before the trace epoch — export-time
    // normalization shifts everything so the earliest event is ts=0.
    sreq.trace->AddSpan(
        "net", "frame_decode",
        start - std::chrono::duration_cast<obs::Trace::Clock::duration>(
                    std::chrono::duration<double>(req.decode_seconds)),
        start);
  }
  const S4System::Strategy strategy = sreq.strategy;
  const bool want_profile = req.want_profile;
  std::shared_ptr<obs::Trace> trace = sreq.trace;

  std::weak_ptr<Connection> wconn = conn;
  EventLoop* loop = conn->loop();
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    ++inflight_dispatches_;
  }
  auto done = [this, wconn, loop, request_id, start, strategy, want_profile,
               trace](StatusOr<SearchResult> result) {
    const double server_seconds = SecondsSince(start);
    std::string frame;
    bool is_error = false;
    {
      obs::SpanTimer encode_span(trace.get(), "net", "frame_encode");
      if (result.ok()) {
        frame = EncodeSearchResponseFrame(
            BuildResponse(*result, server_seconds, service_->system().db(),
                          want_profile),
            request_id);
      } else {
        frame = EncodeErrorFrame(result.status(), request_id);
        is_error = true;
      }
    }
    if (options_.verbose) {
      if (result.ok()) {
        const RunStats& s = result->stats;
        const int64_t probes = s.cache.hits + s.cache.misses;
        std::fprintf(
            stderr,
            "[net_server] request_id=%llu strategy=%s evaluated=%lld "
            "cache_hit_rate=%.3f wall_seconds=%.6f\n",
            static_cast<unsigned long long>(request_id),
            StrategyName(strategy),
            static_cast<long long>(s.queries_evaluated),
            probes > 0 ? static_cast<double>(s.cache.hits) / probes : 0.0,
            server_seconds);
      } else {
        std::fprintf(stderr,
                     "[net_server] request_id=%llu strategy=%s error=%s "
                     "wall_seconds=%.6f\n",
                     static_cast<unsigned long long>(request_id),
                     StrategyName(strategy),
                     result.status().ToString().c_str(), server_seconds);
      }
    }
    if (trace) StoreTrace(request_id, trace);
    // This runs on a service worker thread; only the owning loop may
    // touch the connection. The weak_ptr keeps a disconnected peer from
    // resurrecting: the completion just evaporates.
    loop->Post([wconn, request_id, frame = std::move(frame), is_error,
                server_seconds]() mutable {
      if (auto c = wconn.lock(); c && !c->closed()) {
        c->CompleteRequest(request_id, std::move(frame), is_error,
                           server_seconds);
      }
    });
    {
      // Notify under the lock: the moment the count hits zero, Stop()'s
      // waiter may return and destroy the cv, so the broadcast must not
      // outlive the critical section.
      std::lock_guard<std::mutex> lock(inflight_mu_);
      --inflight_dispatches_;
      inflight_cv_.notify_all();
    }
  };
  auto stop = service_->SubmitAsync(std::move(sreq), std::move(done));
  if (!stop.ok()) {
    // Rejected at admission (backpressure, validation, shutdown): the
    // callback will never run. Answer right here on the loop thread —
    // ResourceExhausted carries the retryable flag on the wire.
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      --inflight_dispatches_;
      inflight_cv_.notify_all();
    }
    conn->CompleteRequest(request_id,
                          EncodeErrorFrame(stop.status(), request_id),
                          /*is_error=*/true, SecondsSince(start));
    return;
  }
  conn->RegisterInflight(request_id, *stop);
}

void S4Server::DispatchShardSearch(const std::shared_ptr<Connection>& conn,
                                   uint64_t request_id,
                                   NetShardSearchRequest req) {
  const auto start = std::chrono::steady_clock::now();
  ServiceRequest sreq;
  sreq.options = req.base.ToSearchOptions();
  sreq.options.shard_count = req.shard_count;
  sreq.options.shard_index = req.shard_index;
  sreq.strategy = req.base.ToStrategy();
  sreq.priority = req.base.priority;
  sreq.deadline_seconds = req.base.deadline_seconds;
  sreq.cells = std::move(req.base.cells);
  // A coordinator asking for a stitched timeline (want_trace) gets a
  // per-request trace regardless of this server's own tracing flag —
  // the segment rides back on kShardDone either way.
  const bool want_trace = req.want_trace;
  if (options_.enable_tracing || want_trace) {
    sreq.trace = std::make_shared<obs::Trace>("shard_search");
    sreq.trace->set_request_id(request_id);
    if (want_trace) sreq.trace->set_trace_id(req.trace_id);
    sreq.trace->AddSpan(
        "net", "frame_decode",
        start - std::chrono::duration_cast<obs::Trace::Clock::duration>(
                    std::chrono::duration<double>(req.base.decode_seconds)),
        start);
  }
  const bool want_profile = req.base.want_profile;
  std::shared_ptr<obs::Trace> trace = sreq.trace;

  std::weak_ptr<Connection> wconn = conn;
  EventLoop* loop = conn->loop();

  // Last remaining-upper-bound snapshot the strategy reported, shared
  // between the progress sink (service worker thread) and the done
  // callback. Starts at +inf: "nothing proven yet" is the only safe
  // claim before the first snapshot.
  struct ShardProgressState {
    std::atomic<uint64_t> snapshots{0};
    std::atomic<uint64_t> remaining_ub_bits{
        std::bit_cast<uint64_t>(std::numeric_limits<double>::infinity())};
  };
  auto state = std::make_shared<ShardProgressState>();
  if (req.partial_every > 0) {
    const uint32_t every = req.partial_every;
    sreq.options.progress = [this, wconn, loop, request_id, every,
                             state](const SearchProgress& p) {
      state->remaining_ub_bits.store(
          std::bit_cast<uint64_t>(p.remaining_upper_bound),
          std::memory_order_relaxed);
      const uint64_t n =
          state->snapshots.fetch_add(1, std::memory_order_relaxed) + 1;
      if (n % every != 0) return;
      NetShardPartial partial;
      partial.remaining_upper_bound = p.remaining_upper_bound;
      partial.enumerated = p.enumerated;
      partial.evaluated = p.evaluated;
      partial.batches = p.batches;
      partial.topk.reserve(p.topk.size());
      for (const ScoredQuery& sq : p.topk) {
        NetTopkEntry e;
        e.signature = sq.query.signature();
        // No SQL in partials: the merge needs identity + scores only;
        // the rendered SELECT rides the final kShardDone.
        e.score = sq.score;
        e.upper_bound = sq.upper_bound;
        e.row_score = sq.row_score;
        e.column_score = sq.column_score;
        e.approximate = sq.approximate;
        e.interval_lo = sq.interval.lo;
        e.interval_hi = sq.interval.hi;
        e.interval_confidence = sq.interval.confidence;
        e.support = sq.interval.support;
        e.sampled = sq.interval.sampled;
        partial.topk.push_back(std::move(e));
      }
      counters_.shard_partials_sent.fetch_add(1, std::memory_order_relaxed);
      std::string frame = EncodeShardPartialFrame(partial, request_id);
      // Streamed from the search thread; FIFO posting to the owning loop
      // keeps partials ordered before the final done frame.
      loop->Post([wconn, frame = std::move(frame)]() mutable {
        if (auto c = wconn.lock(); c && !c->closed()) {
          c->SendFrame(std::move(frame));
        }
      });
    };
  }

  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    ++inflight_dispatches_;
  }
  auto done = [this, wconn, loop, request_id, start, state, want_trace,
               want_profile, trace](StatusOr<SearchResult> result) {
    const double server_seconds = SecondsSince(start);
    std::string frame;
    bool is_error = false;
    {
      obs::SpanTimer encode_span(trace.get(), "net", "frame_encode");
      if (result.ok()) {
        NetShardDone done_msg;
        done_msg.response = BuildResponse(
            *result, server_seconds, service_->system().db(), want_profile);
        done_msg.remaining_upper_bound = std::bit_cast<double>(
            state->remaining_ub_bits.load(std::memory_order_relaxed));
        if (want_trace && trace != nullptr) {
          // Detach everything recorded so far (the encode span above is
          // still open and stays local). The wire encoder enforces the
          // segment caps; the coordinator re-checks them on decode.
          done_msg.has_segment = true;
          done_msg.segment = trace->ExportSegment();
        }
        frame = EncodeShardDoneFrame(done_msg, request_id);
      } else {
        frame = EncodeErrorFrame(result.status(), request_id);
        is_error = true;
      }
    }
    if (trace) StoreTrace(request_id, trace);
    loop->Post([wconn, request_id, frame = std::move(frame), is_error,
                server_seconds]() mutable {
      if (auto c = wconn.lock(); c && !c->closed()) {
        c->CompleteRequest(request_id, std::move(frame), is_error,
                           server_seconds);
      }
    });
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      --inflight_dispatches_;
      inflight_cv_.notify_all();
    }
  };
  auto stop = service_->SubmitAsync(std::move(sreq), std::move(done));
  if (!stop.ok()) {
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      --inflight_dispatches_;
      inflight_cv_.notify_all();
    }
    conn->CompleteRequest(request_id,
                          EncodeErrorFrame(stop.status(), request_id),
                          /*is_error=*/true, SecondsSince(start));
    return;
  }
  conn->RegisterInflight(request_id, *stop);
}

void S4Server::DispatchMutate(const std::shared_ptr<Connection>& conn,
                              uint64_t request_id, NetMutateRequest req) {
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<obs::Trace> trace;
  if (options_.enable_tracing) {
    trace = std::make_shared<obs::Trace>("mutate");
    trace->set_request_id(request_id);
    trace->AddSpan(
        "net", "frame_decode",
        start - std::chrono::duration_cast<obs::Trace::Clock::duration>(
                    std::chrono::duration<double>(req.decode_seconds)),
        start);
  }

  std::weak_ptr<Connection> wconn = conn;
  EventLoop* loop = conn->loop();
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    ++inflight_dispatches_;
  }
  auto done = [this, wconn, loop, request_id, start,
               trace](StatusOr<MutationResult> result) {
    const double server_seconds = SecondsSince(start);
    std::string frame;
    bool is_error = false;
    {
      obs::SpanTimer encode_span(trace.get(), "net", "frame_encode");
      if (result.ok()) {
        NetMutateResponse resp;
        resp.applied = result->applied;
        resp.epoch = result->epoch;
        resp.interrupted = result->interrupted;
        resp.error = result->error;
        resp.touched.assign(result->touched.begin(), result->touched.end());
        resp.server_seconds = server_seconds;
        frame = EncodeMutateResponseFrame(resp, request_id);
      } else {
        frame = EncodeErrorFrame(result.status(), request_id);
        is_error = true;
      }
    }
    if (options_.verbose) {
      if (result.ok()) {
        std::fprintf(stderr,
                     "[net_server] request_id=%llu mutate applied=%lld "
                     "epoch=%llu wall_seconds=%.6f\n",
                     static_cast<unsigned long long>(request_id),
                     static_cast<long long>(result->applied),
                     static_cast<unsigned long long>(result->epoch),
                     server_seconds);
      } else {
        std::fprintf(stderr,
                     "[net_server] request_id=%llu mutate error=%s "
                     "wall_seconds=%.6f\n",
                     static_cast<unsigned long long>(request_id),
                     result.status().ToString().c_str(), server_seconds);
      }
    }
    if (trace) StoreTrace(request_id, trace);
    loop->Post([wconn, request_id, frame = std::move(frame), is_error,
                server_seconds]() mutable {
      if (auto c = wconn.lock(); c && !c->closed()) {
        c->CompleteRequest(request_id, std::move(frame), is_error,
                           server_seconds);
      }
    });
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      --inflight_dispatches_;
      inflight_cv_.notify_all();
    }
  };
  auto stop = service_->SubmitMutateAsync(std::move(req.mutations),
                                          std::move(done), trace.get());
  if (!stop.ok()) {
    // Rejected before scheduling (immutable deployment, shutdown): the
    // callback will never run; answer on the loop thread.
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      --inflight_dispatches_;
      inflight_cv_.notify_all();
    }
    conn->CompleteRequest(request_id,
                          EncodeErrorFrame(stop.status(), request_id),
                          /*is_error=*/true, SecondsSince(start));
    return;
  }
  conn->RegisterInflight(request_id, *stop);
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
  reg.GetGauge("s4_net_shard_requests")
      .Set(c.shard_requests.load(std::memory_order_relaxed));
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
