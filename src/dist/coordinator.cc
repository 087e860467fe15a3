#include "dist/coordinator.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <thread>
#include <utility>

#include "common/fd.h"
#include "common/string_util.h"
#include "net/client.h"
#include "net/socket_util.h"
#include "obs/metrics.h"

namespace s4::dist {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double Elapsed(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Global merge order: score descending, then signature ascending — the
// same canonical total order TopKHeap uses for boundary ties, so the
// merged prefix is bit-identical to the single-node selection
// (signatures are unique candidate identities; this is a total order).
bool MergeBefore(const net::NetTopkEntry& a, const net::NetTopkEntry& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.signature < b.signature;
}

}  // namespace

struct S4Coordinator::MergeState {
  struct Slot {
    // --- guarded by MergeState::mu ---------------------------------
    std::vector<net::NetTopkEntry> topk;  // latest snapshot (disjoint slice)
    double remaining_ub = kInf;
    bool approximate = false;  // shard answered approximately
    bool reported = false;   // at least one partial/done merged
    bool done = false;       // exchange finished with usable data
    bool lost = false;       // shard unreached; its data is dropped
    bool stop_sent = false;  // kShardStop issued for this exchange
    uint64_t exchange_id = 0;
    Status failure = Status::OK();  // final status of a lost shard
    DistShardStats stats;
    // --- stop-frame channel ----------------------------------------
    // The exchange socket, published while the exchange thread blocks
    // reading it, so CheckEarlyStops can write a kShardStop on the same
    // full-duplex connection. Lock order: MergeState::mu before io_mu.
    std::mutex io_mu;
    int fd = -1;
  };

  MergeState(size_t n, int32_t k, double approx_epsilon)
      : k(k), approx_epsilon(approx_epsilon) {
    slots.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      slots.push_back(std::make_unique<Slot>());
      slots.back()->stats.shard_index = static_cast<int32_t>(i);
    }
  }

  const int32_t k;
  // Request-level epsilon: > 0 arms the relaxed early-stop rule below.
  const double approx_epsilon;

  std::chrono::steady_clock::time_point start{};
  double budget = 0.0;

  // Stitching context (null / 0 when tracing is off): every shard
  // request carries trace->trace_id() and the scatter span id so
  // returned segments nest under the scatter on one shared timeline.
  obs::Trace* trace = nullptr;
  uint64_t scatter_span_id = 0;

  std::mutex mu;
  std::vector<std::unique_ptr<Slot>> slots;
  int64_t partials_received = 0;
  int64_t early_stops_sent = 0;
  // A relaxed (interval-dominance) stop was issued: the merged result
  // must be flagged approximate even if every entry was evaluated
  // exactly, because a stopped shard might still have held a candidate
  // within epsilon of the merged kth.
  bool relaxed_stop = false;
};

S4Coordinator::S4Coordinator(CoordinatorOptions options)
    : options_(std::move(options)) {}

std::shared_ptr<obs::Trace> S4Coordinator::last_trace() const {
  std::lock_guard<std::mutex> lock(trace_mu_);
  return last_trace_;
}

void S4Coordinator::CheckEarlyStops(MergeState& state) {
  // The merged kth score over the current snapshots only rises as more
  // frames arrive, so `kth > shard.remaining_ub` observed now stays
  // true at the end of the search: nothing that shard has yet to
  // evaluate can enter the global top-k (the FASTTOPK condition (7)
  // across shards; strict, so an exact ub == kth tie is still evaluated
  // and resolved under the canonical signature order). Stale
  // remaining_ub values are safe overestimates — they only delay a
  // stop, never cause a wrong one.
  if (state.k <= 0) return;
  std::vector<double> scores;
  for (const auto& slot : state.slots) {
    if (slot->lost) continue;
    for (const auto& e : slot->topk) scores.push_back(e.score);
  }
  if (scores.size() < static_cast<size_t>(state.k)) return;
  std::nth_element(scores.begin(), scores.begin() + (state.k - 1),
                   scores.end(), std::greater<double>());
  const double kth = scores[state.k - 1];
  for (auto& sp : state.slots) {
    MergeState::Slot& slot = *sp;
    if (slot.done || slot.lost || slot.stop_sent || !slot.reported) continue;
    // Exact dominance: nothing the shard has left can beat the merged
    // kth. Relaxed (interval) dominance: under approx_epsilon the
    // request already accepts any answer within kth * (1 + epsilon), so
    // a shard whose remaining upper bound is inside that slack can be
    // stopped too — at the cost of flagging the merge approximate.
    // Approximate entry scores are interval lower bounds, which only
    // under-estimate the merged kth; both rules stay sound, they just
    // stop later than perfect information would allow.
    const bool exact_stop = kth > slot.remaining_ub;
    const bool relaxed_stop =
        state.approx_epsilon > 0.0 &&
        slot.remaining_ub <= kth * (1.0 + state.approx_epsilon);
    if (!exact_stop && !relaxed_stop) continue;
    if (!exact_stop) state.relaxed_stop = true;
    slot.stop_sent = true;
    const std::string frame = net::EncodeShardStopFrame(
        slot.exchange_id,
        next_request_id_.fetch_add(1, std::memory_order_relaxed));
    std::lock_guard<std::mutex> io(slot.io_mu);
    // A failed or late delivery is harmless: the shard just finishes
    // its slice and the final response merges like any other.
    if (slot.fd >= 0 &&
        net::SendAll(slot.fd, frame.data(), frame.size(), 0.25).ok()) {
      slot.stats.early_stopped = true;
      ++state.early_stops_sent;
      obs::MetricsRegistry::Global()
          .GetCounter("s4_dist_early_stops_sent")
          .Increment();
    }
  }
}

Status S4Coordinator::RunExchangeOnce(MergeState& state, int32_t index,
                                      const net::NetSearchRequest& request) {
  MergeState::Slot& slot = *state.slots[index];
  {
    // Reset anything a failed previous attempt left behind.
    std::lock_guard<std::mutex> lock(state.mu);
    slot.topk.clear();
    slot.remaining_ub = kInf;
    slot.approximate = false;
    slot.reported = false;
    slot.stop_sent = false;
  }
  const double remaining = net::Remaining(state.start, state.budget);
  if (state.budget > 0.0 && remaining <= 1e-3) {
    return Status::DeadlineExceeded(
        "coordinator budget exhausted before the shard exchange");
  }
  const double connect_budget =
      state.budget > 0.0
          ? std::min(options_.connect_timeout_seconds, remaining)
          : options_.connect_timeout_seconds;
  auto fd_or = net::ConnectWithTimeout(options_.shards[index].host,
                                       options_.shards[index].port,
                                       connect_budget);
  if (!fd_or.ok()) return fd_or.status();
  UniqueFd fd = std::move(*fd_or);

  net::NetSearchRequest sreq = request;
  sreq.shard_count = static_cast<int32_t>(options_.shards.size());
  sreq.shard_index = index;
  sreq.partial_every = options_.partial_every;
  if (state.trace != nullptr) {
    // Cross-shard trace propagation: the shard records its own segment
    // under our trace id and ships it back on its response; the origin
    // wall-clock lets the import normalize the two machines' clocks.
    sreq.want_trace = true;
    sreq.trace_id = state.trace->trace_id();
    sreq.parent_span_id = state.scatter_span_id;
    sreq.origin_unix_us = state.trace->origin_unix_us();
  }
  if (state.budget > 0.0) {
    // Grant the shard a slice of what is left, keeping headroom for the
    // final merge and the wire.
    sreq.deadline_seconds =
        std::max(net::Remaining(state.start, state.budget) *
                     options_.shard_deadline_fraction,
                 1e-3);
  }
  const uint64_t id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  const std::string frame = net::EncodeSearchRequestFrame(sreq, id);

  {
    std::lock_guard<std::mutex> lock(state.mu);
    slot.exchange_id = id;
  }
  {
    std::lock_guard<std::mutex> io(slot.io_mu);
    slot.fd = fd.get();
  }
  // Unpublished on every way out, before `fd` closes.
  struct Unpublish {
    MergeState::Slot& slot;
    ~Unpublish() {
      std::lock_guard<std::mutex> io(slot.io_mu);
      slot.fd = -1;
    }
  } unpublish{slot};

  S4_RETURN_IF_ERROR(net::SendAll(fd.get(), frame.data(), frame.size(),
                                  net::Remaining(state.start, state.budget)));
  while (true) {
    net::FrameHeader h;
    std::string payload;
    S4_RETURN_IF_ERROR(net::RecvFrame(
        fd.get(), net::Remaining(state.start, state.budget), &h, &payload));
    if (h.request_id != id) {
      return Status::Internal(
          StrFormat("shard %d stream out of sync: frame for request %llu "
                    "while waiting for %llu",
                    index, static_cast<unsigned long long>(h.request_id),
                    static_cast<unsigned long long>(id)));
    }
    switch (h.type) {
      case net::FrameType::kShardPartial: {
        net::NetShardPartial partial;
        S4_RETURN_IF_ERROR(net::DecodeShardPartial(payload, &partial));
        std::lock_guard<std::mutex> lock(state.mu);
        slot.topk = std::move(partial.topk);
        slot.remaining_ub = partial.remaining_upper_bound;
        // Partial frames carry no response-level flag; an entry-level
        // one is just as binding for the merge.
        for (const auto& e : slot.topk) slot.approximate |= e.approximate;
        slot.reported = true;
        slot.stats.run = partial.stats;
        ++slot.stats.partials;
        ++state.partials_received;
        CheckEarlyStops(state);
        break;
      }
      case net::FrameType::kSearchResponse: {
        net::NetSearchResponse resp;
        S4_RETURN_IF_ERROR(net::DecodeSearchResponse(payload, &resp));
        if (resp.has_segment && state.trace != nullptr) {
          // Stitch the shard's timeline in as its own process, nested
          // under the scatter span. Trace has its own lock; pid 2+i
          // keeps shard processes distinct from the coordinator (pid 1).
          state.trace->ImportSegment(resp.segment,
                                     /*pid=*/2 + static_cast<uint32_t>(index),
                                     StrFormat("shard %d", index),
                                     state.scatter_span_id);
        }
        std::lock_guard<std::mutex> lock(state.mu);
        slot.topk = std::move(resp.topk);
        slot.approximate = resp.approximate;
        slot.reported = true;
        slot.stats.run = resp.stats;
        // A finished slice has nothing left to evaluate, so it is done
        // before the check (its remaining bound is moot); its final
        // top-k may unlock stops for the others.
        slot.done = true;
        CheckEarlyStops(state);
        return Status::OK();
      }
      case net::FrameType::kError: {
        net::NetError err;
        S4_RETURN_IF_ERROR(net::DecodeError(payload, &err));
        const Status app = err.ToStatus();
        std::lock_guard<std::mutex> lock(state.mu);
        if (slot.stop_sent &&
            (app.code() == StatusCode::kCancelled ||
             app.code() == StatusCode::kDeadlineExceeded)) {
          // The normal end of an early-stopped exchange: the shard
          // honoured kShardStop (or its deadline fired after ours made
          // it irrelevant). Its last snapshot is final — nothing it had
          // left could beat the merged kth.
          return Status::OK();
        }
        return app;
      }
      default:
        return Status::Internal(
            StrFormat("unexpected frame type %u in shard %d exchange",
                      static_cast<unsigned>(h.type), index));
    }
  }
}

void S4Coordinator::ExchangeShard(MergeState& state, int32_t index,
                                  const net::NetSearchRequest& request,
                                  obs::Trace* trace) {
  obs::SpanTimer span(trace, "dist", "shard_exchange");
  if (span.enabled()) span.AddArg("shard", StrFormat("%d", index));
  auto& registry = obs::MetricsRegistry::Global();
  MergeState::Slot& slot = *state.slots[index];
  const auto t0 = std::chrono::steady_clock::now();
  Status status = Status::OK();
  for (int32_t attempt = 0;; ++attempt) {
    registry.GetCounter("s4_dist_shard_requests").Increment();
    status = RunExchangeOnce(state, index, request);
    if (status.ok()) break;
    // Only admission backpressure is retryable: the request never ran,
    // so a clean resend is safe. Timeouts and transport failures are
    // not — retrying them would blow the coordinator's budget.
    if (status.code() == StatusCode::kResourceExhausted &&
        attempt < options_.max_retries &&
        (state.budget <= 0.0 || Elapsed(state.start) < state.budget)) {
      std::lock_guard<std::mutex> lock(state.mu);
      ++slot.stats.retries;
      registry.GetCounter("s4_dist_retries").Increment();
      continue;
    }
    break;
  }
  std::lock_guard<std::mutex> lock(state.mu);
  slot.stats.wall_seconds = Elapsed(t0);
  if (status.ok()) {
    slot.done = true;
    slot.stats.reached = true;
  } else {
    // Drop everything this shard reported: a lost shard's slice is
    // excluded wholesale so the degraded result stays the exact top-k
    // of the union of reached slices (a partial snapshot would be a
    // third, weaker kind of answer).
    slot.lost = true;
    slot.topk.clear();
    slot.failure = status;
    slot.stats.error = std::string(status.message());
    registry.GetCounter("s4_dist_shard_failures").Increment();
  }
}

StatusOr<DistSearchResult> S4Coordinator::Search(
    const net::NetSearchRequest& request) {
  const size_t n = options_.shards.size();
  if (n == 0) {
    return Status::InvalidArgument("coordinator has no shards configured");
  }
  if (n > static_cast<size_t>(net::kMaxWireShards)) {
    return Status::InvalidArgument(
        StrFormat("coordinator has %zu shards; the wire caps at %d", n,
                  net::kMaxWireShards));
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("s4_dist_searches").Increment();

  std::shared_ptr<obs::Trace> trace;
  if (options_.enable_tracing) {
    trace = std::make_shared<obs::Trace>("dist_search");
    // One fleet-wide id for the whole distributed request; every shard
    // segment comes back stamped with it.
    trace->set_trace_id(
        next_request_id_.fetch_add(1, std::memory_order_relaxed));
  }

  MergeState state(n, request.k, request.approx_epsilon);
  state.start = std::chrono::steady_clock::now();
  state.budget = request.deadline_seconds > 0.0
                     ? request.deadline_seconds
                     : options_.request_timeout_seconds;
  state.trace = trace.get();

  {
    obs::SpanTimer scatter(trace.get(), "dist", "scatter");
    if (scatter.enabled()) scatter.AddArg("shards", StrFormat("%zu", n));
    // The span id exists from construction, so shard requests sent
    // while the scatter is still open can already name their parent.
    state.scatter_span_id = scatter.span_id();
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      threads.emplace_back([this, &state, &request, trace, i] {
        ExchangeShard(state, static_cast<int32_t>(i), request, trace.get());
      });
    }
    for (auto& t : threads) t.join();
  }

  DistSearchResult result;
  {
    obs::SpanTimer merge(trace.get(), "dist", "merge");
    std::lock_guard<std::mutex> lock(state.mu);
    std::vector<net::NetTopkEntry> merged;
    for (auto& sp : state.slots) {
      MergeState::Slot& slot = *sp;
      if (slot.lost) {
        result.complete = false;
        result.unreached_shards.push_back(slot.stats.shard_index);
      } else {
        merged.insert(merged.end(),
                      std::make_move_iterator(slot.topk.begin()),
                      std::make_move_iterator(slot.topk.end()));
        result.stats.Add(slot.stats.run);
        result.approximate |= slot.approximate;
      }
      result.shards.push_back(slot.stats);
    }
    result.approximate |= state.relaxed_stop;
    std::sort(merged.begin(), merged.end(), MergeBefore);
    if (request.k >= 0 &&
        merged.size() > static_cast<size_t>(request.k)) {
      merged.resize(static_cast<size_t>(request.k));
    }
    result.topk = std::move(merged);
    result.partials_received = state.partials_received;
    result.early_stops_sent = state.early_stops_sent;
  }
  result.wall_seconds = Elapsed(state.start);
  // The timing envelope is the coordinator's, not any one shard's.
  result.profile.total_seconds = result.wall_seconds;
  result.profile.queue_seconds = 0.0;

  registry.GetHistogram("s4_dist_search_seconds")
      .Observe(result.wall_seconds);
  registry.GetCounter("s4_dist_partials_received")
      .Add(result.partials_received);
  if (!result.complete) {
    registry.GetCounter("s4_dist_degraded_results").Increment();
  }
  if (trace) {
    std::lock_guard<std::mutex> lock(trace_mu_);
    last_trace_ = trace;
  }

  // A search that reached no shard at all has no answer to degrade:
  // surface the first shard's typed failure as the overall status (with
  // one shard that is simply its error; with many it is the
  // request-level error every shard rejected the request with).
  if (result.unreached_shards.size() == n) {
    std::lock_guard<std::mutex> lock(state.mu);
    for (const auto& sp : state.slots) {
      if (!sp->failure.ok()) return sp->failure;
    }
    return Status::Internal(StrFormat("all %zu shards unreached", n));
  }
  return result;
}

StatusOr<DistMutateResult> S4Coordinator::Mutate(
    const std::vector<Mutation>& mutations) {
  if (options_.shards.empty()) {
    return Status::FailedPrecondition("no shards configured");
  }
  if (mutations.empty()) {
    return Status::InvalidArgument("empty mutation batch");
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("s4_dist_mutates").Increment();
  const auto start = std::chrono::steady_clock::now();

  // One broadcast at a time: with every batch reaching all shards in the
  // same order and the apply itself being deterministic, every shard's
  // epoch sequence stays bit-identical. Shards are visited sequentially
  // for the same reason — a parallel fan-out would be faster but could
  // interleave two coordinators' batches differently per shard.
  std::lock_guard<std::mutex> write_lock(mutate_mu_);

  DistMutateResult result;
  result.shards.reserve(options_.shards.size());
  int64_t min_applied = std::numeric_limits<int64_t>::max();
  for (size_t i = 0; i < options_.shards.size(); ++i) {
    DistShardMutate slot;
    slot.shard_index = static_cast<int32_t>(i);
    net::ClientOptions copts;
    copts.host = options_.shards[i].host;
    copts.port = options_.shards[i].port;
    copts.connect_timeout_seconds = options_.connect_timeout_seconds;
    copts.request_timeout_seconds = options_.request_timeout_seconds;
    net::S4Client client(copts);
    auto resp = client.Mutate(mutations);
    if (resp.ok()) {
      slot.reached = true;
      slot.response = std::move(*resp);
      min_applied = std::min(min_applied, slot.response.applied);
      if (slot.response.applied !=
              static_cast<int64_t>(mutations.size()) ||
          !slot.response.error.empty()) {
        result.complete = false;
        result.diverged_shards.push_back(slot.shard_index);
      }
    } else {
      slot.error = std::string(resp.status().message());
      result.complete = false;
      result.diverged_shards.push_back(slot.shard_index);
      registry.GetCounter("s4_dist_mutate_shard_failures").Increment();
    }
    result.shards.push_back(std::move(slot));
  }
  result.applied =
      min_applied == std::numeric_limits<int64_t>::max() ? 0 : min_applied;
  result.wall_seconds = Elapsed(start);
  if (!result.complete) {
    registry.GetCounter("s4_dist_diverged_mutates").Increment();
  }

  // A write that landed nowhere is an error, not a degraded success.
  if (result.diverged_shards.size() == options_.shards.size() &&
      result.applied == 0) {
    bool any_reached = false;
    for (const auto& s : result.shards) any_reached |= s.reached;
    if (!any_reached) {
      return Status::Internal(StrFormat("all %zu shards unreached: %s",
                                        options_.shards.size(),
                                        result.shards[0].error.c_str()));
    }
  }
  return result;
}

}  // namespace s4::dist
