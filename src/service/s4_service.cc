#include "service/s4_service.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/hash_util.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace s4 {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The slow-log floor lives in an atomic<uint64_t> (atomic<double> CAS
// loops are overkill for a monotone threshold); non-negative latencies
// bit-cast order-preservingly.
uint64_t DoubleToBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// Slow-log order: by admission-to-completion wall time.
bool FasterRequest(const SlowLogEntry& a, const SlowLogEntry& b) {
  return a.profile.total_seconds < b.profile.total_seconds;
}

// Registry counters bumped at service events (admission, completion).
// References resolved once; the registry keeps them stable.
struct ServiceCounters {
  obs::Counter* accepted;
  obs::Counter* rejected;
  obs::Counter* completed;
  obs::Counter* deadline_misses;
  obs::Counter* cancelled;
  obs::Counter* failed;
  obs::Histogram* request_latency;
};

const ServiceCounters& Counters() {
  static const ServiceCounters c = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    return ServiceCounters{
        &reg.GetCounter("s4_service_accepted_total"),
        &reg.GetCounter("s4_service_rejected_total"),
        &reg.GetCounter("s4_service_completed_total"),
        &reg.GetCounter("s4_service_deadline_misses_total"),
        &reg.GetCounter("s4_service_cancelled_total"),
        &reg.GetCounter("s4_service_failed_total"),
        &reg.GetHistogram("s4_request_latency_seconds"),
    };
  }();
  return c;
}

}  // namespace

S4Service::S4Service(const S4System& system, ServiceOptions options)
    // Non-owning alias pin: the caller guarantees `system` outlives the
    // service, the shared_ptr is just the common-constructor currency.
    : S4Service(std::shared_ptr<const S4System>(
                    std::shared_ptr<const S4System>(), &system),
                /*live=*/nullptr, options) {}

S4Service::S4Service(LiveS4System& live, ServiceOptions options)
    : S4Service(live.current(), &live, options) {}

S4Service::S4Service(std::shared_ptr<const S4System> root,
                     LiveS4System* live, ServiceOptions options)
    : root_system_(std::move(root)),
      live_(live),
      system_(root_system_.get()),
      options_(options),
      pool_(std::make_unique<ThreadPool>(options.eval_threads)),
      shared_cache_(options.shared_cache_bytes,
                    options.shared_cache_shards > 0
                        ? options.shared_cache_shards
                        : SubQueryCache::ShardsForThreads(
                              pool_->num_threads())) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.max_queue < 1) options_.max_queue = 1;
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int32_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

S4Service::~S4Service() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::string S4Service::CachePrefix(
    const std::vector<std::vector<std::string>>& cells,
    const SearchOptions& options) const {
  // Everything that shapes a sub-PJ table's *contents* beyond its
  // canonical sub-query key must land in the fingerprint; anything extra
  // only fragments sharing, never breaks it. Cell separators keep
  // {"ab",""} distinct from {"a","b"}.
  std::string buf;
  for (const auto& row : cells) {
    for (const std::string& cell : row) {
      buf += cell;
      buf += '\x1f';
    }
    buf += '\x1e';
  }
  buf += StrFormat("|idf=%d|emb=%.17g|sp=%d|dz=%d",
                   options.score.use_idf ? 1 : 0,
                   options.score.exact_match_bonus,
                   options.score.spelling_edits,
                   options.drop_zero_rows ? 1 : 0);
  return StrFormat("g%llu|s%016llx|",
                   static_cast<unsigned long long>(
                       generation_.load(std::memory_order_relaxed)),
                   static_cast<unsigned long long>(FingerprintString(buf)));
}

Status S4Service::Admit(std::shared_ptr<Pending> pending) {
  S4_RETURN_IF_ERROR(ValidateSearchOptions(pending->request.options));
  if (options_.shard_count > 0 &&
      (pending->request.options.shard_count != options_.shard_count ||
       pending->request.options.shard_index != options_.shard_index)) {
    return Status::FailedPrecondition(StrFormat(
        "shard-aware admission: this service owns slice %d of %d, request "
        "targets slice %d of %d",
        options_.shard_index, options_.shard_count,
        pending->request.options.shard_index,
        pending->request.options.shard_count));
  }
  pending->stop = std::make_shared<StopToken>();
  pending->admitted = std::chrono::steady_clock::now();
  // Deadline resolution: the request's options, else the service
  // default. Armed at admission so queue wait counts against it.
  double deadline = pending->request.options.deadline_seconds;
  if (deadline <= 0.0) deadline = options_.default_deadline_seconds;
  if (deadline > 0.0) pending->stop->SetDeadline(deadline);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("service is shutting down");
    }
    if (queue_.size() >= options_.max_queue) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      Counters().rejected->Increment();
      return Status::ResourceExhausted(
          StrFormat("admission queue full (%zu queued)", queue_.size()));
    }
    pending->seq = next_seq_++;
    queue_.push(std::move(pending));
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  Counters().accepted->Increment();
  cv_.notify_one();
  return Status::OK();
}

StatusOr<S4Service::Ticket> S4Service::Submit(ServiceRequest request) {
  auto pending = std::make_shared<Pending>();
  pending->request = std::move(request);
  Ticket ticket;
  ticket.result = pending->promise.get_future();
  S4_RETURN_IF_ERROR(Admit(pending));
  ticket.stop = pending->stop;
  return ticket;
}

StatusOr<std::shared_ptr<StopToken>> S4Service::SubmitAsync(
    ServiceRequest request,
    std::function<void(StatusOr<SearchResult>)> done) {
  auto pending = std::make_shared<Pending>();
  pending->request = std::move(request);
  pending->done = std::move(done);
  S4_RETURN_IF_ERROR(Admit(pending));
  return pending->stop;
}

StatusOr<SearchResult> S4Service::Search(ServiceRequest request) {
  auto ticket = Submit(std::move(request));
  if (!ticket.ok()) return ticket.status();
  return ticket->result.get();
}

void S4Service::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Pending> p;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return shutdown_ || (!paused_ && !queue_.empty());
      });
      // On shutdown, drain the queue so every admitted future resolves.
      if (queue_.empty()) return;
      p = queue_.top();
      queue_.pop();
    }
    RunPending(*p);
  }
}

void S4Service::CountOutcome(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      completed_.fetch_add(1, std::memory_order_relaxed);
      Counters().completed->Increment();
      break;
    case StatusCode::kDeadlineExceeded:
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
      Counters().deadline_misses->Increment();
      break;
    case StatusCode::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      Counters().cancelled->Increment();
      break;
    default:
      failed_.fetch_add(1, std::memory_order_relaxed);
      Counters().failed->Increment();
      break;
  }
}

void S4Service::RunPending(Pending& p) {
  obs::Trace* trace = p.request.trace.get();
  const double queue_seconds = SecondsSince(p.admitted);
  if (trace != nullptr) {
    trace->AddSpan("service", "admission_queue_wait", p.admitted,
                   std::chrono::steady_clock::now());
  }
  StatusOr<SearchResult> result = [&]() -> StatusOr<SearchResult> {
    // A request abandoned (or expired) while queued is not worth
    // starting at all.
    if (p.stop->cancelled()) {
      if (trace != nullptr) {
        trace->AddInstant("service", "cancelled_while_queued");
      }
      return Status::Cancelled("request cancelled while queued");
    }
    if (p.stop->deadline_expired()) {
      if (trace != nullptr) {
        trace->AddInstant("service", "deadline_expired_while_queued");
      }
      return Status::DeadlineExceeded("deadline expired while queued");
    }
    SearchOptions opts = p.request.options;
    opts.pool = pool_.get();
    opts.stop = p.stop.get();
    opts.deadline_seconds = 0.0;  // the admission token already carries it
    opts.shared_cache = &shared_cache_;
    opts.shared_cache_prefix = CachePrefix(p.request.cells, opts);
    opts.trace = trace;
    // Live deployments: pin the current epoch for this one request. The
    // pin keeps the whole index snapshot alive through the search even
    // if writers publish (and readers elsewhere retire) newer epochs.
    const S4System* sys = system_;
    std::shared_ptr<const S4System> pinned;
    if (live_ != nullptr) {
      pinned = live_->current();
      sys = pinned.get();
    }
    obs::SpanTimer span(trace, "service", "search");
    return sys->Search(p.request.cells, opts, p.request.strategy);
  }();
  CountOutcome(result.status());
  const double elapsed = SecondsSince(p.admitted);
  Counters().request_latency->Observe(elapsed);
  if (result.ok()) {
    // The strategy filled the work counters; only the service knows the
    // end-to-end wall clock, so the timing envelope is stamped here.
    result->profile.total_seconds = elapsed;
    result->profile.queue_seconds = queue_seconds;
  }
  MaybeRecordSlowQuery(p, result, elapsed, queue_seconds);
  if (p.done) {
    p.done(std::move(result));
  } else {
    p.promise.set_value(std::move(result));
  }
}

void S4Service::MaybeRecordSlowQuery(const Pending& p,
                                     const StatusOr<SearchResult>& result,
                                     double elapsed, double queue_seconds) {
  if (options_.slow_log_size == 0) return;
  if (elapsed < options_.slow_log_threshold_seconds) return;
  // Lock-free reject: once the ring is full, the floor holds the
  // slowest-N cutoff; a request below it can never be inserted, so the
  // common fast-request case costs one relaxed load.
  if (elapsed <= BitsToDouble(
                     slow_log_floor_bits_.load(std::memory_order_relaxed))) {
    return;
  }
  SlowLogEntry entry;
  entry.unix_ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
  if (p.request.trace != nullptr) {
    entry.request_id = p.request.trace->request_id();
    entry.trace_id = p.request.trace->trace_id();
  }
  entry.profile.total_seconds = elapsed;
  entry.profile.queue_seconds = queue_seconds;
  entry.rows = static_cast<int32_t>(p.request.cells.size());
  entry.cols = p.request.cells.empty()
                   ? 0
                   : static_cast<int32_t>(p.request.cells.front().size());
  entry.k = p.request.options.k;
  entry.strategy = S4System::StrategyName(p.request.strategy);
  entry.status = result.ok() ? "OK" : result.status().ToString();
  if (result.ok()) entry.stats = result->stats;

  std::lock_guard<std::mutex> lock(slow_log_mu_);
  // Re-check under the lock: the floor may have risen since the relaxed
  // load (two slow requests completing together).
  if (slow_log_.size() >= options_.slow_log_size) {
    auto slowest_n_floor =
        std::min_element(slow_log_.begin(), slow_log_.end(), FasterRequest);
    if (elapsed <= slowest_n_floor->profile.total_seconds) return;
    *slowest_n_floor = SlowLogEntry{};  // evict: overwrite in place
    entry.seq = ++slow_log_seq_;
    *slowest_n_floor = std::move(entry);
  } else {
    entry.seq = ++slow_log_seq_;
    slow_log_.push_back(std::move(entry));
  }
  if (slow_log_.size() >= options_.slow_log_size) {
    const double floor =
        std::min_element(slow_log_.begin(), slow_log_.end(), FasterRequest)
            ->profile.total_seconds;
    slow_log_floor_bits_.store(DoubleToBits(floor),
                               std::memory_order_relaxed);
  }
}

std::vector<SlowLogEntry> S4Service::SlowLog() const {
  std::vector<SlowLogEntry> snapshot;
  {
    std::lock_guard<std::mutex> lock(slow_log_mu_);
    snapshot = slow_log_;
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const SlowLogEntry& a, const SlowLogEntry& b) {
              return FasterRequest(b, a);
            });
  return snapshot;
}

std::string S4Service::SlowLogJson() const {
  const std::vector<SlowLogEntry> entries = SlowLog();
  std::string out = "{\"slow_log\":[";
  bool first = true;
  for (const SlowLogEntry& e : entries) {
    if (!first) out += ',';
    first = false;
    out += StrFormat(
        "{\"seq\":%llu,\"unix_ts_us\":%lld,\"request_id\":%llu,"
        "\"trace_id\":%llu,\"elapsed_ms\":%.3f,\"queue_ms\":%.3f,"
        "\"rows\":%d,\"cols\":%d,\"k\":%d,\"strategy\":\"%s\","
        "\"status\":\"%s\",\"stats\":",
        static_cast<unsigned long long>(e.seq),
        static_cast<long long>(e.unix_ts_us),
        static_cast<unsigned long long>(e.request_id),
        static_cast<unsigned long long>(e.trace_id),
        e.profile.total_seconds * 1e3, e.profile.queue_seconds * 1e3, e.rows,
        e.cols, e.k, obs::JsonEscape(e.strategy).c_str(),
        obs::JsonEscape(e.status).c_str());
    out += obs::RunStatsJson(e.stats);
    out += '}';
  }
  out += "]}";
  return out;
}

StatusOr<MutationResult> S4Service::Mutate(const std::vector<Mutation>& batch,
                                           const StopToken* stop,
                                           obs::Trace* trace) {
  if (live_ == nullptr) {
    return Status::FailedPrecondition(
        "this service wraps an immutable S4System; construct it from a "
        "LiveS4System to enable mutations");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("service is shutting down");
    }
  }
  // Deliberately no generation_ bump: per-relation stamps in the sub-PJ
  // cache keys retire exactly the entries the batch touched.
  return live_->Apply(batch, stop, trace);
}

StatusOr<std::shared_ptr<StopToken>> S4Service::SubmitMutateAsync(
    std::vector<Mutation> batch,
    std::function<void(StatusOr<MutationResult>)> done,
    obs::Trace* trace) {
  if (live_ == nullptr) {
    return Status::FailedPrecondition(
        "this service wraps an immutable S4System; construct it from a "
        "LiveS4System to enable mutations");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("service is shutting down");
    }
  }
  auto stop = std::make_shared<StopToken>();
  // Writes ride the shared evaluation pool rather than the admission
  // queue: they serialize on the live system's write lock anyway, and a
  // full search queue must not delay (or reject) writes behind reads.
  pool_->Submit([this, batch = std::move(batch), done = std::move(done),
                 stop, trace]() mutable {
    done(live_->Apply(batch, stop.get(), trace));
  });
  return stop;
}

void S4Service::InvalidateSharedCache() {
  // New generation first: requests admitted from here on miss the old
  // key space even before the eager drop below completes.
  generation_.fetch_add(1, std::memory_order_relaxed);
  shared_cache_.Clear();
}

void S4Service::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void S4Service::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

ServiceStats S4Service::stats() const {
  ServiceStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.cache_generation = generation_.load(std::memory_order_relaxed);
  s.shared_cache = shared_cache_.stats();
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.queue_depth = queue_.size();
  }

  // Refresh the instantaneous gauges in the global registry on every
  // collection: last-writer-wins values scraped from the one place that
  // can see the queue, the pool, and the shared cache together.
  // Lifetime pool totals are exported as gauges too — the
  // pool keeps raw atomics (no registry dependency), so Set() with the
  // current value is the faithful translation.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("s4_service_queue_depth").Set(static_cast<int64_t>(s.queue_depth));
  const ThreadPool::Stats pool_stats = pool_->stats();
  reg.GetGauge("s4_pool_queue_depth").Set(pool_stats.queued);
  reg.GetGauge("s4_pool_tasks_executed").Set(pool_stats.executed);
  reg.GetGauge("s4_pool_steals").Set(pool_stats.steals);
  reg.GetGauge("s4_shared_cache_bytes")
      .Set(static_cast<int64_t>(shared_cache_.bytes_used()));
  if (live_ != nullptr) {
    reg.GetGauge("s4_live_epoch")
        .Set(static_cast<int64_t>(live_->epoch()));
  }
  return s;
}

}  // namespace s4
