#include "net/connection.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/string_util.h"
#include "common/timer.h"

namespace s4::net {

namespace {

constexpr size_t kReadChunk = 64 * 1024;

uint32_t PeekU32LE(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

}  // namespace

Connection::Connection(UniqueFd fd, EventLoop* loop)
    : fd_(std::move(fd)), loop_(loop) {
  last_progress_ = std::chrono::steady_clock::now();
  loop_->counters()->connections_accepted.fetch_add(
      1, std::memory_order_relaxed);
  if (!loop_->WatchConnection(this, /*want_write=*/false).ok()) {
    Close();
  }
}

Connection::~Connection() {
  // The loop calls Close() before dropping its reference; this is a
  // belt-and-braces path for teardown during shutdown.
  if (!closed_) Close();
}

void Connection::OnReadable() {
  if (closed_) return;
  char chunk[kReadChunk];
  for (;;) {
    const ssize_t n = recv(fd_.get(), chunk, sizeof(chunk), 0);
    if (n > 0) {
      inbuf_.append(chunk, static_cast<size_t>(n));
      loop_->counters()->bytes_received.fetch_add(
          n, std::memory_order_relaxed);
      last_progress_ = std::chrono::steady_clock::now();
      if (static_cast<size_t>(n) < sizeof(chunk)) break;
      continue;
    }
    if (n == 0) {
      // Peer closed. Anything still in flight is abandoned work.
      Close();
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    Close();
    return;
  }
  if (!DrainFrames()) Close();
}

void Connection::OnWritable() {
  if (closed_) return;
  FlushWrites();
}

bool Connection::DrainFrames() {
  while (!closed_ && !close_after_flush_ && inbuf_.size() >= kHeaderBytes) {
    // Magic first: a stream that fails this is not speaking the protocol
    // at all, so no reply can be expected to parse — cut it.
    if (PeekU32LE(inbuf_.data()) != kMagic) {
      loop_->counters()->protocol_errors.fetch_add(
          1, std::memory_order_relaxed);
      return false;
    }
    FrameHeader h;
    const Status hs = DecodeFrameHeader(
        std::string_view(inbuf_).substr(0, kHeaderBytes), &h);
    if (!hs.ok()) {
      // Version mismatch or unknown type: the framing itself is intact,
      // so one explanatory Error frame is deliverable before closing.
      loop_->counters()->protocol_errors.fetch_add(
          1, std::memory_order_relaxed);
      SendError(h.request_id, hs, /*close_after=*/true);
      return true;
    }
    if (h.payload_len > loop_->tuning().max_frame_bytes) {
      loop_->counters()->protocol_errors.fetch_add(
          1, std::memory_order_relaxed);
      SendError(h.request_id,
                Status::InvalidArgument(StrFormat(
                    "frame payload of %u bytes exceeds the %u-byte limit",
                    h.payload_len, loop_->tuning().max_frame_bytes)),
                /*close_after=*/true);
      return true;
    }
    const size_t total = kHeaderBytes + h.payload_len;
    if (inbuf_.size() < total) break;  // partial frame; wait for bytes
    loop_->counters()->frames_received.fetch_add(
        1, std::memory_order_relaxed);
    HandleFrame(h, std::string_view(inbuf_).substr(kHeaderBytes,
                                                   h.payload_len));
    inbuf_.erase(0, total);
  }
  return true;
}

void Connection::HandleFrame(const FrameHeader& h,
                             std::string_view payload) {
  switch (h.type) {
    case FrameType::kPing:
      SendFrame(EncodePongFrame(h.request_id));
      return;
    case FrameType::kSearchRequest: {
      NetSearchRequest req;
      WallTimer decode_timer;
      const Status ds = DecodeSearchRequest(payload, &req);
      req.decode_seconds = decode_timer.ElapsedSeconds();
      if (!ds.ok()) {
        // Well-framed but malformed payload: the stream is still in
        // sync, so answer and keep the connection.
        SendError(h.request_id, ds, /*close_after=*/false);
        return;
      }
      loop_->dispatcher()->DispatchSearch(shared_from_this(), h.request_id,
                                          std::move(req));
      return;
    }
    case FrameType::kShardStop: {
      // Early-stop from a coordinator: cancel the named exchange's stop
      // token; the dispatch in flight completes with its partial top-k.
      // No reply frame — the response it triggers is the answer.
      uint64_t target = 0;
      const Status ds = DecodeShardStop(payload, &target);
      if (!ds.ok()) {
        SendError(h.request_id, ds, /*close_after=*/false);
        return;
      }
      if (CancelRequest(target)) {
        loop_->counters()->shard_stops.fetch_add(1,
                                                 std::memory_order_relaxed);
      }
      return;
    }
    case FrameType::kMutateRequest: {
      loop_->counters()->mutate_requests.fetch_add(1,
                                                   std::memory_order_relaxed);
      NetMutateRequest req;
      WallTimer decode_timer;
      const Status ds = DecodeMutateRequest(payload, &req);
      req.decode_seconds = decode_timer.ElapsedSeconds();
      if (!ds.ok()) {
        SendError(h.request_id, ds, /*close_after=*/false);
        return;
      }
      loop_->dispatcher()->DispatchMutate(shared_from_this(), h.request_id,
                                          std::move(req));
      return;
    }
    case FrameType::kStatsRequest: {
      loop_->counters()->stats_requests.fetch_add(1,
                                                  std::memory_order_relaxed);
      SendFrame(EncodeStatsResponseFrame(
          loop_->dispatcher()->CollectStatsText(), h.request_id));
      loop_->counters()->responses_sent.fetch_add(1,
                                                  std::memory_order_relaxed);
      return;
    }
    case FrameType::kTraceRequest: {
      loop_->counters()->trace_requests.fetch_add(1,
                                                  std::memory_order_relaxed);
      uint64_t target = 0;
      const Status ds = DecodeTraceRequest(payload, &target);
      if (!ds.ok()) {
        SendError(h.request_id, ds, /*close_after=*/false);
        return;
      }
      StatusOr<std::string> json =
          loop_->dispatcher()->CollectTraceJson(target);
      if (!json.ok()) {
        // NotFound (unknown/evicted id, tracing off) is a per-request
        // miss, not a protocol violation: answer and keep the stream.
        SendError(h.request_id, json.status(), /*close_after=*/false);
        return;
      }
      SendFrame(EncodeTraceResponseFrame(*json, h.request_id));
      loop_->counters()->responses_sent.fetch_add(1,
                                                  std::memory_order_relaxed);
      return;
    }
    case FrameType::kSlowLogRequest: {
      loop_->counters()->slow_log_requests.fetch_add(
          1, std::memory_order_relaxed);
      const Status ds = DecodeSlowLogRequest(payload);
      if (!ds.ok()) {
        SendError(h.request_id, ds, /*close_after=*/false);
        return;
      }
      StatusOr<std::string> json =
          loop_->dispatcher()->CollectSlowLogJson();
      if (!json.ok()) {
        // NotFound (slow log disabled) is a per-request miss, not a
        // protocol violation: answer and keep the stream.
        SendError(h.request_id, json.status(), /*close_after=*/false);
        return;
      }
      SendFrame(EncodeSlowLogResponseFrame(*json, h.request_id));
      loop_->counters()->responses_sent.fetch_add(1,
                                                  std::memory_order_relaxed);
      return;
    }
    default:
      // Server-to-client frame types arriving at the server mean the
      // peer is confused; nothing after this can be trusted.
      loop_->counters()->protocol_errors.fetch_add(
          1, std::memory_order_relaxed);
      SendError(h.request_id,
                Status::InvalidArgument(StrFormat(
                    "unexpected frame type %u from client",
                    static_cast<unsigned>(h.type))),
                /*close_after=*/true);
      return;
  }
}

void Connection::SendError(uint64_t request_id, const Status& status,
                           bool close_after) {
  loop_->counters()->errors_sent.fetch_add(1, std::memory_order_relaxed);
  if (close_after) close_after_flush_ = true;
  SendFrame(EncodeErrorFrame(status, request_id));
}

void Connection::SendFrame(std::string frame) {
  if (closed_) return;
  outbuf_.append(frame);
  FlushWrites();
}

void Connection::CompleteRequest(uint64_t request_id, std::string frame,
                                 bool is_error, double server_seconds) {
  if (closed_) return;
  inflight_.erase(request_id);
  loop_->latency().Record(server_seconds);
  auto* counters = loop_->counters();
  if (is_error) {
    counters->errors_sent.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters->responses_sent.fetch_add(1, std::memory_order_relaxed);
  }
  SendFrame(std::move(frame));
}

void Connection::RegisterInflight(uint64_t request_id,
                                  std::shared_ptr<StopToken> stop) {
  inflight_[request_id] = std::move(stop);
}

bool Connection::CancelRequest(uint64_t request_id) {
  auto it = inflight_.find(request_id);
  if (it == inflight_.end() || it->second == nullptr) return false;
  it->second->Cancel();
  return true;
}

void Connection::FlushWrites() {
  while (out_pos_ < outbuf_.size()) {
    const ssize_t n = send(fd_.get(), outbuf_.data() + out_pos_,
                           outbuf_.size() - out_pos_, MSG_NOSIGNAL);
    if (n > 0) {
      out_pos_ += static_cast<size_t>(n);
      loop_->counters()->bytes_sent.fetch_add(n, std::memory_order_relaxed);
      last_progress_ = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!want_write_) {
        want_write_ = true;
        if (!loop_->WatchConnection(this, /*want_write=*/true).ok()) {
          Close();
        }
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    Close();
    return;
  }
  outbuf_.clear();
  out_pos_ = 0;
  if (want_write_) {
    want_write_ = false;
    if (!loop_->WatchConnection(this, /*want_write=*/false).ok()) {
      Close();
      return;
    }
  }
  if (close_after_flush_) Close();
}

void Connection::CancelInflight() {
  if (inflight_.empty()) return;
  loop_->counters()->disconnect_cancels.fetch_add(
      static_cast<int64_t>(inflight_.size()), std::memory_order_relaxed);
  for (auto& [id, stop] : inflight_) {
    if (stop) stop->Cancel();
  }
  inflight_.clear();
}

void Connection::Close() {
  if (closed_) return;
  closed_ = true;
  CancelInflight();
  loop_->counters()->connections_closed.fetch_add(
      1, std::memory_order_relaxed);
  // The fd stays open until destruction: the loop still needs it to
  // EPOLL_CTL_DEL and erase the map entry.
}

bool Connection::IdleExpired(
    std::chrono::steady_clock::time_point now) const {
  const double timeout = loop_->tuning().idle_timeout_seconds;
  if (timeout <= 0.0) return false;
  // In-flight work keeps the connection alive: the peer is legitimately
  // waiting on us, not the other way round.
  if (!inflight_.empty()) return false;
  const double stalled =
      std::chrono::duration<double>(now - last_progress_).count();
  return stalled > timeout;
}

}  // namespace s4::net
