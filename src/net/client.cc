#include "net/client.h"

#include <chrono>
#include <utility>

#include "common/string_util.h"
#include "net/socket_util.h"

namespace s4::net {

S4Client::S4Client(ClientOptions options) : options_(std::move(options)) {}

StatusOr<UniqueFd> S4Client::Checkout(bool* pooled) {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (!pool_.empty()) {
      UniqueFd fd = std::move(pool_.back());
      pool_.pop_back();
      *pooled = true;
      return fd;
    }
  }
  *pooled = false;
  return ConnectWithTimeout(options_.host, options_.port,
                            options_.connect_timeout_seconds);
}

void S4Client::Return(UniqueFd fd) {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_.size() < options_.max_pool_connections) {
    pool_.push_back(std::move(fd));
  }
  // Otherwise fd closes here: the pool is full.
}

StatusOr<S4Client::RawReply> S4Client::RoundTripOn(int fd,
                                                   const std::string& frame,
                                                   uint64_t request_id,
                                                   bool* reusable) {
  *reusable = false;
  const auto start = std::chrono::steady_clock::now();
  const double budget = options_.request_timeout_seconds;
  S4_RETURN_IF_ERROR(SendAll(fd, frame.data(), frame.size(),
                             Remaining(start, budget)));
  FrameHeader h;
  RawReply reply;
  S4_RETURN_IF_ERROR(
      RecvFrame(fd, Remaining(start, budget), &h, &reply.payload));
  if (h.request_id != request_id) {
    // The stream is out of sync (a previous call abandoned a response
    // mid-read, or the server is confused); the socket must not be
    // reused either way.
    return Status::Internal(
        StrFormat("response for request %llu while waiting for %llu",
                  static_cast<unsigned long long>(h.request_id),
                  static_cast<unsigned long long>(request_id)));
  }
  reply.type = h.type;
  *reusable = true;
  return reply;
}

StatusOr<S4Client::RawReply> S4Client::RoundTrip(const std::string& frame,
                                                 uint64_t request_id) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    bool pooled = false;
    auto fd = Checkout(&pooled);
    if (!fd.ok()) return fd.status();
    bool reusable = false;
    auto reply = RoundTripOn(fd->get(), frame, request_id, &reusable);
    if (reply.ok()) {
      if (reusable) Return(std::move(*fd));
      return reply;
    }
    // A pooled socket may have been idle-closed by the server since its
    // last use; a transport failure there (Internal, not a timeout) is
    // retried once on a fresh connection. Fresh-connection failures are
    // real.
    if (pooled && attempt == 0 &&
        reply.status().code() == StatusCode::kInternal) {
      continue;
    }
    return reply.status();
  }
  return Status::Internal("unreachable");  // loop always returns
}

StatusOr<std::string> S4Client::Exchange(
    const std::function<std::string(uint64_t)>& encode, FrameType want,
    uint64_t* request_id_out) {
  const uint64_t id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  if (request_id_out != nullptr) *request_id_out = id;
  auto reply = RoundTrip(encode(id), id);
  if (!reply.ok()) return reply.status();
  if (reply->type == want) return std::move(reply->payload);
  if (reply->type == FrameType::kError) {
    NetError err;
    S4_RETURN_IF_ERROR(DecodeError(reply->payload, &err));
    return err.ToStatus();
  }
  return Status::Internal(
      StrFormat("unexpected frame type %u in reply (wanted %u)",
                static_cast<unsigned>(reply->type),
                static_cast<unsigned>(want)));
}

StatusOr<NetSearchResponse> S4Client::Search(
    const NetSearchRequest& request, uint64_t* request_id_out) {
  auto payload = Exchange(
      [&](uint64_t id) { return EncodeSearchRequestFrame(request, id); },
      FrameType::kSearchResponse, request_id_out);
  if (!payload.ok()) return payload.status();
  NetSearchResponse resp;
  S4_RETURN_IF_ERROR(DecodeSearchResponse(*payload, &resp));
  return resp;
}

StatusOr<NetMutateResponse> S4Client::Mutate(
    const std::vector<Mutation>& mutations, uint64_t* request_id_out) {
  NetMutateRequest req;
  req.mutations = mutations;
  auto payload = Exchange(
      [&](uint64_t id) { return EncodeMutateRequestFrame(req, id); },
      FrameType::kMutateResponse, request_id_out);
  if (!payload.ok()) return payload.status();
  NetMutateResponse resp;
  S4_RETURN_IF_ERROR(DecodeMutateResponse(*payload, &resp));
  return resp;
}

Status S4Client::Ping() {
  return Exchange(EncodePingFrame, FrameType::kPong).status();
}

StatusOr<std::string> S4Client::Stats() {
  return Exchange(EncodeStatsRequestFrame, FrameType::kStatsResponse);
}

StatusOr<std::string> S4Client::FetchTrace(uint64_t request_id) {
  return Exchange(
      [request_id](uint64_t id) {
        return EncodeTraceRequestFrame(request_id, id);
      },
      FrameType::kTraceResponse);
}

StatusOr<std::string> S4Client::FetchSlowLog() {
  return Exchange(EncodeSlowLogRequestFrame, FrameType::kSlowLogResponse);
}

}  // namespace s4::net
