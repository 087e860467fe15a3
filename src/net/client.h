#ifndef S4_NET_CLIENT_H_
#define S4_NET_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/fd.h"
#include "common/status.h"
#include "net/wire.h"

namespace s4::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  double connect_timeout_seconds = 5.0;
  // Client-side cap on one whole round trip (send + wait + receive);
  // <= 0 disables it. Independent of the server-side deadline carried in
  // the request, which governs the search itself.
  double request_timeout_seconds = 30.0;
  // Idle connections kept for reuse (each concurrent call checks one
  // out, so this bounds pooled sockets, not concurrency).
  size_t max_pool_connections = 4;
};

// Blocking client for S4Server. Thread-safe: concurrent Search calls
// each check a connection out of the pool (or dial a fresh one), so they
// never share a socket. Server Error frames come back as the typed
// Status they carry (Status::IsRetryable via net::IsRetryable tells the
// caller whether a verbatim retry makes sense — only ResourceExhausted
// does); transport failures surface as Internal and client-side
// timeouts as DeadlineExceeded.
//
// A pooled connection may have been idle-closed by the server between
// uses; a transport failure on a pooled socket is therefore retried once
// on a freshly dialed connection before being reported.
class S4Client {
 public:
  explicit S4Client(ClientOptions options);
  ~S4Client() = default;

  S4Client(const S4Client&) = delete;
  S4Client& operator=(const S4Client&) = delete;

  // `request_id_out`, when non-null, receives the wire id this search
  // ran under — the handle FetchTrace uses to retrieve its trace later.
  // A request with partial_every > 0 is rejected (InvalidArgument)
  // before anything is sent: only S4Coordinator consumes partials.
  StatusOr<NetSearchResponse> Search(const NetSearchRequest& request,
                                     uint64_t* request_id_out = nullptr);
  // Live write path: applies the batch on the server (batch-as-a-sequence
  // semantics; see src/live/mutation.h). A batch that stopped early still
  // returns OK with the applied prefix in the response — inspect
  // `applied` / `error`. An error Status means nothing was applied
  // (admission rejection, immutable server, malformed frame).
  StatusOr<NetMutateResponse> Mutate(const std::vector<Mutation>& mutations,
                                     uint64_t* request_id_out = nullptr);
  Status Ping();

  // Prometheus text dump of the server's metrics registry.
  StatusOr<std::string> Stats();
  // Chrome-trace JSON for a completed traced search. NotFound when the
  // server isn't tracing or the id fell out of its trace history.
  StatusOr<std::string> FetchTrace(uint64_t request_id);
  // JSON dump of the server's slow-query log ({"slow_log":[...]}).
  // NotFound when the server runs without a slow log.
  StatusOr<std::string> FetchSlowLog();

 private:
  struct RawReply {
    FrameType type = FrameType::kPong;
    std::string payload;
  };

  // One exchange under a fresh request id (reported through
  // `request_id_out`): sends `encode(id)` and returns the reply payload
  // when the reply is a `want` frame. A kError reply becomes the typed
  // Status it carries; any other frame type is Internal.
  StatusOr<std::string> Exchange(
      const std::function<std::string(uint64_t)>& encode, FrameType want,
      uint64_t* request_id_out = nullptr);
  // Sends `frame` and reads the response frame for `request_id`,
  // handling pool checkout/return and the one stale-connection retry.
  StatusOr<RawReply> RoundTrip(const std::string& frame,
                               uint64_t request_id);
  // One attempt on one socket. `reusable` is set when the connection is
  // still in a known-good framing state afterwards.
  StatusOr<RawReply> RoundTripOn(int fd, const std::string& frame,
                                 uint64_t request_id, bool* reusable);

  StatusOr<UniqueFd> Checkout(bool* pooled);
  void Return(UniqueFd fd);

  ClientOptions options_;
  std::atomic<uint64_t> next_request_id_{1};
  std::mutex pool_mu_;
  std::vector<UniqueFd> pool_;
};

}  // namespace s4::net

#endif  // S4_NET_CLIENT_H_
