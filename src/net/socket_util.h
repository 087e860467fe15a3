#ifndef S4_NET_SOCKET_UTIL_H_
#define S4_NET_SOCKET_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "common/fd.h"
#include "common/status.h"

namespace s4::net {

// Creates a non-blocking loopback/any listener on `port` (0 = kernel
// picks a free port; read it back with LocalPort). SO_REUSEADDR is set
// so test servers can rebind immediately after a restart.
StatusOr<UniqueFd> Listen(const std::string& bind_address, uint16_t port,
                          int backlog = 128);

// The port a bound socket actually listens on.
StatusOr<uint16_t> LocalPort(int fd);

// Blocking connect with a wall-clock timeout (the fd is returned in
// blocking mode). DeadlineExceeded on timeout, Internal on refusal.
StatusOr<UniqueFd> ConnectWithTimeout(const std::string& host, uint16_t port,
                                      double timeout_seconds);

Status SetNonBlocking(int fd);
Status SetNoDelay(int fd);

// Blocking helpers for the client side: send/receive exactly `len`
// bytes before `deadline_unix` (steady-clock seconds; <= 0 = no
// deadline), surfacing DeadlineExceeded / Internal ("connection closed
// by peer") as typed Status. Both tolerate EINTR and partial transfers.
Status SendAll(int fd, const char* data, size_t len, double timeout_seconds);
Status RecvAll(int fd, char* data, size_t len, double timeout_seconds);

// What is left of a `budget_seconds` budget started at `start`, in the
// timeout convention above: 0 budget = no deadline, and an exhausted
// budget becomes an immediate timeout (1e-4 s) rather than falling
// through to "no deadline".
double Remaining(std::chrono::steady_clock::time_point start,
                 double budget_seconds);

}  // namespace s4::net

#endif  // S4_NET_SOCKET_UTIL_H_
