#include "net/socket_util.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/string_util.h"
#include "common/timer.h"

namespace s4::net {

namespace {

Status Errno(const char* what) {
  return Status::Internal(StrFormat("%s: %s", what, strerror(errno)));
}

// Remaining poll budget in milliseconds; >= 1 while time is left so a
// sub-millisecond remainder still polls instead of busy-spinning. A budget
// beyond INT_MAX ms (about 24.8 days, +inf included) saturates there; the
// callers' loops poll again when it runs out.
int RemainingMs(const WallTimer& timer, double timeout_seconds) {
  if (timeout_seconds <= 0.0) return -1;  // no deadline
  const double left = timeout_seconds - timer.ElapsedSeconds();
  if (left <= 0.0) return 0;
  constexpr int kMaxMs = std::numeric_limits<int>::max();
  return static_cast<int>(std::min(kMaxMs - 1.0, left * 1e3)) + 1;
}

}  // namespace

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

Status SetNoDelay(int fd) {
  int one = 1;
  if (setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return Errno("setsockopt(TCP_NODELAY)");
  }
  return Status::OK();
}

StatusOr<UniqueFd> Listen(const std::string& bind_address, uint16_t port,
                          int backlog) {
  UniqueFd fd(socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  int one = 1;
  if (setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0) {
    return Errno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        StrFormat("bad bind address \"%s\"", bind_address.c_str()));
  }
  if (bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Errno("bind");
  }
  if (listen(fd.get(), backlog) < 0) return Errno("listen");
  S4_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  return fd;
}

StatusOr<uint16_t> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

StatusOr<UniqueFd> ConnectWithTimeout(const std::string& host, uint16_t port,
                                      double timeout_seconds) {
  UniqueFd fd(socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        StrFormat("bad host address \"%s\" (numeric IPv4 only)",
                  host.c_str()));
  }
  // Connect non-blocking so the timeout is enforceable, then flip back
  // to blocking: the client library's send/recv paths use poll anyway.
  S4_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  if (connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (errno != EINPROGRESS) return Errno("connect");
    WallTimer timer;
    pollfd pfd{fd.get(), POLLOUT, 0};
    for (;;) {
      const int ms = RemainingMs(timer, timeout_seconds);
      if (ms == 0) {
        return Status::DeadlineExceeded(
            StrFormat("connect to %s:%u timed out after %.3fs", host.c_str(),
                      port, timeout_seconds));
      }
      const int n = poll(&pfd, 1, ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Errno("poll(connect)");
      }
      if (n > 0) break;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      return Errno("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      return Status::Internal(StrFormat("connect to %s:%u: %s", host.c_str(),
                                        port, strerror(err)));
    }
  }
  const int flags = fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0 ||
      fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK) < 0) {
    return Errno("fcntl(blocking)");
  }
  (void)SetNoDelay(fd.get());
  return fd;
}

Status SendAll(int fd, const char* data, size_t len, double timeout_seconds) {
  WallTimer timer;
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int ms = RemainingMs(timer, timeout_seconds);
      if (ms == 0) {
        return Status::DeadlineExceeded("send timed out");
      }
      pollfd pfd{fd, POLLOUT, 0};
      if (poll(&pfd, 1, ms) < 0 && errno != EINTR) return Errno("poll(send)");
      continue;
    }
    return Errno("send");
  }
  return Status::OK();
}

Status RecvAll(int fd, char* data, size_t len, double timeout_seconds) {
  WallTimer timer;
  size_t got = 0;
  while (got < len) {
    const int ms = RemainingMs(timer, timeout_seconds);
    if (ms == 0) return Status::DeadlineExceeded("recv timed out");
    pollfd pfd{fd, POLLIN, 0};
    const int pn = poll(&pfd, 1, ms);
    if (pn < 0) {
      if (errno == EINTR) continue;
      return Errno("poll(recv)");
    }
    if (pn == 0) continue;  // loop re-checks the deadline
    const ssize_t n = recv(fd, data + got, len - got, 0);
    if (n > 0) {
      got += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) return Status::Internal("connection closed by peer");
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return Errno("recv");
  }
  return Status::OK();
}

double Remaining(std::chrono::steady_clock::time_point start,
                 double budget_seconds) {
  if (budget_seconds <= 0.0) return 0.0;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return std::max(budget_seconds - elapsed, 1e-4);
}

}  // namespace s4::net
