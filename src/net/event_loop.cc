#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/string_util.h"
#include "net/connection.h"

namespace s4::net {

namespace {

// The epoll wait doubles as the idle-sweep tick, so it is capped: a
// sweep runs at least this often even on a silent loop.
constexpr int kMaxWaitMs = 200;

}  // namespace

EventLoop::EventLoop(SearchDispatcher* dispatcher,
                     NetServerCounters* counters, const ServerTuning& tuning)
    : dispatcher_(dispatcher), counters_(counters), tuning_(tuning) {}

EventLoop::~EventLoop() { Stop(); }

Status EventLoop::Start() {
  epoll_.Reset(epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_.valid()) {
    return Status::Internal(
        StrFormat("epoll_create1: %s", strerror(errno)));
  }
  wakeup_.Reset(eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!wakeup_.valid()) {
    return Status::Internal(StrFormat("eventfd: %s", strerror(errno)));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // nullptr tag = the wakeup eventfd
  if (epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wakeup_.get(), &ev) < 0) {
    return Status::Internal(
        StrFormat("epoll_ctl(wakeup): %s", strerror(errno)));
  }
  thread_ = std::thread([this] { ThreadMain(); });
  return Status::OK();
}

void EventLoop::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  Post([] {});  // wake
  thread_.join();
  // Tear down any connections that survived to shutdown on the (now
  // joined) loop's behalf.
  for (auto& [fd, conn] : connections_) conn->Close();
  connections_.clear();
  num_connections_.store(0, std::memory_order_relaxed);
}

void EventLoop::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    tasks_.push_back(std::move(fn));
    if (wakeup_.valid()) {
      uint64_t one = 1;
      // A full eventfd counter still wakes the loop; ignore the result.
      [[maybe_unused]] ssize_t n =
          write(wakeup_.get(), &one, sizeof(one));
    }
  }
}

void EventLoop::AdoptSocket(UniqueFd fd) {
  // The lambda must be copyable (std::function), so pass the raw fd
  // through and re-wrap on the loop thread.
  const int raw = fd.Release();
  Post([this, raw] {
    auto conn = std::make_shared<Connection>(UniqueFd(raw), this);
    if (conn->closed()) return;  // registration failed
    connections_[conn->fd()] = conn;
    num_connections_.store(connections_.size(), std::memory_order_relaxed);
  });
}

void EventLoop::CloseAllConnections() {
  Post([this] {
    for (auto& [fd, conn] : connections_) conn->Close();
    connections_.clear();
    num_connections_.store(0, std::memory_order_relaxed);
  });
}

Status EventLoop::WatchConnection(Connection* conn, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.ptr = conn;
  // ADD first (new connection), fall back to MOD for re-arms.
  if (epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, conn->fd(), &ev) == 0) {
    return Status::OK();
  }
  if (errno == EEXIST &&
      epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn->fd(), &ev) == 0) {
    return Status::OK();
  }
  return Status::Internal(StrFormat("epoll_ctl: %s", strerror(errno)));
}

void EventLoop::RemoveConnection(int fd) {
  epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
  connections_.erase(fd);
  num_connections_.store(connections_.size(), std::memory_order_relaxed);
}

void EventLoop::RunPostedTasks() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    tasks.swap(tasks_);
  }
  for (auto& fn : tasks) fn();
}

void EventLoop::SweepIdle() {
  const auto now = std::chrono::steady_clock::now();
  // Collect first: RemoveConnection mutates the map. This sweep also
  // reaps connections a posted task closed (completion write failures),
  // which have no epoll event to trigger removal.
  std::vector<std::shared_ptr<Connection>> expired;
  for (auto& [fd, conn] : connections_) {
    if (conn->closed()) {
      expired.push_back(conn);
    } else if (conn->IdleExpired(now)) {
      counters_->idle_closes.fetch_add(1, std::memory_order_relaxed);
      expired.push_back(conn);
    }
  }
  for (auto& conn : expired) {
    conn->Close();
    RemoveConnection(conn->fd());
  }
}

void EventLoop::ThreadMain() {
  std::array<epoll_event, 64> events;
  while (!stop_.load(std::memory_order_acquire)) {
    const int n =
        epoll_wait(epoll_.get(), events.data(),
                   static_cast<int>(events.size()), kMaxWaitMs);
    if (n < 0 && errno != EINTR) break;
    bool woken = false;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        woken = true;
        uint64_t drain;
        while (read(wakeup_.get(), &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      auto* conn = static_cast<Connection*>(events[i].data.ptr);
      // The map may have dropped this connection in an earlier iteration
      // of this very batch (it cannot: each fd appears once per
      // epoll_wait, and connections never close each other) — so the
      // pointer is valid here.
      const uint32_t ev = events[i].events;
      if (ev & (EPOLLHUP | EPOLLERR)) {
        // Let the read path observe EOF/error and clean up uniformly.
        conn->OnReadable();
      } else {
        if (ev & EPOLLIN) conn->OnReadable();
        if ((ev & EPOLLOUT) && !conn->closed()) conn->OnWritable();
      }
      if (conn->closed()) RemoveConnection(conn->fd());
    }
    (void)woken;
    RunPostedTasks();
    SweepIdle();
  }
  // Drain remaining tasks so posted completions (no-ops by now) free
  // their captures deterministically.
  RunPostedTasks();
}

}  // namespace s4::net
