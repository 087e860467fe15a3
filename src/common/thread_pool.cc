#include "common/thread_pool.h"

#include <algorithm>

namespace s4 {

int32_t ThreadPool::DefaultThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(int32_t num_threads) {
  if (num_threads <= 0) num_threads = DefaultThreads();
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int32_t i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int32_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back(
        [this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
  }
  idle_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  // Counted inside the task body, so the increment happens-before the
  // future becomes ready (even when fn throws): a caller that has waited
  // on every future reads an exact `executed`.
  std::packaged_task<void()> task([this, fn = std::move(fn)] {
    struct CountOnExit {
      std::atomic<int64_t>* executed;
      ~CountOnExit() { executed->fetch_add(1, std::memory_order_relaxed); }
    } count{&executed_};
    fn();
  });
  std::future<void> fut = task.get_future();
  Worker& w = *workers_[next_queue_.fetch_add(1, std::memory_order_relaxed) %
                        workers_.size()];
  {
    std::lock_guard<std::mutex> lock(w.mu);
    w.tasks.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_release);
  // Pairing the notify with a (possibly empty) critical section on
  // idle_mu_ guarantees a worker between its predicate check and wait
  // cannot miss the new task.
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
  }
  idle_cv_.notify_one();
  return fut;
}

bool ThreadPool::RunOneTask(size_t self) {
  std::packaged_task<void()> task;
  {
    Worker& own = *workers_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.front());
      own.tasks.pop_front();
    }
  }
  if (!task.valid()) {
    for (size_t off = 1; off < workers_.size() && !task.valid(); ++off) {
      Worker& victim = *workers_[(self + off) % workers_.size()];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.back());
        victim.tasks.pop_back();
        steals_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (!task.valid()) return false;
  queued_.fetch_sub(1, std::memory_order_relaxed);
  task();  // exceptions land in the task's future
  return true;
}

void ThreadPool::WorkerLoop(size_t self) {
  for (;;) {
    if (RunOneTask(self)) continue;
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    // Drain remaining work even when stopping, then exit.
    if (queued_.load(std::memory_order_acquire) > 0) continue;
    if (stop_.load(std::memory_order_acquire)) return;
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || workers_.size() == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  struct ForState {
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
  };
  auto state = std::make_shared<ForState>();
  const size_t runners = std::min(n, workers_.size());
  std::vector<std::future<void>> futures;
  futures.reserve(runners);
  for (size_t r = 0; r < runners; ++r) {
    futures.push_back(Submit([state, n, &fn] {
      for (;;) {
        if (state->failed.load(std::memory_order_relaxed)) return;
        const size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          fn(i);
        } catch (...) {
          state->failed.store(true, std::memory_order_relaxed);
          throw;
        }
      }
    }));
  }
  std::exception_ptr error;
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace s4
