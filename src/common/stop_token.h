#ifndef S4_COMMON_STOP_TOKEN_H_
#define S4_COMMON_STOP_TOKEN_H_

#include <atomic>
#include <chrono>
#include <limits>

namespace s4 {

// Cooperative cancellation + deadline signal for a search request.
// The issuing side (a client holding the service ticket, or the service
// itself when the request carries a deadline) calls Cancel() or lets the
// deadline pass; the strategies poll ShouldStop() at batch/group
// boundaries and wind down, returning whatever partial top-k they have
// with SearchResult::interrupted set. Polling keeps the hot evaluation
// loops free of synchronization: a stop is observed at the next
// boundary, never mid-join.
//
// Thread-safe: any number of threads may poll while another cancels.
class StopToken {
 public:
  StopToken() = default;

  // A token that expires `deadline_seconds` from now (<= 0 expires
  // immediately). The atomic member makes the type immovable, so
  // deadlines are set at construction or via SetDeadline in place.
  explicit StopToken(double deadline_seconds) { SetDeadline(deadline_seconds); }

  // Arms (or re-arms) the deadline `seconds` from now. A deadline past
  // the clock's last time point (1e10 s, 1e300, +inf) never expires; a
  // non-positive or NaN one expires immediately.
  void SetDeadline(double seconds) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point now = Clock::now();
    const double ticks = std::chrono::duration<double, Clock::period>(
                             std::chrono::duration<double>(seconds))
                             .count();
    // The rep's max rounds up to 2^63 as a double, so every tick count
    // below it converts without float-to-int overflow.
    if (ticks >= static_cast<double>(std::numeric_limits<Clock::rep>::max())) {
      has_deadline_ = false;
      return;
    }
    const Clock::rep t = ticks > 0.0 ? static_cast<Clock::rep>(ticks) : 0;
    has_deadline_ = t <= (Clock::time_point::max() - now).count();
    if (has_deadline_) deadline_ = now + Clock::duration(t);
  }

  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  bool deadline_expired() const {
    return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }

  // True once the request should wind down (either trigger).
  bool ShouldStop() const { return cancelled() || deadline_expired(); }

 private:
  std::atomic<bool> cancelled_{false};
  // Written before the token is shared (SetDeadline happens-before any
  // poll via the mechanism that publishes the token), read-only after.
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
};

}  // namespace s4

#endif  // S4_COMMON_STOP_TOKEN_H_
