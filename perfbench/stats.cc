#include "stats.h"

#include <algorithm>
#include <cmath>

namespace s4::perfbench {

OrderStats::OrderStats(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double OrderStats::Percentile(double p) const {
  if (sorted_.empty()) return 0.0;
  const double n = static_cast<double>(sorted_.size());
  // Rank in [1, n]; the small slack keeps p * n that should be integral
  // (0.99 * 1000) from rounding up to the next rank.
  int64_t rank = static_cast<int64_t>(std::ceil(p * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, count());
  return sorted_[static_cast<size_t>(rank - 1)];
}

double OrderStats::Mean() const {
  if (sorted_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : sorted_) sum += v;
  return sum / static_cast<double>(sorted_.size());
}

int64_t OrderStats::Beyond(double p) const {
  if (sorted_.empty()) return 0;
  const double x = Percentile(p);
  return static_cast<int64_t>(
      sorted_.end() - std::upper_bound(sorted_.begin(), sorted_.end(), x));
}

OrderStats::Tail OrderStats::HighestSupported(int64_t beyond) const {
  Tail tail;
  const int64_t n = count();
  if (n <= beyond) return tail;
  tail.level = static_cast<double>(n - beyond) / static_cast<double>(n);
  tail.value = sorted_[static_cast<size_t>(n - beyond - 1)];
  return tail;
}

}  // namespace s4::perfbench
