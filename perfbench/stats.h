#ifndef S4_PERFBENCH_STATS_H_
#define S4_PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace s4::perfbench {

// Exact order statistics over raw samples. Every percentile is one of the
// samples themselves (nearest rank), never a histogram bucket or an
// interpolation between samples, so two runs that saw the same samples
// report bit-identical figures.
class OrderStats {
 public:
  explicit OrderStats(std::vector<double> samples);

  int64_t count() const { return static_cast<int64_t>(sorted_.size()); }
  bool empty() const { return sorted_.empty(); }

  // Nearest-rank percentile: the smallest sample x such that at least
  // ceil(p * n) samples are <= x. `p` in [0, 1]; 0 for an empty set.
  double Percentile(double p) const;

  double Max() const { return empty() ? 0.0 : sorted_.back(); }
  double Median() const { return Percentile(0.5); }
  double Q1() const { return Percentile(0.25); }
  double Q3() const { return Percentile(0.75); }
  double Mean() const;

  // Samples strictly above Percentile(p): the support a tail figure has.
  int64_t Beyond(double p) const;

  // The highest percentile that still has `beyond` samples above it:
  // level (n - beyond) / n and its value. Level 0 when n <= beyond.
  struct Tail {
    double level = 0.0;
    double value = 0.0;
  };
  Tail HighestSupported(int64_t beyond = 10) const;

 private:
  std::vector<double> sorted_;
};

}  // namespace s4::perfbench

#endif  // S4_PERFBENCH_STATS_H_
