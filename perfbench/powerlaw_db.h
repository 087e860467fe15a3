#ifndef S4_PERFBENCH_POWERLAW_DB_H_
#define S4_PERFBENCH_POWERLAW_DB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "storage/database.h"

namespace s4::perfbench {

// Discrete power-law degree sequence: `n` degrees in [min_degree,
// max_degree] with P(d) ~ d^gamma (gamma < -1), drawn by inverting the
// continuous CDF and sorted descending.
std::vector<int64_t> PowerlawDegrees(Rng& rng, int64_t n, int64_t min_degree,
                                     int64_t max_degree, double gamma);

// Bipartite Havel-Hakimi: realizes `left` degrees against right-side
// capacities as a simple bipartite graph, connecting each left node (in
// descending degree) to the right nodes with the most remaining capacity
// (ties to the lower index). Returns (left, right) pairs; a left degree
// that cannot be met is truncated to what is available.
std::vector<std::pair<int32_t, int32_t>> HavelHakimiBipartite(
    const std::vector<int64_t>& left, const std::vector<int64_t>& right);

// Hub-heavy community forum: every foreign key's parent side follows a
// power-law fan-out, so a few hub rows own most child rows and Stage-II
// hash builds over them are large. Text columns along each join path
// are enough for EsGenerator::Init's six-column pool.
//
//   Community <- Member <- Post -> Thread -> Community
//                           ^
//   Tag <------------- PostTag
//
// Fixed size and seed: every call builds the same database.
StatusOr<Database> MakePowerlawDb();

// Fan-out of one foreign key in a finalized database.
struct Fanout {
  std::string label;   // "Child.Column->Parent"
  int64_t children = 0;
  int64_t parents = 0;
  int64_t max = 0;
  // Share of child rows that point at the top 1% of parents (at least
  // one parent) ranked by fan-out.
  double top1pct_share = 0.0;
};
std::vector<Fanout> MeasureFanout(const Database& db);

}  // namespace s4::perfbench

#endif  // S4_PERFBENCH_POWERLAW_DB_H_
