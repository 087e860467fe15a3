#ifndef S4_OBS_PROFILE_H_
#define S4_OBS_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "approx/score_interval.h"
#include "obs/run_stats.h"

namespace s4::obs {

// The per-request timing envelope that accompanies a RunStats (the
// counter record, obs/run_stats.h): wall times only the serving layers
// know. It holds no counters of its own, so it can never disagree with
// the record it travels beside.
struct QueryProfile {
  // Service-level wall times: admission to completion, and time spent
  // queued for admission. The coordinator stamps its own wall clock.
  double total_seconds = 0.0;
  double queue_seconds = 0.0;
};

// One ranked hit's score bracket for the explain report: degenerate
// [score, score] @ 1.0 for exact hits, the sampling interval when the
// hit was resolved by the estimator.
struct ProfileHit {
  double score = 0.0;
  ScoreInterval interval;
  bool approximate = false;
  std::string label;  // SQL text or signature
};

// Human-readable explain report of a finished request: the timing
// envelope, the rows of every non-zero section of the counter schema
// (stage timings, work, cache, sampler), and — when `hits` is
// non-empty — per-hit score brackets (error bars) for approximate
// results.
std::string FormatProfile(const RunStats& stats, const QueryProfile& profile,
                          const std::vector<ProfileHit>& hits = {});

}  // namespace s4::obs

#endif  // S4_OBS_PROFILE_H_
