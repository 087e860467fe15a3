#include "obs/profile.h"

#include <cinttypes>
#include <cstdio>

namespace s4::obs {

namespace {

void Line(std::string* out, const char* label, int64_t value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "  %-26s %12" PRId64 "\n", label, value);
  *out += buf;
}

void TimeLine(std::string* out, const char* label, double seconds) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "  %-26s %9.3f ms\n", label,
                1e3 * seconds);
  *out += buf;
}

}  // namespace

std::string FormatProfile(const RunStats& stats, const QueryProfile& p,
                          const std::vector<ProfileHit>& hits) {
  std::string out;
  out.reserve(1024);
  char buf[256];

  out += "query profile\n";
  TimeLine(&out, "total wall", p.total_seconds);
  TimeLine(&out, "queued (admission)", p.queue_seconds);

  // One block per schema section, in schema order; an all-zero section
  // (e.g. the sampler on an exact run) is left out.
  std::string section, rows;
  bool nonzero = false;
  auto flush = [&] {
    if (nonzero) out += section + "\n" + rows;
    rows.clear();
    nonzero = false;
  };
  ForEachStat(
      [&](const StatField& f, const auto& value) {
        if (section != f.section) {
          flush();
          section = f.section;
        }
        nonzero |= value != 0;
        if (f.kind == StatKind::kSeconds) {
          TimeLine(&rows, f.label, static_cast<double>(value));
        } else {
          Line(&rows, f.label, static_cast<int64_t>(value));
        }
      },
      stats);
  flush();

  if (!hits.empty()) {
    out += "hits\n";
    int rank = 1;
    for (const ProfileHit& h : hits) {
      if (h.approximate) {
        // Error bars: the sampling bracket the score is certified to
        // lie in, at the per-candidate confidence the caller asked for.
        std::snprintf(buf, sizeof(buf),
                      "  %2d. score=%.4f in [%.4f, %.4f] @ %.0f%% conf  ",
                      rank++, h.score, h.interval.lo, h.interval.hi,
                      1e2 * h.interval.confidence);
      } else {
        std::snprintf(buf, sizeof(buf), "  %2d. score=%.4f  ", rank++,
                      h.score);
      }
      out += buf;
      out += h.label;
      out += '\n';
    }
  }
  return out;
}

}  // namespace s4::obs
