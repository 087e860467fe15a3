// S4 end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// --trace 0 measures the workload on its own top rung (client-observed,
// closed loop, no spans) and prints the end-to-end metrics. --trace 1
// replays a fixed, seed-determined op list down every rung of the
// ladder (PreparedSearch + RunFastTopK, S4System, S4Service, S4Client,
// S4Coordinator), each on a fresh instance, records a span around every
// call into a layer, and prints the per-layer metrics. Every answer is
// checked against a serial exact FASTTOPK reference. The last stdout
// line is the result object; the full result (provenance, sample
// counts, the rung ladder) goes to <out-dir>/<workload>-seed<n>-trace<t>.json
// and, when traced, the spans to <out-dir>/spans-<workload>-seed<n>.json.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.h"
#include "powerlaw_db.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace s4::perfbench {
namespace {

// Set-up takes tens of milliseconds, so it is cheap to repeat it until
// its median is steady.
constexpr int kSetupReps = 25;
constexpr double kWarmupSeconds = 2.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(v);
    } else if (flag == "--trace") {
      args->trace = std::atoi(v) != 0;
    } else if (flag == "--out-dir") {
      args->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

double Now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

// Peak resident set of the process so far (VmHWM), in MiB.
double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Metrics in the order they are reported, each with its unit.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + JsonString(items_[i].name) +
             ": {\"value\": " + Num(items_[i].value) +
             ", \"unit\": " + JsonString(items_[i].unit) + "}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

std::string Provenance(const Args& args) {
  auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return std::string(v != nullptr && *v != '\0' ? v : "unknown");
  };
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  return std::string("{") +
         "\"git_sha\": " + JsonString(env("PERFBENCH_GIT_SHA")) +
         ", \"source_digest\": " + JsonString(env("PERFBENCH_SOURCE_DIGEST")) +
         ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"optimized\": " + (optimized ? "true" : "false") +
         ", \"simd\": " + JsonString(simd::BackendName()) +
         ", \"workload\": " + JsonString(args.workload) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"seconds\": " + Num(args.seconds) +
         ", \"trace\": " + (args.trace ? "1" : "0") + "}";
}

// --- load -----------------------------------------------------------------

struct Load {
  std::vector<Outcome> outcomes;
  std::vector<Outcome> warmup;   // checked, but not timed
  double elapsed_seconds = 0.0;  // of the measured window
  double cpu_seconds = 0.0;      // process CPU time over the window
  bool ran_dry = false;  // a client used up its ops inside the window
};

// Closed loop: each client sends its next op when the previous returned.
// `seconds` > 0 lets clients start ops for `warmup` + `seconds` and times
// only the ops started after the warm-up, so the first requests of a
// fresh deployment (cold caches, first page faults) stay out of the
// figures; 0 runs and times every op. `serial` replays all clients' ops
// from one thread in a fixed interleaving (op i of client 0, 1, ..., then
// op i + 1).
Load RunLoad(Deployment& d, const Inputs& in, double warmup, double seconds,
             bool serial, obs::Trace* trace) {
  const size_t clients = in.per_client.size();
  std::vector<std::vector<Outcome>> per(clients);
  std::vector<std::vector<Outcome>> warm(clients);
  Load load;
  const double start = Now();
  auto request_id = [](size_t c, size_t i) {
    return (static_cast<uint64_t>(c) << 40) + i + 1;
  };
  if (serial) {
    size_t longest = 0;
    for (const auto& ops : in.per_client) longest = std::max(longest, ops.size());
    for (size_t i = 0; i < longest; ++i) {
      for (size_t c = 0; c < clients; ++c) {
        if (i >= in.per_client[c].size()) continue;
        per[c].push_back(d.Run(static_cast<int32_t>(c), in.per_client[c][i],
                               in, request_id(c, i), trace));
        per[c].back().finished_at = Now() - start;
      }
    }
  } else {
    std::vector<std::thread> threads;
    std::atomic<bool> ran_dry{false};
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        const std::vector<Op>& ops = in.per_client[c];
        size_t i = 0;
        for (; i < ops.size(); ++i) {
          const double started = Now() - start;
          if (seconds > 0.0 && started >= warmup + seconds) break;
          Outcome o = d.Run(static_cast<int32_t>(c), ops[i], in,
                            request_id(c, i), trace);
          o.finished_at = Now() - start - warmup;
          (started >= warmup ? per : warm)[c].push_back(std::move(o));
        }
        if (seconds > 0.0 && i == ops.size()) ran_dry = true;
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
    const double cpu0 = CpuSeconds();
    for (std::thread& t : threads) t.join();
    load.cpu_seconds = CpuSeconds() - cpu0;
    load.ran_dry = ran_dry;
  }
  load.elapsed_seconds = Now() - start - warmup;
  for (size_t c = 0; c < clients; ++c) {
    for (Outcome& o : per[c]) load.outcomes.push_back(std::move(o));
    for (Outcome& o : warm[c]) load.warmup.push_back(std::move(o));
  }
  return load;
}

std::vector<int32_t> SheetsUsed(const Inputs& in) {
  std::vector<int32_t> used;
  std::vector<bool> seen(in.sheets.size(), false);
  for (const auto& ops : in.per_client) {
    for (const Op& op : ops) {
      if (!op.write() && !seen[static_cast<size_t>(op.sheet)]) {
        seen[static_cast<size_t>(op.sheet)] = true;
        used.push_back(op.sheet);
      }
    }
  }
  return used;
}

// --- output check ----------------------------------------------------------

struct Check {
  int64_t attempted = 0;
  int64_t failed = 0;
  double recall_sum = 0.0;
  int64_t recall_samples = 0;
  std::vector<std::string> errors;  // the first few, for the log

  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(why);
  }
  double Recall() const {
    return recall_samples == 0 ? 0.0
                               : recall_sum / static_cast<double>(recall_samples);
  }
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Exact workloads must match the reference on signatures and
// bit-identical scores. Approximate answers must be epsilon-sound: as
// many hits, and a k-th score within (1 + eps) of the exact one.
void CheckOutcome(const WorkloadSpec& spec, const Outcome& o,
                  const std::vector<std::vector<Hit>>& refs, Check* check) {
  ++check->attempted;
  if (!o.ok) {
    check->Fail(o.error);
    return;
  }
  if (o.write) return;
  const std::vector<Hit>& ref = refs[static_cast<size_t>(o.sheet)];
  int64_t found = 0;
  for (const Hit& h : o.topk) {
    for (const Hit& r : ref) {
      if (r.signature == h.signature) {
        ++found;
        break;
      }
    }
  }
  check->recall_sum += ref.empty() ? 1.0
                                   : static_cast<double>(found) /
                                         static_cast<double>(ref.size());
  ++check->recall_samples;
  const std::string where = "sheet " + std::to_string(o.sheet) + ": ";
  if (o.topk.size() != ref.size()) {
    check->Fail(where + "got " + std::to_string(o.topk.size()) +
                " hits, reference has " + std::to_string(ref.size()));
    return;
  }
  if (spec.search.approx_epsilon > 0.0) {
    if (!ref.empty() && o.topk.back().score * (1.0 + spec.search.approx_epsilon) <
                            ref.back().score - 1e-9) {
      check->Fail(where + "k-th score outside the epsilon bound");
    }
    return;
  }
  for (size_t i = 0; i < ref.size(); ++i) {
    if (o.topk[i].signature != ref[i].signature ||
        !SameBits(o.topk[i].score, ref[i].score)) {
      check->Fail(where + "hit " + std::to_string(i) + " differs: " +
                  o.topk[i].signature + " vs " + ref[i].signature);
      return;
    }
  }
}

// --- runs ------------------------------------------------------------------

struct Run {
  bool ok = true;  // set-up and inputs succeeded
  Check check;
  Metrics metrics;
  std::string summary;  // one human-readable line
  std::string extra;    // extra JSON members for the result file
};

Run SetupFailed(const char* step, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", step, status.ToString().c_str());
  Run run;
  run.ok = false;
  return run;
}

std::vector<double> Seconds(const std::vector<Outcome>& outcomes, bool writes) {
  std::vector<double> out;
  for (const Outcome& o : outcomes) {
    if (o.write == writes) out.push_back(o.seconds);
  }
  return out;
}

std::string LatencyJson(const OrderStats& s) {
  const OrderStats::Tail tail = s.HighestSupported(10);
  return "{\"samples\": " + std::to_string(s.count()) +
         ", \"p50_ms\": " + Num(1e3 * s.Median()) +
         ", \"q1_ms\": " + Num(1e3 * s.Q1()) +
         ", \"q3_ms\": " + Num(1e3 * s.Q3()) +
         ", \"p90_ms\": " + Num(1e3 * s.Percentile(0.90)) +
         ", \"p99_ms\": " + Num(1e3 * s.Percentile(0.99)) +
         ", \"p99_beyond\": " + std::to_string(s.Beyond(0.99)) +
         ", \"tail_level\": " + Num(tail.level) +
         ", \"tail_ms\": " + Num(1e3 * tail.value) +
         ", \"max_ms\": " + Num(1e3 * s.Max()) +
         ", \"mean_ms\": " + Num(1e3 * s.Mean()) + "}";
}

// The workload's database indexed once, outside every timed window: the
// source of the inputs and of the reference answers.
struct Reference {
  std::unique_ptr<Database> db;
  std::unique_ptr<S4System> system;
};

StatusOr<Reference> MakeReference(const WorkloadSpec& spec) {
  auto db = MakeDatabase(spec);
  if (!db.ok()) return db.status();
  Reference ref;
  ref.db = std::make_unique<Database>(std::move(db).value());
  auto system = S4System::Create(*ref.db);
  if (!system.ok()) return system.status();
  ref.system = std::move(system).value();
  return ref;
}

// Prints the fan-out of a power-law database and returns it as a member
// of the result file; "" for other data.
std::string FanoutJson(const WorkloadSpec& spec, const Database& db) {
  if (spec.data != WorkloadSpec::Data::kPowerlaw) return "";
  std::string fan = "[";
  for (const Fanout& f : MeasureFanout(db)) {
    std::printf("fan-out %-26s children %6lld max %5lld top-1%% share %.3f\n",
                f.label.c_str(), static_cast<long long>(f.children),
                static_cast<long long>(f.max), f.top1pct_share);
    fan += std::string(fan.size() > 1 ? ", " : "") + "{\"fk\": " +
           JsonString(f.label) + ", \"max\": " + std::to_string(f.max) +
           ", \"top1pct_share\": " + Num(f.top1pct_share) + "}";
  }
  return ", \"fanout\": " + fan + "]";
}

int32_t Cores() {
  return static_cast<int32_t>(std::thread::hardware_concurrency());
}

Run RunUntraced(const WorkloadSpec& spec, const Args& args) {
  Run run;
  // Headroom: clients must never run out of ops inside the window.
  const int64_t ops_per_client =
      static_cast<int64_t>(std::ceil(2.5 * spec.ops_per_second *
                                     (kWarmupSeconds + args.seconds) /
                                     spec.clients)) +
      16;
  // The reference is dropped before set-up and built again after the
  // load, so peak_rss_mb holds the served deployment and the inputs only.
  Inputs inputs;
  {
    auto ref = MakeReference(spec);
    if (!ref.ok()) return SetupFailed("reference", ref.status());
    run.extra += FanoutJson(spec, *ref->db);
    auto made = MakeInputs(spec, *ref->system, args.seed, ops_per_client);
    if (!made.ok()) return SetupFailed("inputs", made.status());
    inputs = std::move(made).value();
  }

  // Set-up: database generation, index build, server start-up. Repeated
  // so the reported figure is a median; the last instance serves.
  std::vector<double> setup;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetupReps; ++i) {
    d.reset();
    const double t0 = Now();
    auto made = Deployment::Create(spec, spec.top, nullptr);
    setup.push_back(Now() - t0);
    if (!made.ok()) return SetupFailed("set-up", made.status());
    d = std::move(made).value();
  }

  Load load =
      RunLoad(*d, inputs, kWarmupSeconds, args.seconds, false, nullptr);
  const double peak_rss = PeakRssMb();
  d.reset();

  if (load.ran_dry) {
    std::fprintf(stderr, "warning: clients ran out of ops before %.1f s\n",
                 args.seconds);
  }
  std::vector<int32_t> served;
  for (const auto* outcomes : {&load.warmup, &load.outcomes}) {
    for (const Outcome& o : *outcomes) {
      if (!o.write) served.push_back(o.sheet);
    }
  }
  std::sort(served.begin(), served.end());
  served.erase(std::unique(served.begin(), served.end()), served.end());
  auto ref = MakeReference(spec);
  if (!ref.ok()) return SetupFailed("reference", ref.status());
  const auto refs =
      ComputeReferences(spec, *ref->system, inputs, served, Cores());
  for (const auto* outcomes : {&load.warmup, &load.outcomes}) {
    for (const Outcome& o : *outcomes) CheckOutcome(spec, o, refs, &run.check);
  }

  const OrderStats search(Seconds(load.outcomes, false));
  const OrderStats writes(Seconds(load.outcomes, true));
  const double searches = static_cast<double>(search.count());
  if (search.count() < 1000) {
    std::fprintf(stderr,
                 "warning: %lld searches; p99 has fewer than 10 samples "
                 "beyond it\n",
                 static_cast<long long>(search.count()));
  }
  run.summary = "searches " + std::to_string(search.count()) +
                " (p99 has " + std::to_string(search.Beyond(0.99)) +
                " beyond), writes " + std::to_string(writes.count()) +
                ", recall over " + std::to_string(run.check.recall_samples) +
                " searches";
  run.metrics.Set("search_p50_ms", 1e3 * search.Median(), "ms");
  run.metrics.Set("search_p99_ms", 1e3 * search.Percentile(0.99), "ms");
  run.metrics.Set("search_qps", searches / load.elapsed_seconds, "1/s");
  run.metrics.Set("cpu_ms_per_search",
                  1e3 * load.cpu_seconds / std::max(1.0, searches), "ms");
  run.metrics.Set("peak_rss_mb", peak_rss, "MiB");
  run.metrics.Set("recall_at_k", run.check.Recall(), "ratio");
  run.metrics.Set("setup_s", OrderStats(setup).Median(), "s");

  run.extra += ", \"search_latency\": " + LatencyJson(search) +
               ", \"write_latency\": " + LatencyJson(writes) +
               ", \"write_p50_ms\": " + Num(1e3 * writes.Median()) +
               ", \"write_p90_ms\": " + Num(1e3 * writes.Percentile(0.90)) +
               ", \"failed_frac\": " +
               Num(static_cast<double>(run.check.failed) /
                   static_cast<double>(std::max<int64_t>(1, run.check.attempted))) +
               ", \"recall_samples\": " +
               std::to_string(run.check.recall_samples) +
               ", \"elapsed_s\": " + Num(load.elapsed_seconds) +
               ", \"setup_s_samples\": [";
  for (size_t i = 0; i < setup.size(); ++i) {
    run.extra += (i == 0 ? "" : ", ") + Num(setup[i]);
  }
  // Searches completed per second of the window: shows stalls that a
  // whole-run figure averages away.
  std::vector<int64_t> per_second(
      static_cast<size_t>(std::ceil(load.elapsed_seconds)), 0);
  for (const Outcome& o : load.outcomes) {
    if (!o.write && !per_second.empty()) {
      ++per_second[std::min(per_second.size() - 1,
                            static_cast<size_t>(o.finished_at))];
    }
  }
  run.extra += "], \"searches_per_second\": [";
  for (size_t i = 0; i < per_second.size(); ++i) {
    run.extra += (i == 0 ? "" : ", ") + std::to_string(per_second[i]);
  }
  run.extra += "]";
  return run;
}

Run RunTraced(const WorkloadSpec& spec, const Args& args) {
  Run run;
  // Six replays (untraced top rung, then rungs 1-5) share the window.
  const int64_t ops_per_client = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(spec.trace_ops_per_second *
                                        args.seconds / 6.0 / spec.clients)));
  Inputs inputs;
  std::vector<std::vector<Hit>> refs;
  {
    auto ref = MakeReference(spec);
    if (!ref.ok()) return SetupFailed("reference", ref.status());
    run.extra += FanoutJson(spec, *ref->db);
    auto made = MakeInputs(spec, *ref->system, args.seed, ops_per_client);
    if (!made.ok()) return SetupFailed("inputs", made.status());
    inputs = std::move(made).value();
    refs = ComputeReferences(spec, *ref->system, inputs, SheetsUsed(inputs),
                             Cores());
  }

  // The workload's own rung without spans: the tracing-overhead base.
  double untraced_mean = 0.0;
  OrderStats untraced_writes({});
  {
    auto d = Deployment::Create(spec, spec.top, nullptr);
    if (!d.ok()) return SetupFailed("set-up", d.status());
    Load load = RunLoad(**d, inputs, 0.0, 0.0, false, nullptr);
    for (const Outcome& o : load.outcomes) CheckOutcome(spec, o, refs, &run.check);
    untraced_mean = OrderStats(Seconds(load.outcomes, false)).Mean();
    untraced_writes = OrderStats(Seconds(load.outcomes, true));
  }

  obs::Trace trace("perfbench");
  Tally direct;
  ServiceStats service;
  Tally coordinator;
  uint64_t epochs = 0;
  size_t index_bytes = 0;
  double traced_mean = 0.0;
  std::string ladder = "[";
  double below_p50 = 0.0;
  for (int32_t r = 1; r <= 5; ++r) {
    const Rung rung = static_cast<Rung>(r);
    auto d = Deployment::Create(spec, rung, &trace);
    if (!d.ok()) return SetupFailed(RungName(rung), d.status());
    Load load = RunLoad(**d, inputs, 0.0, 0.0, rung == Rung::kDirect, &trace);
    for (const Outcome& o : load.outcomes) CheckOutcome(spec, o, refs, &run.check);
    const OrderStats lat(Seconds(load.outcomes, false));
    if (rung == Rung::kDirect) {
      direct = (*d)->tally();
      epochs = (*d)->epochs();
      index_bytes = (*d)->index_bytes();
    }
    if (rung == Rung::kService) service = (*d)->service_stats();
    if (rung == Rung::kCoordinator) coordinator = (*d)->tally();
    if (rung == spec.top) traced_mean = lat.Mean();
    ladder += std::string(r == 1 ? "" : ", ") + "{\"rung\": " +
              JsonString(RungName(rung)) + ", \"latency\": " +
              LatencyJson(lat) + ", \"p50_delta_ms\": " +
              Num(r == 1 ? 0.0 : 1e3 * (lat.Median() - below_p50)) + "}";
    below_p50 = lat.Median();
  }
  ladder += "]";

  const size_t spans = trace.NumSpans();
  const auto self = SelfTimes(trace.ExportSegment().events);
  // `key` is "<rung>/<span>", as RungName and Deployment::Run name them.
  auto self_ms = [&](const char* key) {
    auto it = self.find(key);
    return it == self.end() ? 0.0 : it->second.MeanSelfMs();
  };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const RunStats& st = direct.stats;
  const double searches = static_cast<double>(direct.searches);
  Metrics& m = run.metrics;
  m.Set("enumerate.self_ms", self_ms("direct/enumerate"), "ms");
  m.Set("enumerate.candidates", static_cast<double>(direct.candidates), "count");
  m.Set("strategy.self_ms", self_ms("direct/strategy"), "ms");
  m.Set("strategy.queries_evaluated", static_cast<double>(st.queries_evaluated), "count");
  m.Set("strategy.query_row_evals", static_cast<double>(st.query_row_evals), "count");
  m.Set("strategy.batches", static_cast<double>(st.batches), "count");
  m.Set("strategy.skipped", static_cast<double>(st.skipped_by_condition), "count");
  m.Set("exec.hash_inserts", static_cast<double>(st.counters.hash_inserts), "count");
  m.Set("exec.hash_lookups", static_cast<double>(st.counters.hash_lookups), "count");
  m.Set("exec.rows_scanned", static_cast<double>(st.counters.rows_scanned), "count");
  m.Set("exec.postings_scanned", static_cast<double>(st.counters.postings_scanned), "count");
  m.Set("cache.hit_ratio",
        ratio(static_cast<double>(st.cache.hits),
              static_cast<double>(st.cache.hits + st.cache.misses)),
        "ratio");
  m.Set("cache.peak_bytes", static_cast<double>(st.cache.peak_bytes), "bytes");
  m.Set("s4.self_ms", self_ms("s4/s4"), "ms");
  m.Set("service.self_ms", self_ms("service/service"), "ms");
  m.Set("service.queue_ms", self_ms("service/queue"), "ms");
  m.Set("service.shared_hit_ratio",
        ratio(static_cast<double>(service.shared_cache.hits),
              static_cast<double>(service.shared_cache.hits +
                                  service.shared_cache.misses)),
        "ratio");
  m.Set("service.shared_evictions", static_cast<double>(service.shared_cache.evictions), "count");
  m.Set("service.rejected", static_cast<double>(service.rejected), "count");
  m.Set("net.self_ms", self_ms("net/net"), "ms");
  const double dist_searches = static_cast<double>(coordinator.searches);
  m.Set("dist.self_ms", self_ms("dist/dist"), "ms");
  m.Set("dist.shard_wall_ms",
        1e3 * ratio(coordinator.shard_wall_seconds,
                    static_cast<double>(coordinator.shard_exchanges)),
        "ms");
  m.Set("dist.partials_per_search",
        ratio(static_cast<double>(coordinator.partials), dist_searches), "count");
  m.Set("dist.early_stops_per_search",
        ratio(static_cast<double>(coordinator.early_stops), dist_searches), "count");
  m.Set("live.apply_ms", self_ms("direct/live"), "ms");
  m.Set("live.epochs", static_cast<double>(epochs), "count");
  m.Set("live.write_p50_ms", 1e3 * untraced_writes.Median(), "ms");
  m.Set("live.write_p90_ms", 1e3 * untraced_writes.Percentile(0.90), "ms");
  // Sampler time has no span of its own: it sits inside strategy.self_ms.
  m.Set("approx.sampled", static_cast<double>(st.approx_sampled), "count");
  m.Set("approx.escalated", static_cast<double>(st.approx_escalated), "count");
  m.Set("approx.samples", static_cast<double>(st.approx_samples), "count");
  m.Set("approx.resolved_ratio",
        ratio(static_cast<double>(st.approx_sampled),
              static_cast<double>(st.approx_sampled + st.approx_escalated)),
        "ratio");
  m.Set("index.build_s", 1e-3 * self_ms("setup/index"), "s");
  m.Set("index.bytes", static_cast<double>(index_bytes), "bytes");
  m.Set("trace.overhead_ms", 1e3 * (traced_mean - untraced_mean), "ms");
  m.Set("trace.spans", static_cast<double>(spans), "count");

  run.summary = "replayed " + std::to_string(ops_per_client * spec.clients) +
                " ops on each of 6 passes, " + std::to_string(spans) +
                " spans";
  run.extra += ", \"ladder\": " + ladder + ", \"searches_per_rung\": " +
               Num(searches) + ", \"self_times\": {";
  bool first = true;
  for (const auto& [key, t] : self) {
    run.extra += (first ? "" : ", ") + JsonString(key) +
                 ": {\"count\": " + std::to_string(t.count) +
                 ", \"mean_total_ms\": " +
                 Num(1e3 * t.total_seconds / static_cast<double>(t.count)) +
                 ", \"mean_self_ms\": " + Num(t.MeanSelfMs()) + "}";
    first = false;
  }
  run.extra += "}";

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  std::ofstream(args.out_dir + "/spans-" + args.workload + "-seed" +
                std::to_string(args.seed) + ".json")
      << trace.ToChromeJson();
  return run;
}

}  // namespace
}  // namespace s4::perfbench

int main(int argc, char** argv) {
  using namespace s4::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "\n*** WARNING: perfbench was built without optimisation "
               "(build type '%s'); its timings are not comparable. ***\n\n",
               PERFBENCH_BUILD_TYPE);
#endif
  const std::string provenance = Provenance(args);
  std::printf("provenance: %s\n", provenance.c_str());
  std::fflush(stdout);

  Run run = args.trace ? RunTraced(*spec, args) : RunUntraced(*spec, args);
  if (!run.ok) return 1;
  std::printf("summary: %s\n", run.summary.c_str());
  for (const std::string& e : run.check.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  const bool correct = run.check.failed == 0;
  const std::string result =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(run.check.attempted) +
      ", \"failed\": " + std::to_string(run.check.failed) +
      ", \"metrics\": " + run.metrics.Json() + "}";

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  std::ofstream(args.out_dir + "/" + args.workload + "-seed" +
                std::to_string(args.seed) + "-trace" +
                (args.trace ? "1" : "0") + ".json")
      << "{\"provenance\": " << provenance << ", \"result\": " << result
      << run.extra << "}\n";
  std::printf("%s\n", result.c_str());
  return 0;
}
