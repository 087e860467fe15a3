// Command-line client for a running net_server: type spreadsheet cells
// on the command line, get back the top-k SQL queries that could have
// produced them — over the wire, from another process.
//
//   ./net_server --port 4321 &
//   ./net_client --port 4321 "The Matrix" "Keanu Reeves"
//   ./net_client --port 4321 --k 3 "The Matrix" / "Speed"
//   ./net_client --port 4321 --trace-out trace.json "The Matrix"
//
// A bare "/" argument starts a new spreadsheet row; everything else is a
// cell. --ping just checks liveness and exits. --trace-out FILE fetches
// the server-side trace of this search (server must run --trace) and
// writes Chrome-trace JSON loadable in Perfetto / chrome://tracing.
//
// Anytime approximate search: --epsilon E (relative slack on the k-th
// score, e.g. 0.05) lets the server resolve low-impact candidates by
// sampling instead of exact evaluation; --confidence C (default 0.95)
// sets the per-candidate confidence of the sampled intervals; --budget N
// caps join-result rows walked per candidate. --deadline S (seconds)
// bounds server-side search time; with a nonzero epsilon the server
// degrades to bounded-error sampling instead of truncating. Approximate
// hits print their score bracket:
//   ./net_client --port 4321 --epsilon 0.05 "The Matrix" "Keanu Reeves"
//   ./net_client --port 4321 --epsilon 0.05 --deadline 0.005 "The Matrix"
//
// Profiling (DESIGN.md "Observability"): --profile asks the server for
// the request's QueryProfile — end-to-end timing envelope, enumeration/
// evaluation work, cache traffic, sampler activity — and prints it
// after the hits, with approximate hits shown as score brackets:
//   ./net_client --port 4321 --profile "The Matrix" "Keanu Reeves"
// --slow-log fetches the server's slow-query ring as JSON (server must
// run --slow-log) and exits:
//   ./net_client --port 4321 --slow-log
//
// Write path (server must run --live): each flag below adds one
// operation to a single batch, applied in order by one request:
//   ./net_client --port 4321 --insert "movies,8,The Matrix 4,2026"
//   ./net_client --port 4321 --update "movies,8,title,The Matrix Four"
//   ./net_client --port 4321 --delete movies,8
// Insert values are comma-separated in schema order; "NULL" is the SQL
// null, digit-only tokens are integers, everything else is text.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "net/client.h"
#include "obs/profile.h"

namespace {

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> parts(1);
  for (char c : s) {
    if (c == ',') {
      parts.emplace_back();
    } else {
      parts.back().push_back(c);
    }
  }
  return parts;
}

s4::Value ParseValue(const std::string& token) {
  if (token == "NULL") return s4::Value::Null();
  if (!token.empty() &&
      token.find_first_not_of("-0123456789") == std::string::npos) {
    return s4::Value::Int(std::atoll(token.c_str()));
  }
  return s4::Value::Text(token);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace s4;

  net::ClientOptions copts;
  copts.port = 4321;
  SearchOptions options;
  options.k = 5;
  bool ping_only = false;
  bool want_profile = false;
  bool slow_log_only = false;
  const char* trace_out = nullptr;
  std::vector<Mutation> mutations;
  std::vector<std::vector<std::string>> cells(1);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      copts.port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--host") == 0 && i + 1 < argc) {
      copts.host = argv[++i];
    } else if (std::strcmp(argv[i], "--k") == 0 && i + 1 < argc) {
      options.k = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--epsilon") == 0 && i + 1 < argc) {
      options.approx_epsilon = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--confidence") == 0 && i + 1 < argc) {
      options.approx_confidence = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      options.sample_budget = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--deadline") == 0 && i + 1 < argc) {
      options.deadline_seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--insert") == 0 && i + 1 < argc) {
      std::vector<std::string> parts = SplitCommas(argv[++i]);
      if (parts.size() < 2) {
        std::fprintf(stderr, "--insert needs \"table,v1[,v2...]\"\n");
        return 2;
      }
      std::vector<Value> values;
      for (size_t j = 1; j < parts.size(); ++j) {
        values.push_back(ParseValue(parts[j]));
      }
      mutations.push_back(Mutation::Insert(parts[0], std::move(values)));
    } else if (std::strcmp(argv[i], "--delete") == 0 && i + 1 < argc) {
      std::vector<std::string> parts = SplitCommas(argv[++i]);
      if (parts.size() != 2) {
        std::fprintf(stderr, "--delete needs \"table,pk\"\n");
        return 2;
      }
      mutations.push_back(
          Mutation::Delete(parts[0], std::atoll(parts[1].c_str())));
    } else if (std::strcmp(argv[i], "--update") == 0 && i + 1 < argc) {
      std::vector<std::string> parts = SplitCommas(argv[++i]);
      if (parts.size() < 4) {
        std::fprintf(stderr, "--update needs \"table,pk,column,value\"\n");
        return 2;
      }
      // The value may itself contain commas: rejoin everything past the
      // third separator.
      std::string value = parts[3];
      for (size_t j = 4; j < parts.size(); ++j) value += "," + parts[j];
      mutations.push_back(Mutation::Update(parts[0],
                                           std::atoll(parts[1].c_str()),
                                           parts[2], ParseValue(value)));
    } else if (std::strcmp(argv[i], "--ping") == 0) {
      ping_only = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      want_profile = true;
    } else if (std::strcmp(argv[i], "--slow-log") == 0) {
      slow_log_only = true;
    } else if (std::strcmp(argv[i], "/") == 0) {
      if (!cells.back().empty()) cells.emplace_back();
    } else {
      cells.back().push_back(argv[i]);
    }
  }

  net::S4Client client(copts);
  if (ping_only) {
    Status st = client.Ping();
    std::printf("ping %s:%u -> %s\n", copts.host.c_str(), copts.port,
                st.ToString().c_str());
    return st.ok() ? 0 : 1;
  }
  if (slow_log_only) {
    auto json = client.FetchSlowLog();
    if (!json.ok()) {
      std::fprintf(stderr,
                   "slow-log fetch failed: %s\n(is the server running"
                   " with --slow-log?)\n",
                   json.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", json->c_str());
    return 0;
  }

  if (!mutations.empty()) {
    auto resp = client.Mutate(mutations);
    if (!resp.ok()) {
      std::fprintf(stderr, "mutate failed: %s\n",
                   resp.status().ToString().c_str());
      return 1;
    }
    std::printf("applied %lld/%zu operation(s), now at epoch %llu"
                " (%.1f ms server time)%s%s\n",
                static_cast<long long>(resp->applied), mutations.size(),
                static_cast<unsigned long long>(resp->epoch),
                1e3 * resp->server_seconds,
                resp->interrupted ? " [interrupted]" : "",
                resp->error.empty()
                    ? ""
                    : (" — stopped at: " + resp->error).c_str());
    if (resp->applied != static_cast<int64_t>(mutations.size())) return 1;
  }

  if (cells.back().empty()) cells.pop_back();
  if (cells.empty()) {
    if (!mutations.empty()) return 0;  // write-only invocation
    std::fprintf(stderr,
                 "usage: net_client [--host H] [--port P] [--k K]"
                 " [--epsilon E] [--confidence C] [--budget N]"
                 " [--deadline S] [--profile] cell"
                 " [cell ...] [/ cell ...]\n"
                 "       net_client [--slow-log]\n"
                 "       net_client [--insert \"table,v1,...\"]"
                 " [--delete \"table,pk\"]"
                 " [--update \"table,pk,col,value\"]\n");
    return 2;
  }

  uint64_t request_id = 0;
  net::NetSearchRequest request = net::NetSearchRequest::From(
      cells, options, S4System::Strategy::kFastTopK);
  request.want_profile = want_profile;
  auto result = client.Search(request, &request_id);
  if (!result.ok()) {
    std::fprintf(stderr, "search failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("top-%zu in %.1f ms server time (%lld queries evaluated,"
              " %lld cache hits)%s:\n",
              result->topk.size(), 1e3 * result->server_seconds,
              static_cast<long long>(result->stats.queries_evaluated),
              static_cast<long long>(result->stats.cache.hits),
              result->interrupted
                  ? " [interrupted]"
                  : (result->approximate ? " [approximate]" : ""));
  int rank = 1;
  for (const net::NetTopkEntry& e : result->topk) {
    if (e.approximate) {
      std::printf("%2d. score=%.4f in [%.4f, %.4f] @ %.0f%% conf\n    %s\n",
                  rank++, e.score, e.interval.lo, e.interval.hi,
                  1e2 * e.interval.confidence, e.sql.c_str());
    } else {
      std::printf("%2d. score=%.4f\n    %s\n", rank++, e.score,
                  e.sql.c_str());
    }
  }

  if (want_profile) {
    if (!result->has_profile) {
      std::fprintf(stderr, "server sent no profile (pre-v3 peer?)\n");
      return 1;
    }
    std::vector<obs::ProfileHit> hits;
    hits.reserve(result->topk.size());
    for (const net::NetTopkEntry& e : result->topk) {
      obs::ProfileHit h;
      h.score = e.score;
      h.interval = e.interval;
      h.approximate = e.approximate;
      h.label = e.sql;
      hits.push_back(std::move(h));
    }
    std::printf("\n%s", obs::FormatProfile(result->stats, result->profile, hits).c_str());
  }

  if (trace_out != nullptr) {
    auto trace_json = client.FetchTrace(request_id);
    if (!trace_json.ok()) {
      std::fprintf(stderr,
                   "trace fetch failed: %s\n(is the server running"
                   " with --trace?)\n",
                   trace_json.status().ToString().c_str());
      return 1;
    }
    std::FILE* f = std::fopen(trace_out, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_out);
      return 1;
    }
    std::fwrite(trace_json->data(), 1, trace_json->size(), f);
    std::fclose(f);
    std::printf("wrote %zu bytes of Chrome-trace JSON to %s"
                " (open in Perfetto or chrome://tracing)\n",
                trace_json->size(), trace_out);
  }
  return 0;
}
