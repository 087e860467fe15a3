#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <optional>
#include <set>
#include <thread>

#include "datagen/es_gen.h"
#include "datagen/synthetic.h"
#include "powerlaw_db.h"

namespace s4::perfbench {

const char* RungName(Rung rung) {
  switch (rung) {
    case Rung::kDirect:
      return "direct";
    case Rung::kSystem:
      return "s4";
    case Rung::kService:
      return "service";
    case Rung::kClient:
      return "net";
    case Rung::kCoordinator:
      return "dist";
  }
  return "?";
}

namespace {

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> out;
  SearchOptions table2;  // k = 10, FASTTOPK defaults
  table2.enumeration.max_tree_size = 4;

  WorkloadSpec explore;
  explore.name = "explore";
  explore.why =
      "one analyst, distinct sheets over the wire: Stage II does the work "
      "and the cross-query cache never hits";
  explore.clients = 1;
  explore.top = Rung::kClient;
  explore.pick = WorkloadSpec::Pick::kDistinct;
  explore.search = table2;
  explore.search.enumeration.max_tree_size = 3;
  // Distinct sheets never hit the shared cache; a small budget keeps it
  // (and peak memory) from growing with the number of searches served.
  explore.shared_cache_bytes = 64u << 20;
  explore.ops_per_second = 100.0;
  explore.trace_ops_per_second = 80.0;
  out.push_back(explore);

  WorkloadSpec hot;
  hot.name = "team-hot";
  hot.why =
      "four analysts on a Zipf hot set that fits the shared cache: "
      "queueing, framing and pool scheduling dominate";
  hot.clients = 4;
  hot.top = Rung::kClient;
  hot.pick = WorkloadSpec::Pick::kZipfHot;
  hot.pool = 16;
  hot.search = table2;
  hot.ops_per_second = 300.0;
  hot.trace_ops_per_second = 70.0;
  out.push_back(hot);

  WorkloadSpec fleet;
  fleet.name = "fleet-writes";
  fleet.why =
      "coordinator over two live shards, one op in ten a write: the only "
      "workload on dist and live, with invalidation and eviction";
  fleet.clients = 4;
  fleet.top = Rung::kCoordinator;
  fleet.shards = 2;
  fleet.live = true;
  fleet.write_every = 10;
  fleet.pick = WorkloadSpec::Pick::kUniformPool;
  fleet.pool = 64;
  fleet.shared_cache_bytes = 4u << 20;
  fleet.search = table2;
  fleet.search.enumeration.max_tree_size = 3;
  fleet.ops_per_second = 160.0;
  fleet.trace_ops_per_second = 70.0;
  out.push_back(fleet);

  WorkloadSpec hub;
  hub.name = "hub-approx";
  hub.why =
      "sampled FASTTOPK (eps 0.05) on a power-law fan-out database: the "
      "approx layer and the largest Stage-II hash builds";
  hub.data = WorkloadSpec::Data::kPowerlaw;
  hub.clients = 1;
  hub.top = Rung::kClient;
  hub.pick = WorkloadSpec::Pick::kDistinct;
  hub.search = table2;
  hub.search.approx_epsilon = 0.05;
  hub.search.approx_confidence = 0.95;
  hub.shared_cache_bytes = 64u << 20;
  hub.ops_per_second = 100.0;
  hub.trace_ops_per_second = 100.0;
  out.push_back(hub);
  return out;
}

Cells CellsOf(const ExampleSpreadsheet& sheet) {
  Cells cells(static_cast<size_t>(sheet.NumRows()));
  for (int32_t r = 0; r < sheet.NumRows(); ++r) {
    for (int32_t c = 0; c < sheet.NumColumns(); ++c) {
      cells[static_cast<size_t>(r)].push_back(sheet.cell(r, c).raw);
    }
  }
  return cells;
}

// Writes go to the largest relation: the longest posting lists and the
// biggest (key, fk) columns to maintain.
const Table& FactTable(const Database& db) {
  const Table* best = &db.table(0);
  for (TableId t = 1; t < db.NumTables(); ++t) {
    if (db.table(t).NumRows() > best->NumRows()) best = &db.table(t);
  }
  return *best;
}

// A word no generated spreadsheet can contain (the data vocabulary has
// no "qzx" prefix), so written rows never change any search's answer.
std::string InertWord(int64_t n) {
  std::string w = "qzx";
  do {
    w += static_cast<char>('a' + n % 26);
    n /= 26;
  } while (n > 0);
  return w;
}

Mutation InsertRow(const Table& t, int64_t pk) {
  std::vector<Value> values;
  for (int32_t c = 0; c < t.NumColumns(); ++c) {
    if (c == t.primary_key_column()) {
      values.push_back(Value::Int(pk));
    } else if (t.column(c).type == ColumnType::kText) {
      values.push_back(Value::Text(InertWord(pk) + " " + InertWord(c)));
    } else {
      values.push_back(Value::Null());  // NULL FKs join nothing
    }
  }
  return Mutation::Insert(t.name(), std::move(values));
}

// Write batches of one client: insert, update, delete in rotation, two
// rows each, over rows this client inserted itself (so clients never
// race on a row and every batch applies in full).
class WriteStream {
 public:
  WriteStream(const Table& fact, int32_t client)
      : fact_(fact),
        next_pk_(1'000'000'000LL + 10'000'000LL * client) {
    for (int32_t c = 0; c < fact.NumColumns(); ++c) {
      if (c != fact.primary_key_column() &&
          fact.column(c).type == ColumnType::kText) {
        text_column_ = fact.column(c).name;
        break;
      }
    }
  }

  std::vector<Mutation> Next() {
    std::vector<Mutation> batch;
    const int64_t kind = count_++ % 3;
    for (int i = 0; i < 2; ++i) {
      if (kind == 0 || rows_.empty()) {
        batch.push_back(InsertRow(fact_, next_pk_));
        rows_.push_back(next_pk_++);
      } else if (kind == 1) {
        const int64_t pk = rows_[static_cast<size_t>(i) % rows_.size()];
        batch.push_back(Mutation::Update(
            fact_.name(), pk, text_column_,
            Value::Text(InertWord(pk) + " " + InertWord(count_))));
      } else {
        batch.push_back(Mutation::Delete(fact_.name(), rows_.front()));
        rows_.pop_front();
      }
    }
    return batch;
  }

 private:
  const Table& fact_;
  std::string text_column_;
  int64_t next_pk_;
  int64_t count_ = 0;
  std::deque<int64_t> rows_;
};

std::vector<Hit> HitsOf(const std::vector<ScoredQuery>& topk) {
  std::vector<Hit> out;
  out.reserve(topk.size());
  for (const ScoredQuery& q : topk) out.push_back({q.query.signature(), q.score});
  return out;
}

std::vector<Hit> HitsOf(const std::vector<net::NetTopkEntry>& topk) {
  std::vector<Hit> out;
  out.reserve(topk.size());
  for (const net::NetTopkEntry& e : topk) out.push_back({e.signature, e.score});
  return out;
}

bool FullyApplied(int64_t applied, size_t size, const std::string& error,
                  bool interrupted) {
  return applied == static_cast<int64_t>(size) && error.empty() &&
         !interrupted;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>* specs =
      new std::vector<WorkloadSpec>(BuildWorkloads());
  return *specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

StatusOr<Database> MakeDatabase(const WorkloadSpec& spec) {
  if (spec.data == WorkloadSpec::Data::kPowerlaw) {
    return MakePowerlawDb();
  }
  return datagen::MakeCsuppSim({});
}

constexpr uint64_t kFixedSetSeed = 20150531;

StatusOr<Inputs> MakeInputs(const WorkloadSpec& spec, const S4System& system,
                            uint64_t seed, int64_t ops_per_client) {
  const int64_t searches_per_client =
      spec.write_every > 0
          ? ops_per_client - ops_per_client / spec.write_every
          : ops_per_client;
  const int64_t wanted = spec.pick == WorkloadSpec::Pick::kDistinct
                             ? searches_per_client * spec.clients
                             : spec.pool;

  // Every eligible source query stays in the generator's pool, so the
  // seed changes which sheets are drawn but not the mix of join shapes.
  // A hot set or pool is a few dozen sheets whose costs differ tenfold;
  // drawn per seed, their mix alone would swing throughput by a third.
  // Those sets are therefore fixed, and the seed drives the request
  // sequence and the writes.
  const bool fixed_set = spec.pick != WorkloadSpec::Pick::kDistinct;
  datagen::EsGenerator gen(system.index(), system.graph(),
                           fixed_set ? kFixedSetSeed : seed);
  if (Status st = gen.Init(6, 4, std::numeric_limits<int32_t>::max());
      !st.ok()) {
    return st;
  }
  Inputs in;
  std::set<Cells> seen;
  const datagen::EsGenOptions es;  // Table 2: 3x3, 2 relationship errors
  for (int64_t attempts = 0;
       static_cast<int64_t>(in.sheets.size()) < wanted &&
       attempts < 20 * wanted + 100;
       ++attempts) {
    auto sheet = gen.Generate(es);
    if (!sheet.ok()) continue;
    Cells cells = CellsOf(sheet->sheet);
    if (seen.insert(cells).second) in.sheets.push_back(std::move(cells));
  }
  if (in.sheets.empty()) {
    return Status::Internal("no spreadsheet could be generated");
  }

  Rng rng(seed ^ 0x6f70735f73656564ULL);
  const ZipfSampler zipf(in.sheets.size(), 1.0);
  const Table& fact = FactTable(system.db());
  in.per_client.resize(static_cast<size_t>(spec.clients));
  int64_t next_distinct = 0;
  for (int32_t c = 0; c < spec.clients; ++c) {
    WriteStream writes(fact, c);
    std::vector<Op>& ops = in.per_client[static_cast<size_t>(c)];
    for (int64_t i = 0; i < ops_per_client; ++i) {
      Op op;
      if (spec.write_every > 0 && i % spec.write_every == spec.write_every - 1) {
        op.batch = writes.Next();
      } else if (spec.pick == WorkloadSpec::Pick::kDistinct) {
        // Each sheet is sent once; wraps only if the generator ran out
        // of distinct sheets.
        op.sheet = static_cast<int32_t>(
            (next_distinct++) % static_cast<int64_t>(in.sheets.size()));
      } else if (spec.pick == WorkloadSpec::Pick::kZipfHot) {
        op.sheet = static_cast<int32_t>(zipf.Sample(rng));
      } else {
        op.sheet = static_cast<int32_t>(rng.Uniform(in.sheets.size()));
      }
      ops.push_back(std::move(op));
    }
  }
  return in;
}

StatusOr<std::unique_ptr<Deployment>> Deployment::Create(
    const WorkloadSpec& spec, Rung rung, obs::Trace* trace) {
  std::unique_ptr<Deployment> d(new Deployment(spec, rung));
  if (Status st = d->Build(trace); !st.ok()) return st;
  return d;
}

Deployment::~Deployment() = default;

Status Deployment::Build(obs::Trace* trace) {
  const int32_t copies =
      spec_.live && rung_ == Rung::kCoordinator ? spec_.shards : 1;
  for (int32_t i = 0; i < copies; ++i) {
    auto db = MakeDatabase(spec_);
    if (!db.ok()) return db.status();
    obs::SpanTimer span(trace, "setup", "index");
    if (spec_.live) {
      auto live = LiveS4System::Create(std::move(db).value());
      if (!live.ok()) return live.status();
      lives_.push_back(std::move(live).value());
    } else {
      db_ = std::make_unique<Database>(std::move(db).value());
      auto system = S4System::Create(*db_);
      if (!system.ok()) return system.status();
      system_ = std::move(system).value();
    }
  }
  const IndexStats stats = Current()->index_stats();
  index_bytes_ = stats.inverted_index_bytes + stats.kfk_snapshot_bytes;
  if (rung_ < Rung::kService) return Status::OK();

  const int32_t shards = rung_ == Rung::kCoordinator ? spec_.shards : 1;
  for (int32_t i = 0; i < shards; ++i) {
    ServiceOptions options;
    options.shared_cache_bytes = spec_.shared_cache_bytes;
    // Shards split the machine: each evaluation pool gets its share of
    // the cores (0 = one thread per core for a single service).
    if (shards > 1) {
      options.eval_threads = std::max(
          1, static_cast<int32_t>(std::thread::hardware_concurrency()) / shards);
    }
    if (rung_ == Rung::kCoordinator) {
      options.shard_count = shards;
      options.shard_index = i;
    }
    if (spec_.live) {
      LiveS4System& live = *lives_[lives_.size() == 1 ? 0 : static_cast<size_t>(i)];
      services_.push_back(std::make_unique<S4Service>(live, options));
    } else {
      services_.push_back(std::make_unique<S4Service>(*system_, options));
    }
  }
  if (rung_ == Rung::kService) return Status::OK();

  dist::CoordinatorOptions coordinator;
  for (auto& service : services_) {
    servers_.push_back(std::make_unique<net::S4Server>(service.get()));
    if (Status st = servers_.back()->Start(); !st.ok()) return st;
    coordinator.shards.push_back({"127.0.0.1", servers_.back()->port()});
  }
  if (rung_ == Rung::kClient) {
    for (int32_t c = 0; c < spec_.clients; ++c) {
      net::ClientOptions options;
      options.port = servers_.front()->port();
      options.max_pool_connections = 1;  // one connection per client
      clients_.push_back(std::make_unique<net::S4Client>(options));
      // Dial now, so connection set-up is part of set-up.
      if (Status st = clients_.back()->Ping(); !st.ok()) return st;
    }
  } else {
    coordinator_ =
        std::make_unique<dist::S4Coordinator>(std::move(coordinator));
  }
  return Status::OK();
}

std::shared_ptr<const S4System> Deployment::Current() const {
  if (!lives_.empty()) return lives_.front()->current();
  return std::shared_ptr<const S4System>(std::shared_ptr<void>(),
                                         system_.get());
}

Outcome Deployment::Run(int32_t client, const Op& op, const Inputs& inputs,
                        uint64_t request, obs::Trace* trace) {
  Outcome out;
  out.write = op.write();
  out.sheet = op.sheet;
  const char* rung = RungName(rung_);
  const Clock::time_point start = Clock::now();
  // Spans of one request share its id.
  auto tag = [&](obs::SpanTimer& span) {
    if (span.enabled()) span.AddArg("request", std::to_string(request));
  };
  // A child of `parent` that the layer reported itself (a profile field)
  // rather than one timed here: `seconds` long, from `offset` seconds
  // after `from`, the parent's start.
  auto reported = [&](const obs::SpanTimer& parent, Clock::time_point from,
                      const char* name, double offset, double seconds) {
    if (trace == nullptr) return;
    auto at = [&](double s) {
      return from + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(s));
    };
    trace->AddSpan(rung, name, at(offset), at(offset + seconds),
                   {{"request", std::to_string(request)}}, 0,
                   parent.span_id());
  };

  if (op.write()) {
    const size_t n = op.batch.size();
    if (rung_ <= Rung::kSystem) {
      obs::SpanTimer span(trace, rung, "live");
      tag(span);
      auto res = lives_.front()->Apply(op.batch);
      out.ok = res.ok() &&
               FullyApplied(res->applied, n, res->error, res->interrupted);
      if (!res.ok()) out.error = res.status().ToString();
    } else if (rung_ == Rung::kService) {
      obs::SpanTimer span(trace, rung, "service.mutate");
      tag(span);
      auto res = services_.front()->Mutate(op.batch);
      out.ok = res.ok() &&
               FullyApplied(res->applied, n, res->error, res->interrupted);
      if (!res.ok()) out.error = res.status().ToString();
    } else if (rung_ == Rung::kClient) {
      obs::SpanTimer span(trace, rung, "net.mutate");
      tag(span);
      auto res = clients_[static_cast<size_t>(client)]->Mutate(op.batch);
      out.ok = res.ok() &&
               FullyApplied(res->applied, n, res->error, res->interrupted);
      if (!res.ok()) out.error = res.status().ToString();
    } else {
      obs::SpanTimer span(trace, rung, "dist.mutate");
      tag(span);
      auto res = coordinator_->Mutate(op.batch);
      out.ok = res.ok() && res->complete &&
               res->applied == static_cast<int64_t>(n);
      if (!res.ok()) out.error = res.status().ToString();
    }
    out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    if (!out.ok && out.error.empty()) out.error = "write not fully applied";
    return out;
  }

  const Cells& cells = inputs.sheets[static_cast<size_t>(op.sheet)];
  SearchOptions options = spec_.search;
  switch (rung_) {
    case Rung::kDirect: {
      std::shared_ptr<const S4System> sys = Current();
      options.num_threads = 1;
      auto sheet = sys->MakeSpreadsheet(cells);
      if (!sheet.ok()) {
        out.error = sheet.status().ToString();
        break;
      }
      std::optional<PreparedSearch> prep;
      {
        obs::SpanTimer span(trace, rung, "enumerate");
        tag(span);
        prep.emplace(sys->index(), sys->graph(), *sheet, options);
      }
      SearchResult result;
      {
        obs::SpanTimer span(trace, rung, "strategy");
        tag(span);
        result = RunFastTopK(*prep, options);
      }
      out.ok = !result.interrupted;
      out.topk = HitsOf(result.topk);
      std::lock_guard<std::mutex> lock(tally_mu_);
      tally_.stats.Add(result.stats);
      tally_.candidates += static_cast<int64_t>(prep->candidates.size());
      break;
    }
    case Rung::kSystem: {
      std::shared_ptr<const S4System> sys = Current();
      obs::SpanTimer span(trace, rung, "s4");
      const Clock::time_point from = Clock::now();
      tag(span);
      auto result = sys->Search(cells, options);
      if (!result.ok()) {
        out.error = result.status().ToString();
        break;
      }
      reported(span, from, "enumerate", 0.0, result->stats.enum_seconds);
      reported(span, from, "strategy", result->stats.enum_seconds,
               result->stats.eval_seconds);
      out.ok = !result->interrupted;
      out.topk = HitsOf(result->topk);
      break;
    }
    case Rung::kService: {
      ServiceRequest req;
      req.cells = cells;
      req.options = options;
      obs::SpanTimer span(trace, rung, "service");
      const Clock::time_point from = Clock::now();
      tag(span);
      auto result = services_.front()->Search(std::move(req));
      if (!result.ok()) {
        out.error = result.status().ToString();
        break;
      }
      const double queue = result->profile.queue_seconds;
      reported(span, from, "queue", 0.0, queue);
      reported(span, from, "enumerate", queue, result->stats.enum_seconds);
      reported(span, from, "strategy", queue + result->stats.enum_seconds,
               result->stats.eval_seconds);
      out.ok = !result->interrupted;
      out.topk = HitsOf(result->topk);
      std::lock_guard<std::mutex> lock(tally_mu_);
      tally_.queue_seconds += queue;
      break;
    }
    case Rung::kClient: {
      net::NetSearchRequest req = net::NetSearchRequest::From(
          cells, options, S4System::Strategy::kFastTopK);
      req.want_profile = trace != nullptr;
      obs::SpanTimer span(trace, rung, "net");
      const Clock::time_point from = Clock::now();
      tag(span);
      auto result = clients_[static_cast<size_t>(client)]->Search(req);
      if (!result.ok()) {
        out.error = result.status().ToString();
        break;
      }
      reported(span, from, "service", 0.0, result->profile.total_seconds);
      out.ok = !result->interrupted;
      out.topk = HitsOf(result->topk);
      break;
    }
    case Rung::kCoordinator: {
      net::NetSearchRequest req = net::NetSearchRequest::From(
          cells, options, S4System::Strategy::kFastTopK);
      obs::SpanTimer span(trace, rung, "dist");
      const Clock::time_point from = Clock::now();
      tag(span);
      auto result = coordinator_->Search(req);
      if (!result.ok()) {
        out.error = result.status().ToString();
        break;
      }
      for (const dist::DistShardStats& s : result->shards) {
        reported(span, from, "shard", 0.0, s.wall_seconds);
      }
      out.ok = result->complete;
      if (!out.ok) out.error = "incomplete: a shard was not reached";
      out.topk = HitsOf(result->topk);
      std::lock_guard<std::mutex> lock(tally_mu_);
      tally_.partials += result->partials_received;
      tally_.early_stops += result->early_stops_sent;
      for (const dist::DistShardStats& s : result->shards) {
        tally_.shard_wall_seconds += s.wall_seconds;
        ++tally_.shard_exchanges;
      }
      break;
    }
  }
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  if (!out.ok && out.error.empty()) out.error = "search interrupted";
  std::lock_guard<std::mutex> lock(tally_mu_);
  ++tally_.searches;
  return out;
}

Tally Deployment::tally() const {
  std::lock_guard<std::mutex> lock(tally_mu_);
  return tally_;
}

ServiceStats Deployment::service_stats() const {
  ServiceStats sum;
  for (const auto& service : services_) {
    const ServiceStats s = service->stats();
    sum.accepted += s.accepted;
    sum.rejected += s.rejected;
    sum.completed += s.completed;
    sum.failed += s.failed;
    sum.shared_cache.hits += s.shared_cache.hits;
    sum.shared_cache.misses += s.shared_cache.misses;
    sum.shared_cache.evictions += s.shared_cache.evictions;
  }
  return sum;
}

uint64_t Deployment::epochs() const {
  return lives_.empty() ? 0 : lives_.front()->epoch();
}

std::vector<std::vector<Hit>> ComputeReferences(
    const WorkloadSpec& spec, const S4System& system, const Inputs& inputs,
    const std::vector<int32_t>& sheets, int32_t threads) {
  std::vector<std::vector<Hit>> refs(inputs.sheets.size());
  SearchOptions options = spec.search;
  options.num_threads = 1;
  options.approx_epsilon = 0.0;  // the exact answer, also for hub-approx
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int32_t t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < sheets.size(); i = next++) {
        const int32_t s = sheets[i];
        auto sheet =
            system.MakeSpreadsheet(inputs.sheets[static_cast<size_t>(s)]);
        if (!sheet.ok()) continue;
        refs[static_cast<size_t>(s)] = HitsOf(system.Search(*sheet, options).topk);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return refs;
}

}  // namespace s4::perfbench
