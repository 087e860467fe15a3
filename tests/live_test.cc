// Live mutation subsystem suite. The central claim (DESIGN.md "Live
// mutations") is rebuild equivalence: after ANY sequence of Apply
// calls, searching the published epoch returns bit-identical results —
// signatures, score bits, upper bounds — to an S4System built from
// scratch over a database in the same state, for every strategy, thread
// count, and candidate-space shard slice. Around that differential
// core: epoch pinning (old epochs stay searchable and bit-stable),
// batch-as-a-sequence semantics (applied prefix publishes, first
// failure stops), per-relation cache invalidation (a mutation leaves an
// unrelated relation's cached sub-PJs hitting; InvalidateSharedCache
// still clears everything), the N-writers/M-searchers interleaving
// suite (run under the tsan preset), and the wire + scatter-gather
// write paths end to end.
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stop_token.h"
#include "common/string_util.h"
#include "datagen/random_schema.h"
#include "datagen/tpch_mini.h"
#include "dist/coordinator.h"
#include "live/live_s4.h"
#include "live/mutation.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "s4/s4.h"
#include "service/s4_service.h"
#include "storage/database.h"
#include "strategy/strategy.h"

namespace s4 {
namespace {

using Cells = std::vector<std::vector<std::string>>;

const std::vector<S4System::Strategy> kStrategies = {
    S4System::Strategy::kNaive, S4System::Strategy::kBaseline,
    S4System::Strategy::kFastTopK};

// Strict bit-identity: signatures and raw score/bound values at every
// rank. Exact double == is deliberate — "equivalent up to tolerance"
// would hide an incremental index that drifts from the rebuilt one.
void ExpectBitIdentical(const SearchResult& ref, const SearchResult& got,
                        const std::string& label) {
  ASSERT_EQ(ref.topk.size(), got.topk.size()) << label;
  for (size_t i = 0; i < ref.topk.size(); ++i) {
    EXPECT_EQ(ref.topk[i].query.signature(), got.topk[i].query.signature())
        << label << " rank " << i;
    EXPECT_EQ(ref.topk[i].score, got.topk[i].score) << label << " rank " << i;
    EXPECT_EQ(ref.topk[i].upper_bound, got.topk[i].upper_bound)
        << label << " rank " << i;
  }
}

// One comparable fingerprint of a top-k list (signature + score bits per
// rank); set membership of these keys is how the concurrent suite maps
// each observed search back to an epoch-consistent rebuild.
std::string ResultKey(const SearchResult& r) {
  std::string key;
  for (const ScoredQuery& q : r.topk) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(q.score));
    std::memcpy(&bits, &q.score, sizeof(bits));
    key += q.query.signature();
    key += StrFormat("@%016llx;", static_cast<unsigned long long>(bits));
  }
  return key;
}

std::string RandomWords(Rng& rng, int32_t vocab) {
  std::string text = StrFormat(
      "w%lld", static_cast<long long>(rng.Uniform(vocab)));
  if (rng.Bernoulli(0.4)) {
    text += StrFormat(" w%lld",
                      static_cast<long long>(rng.Uniform(vocab)));
  }
  return text;
}

// The differential_test spreadsheet idiom: random cells over the
// generator's shared vocabulary.
Cells RandomCells(Rng& rng, int32_t vocab) {
  Cells cells(2);
  for (auto& row : cells) {
    for (int c = 0; c < 2; ++c) row.push_back(RandomWords(rng, vocab));
  }
  return cells;
}

// One mutation valid against the database's current state (tables here
// all keep the primary key in column 0 — the random-schema and
// hand-built layouts). Within a batch, ops generated against the same
// snapshot may still collide (two deletes of one row); Apply then keeps
// the applied prefix, which is exactly the semantics under test.
Mutation RandomOp(Rng& rng, const Database& db, int64_t* next_pk,
                  int32_t vocab) {
  const TableId tid = static_cast<TableId>(rng.Uniform(db.NumTables()));
  const Table& t = db.table(tid);
  const uint64_t choice = rng.Uniform(3);
  if (choice == 0 || t.NumRows() == 0) {
    std::vector<Value> values;
    for (int32_t c = 0; c < t.NumColumns(); ++c) {
      if (c == t.primary_key_column()) {
        values.push_back(Value::Int((*next_pk)++));
      } else if (t.column(c).type == ColumnType::kText) {
        values.push_back(Value::Text(RandomWords(rng, vocab)));
      } else {
        values.push_back(rng.Bernoulli(0.25)
                             ? Value::Null()
                             : Value::Int(1 + static_cast<int64_t>(
                                                  rng.Uniform(12))));
      }
    }
    return Mutation::Insert(t.name(), std::move(values));
  }
  const int64_t row = static_cast<int64_t>(rng.Uniform(t.NumRows()));
  const int64_t pk = t.GetInt(row, t.primary_key_column());
  if (choice == 1) return Mutation::Delete(t.name(), pk);
  int32_t col = t.primary_key_column();
  while (col == t.primary_key_column()) {
    col = static_cast<int32_t>(rng.Uniform(t.NumColumns()));
  }
  Value v = t.column(col).type == ColumnType::kText
                ? Value::Text(RandomWords(rng, vocab))
                : (rng.Bernoulli(0.25)
                       ? Value::Null()
                       : Value::Int(1 + static_cast<int64_t>(
                                            rng.Uniform(12))));
  return Mutation::Update(t.name(), pk, t.column(col).name, std::move(v));
}

SearchOptions SmallOptions() {
  SearchOptions options;
  options.k = 5;
  options.enumeration.max_tree_size = 3;
  options.enumeration.max_queries = 2000;
  options.num_threads = 1;
  return options;
}

// Hand-built people/countries database: full control over names for
// the unit and wire tests.
Database MakeTinyDb() {
  Database db;
  Table* country = db.AddTable("Country").value();
  (void)country->AddColumn("Id", ColumnType::kInt64);
  (void)country->AddColumn("Name", ColumnType::kText);
  (void)country->SetPrimaryKey(0);
  (void)country->AppendRow({Value::Int(1), Value::Text("USA")});
  (void)country->AppendRow({Value::Int(2), Value::Text("Canada")});
  Table* person = db.AddTable("Person").value();
  (void)person->AddColumn("Id", ColumnType::kInt64);
  (void)person->AddColumn("Name", ColumnType::kText);
  (void)person->AddColumn("CountryId", ColumnType::kInt64);
  (void)person->SetPrimaryKey(0);
  (void)person->AppendRow({Value::Int(1), Value::Text("Rick"), Value::Int(1)});
  (void)person->AppendRow(
      {Value::Int(2), Value::Text("Julie"), Value::Int(2)});
  (void)person->AppendRow(
      {Value::Int(3), Value::Text("Kevin"), Value::Int(2)});
  if (!db.AddForeignKey("Person", "CountryId", "Country").ok()) abort();
  if (!db.Finalize().ok()) abort();
  return db;
}

// Best score for `cells` on the current epoch, or 0 when nothing
// matches (empty top-k).
double BestScore(const LiveS4System& live, const Cells& cells) {
  auto pinned = live.current();
  auto r = pinned->Search(cells, SmallOptions());
  if (!r.ok()) abort();
  return r->topk.empty() ? 0.0 : r->topk[0].score;
}

// ---------------------------------------------------------------------
// Unit semantics over the hand-built database.
// ---------------------------------------------------------------------

TEST(LiveMutationTest, InsertUpdateDeleteLifecycle) {
  auto live_or = LiveS4System::Create(MakeTinyDb());
  ASSERT_TRUE(live_or.ok()) << live_or.status();
  LiveS4System& live = **live_or;
  EXPECT_EQ(live.epoch(), 0u);
  EXPECT_EQ(BestScore(live, {{"zelkova"}}), 0.0);

  auto ins = live.Apply({Mutation::Insert(
      "Person", {Value::Int(50), Value::Text("zelkova"), Value::Int(2)})});
  ASSERT_TRUE(ins.ok()) << ins.status();
  EXPECT_EQ(ins->applied, 1);
  EXPECT_EQ(ins->epoch, 1u);
  EXPECT_TRUE(ins->error.empty());
  const Table* person = live.db().FindTable("Person");
  ASSERT_EQ(ins->touched, std::vector<TableId>{person->id()});
  EXPECT_GT(BestScore(live, {{"zelkova"}}), 0.0);
  EXPECT_GE(person->FindByPk(50), 0);

  auto upd = live.Apply(
      {Mutation::Update("Person", 50, "Name", Value::Text("quasar"))});
  ASSERT_TRUE(upd.ok()) << upd.status();
  EXPECT_EQ(upd->epoch, 2u);
  EXPECT_EQ(BestScore(live, {{"zelkova"}}), 0.0);
  EXPECT_GT(BestScore(live, {{"quasar"}}), 0.0);

  auto del = live.Apply({Mutation::Delete("Person", 50)});
  ASSERT_TRUE(del.ok()) << del.status();
  EXPECT_EQ(del->epoch, 3u);
  EXPECT_EQ(BestScore(live, {{"quasar"}}), 0.0);
  EXPECT_EQ(person->FindByPk(50), -1);
}

TEST(LiveMutationTest, BatchKeepsAppliedPrefixOnFailure) {
  auto live_or = LiveS4System::Create(MakeTinyDb());
  ASSERT_TRUE(live_or.ok());
  LiveS4System& live = **live_or;

  // [good insert, bad delete, never-reached insert]: the prefix
  // publishes, the tail does not.
  auto r = live.Apply(
      {Mutation::Insert(
           "Person", {Value::Int(60), Value::Text("tangerine"), Value::Null()}),
       Mutation::Delete("Person", 9999),
       Mutation::Insert(
           "Person", {Value::Int(61), Value::Text("umbra"), Value::Null()})});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->applied, 1);
  EXPECT_EQ(r->epoch, 1u);
  EXPECT_FALSE(r->error.empty());
  EXPECT_FALSE(r->interrupted);
  EXPECT_GT(BestScore(live, {{"tangerine"}}), 0.0);
  EXPECT_EQ(BestScore(live, {{"umbra"}}), 0.0);
  EXPECT_EQ(live.db().FindTable("Person")->FindByPk(61), -1);
}

TEST(LiveMutationTest, ErrorsAreTypedAndPublishNothing) {
  auto live_or = LiveS4System::Create(MakeTinyDb());
  ASSERT_TRUE(live_or.ok());
  LiveS4System& live = **live_or;

  // Each failing-first-op batch returns a status and leaves the epoch
  // untouched.
  EXPECT_FALSE(live.Apply({Mutation::Delete("Nope", 1)}).ok());
  EXPECT_FALSE(live.Apply({Mutation::Delete("Person", 777)}).ok());
  EXPECT_FALSE(
      live.Apply({Mutation::Update("Person", 1, "Nope", Value::Null())})
          .ok());
  // The pk column is a row's identity; rewriting it is rejected.
  EXPECT_FALSE(
      live.Apply({Mutation::Update("Person", 1, "Id", Value::Int(9))}).ok());
  // Type mismatch: text into an INT64 column.
  EXPECT_FALSE(
      live.Apply(
              {Mutation::Update("Person", 1, "CountryId", Value::Text("x"))})
          .ok());
  EXPECT_EQ(live.epoch(), 0u);

  // A pre-cancelled token applies nothing.
  StopToken stop;
  stop.Cancel();
  auto cancelled = live.Apply(
      {Mutation::Delete("Person", 1)}, &stop);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(live.epoch(), 0u);
  EXPECT_GE(live.db().FindTable("Person")->FindByPk(1), 0);
}

TEST(LiveMutationTest, MidBatchCancellationKeepsConsistentPrefix) {
  auto live_or = LiveS4System::Create(MakeTinyDb());
  ASSERT_TRUE(live_or.ok());
  LiveS4System& live = **live_or;

  std::vector<Mutation> batch;
  for (int i = 0; i < 400; ++i) {
    batch.push_back(Mutation::Insert(
        "Person",
        {Value::Int(1000 + i), Value::Text(StrFormat("bulk%d", i)),
         Value::Null()}));
  }
  StopToken stop;
  std::thread canceller([&stop] {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    stop.Cancel();
  });
  auto r = live.Apply(batch, &stop);
  canceller.join();

  // Whether the stop landed before the first op, mid-batch, or after
  // the last, the published state must equal a from-scratch rebuild of
  // the master — the applied prefix is a consistent database.
  int64_t applied = 0;
  if (r.ok()) {
    applied = r->applied;
    EXPECT_TRUE(r->interrupted || applied == 400);
  } else {
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(live.db().FindTable("Person")->NumRows(), 3 + applied);
  auto rebuilt = S4System::Create(live.db());
  ASSERT_TRUE(rebuilt.ok());
  const Cells cells = {{"bulk7", "Canada"}};
  auto ref = (*rebuilt)->Search(cells, SmallOptions());
  auto got = live.current()->Search(cells, SmallOptions());
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(got.ok());
  ExpectBitIdentical(*ref, *got, "post-cancel prefix");
}

// ---------------------------------------------------------------------
// Rebuild-equivalence differential suite (the acceptance bar).
// ---------------------------------------------------------------------

class LiveRebuildDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LiveRebuildDifferentialTest, EpochsMatchFromScratchRebuilds) {
  const uint64_t seed = GetParam();
  datagen::RandomSchemaOptions opts;
  opts.seed = seed;
  opts.num_tables = 3 + static_cast<int32_t>(seed % 3);
  opts.max_rows = 12;
  auto db = datagen::MakeRandomSchema(opts);
  ASSERT_TRUE(db.ok()) << db.status();
  auto live_or = LiveS4System::Create(std::move(*db));
  ASSERT_TRUE(live_or.ok()) << live_or.status();
  LiveS4System& live = **live_or;

  Rng rng(seed * 977 + 3);
  const Cells cells = RandomCells(rng, opts.vocab_size);
  const SearchOptions base = SmallOptions();

  // Epoch 0 stays pinned (and must stay bit-stable) across every
  // mutation below.
  auto epoch0 = live.current();
  auto epoch0_before = epoch0->Search(cells, base);
  ASSERT_TRUE(epoch0_before.ok()) << epoch0_before.status();

  int64_t next_pk = 100000;
  for (int round = 0; round < 3; ++round) {
    std::vector<Mutation> batch;
    const int n = 1 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < n; ++i) {
      batch.push_back(RandomOp(rng, live.db(), &next_pk, opts.vocab_size));
    }
    auto applied = live.Apply(batch);
    ASSERT_TRUE(applied.ok()) << applied.status();
    ASSERT_GE(applied->applied, 1);
    EXPECT_EQ(applied->epoch, live.epoch());

    // From-scratch rebuild over the mutated master vs the published
    // epoch: every strategy, thread count, and shard slice.
    auto rebuilt = S4System::Create(live.db());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    auto pinned = live.current();
    const std::string tag =
        StrFormat(" seed=%llu round=%d", static_cast<unsigned long long>(seed),
                  round);
    for (S4System::Strategy strategy : kStrategies) {
      for (int32_t threads : {1, 4}) {
        SearchOptions options = base;
        options.num_threads = threads;
        auto ref = (*rebuilt)->Search(cells, options, strategy);
        auto got = pinned->Search(cells, options, strategy);
        ASSERT_TRUE(ref.ok()) << ref.status();
        ASSERT_TRUE(got.ok()) << got.status();
        ExpectBitIdentical(
            *ref, *got,
            StrFormat("strategy=%d T=%d", static_cast<int>(strategy),
                      threads) +
                tag);
      }
    }
    for (int32_t shards : {2, 4}) {
      for (int32_t index = 0; index < shards; ++index) {
        SearchOptions options = base;
        options.shard_count = shards;
        options.shard_index = index;
        auto ref = (*rebuilt)->Search(cells, options);
        auto got = pinned->Search(cells, options);
        ASSERT_TRUE(ref.ok()) << ref.status();
        ASSERT_TRUE(got.ok()) << got.status();
        ExpectBitIdentical(
            *ref, *got,
            StrFormat("slice %d/%d", index, shards) + tag);
      }
    }
  }

  // Old epochs are immutable: the pinned epoch-0 handle answers exactly
  // as it did before any mutation existed.
  auto epoch0_after = epoch0->Search(cells, base);
  ASSERT_TRUE(epoch0_after.ok());
  ExpectBitIdentical(*epoch0_before, *epoch0_after, "pinned epoch 0");
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiveRebuildDifferentialTest,
                         ::testing::Range<uint64_t>(1, 7));

// ---------------------------------------------------------------------
// Per-relation cache invalidation at the service layer (the
// InvalidateSharedCache satellite).
// ---------------------------------------------------------------------

// Two disconnected schema components: the Figure-1 database (deep
// enough that searches demonstrably populate the cross-query sub-PJ
// cache) plus an unreachable Maker/Product pair. Mutations in one
// component cannot touch any candidate tree of the other, so its
// cached sub-PJs must keep hitting.
Database MakeTwoComponentDb() {
  auto tpch = datagen::MakeTpchMini();
  if (!tpch.ok()) abort();
  Database db = std::move(*tpch);
  Table* maker = db.AddTable("Maker").value();
  (void)maker->AddColumn("Id", ColumnType::kInt64);
  (void)maker->AddColumn("Name", ColumnType::kText);
  (void)maker->SetPrimaryKey(0);
  (void)maker->AppendRow({Value::Int(1), Value::Text("Acme")});
  Table* product = db.AddTable("Product").value();
  (void)product->AddColumn("Id", ColumnType::kInt64);
  (void)product->AddColumn("Name", ColumnType::kText);
  (void)product->AddColumn("MakerId", ColumnType::kInt64);
  (void)product->SetPrimaryKey(0);
  (void)product->AppendRow(
      {Value::Int(1), Value::Text("Blender"), Value::Int(1)});
  if (!db.AddForeignKey("Product", "MakerId", "Maker").ok()) abort();
  if (!db.Finalize().ok()) abort();
  return db;
}

TEST(LiveServiceCacheTest, UnrelatedRelationEntriesSurviveMutation) {
  auto live_or = LiveS4System::Create(MakeTwoComponentDb());
  ASSERT_TRUE(live_or.ok()) << live_or.status();
  LiveS4System& live = **live_or;
  ServiceOptions sopts;
  sopts.num_workers = 1;
  S4Service service(live, sopts);

  // The Figure 2(a) sheet matches only tpch-component terms; its
  // candidate trees never reach Maker/Product.
  SearchOptions options;
  options.k = 5;
  options.num_threads = 2;
  auto search = [&] {
    ServiceRequest req;
    req.cells = {{"Rick", "USA", "Xbox"},
                 {"Julie", "", "iPhone"},
                 {"Kevin", "Canada", ""}};
    req.options = options;
    return service.Search(std::move(req));
  };

  auto first = search();
  ASSERT_TRUE(first.ok()) << first.status();
  const int64_t hits1 = service.stats().shared_cache.hits;
  auto second = search();
  ASSERT_TRUE(second.ok());
  ExpectBitIdentical(*first, *second, "warm repeat");
  const int64_t hits2 = service.stats().shared_cache.hits;
  EXPECT_GT(hits2, hits1);  // the cache is demonstrably in play

  // A write to the OTHER component: no generation bump, bytes intact,
  // and the warmed entries keep hitting.
  const uint64_t gen = service.stats().cache_generation;
  const size_t warm_bytes = service.shared_cache().bytes_used();
  ASSERT_GT(warm_bytes, 0u);
  auto mut = service.Mutate({Mutation::Insert(
      "Product", {Value::Int(50), Value::Text("Toaster"), Value::Null()})});
  ASSERT_TRUE(mut.ok()) << mut.status();
  EXPECT_EQ(mut->applied, 1);
  EXPECT_EQ(service.stats().cache_generation, gen);
  EXPECT_EQ(service.shared_cache().bytes_used(), warm_bytes);

  auto third = search();
  ASSERT_TRUE(third.ok());
  ExpectBitIdentical(*first, *third, "post-unrelated-mutation");
  const int64_t hits3 = service.stats().shared_cache.hits;
  EXPECT_GE(hits3 - hits2, hits2 - hits1)
      << "cached sub-PJs of the untouched component stopped hitting";

  // A write to a COVERED relation: stamped keys retire the stale
  // entries, and the answer equals a from-scratch rebuild.
  auto covered = service.Mutate({Mutation::Insert(
      "Customer",
      {Value::Int(70), Value::Text("Rick Vaughn"), Value::Int(2)})});
  ASSERT_TRUE(covered.ok()) << covered.status();
  EXPECT_EQ(service.stats().cache_generation, gen);
  auto fourth = search();
  ASSERT_TRUE(fourth.ok());
  auto rebuilt = S4System::Create(live.db());
  ASSERT_TRUE(rebuilt.ok());
  auto ref = (*rebuilt)->Search({{"Rick", "USA", "Xbox"},
                                 {"Julie", "", "iPhone"},
                                 {"Kevin", "Canada", ""}},
                                options);
  ASSERT_TRUE(ref.ok());
  ExpectBitIdentical(*ref, *fourth, "post-covered-mutation");

  // The blunt instrument still works: one call drops everything.
  service.InvalidateSharedCache();
  EXPECT_EQ(service.stats().cache_generation, gen + 1);
  EXPECT_EQ(service.shared_cache().bytes_used(), 0u);
  auto fifth = search();
  ASSERT_TRUE(fifth.ok());
  ExpectBitIdentical(*ref, *fifth, "post-invalidate-all");
}

// Country <- Person <- Pet, sized so canonical rooting puts the smaller
// relation at the root: Pet's sub-PJ tables are keyed by FK into
// Person (kByFk) and Person's by FK into Country. Sub-PJ table slots
// are numbered by the link's domain relation, so a delete there
// renumbers them without touching the linked relation itself.
Database MakePetDb() {
  Database db;
  Table* country = db.AddTable("Country").value();
  (void)country->AddColumn("Id", ColumnType::kInt64);
  (void)country->AddColumn("Name", ColumnType::kText);
  (void)country->SetPrimaryKey(0);
  const char* countries[] = {"USA", "Canada", "Mexico"};
  for (int64_t i = 0; i < 3; ++i) {
    (void)country->AppendRow({Value::Int(i + 1), Value::Text(countries[i])});
  }
  Table* person = db.AddTable("Person").value();
  (void)person->AddColumn("Id", ColumnType::kInt64);
  (void)person->AddColumn("Name", ColumnType::kText);
  (void)person->AddColumn("CountryId", ColumnType::kInt64);
  (void)person->SetPrimaryKey(0);
  const char* people[] = {"Rick", "Julie", "Kevin", "Maria", "Omar", "Lena"};
  for (int64_t i = 0; i < 6; ++i) {
    (void)person->AppendRow({Value::Int(i + 1), Value::Text(people[i]),
                             Value::Int(1 + i % 3)});
  }
  Table* pet = db.AddTable("Pet").value();
  (void)pet->AddColumn("Id", ColumnType::kInt64);
  (void)pet->AddColumn("Name", ColumnType::kText);
  (void)pet->AddColumn("OwnerId", ColumnType::kInt64);
  (void)pet->SetPrimaryKey(0);
  const char* pets[] = {"Rex",  "Tom",   "Bella", "Max",   "Luna",
                        "Coco", "Rocky", "Daisy", "Simba", "Nala"};
  for (int64_t i = 0; i < 10; ++i) {
    (void)pet->AppendRow({Value::Int(i + 1), Value::Text(pets[i]),
                          Value::Int(1 + (i * 7) % 6)});
  }
  if (!db.AddForeignKey("Person", "CountryId", "Country").ok()) abort();
  if (!db.AddForeignKey("Pet", "OwnerId", "Person").ok()) abort();
  if (!db.Finalize().ok()) abort();
  return db;
}

// Searches one service and a from-scratch S4System over the service's
// current database with the same FASTTOPK options, and requires
// bit-identical answers.
class PetServiceHarness {
 public:
  PetServiceHarness() {
    auto live = LiveS4System::Create(MakePetDb());
    if (!live.ok()) abort();
    live_ = std::move(*live);
    ServiceOptions sopts;
    sopts.num_workers = 1;
    service_ = std::make_unique<S4Service>(*live_, sopts);
    options_.k = 8;
    options_.num_threads = 1;
  }

  S4Service& service() { return *service_; }

  // The service's answer, checked against a fresh rebuild.
  void SearchAndCompare(const std::string& label) {
    ServiceRequest req;
    req.cells = Sheet();
    req.options = options_;
    auto got = service_->Search(std::move(req));
    ASSERT_TRUE(got.ok()) << got.status();
    auto rebuilt = S4System::Create(live_->db());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    auto ref = (*rebuilt)->Search(Sheet(), options_);
    ASSERT_TRUE(ref.ok()) << ref.status();
    ASSERT_FALSE(ref->topk.empty()) << label;
    ExpectBitIdentical(*ref, *got, label);
  }

  void Mutate(Mutation m) {
    auto applied = service_->Mutate({std::move(m)});
    ASSERT_TRUE(applied.ok()) << applied.status();
    ASSERT_EQ(applied->applied, 1);
  }

 private:
  static Cells Sheet() {
    return {{"Rick", "USA", "Rex"}, {"Julie", "Canada", "Tom"},
            {"Omar", "", "Luna"}};
  }

  std::unique_ptr<LiveS4System> live_;
  std::unique_ptr<S4Service> service_;
  SearchOptions options_;
};

// A kByFk table cached in the shared cache is numbered by its target's
// rows. Deleting a row of the target alone (a non-last row, so the
// last one moves into its slot) must retire the table even though the
// table's own relation is untouched.
TEST(LiveServiceCacheTest, ByFkTableRetiresWhenItsTargetRenumbers) {
  PetServiceHarness h;
  h.SearchAndCompare("cold");
  h.SearchAndCompare("warm");
  ASSERT_GT(h.service().stats().shared_cache.hits, 0);
  ASSERT_GT(h.service().shared_cache().bytes_used(), 0u);
  // Deleting Person 2 moves Person 6 into its row and leaves Person 2's
  // pets (2 and 8) dangling.
  h.Mutate(Mutation::Delete("Person", 2));
  h.SearchAndCompare("after deleting a Person row");
  // Same for Country, the target of Person's FK.
  h.Mutate(Mutation::Delete("Country", 1));
  h.SearchAndCompare("after deleting a Country row");
}

// Deleting a referenced row leaves its referrers' FKs dangling, and
// re-inserting a row with that primary key resolves them again. Both
// answers, each searched through warm cached sub-PJs, must equal
// from-scratch rebuilds.
TEST(LiveServiceCacheTest, DanglingFkResolvesOnReinsert) {
  PetServiceHarness h;
  h.SearchAndCompare("cold");
  h.SearchAndCompare("warm");
  ASSERT_GT(h.service().shared_cache().bytes_used(), 0u);
  // Person 1 (Rick) owns pets 1 and 7: their OwnerId now dangles.
  h.Mutate(Mutation::Delete("Person", 1));
  h.SearchAndCompare("dangling");
  h.SearchAndCompare("dangling, warm");
  h.Mutate(Mutation::Insert(
      "Person", {Value::Int(1), Value::Text("Rick"), Value::Int(1)}));
  h.SearchAndCompare("re-inserted");
  h.SearchAndCompare("re-inserted, warm");
}

// ---------------------------------------------------------------------
// Concurrent searches during mutations (tsan suite): every observed
// top-k must equal one epoch-consistent from-scratch rebuild.
// ---------------------------------------------------------------------

TEST(LiveConcurrencyTest, SearchersAlwaysSeeOneConsistentEpoch) {
  datagen::RandomSchemaOptions opts;
  opts.seed = 42;
  opts.num_tables = 3;
  opts.max_rows = 10;
  auto db = datagen::MakeRandomSchema(opts);
  ASSERT_TRUE(db.ok()) << db.status();
  auto live_or = LiveS4System::Create(std::move(*db));
  ASSERT_TRUE(live_or.ok()) << live_or.status();
  LiveS4System& live = **live_or;

  Rng rng(991);
  const Cells cells = RandomCells(rng, opts.vocab_size);
  SearchOptions options = SmallOptions();
  options.enumeration.max_queries = 1500;
  options.num_threads = 2;

  // Pre-generate every writer batch against the initial snapshot; ops
  // invalidated by interleaving simply stop their batch early, which
  // the deterministic replay below reproduces.
  constexpr int kWriters = 2;
  constexpr int kBatchesPerWriter = 3;
  constexpr int kSearchers = 2;
  constexpr int kSearchesEach = 6;
  int64_t next_pk = 500000;
  std::vector<std::vector<std::vector<Mutation>>> plans(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    plans[w].resize(kBatchesPerWriter);
    for (int b = 0; b < kBatchesPerWriter; ++b) {
      const int n = 1 + static_cast<int>(rng.Uniform(2));
      for (int i = 0; i < n; ++i) {
        plans[w][b].push_back(
            RandomOp(rng, live.db(), &next_pk, opts.vocab_size));
      }
    }
  }

  // The interleaving itself. Writers record (epoch, plan slot) of each
  // published batch; searchers record result fingerprints, checking
  // pinned-epoch self-consistency as they go.
  struct AppliedBatch {
    uint64_t epoch;
    int writer;
    int batch;
    int64_t applied;
  };
  std::mutex record_mu;
  std::vector<AppliedBatch> applied_order;
  std::vector<std::string> observed;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        auto r = live.Apply(plans[w][b]);
        if (r.ok()) {
          std::lock_guard<std::mutex> lock(record_mu);
          applied_order.push_back({r->epoch, w, b, r->applied});
        }
        std::this_thread::yield();
      }
    });
  }
  for (int s = 0; s < kSearchers; ++s) {
    threads.emplace_back([&] {
      for (int i = 0; i < kSearchesEach; ++i) {
        auto pinned = live.current();
        auto a = pinned->Search(cells, options);
        auto b = pinned->Search(cells, options);
        if (!a.ok() || !b.ok()) {
          ADD_FAILURE() << "search failed mid-interleaving";
          return;
        }
        EXPECT_EQ(ResultKey(*a), ResultKey(*b))
            << "same pinned epoch answered differently";
        std::lock_guard<std::mutex> lock(record_mu);
        observed.push_back(ResultKey(*a));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Replay the recorded apply order on an identical fresh master and
  // collect the reference fingerprint of every epoch along the way.
  std::sort(applied_order.begin(), applied_order.end(),
            [](const AppliedBatch& a, const AppliedBatch& b) {
              return a.epoch < b.epoch;
            });
  auto db2 = datagen::MakeRandomSchema(opts);
  ASSERT_TRUE(db2.ok());
  auto replay_or = LiveS4System::Create(std::move(*db2));
  ASSERT_TRUE(replay_or.ok());
  LiveS4System& replay = **replay_or;
  std::unordered_set<std::string> epoch_keys;
  {
    auto ref = S4System::Create(replay.db());
    ASSERT_TRUE(ref.ok());
    auto r = (*ref)->Search(cells, options);
    ASSERT_TRUE(r.ok());
    epoch_keys.insert(ResultKey(*r));
  }
  for (const AppliedBatch& ab : applied_order) {
    auto r = replay.Apply(plans[ab.writer][ab.batch]);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->epoch, ab.epoch) << "replay diverged from the live order";
    ASSERT_EQ(r->applied, ab.applied);
    auto ref = S4System::Create(replay.db());
    ASSERT_TRUE(ref.ok());
    auto res = (*ref)->Search(cells, options);
    ASSERT_TRUE(res.ok());
    epoch_keys.insert(ResultKey(*res));
  }

  ASSERT_EQ(observed.size(),
            static_cast<size_t>(kSearchers * kSearchesEach));
  for (size_t i = 0; i < observed.size(); ++i) {
    EXPECT_TRUE(epoch_keys.count(observed[i]) > 0)
        << "search " << i
        << " returned a top-k matching no epoch-consistent rebuild";
  }
}

// ---------------------------------------------------------------------
// Wire write path end to end: a real server over a live system.
// ---------------------------------------------------------------------

struct LiveServerHarness {
  std::unique_ptr<LiveS4System> live;
  std::unique_ptr<S4Service> service;
  std::unique_ptr<net::S4Server> server;

  LiveServerHarness() {
    auto l = LiveS4System::Create(MakeTinyDb());
    if (!l.ok()) abort();
    live = std::move(*l);
    ServiceOptions sopts;
    sopts.num_workers = 2;
    sopts.max_queue = 32;
    service = std::make_unique<S4Service>(*live, sopts);
    server = std::make_unique<net::S4Server>(service.get());
    if (!server->Start().ok()) abort();
  }

  net::S4Client MakeClient() const {
    net::ClientOptions copts;
    copts.port = server->port();
    copts.request_timeout_seconds = 60.0;
    return net::S4Client(copts);
  }
};

TEST(LiveNetTest, MutateRoundTripOverWire) {
  LiveServerHarness h;
  net::S4Client client = h.MakeClient();

  uint64_t request_id = 0;
  auto mut = client.Mutate(
      {Mutation::Insert(
          "Person", {Value::Int(100), Value::Text("zyxwv"), Value::Int(1)})},
      &request_id);
  ASSERT_TRUE(mut.ok()) << mut.status();
  EXPECT_EQ(mut->applied, 1);
  EXPECT_EQ(mut->epoch, 1u);
  EXPECT_TRUE(mut->error.empty());
  ASSERT_EQ(mut->touched.size(), 1u);
  EXPECT_EQ(mut->touched[0], h.live->db().FindTable("Person")->id());
  EXPECT_GT(mut->server_seconds, 0.0);
  EXPECT_GT(request_id, 0u);
  EXPECT_EQ(h.server->counters().mutate_requests.load(), 1);

  // The write is visible to a search on the same connection, and the
  // served answer is bit-identical to an in-process pinned search.
  SearchOptions options = SmallOptions();
  options.num_threads = 2;
  const Cells cells = {{"zyxwv", "USA"}};
  auto served = client.Search(net::NetSearchRequest::From(
      cells, options, S4System::Strategy::kFastTopK));
  ASSERT_TRUE(served.ok()) << served.status();
  ASSERT_FALSE(served->topk.empty());
  auto local = h.live->current()->Search(cells, options);
  ASSERT_TRUE(local.ok());
  ASSERT_EQ(served->topk.size(), local->topk.size());
  for (size_t i = 0; i < served->topk.size(); ++i) {
    EXPECT_EQ(served->topk[i].signature, local->topk[i].query.signature());
    EXPECT_EQ(served->topk[i].score, local->topk[i].score);
  }

  auto del = client.Mutate({Mutation::Delete("Person", 100)});
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->applied, 1);
  EXPECT_EQ(del->epoch, 2u);
  auto gone = client.Search(net::NetSearchRequest::From(
      cells, options, S4System::Strategy::kFastTopK));
  ASSERT_TRUE(gone.ok());
  for (const net::NetTopkEntry& e : gone->topk) {
    EXPECT_EQ(e.sql.find("zyxwv"), std::string::npos);
  }
}

TEST(LiveNetTest, PartialBatchAndTypedFailuresOverWire) {
  LiveServerHarness h;
  net::S4Client client = h.MakeClient();

  // Mid-batch failure: still a kMutateResponse, carrying the applied
  // prefix and the first error.
  auto partial = client.Mutate(
      {Mutation::Insert(
           "Person", {Value::Int(200), Value::Text("prefix"), Value::Null()}),
       Mutation::Delete("Person", 31337)});
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_EQ(partial->applied, 1);
  EXPECT_FALSE(partial->error.empty());
  EXPECT_FALSE(partial->interrupted);

  // First-op failure: a typed error frame, and the connection survives
  // for the next request.
  auto bad = client.Mutate({Mutation::Delete("NoSuchTable", 1)});
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(client.Ping().ok());
  auto after = client.Mutate({Mutation::Delete("Person", 200)});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->applied, 1);
}

TEST(LiveNetTest, ImmutableServerRejectsWritesWithTypedError) {
  // A service over a static S4System: the default dispatcher answers
  // kMutateRequest with FailedPrecondition instead of dropping the
  // stream.
  static Database* db = new Database(MakeTinyDb());
  auto system = S4System::Create(*db);
  ASSERT_TRUE(system.ok());
  ServiceOptions sopts;
  sopts.num_workers = 1;
  S4Service service(**system, sopts);
  net::S4Server server(&service);
  ASSERT_TRUE(server.Start().ok());
  net::ClientOptions copts;
  copts.port = server.port();
  net::S4Client client(copts);

  auto mut = client.Mutate({Mutation::Delete("Person", 1)});
  ASSERT_FALSE(mut.ok());
  EXPECT_EQ(mut.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
}

// ---------------------------------------------------------------------
// Scatter-gather write broadcast.
// ---------------------------------------------------------------------

struct LiveDistHarness {
  std::vector<std::unique_ptr<LiveS4System>> lives;
  std::vector<std::unique_ptr<S4Service>> services;
  std::vector<std::unique_ptr<net::S4Server>> servers;
  std::unique_ptr<dist::S4Coordinator> coordinator;

  explicit LiveDistHarness(int32_t shard_count) {
    dist::CoordinatorOptions copts;
    for (int32_t i = 0; i < shard_count; ++i) {
      auto live = LiveS4System::Create(MakeTinyDb());
      if (!live.ok()) abort();
      lives.push_back(std::move(*live));
      ServiceOptions sopts;
      sopts.num_workers = 2;
      sopts.max_queue = 32;
      sopts.shard_count = shard_count;
      sopts.shard_index = i;
      services.push_back(
          std::make_unique<S4Service>(*lives.back(), sopts));
      servers.push_back(
          std::make_unique<net::S4Server>(services.back().get()));
      if (!servers.back()->Start().ok()) abort();
      copts.shards.push_back({"127.0.0.1", servers.back()->port()});
    }
    coordinator = std::make_unique<dist::S4Coordinator>(std::move(copts));
  }
};

TEST(LiveDistTest, MutateBroadcastReachesEveryShard) {
  LiveDistHarness h(2);

  auto result = h.coordinator->Mutate(
      {Mutation::Insert(
          "Person", {Value::Int(300), Value::Text("glimmer"), Value::Int(2)})});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->complete);
  EXPECT_EQ(result->applied, 1);
  EXPECT_TRUE(result->diverged_shards.empty());
  ASSERT_EQ(result->shards.size(), 2u);
  for (const dist::DistShardMutate& s : result->shards) {
    EXPECT_TRUE(s.reached) << s.error;
    EXPECT_EQ(s.response.applied, 1);
    EXPECT_EQ(s.response.epoch, 1u);
  }
  // Identical apply order -> identical epochs on every shard.
  for (const auto& live : h.lives) EXPECT_EQ(live->epoch(), 1u);

  // A scatter-gather search merged over the mutated shards equals a
  // single-node rebuild of the mutated database.
  SearchOptions options = SmallOptions();
  options.num_threads = 2;
  const Cells cells = {{"glimmer", "Canada"}};
  auto dist_result = h.coordinator->Search(net::NetSearchRequest::From(
      cells, options, S4System::Strategy::kFastTopK));
  ASSERT_TRUE(dist_result.ok()) << dist_result.status();
  EXPECT_TRUE(dist_result->complete);
  auto rebuilt = S4System::Create(h.lives[0]->db());
  ASSERT_TRUE(rebuilt.ok());
  auto ref = (*rebuilt)->Search(cells, options);
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(ref->topk.size(), dist_result->topk.size());
  ASSERT_FALSE(dist_result->topk.empty());
  for (size_t i = 0; i < ref->topk.size(); ++i) {
    EXPECT_EQ(dist_result->topk[i].signature,
              ref->topk[i].query.signature());
    EXPECT_EQ(dist_result->topk[i].score, ref->topk[i].score);
  }

  // Degenerate batches are coordinator-level errors, not broadcasts.
  EXPECT_FALSE(h.coordinator->Mutate({}).ok());
}

}  // namespace
}  // namespace s4
