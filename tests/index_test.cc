// Index layer tests: inverted indexes, the (key, fk) snapshot, cell
// lengths, and Table-1 style size accounting.
#include <gtest/gtest.h>

#include "index/index_set.h"
#include "index/kfk_snapshot.h"
#include "storage/database.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

using testing::TpchDb;
using testing::TpchIndex;

int32_t Gid(const std::string& table, const std::string& column) {
  const Table* t = TpchDb().FindTable(table);
  return TpchIndex().column_ids().Gid(
      ColumnRef{t->id(), t->ColumnIndex(column)});
}

TEST(ColumnIdsTest, RoundTrip) {
  const ColumnIds& ids = TpchIndex().column_ids();
  for (TableId t = 0; t < TpchDb().NumTables(); ++t) {
    for (int32_t c = 0; c < TpchDb().table(t).NumColumns(); ++c) {
      ColumnRef ref{t, c};
      EXPECT_EQ(ids.FromGid(ids.Gid(ref)), ref);
    }
  }
  EXPECT_EQ(ids.NumColumns(), 19);  // 7 tables, 19 columns total
}

TEST(ColumnIndexTest, TermToColumns) {
  const IndexSet& index = TpchIndex();
  TermId kevin = index.dict().Lookup("kevin");
  ASSERT_NE(kevin, kInvalidTermId);
  const std::vector<int32_t>* cols = index.column_index().Find(kevin);
  ASSERT_NE(cols, nullptr);
  // 'kevin' appears in Customer.CustName, Orders.Clerk, Supplier.SuppName.
  std::set<int32_t> got(cols->begin(), cols->end());
  EXPECT_EQ(got, (std::set<int32_t>{Gid("Customer", "CustName"),
                                    Gid("Orders", "Clerk"),
                                    Gid("Supplier", "SuppName")}));
  EXPECT_EQ(index.column_index().Find(kInvalidTermId), nullptr);
}

TEST(RowIndexTest, PostingsWithFrequencies) {
  const IndexSet& index = TpchIndex();
  TermId usa = index.dict().Lookup("usa");
  ASSERT_NE(usa, kInvalidTermId);
  const std::vector<Posting>* plist =
      index.row_index().Find(usa, Gid("Nation", "NatName"));
  ASSERT_NE(plist, nullptr);
  ASSERT_EQ(plist->size(), 1u);
  EXPECT_EQ((*plist)[0].row, 0);  // first Nation row
  EXPECT_EQ((*plist)[0].tf, 1);
  EXPECT_EQ(index.row_index().PostingLength(usa, Gid("Part", "PartName")),
            0);
}

TEST(KfkSnapshotTest, KeysMatchTables) {
  const IndexSet& index = TpchIndex();
  const KfkSnapshot& snap = index.snapshot();
  const Table* li = TpchDb().FindTable("LineItem");
  EXPECT_EQ(snap.NumRows(li->id()), li->NumRows());
  EXPECT_EQ(snap.Pk(li->id()), li->IntColumn(li->primary_key_column()));
}

TEST(KfkSnapshotTest, FkArraysAligned) {
  const IndexSet& index = TpchIndex();
  const KfkSnapshot& snap = index.snapshot();
  const auto& fks = TpchDb().foreign_keys();
  for (size_t e = 0; e < fks.size(); ++e) {
    const Table& src = TpchDb().table(fks[e].src_table);
    const Table& dst = TpchDb().table(fks[e].dst_table);
    const std::vector<int32_t>& rows = snap.FkRow(static_cast<int32_t>(e));
    ASSERT_EQ(rows.size(), static_cast<size_t>(src.NumRows()));
    for (int64_t r = 0; r < src.NumRows(); ++r) {
      ASSERT_GE(rows[r], 0);
      EXPECT_EQ(rows[r], dst.FindByPk(src.GetInt(r, fks[e].src_column)));
    }
  }
}

// FK row-id columns resolve through both pk -> row lookups: the offset
// arithmetic for consecutive keys and the hash map otherwise. NULL and
// dangling values resolve to -1.
TEST(KfkSnapshotTest, FkRowsResolveConsecutiveAndScatteredKeys) {
  for (const std::vector<int64_t>& pks :
       {std::vector<int64_t>{5, 6, 7}, std::vector<int64_t>{10, 3, 7}}) {
    Database db;
    Table* parent = db.AddTable("Parent").value();
    ASSERT_TRUE(parent->AddColumn("Id", ColumnType::kInt64).ok());
    ASSERT_TRUE(parent->SetPrimaryKey(0).ok());
    for (int64_t pk : pks) {
      ASSERT_TRUE(parent->AppendRow({Value::Int(pk)}).ok());
    }
    Table* child = db.AddTable("Child").value();
    ASSERT_TRUE(child->AddColumn("Id", ColumnType::kInt64).ok());
    ASSERT_TRUE(child->AddColumn("ParentId", ColumnType::kInt64).ok());
    ASSERT_TRUE(child->SetPrimaryKey(0).ok());
    const std::vector<Value> fks = {Value::Int(pks[2]), Value::Int(pks[1]),
                                    Value::Null(), Value::Int(99),
                                    Value::Int(4), Value::Int(pks[0])};
    for (size_t i = 0; i < fks.size(); ++i) {
      ASSERT_TRUE(
          child->AppendRow({Value::Int(static_cast<int64_t>(i)), fks[i]}).ok());
    }
    ASSERT_TRUE(db.AddForeignKey("Child", "ParentId", "Parent").ok());
    ASSERT_TRUE(db.Finalize(/*check_integrity=*/false).ok());
    auto snap = KfkSnapshot::Build(db);
    ASSERT_TRUE(snap.ok()) << snap.status();
    EXPECT_EQ(snap->FkRow(0), (std::vector<int32_t>{2, 1, -1, -1, -1, 0}));
    const KfkSnapshot::ReverseFkIndex& rev = snap->ReverseFkOf(0);
    for (int64_t r = 0; r < 3; ++r) {
      auto [lo, hi] = rev.RowsFor(r);
      ASSERT_EQ(hi - lo, 1) << r;
      EXPECT_EQ(snap->FkRow(0)[*lo], r);
    }
  }
}

TEST(IndexSetTest, CellLengths) {
  const IndexSet& index = TpchIndex();
  const std::vector<uint16_t>* lengths =
      index.CellLengths(Gid("Part", "PartName"));
  ASSERT_NE(lengths, nullptr);
  EXPECT_EQ((*lengths)[0], 2);  // "Xbox One"
  EXPECT_EQ((*lengths)[1], 2);  // "iPhone 6"
  // Key columns have no lengths.
  EXPECT_EQ(index.CellLengths(Gid("Part", "PartId")), nullptr);
}

TEST(IndexSetTest, StatsReport) {
  IndexStats stats = TpchIndex().stats();
  EXPECT_EQ(stats.num_tokens, 20);
  EXPECT_GT(stats.num_postings, 0);
  EXPECT_GT(stats.inverted_index_bytes, 0u);
  EXPECT_GT(stats.kfk_snapshot_bytes, 0u);
}

TEST(IndexSetTest, RequiresFinalizedDatabase) {
  Database db;
  auto t = db.AddTable("T");
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE((*t)->AddColumn("Id", ColumnType::kInt64).ok());
  ASSERT_TRUE((*t)->SetPrimaryKey(0).ok());
  EXPECT_FALSE(IndexSet::Build(db).ok());  // not finalized
}

TEST(IndexSetTest, NGramIndexBuilds) {
  IndexBuildOptions opts;
  opts.tokenizer.mode = TokenizerMode::kNGram;
  auto index = IndexSet::Build(TpchDb(), opts);
  ASSERT_TRUE(index.ok());
  // The 3-gram "xbo" from "xbox" must be indexed.
  TermId g = (*index)->dict().Lookup("xbo");
  EXPECT_NE(g, kInvalidTermId);
}

}  // namespace
}  // namespace s4
