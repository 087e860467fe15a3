#include "index/kfk_snapshot.h"

#include <limits>

namespace s4 {

StatusOr<std::shared_ptr<const KfkSnapshot::TableKeys>>
KfkSnapshot::BuildTable(const Table& table) {
  auto keys = std::make_shared<TableKeys>();
  keys->pk = table.IntColumn(table.primary_key_column());
  // Dense row ids are stored as int32 in the FK columns (and as uint32
  // in sub-PJ table slots), which bounds an in-memory relation at
  // ~2.1e9 rows.
  const std::vector<int64_t>& pks = keys->pk;
  if (pks.size() > static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    return Status::InvalidArgument(
        "table too large for the in-memory kfk snapshot");
  }
  // Consecutive keys (in wrapping uint64 arithmetic) need no map.
  const uint64_t base = pks.empty() ? 0 : static_cast<uint64_t>(pks[0]);
  bool consecutive = true;
  for (size_t r = 1; r < pks.size() && consecutive; ++r) {
    consecutive = static_cast<uint64_t>(pks[r]) - base == r;
  }
  if (!consecutive) {
    keys->pk_row.Reserve(pks.size());
    bool inserted = false;
    for (size_t r = 0; r < pks.size(); ++r) {
      keys->pk_row.FindOrInsert(pks[r], static_cast<uint32_t>(r), &inserted);
    }
  }
  return std::shared_ptr<const TableKeys>(std::move(keys));
}

std::shared_ptr<const KfkSnapshot::FkKeys> KfkSnapshot::BuildFk(
    const Database& db, const ForeignKeyDef& fk, const TableKeys& target) {
  auto keys = std::make_shared<FkKeys>();
  keys->target = fk.dst_table;
  const Table& src = db.table(fk.src_table);
  const std::vector<int64_t>& values = src.IntColumn(fk.src_column);
  keys->row.assign(static_cast<size_t>(src.NumRows()), -1);
  for (int64_t r = 0; r < src.NumRows(); ++r) {
    if (src.IsNull(r, fk.src_column)) continue;
    keys->row[static_cast<size_t>(r)] =
        static_cast<int32_t>(target.RowOf(values[static_cast<size_t>(r)]));
  }
  return keys;
}

StatusOr<KfkSnapshot> KfkSnapshot::Build(const Database& db) {
  if (!db.finalized()) {
    return Status::FailedPrecondition("database must be finalized");
  }
  return KfkSnapshot().Rebuilt(db, std::vector<bool>(db.NumTables(), true),
                               {});
}

StatusOr<KfkSnapshot> KfkSnapshot::Rebuilt(
    const Database& db, const std::vector<bool>& dirty_tables,
    const std::vector<bool>& dirty_fks) const {
  auto dirty_table = [&](TableId t) {
    return static_cast<size_t>(t) < dirty_tables.size() && dirty_tables[t];
  };
  KfkSnapshot snap;
  snap.tables_.reserve(static_cast<size_t>(db.NumTables()));
  for (TableId t = 0; t < db.NumTables(); ++t) {
    if (!dirty_table(t)) {
      snap.tables_.push_back(tables_[t]);
      continue;
    }
    auto keys = BuildTable(db.table(t));
    if (!keys.ok()) return keys.status();
    snap.tables_.push_back(std::move(keys).value());
  }
  snap.fks_.reserve(db.foreign_keys().size());
  for (size_t i = 0; i < db.foreign_keys().size(); ++i) {
    const ForeignKeyDef& fk = db.foreign_keys()[i];
    const bool dirty = (i < dirty_fks.size() && dirty_fks[i]) ||
                       dirty_table(fk.src_table) || dirty_table(fk.dst_table);
    snap.fks_.push_back(dirty ? BuildFk(db, fk, *snap.tables_[fk.dst_table])
                              : fks_[i]);
  }
  return snap;
}

const KfkSnapshot::ReverseFkIndex& KfkSnapshot::ReverseFkOf(
    int32_t fk_index) const {
  const FkKeys& keys = *fks_[fk_index];
  const size_t target_rows = tables_[keys.target]->pk.size();
  std::call_once(keys.reverse_once, [&keys, target_rows] {
    // Counting sort by target row: a stable scatter keeps each group's
    // source rows ascending.
    ReverseFkIndex& rev = keys.reverse;
    rev.offsets.assign(target_rows + 1, 0);
    for (int32_t t : keys.row) {
      if (t >= 0) ++rev.offsets[static_cast<size_t>(t) + 1];
    }
    for (size_t r = 0; r < target_rows; ++r) {
      rev.offsets[r + 1] += rev.offsets[r];
    }
    rev.rows.resize(rev.offsets[target_rows]);
    std::vector<uint32_t> next(rev.offsets.begin(), rev.offsets.end() - 1);
    for (size_t r = 0; r < keys.row.size(); ++r) {
      const int32_t t = keys.row[r];
      if (t < 0) continue;
      rev.rows[next[static_cast<size_t>(t)]++] = static_cast<uint32_t>(r);
    }
  });
  return keys.reverse;
}

size_t KfkSnapshot::ByteSize() const {
  size_t bytes = 0;
  for (const auto& t : tables_) {
    bytes += t->pk.capacity() * sizeof(int64_t) + t->pk_row.ByteSize();
  }
  for (const auto& f : fks_) bytes += f->row.capacity() * sizeof(int32_t);
  return bytes;
}

}  // namespace s4
