#ifndef S4_INDEX_KFK_SNAPSHOT_H_
#define S4_INDEX_KFK_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "cache/flat_table.h"
#include "common/status.h"
#include "storage/database.h"

namespace s4 {

// In-memory (key, foreign key) snapshot of the database (Sec 3.1): for
// every relation, its primary-key column, and for every foreign key, the
// dense row id of the referenced row. PJ queries execute without
// touching the (conceptually on-disk) base tables: Stage II follows an
// FK by indexing the target's row-numbered sub-PJ table with this
// column (Appendix B.1's hash join with the hashing resolved once per
// epoch).
//
// Each relation's arrays sit behind a shared_ptr so mutation epochs are
// cheap: Rebuilt() copies the per-relation pointer vector and rebuilds
// only the dirty relations' arrays from the (already mutated) database —
// bit-identical to a from-scratch Build by construction, with untouched
// relations shared across epochs.
class KfkSnapshot {
 public:
  // Per-table primary-key array plus the pk -> dense-row lookup the FK
  // row-id columns are resolved through.
  struct TableKeys {
    std::vector<int64_t> pk;
    // Built only when the keys are not consecutive. Generated and bulk-
    // loaded relations usually number their keys pk[0], pk[0] + 1, ...,
    // and then a key's row is its offset from pk[0].
    FlatMap64 pk_row;

    // Dense row of the row whose primary key is `key`, or -1.
    int64_t RowOf(int64_t key) const {
      if (pk_row.empty()) {
        if (pk.empty()) return -1;
        // Offsets wrap like the consecutiveness check in BuildTable.
        const uint64_t r =
            static_cast<uint64_t>(key) - static_cast<uint64_t>(pk[0]);
        return r < pk.size() ? static_cast<int64_t>(r) : -1;
      }
      const uint32_t row = pk_row.Find(key);
      return row == FlatMap64::kNotFound ? -1 : static_cast<int64_t>(row);
    }
  };
  // Reverse of one FK column in CSR form: the source rows referencing
  // target row r are rows[offsets[r] .. offsets[r + 1]), ascending.
  struct ReverseFkIndex {
    std::vector<uint32_t> offsets;  // target rows + 1 entries
    std::vector<uint32_t> rows;

    // Referring rows of target row `target_row`, ascending; an empty
    // span when nothing points at it.
    std::pair<const uint32_t*, const uint32_t*> RowsFor(
        int64_t target_row) const {
      const size_t r = static_cast<size_t>(target_row);
      return {rows.data() + offsets[r], rows.data() + offsets[r + 1]};
    }
  };

  // One foreign key resolved to row ids: for every source row, the
  // dense row id of the target row it references, or -1 when the FK is
  // NULL or dangling.
  struct FkKeys {
    TableId target = kInvalidTableId;
    std::vector<int32_t> row;
    // Reverse index, built lazily on first ReverseFkOf call (the
    // forward-only evaluator never pays for it) and shared across
    // epochs for unchanged relations along with the rest of the FkKeys.
    mutable std::once_flag reverse_once;
    mutable ReverseFkIndex reverse;
  };

  // Builds the snapshot; `db` must be finalized and must outlive it.
  static StatusOr<KfkSnapshot> Build(const Database& db);

  // A copy sharing every relation's arrays except the dirty ones, which
  // are rebuilt from `db` (whose mutated state must match what the
  // caller wants this epoch to see). `dirty_tables` is indexed by
  // TableId and flags relations whose row set changed; `dirty_fks`, by
  // foreign-key index, flags FK columns whose values changed in place.
  // An FK column is also rebuilt when either end's relation is dirty:
  // deletes renumber rows, and inserts can resolve a dangling value.
  // Short vectors read as clean.
  StatusOr<KfkSnapshot> Rebuilt(const Database& db,
                                const std::vector<bool>& dirty_tables,
                                const std::vector<bool>& dirty_fks) const;

  int64_t NumRows(TableId t) const {
    return static_cast<int64_t>(tables_[t]->pk.size());
  }
  // Primary keys of table `t`, aligned with dense row ids.
  const std::vector<int64_t>& Pk(TableId t) const { return tables_[t]->pk; }

  // Target row ids of foreign key `fk_index` (index into
  // db.foreign_keys(), equal to the SchemaEdgeId), aligned with rows of
  // the source table; -1 marks a NULL or dangling FK.
  const std::vector<int32_t>& FkRow(int32_t fk_index) const {
    return fks_[fk_index]->row;
  }

  // Reverse index of foreign key `fk_index` (target row -> the source
  // rows referencing it). Built lazily under a once-flag — thread-safe
  // against concurrent searches — and only by the callers that walk
  // joins child-ward (the approximate sampler, best-row output, ES
  // generation); its bytes are therefore not part of ByteSize()'s
  // Table-1 accounting.
  const ReverseFkIndex& ReverseFkOf(int32_t fk_index) const;

  // Bytes of the pk arrays, the flat pk->row maps and the FK row-id
  // columns (Table 1's "(key,fk) snap." column).
  size_t ByteSize() const;

  // Creates an empty snapshot; prefer Build().
  KfkSnapshot() = default;

 private:
  static StatusOr<std::shared_ptr<const TableKeys>> BuildTable(
      const Table& table);
  static std::shared_ptr<const FkKeys> BuildFk(const Database& db,
                                               const ForeignKeyDef& fk,
                                               const TableKeys& target);

  std::vector<std::shared_ptr<const TableKeys>> tables_;  // per table
  std::vector<std::shared_ptr<const FkKeys>> fks_;        // per foreign key
};

}  // namespace s4

#endif  // S4_INDEX_KFK_SNAPSHOT_H_
