#include "live/live_s4.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"
#include "index/index_set.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace s4 {

namespace {

// Registry handles bumped by Apply; cached once like the service does.
struct LiveMetrics {
  obs::Counter* mutations;
  obs::Counter* inserts;
  obs::Counter* deletes;
  obs::Counter* updates;
  obs::Counter* failed;
  obs::Counter* epochs;
  obs::Gauge* overlay_depth;
  obs::Histogram* apply_seconds;

  static LiveMetrics& Get() {
    static LiveMetrics* m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return new LiveMetrics{
          &reg.GetCounter("s4_live_mutations_total"),
          &reg.GetCounter("s4_live_inserts_total"),
          &reg.GetCounter("s4_live_deletes_total"),
          &reg.GetCounter("s4_live_updates_total"),
          &reg.GetCounter("s4_live_failed_total"),
          &reg.GetCounter("s4_live_epochs_total"),
          &reg.GetGauge("s4_live_overlay_depth"),
          &reg.GetHistogram("s4_live_apply_seconds"),
      };
    }();
    return *m;
  }
};

const char* OpName(Mutation::Op op) {
  switch (op) {
    case Mutation::Op::kInsertRow:
      return "insert_row";
    case Mutation::Op::kDeleteRow:
      return "delete_row";
    case Mutation::Op::kUpdateCell:
      return "update_cell";
  }
  return "unknown";
}

}  // namespace

// Prepares one epoch's IndexSet from its predecessor plus a mutation
// batch. All deltas accumulate in working maps keyed the same way the
// index overlays are; Publish() freezes them into a new IndexSet that
// shares every untouched structure with `prev`.
//
// The incremental edits reproduce exactly what IndexSet::Build computes
// from the mutated database: posting lists stay row-ascending (Build
// scans rows in order), column lists stay gid-ascending (Build visits
// columns in gid-assignment order), and cell-length columns stay
// row-aligned — so searches over the published epoch are bit-identical
// to a from-scratch rebuild.
class LiveIndexBuilder {
 public:
  LiveIndexBuilder(const IndexSet& prev, const Database& db)
      : prev_(prev),
        db_(db),
        dict_(TermDict::Fork(prev.dict_)),
        dirty_tables_(static_cast<size_t>(db.NumTables()), false),
        dirty_fks_(db.foreign_keys().size(), false),
        gen_touched_(static_cast<size_t>(db.NumTables()), false) {}

  // Each Apply* mutates the master table *and* records the index
  // deltas. On error the database is untouched and the working state is
  // unchanged (validation happens before any write).

  Status ApplyInsert(Table& t, const std::vector<Value>& values) {
    Status s = t.AppendRow(values);
    if (!s.ok()) return s;
    const int64_t row = t.NumRows() - 1;
    for (int32_t c : t.TextColumnIndexes()) {
      const int32_t gid = prev_.column_ids_.Gid(ColumnRef{t.id(), c});
      TfMap tf = CellTf(t.IsNull(row, c) ? "" : t.GetText(row, c));
      Lengths(gid).push_back(DistinctCount(tf));
      for (const auto& [term, count] : tf) {
        UpsertPosting(term, gid, static_cast<int32_t>(row), count);
      }
    }
    MarkRowSetChanged(t.id());
    return Status::OK();
  }

  Status ApplyDelete(Table& t, int64_t pk) {
    const int64_t row = t.FindByPk(pk);
    if (row < 0) {
      return Status::NotFound(
          StrFormat("%s: no row with pk %lld", t.name().c_str(),
                    static_cast<long long>(pk)));
    }
    const int64_t last = t.NumRows() - 1;
    for (int32_t c : t.TextColumnIndexes()) {
      const int32_t gid = prev_.column_ids_.Gid(ColumnRef{t.id(), c});
      TfMap old_tf = CellTf(t.IsNull(row, c) ? "" : t.GetText(row, c));
      for (const auto& [term, count] : old_tf) {
        (void)count;
        RemovePosting(term, gid, static_cast<int32_t>(row));
      }
      if (row != last) {
        // The last row moves into the freed slot: renumber its postings.
        TfMap moved_tf = CellTf(t.IsNull(last, c) ? "" : t.GetText(last, c));
        for (const auto& [term, count] : moved_tf) {
          RemovePosting(term, gid, static_cast<int32_t>(last));
          UpsertPosting(term, gid, static_cast<int32_t>(row), count);
        }
      }
      std::vector<uint16_t>& lengths = Lengths(gid);
      if (row != last) lengths[row] = lengths[last];
      lengths.pop_back();
    }
    Status s = t.RemoveRowSwapLast(row);
    if (!s.ok()) return s;  // unreachable: row validated above
    MarkRowSetChanged(t.id());
    return Status::OK();
  }

  Status ApplyUpdate(Table& t, int64_t pk, const std::string& column,
                     const Value& value) {
    const int32_t col = t.ColumnIndex(column);
    if (col < 0) {
      return Status::NotFound(t.name() + ": no column " + column);
    }
    const int64_t row = t.FindByPk(pk);
    if (row < 0) {
      return Status::NotFound(
          StrFormat("%s: no row with pk %lld", t.name().c_str(),
                    static_cast<long long>(pk)));
    }
    const bool is_text = t.column(col).type == ColumnType::kText;
    TfMap old_tf;
    if (is_text) old_tf = CellTf(t.IsNull(row, col) ? "" : t.GetText(row, col));
    Status s = t.SetCell(row, col, value);
    if (!s.ok()) return s;
    if (is_text) {
      const int32_t gid = prev_.column_ids_.Gid(ColumnRef{t.id(), col});
      TfMap new_tf = CellTf(value.is_null() ? "" : value.AsText());
      for (const auto& [term, count] : old_tf) {
        (void)count;
        if (new_tf.find(term) == new_tf.end()) {
          RemovePosting(term, gid, static_cast<int32_t>(row));
        }
      }
      for (const auto& [term, count] : new_tf) {
        UpsertPosting(term, gid, static_cast<int32_t>(row), count);
      }
      Lengths(gid)[row] = DistinctCount(new_tf);
      gen_touched_[t.id()] = true;
    } else {
      // INT64 update: only materialized FK arrays (and caches over
      // joins through them) can be affected.
      for (size_t i = 0; i < db_.foreign_keys().size(); ++i) {
        const ForeignKeyDef& fk = db_.foreign_keys()[i];
        if (fk.src_table == t.id() && fk.src_column == col) {
          dirty_fks_[i] = true;
          gen_touched_[t.id()] = true;
        }
      }
    }
    return Status::OK();
  }

  // Freezes the accumulated deltas into the next epoch's IndexSet.
  std::unique_ptr<IndexSet> Publish(uint64_t epoch,
                                    std::vector<uint64_t>* relation_gens,
                                    Status* status) {
    std::unique_ptr<IndexSet> set(
        new IndexSet(db_, IndexBuildOptions{prev_.tokenizer_.options()}));
    auto snapshot = prev_.snapshot_.Rebuilt(db_, dirty_tables_, dirty_fks_);
    if (!snapshot.ok()) {
      *status = snapshot.status();
      return nullptr;
    }
    set->snapshot_ = std::move(snapshot).value();
    set->dict_ = dict_.size() > prev_.dict_->size()
                     ? std::make_shared<const TermDict>(std::move(dict_))
                     : prev_.dict_;
    set->column_index_ =
        prev_.column_index_.WithChanges(std::move(col_changes_));
    set->row_index_ = prev_.row_index_.WithChanges(std::move(row_changes_));
    set->cell_lengths_ = prev_.cell_lengths_;
    for (auto& [gid, lengths] : lengths_changes_) {
      set->cell_lengths_[gid] =
          std::make_shared<const std::vector<uint16_t>>(std::move(lengths));
    }
    for (TableId t = 0; t < db_.NumTables(); ++t) {
      if (gen_touched_[t]) ++(*relation_gens)[t];
    }
    set->relation_gens_ = *relation_gens;
    set->epoch_ = epoch;
    *status = Status::OK();
    return set;
  }

  // Epoch 0 of a live system: the offline-built IndexSet, re-stamped
  // with all-zero per-relation generations so later epochs invalidate
  // relation-by-relation from the start.
  static void InitGens(IndexSet* set, int32_t num_tables, uint64_t epoch) {
    set->relation_gens_.assign(static_cast<size_t>(num_tables), 0);
    set->epoch_ = epoch;
  }

  // Tables whose generation the batch bumped, ascending.
  std::vector<TableId> Touched() const {
    std::vector<TableId> out;
    for (TableId t = 0; t < static_cast<TableId>(gen_touched_.size()); ++t) {
      if (gen_touched_[t]) out.push_back(t);
    }
    return out;
  }

 private:
  using TfMap = std::unordered_map<TermId, uint16_t>;

  // Distinct-term tf of one cell, interning new terms into the forked
  // dictionary (matches the Build loop's per-cell tf pass).
  TfMap CellTf(const std::string& text) {
    TfMap tf;
    if (text.empty()) return tf;
    for (const std::string& tok : prev_.tokenizer_.Tokenize(text)) {
      uint16_t& count = tf[dict_.Intern(tok)];
      if (count < UINT16_MAX) ++count;
    }
    return tf;
  }

  static uint16_t DistinctCount(const TfMap& tf) {
    return static_cast<uint16_t>(std::min<size_t>(tf.size(), UINT16_MAX));
  }

  // Working replacement list for (term, gid), copied from the previous
  // epoch on first touch. Lists stay row-ascending throughout.
  std::vector<Posting>& RowList(TermId term, int32_t gid) {
    const uint64_t key = RowInvertedIndex::Key(term, gid);
    auto it = row_changes_.find(key);
    if (it != row_changes_.end()) return it->second;
    const std::vector<Posting>* p = prev_.row_index_.Find(term, gid);
    return row_changes_
        .emplace(key, p == nullptr ? std::vector<Posting>() : *p)
        .first->second;
  }

  std::vector<int32_t>& ColList(TermId term) {
    auto it = col_changes_.find(term);
    if (it != col_changes_.end()) return it->second;
    const std::vector<int32_t>* p = prev_.column_index_.Find(term);
    return col_changes_
        .emplace(term, p == nullptr ? std::vector<int32_t>() : *p)
        .first->second;
  }

  std::vector<uint16_t>& Lengths(int32_t gid) {
    auto it = lengths_changes_.find(gid);
    if (it != lengths_changes_.end()) return it->second;
    const std::vector<uint16_t>* p = prev_.CellLengths(gid);
    return lengths_changes_
        .emplace(gid, p == nullptr ? std::vector<uint16_t>() : *p)
        .first->second;
  }

  void UpsertPosting(TermId term, int32_t gid, int32_t row, uint16_t tf) {
    std::vector<Posting>& list = RowList(term, gid);
    auto pos = std::lower_bound(
        list.begin(), list.end(), row,
        [](const Posting& p, int32_t r) { return p.row < r; });
    if (pos != list.end() && pos->row == row) {
      pos->tf = tf;
      return;
    }
    const bool was_empty = list.empty();
    list.insert(pos, Posting{row, tf});
    if (was_empty) {
      // Term (re)gains this column; keep the gid list ascending like
      // the builder's column-visit order produces.
      std::vector<int32_t>& cols = ColList(term);
      auto cpos = std::lower_bound(cols.begin(), cols.end(), gid);
      if (cpos == cols.end() || *cpos != gid) cols.insert(cpos, gid);
    }
  }

  void RemovePosting(TermId term, int32_t gid, int32_t row) {
    std::vector<Posting>& list = RowList(term, gid);
    auto pos = std::lower_bound(
        list.begin(), list.end(), row,
        [](const Posting& p, int32_t r) { return p.row < r; });
    if (pos == list.end() || pos->row != row) return;
    list.erase(pos);
    if (list.empty()) {
      // Empty working list = overlay tombstone; the term leaves this
      // column's gid list too.
      std::vector<int32_t>& cols = ColList(term);
      auto cpos = std::lower_bound(cols.begin(), cols.end(), gid);
      if (cpos != cols.end() && *cpos == gid) cols.erase(cpos);
    }
  }

  // Insert/delete change the table's row set: its pk arrays go stale,
  // and so does every FK row-id column it sources or is the target of
  // (KfkSnapshot::Rebuilt rebuilds those with the table); its
  // generation bumps.
  void MarkRowSetChanged(TableId t) {
    dirty_tables_[t] = true;
    gen_touched_[t] = true;
  }

  const IndexSet& prev_;
  const Database& db_;
  TermDict dict_;
  RowInvertedIndex::Map row_changes_;
  ColumnInvertedIndex::Map col_changes_;
  std::unordered_map<int32_t, std::vector<uint16_t>> lengths_changes_;
  std::vector<bool> dirty_tables_;
  std::vector<bool> dirty_fks_;
  std::vector<bool> gen_touched_;
};

StatusOr<std::unique_ptr<LiveS4System>> LiveS4System::Create(
    Database db, IndexBuildOptions index_options) {
  if (!db.finalized()) {
    return Status::FailedPrecondition("database must be finalized");
  }
  std::unique_ptr<LiveS4System> live(new LiveS4System());
  live->db_ = std::move(db);
  live->index_options_ = index_options;
  auto index = IndexSet::Build(live->db_, index_options);
  if (!index.ok()) return index.status();
  LiveIndexBuilder::InitGens(index->get(), live->db_.NumTables(),
                             /*epoch=*/0);
  live->relation_gens_.assign(static_cast<size_t>(live->db_.NumTables()), 0);
  live->epoch_ = S4System::FromIndex(std::move(index).value());
  return live;
}

StatusOr<MutationResult> LiveS4System::Apply(
    const std::vector<Mutation>& batch, const StopToken* stop,
    obs::Trace* trace) {
  LiveMetrics& metrics = LiveMetrics::Get();
  const auto start = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> write_lock(write_mu_);

  MutationResult result;
  // Pin the epoch the deltas layer over for the whole batch; readers may
  // retire it from `epoch_` at any time.
  std::shared_ptr<const S4System> prev = current();
  LiveIndexBuilder builder(prev->index(), db_);
  for (const Mutation& m : batch) {
    if (stop != nullptr && stop->ShouldStop()) {
      result.interrupted = true;
      break;
    }
    obs::SpanTimer span(trace, "live", "apply_mutation");
    if (span.enabled()) {
      span.AddArg("op", OpName(m.op));
      span.AddArg("table", m.table);
    }
    Table* t = db_.FindTable(m.table);
    Status s = t == nullptr ? Status::NotFound("no table " + m.table)
                            : Status::OK();
    if (s.ok()) {
      switch (m.op) {
        case Mutation::Op::kInsertRow:
          s = builder.ApplyInsert(*t, m.values);
          if (s.ok()) metrics.inserts->Increment();
          break;
        case Mutation::Op::kDeleteRow:
          s = builder.ApplyDelete(*t, m.pk);
          if (s.ok()) metrics.deletes->Increment();
          break;
        case Mutation::Op::kUpdateCell:
          s = builder.ApplyUpdate(*t, m.pk, m.column, m.value);
          if (s.ok()) metrics.updates->Increment();
          break;
      }
    }
    if (!s.ok()) {
      metrics.failed->Increment();
      result.error = s.ToString();
      break;
    }
    ++result.applied;
    metrics.mutations->Increment();
  }

  if (result.applied == 0) {
    // Nothing changed; keep the current epoch.
    metrics.apply_seconds->Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
    if (result.interrupted) {
      return Status::Cancelled("mutation batch cancelled before any write");
    }
    if (!result.error.empty()) {
      return Status::InvalidArgument(result.error);
    }
    result.epoch = epoch();
    return result;  // empty batch
  }

  // Publish the applied prefix as the next epoch.
  obs::SpanTimer publish_span(trace, "live", "publish_epoch");
  Status publish_status;
  uint64_t next_epoch;
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    next_epoch = epoch_num_ + 1;
  }
  std::unique_ptr<IndexSet> set =
      builder.Publish(next_epoch, &relation_gens_, &publish_status);
  if (set == nullptr) {
    // The master database has the prefix applied but the epoch could
    // not be assembled (e.g. a relation outgrew the snapshot's row-id
    // space). Surface loudly: the system needs a rebuild.
    return publish_status;
  }
  result.touched = builder.Touched();
  std::shared_ptr<const S4System> next =
      S4System::FromIndex(std::move(set));
  // Compaction-pressure signal: how many posting lists the published
  // epoch carries in delta overlays outside the frozen bases. Resets
  // toward 0 whenever WithChanges compacts (overlay > max(64, base/4)).
  metrics.overlay_depth->Set(static_cast<int64_t>(
      std::max(next->index().column_index().OverlaySize(),
               next->index().row_index().OverlaySize())));
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    epoch_ = std::move(next);
    epoch_num_ = next_epoch;
  }
  result.epoch = next_epoch;
  metrics.epochs->Increment();
  metrics.apply_seconds->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return result;
}

}  // namespace s4
