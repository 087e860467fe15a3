#include "exec/query_output.h"

#include <unordered_set>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "index/column_ids.h"

namespace s4 {

namespace {

// Enumerates join assignments (one row per tree node) depth-first.
class OutputExecutor {
 public:
  OutputExecutor(const PJQuery& query, const ScoreContext& ctx,
                 const OutputOptions& options, QueryOutput* out)
      : query_(query),
        ctx_(ctx),
        options_(options),
        out_(out),
        db_(ctx.index().db()),
        snap_(ctx.index().snapshot()),
        rows_(query.tree().size(), -1) {}

  void Run() {
    const int32_t num_es_rows = ctx_.NumEsRows();
    out_->best_row.assign(num_es_rows, -1);
    Descend(0);
  }

 private:
  void Descend(TreeNodeId v) {
    if (done_) return;
    const JoinTree& tree = query_.tree();
    if (v == tree.size()) {
      Emit();
      return;
    }
    const JoinTree::Node& n = tree.node(v);
    const TableId table = n.table;
    if (n.parent == kNoNode) {
      // Root: scan all rows.
      const int64_t rows = snap_.NumRows(table);
      for (int64_t r = 0; r < rows && !done_; ++r) {
        rows_[v] = r;
        Descend(v + 1);
      }
      return;
    }
    const int64_t parent_row = rows_[n.parent];
    if (n.parent_holds_fk) {
      // Parent's FK determines a single joining row.
      const int32_t r = snap_.FkRow(n.edge_to_parent)[parent_row];
      if (r < 0) return;
      rows_[v] = r;
      Descend(v + 1);
    } else {
      auto [lo, hi] =
          snap_.ReverseFkOf(n.edge_to_parent).RowsFor(parent_row);
      for (const uint32_t* r = lo; r != hi; ++r) {
        if (done_) return;
        rows_[v] = *r;
        Descend(v + 1);
      }
    }
  }

  void Emit() {
    if (++out_->total_rows_seen > options_.max_explored) {
      out_->truncated = true;
      done_ = true;
      return;
    }
    OutputRow row;
    row.cells.reserve(query_.bindings().size());
    for (const ProjectionBinding& b : query_.bindings()) {
      const Table& t = db_.table(query_.tree().node(b.node).table);
      const int64_t r = rows_[b.node];
      row.cells.push_back(t.IsNull(r, b.column) ? std::string()
                                                : t.GetText(r, b.column));
    }
    // Row-row similarity per example tuple (Eq. 2), via tokenization of
    // the projected cells (preview path; index-free and exact).
    const ResolvedSpreadsheet& rs = ctx_.resolved();
    row.similarity.assign(rs.num_rows, 0.0);
    const Tokenizer& tokenizer = ctx_.index().tokenizer();
    std::vector<std::unordered_set<std::string>> cell_tokens;
    cell_tokens.reserve(row.cells.size());
    for (const std::string& cell : row.cells) {
      std::vector<std::string> tokens = tokenizer.Tokenize(cell);
      cell_tokens.emplace_back(tokens.begin(), tokens.end());
    }
    const TermDict& dict = ctx_.index().dict();
    bool any_match = false;
    for (int32_t t = 0; t < rs.num_rows; ++t) {
      double sim = 0.0;
      for (size_t bi = 0; bi < query_.bindings().size(); ++bi) {
        const ProjectionBinding& b = query_.bindings()[bi];
        for (const std::vector<TermId>& group :
             rs.cell_term_groups[t][b.es_column]) {
          // A term counts once if any of its expansions appears.
          for (TermId w : group) {
            if (cell_tokens[bi].count(dict.term(w)) > 0) {
              sim += 1.0;
              break;
            }
          }
        }
      }
      row.similarity[t] = sim;
      if (sim > 0.0) any_match = true;
      const int32_t best = out_->best_row[t];
      const bool better =
          best < 0 || sim > out_->rows[best].similarity[t];
      if (sim > 0.0 && better) {
        pending_best_.push_back(t);
      }
    }

    const bool keep_for_listing =
        static_cast<int64_t>(out_->rows.size()) < options_.max_rows &&
        (!options_.only_matching || any_match);
    const bool keep_for_best = !pending_best_.empty();
    if (keep_for_listing || keep_for_best) {
      if (!keep_for_listing &&
          static_cast<int64_t>(out_->rows.size()) >= options_.max_rows) {
        out_->truncated = true;
      }
      out_->rows.push_back(std::move(row));
      for (int32_t t : pending_best_) {
        out_->best_row[t] = static_cast<int32_t>(out_->rows.size() - 1);
      }
    } else if (static_cast<int64_t>(out_->rows.size()) >=
               options_.max_rows) {
      out_->truncated = true;
    }
    pending_best_.clear();
  }

  const PJQuery& query_;
  const ScoreContext& ctx_;
  const OutputOptions& options_;
  QueryOutput* out_;
  const Database& db_;
  const KfkSnapshot& snap_;
  std::vector<int64_t> rows_;
  std::vector<int32_t> pending_best_;
  bool done_ = false;
};

}  // namespace

StatusOr<QueryOutput> ExecuteQuery(const PJQuery& query,
                                   const ScoreContext& ctx,
                                   const OutputOptions& options) {
  if (query.bindings().empty()) {
    return Status::InvalidArgument("query has no projection");
  }
  QueryOutput out;
  const Database& db = ctx.index().db();
  for (const ProjectionBinding& b : query.bindings()) {
    const Table& t = db.table(query.tree().node(b.node).table);
    out.headers.push_back(StrFormat(
        "%c:%s.%s", b.es_column < 26 ? static_cast<char>('A' + b.es_column)
                                     : '?',
        t.name().c_str(), t.column(b.column).name.c_str()));
  }
  OutputExecutor executor(query, ctx, options, &out);
  executor.Run();
  return out;
}

std::string QueryOutput::ToString() const {
  std::vector<std::string> header = headers;
  header.push_back("contains");
  TablePrinter tp(header);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::vector<std::string> line = rows[i].cells;
    std::string marks;
    for (size_t t = 0; t < best_row.size(); ++t) {
      if (best_row[t] == static_cast<int32_t>(i)) {
        if (!marks.empty()) marks += ",";
        marks += StrFormat("t%zu(%.0f)", t, rows[i].similarity[t]);
      }
    }
    line.push_back(marks);
    tp.AddRow(std::move(line));
  }
  std::string out = tp.ToString();
  if (truncated) {
    out += StrFormat("... truncated after %lld join rows\n",
                     static_cast<long long>(total_rows_seen));
  }
  return out;
}

}  // namespace s4
