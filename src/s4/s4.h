#ifndef S4_S4_S4_H_
#define S4_S4_S4_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/query_output.h"
#include "strategy/incremental.h"
#include "strategy/strategy.h"

namespace s4 {

// Top-level entry point of the library: owns the offline-built indexes
// and schema graph over a user database (Sec 3.1) and exposes the online
// top-k PJ-query search (Sec 3.2).
//
//   Database db = ...;                       // load data, declare FKs
//   db.Finalize();
//   auto s4 = S4System::Create(db).value();
//   auto result = s4->Search({{"Rick", "USA", "Xbox"},
//                             {"Julie", "", "iPhone"},
//                             {"Kevin", "Canada", ""}});
//   for (const ScoredQuery& q : result->topk)
//     std::cout << q.query.ToSql(db) << "\n";
class S4System {
 public:
  enum class Strategy {
    kNaive,
    kBaseline,
    kFastTopK,
  };
  // "naive", "baseline" or "fasttopk" (server logs, the slow-query log).
  static const char* StrategyName(Strategy strategy);

  // Builds all offline indexes. `db` must be finalized and outlive the
  // returned system.
  static StatusOr<std::unique_ptr<S4System>> Create(
      const Database& db, IndexBuildOptions index_options = {});

  // Adopts an already-built IndexSet (the live mutation subsystem
  // publishes each epoch this way). The database the IndexSet was built
  // over must outlive the returned system.
  static std::unique_ptr<S4System> FromIndex(
      std::unique_ptr<IndexSet> index) {
    return std::unique_ptr<S4System>(new S4System(std::move(index)));
  }

  const Database& db() const { return index_->db(); }
  const IndexSet& index() const { return *index_; }
  const SchemaGraph& graph() const { return graph_; }
  IndexStats index_stats() const { return index_->stats(); }

  // One-shot top-k search from raw spreadsheet cells (rows x columns;
  // empty strings are empty cells). Validates Def 1 and the options.
  // SearchOptions::num_threads controls Stage-II evaluation parallelism
  // for the Search and session entry points; every thread count returns
  // the same top-k sets and scores. OR column mapping (Appendix A.3) is
  // options.enumeration.or_semantics, honoured by every strategy.
  StatusOr<SearchResult> Search(
      const std::vector<std::vector<std::string>>& cells,
      const SearchOptions& options = {},
      Strategy strategy = Strategy::kFastTopK) const;

  // Top-k search over a pre-built spreadsheet.
  SearchResult Search(const ExampleSpreadsheet& sheet,
                      const SearchOptions& options = {},
                      Strategy strategy = Strategy::kFastTopK) const;

  // Starts an incremental session (Sec 5.4) that reuses evaluation
  // results across spreadsheet edits.
  SearchSession NewSession(const SearchOptions& options = {}) const {
    return SearchSession(*index_, graph_, options);
  }

  // Builds a spreadsheet with this system's tokenizer.
  StatusOr<ExampleSpreadsheet> MakeSpreadsheet(
      const std::vector<std::vector<std::string>>& cells) const {
    return ExampleSpreadsheet::FromCells(cells, index_->tokenizer());
  }

  // Human-readable report of the top-k (scores, mappings, SQL).
  std::string FormatResults(const SearchResult& result,
                            int32_t max_sql = 3) const;

  // Materializes (a prefix of) a discovered query's output relation with
  // the best-matching row of each example tuple marked — the Fig 2(b)
  // view a UI would render next to the SQL.
  StatusOr<QueryOutput> Preview(const PJQuery& query,
                                const ExampleSpreadsheet& sheet,
                                const OutputOptions& options = {}) const;

 private:
  S4System(std::unique_ptr<IndexSet> index)
      : index_(std::move(index)), graph_(index_->db()) {}

  std::unique_ptr<IndexSet> index_;
  SchemaGraph graph_;
};

}  // namespace s4

#endif  // S4_S4_S4_H_
