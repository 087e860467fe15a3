#ifndef S4_STRATEGY_INCREMENTAL_H_
#define S4_STRATEGY_INCREMENTAL_H_

#include <optional>
#include <unordered_map>

#include "strategy/strategy.h"

namespace s4 {

// Which incremental algorithm to run (Sec 5.4, Appendix A.1).
enum class IncrementalMode {
  kFastTopKInc,  // FASTTOPK-INC: improved bounds + partial eval + caching
  kBaselineInc,  // BASELINE-INC: improved bounds + partial eval, no cache
};

// Conversation state across spreadsheet edits: the last spreadsheet and
// the per-row containment scores of every query evaluated so far, keyed
// by query signature. Scores for unchanged rows are reused verbatim;
// they also yield the tighter upper bound of Eq. (11).
class SearchSession {
 public:
  SearchSession(const IndexSet& index, const SchemaGraph& graph,
                SearchOptions options)
      : index_(&index), graph_(&graph), options_(std::move(options)) {}

  // Runs one search over `sheet`, reusing prior evaluation results where
  // the mode allows, and records the results for the next call.
  SearchResult Search(const ExampleSpreadsheet& sheet,
                      IncrementalMode mode = IncrementalMode::kFastTopKInc);

  int64_t NumRememberedQueries() const {
    return static_cast<int64_t>(history_.size());
  }

 private:
  // Stored per-row scores of a previously evaluated query. `valid[t]`
  // marks rows whose stored score still reflects the current spreadsheet
  // (a row edited after the query was last evaluated is invalid until
  // the query is re-evaluated on it).
  struct HistoryEntry {
    std::vector<double> scores;
    std::vector<bool> valid;
  };

  void Remember(const ExampleSpreadsheet& sheet, const SearchResult& result,
                const std::vector<int32_t>& changed_rows);

  const IndexSet* index_;
  const SchemaGraph* graph_;
  SearchOptions options_;
  std::optional<ExampleSpreadsheet> last_sheet_;
  std::unordered_map<std::string, HistoryEntry> history_;
};

}  // namespace s4

#endif  // S4_STRATEGY_INCREMENTAL_H_
