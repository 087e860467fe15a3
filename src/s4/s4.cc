#include "s4/s4.h"

#include "common/string_util.h"

namespace s4 {

StatusOr<std::unique_ptr<S4System>> S4System::Create(
    const Database& db, IndexBuildOptions index_options) {
  auto index = IndexSet::Build(db, index_options);
  if (!index.ok()) return index.status();
  return std::unique_ptr<S4System>(
      new S4System(std::move(index).value()));
}

StatusOr<SearchResult> S4System::Search(
    const std::vector<std::vector<std::string>>& cells,
    const SearchOptions& options, Strategy strategy) const {
  S4_RETURN_IF_ERROR(ValidateSearchOptions(options));
  auto sheet = MakeSpreadsheet(cells);
  if (!sheet.ok()) return sheet.status();
  S4_RETURN_IF_ERROR(sheet->Validate());
  S4_RETURN_IF_ERROR(
      ValidateActiveColumns(options.enumeration, sheet->NumColumns()));
  // A requested deadline without a caller-armed token gets one here, so
  // one-shot searches honor deadlines without going through S4Service.
  if (options.deadline_seconds > 0.0 && options.stop == nullptr) {
    StopToken token(options.deadline_seconds);
    SearchOptions timed = options;
    timed.stop = &token;
    SearchResult result = Search(*sheet, timed, strategy);
    if (result.interrupted) {
      return Status::DeadlineExceeded(
          StrFormat("search exceeded its %.3fs deadline",
                    options.deadline_seconds));
    }
    return result;
  }
  SearchResult result = Search(*sheet, options, strategy);
  if (result.interrupted && options.stop != nullptr) {
    if (options.stop->cancelled()) {
      return Status::Cancelled("search cancelled by caller");
    }
    return Status::DeadlineExceeded("search exceeded its deadline");
  }
  return result;
}

const char* S4System::StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kNaive:
      return "naive";
    case Strategy::kBaseline:
      return "baseline";
    case Strategy::kFastTopK:
      return "fasttopk";
  }
  return "unknown";
}

SearchResult S4System::Search(const ExampleSpreadsheet& sheet,
                              const SearchOptions& options,
                              Strategy strategy) const {
  switch (strategy) {
    case Strategy::kNaive:
      return SearchNaive(*index_, graph_, sheet, options);
    case Strategy::kBaseline:
      return SearchBaseline(*index_, graph_, sheet, options);
    case Strategy::kFastTopK:
      break;
  }
  return SearchFastTopK(*index_, graph_, sheet, options);
}

StatusOr<QueryOutput> S4System::Preview(const PJQuery& query,
                                        const ExampleSpreadsheet& sheet,
                                        const OutputOptions& options) const {
  ScoreContext ctx(*index_, sheet, ScoreParams{});
  return ExecuteQuery(query, ctx, options);
}

std::string S4System::FormatResults(const SearchResult& result,
                                    int32_t max_sql) const {
  std::string out;
  out += StrFormat(
      "top-%zu of %lld candidates (%lld evaluated, %.1f ms enum+ub, "
      "%.1f ms eval)\n",
      result.topk.size(),
      static_cast<long long>(result.stats.queries_enumerated),
      static_cast<long long>(result.stats.queries_evaluated),
      result.stats.enum_seconds * 1e3, result.stats.eval_seconds * 1e3);
  int32_t rank = 0;
  for (const ScoredQuery& sq : result.topk) {
    ++rank;
    out += StrFormat("#%d  score=%.3f (row=%.1f col=%.1f ub=%.3f)  %s\n",
                     rank, sq.score, sq.row_score, sq.column_score,
                     sq.upper_bound, sq.query.ToString(db()).c_str());
    if (rank <= max_sql) {
      std::string sql = sq.query.ToSql(db());
      // Indent the SQL block.
      out += "      ";
      for (char ch : sql) {
        out.push_back(ch);
        if (ch == '\n') out += "      ";
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace s4
