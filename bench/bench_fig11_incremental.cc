// Reproduces Figure 11: incremental input. Starting from a completely
// filled first row, cells of the remaining rows are typed one at a time
// (row-wise, left to right); at each [row, col] step the three
// incremental approaches are timed: FASTTOPK-INC and BASELINE-INC (a
// SearchSession each), and FASTTOPK-NINC, which treats every update as a
// fresh search and so is a plain SearchFastTopK.
#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "strategy/incremental.h"

int main(int argc, char** argv) {
  using namespace s4;
  using namespace s4::bench;

  JsonInit(argc, argv, "fig11_incremental");
  PrintHeader("Figure 11: incremental input (Sec 5.4 / App A.1)",
              "CSUPP-sim 3x3 spreadsheets; 6 cell additions after the"
              " first row, averaged over the workload");

  std::unique_ptr<World> world =
      CsuppWorld(static_cast<int32_t>(EnvInt("S4_BENCH_CSUPP_SCALE", 2)));
  const int32_t es_count =
      static_cast<int32_t>(EnvInt("S4_BENCH_ES_COUNT", 12));
  Workload workload = MakeWorkload(*world, es_count);

  SearchOptions options;
  options.enumeration.max_tree_size = 4;

  constexpr int kSteps = 6;  // cells [1,0..2] and [2,0..2]
  // The two INC approaches search through a SearchSession; FASTTOPK-NINC
  // restarts from scratch at every step.
  enum Approach { kInc, kBaselineInc, kNInc, kApproaches };
  RunStats agg[kApproaches][kSteps];

  for (const datagen::GeneratedEs& es : workload.es) {
    for (int m = 0; m < kApproaches; ++m) {
      std::optional<SearchSession> session;
      if (m != kNInc) session.emplace(*world->index, *world->graph, options);
      const IncrementalMode mode = m == kInc ? IncrementalMode::kFastTopKInc
                                             : IncrementalMode::kBaselineInc;
      auto search = [&](const ExampleSpreadsheet& sheet) {
        return session ? session->Search(sheet, mode)
                       : SearchFastTopK(*world->index, *world->graph, sheet,
                                        options);
      };
      // Type the first row completely, then warm the session on it.
      std::vector<std::vector<std::string>> cells{
          {es.sheet.cell(0, 0).raw, es.sheet.cell(0, 1).raw,
           es.sheet.cell(0, 2).raw}};
      auto first =
          ExampleSpreadsheet::FromCells(cells, world->index->tokenizer());
      if (!first.ok() || !first->Validate().ok()) continue;
      search(*first);

      int step = 0;
      for (int32_t row = 1; row < es.sheet.NumRows(); ++row) {
        cells.push_back({"", "", ""});
        for (int32_t col = 0; col < es.sheet.NumColumns(); ++col) {
          cells[row][col] = es.sheet.cell(row, col).raw;
          auto sheet = ExampleSpreadsheet::FromCells(
              cells, world->index->tokenizer());
          if (!sheet.ok() || !sheet->Validate().ok()) {
            ++step;
            continue;
          }
          SearchResult r = search(*sheet);
          agg[m][step].Add(r.stats);
          ++step;
        }
      }
    }
  }

  TablePrinter tp({"[row,col]", "FastTopK-Inc (ms)", "Baseline-Inc (ms)",
                   "FastTopK-NInc (ms)", "row-evals Inc",
                   "row-evals NInc"});
  for (int step = 0; step < kSteps; ++step) {
    const int32_t row = 1 + step / 3;
    const int32_t col = step % 3;
    std::vector<std::string> line{
        s4::StrFormat("[%d,%d]", row, col)};
    for (int m = 0; m < kApproaches; ++m) {
      line.push_back(TablePrinter::Num(AvgTotalMs(agg[m][step]), 3));
    }
    for (int m : {kInc, kNInc}) {
      const RunStats& a = agg[m][step];
      line.push_back(TablePrinter::Num(PerSearch(a, a.query_row_evals), 1));
    }
    tp.AddRow(std::move(line));
  }
  tp.Print();
  std::printf(
      "\npaper's shape: FASTTOPK-INC clearly beats both BASELINE-INC"
      " (no sharing) and FASTTOPK-NINC (re-evaluates unchanged rows),"
      " especially on the first cells of a new row.\n");
  return 0;
}
