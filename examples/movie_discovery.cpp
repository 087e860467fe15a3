// Movie query discovery (the paper's user-study domain, Sec 6.3): the
// user half-remembers facts from the web — an actor, a genre, a studio —
// some of which may not be mappable at all. Demonstrates OR-column
// mapping (Appendix A.3) and the fuzzy n-gram index (Appendix A.2).
#include <cstdio>

#include "datagen/synthetic.h"
#include "s4/s4.h"

int main() {
  using namespace s4;

  auto db = datagen::MakeImdbSim();
  if (!db.ok()) return 1;

  // --- Word index + OR semantics --------------------------------------
  auto s4 = S4System::Create(*db);
  if (!s4.ok()) return 1;

  const Table* movie = db->FindTable("Movie");
  const Table* person = db->FindTable("Person");
  std::string some_title = movie->GetText(0, 1);
  std::string some_actor = person->GetText(3, 1);

  std::printf("Looking for: movie \"%s\", person \"%s\","
              " plus a column of gibberish the database cannot match.\n\n",
              some_title.c_str(), some_actor.c_str());

  auto sheet = (*s4)->MakeSpreadsheet(
      {{some_title, some_actor, "zzzunmatchable"}});
  if (!sheet.ok()) return 1;

  SearchOptions options;
  options.k = 3;
  SearchResult and_result = (*s4)->Search(*sheet, options);
  std::printf("AND semantics (every column must map): %zu results\n",
              and_result.topk.size());

  SearchOptions or_options = options;
  or_options.enumeration.or_semantics = true;
  SearchResult or_result = (*s4)->Search(*sheet, or_options);
  std::printf("OR semantics (columns may stay unmapped): %zu results\n",
              or_result.topk.size());
  if (!or_result.topk.empty()) {
    std::printf("\nBest OR query:\n%s\n",
                or_result.topk[0].query.ToSql((*s4)->db()).c_str());
  }

  // --- Fuzzy matching via the n-gram index -----------------------------
  IndexBuildOptions ngram_opts;
  ngram_opts.tokenizer.mode = TokenizerMode::kNGram;
  auto fuzzy = S4System::Create(*db, ngram_opts);
  if (!fuzzy.ok()) return 1;

  // Misspell the actor's name: word-level search would find nothing for
  // this cell, but shared character 3-grams still match.
  std::string typo;
  if (some_actor.size() > 3) {
    const size_t mid = some_actor.size() / 2;
    typo = some_actor.substr(0, mid) + "x" + some_actor.substr(mid);
  } else {
    typo = some_actor;
  }
  auto fuzzy_sheet = (*fuzzy)->MakeSpreadsheet({{typo}});
  if (!fuzzy_sheet.ok()) return 1;

  SearchOptions fuzzy_options;
  fuzzy_options.k = 3;
  SearchResult fuzzy_result = (*fuzzy)->Search(*fuzzy_sheet, fuzzy_options);
  std::printf(
      "\nFuzzy search for misspelled \"%s\" (n-gram index, App A.2):\n",
      typo.c_str());
  for (const ScoredQuery& sq : fuzzy_result.topk) {
    std::printf("  score=%.2f  %s\n", sq.score,
                sq.query.ToString((*fuzzy)->db()).c_str());
  }

  // Alternative A.2 mechanism: keep the word index but expand query
  // terms within edit distance 1 (union of posting lists).
  auto typo_sheet = (*s4)->MakeSpreadsheet({{typo}});
  if (typo_sheet.ok()) {
    SearchOptions spell_options;
    spell_options.k = 3;
    spell_options.score.spelling_edits = 1;
    SearchResult spell_result = (*s4)->Search(*typo_sheet, spell_options);
    std::printf("\nSame search via edit-distance term expansion:\n");
    for (const ScoredQuery& sq : spell_result.topk) {
      std::printf("  score=%.2f  %s\n", sq.score,
                  sq.query.ToString((*s4)->db()).c_str());
    }
  }
  return 0;
}
