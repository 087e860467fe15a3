#ifndef S4_DATAGEN_ES_GEN_H_
#define S4_DATAGEN_ES_GEN_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "index/index_set.h"
#include "query/pj_query.h"
#include "query/spreadsheet.h"
#include "schema/schema_graph.h"

namespace s4::datagen {

// Workload generator reproducing Sec 6.1's example-spreadsheet (ES)
// recipe: pick a semantically meaningful join query, execute it (here:
// sample its output by random joint walks instead of materializing the
// join), project random rows/columns, keep only the first token of each
// cell, and inject relationship errors by swapping in values from other
// output rows of the same column.
struct EsGenOptions {
  int32_t num_rows = 3;             // m
  int32_t num_cols = 3;             // n
  int32_t relationship_errors = 2;  // Table 2 default
  int32_t domain_errors = 0;        // extension: out-of-domain substitutions
};

struct GeneratedEs {
  ExampleSpreadsheet sheet;
  // The generating query, minimized per Def 3 (unprojected degree-1
  // relations dropped); the synthetic user study treats a result as
  // relevant iff it matches this signature.
  PJQuery source_query;
  // Total row-level posting length of the sheet's terms; the bucketing
  // key of Sec 6.1.
  int64_t term_frequency = 0;
};

enum class EsBucket { kLow = 0, kMedium = 1, kHigh = 2 };
const char* EsBucketName(EsBucket bucket);

class EsGenerator {
 public:
  EsGenerator(const IndexSet& index, const SchemaGraph& graph, uint64_t seed);

  // Discovers the pool of source join queries: connected join trees of
  // 2..max_tree_size relations carrying at least `min_text_columns`
  // text columns. Fails if none exist.
  Status Init(int32_t min_text_columns = 6, int32_t max_tree_size = 4,
              int32_t pool_size = 10);

  // Generates one ES; deterministic given the constructor seed and call
  // sequence.
  StatusOr<GeneratedEs> Generate(const EsGenOptions& options = {});

  // Generates `count` ESs, skipping occasional sampling failures.
  StatusOr<std::vector<GeneratedEs>> GenerateMany(
      int32_t count, const EsGenOptions& options = {});

  // Buckets by ascending term frequency: bottom 50% low, next 30%
  // medium, top 20% high (the 25/15/10 split of the paper's 50 ESs).
  static std::vector<EsBucket> AssignBuckets(
      const std::vector<GeneratedEs>& es);

 private:
  struct SourceQuery {
    JoinTree tree;
    std::vector<std::pair<TreeNodeId, int32_t>> text_columns;
  };

  // Samples one joint row assignment for `tree` (row id per node), or
  // empty on dead-end.
  std::vector<int64_t> SampleJoinRow(const JoinTree& tree);

  // First word token of the cell, or empty.
  std::string FirstToken(TableId table, int64_t row, int32_t col) const;

  const IndexSet* index_;
  const SchemaGraph* graph_;
  Rng rng_;
  std::vector<SourceQuery> pool_;
};

}  // namespace s4::datagen

#endif  // S4_DATAGEN_ES_GEN_H_
