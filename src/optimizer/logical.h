// Logical (analyzed) queries: the single-block SELECT/FROM/WHERE/GROUP BY
// form the paper's optimizer handles (§VI, "Query Optimizer"). Produced by
// the SQL front end; consumed by the Volcano-style optimizer.
//
// Column references use a *global column space*: the concatenation of the
// FROM-list relations' schemas in order. The optimizer remaps them into each
// physical operator's output layout.
#ifndef ORCHESTRA_OPTIMIZER_LOGICAL_H_
#define ORCHESTRA_OPTIMIZER_LOGICAL_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "query/expr.h"
#include "storage/schema.h"

namespace orchestra::optimizer {

using query::AggFn;
using query::Expr;

struct TableRef {
  std::string relation;
  std::string alias;  // == relation when not aliased
  storage::RelationDef def;
  uint32_t first_column = 0;  // offset of this table in the global space
};

/// One SELECT-list item: either a scalar expression over the global column
/// space (must be group-by-consistent when aggregating) or an aggregate.
struct SelectItem {
  std::string name;  // output column name
  bool is_aggregate = false;
  Expr expr;                      // scalar case; for aggregates: the argument
  AggFn agg_fn = AggFn::kCount;   // aggregate case
  bool agg_has_arg = false;       // COUNT(*) has none
  /// AVG decomposes to SUM/COUNT at analysis time; this marks the division
  /// the planner must synthesize (select item = sum_slot / count_slot).
  bool is_avg = false;
};

struct OrderItem {
  uint32_t select_index = 0;  // position in the select list
  bool asc = true;
};

struct AnalyzedQuery {
  std::vector<TableRef> tables;
  /// WHERE conjuncts over the global column space.
  std::vector<Expr> conjuncts;
  std::vector<SelectItem> items;
  bool has_group_by = false;
  std::vector<int32_t> group_cols;  // global column indexes
  std::vector<OrderItem> order_by;
  int64_t limit = -1;
  std::string ToString() const;
};

/// Resolves relation definitions during analysis & planning.
using CatalogView = std::function<Result<storage::RelationDef>(const std::string&)>;

/// Cardinality statistics the optimizer costs plans with. The paper's
/// optimizer "relies on information (previously computed and stored) about
/// machine CPU and disk performance, as well as pairwise bandwidth"; the
/// deployment-level knobs live in CostParams (optimizer.h), the per-relation
/// ones here.
struct RelationStats {
  uint64_t row_count = 1000;
  double avg_tuple_bytes = 64;
  /// Distinct values per column (empty = unknown). Drives group-count
  /// estimates for aggregation strategy selection.
  std::vector<uint64_t> column_distinct;
};

using StatsCatalog = std::map<std::string, RelationStats>;

}  // namespace orchestra::optimizer

#endif  // ORCHESTRA_OPTIMIZER_LOGICAL_H_
