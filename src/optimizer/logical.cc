#include "optimizer/logical.h"

namespace orchestra::optimizer {

std::string AnalyzedQuery::ToString() const {
  std::string s = "SELECT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) s += ", ";
    const SelectItem& item = items[i];
    if (item.is_aggregate) {
      s += item.is_avg ? "AVG" : AggFnName(item.agg_fn);
      s += "(";
      s += item.agg_has_arg ? item.expr.ToString() : "*";
      s += ")";
    } else {
      s += item.expr.ToString();
    }
    s += " AS " + item.name;
  }
  s += " FROM ";
  for (size_t i = 0; i < tables.size(); ++i) {
    if (i) s += ", ";
    s += tables[i].relation;
    if (tables[i].alias != tables[i].relation) s += " " + tables[i].alias;
  }
  if (!conjuncts.empty()) {
    s += " WHERE ";
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (i) s += " AND ";
      s += conjuncts[i].ToString();
    }
  }
  if (has_group_by) {
    s += " GROUP BY ";
    for (size_t i = 0; i < group_cols.size(); ++i) {
      if (i) s += ", ";
      s += '$';
      s += std::to_string(group_cols[i]);
    }
  }
  if (limit >= 0) s += " LIMIT " + std::to_string(limit);
  return s;
}

}  // namespace orchestra::optimizer
