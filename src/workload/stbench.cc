#include "workload/stbench.h"

#include "common/rng.h"
#include "common/strings.h"

namespace orchestra::workload {

using storage::ColumnDef;
using storage::RelationDef;
using storage::Schema;
using storage::Tuple;
using storage::Value;
using storage::ValueType;

const char* StbScenarioName(StbScenario s) {
  switch (s) {
    case StbScenario::kCopy: return "Copy";
    case StbScenario::kSelect: return "Select";
    case StbScenario::kJoin: return "Join";
    case StbScenario::kConcatenate: return "Concatenate";
    case StbScenario::kCorrespondence: return "Correspondence";
  }
  return "?";
}

namespace {

RelationDef WideRelation(const std::string& name, int attrs, uint32_t partitions) {
  std::vector<ColumnDef> cols;
  for (int i = 0; i < attrs; ++i) {
    cols.push_back({Tag("a", i), ValueType::kString});
  }
  RelationDef def;
  def.name = name;
  def.schema = Schema(std::move(cols), 1);
  def.num_partitions = partitions;
  return def;
}

/// Variable-length string around `len` chars (STBenchmark's values vary).
Value Str(Rng* rng, uint32_t len) {
  uint32_t n = len > 6 ? len - 5 + static_cast<uint32_t>(rng->Uniform(11)) : len;
  return Value(rng->AlphaString(n));
}

}  // namespace

std::vector<GeneratedRelation> StbGenerate(StbScenario scenario,
                                           const StbConfig& cfg) {
  Rng rng(cfg.seed * 977 + static_cast<uint64_t>(scenario));
  std::vector<GeneratedRelation> out;
  const uint64_t n = cfg.tuples_per_relation;

  auto fill_wide = [&](GeneratedRelation* rel, uint64_t rows,
                       const std::string& key_prefix) {
    size_t arity = rel->def.schema.arity();
    rel->rows.reserve(rows);
    for (uint64_t i = 0; i < rows; ++i) {
      Tuple t;
      t.reserve(arity);
      t.push_back(Value(key_prefix + std::to_string(i)));  // unique key
      for (size_t c = 1; c < arity; ++c) t.push_back(Str(&rng, cfg.string_len));
      rel->rows.push_back(std::move(t));
    }
  };

  switch (scenario) {
    case StbScenario::kCopy: {
      GeneratedRelation rel;
      rel.def = WideRelation("stb_copy", 7, cfg.num_partitions);
      fill_wide(&rel, n, "c");
      out.push_back(std::move(rel));
      break;
    }
    case StbScenario::kSelect: {
      // 6 attributes, one integer used by the inequality predicate.
      GeneratedRelation rel;
      std::vector<ColumnDef> cols = {{"a0", ValueType::kString},
                                     {"num", ValueType::kInt64},
                                     {"a2", ValueType::kString},
                                     {"a3", ValueType::kString},
                                     {"a4", ValueType::kString},
                                     {"a5", ValueType::kString}};
      rel.def.name = "stb_select";
      rel.def.schema = Schema(std::move(cols), 1);
      rel.def.num_partitions = cfg.num_partitions;
      rel.rows.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        Tuple t = {Value("s" + std::to_string(i)),
                   Value(static_cast<int64_t>(rng.Uniform(1000))),
                   Str(&rng, cfg.string_len), Str(&rng, cfg.string_len),
                   Str(&rng, cfg.string_len), Str(&rng, cfg.string_len)};
        rel.rows.push_back(std::move(t));
      }
      out.push_back(std::move(rel));
      break;
    }
    case StbScenario::kJoin: {
      // 5-attr dimension (keyed j0), 7-attr mid keyed m0 with (b1,b2)
      // referencing the dimension's (j0,j1) pair, and a 9-attr fact
      // referencing the mid's key; joins are on two attributes each.
      GeneratedRelation dim;
      dim.def = WideRelation("stb_five", 5, cfg.num_partitions);
      uint64_t dim_rows = std::max<uint64_t>(1, n / 4);
      fill_wide(&dim, dim_rows, "d");

      GeneratedRelation mid;
      {
        std::vector<ColumnDef> cols = {{"m0", ValueType::kString},
                                       {"b1", ValueType::kString},
                                       {"b2", ValueType::kString},
                                       {"m3", ValueType::kString},
                                       {"m4", ValueType::kString},
                                       {"m5", ValueType::kString},
                                       {"m6", ValueType::kString}};
        mid.def.name = "stb_seven";
        mid.def.schema = Schema(std::move(cols), 1);
        mid.def.num_partitions = cfg.num_partitions;
        mid.rows.reserve(n);
        for (uint64_t i = 0; i < n; ++i) {
          uint64_t ref = rng.Uniform(dim_rows);
          Tuple t = {Value("m" + std::to_string(i)),
                     dim.rows[ref][0],  // b1 = dim key
                     dim.rows[ref][1],  // b2 = dim a1
                     Str(&rng, cfg.string_len), Str(&rng, cfg.string_len),
                     Str(&rng, cfg.string_len), Str(&rng, cfg.string_len)};
          mid.rows.push_back(std::move(t));
        }
      }

      GeneratedRelation fact;
      {
        std::vector<ColumnDef> cols;
        cols.push_back({"f0", ValueType::kString});
        cols.push_back({"c1", ValueType::kString});
        cols.push_back({"c2", ValueType::kString});
        for (int i = 3; i < 9; ++i) {
          cols.push_back({"f" + std::to_string(i), ValueType::kString});
        }
        fact.def.name = "stb_nine";
        fact.def.schema = Schema(std::move(cols), 1);
        fact.def.num_partitions = cfg.num_partitions;
        fact.rows.reserve(n);
        for (uint64_t i = 0; i < n; ++i) {
          uint64_t ref = rng.Uniform(mid.rows.size());
          Tuple t;
          t.push_back(Value("f" + std::to_string(i)));
          t.push_back(mid.rows[ref][0]);  // c1 = mid key
          t.push_back(mid.rows[ref][3]);  // c2 = mid m3
          for (int c = 3; c < 9; ++c) t.push_back(Str(&rng, cfg.string_len));
          fact.rows.push_back(std::move(t));
        }
      }
      out.push_back(std::move(dim));
      out.push_back(std::move(mid));
      out.push_back(std::move(fact));
      break;
    }
    case StbScenario::kConcatenate: {
      GeneratedRelation rel;
      rel.def = WideRelation("stb_concat", 6, cfg.num_partitions);
      rel.def.name = "stb_concat";
      fill_wide(&rel, n, "k");
      out.push_back(std::move(rel));
      break;
    }
    case StbScenario::kCorrespondence: {
      GeneratedRelation rel;
      {
        std::vector<ColumnDef> cols = {{"a0", ValueType::kString},
                                       {"k1", ValueType::kString},
                                       {"k2", ValueType::kString},
                                       {"a3", ValueType::kString},
                                       {"a4", ValueType::kString},
                                       {"a5", ValueType::kString},
                                       {"a6", ValueType::kString}};
        rel.def.name = "stb_corr_in";
        rel.def.schema = Schema(std::move(cols), 1);
        rel.def.num_partitions = cfg.num_partitions;
      }
      // The correspondence table maps (k1, k2) pairs to integer IDs — the
      // value-correspondence replacement for the Skolem function (§VI-A).
      GeneratedRelation corr;
      {
        std::vector<ColumnDef> cols = {{"k1", ValueType::kString},
                                       {"k2", ValueType::kString},
                                       {"id", ValueType::kInt64}};
        corr.def.name = "stb_corr_map";
        corr.def.schema = Schema(std::move(cols), 2);
        corr.def.num_partitions = cfg.num_partitions;
      }
      uint64_t pairs = std::max<uint64_t>(1, n / 10);
      corr.rows.reserve(pairs);
      for (uint64_t i = 0; i < pairs; ++i) {
        corr.rows.push_back({Value("p" + std::to_string(i)),
                             Value("q" + std::to_string(i)),
                             Value(static_cast<int64_t>(1000000 + i))});
      }
      rel.rows.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t ref = rng.Uniform(pairs);
        rel.rows.push_back({Value("r" + std::to_string(i)), corr.rows[ref][0],
                            corr.rows[ref][1], Str(&rng, cfg.string_len),
                            Str(&rng, cfg.string_len), Str(&rng, cfg.string_len),
                            Str(&rng, cfg.string_len)});
      }
      out.push_back(std::move(rel));
      out.push_back(std::move(corr));
      break;
    }
  }
  return out;
}

std::string StbQuerySql(StbScenario scenario) {
  switch (scenario) {
    case StbScenario::kCopy:
      return "SELECT a0, a1, a2, a3, a4, a5, a6 FROM stb_copy";
    case StbScenario::kSelect:
      return "SELECT a0, num, a2, a3, a4, a5 FROM stb_select WHERE num < 333";
    case StbScenario::kJoin:
      return "SELECT f0, m0, a0, f3, m4, a2 "
             "FROM stb_nine, stb_seven, stb_five "
             "WHERE c1 = m0 AND c2 = m3 AND b1 = a0 AND b2 = a1";
    case StbScenario::kConcatenate:
      return "SELECT CONCAT(a1, a2, a3) AS joined, a0, a4, a5 FROM stb_concat";
    case StbScenario::kCorrespondence:
      return "SELECT id, a0, stb_corr_in.k1, stb_corr_in.k2, a3, a4, a5, a6 "
             "FROM stb_corr_in, stb_corr_map "
             "WHERE stb_corr_in.k1 = stb_corr_map.k1 AND "
             "stb_corr_in.k2 = stb_corr_map.k2";
  }
  return "";
}

}  // namespace orchestra::workload
