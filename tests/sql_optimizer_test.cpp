#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "common/strings.h"
#include "deploy/deployment.h"
#include "optimizer/optimizer.h"
#include "query/reference.h"
#include "sql/parser.h"

namespace orchestra {
namespace {

using optimizer::AnalyzedQuery;
using optimizer::CatalogView;
using optimizer::CostParams;
using optimizer::Optimizer;
using optimizer::RelationStats;
using optimizer::StatsCatalog;
using query::Expr;
using storage::RelationDef;
using storage::Schema;
using storage::Value;
using storage::ValueType;

RelationDef Rel(const std::string& name, std::vector<storage::ColumnDef> cols,
                uint32_t key_arity = 1, bool everywhere = false) {
  RelationDef def;
  def.name = name;
  def.schema = Schema(std::move(cols), key_arity);
  def.num_partitions = 8;
  def.replicate_everywhere = everywhere;
  return def;
}

class SqlTest : public ::testing::Test {
 protected:
  SqlTest() {
    defs_["R"] = Rel("R", {{"x", ValueType::kString}, {"y", ValueType::kString}});
    defs_["S"] = Rel("S", {{"y", ValueType::kString}, {"z", ValueType::kString}});
    defs_["T"] = Rel("T", {{"id", ValueType::kInt64},
                           {"grp", ValueType::kString},
                           {"val", ValueType::kDouble}});
    defs_["Tiny"] = Rel("Tiny", {{"k", ValueType::kString}, {"v", ValueType::kString}},
                        1, /*everywhere=*/true);
    catalog_ = [this](const std::string& name) -> Result<RelationDef> {
      auto it = defs_.find(name);
      if (it == defs_.end()) return Status::NotFound("no relation " + name);
      return it->second;
    };
  }
  std::map<std::string, RelationDef> defs_;
  CatalogView catalog_;
};

TEST_F(SqlTest, DateHelpers) {
  EXPECT_EQ(sql::DateToDays(1970, 1, 1), 0);
  EXPECT_EQ(sql::DateToDays(1970, 1, 2), 1);
  EXPECT_EQ(sql::DateToDays(1998, 12, 1), 10561);
  EXPECT_EQ(*sql::ParseDate("1998-12-01"), 10561);
  EXPECT_FALSE(sql::ParseDate("notadate").ok());
}

TEST_F(SqlTest, ParsesSimpleSelect) {
  auto q = sql::ParseAndAnalyze("SELECT x, y FROM R", catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->tables.size(), 1u);
  EXPECT_EQ(q->items.size(), 2u);
  EXPECT_FALSE(q->has_group_by);
}

TEST_F(SqlTest, ParsesTheRunningExample) {
  auto q = sql::ParseAndAnalyze(
      "SELECT x, MIN(z) FROM R, S WHERE R.y = S.y GROUP BY x", catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->tables.size(), 2u);
  ASSERT_EQ(q->conjuncts.size(), 1u);
  EXPECT_TRUE(q->has_group_by);
  ASSERT_EQ(q->items.size(), 2u);
  EXPECT_FALSE(q->items[0].is_aggregate);
  EXPECT_TRUE(q->items[1].is_aggregate);
  EXPECT_EQ(q->items[1].agg_fn, query::AggFn::kMin);
}

TEST_F(SqlTest, ResolvesQualifiedAndUnqualifiedColumns) {
  auto q = sql::ParseAndAnalyze("SELECT R.x FROM R, S WHERE R.y = S.y AND z = 'q'",
                                catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->conjuncts.size(), 2u);
}

TEST_F(SqlTest, AmbiguousColumnRejected) {
  auto q = sql::ParseAndAnalyze("SELECT y FROM R, S", catalog_);
  EXPECT_FALSE(q.ok());
}

TEST_F(SqlTest, UnknownColumnAndTableRejected) {
  EXPECT_FALSE(sql::ParseAndAnalyze("SELECT nope FROM R", catalog_).ok());
  EXPECT_FALSE(sql::ParseAndAnalyze("SELECT x FROM Missing", catalog_).ok());
}

TEST_F(SqlTest, NonGroupedScalarRejected) {
  auto q = sql::ParseAndAnalyze("SELECT x, COUNT(*) FROM R", catalog_);
  EXPECT_FALSE(q.ok());
}

TEST_F(SqlTest, DateAndIntervalLiterals) {
  auto q = sql::ParseAndAnalyze(
      "SELECT id FROM T WHERE id <= date '1998-12-01' - interval '90' day",
      catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->conjuncts.size(), 1u);
  // The rhs folds at eval time: 10561 - 90 = 10471.
  storage::Tuple row = {Value(int64_t{10471}), Value(std::string("g")), Value(0.0)};
  EXPECT_TRUE(q->conjuncts[0].EvalBool(row));
  row[0] = Value(int64_t{10472});
  EXPECT_FALSE(q->conjuncts[0].EvalBool(row));
}

TEST_F(SqlTest, BetweenDesugars) {
  auto q = sql::ParseAndAnalyze("SELECT id FROM T WHERE val BETWEEN 0.05 AND 0.07",
                                catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // BETWEEN desugars to two conjuncts (>= and <=).
  ASSERT_EQ(q->conjuncts.size(), 2u);
  auto matches = [&q](const storage::Tuple& row) {
    return q->conjuncts[0].EvalBool(row) && q->conjuncts[1].EvalBool(row);
  };
  storage::Tuple row = {Value(int64_t{1}), Value(std::string("g")), Value(0.06)};
  EXPECT_TRUE(matches(row));
  row[2] = Value(0.08);
  EXPECT_FALSE(matches(row));
  row[2] = Value(0.04);
  EXPECT_FALSE(matches(row));
}

TEST_F(SqlTest, AvgDecomposes) {
  auto q = sql::ParseAndAnalyze("SELECT grp, AVG(val) FROM T GROUP BY grp", catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->items[1].is_avg);
}

TEST_F(SqlTest, OrderByNameAndPosition) {
  auto q = sql::ParseAndAnalyze(
      "SELECT grp AS g, COUNT(*) AS c FROM T GROUP BY grp ORDER BY c DESC, 1 ASC "
      "LIMIT 5",
      catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->order_by.size(), 2u);
  EXPECT_EQ(q->order_by[0].select_index, 1u);
  EXPECT_FALSE(q->order_by[0].asc);
  EXPECT_EQ(q->order_by[1].select_index, 0u);
  EXPECT_EQ(q->limit, 5);
}

TEST_F(SqlTest, SyntaxErrors) {
  EXPECT_FALSE(sql::ParseAndAnalyze("SELECT FROM R", catalog_).ok());
  EXPECT_FALSE(sql::ParseAndAnalyze("SELECT x R", catalog_).ok());
  EXPECT_FALSE(sql::ParseAndAnalyze("SELECT x FROM R WHERE", catalog_).ok());
  EXPECT_FALSE(sql::ParseAndAnalyze("SELECT x FROM R LIMIT xyz", catalog_).ok());
  EXPECT_FALSE(sql::ParseAndAnalyze("SELECT 'unterminated FROM R", catalog_).ok());
}

// ---------------------------------------------------------------------------
// Optimizer structure tests

class OptimizerTest : public SqlTest {
 protected:
  optimizer::PlannedQuery MustPlan(const std::string& text, size_t nodes = 4) {
    auto q = sql::ParseAndAnalyze(text, catalog_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    StatsCatalog stats;
    stats["R"] = RelationStats{100000, 60, {}};
    stats["S"] = RelationStats{5000, 40, {}};
    stats["T"] = RelationStats{50000, 48, {}};
    stats["Tiny"] = RelationStats{25, 30, {}};
    CostParams params;
    params.num_nodes = nodes;
    Optimizer opt(stats, params);
    auto planned = opt.Plan(*q);
    EXPECT_TRUE(planned.ok()) << planned.status().ToString();
    EXPECT_TRUE(planned->plan.Validate().ok()) << planned->plan.ToString();
    return planned.ok() ? std::move(planned).value() : optimizer::PlannedQuery{};
  }

  static size_t CountKind(const query::PhysicalPlan& plan, query::OpKind k) {
    size_t n = 0;
    for (const auto& op : plan.ops) {
      if (op.kind == k) ++n;
    }
    return n;
  }
};

TEST_F(OptimizerTest, SingleTableScanShipPlan) {
  auto planned = MustPlan("SELECT x, y FROM R");
  EXPECT_EQ(CountKind(planned.plan, query::OpKind::kScan), 1u);
  EXPECT_EQ(CountKind(planned.plan, query::OpKind::kShip), 1u);
  EXPECT_EQ(CountKind(planned.plan, query::OpKind::kRehash), 0u);
}

TEST_F(OptimizerTest, KeyOnlyQueryUsesCoveringScan) {
  auto planned = MustPlan("SELECT x FROM R");
  EXPECT_EQ(CountKind(planned.plan, query::OpKind::kCoveringScan), 1u);
  EXPECT_EQ(CountKind(planned.plan, query::OpKind::kScan), 0u);
}

TEST_F(OptimizerTest, CoPartitionedJoinSkipsOneRehash) {
  // R.y = S.y with S keyed on y: only R needs a rehash (Fig. 6).
  auto planned = MustPlan("SELECT x, z FROM R, S WHERE R.y = S.y");
  EXPECT_EQ(CountKind(planned.plan, query::OpKind::kHashJoin), 1u);
  EXPECT_EQ(CountKind(planned.plan, query::OpKind::kRehash), 1u);
}

TEST_F(OptimizerTest, ReplicatedTableJoinsWithoutAnyRehash) {
  auto planned = MustPlan("SELECT x, v FROM R, Tiny WHERE R.y = Tiny.k");
  EXPECT_EQ(CountKind(planned.plan, query::OpKind::kHashJoin), 1u);
  EXPECT_EQ(CountKind(planned.plan, query::OpKind::kRehash), 0u);
  bool broadcast_scan = false;
  for (const auto& op : planned.plan.ops) {
    if (op.broadcast_local) broadcast_scan = true;
  }
  EXPECT_TRUE(broadcast_scan);
}

TEST_F(OptimizerTest, GroupByOnKeyAggregatesLocally) {
  // Grouping by the partitioning key: groups are node-local, so no rehash is
  // needed before aggregation (the initiator still merges the per-node
  // provenance partials).
  auto planned = MustPlan("SELECT x, COUNT(*) FROM R GROUP BY x");
  EXPECT_EQ(CountKind(planned.plan, query::OpKind::kRehash), 0u);
  EXPECT_TRUE(planned.plan.final_stage.has_agg);
}

TEST_F(OptimizerTest, GroupByNonKeyNeedsMergeOrRehash) {
  auto planned = MustPlan("SELECT y, COUNT(*) FROM R GROUP BY y");
  bool has_merge = planned.plan.final_stage.has_agg;
  bool has_rehash = CountKind(planned.plan, query::OpKind::kRehash) > 0;
  EXPECT_TRUE(has_merge || has_rehash);
}

TEST_F(OptimizerTest, CrossProductRejected) {
  auto q = sql::ParseAndAnalyze("SELECT x, z FROM R, S", catalog_);
  ASSERT_TRUE(q.ok());
  Optimizer opt({}, {});
  EXPECT_FALSE(opt.Plan(*q).ok());
}

TEST_F(OptimizerTest, BranchAndBoundPrunes) {
  defs_["U"] = Rel("U", {{"z", ValueType::kString}, {"w", ValueType::kString}});
  auto q = sql::ParseAndAnalyze(
      "SELECT x, w FROM R, S, U WHERE R.y = S.y AND S.z = U.z", catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  StatsCatalog stats;
  stats["R"] = RelationStats{100000, 60, {}};
  stats["S"] = RelationStats{5000, 40, {}};
  stats["U"] = RelationStats{100, 30, {}};
  Optimizer opt(stats, {});
  auto planned = opt.Plan(*q);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_GT(opt.search_stats().candidates_generated, 3u);
}

// ---------------------------------------------------------------------------
// End-to-end: SQL -> optimizer -> distributed engine == reference executor.
// Five nodes: the 8 partitions straddle node ranges, so a partitioned scan
// spills over (kQueryFetch) and waits for its spill senders' closes;
// covering, broadcast and replicated scans have no spill pairs.

class SqlEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    deploy::DeploymentOptions opts;
    opts.num_nodes = 5;
    dep = std::make_unique<deploy::Deployment>(opts);

    auto r = Rel("R", {{"x", ValueType::kString}, {"y", ValueType::kString}});
    auto s = Rel("S", {{"y", ValueType::kString}, {"z", ValueType::kString}});
    auto t = Rel("T", {{"id", ValueType::kInt64},
                       {"grp", ValueType::kString},
                       {"val", ValueType::kDouble}});
    ASSERT_TRUE(dep->CreateRelation(0, r).ok());
    ASSERT_TRUE(dep->CreateRelation(0, s).ok());
    auto tiny = Rel("Tiny", {{"k", ValueType::kString}, {"v", ValueType::kString}}, 1,
                    /*everywhere=*/true);
    ASSERT_TRUE(dep->CreateRelation(0, t).ok());
    ASSERT_TRUE(dep->CreateRelation(0, tiny).ok());

    Rng rng(42);
    storage::UpdateBatch batch;
    for (int i = 0; i < 400; ++i) {
      storage::Tuple row = {Value(Tag("x", i)),
                            Value(Tag("y", rng.Uniform(30)))};
      ref_db["R"].push_back(row);
      batch["R"].push_back(storage::Update::Insert(row));
    }
    for (int i = 0; i < 30; ++i) {
      storage::Tuple row = {Value(Tag("y", i)),
                            Value(Tag("z", i % 4))};
      ref_db["S"].push_back(row);
      batch["S"].push_back(storage::Update::Insert(row));
    }
    for (int i = 0; i < 500; ++i) {
      storage::Tuple row = {Value(int64_t{i}),
                            Value(Tag("g", rng.Uniform(6))),
                            Value(rng.NextDouble() * 100)};
      ref_db["T"].push_back(row);
      batch["T"].push_back(storage::Update::Insert(row));
    }
    for (int i = 0; i < 20; ++i) {
      storage::Tuple row = {Value(Tag("y", i)), Value(Tag("v", i % 3))};
      ref_db["Tiny"].push_back(row);
      batch["Tiny"].push_back(storage::Update::Insert(row));
    }
    auto epoch = dep->Publish(0, std::move(batch));
    ASSERT_TRUE(epoch.ok());
    db_epoch = *epoch;

    catalog = [this](const std::string& name) {
      return dep->storage(0).Relation(name);
    };
    stats["R"] = RelationStats{400, 20, {}};
    stats["S"] = RelationStats{30, 12, {}};
    stats["T"] = RelationStats{500, 24, {}};
    stats["Tiny"] = RelationStats{20, 12, {}};
  }

  void CheckSql(const std::string& text) {
    auto q = sql::ParseAndAnalyze(text, catalog);
    ASSERT_TRUE(q.ok()) << text << ": " << q.status().ToString();
    CostParams params;
    params.num_nodes = dep->size();
    Optimizer opt(stats, params);
    auto planned = opt.Plan(*q);
    ASSERT_TRUE(planned.ok()) << text << ": " << planned.status().ToString();
    plan = planned->plan;

    auto distributed = dep->ExecuteQuery(1, planned->plan, db_epoch);
    ASSERT_TRUE(distributed.ok()) << text << ": " << distributed.status().ToString();
    auto expected = query::ReferenceExecute(planned->plan, ref_db);
    ASSERT_TRUE(expected.ok()) << text;
    EXPECT_TRUE(query::SameBagApprox(distributed->rows, *expected))
        << text << "\ndistributed=" << distributed->rows.size()
        << " reference=" << expected->size() << "\nplan:\n"
        << planned->plan.ToString();
  }

  /// Whether the last plan CheckSql ran has an op that `pred` accepts.
  template <typename Pred>
  bool PlanHas(Pred pred) const {
    return std::any_of(plan.ops.begin(), plan.ops.end(), pred);
  }

  std::unique_ptr<deploy::Deployment> dep;
  query::ReferenceDatabase ref_db;
  storage::Epoch db_epoch = 0;
  CatalogView catalog;
  StatsCatalog stats;
  query::PhysicalPlan plan;  // the last one CheckSql ran
};

TEST_F(SqlEndToEnd, Copy) { CheckSql("SELECT x, y FROM R"); }

TEST_F(SqlEndToEnd, SelectWithPredicate) {
  CheckSql("SELECT id, grp FROM T WHERE id < 100");
}

TEST_F(SqlEndToEnd, KeyJoin) { CheckSql("SELECT x, z FROM R, S WHERE R.y = S.y"); }

TEST_F(SqlEndToEnd, JoinWithFilter) {
  CheckSql("SELECT x, z FROM R, S WHERE R.y = S.y AND z = 'z1'");
}

TEST_F(SqlEndToEnd, GroupByCount) {
  CheckSql("SELECT grp, COUNT(*) FROM T GROUP BY grp");
}

TEST_F(SqlEndToEnd, GroupByMultipleAggs) {
  CheckSql(
      "SELECT grp, SUM(val), MIN(val), MAX(val), COUNT(*) FROM T GROUP BY grp");
}

TEST_F(SqlEndToEnd, AvgDecomposition) {
  CheckSql("SELECT grp, AVG(val) FROM T GROUP BY grp");
}

TEST_F(SqlEndToEnd, GlobalAggregateNoGroups) {
  CheckSql("SELECT COUNT(*), SUM(val) FROM T");
}

TEST_F(SqlEndToEnd, ComputeInSelect) {
  CheckSql("SELECT CONCAT(x, y), x FROM R");
}

TEST_F(SqlEndToEnd, ArithmeticInAggArg) {
  CheckSql("SELECT grp, SUM(val * 2.0 + 1.0) FROM T GROUP BY grp");
}

TEST_F(SqlEndToEnd, OrderByLimit) {
  CheckSql("SELECT id, val FROM T WHERE id < 50 ORDER BY id DESC LIMIT 7");
}

TEST_F(SqlEndToEnd, RunningExampleViaSql) {
  CheckSql("SELECT x, MIN(z) FROM R, S WHERE R.y = S.y GROUP BY x");
}

TEST_F(SqlEndToEnd, KeyOnlyQueryRunsACoveringScan) {
  CheckSql("SELECT x FROM R");
  EXPECT_TRUE(PlanHas([](const query::PhysOp& op) {
    return op.kind == query::OpKind::kCoveringScan;
  })) << plan.ToString();
}

TEST_F(SqlEndToEnd, JoinWithAReplicatedRelationRunsABroadcastScan) {
  CheckSql("SELECT x, v FROM R, Tiny WHERE R.y = Tiny.k");
  EXPECT_TRUE(PlanHas([](const query::PhysOp& op) { return op.broadcast_local; }))
      << plan.ToString();
}

}  // namespace
}  // namespace orchestra
