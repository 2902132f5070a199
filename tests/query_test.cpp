#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "common/strings.h"
#include "deploy/deployment.h"
#include "query/expr.h"
#include "query/plan.h"
#include "query/reference.h"
#include "query/service.h"
#include "storage/keys.h"

namespace orchestra::query {
namespace {

using storage::RelationDef;
using storage::Schema;
using storage::Update;
using storage::UpdateBatch;
using storage::ValueType;

Value S(const std::string& s) { return Value(s); }
Value I(int64_t i) { return Value(i); }

// ---------------------------------------------------------------------------
// Expressions

TEST(Expr, ArithmeticAndComparison) {
  Tuple row = {I(10), I(3), Value(2.5)};
  EXPECT_EQ(Expr::Arith('+', Expr::Column(0), Expr::Column(1)).Eval(row), I(13));
  EXPECT_EQ(Expr::Arith('*', Expr::Column(0), Expr::Column(2)).Eval(row), Value(25.0));
  EXPECT_EQ(Expr::Arith('/', Expr::Column(0), Expr::Column(1)).Eval(row), I(3));
  EXPECT_TRUE(Expr::Compare('<', Expr::Column(1), Expr::Column(0)).EvalBool(row));
  EXPECT_FALSE(Expr::Compare('=', Expr::Column(0), Expr::Column(1)).EvalBool(row));
  EXPECT_TRUE(Expr::Compare('G', Expr::Column(0), Expr::Literal(I(10))).EvalBool(row));
}

TEST(Expr, DivisionByZeroIsNull) {
  Tuple row = {I(5), I(0)};
  EXPECT_TRUE(Expr::Arith('/', Expr::Column(0), Expr::Column(1)).Eval(row).is_null());
}

TEST(Expr, LogicOps) {
  Tuple row = {I(1), I(0)};
  auto t = Expr::Compare('=', Expr::Column(0), Expr::Literal(I(1)));
  auto f = Expr::Compare('=', Expr::Column(1), Expr::Literal(I(1)));
  EXPECT_TRUE(Expr::And(t, t).EvalBool(row));
  EXPECT_FALSE(Expr::And(t, f).EvalBool(row));
  EXPECT_TRUE(Expr::Or(f, t).EvalBool(row));
  EXPECT_TRUE(Expr::Not(f).EvalBool(row));
}

TEST(Expr, NullComparesFalse) {
  Tuple row = {Value::Null(), I(1)};
  EXPECT_FALSE(Expr::Compare('=', Expr::Column(0), Expr::Column(1)).EvalBool(row));
  EXPECT_FALSE(Expr::Compare('<', Expr::Column(0), Expr::Column(1)).EvalBool(row));
}

TEST(Expr, ConcatStrings) {
  Tuple row = {S("ab"), S("cd"), I(7)};
  Value v = Expr::Concat({Expr::Column(0), Expr::Column(1), Expr::Column(2)}).Eval(row);
  EXPECT_EQ(v, S("abcd7"));
}

TEST(Expr, EncodeDecodeRoundTrip) {
  Expr e = Expr::And(
      Expr::Compare('<', Expr::Column(2), Expr::Literal(Value(3.5))),
      Expr::Or(Expr::Compare('=', Expr::Column(0), Expr::Literal(S("x"))),
               Expr::Not(Expr::Compare('>', Expr::Arith('+', Expr::Column(1),
                                                        Expr::Literal(I(5))),
                                       Expr::Literal(I(10))))));
  Writer w;
  e.EncodeTo(&w);
  Reader r(w.data());
  Expr back;
  ASSERT_TRUE(Expr::DecodeFrom(&r, &back).ok());
  EXPECT_EQ(back.ToString(), e.ToString());
  Tuple row = {S("x"), I(2), Value(1.0)};
  EXPECT_EQ(back.EvalBool(row), e.EvalBool(row));
}

TEST(AggStateTest, SumMinMaxCount) {
  AggState sum(AggFn::kSum), mn(AggFn::kMin), mx(AggFn::kMax), cnt(AggFn::kCount);
  for (int64_t v : {5, 1, 9, 3}) {
    sum.Update(I(v));
    mn.Update(I(v));
    mx.Update(I(v));
    cnt.Update(I(v));
  }
  EXPECT_EQ(sum.Finish(), I(18));
  EXPECT_EQ(mn.Finish(), I(1));
  EXPECT_EQ(mx.Finish(), I(9));
  EXPECT_EQ(cnt.Finish(), I(4));
}

TEST(AggStateTest, MergeReaggregatesPartials) {
  // Two partial COUNTs of 3 and 4 merge to 7 (not 2).
  AggState total(AggFn::kCount);
  total.Merge(I(3));
  total.Merge(I(4));
  EXPECT_EQ(total.Finish(), I(7));
  AggState sum(AggFn::kSum);
  sum.Merge(I(10));
  sum.Merge(I(5));
  EXPECT_EQ(sum.Finish(), I(15));
  AggState mn(AggFn::kMin);
  mn.Merge(I(4));
  mn.Merge(I(2));
  EXPECT_EQ(mn.Finish(), I(2));
}

// ---------------------------------------------------------------------------
// Plan construction helpers

struct PlanBuilder {
  PhysicalPlan plan;

  int32_t Add(PhysOp op) {
    op.id = static_cast<int32_t>(plan.ops.size());
    plan.ops.push_back(std::move(op));
    return plan.ops.back().id;
  }
  int32_t Scan(const std::string& rel, bool broadcast = false) {
    PhysOp op;
    op.kind = OpKind::kScan;
    op.relation = rel;
    op.broadcast_local = broadcast;
    return Add(op);
  }
  int32_t CoveringScan(const std::string& rel) {
    PhysOp op;
    op.kind = OpKind::kCoveringScan;
    op.relation = rel;
    return Add(op);
  }
  int32_t Select(int32_t child, Expr pred) {
    PhysOp op;
    op.kind = OpKind::kSelect;
    op.children = {child};
    op.predicate = std::move(pred);
    return Add(op);
  }
  int32_t Project(int32_t child, std::vector<int32_t> cols) {
    PhysOp op;
    op.kind = OpKind::kProject;
    op.children = {child};
    op.columns = std::move(cols);
    return Add(op);
  }
  int32_t Compute(int32_t child, std::vector<Expr> exprs) {
    PhysOp op;
    op.kind = OpKind::kCompute;
    op.children = {child};
    op.exprs = std::move(exprs);
    return Add(op);
  }
  int32_t Rehash(int32_t child, std::vector<int32_t> cols) {
    PhysOp op;
    op.kind = OpKind::kRehash;
    op.children = {child};
    op.hash_cols = std::move(cols);
    return Add(op);
  }
  int32_t Join(int32_t left, int32_t right, std::vector<int32_t> lk,
               std::vector<int32_t> rk) {
    PhysOp op;
    op.kind = OpKind::kHashJoin;
    op.children = {left, right};
    op.left_keys = std::move(lk);
    op.right_keys = std::move(rk);
    return Add(op);
  }
  int32_t Aggregate(int32_t child, std::vector<int32_t> group,
                    std::vector<AggSpec> aggs, bool merge = false) {
    PhysOp op;
    op.kind = OpKind::kAggregate;
    op.children = {child};
    op.group_cols = std::move(group);
    op.aggs = std::move(aggs);
    op.merge_partials = merge;
    return Add(op);
  }
  PhysicalPlan Ship(int32_t child) {
    PhysOp op;
    op.kind = OpKind::kShip;
    op.children = {child};
    plan.root = Add(op);
    return plan;
  }
};

// ---------------------------------------------------------------------------
// Cluster fixture with two relations.

class QueryClusterTest : public ::testing::Test {
 protected:
  void Deploy(size_t nodes, uint64_t seed = 7) {
    deploy::DeploymentOptions opts;
    opts.num_nodes = nodes;
    opts.replication = 3;
    dep = std::make_unique<deploy::Deployment>(opts);

    RelationDef r;
    r.name = "R";
    r.schema = Schema({{"x", ValueType::kString}, {"y", ValueType::kString}}, 1);
    r.num_partitions = 8;
    RelationDef s;
    s.name = "S";
    s.schema = Schema({{"y", ValueType::kString}, {"z", ValueType::kString}}, 1);
    s.num_partitions = 8;
    ASSERT_TRUE(dep->CreateRelation(0, r).ok());
    ASSERT_TRUE(dep->CreateRelation(0, s).ok());
    (void)seed;
  }

  void LoadRows(const std::string& rel, const std::vector<Tuple>& rows) {
    UpdateBatch batch;
    for (const Tuple& t : rows) batch[rel].push_back(Update::Insert(t));
    auto epoch = dep->Publish(0, std::move(batch));
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    db_epoch = *epoch;
    ref_db[rel] = rows;
  }

  /// Leak regression: once 1 s of sim time lets the kAbort round land, no
  /// live node still holds a worker-side execution.
  void ExpectNoExecsLeft() {
    dep->RunFor(1 * sim::kMicrosPerSec);
    for (size_t i = 0; i < dep->size(); ++i) {
      if (!dep->IsAlive(static_cast<net::NodeId>(i))) continue;
      EXPECT_EQ(dep->query(i).active_exec_count(), 0u) << "node " << i;
    }
  }

  /// R joined with S on y, with a Select and a Project above each scan, so
  /// that both scans have a shape: R filters on x and keeps y twice (the
  /// first copy is copied, the last moved); S filters on y and leaves its
  /// string column z unread.
  static PhysicalPlan ShapedJoinPlan() {
    PlanBuilder b;
    int32_t r = b.Project(
        b.Select(b.Scan("R"), Expr::Compare('>', Expr::Column(0), Expr::Literal(S("rk5")))),
        {1, 1});
    int32_t s = b.Project(
        b.Select(b.Scan("S"), Expr::Compare('!', Expr::Column(0), Expr::Literal(S("j3")))),
        {0});
    int32_t join = b.Join(b.Rehash(r, {0}), s, {0}, {0});
    return b.Ship(join);
  }

  std::unique_ptr<deploy::Deployment> dep;
  ReferenceDatabase ref_db;
  storage::Epoch db_epoch = 0;
};

TEST_F(QueryClusterTest, CopyQueryReturnsAllRows) {
  Deploy(4);
  std::vector<Tuple> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({S(Tag("k", i)), S(Tag("v", i % 7))});
  }
  LoadRows("R", rows);

  PlanBuilder b;
  PhysicalPlan plan = b.Ship(b.Scan("R"));
  auto result = dep->ExecuteQuery(0, plan, db_epoch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto expect = ReferenceExecute(plan, ref_db);
  ASSERT_TRUE(expect.ok());
  EXPECT_TRUE(SameBag(result->rows, *expect));
  EXPECT_EQ(result->rows.size(), 200u);
  ExpectNoExecsLeft();
}

// Under 5% message drops a read returns every row or fails. A lost block or
// fetch is caught by the count in the EOS frame after it (Unavailable); a
// lost EOS, plan or abort frame waits out the deadline (TimedOut). A scan
// spills over (eight partitions straddle five nodes' ranges), so all three
// counted edges carry frames.
TEST_F(QueryClusterTest, ReadsUnderMessageDropsReturnEveryRowOrFail) {
  Deploy(5);
  std::vector<Tuple> rows;
  for (int i = 0; i < 3000; ++i) rows.push_back({S(Tag("k", i)), S(Tag("v", i % 7))});
  LoadRows("R", rows);
  int ok = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    dep->network().SeedFaults(seed);
    net::FaultOptions faults;
    faults.drop_prob = 0.05;
    dep->network().SetFaultOptions(faults);
    for (size_t via = 0; via < dep->size(); ++via) {
      auto read = dep->Retrieve(via, "R", db_epoch);
      if (!read.ok()) {
        EXPECT_TRUE(read.status().code() == Status::Code::kUnavailable ||
                    read.status().code() == Status::Code::kTimedOut)
            << read.status().ToString();
        continue;
      }
      ok += 1;
      EXPECT_TRUE(SameBag(*read, rows))
          << "seed " << seed << " via " << via << ": OK read of " << read->size() << " rows";
    }
  }
  dep->network().SetFaultOptions({});
  EXPECT_GT(ok, 0);
}

// The query epoch is explicit: epoch 0 is the relations' creation epoch (an
// empty snapshot), never an implicit "latest", even on the node that just
// published.
TEST_F(QueryClusterTest, EpochZeroReadsCreationSnapshotNotLatest) {
  Deploy(4);
  LoadRows("R", {{S("a"), S("1")}, {S("b"), S("2")}});
  ASSERT_GT(db_epoch, 0u);

  PlanBuilder b;
  PhysicalPlan plan = b.Ship(b.Scan("R"));
  auto at_creation = dep->ExecuteQuery(0, plan, 0);
  ASSERT_TRUE(at_creation.ok()) << at_creation.status().ToString();
  EXPECT_TRUE(at_creation->rows.empty());

  auto at_publish = dep->ExecuteQuery(0, plan, db_epoch);
  ASSERT_TRUE(at_publish.ok()) << at_publish.status().ToString();
  EXPECT_EQ(at_publish->rows.size(), 2u);
}

TEST_F(QueryClusterTest, SelectPushesPredicate) {
  Deploy(4);
  std::vector<Tuple> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back({S(Tag("k", i)), S(i % 2 ? "odd" : "even")});
  }
  LoadRows("R", rows);

  PlanBuilder b;
  int32_t scan = b.Scan("R");
  int32_t sel = b.Select(scan, Expr::Compare('=', Expr::Column(1),
                                             Expr::Literal(S("odd"))));
  PhysicalPlan plan = b.Ship(sel);
  auto result = dep->ExecuteQuery(1, plan, db_epoch);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 50u);
  for (const Tuple& t : result->rows) EXPECT_EQ(t[1], S("odd"));
}

TEST_F(QueryClusterTest, ProjectAndCompute) {
  Deploy(3);
  LoadRows("R", {{S("a"), S("1")}, {S("b"), S("2")}});

  PlanBuilder b;
  int32_t scan = b.Scan("R");
  int32_t comp = b.Compute(scan, {Expr::Concat({Expr::Column(0), Expr::Column(1)})});
  PhysicalPlan plan = b.Ship(comp);
  auto result = dep->ExecuteQuery(0, plan, db_epoch);
  ASSERT_TRUE(result.ok());
  std::multiset<std::string> got;
  for (const Tuple& t : result->rows) got.insert(t[0].AsString());
  EXPECT_EQ(got, (std::multiset<std::string>{"a1", "b2"}));
}

TEST_F(QueryClusterTest, CoveringScanReadsKeysOnly) {
  Deploy(4);
  std::vector<Tuple> rows;
  for (int i = 0; i < 60; ++i) rows.push_back({S(Tag("key", i)), S("pay")});
  LoadRows("R", rows);

  PlanBuilder b;
  PhysicalPlan plan = b.Ship(b.CoveringScan("R"));
  auto result = dep->ExecuteQuery(2, plan, db_epoch);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 60u);
  std::set<std::string> keys;
  for (const Tuple& t : result->rows) {
    ASSERT_EQ(t.size(), 1u);  // only the key attribute
    keys.insert(t[0].AsString());
  }
  EXPECT_EQ(keys.size(), 60u);
}

// The paper's running example (Example 5.1 / Fig. 6):
//   SELECT x, MIN(z) FROM R, S WHERE R.y = S.y GROUP BY x
// R is rehashed on y; S is already partitioned on its key y, so it feeds the
// join without a rehash. The group-by needs one more rehash on x, partial
// aggregation, then shipping to the initiator for re-aggregation.
PhysicalPlan RunningExamplePlan() {
  PlanBuilder b;
  int32_t scan_r = b.Scan("R");
  int32_t rehash_r = b.Rehash(scan_r, {1});          // R rehashed on y
  int32_t scan_s = b.Scan("S");                      // co-partitioned on y
  int32_t join = b.Join(rehash_r, scan_s, {1}, {0});  // R.y = S.y
  // join output: R.x, R.y, S.y, S.z
  int32_t rehash_x = b.Rehash(join, {0});
  AggSpec min_z;
  min_z.fn = AggFn::kMin;
  min_z.has_arg = true;
  min_z.arg = Expr::Column(3);
  int32_t agg = b.Aggregate(rehash_x, {0}, {min_z});
  PhysicalPlan plan = b.Ship(agg);
  // Final stage: re-aggregate partials at the initiator.
  plan.final_stage.has_agg = true;
  plan.final_stage.group_cols = {0};
  AggSpec merge_min = min_z;
  merge_min.arg = Expr::Column(1);
  plan.final_stage.aggs = {merge_min};
  return plan;
}

TEST_F(QueryClusterTest, PaperRunningExample) {
  Deploy(3);
  LoadRows("R", {{S("a"), S("b")}, {S("c"), S("d")}});
  LoadRows("S", {{S("b"), S("j")}, {S("f"), S("k")}, {S("b"), S("m")}});
  // Note: S's key is y, so the two S tuples with y="b" collapse under key
  // semantics; use distinct keys instead.
  ref_db["S"] = {{S("b"), S("j")}, {S("f"), S("k")}};
  UpdateBatch fix;
  fix["S"] = {Update::Insert({S("b"), S("j")}), Update::Insert({S("f"), S("k")})};
  auto e = dep->Publish(0, std::move(fix));
  ASSERT_TRUE(e.ok());
  db_epoch = *e;

  PhysicalPlan plan = RunningExamplePlan();
  auto result = dep->ExecuteQuery(0, plan, db_epoch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // R(a,b) joins S(b,j) -> group x=a, MIN(z)=j. R(c,d) joins nothing.
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], S("a"));
  EXPECT_EQ(result->rows[0][1], S("j"));
}

// Counts the query frames one node receives, by code and by edge, and the
// page entries its kQueryFetch frames carry. Checks every EOS frame's count
// against the frames of its edge that arrived before it: kDataBlock for
// kEosMarker, kQueryFetch for kScanPartDone, kShipBlock for kShipEos (it
// keys nothing by query, so it watches one query). With `forge` set, the
// first EOS frame of that code from `forge_from` announces one frame more
// than its sender sent. Hands every message on to the node's own NodeHost.
class EdgeCountTap : public net::MessageHandler {
 public:
  EdgeCountTap(deploy::Deployment* dep, net::NodeId node) : dep_(dep), node_(node) {
    dep_->network().SetHandler(node_, this);
  }
  ~EdgeCountTap() override { dep_->network().SetHandler(node_, &dep_->host(node_)); }

  void OnMessage(net::NodeId from, uint32_t type, const std::string& payload) override {
    if ((type >> 16) != static_cast<uint32_t>(net::ServiceId::kQuery)) {
      dep_->host(node_).OnMessage(from, type, payload);
      return;
    }
    const auto code = static_cast<uint16_t>(type & 0xffff);
    by_code[code] += 1;
    std::string forged;  // the frame as handed on, when rewritten
    Reader r(payload);
    uint64_t qid = 0;
    uint32_t op = 0, phase = 0, frames = 0;
    TupleBlock block;
    switch (code) {
      case QueryService::kDataBlock:
      case QueryService::kShipBlock:
        EXPECT_TRUE(TupleBlock::Decode(payload, &block).ok());
        arrived[{from, code, code == QueryService::kDataBlock ? block.dest_op : -1}] += 1;
        break;
      case QueryService::kQueryFetch: {
        // u64 qid | varint32 op | varint32 phase | string rel | entry list
        std::string rel;
        EXPECT_TRUE(r.GetU64(&qid).ok() && r.GetVarint32(&op).ok() &&
                    r.GetVarint32(&phase).ok() && r.GetString(&rel).ok());
        storage::EntryReader entries = storage::EntryReader::List(&r);
        storage::EntryView e;
        while (entries.Next(&e)) ++fetched_entries;
        EXPECT_TRUE(entries.status().ok()) << entries.status().ToString();
        arrived[{from, code, static_cast<int32_t>(op)}] += 1;
        break;
      }
      case QueryService::kEosMarker:
      case QueryService::kScanPartDone:
      case QueryService::kShipEos: {
        bool ship = code == QueryService::kShipEos;
        EXPECT_TRUE(r.GetU64(&qid).ok() && (ship || r.GetVarint32(&op).ok()) &&
                    r.GetVarint32(&phase).ok() && r.GetVarint32(&frames).ok());
        uint16_t edge = code == QueryService::kEosMarker  ? QueryService::kDataBlock
                        : code == QueryService::kShipEos ? QueryService::kShipBlock
                                                          : QueryService::kQueryFetch;
        const auto key = std::make_tuple(from, edge, ship ? -1 : static_cast<int32_t>(op));
        EXPECT_EQ(frames, arrived[key]) << "code " << code << " from " << from << " op " << op;
        eos_checked[code] += 1;
        if (frames > 0) eos_counting[code] += 1;
        if (code == forge && from == forge_from) {
          forge = 0;
          Writer w;
          w.PutU64(qid);
          if (!ship) w.PutVarint32(op);
          w.PutVarint32(phase);
          w.PutVarint32(frames + 1);
          forged = w.Release();
        }
        break;
      }
    }
    dep_->host(node_).OnMessage(from, type, forged.empty() ? payload : forged);
  }
  void OnConnectionDrop(net::NodeId peer) override {
    dep_->host(node_).OnConnectionDrop(peer);
  }

  uint16_t forge = 0;
  net::NodeId forge_from = net::kInvalidNode;
  std::map<uint16_t, uint64_t> by_code;
  /// Page entries the kQueryFetch frames carried.
  uint64_t fetched_entries = 0;
  /// EOS frames checked, and those among them that counted a frame.
  std::map<uint16_t, uint64_t> eos_checked, eos_counting;

 private:
  deploy::Deployment* dep_;
  net::NodeId node_;
  /// Frames arrived per (sender, code, op); -1 stands for the ship edge.
  std::map<std::tuple<net::NodeId, uint16_t, int32_t>, uint32_t> arrived;
};

TEST_F(QueryClusterTest, JoinMatchesReferenceOnRandomData) {
  Deploy(5);
  Rng rng(99);
  std::vector<Tuple> r_rows, s_rows;
  for (int i = 0; i < 300; ++i) {
    r_rows.push_back({S(Tag("rk", i)),
                      S(Tag("j", rng.Uniform(40)))});
  }
  for (int i = 0; i < 150; ++i) {
    s_rows.push_back({S(Tag("j", rng.Uniform(40))),
                      S(Tag("z", i))});
  }
  // S's key is column 0 (the join attribute); keys must be unique.
  std::map<std::string, Tuple> uniq;
  for (auto& t : s_rows) uniq[t[0].AsString()] = t;
  s_rows.clear();
  for (auto& [k, t] : uniq) s_rows.push_back(t);

  LoadRows("R", r_rows);
  LoadRows("S", s_rows);

  PlanBuilder b;
  int32_t scan_r = b.Scan("R");
  int32_t rehash_r = b.Rehash(scan_r, {1});
  int32_t scan_s = b.Scan("S");
  int32_t join = b.Join(rehash_r, scan_s, {1}, {0});
  PhysicalPlan plain = b.Ship(join);

  // The second plan's scans have shapes: the rows their data nodes read
  // for them (kQueryFetch) enter through the shape too.
  for (const PhysicalPlan& plan : {plain, ShapedJoinPlan()}) {
    SCOPED_TRACE(plan.ToString());
    // Eight partitions over five nodes straddle node ranges: an index node
    // sends the entries other nodes own to them (kQueryFetch), each read
    // there by key.
    std::vector<std::unique_ptr<EdgeCountTap>> taps;
    for (size_t n = 0; n < dep->size(); ++n) {
      taps.push_back(std::make_unique<EdgeCountTap>(dep.get(), static_cast<net::NodeId>(n)));
    }
    auto result = dep->ExecuteQuery(3, plan, db_epoch);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto expect = ReferenceExecute(plan, ref_db);
    ASSERT_TRUE(expect.ok());
    EXPECT_GT(expect->size(), 0u);
    EXPECT_TRUE(SameBag(result->rows, *expect))
        << "distributed=" << result->rows.size() << " reference=" << expect->size();
    uint64_t frames = 0, entries = 0;
    for (const auto& tap : taps) {
      frames += tap->by_code[QueryService::kQueryFetch];
      entries += tap->fetched_entries;
    }
    EXPECT_GT(frames, 0u);
    EXPECT_GE(entries, frames);
  }
}

TEST_F(QueryClusterTest, DoubleRehashJoinBothSides) {
  Deploy(4);
  Rng rng(123);
  std::vector<Tuple> r_rows, s_rows;
  for (int i = 0; i < 200; ++i) {
    r_rows.push_back({S(Tag("rk", i)),
                      S(Tag("v", rng.Uniform(25)))});
    s_rows.push_back({S(Tag("sk", i)),
                      S(Tag("v", rng.Uniform(25)))});
  }
  LoadRows("R", r_rows);
  LoadRows("S", s_rows);

  // Join on the NON-key attributes of both relations: both sides rehash.
  PlanBuilder b;
  int32_t rehash_r = b.Rehash(b.Scan("R"), {1});
  int32_t rehash_s = b.Rehash(b.Scan("S"), {1});
  int32_t join = b.Join(rehash_r, rehash_s, {1}, {1});
  PhysicalPlan plan = b.Ship(join);

  auto result = dep->ExecuteQuery(0, plan, db_epoch);
  ASSERT_TRUE(result.ok());
  auto expect = ReferenceExecute(plan, ref_db);
  ASSERT_TRUE(expect.ok());
  EXPECT_TRUE(SameBag(result->rows, *expect));
  EXPECT_GT(result->rows.size(), 0u);
}

// One join with a rehash on both sides: no frame is acked, and every EOS
// frame (rehash EOS, scan part-done, ship EOS) carries exactly the number of
// frames of its edge that reached its receiver before it.
TEST_F(QueryClusterTest, EveryEosFrameCountsTheFramesOfItsEdge) {
  Deploy(5);
  Rng rng(123);
  std::vector<Tuple> r_rows, s_rows;
  for (int i = 0; i < 600; ++i) {
    r_rows.push_back({S(Tag("rk", i)), S(Tag("v", rng.Uniform(100)))});
    s_rows.push_back({S(Tag("sk", i)), S(Tag("v", rng.Uniform(100)))});
  }
  LoadRows("R", r_rows);
  LoadRows("S", s_rows);
  PlanBuilder b;
  int32_t rehash_r = b.Rehash(b.Scan("R"), {1});
  int32_t rehash_s = b.Rehash(b.Scan("S"), {1});
  PhysicalPlan plan = b.Ship(b.Join(rehash_r, rehash_s, {1}, {1}));

  std::vector<std::unique_ptr<EdgeCountTap>> taps;
  for (size_t n = 0; n < dep->size(); ++n) {
    taps.push_back(std::make_unique<EdgeCountTap>(dep.get(), static_cast<net::NodeId>(n)));
  }
  auto result = dep->ExecuteQuery(3, plan, db_epoch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto expect = ReferenceExecute(plan, ref_db);
  ASSERT_TRUE(expect.ok());
  EXPECT_TRUE(SameBag(result->rows, *expect));

  std::map<uint16_t, uint64_t> by_code, checked, counting;
  for (const auto& tap : taps) {
    for (auto [code, n] : tap->by_code) by_code[code] += n;
    for (auto [code, n] : tap->eos_checked) checked[code] += n;
    for (auto [code, n] : tap->eos_counting) counting[code] += n;
  }
  EXPECT_EQ(by_code[QueryService::kBlockAck], 0u);
  // Five members: two rehash ops and two scans each send one EOS frame to
  // every member, and every member ships one EOS to the initiator.
  EXPECT_EQ(checked[QueryService::kEosMarker], 2u * 5 * 5);
  EXPECT_EQ(checked[QueryService::kScanPartDone], 2u * 5 * 5);
  EXPECT_EQ(checked[QueryService::kShipEos], 5u);
  for (uint16_t code : {QueryService::kDataBlock, QueryService::kQueryFetch,
                        QueryService::kShipBlock}) {
    EXPECT_GT(by_code[code], 0u) << "code " << code;
  }
  for (uint16_t code : {QueryService::kEosMarker, QueryService::kScanPartDone,
                        QueryService::kShipEos}) {
    EXPECT_GT(counting[code], 0u) << "code " << code;
  }
  ExpectNoExecsLeft();
}

TEST_F(QueryClusterTest, DistributedAggregationWithReaggregation) {
  Deploy(4);
  Rng rng(5);
  std::vector<Tuple> rows;
  std::map<std::string, int64_t> expect_counts;
  for (int i = 0; i < 500; ++i) {
    std::string g = Tag("g", rng.Uniform(7));
    rows.push_back({S(Tag("k", i)), S(g)});
    expect_counts[g] += 1;
  }
  LoadRows("R", rows);

  PlanBuilder b;
  int32_t rehash = b.Rehash(b.Scan("R"), {1});
  AggSpec count;
  count.fn = AggFn::kCount;
  count.has_arg = false;
  int32_t agg = b.Aggregate(rehash, {1}, {count});
  PhysicalPlan plan = b.Ship(agg);
  plan.final_stage.has_agg = true;
  plan.final_stage.group_cols = {0};
  AggSpec merge = count;
  merge.has_arg = true;
  merge.arg = Expr::Column(1);
  plan.final_stage.aggs = {merge};

  auto result = dep->ExecuteQuery(2, plan, db_epoch);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), expect_counts.size());
  for (const Tuple& t : result->rows) {
    EXPECT_EQ(t[1].AsInt64(), expect_counts[t[0].AsString()]) << t[0].AsString();
  }
}

TEST_F(QueryClusterTest, HistoricalQuerySeesOldEpoch) {
  Deploy(3);
  LoadRows("R", {{S("a"), S("old")}});
  storage::Epoch e1 = db_epoch;
  UpdateBatch upd;
  upd["R"] = {Update::Insert({S("a"), S("new")}), Update::Insert({S("b"), S("x")})};
  auto e2 = dep->Publish(0, std::move(upd));
  ASSERT_TRUE(e2.ok());

  PlanBuilder b;
  PhysicalPlan plan = b.Ship(b.Scan("R"));
  auto old_result = dep->ExecuteQuery(0, plan, e1);
  ASSERT_TRUE(old_result.ok());
  ASSERT_EQ(old_result->rows.size(), 1u);
  EXPECT_EQ(old_result->rows[0][1], S("old"));

  PlanBuilder b2;
  PhysicalPlan plan2 = b2.Ship(b2.Scan("R"));
  auto new_result = dep->ExecuteQuery(0, plan2, *e2);
  ASSERT_TRUE(new_result.ok());
  EXPECT_EQ(new_result->rows.size(), 2u);
}

TEST_F(QueryClusterTest, FinalStageSortAndLimit) {
  Deploy(3);
  LoadRows("R", {{S("c"), S("3")}, {S("a"), S("1")}, {S("d"), S("4")}, {S("b"), S("2")}});
  PlanBuilder b;
  PhysicalPlan plan = b.Ship(b.Scan("R"));
  plan.final_stage.sort = {{0, true}};
  plan.final_stage.limit = 2;
  auto result = dep->ExecuteQuery(0, plan, db_epoch);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0], S("a"));
  EXPECT_EQ(result->rows[1][0], S("b"));
}

// ---------------------------------------------------------------------------
// A scan read that no replica can serve fails the query with a Status: the
// query never returns a partial answer, and leaves nothing behind.

class ScanFailureTest : public QueryClusterTest {
 protected:
  void Load200() {
    Deploy(4);
    std::vector<Tuple> rows;
    for (int i = 0; i < 200; ++i) rows.push_back({S(Tag("k", i)), S(Tag("v", i % 7))});
    LoadRows("R", rows);
  }

  void DeleteEverywhere(const std::string& key) {
    for (size_t i = 0; i < dep->size(); ++i) {
      ASSERT_TRUE(dep->storage(i).store().Delete(key).ok());
    }
  }

  /// Retrieve and Ship(Scan(R)) both fail, and once the kAbort round has
  /// landed no node holds a root, an execution or a buffered frame.
  void ExpectScanFails() {
    EXPECT_FALSE(dep->Retrieve(0, "R", db_epoch).ok());
    PlanBuilder b;
    auto result = dep->ExecuteQuery(0, b.Ship(b.Scan("R")), db_epoch);
    EXPECT_FALSE(result.ok()) << "returned " << result->rows.size() << " rows";
    dep->RunFor(1 * sim::kMicrosPerSec);
    for (size_t i = 0; i < dep->size(); ++i) {
      EXPECT_EQ(dep->query(i).active_root_count(), 0u) << "node " << i;
      EXPECT_EQ(dep->query(i).active_exec_count(), 0u) << "node " << i;
      EXPECT_EQ(dep->query(i).buffered_message_count(), 0u) << "node " << i;
    }
  }
};

TEST_F(ScanFailureTest, PageMissingFromEveryReplicaFailsTheQuery) {
  Load200();
  storage::PageId page;  // the first page R's coordinator lists at db_epoch
  for (size_t i = 0; i < dep->size() && page.relation.empty(); ++i) {
    auto rec = dep->storage(i).ReadCoordinatorLocal("R", db_epoch);
    if (rec.ok() && !rec->pages.empty()) page = rec->pages.front().id;
  }
  ASSERT_FALSE(page.relation.empty());
  DeleteEverywhere(storage::keys::PageRec(page.relation, page.epoch, page.partition));
  ExpectScanFails();
}

TEST_F(ScanFailureTest, TupleVersionMissingFromEveryReplicaFailsTheQuery) {
  Load200();
  auto it = dep->storage(0).store().SeekPrefix(storage::keys::DataPrefix("R"));
  ASSERT_TRUE(it.Valid());
  DeleteEverywhere(std::string(it.key()));
  ExpectScanFails();
}

// Query frames are one-way: with every frame from a worker to the initiator
// lost, the query still resolves, TimedOut at kQueryDeadlineUs, and the
// kAbort round then releases every execution.
TEST_F(ScanFailureTest, LostWorkerFramesEndAtTheQueryDeadline) {
  Load200();
  dep->network().SetDropOverride(/*from=*/2, /*to=*/0, 1.0);
  PlanBuilder b;
  const sim::SimTime start = dep->sim().now();
  Pending<QueryResult> p = dep->session(0).Query(b.Ship(b.Scan("R")), db_epoch);
  dep->RunUntil([&p] { return p.done(); }, 2 * kQueryDeadlineUs);
  ASSERT_TRUE(p.done()) << "the query never resolved";
  EXPECT_EQ(p.status().code(), Status::Code::kTimedOut) << p.status().ToString();
  EXPECT_EQ(dep->sim().now() - start, kQueryDeadlineUs);
  EXPECT_EQ(dep->query(0).active_root_count(), 0u);
  ExpectNoExecsLeft();
}

// A worker whose kAbort is lost releases its execution kQueryDeadlineUs after
// its plan arrived, by when the root has resolved whatever its outcome.
TEST_F(ScanFailureTest, WorkerReleasesItsExecutionWhenTheAbortIsLost) {
  Load200();
  PlanBuilder b;
  Pending<QueryResult> p = dep->session(0).Query(b.Ship(b.Scan("R")), db_epoch);
  ASSERT_TRUE(dep->RunUntil([this] { return dep->query(2).active_exec_count() == 1; }));
  const sim::SimTime plan_arrived = dep->sim().now();
  dep->network().SetDropOverride(/*from=*/0, /*to=*/2, 1.0);
  ASSERT_TRUE(dep->RunUntil([&p] { return p.done(); }, 2 * kQueryDeadlineUs));
  dep->RunUntil([this] { return dep->query(2).active_exec_count() == 0; },
                2 * kQueryDeadlineUs);
  EXPECT_EQ(dep->query(2).active_exec_count(), 0u);
  EXPECT_EQ(dep->sim().now() - plan_arrived, kQueryDeadlineUs);
}

// ---------------------------------------------------------------------------
// Failure handling (§V-C, §V-D)

class RecoveryTest : public QueryClusterTest {
 protected:
  // Loads enough data that queries take measurable simulated time.
  void LoadBulk(int n_r, int n_s, uint64_t seed = 17) {
    Rng rng(seed);
    std::vector<Tuple> r_rows, s_rows;
    for (int i = 0; i < n_r; ++i) {
      r_rows.push_back({S(Tag("rk", i)),
                        S(Tag("j", rng.Uniform(50)))});
    }
    for (int i = 0; i < n_s; ++i) {
      s_rows.push_back({S(Tag("j", i % 50)),
                        S(Tag("z", i))});
    }
    std::map<std::string, Tuple> uniq;
    for (auto& t : s_rows) uniq[t[0].AsString()] = t;
    s_rows.clear();
    for (auto& [k, t] : uniq) s_rows.push_back(t);
    LoadRows("R", r_rows);
    LoadRows("S", s_rows);
  }

  PhysicalPlan JoinPlan() {
    PlanBuilder b;
    int32_t rehash_r = b.Rehash(b.Scan("R"), {1});
    int32_t join = b.Join(rehash_r, b.Scan("S"), {1}, {0});
    return b.Ship(join);
  }

  /// Measures the failure-free runtime of `plan` (the deployment state is
  /// unchanged by read-only queries), so failures can be injected at a
  /// fraction of it deterministically.
  sim::SimTime CalibrateRuntime(const PhysicalPlan& plan, size_t via = 0) {
    auto base = dep->ExecuteQuery(via, plan, db_epoch);
    EXPECT_TRUE(base.ok()) << base.status().ToString();
    return base.ok() ? base->execution_us : 0;
  }

  struct FailureRun {
    Status status;
    QueryResult result;
    bool injected = false;
  };

  /// Starts `plan`, injects a failure of `victim` at `fraction` of the
  /// calibrated runtime (at 0, before any event of the query runs), and
  /// drives to completion.
  FailureRun RunWithFailureAt(const PhysicalPlan& plan, net::NodeId victim,
                              double fraction, QueryOptions opts = {},
                              bool hang = false, size_t via = 0) {
    sim::SimTime t = CalibrateRuntime(plan, via);
    FailureRun out;
    bool done = false;
    dep->query(via).Execute(plan, db_epoch, opts, [&](Status st, QueryResult r) {
      out.status = st;
      out.result = std::move(r);
      done = true;
    });
    if (fraction > 0) {
      dep->RunFor(static_cast<sim::SimTime>(fraction * static_cast<double>(t)));
    }
    if (!done) {
      out.injected = true;
      if (hang) {
        dep->network().HangNode(victim);
      } else {
        dep->KillNode(victim, /*update_routing=*/false);
      }
    }
    EXPECT_TRUE(dep->RunUntil([&] { return done; }, 600 * sim::kMicrosPerSec));
    return out;
  }
};

TEST_F(RecoveryTest, IncrementalRecoveryProducesExactAnswer) {
  Deploy(6);
  LoadBulk(2000, 100);
  PhysicalPlan plan = JoinPlan();
  auto expect = ReferenceExecute(plan, ref_db);
  ASSERT_TRUE(expect.ok());

  QueryOptions opts;
  opts.recovery = QueryOptions::RecoveryMode::kIncremental;
  FailureRun run = RunWithFailureAt(plan, 3, 0.5, opts);
  ASSERT_TRUE(run.injected);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.result.recoveries, 1u);
  EXPECT_EQ(run.result.restarts, 0u);
  EXPECT_TRUE(SameBag(run.result.rows, *expect))
      << "got " << run.result.rows.size() << " rows, want " << expect->size();
  ExpectNoExecsLeft();
}

// Mid-query, and before any event of the query ran (the scan bindings are
// still in flight then): either way the restart returns the exact answer.
TEST_F(RecoveryTest, RestartRecoveryProducesExactAnswer) {
  for (const PhysicalPlan& plan : {JoinPlan(), ShapedJoinPlan()}) {
    for (double fraction : {0.5, 0.0}) {
      SCOPED_TRACE(testing::Message() << "failure at " << fraction
                                      << " of the runtime, plan " << plan.ToString());
      Deploy(6);
      LoadBulk(2000, 100);
      auto expect = ReferenceExecute(plan, ref_db);
      ASSERT_TRUE(expect.ok());
      EXPECT_GT(expect->size(), 0u);

      QueryOptions opts;
      opts.recovery = QueryOptions::RecoveryMode::kRestart;
      FailureRun run = RunWithFailureAt(plan, 4, fraction, opts);
      ASSERT_TRUE(run.injected);
      ASSERT_TRUE(run.status.ok()) << run.status.ToString();
      EXPECT_EQ(run.result.restarts, 1u);
      EXPECT_TRUE(SameBag(run.result.rows, *expect))
          << "got " << run.result.rows.size() << " rows, want " << expect->size();
    }
  }
}

// A failure late in the query, after some aggregates have emitted their
// partials: the rows recovery brings them later (an inherited range's
// rescan) leave as partials of their own.
TEST_F(RecoveryTest, AggregationSurvivesFailureWithoutDoubleCounting) {
  Rng rng(31);
  std::vector<Tuple> rows;
  std::map<std::string, int64_t> expect_counts;
  for (int i = 0; i < 5000; ++i) {
    std::string g = Tag("g", rng.Uniform(10));
    rows.push_back({S(Tag("k", i)), S(g)});
    expect_counts[g] += 1;
  }

  PlanBuilder b;
  int32_t rehash = b.Rehash(b.Scan("R"), {1});
  AggSpec count;
  count.fn = AggFn::kCount;
  count.has_arg = false;
  int32_t agg = b.Aggregate(rehash, {1}, {count});
  PhysicalPlan plan = b.Ship(agg);
  plan.final_stage.has_agg = true;
  plan.final_stage.group_cols = {0};
  AggSpec merge = count;
  merge.has_arg = true;
  merge.arg = Expr::Column(1);
  plan.final_stage.aggs = {merge};

  for (double fraction : {0.5, 0.8, 0.85, 0.9}) {
    for (net::NodeId victim : {4u, 5u}) {
      SCOPED_TRACE(testing::Message() << "fraction " << fraction << " victim " << victim);
      Deploy(6);
      LoadRows("R", rows);
      FailureRun run = RunWithFailureAt(plan, victim, fraction, {}, /*hang=*/false, /*via=*/1);
      ASSERT_TRUE(run.injected);
      ASSERT_TRUE(run.status.ok()) << run.status.ToString();
      ASSERT_EQ(run.result.rows.size(), expect_counts.size());
      for (const Tuple& t : run.result.rows) {
        EXPECT_EQ(t[1].AsInt64(), expect_counts[t[0].AsString()])
            << "group " << t[0].AsString() << " double-counted or lost";
      }
    }
  }
}

TEST_F(RecoveryTest, TwoSequentialFailures) {
  Deploy(8);
  LoadBulk(3000, 80);
  PhysicalPlan plan = JoinPlan();
  auto expect = ReferenceExecute(plan, ref_db);
  ASSERT_TRUE(expect.ok());
  sim::SimTime t = CalibrateRuntime(plan);

  bool done = false;
  Status status;
  QueryResult result;
  dep->query(0).Execute(plan, db_epoch, {}, [&](Status st, QueryResult r) {
    status = st;
    result = std::move(r);
    done = true;
  });
  dep->RunFor(t / 4);
  ASSERT_FALSE(done);
  dep->KillNode(2, false);
  dep->RunFor(t / 3);
  if (!done) dep->KillNode(6, false);
  ASSERT_TRUE(dep->RunUntil([&] { return done; }, 600 * sim::kMicrosPerSec));
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(SameBag(result.rows, *expect));
}

TEST_F(RecoveryTest, RecoveryModeNoneFailsQuery) {
  Deploy(5);
  LoadBulk(2000, 50);
  PhysicalPlan plan = JoinPlan();
  QueryOptions opts;
  opts.recovery = QueryOptions::RecoveryMode::kNone;
  FailureRun run = RunWithFailureAt(plan, 2, 0.4, opts);
  ASSERT_TRUE(run.injected);
  EXPECT_TRUE(run.status.IsUnavailable()) << run.status.ToString();
}

TEST_F(RecoveryTest, HungNodeDetectedByPings) {
  Deploy(5);
  LoadBulk(2000, 50);
  PhysicalPlan plan = JoinPlan();
  auto expect = ReferenceExecute(plan, ref_db);
  ASSERT_TRUE(expect.ok());

  QueryOptions opts;
  opts.ping_interval_us = 200 * sim::kMicrosPerMilli;
  FailureRun run = RunWithFailureAt(plan, 3, 0.3, opts, /*hang=*/true);
  ASSERT_TRUE(run.injected);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_EQ(run.result.failures_handled.size(), 1u);
  EXPECT_EQ(run.result.failures_handled[0], 3u);
  // Detection had to wait for missed pings, so the run is visibly longer.
  EXPECT_GT(run.result.execution_us, 600 * sim::kMicrosPerMilli);
  EXPECT_TRUE(SameBag(run.result.rows, *expect));
}

TEST_F(RecoveryTest, FailureAfterCompletionIsIgnored) {
  Deploy(4);
  LoadBulk(100, 20);
  PhysicalPlan plan = JoinPlan();
  auto r1 = dep->ExecuteQuery(0, plan, db_epoch);
  ASSERT_TRUE(r1.ok());
  dep->KillNode(2, false);
  dep->RunFor(1 * sim::kMicrosPerSec);  // no crash, nothing pending
}

// A worker drops every frame that names an operator the plan lacks, or one of
// the wrong kind, instead of indexing its operator tables with the id.
TEST_F(RecoveryTest, FramesNamingAnOpThePlanLacksAreDropped) {
  Deploy(4);
  LoadBulk(2000, 50);
  PhysicalPlan plan = JoinPlan();  // 0 Scan R, 1 Rehash, 2 Scan S, 3 Join, 4 Ship
  auto expect = ReferenceExecute(plan, ref_db);
  ASSERT_TRUE(expect.ok());

  bool done = false;
  Status status;
  QueryResult result;
  dep->query(0).Execute(plan, db_epoch, {}, [&](Status st, QueryResult r) {
    status = st;
    result = std::move(r);
    done = true;
  });
  ASSERT_TRUE(dep->RunUntil([&] { return dep->query(2).active_exec_count() > 0; }));
  ASSERT_FALSE(done);

  // Node 0's first query: initiator 0 in the id's high bits, sequence 1.
  const uint64_t qid = 1;
  auto send = [&](uint16_t code, std::string payload) {
    dep->host(1).SendTo(2, net::ServiceId::kQuery, code, std::move(payload));
  };
  // kDataBlock (2) naming no op, and naming Scan R with a row that joins.
  TupleBlock block;
  block.query_id = qid;
  block.rows.push_back(BlockRow{{S("rk-extra"), S("j1")}, DynamicBitset(4)});
  for (int32_t op : {99, 0}) {
    block.dest_op = op;
    send(2, block.Encode());
  }
  // kEosMarker, kScanPartDone and kQueryFetch (4-6) naming no op.
  Writer header;
  header.PutU64(qid);
  header.PutVarint32(99);
  header.PutVarint32(0);
  for (uint16_t code = 4; code <= 6; ++code) send(code, header.data());

  ASSERT_TRUE(dep->RunUntil([&] { return done; }, 600 * sim::kMicrosPerSec));
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(SameBag(result.rows, *expect))
      << "got " << result.rows.size() << " rows, want " << expect->size();
  ExpectNoExecsLeft();
}

// An EOS frame that counts one frame more than reached its receiver means a
// frame was lost (delivery is in order per connection): the query ends
// Unavailable at once instead of at kQueryDeadlineUs. The rehash EOS and the
// scan part-done are checked at a worker, which reports kScanFailed; the
// ship EOS at the initiator.
class CountedGapTest : public RecoveryTest,
                       public ::testing::WithParamInterface<uint16_t> {};

TEST_P(CountedGapTest, EosFrameCountingALostFrameFailsTheQuery) {
  Deploy(4);
  LoadBulk(2000, 50);
  const uint16_t code = GetParam();
  const net::NodeId at = code == QueryService::kShipEos ? 0 : 2;
  EdgeCountTap tap(dep.get(), at);
  tap.forge = code;
  tap.forge_from = 1;
  const sim::SimTime start = dep->sim().now();
  Pending<QueryResult> p = dep->session(0).Query(JoinPlan(), db_epoch);
  ASSERT_TRUE(dep->RunUntil([&p] { return p.done(); }, 2 * kQueryDeadlineUs));
  EXPECT_EQ(tap.forge, 0u) << "no EOS frame was forged";
  EXPECT_EQ(p.status().code(), Status::Code::kUnavailable) << p.status().ToString();
  EXPECT_LT(dep->sim().now() - start, 1 * sim::kMicrosPerSec);
  ExpectNoExecsLeft();
}

INSTANTIATE_TEST_SUITE_P(EosCodes, CountedGapTest,
                         ::testing::Values(QueryService::kEosMarker,
                                           QueryService::kScanPartDone,
                                           QueryService::kShipEos));

// Property sweep: random failure times against the same join must always
// produce the exact failure-free answer (no loss, no duplicates).
class FailureTimeSweep : public RecoveryTest,
                         public ::testing::WithParamInterface<int> {};

TEST_P(FailureTimeSweep, ExactAnswerAtAnyFailureTime) {
  for (const PhysicalPlan& plan : {JoinPlan(), ShapedJoinPlan()}) {
    SCOPED_TRACE(plan.ToString());
    Deploy(6);
    LoadBulk(2500, 60, /*seed=*/GetParam());
    auto expect = ReferenceExecute(plan, ref_db);
    ASSERT_TRUE(expect.ok());
    EXPECT_GT(expect->size(), 0u);

    double fraction = 0.15 + 0.17 * GetParam();  // 15%..83% of the runtime
    net::NodeId victim = 1 + GetParam() % 5;
    FailureRun run = RunWithFailureAt(plan, victim, fraction);
    ASSERT_TRUE(run.injected);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    EXPECT_TRUE(SameBag(run.result.rows, *expect))
        << "got " << run.result.rows.size() << " want " << expect->size();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FailureTimeSweep, ::testing::Values(0, 1, 2, 3, 4));

}  // namespace
}  // namespace orchestra::query
