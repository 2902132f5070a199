#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "common/rng.h"
#include "common/strings.h"
#include "deploy/deployment.h"
#include "replica_push_tap.h"
#include "storage/keys.h"
#include "storage/page.h"
#include "storage/publisher.h"
#include "storage/schema.h"
#include "storage/service.h"
#include "storage/value.h"

namespace orchestra::storage {
namespace {

// ---------------------------------------------------------------------------
// Data model

TEST(Value, TypedAccessors) {
  EXPECT_EQ(Value(int64_t{42}).AsInt64(), 42);
  EXPECT_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value(std::string("hi")).AsString(), "hi");
  EXPECT_TRUE(Value::Null().is_null());
}

TEST(Value, CompareWithinTypes) {
  EXPECT_LT(Value(int64_t{1}).Compare(Value(int64_t{2})), 0);
  EXPECT_EQ(Value(std::string("a")).Compare(Value(std::string("a"))), 0);
  EXPECT_GT(Value(3.5).Compare(Value(2.5)), 0);
}

TEST(Value, NumericCrossCompare) {
  EXPECT_EQ(Value(int64_t{2}).Compare(Value(2.0)), 0);
  EXPECT_LT(Value(int64_t{2}).Compare(Value(2.5)), 0);
}

TEST(Value, EncodeDecodeRoundTrip) {
  for (const Value& v :
       {Value(int64_t{-12345}), Value(int64_t{0}), Value(1.75), Value(std::string("s")),
        Value::Null(), Value(std::string(1000, 'x'))}) {
    Writer w;
    v.EncodeTo(&w);
    Reader r(w.data());
    Value back;
    ASSERT_TRUE(Value::DecodeFrom(&r, &back).ok());
    EXPECT_EQ(back, v);
  }
}

TEST(Value, OrderedEncodingPreservesIntOrder) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    int64_t a = static_cast<int64_t>(rng.NextU64());
    int64_t b = static_cast<int64_t>(rng.NextU64());
    std::string ea, eb;
    Value(a).EncodeOrdered(&ea);
    Value(b).EncodeOrdered(&eb);
    EXPECT_EQ(a < b, ea < eb) << a << " vs " << b;
  }
}

TEST(Value, OrderedEncodingPreservesDoubleOrder) {
  std::vector<double> vals = {-1e300, -2.5, -0.0, 0.0, 1e-10, 1.0, 3.14, 1e300};
  for (size_t i = 0; i + 1 < vals.size(); ++i) {
    std::string ea, eb;
    Value(vals[i]).EncodeOrdered(&ea);
    Value(vals[i + 1]).EncodeOrdered(&eb);
    EXPECT_LE(ea, eb) << vals[i] << " vs " << vals[i + 1];
  }
}

TEST(Value, OrderedEncodingPreservesStringOrderWithNuls) {
  std::vector<std::string> vals = {std::string("\0", 1), std::string("\0a", 2), "a",
                                   std::string("a\0", 2), "ab", "b"};
  for (size_t i = 0; i + 1 < vals.size(); ++i) {
    std::string ea, eb;
    Value(vals[i]).EncodeOrdered(&ea);
    Value(vals[i + 1]).EncodeOrdered(&eb);
    EXPECT_LT(ea, eb) << i;
  }
}

TEST(Tuple, EncodeDecodeRoundTrip) {
  Tuple t = {Value(int64_t{7}), Value(std::string("abc")), Value(0.5), Value::Null()};
  Writer w;
  EncodeTuple(t, &w);
  Reader r(w.data());
  Tuple back;
  ASSERT_TRUE(DecodeTuple(&r, &back).ok());
  EXPECT_EQ(back, t);
}

TEST(Schema, FindAndKeyEncoding) {
  Schema s({{"x", ValueType::kString}, {"y", ValueType::kInt64}}, 1);
  EXPECT_EQ(*s.Find("y"), 1u);
  EXPECT_FALSE(s.Find("z").has_value());
  Tuple t = {Value(std::string("k1")), Value(int64_t{9})};
  std::string key = EncodeTupleKey(s, t);
  Tuple t2 = {Value(std::string("k1")), Value(int64_t{100})};
  EXPECT_EQ(key, EncodeTupleKey(s, t2));  // key ignores non-key attrs
  Tuple t3 = {Value(std::string("k2")), Value(int64_t{9})};
  EXPECT_NE(key, EncodeTupleKey(s, t3));
}

TEST(Page, PartitionGeometry) {
  for (uint32_t parts : {1u, 4u, 16u, 64u}) {
    for (uint32_t p = 0; p < parts; ++p) {
      HashId begin = PartitionBegin(p, parts);
      HashId home = PartitionHome(p, parts);
      EXPECT_EQ(PartitionIndexFor(begin, parts), p);
      EXPECT_EQ(PartitionIndexFor(home, parts), p);
    }
    // Random keys land in consistent partitions.
    Rng rng(parts);
    for (int i = 0; i < 50; ++i) {
      HashId h = HashId::OfBytes(Tag("p", rng.NextU64()));
      uint32_t idx = PartitionIndexFor(h, parts);
      EXPECT_TRUE(h.InRange(PartitionBegin(idx, parts), PartitionEnd(idx, parts)));
    }
  }
}

TEST(Page, EncodeDecodeRoundTrip) {
  Page page;
  page.desc.id = PageId{"R", 3, 2};
  page.desc.num_partitions = 8;
  page.ids = {{"k1", 1}, {"k2", 3}};
  page.hashes = {TupleKeyHash("k1"), TupleKeyHash("k2")};
  Writer w;
  page.EncodeTo(&w);
  Reader r(w.data());
  Page back;
  ASSERT_TRUE(Page::DecodeFrom(&r, &back).ok());
  EXPECT_EQ(back.desc, page.desc);
  EXPECT_EQ(back.ids, page.ids);
  EXPECT_EQ(back.hashes, page.hashes);
}

// Bodies that claim 2^40 or 2^62 entries in a few bytes: a page's ids and
// a coordinator record's page descriptors. Sizing a vector from such a
// count aborted the process (bad_alloc, length_error).
std::vector<std::string> HugeCountPages() {
  std::vector<std::string> out;
  for (uint64_t claimed : {uint64_t{1} << 40, uint64_t{1} << 62}) {
    Writer w;
    PageDescriptor{PageId{"R", 1, 0}, 8}.EncodeTo(&w);
    w.PutVarint64(claimed);
    out.push_back(w.Release());
  }
  return out;
}

// kPutPage bodies (page deltas for a new partition) that claim as many
// edits.
std::vector<std::string> HugeCountPageDeltas() {
  std::vector<std::string> out;
  for (uint64_t claimed : {uint64_t{1} << 40, uint64_t{1} << 62}) {
    Writer w;
    PageDescriptor{PageId{"R", 1, 0}, 8}.EncodeTo(&w);
    w.PutBool(false);  // no base
    w.PutVarint64(claimed);
    out.push_back(w.Release());
  }
  return out;
}

std::vector<std::string> HugeCountCoordinators() {
  std::vector<std::string> out;
  for (uint64_t claimed : {uint64_t{1} << 40, uint64_t{1} << 62}) {
    Writer w;
    w.PutString("R");
    w.PutVarint64(1);   // epoch
    w.PutVarint32(1);   // participant
    w.PutVarint32(8);   // partitions
    w.PutVarint64(claimed);  // pages, two bytes each at least
    out.push_back(w.Release());
  }
  return out;
}

TEST(Page, DecodeRejectsACountTheBodyCannotHold) {
  for (const std::string& body : HugeCountPages()) {
    Reader r(body);
    Page page;
    EXPECT_TRUE(Page::DecodeFrom(&r, &page).IsCorruption());
  }
  for (const std::string& body : HugeCountPageDeltas()) {
    Reader r(body);
    PageDelta delta;
    EXPECT_TRUE(PageDelta::DecodeFrom(&r, &delta).IsCorruption());
  }
}

TEST(CoordinatorRecordTest, DecodeRejectsACountTheBodyCannotHold) {
  for (const std::string& body : HugeCountCoordinators()) {
    Reader r(body);
    CoordinatorRecord rec;
    EXPECT_TRUE(CoordinatorRecord::DecodeFrom(&r, &rec).IsCorruption());
  }
}

TEST(CoordinatorRecordTest, EncodeDecodeRoundTrip) {
  CoordinatorRecord rec;
  rec.relation = "R";
  rec.epoch = 5;
  rec.participant = 17;  // multi-writer: records carry their epoch's writer
  rec.pages.push_back(PageDescriptor{PageId{"R", 4, 0}, 8});
  rec.pages.push_back(PageDescriptor{PageId{"R", 5, 3}, 8});
  Writer w;
  rec.EncodeTo(&w);
  Reader r(w.data());
  CoordinatorRecord back;
  ASSERT_TRUE(CoordinatorRecord::DecodeFrom(&r, &back).ok());
  EXPECT_EQ(back.relation, "R");
  EXPECT_EQ(back.epoch, 5u);
  EXPECT_EQ(back.participant, 17u);
  ASSERT_EQ(back.pages.size(), 2u);
  EXPECT_EQ(back.pages[1], rec.pages[1]);
}

TEST(Keys, DataKeysOrderByHashThenKeyThenEpoch) {
  HashId h1 = HashId::FromU64(100), h2 = HashId::FromU64(200);
  std::string a = keys::Data("R", h1, "ka", 1);
  std::string b = keys::Data("R", h1, "ka", 2);
  std::string c = keys::Data("R", h1, "kb", 1);
  std::string d = keys::Data("R", h2, "aa", 0);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(c, d);
  // Prefix discipline: different relations never interleave.
  EXPECT_NE(keys::Data("R", h1, "k", 1).substr(0, 3),
            keys::Data("RR", h1, "k", 1).substr(0, 3));
}

// ---------------------------------------------------------------------------
// Distributed storage (deployment-based)

RelationDef SimpleRelation(const std::string& name, uint32_t partitions = 8) {
  RelationDef def;
  def.name = name;
  def.schema = Schema({{"x", ValueType::kString}, {"y", ValueType::kString}}, 1);
  def.num_partitions = partitions;
  return def;
}

Tuple Row(const std::string& x, const std::string& y) {
  return {Value(x), Value(y)};
}

std::multiset<std::string> AsBag(const std::vector<Tuple>& rows) {
  std::multiset<std::string> bag;
  for (const auto& t : rows) bag.insert(TupleToString(t));
  return bag;
}

std::map<std::string, std::string> StoreContents(StorageService& svc) {
  std::map<std::string, std::string> out;
  for (auto it = svc.store().Seek(""); it.Valid(); it.Next()) {
    out.emplace(it.key(), it.value());
  }
  return out;
}

// Publishes `rounds` batches that each overwrite keys k0..k<keys-1>.
void PublishRounds(deploy::Deployment& dep, int rounds, int keys) {
  for (int round = 0; round < rounds; ++round) {
    UpdateBatch batch;
    for (int i = 0; i < keys; ++i) {
      batch["R"].push_back(Update::Insert(Row(Tag("k", i), Tag("v", round))));
    }
    ASSERT_TRUE(dep.Publish(0, std::move(batch)).ok());
  }
}

class StorageClusterTest : public ::testing::Test {
 protected:
  StorageClusterTest() {
    deploy::DeploymentOptions opts;
    opts.num_nodes = 4;
    opts.replication = 3;
    dep = std::make_unique<deploy::Deployment>(opts);
  }
  std::unique_ptr<deploy::Deployment> dep;
};

TEST_F(StorageClusterTest, CreatePublishRetrieve) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch batch;
  batch["R"] = {Update::Insert(Row("a", "b")), Update::Insert(Row("f", "z"))};
  auto epoch = dep->Publish(0, std::move(batch));
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 1u);

  auto rows = dep->Retrieve(1, "R", *epoch);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(AsBag(*rows), (std::multiset<std::string>{"('a', 'b')", "('f', 'z')"}));
}

// The paper's Example 4.1: three epochs with inserts and one update; each
// epoch's snapshot must be exactly reconstructible.
TEST_F(StorageClusterTest, PaperExample41VersionedSnapshots) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());

  UpdateBatch e0;
  e0["R"] = {Update::Insert(Row("a", "b")), Update::Insert(Row("f", "z"))};
  ASSERT_TRUE(dep->Publish(0, std::move(e0)).ok());

  UpdateBatch e1;
  e1["R"] = {Update::Insert(Row("b", "c")), Update::Insert(Row("e", "e")),
             Update::Insert(Row("c", "f")), Update::Insert(Row("f", "a"))};
  ASSERT_TRUE(dep->Publish(0, std::move(e1)).ok());

  UpdateBatch e2;
  e2["R"] = {Update::Insert(Row("d", "d"))};
  ASSERT_TRUE(dep->Publish(0, std::move(e2)).ok());

  auto at1 = dep->Retrieve(2, "R", 1);
  ASSERT_TRUE(at1.ok());
  EXPECT_EQ(AsBag(*at1), (std::multiset<std::string>{"('a', 'b')", "('f', 'z')"}));

  auto at2 = dep->Retrieve(2, "R", 2);
  ASSERT_TRUE(at2.ok());
  EXPECT_EQ(AsBag(*at2),
            (std::multiset<std::string>{"('a', 'b')", "('b', 'c')", "('c', 'f')",
                                        "('e', 'e')", "('f', 'a')"}));

  auto at3 = dep->Retrieve(2, "R", 3);
  ASSERT_TRUE(at3.ok());
  EXPECT_EQ(AsBag(*at3),
            (std::multiset<std::string>{"('a', 'b')", "('b', 'c')", "('c', 'f')",
                                        "('d', 'd')", "('e', 'e')", "('f', 'a')"}));

  // "It would never simply return the data for <f,0>; it knows that data is
  // stale because it does not appear in the index page."
  for (const auto& t : *at2) {
    if (t[0] == Value(std::string("f"))) {
      EXPECT_EQ(t[1], Value(std::string("a")));
    }
  }
}

TEST_F(StorageClusterTest, DeleteRemovesFromLaterEpochsOnly) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch e0;
  e0["R"] = {Update::Insert(Row("a", "1")), Update::Insert(Row("b", "2"))};
  ASSERT_TRUE(dep->Publish(0, std::move(e0)).ok());
  UpdateBatch e1;
  e1["R"] = {Update::Delete(Row("a", ""))};
  ASSERT_TRUE(dep->Publish(0, std::move(e1)).ok());

  auto old_rows = dep->Retrieve(3, "R", 1);
  ASSERT_TRUE(old_rows.ok());
  EXPECT_EQ(old_rows->size(), 2u);
  auto new_rows = dep->Retrieve(3, "R", 2);
  ASSERT_TRUE(new_rows.ok());
  ASSERT_EQ(new_rows->size(), 1u);
  EXPECT_EQ((*new_rows)[0][0], Value(std::string("b")));
}

TEST_F(StorageClusterTest, KeyFilterPushdown) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch batch;
  for (char c = 'a'; c <= 'j'; ++c) {
    batch["R"].push_back(Update::Insert(Row(std::string(1, c), "v")));
  }
  ASSERT_TRUE(dep->Publish(0, std::move(batch)).ok());

  Schema s = SimpleRelation("R").schema;
  KeyFilter filter;
  filter.all = false;
  filter.lo = EncodeTupleKey(s, Row("c", ""));
  filter.hi = EncodeTupleKey(s, Row("e", ""));
  auto rows = dep->Retrieve(2, "R", 1, filter);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(AsBag(*rows),
            (std::multiset<std::string>{"('c', 'v')", "('d', 'v')", "('e', 'v')"}));
}

TEST_F(StorageClusterTest, LargeBatchRoundTrips) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R", 16)).ok());
  Rng rng(77);
  UpdateBatch batch;
  std::multiset<std::string> expect;
  for (int i = 0; i < 500; ++i) {
    Tuple t = Row(Tag("key-", i), rng.AlphaString(20));
    expect.insert(TupleToString(t));
    batch["R"].push_back(Update::Insert(std::move(t)));
  }
  ASSERT_TRUE(dep->Publish(0, std::move(batch)).ok());
  auto rows = dep->Retrieve(1, "R", 1);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(AsBag(*rows), expect);
}

TEST_F(StorageClusterTest, SurvivesSingleNodeFailure) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch batch;
  for (int i = 0; i < 100; ++i) {
    batch["R"].push_back(Update::Insert(Row(Tag("k", i), "v")));
  }
  ASSERT_TRUE(dep->Publish(0, std::move(batch)).ok());

  // Kill a node; with r=3 every range still has live replicas, and retrieval
  // retries them transparently (§III-C).
  dep->KillNode(2);
  auto rows = dep->Retrieve(0, "R", 1);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 100u);
}

// A data owner that died while the routing table still names it: 4 nodes,
// replication 3, 200 rows, and node 0 reads either right after the kill or
// 10 s later, long after the kill's drop notices arrived. Every row has two
// live replicas, so the read returns all of them within a few ms.
class DeadRoutedOwnerTest : public ::testing::TestWithParam<sim::SimTime> {};

TEST_P(DeadRoutedOwnerTest, RetrieveReadsLiveReplicas) {
  for (net::NodeId victim = 1; victim < 4; ++victim) {
    deploy::DeploymentOptions opts;
    opts.num_nodes = 4;
    opts.replication = 3;
    deploy::Deployment dep(opts);
    ASSERT_TRUE(dep.CreateRelation(0, SimpleRelation("R")).ok());
    UpdateBatch batch;
    for (int i = 0; i < 200; ++i) {
      batch["R"].push_back(Update::Insert(Row(Tag("k", i), "v")));
    }
    auto e = dep.Publish(0, std::move(batch));
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    dep.KillNode(victim, /*update_routing=*/false);
    if (GetParam() > 0) dep.RunFor(GetParam());
    const sim::SimTime start = dep.sim().now();
    auto rows = dep.Retrieve(0, "R", *e);
    ASSERT_TRUE(rows.ok()) << "victim " << victim << ": " << rows.status().ToString();
    EXPECT_EQ(rows->size(), 200u) << "victim " << victim;
    EXPECT_LE(dep.sim().now() - start, 10 * sim::kMicrosPerMilli)
        << "victim " << victim;
  }
}

INSTANTIATE_TEST_SUITE_P(KillThenRead, DeadRoutedOwnerTest,
                         ::testing::Values(sim::SimTime{0}, 10 * sim::kMicrosPerSec));

// A read whose first replica died before the call fails over at once: the
// send to the dead node comes back as a drop notice one round trip later,
// not as the 60 s RPC deadline.
TEST_F(StorageClusterTest, GetPagePastADeadFirstReplicaFailsOverAtOnce) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch batch;
  for (int i = 0; i < 100; ++i) {
    batch["R"].push_back(Update::Insert(Row(Tag("k", i), "v")));
  }
  auto e = dep->Publish(0, std::move(batch));
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  std::vector<PageDescriptor> pages;
  for (size_t n = 0; n < dep->size() && pages.empty(); ++n) {
    auto rec = dep->storage(n).ReadCoordinatorLocal("R", *e);
    if (rec.ok()) pages = rec->pages;
  }
  // A page whose first replica is not the reader.
  const StorageService& reader = dep->storage(0);
  std::optional<PageDescriptor> page;
  net::NodeId victim = 0;
  for (const PageDescriptor& desc : pages) {
    net::NodeId first = reader.snapshot().ReplicasOf(desc.home(), reader.replication())[0];
    if (first != 0) {
      page = desc;
      victim = first;
      break;
    }
  }
  ASSERT_TRUE(page.has_value());
  dep->KillNode(victim, /*update_routing=*/false);
  dep->RunFor(10 * sim::kMicrosPerSec);
  std::optional<Status> got;
  const sim::SimTime start = dep->sim().now();
  dep->storage(0).GetPage(*page, [&got](Status st, std::string) { got = st; });
  ASSERT_TRUE(dep->RunUntil([&got] { return got.has_value(); }));
  EXPECT_TRUE(got->ok()) << got->ToString();
  EXPECT_LE(dep->sim().now() - start, 10 * sim::kMicrosPerMilli);
}

TEST_F(StorageClusterTest, MultipleRelationsSnapshotTogether) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("S")).ok());
  UpdateBatch b1;
  b1["R"] = {Update::Insert(Row("r1", "x"))};
  ASSERT_TRUE(dep->Publish(0, std::move(b1)).ok());
  UpdateBatch b2;
  b2["S"] = {Update::Insert(Row("s1", "y"))};
  ASSERT_TRUE(dep->Publish(0, std::move(b2)).ok());

  // R was untouched by epoch 2 but must still be resolvable there
  // (copy-forward of coordinator records).
  auto r_at_2 = dep->Retrieve(2, "R", 2);
  ASSERT_TRUE(r_at_2.ok());
  EXPECT_EQ(r_at_2->size(), 1u);
  auto s_at_2 = dep->Retrieve(3, "S", 2);
  ASSERT_TRUE(s_at_2.ok());
  EXPECT_EQ(s_at_2->size(), 1u);
  // S did not exist as data at epoch 1.
  auto s_at_1 = dep->Retrieve(3, "S", 1);
  ASSERT_TRUE(s_at_1.ok());
  EXPECT_TRUE(s_at_1->empty());
}

TEST_F(StorageClusterTest, ReplicateEverywhereRelation) {
  RelationDef def = SimpleRelation("Nation", 2);
  def.replicate_everywhere = true;
  ASSERT_TRUE(dep->CreateRelation(0, def).ok());
  UpdateBatch batch;
  for (int i = 0; i < 25; ++i) {
    batch["Nation"].push_back(Update::Insert(Row(Tag("n", i), "meta")));
  }
  ASSERT_TRUE(dep->Publish(0, std::move(batch)).ok());
  // Every node holds every tuple.
  for (size_t n = 0; n < dep->size(); ++n) {
    size_t local = 0;
    auto& store = dep->storage(n).store();
    for (auto it = store.SeekPrefix(keys::DataPrefix("Nation")); it.Valid();
         it.Next()) {
      ++local;
    }
    EXPECT_EQ(local, 25u) << "node " << n;
  }
}

TEST_F(StorageClusterTest, NewNodeReceivesReplicasViaRebalance) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch batch;
  for (int i = 0; i < 200; ++i) {
    batch["R"].push_back(Update::Insert(Row(Tag("k", i), "v")));
  }
  ASSERT_TRUE(dep->Publish(0, std::move(batch)).ok());

  net::NodeId fresh = dep->AddNode();
  dep->RunFor(10 * sim::kMicrosPerSec);  // let kReplicaPush batches land

  // The new node owns some ranges; it must now hold data for them.
  EXPECT_GT(dep->storage(fresh).store().entry_count(), 0u);
  // And retrieval through the new node sees a complete snapshot.
  auto rows = dep->Retrieve(fresh, "R", 1);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 200u);
  // Every node stores only record families some read or recovery path
  // uses: data, pages, coordinators, epoch claims and the catalog.
  for (size_t n = 0; n < dep->size(); ++n) {
    const auto& store = dep->storage(n).store();
    for (auto it = store.Seek(""); it.Valid(); it.Next()) {
      keys::ParsedKey pk;
      EXPECT_TRUE(keys::Parse(it.key(), &pk))
          << "node " << n << " stores a key no family parses: " << it.key();
    }
  }
}

TEST_F(StorageClusterTest, RetrieveAtUnknownEpochFails) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  auto rows = dep->Retrieve(0, "R", 99);
  EXPECT_FALSE(rows.ok());
}

TEST_F(StorageClusterTest, UpdatesReplaceWithinEpochBatch) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch batch;
  batch["R"] = {Update::Insert(Row("k", "first")), Update::Insert(Row("k", "second"))};
  ASSERT_TRUE(dep->Publish(0, std::move(batch)).ok());
  auto rows = dep->Retrieve(0, "R", 1);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1], Value(std::string("second")));
}

// ---------------------------------------------------------------------------
// Hash-cache invariants of the publish pipeline

// Every page stored anywhere in the cluster for (rel, epoch): read the
// coordinator record from whichever node holds it, then each page from
// whichever node holds that.
std::vector<Page> AllPagesAt(deploy::Deployment& dep, const std::string& rel,
                             Epoch epoch) {
  std::vector<Page> pages;
  for (size_t c = 0; c < dep.size(); ++c) {
    auto rec = dep.storage(c).ReadCoordinatorLocal(rel, epoch);
    if (!rec.ok()) continue;
    for (const PageDescriptor& d : rec->pages) {
      for (size_t n = 0; n < dep.size(); ++n) {
        auto bytes = dep.storage(n).ReadPageLocal(d.id);
        if (bytes.ok()) {
          Reader r(*bytes);
          Page page;
          EXPECT_TRUE(Page::DecodeFrom(&r, &page).ok());
          pages.push_back(std::move(page));
          break;
        }
      }
    }
    break;
  }
  return pages;
}

TEST_F(StorageClusterTest, PublishedPageHashesMatchFreshPlacementHash) {
  RelationDef def = SimpleRelation("R");
  ASSERT_TRUE(dep->CreateRelation(0, def).ok());
  UpdateBatch batch;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    batch["R"].push_back(
        Update::Insert(Row(Tag("key-", i), rng.AlphaString(12))));
  }
  auto epoch = dep->Publish(0, std::move(batch));
  ASSERT_TRUE(epoch.ok());

  std::vector<Page> pages = AllPagesAt(*dep, "R", *epoch);
  ASSERT_FALSE(pages.empty());
  size_t checked = 0;
  for (const Page& page : pages) {
    ASSERT_EQ(page.hashes.size(), page.ids.size());
    for (size_t i = 0; i < page.ids.size(); ++i) {
      EXPECT_EQ(page.hashes[i], PlacementHash(def, page.ids[i].key_bytes))
          << "page " << page.desc.id.ToString() << " id " << i;
      ++checked;
      // Pages must stay sorted by (hash, key) for the single-pass scan.
      if (i > 0) {
        EXPECT_LE(page.hashes[i - 1], page.hashes[i]);
      }
    }
  }
  EXPECT_EQ(checked, 200u);
}

TEST_F(StorageClusterTest, Sha1ComputedOncePerTuplePerPublish) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());

  // Fresh inserts: exactly one TupleKeyHash per update, across the
  // publisher AND every kPutTuples/kPutPage receiver in the cluster.
  UpdateBatch first;
  for (int i = 0; i < 150; ++i) {
    first["R"].push_back(Update::Insert(Row(Tag("k", i), "v")));
  }
  uint64_t before = TupleKeyHashCount();
  ASSERT_TRUE(dep->Publish(0, std::move(first)).ok());
  EXPECT_EQ(TupleKeyHashCount() - before, 150u);

  // Overwrites of existing keys: carried-forward page entries reuse their
  // stored hashes, so the count is again exactly the update count.
  UpdateBatch second;
  for (int i = 0; i < 40; ++i) {
    second["R"].push_back(Update::Insert(Row(Tag("k", i), "w")));
  }
  before = TupleKeyHashCount();
  ASSERT_TRUE(dep->Publish(0, std::move(second)).ok());
  EXPECT_EQ(TupleKeyHashCount() - before, 40u);

  // The distributed scan path routes on page-carried hashes end to end:
  // zero SHA-1 tuple hashes for a full retrieve.
  before = TupleKeyHashCount();
  auto rows = dep->Retrieve(1, "R", 2);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 150u);
  EXPECT_EQ(TupleKeyHashCount() - before, 0u);

  // A scanning node that lacks a version fetches it from a co-replica
  // (kGetTuple), which reads it by the page entry's hash: still no SHA-1.
  // Each version is read by its hash owner, so drop some from theirs.
  size_t dropped = 0;
  uint64_t served = 0;
  for (size_t n = 0; n < dep->size(); ++n) {
    StorageService& node = dep->storage(n);
    served += node.counters().tuples_served;
    std::vector<std::string> doomed;
    for (auto it = node.store().SeekPrefix(keys::DataPrefix("R")); it.Valid();
         it.Next()) {
      keys::ParsedKey pk;
      ASSERT_TRUE(keys::Parse(it.key(), &pk));
      Reader hr(pk.hash_be20);
      HashId hash;
      ASSERT_TRUE(HashId::DecodeFrom(&hr, &hash).ok());
      if (node.snapshot().OwnerOf(hash) == n &&
          static_cast<uint8_t>(pk.hash_be20.back()) % 4 == 0) {
        doomed.emplace_back(it.key());
      }
    }
    for (const std::string& key : doomed) ASSERT_TRUE(node.store().Delete(key).ok());
    dropped += doomed.size();
  }
  ASSERT_GT(dropped, 0u);
  before = TupleKeyHashCount();
  rows = dep->Retrieve(1, "R", 2);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 150u);
  EXPECT_EQ(TupleKeyHashCount() - before, 0u);
  uint64_t served_after = 0;
  for (size_t n = 0; n < dep->size(); ++n) {
    served_after += dep->storage(n).counters().tuples_served;
  }
  EXPECT_GT(served_after - served, 0u);

  // Two writers race for epoch 3: the loser re-bases and publishes its batch
  // again at epoch 4 on the bytes it encoded at submit — still one hash per
  // tuple.
  UpdateBatch a, b;
  for (int i = 0; i < 30; ++i) {
    a["R"].push_back(Update::Insert(Row(Tag("a", i), "x")));
    b["R"].push_back(Update::Insert(Row(Tag("b", i), "y")));
  }
  before = TupleKeyHashCount();
  uint64_t rebases_before = 0;
  for (size_t n = 0; n < dep->size(); ++n) {
    rebases_before += dep->publisher(n).pipeline_stats().rebases;
  }
  client::Ticket ta = dep->session(0).Submit(std::move(a));
  client::Ticket tb = dep->session(1).Submit(std::move(b));
  ASSERT_TRUE(dep->RunUntil([&] { return ta.epoch.done() && tb.epoch.done(); }));
  ASSERT_TRUE(ta.epoch.ok()) << ta.epoch.status().ToString();
  ASSERT_TRUE(tb.epoch.ok()) << tb.epoch.status().ToString();
  uint64_t rebases = 0;
  for (size_t n = 0; n < dep->size(); ++n) {
    rebases += dep->publisher(n).pipeline_stats().rebases;
  }
  EXPECT_GE(rebases - rebases_before, 1u) << "no writer lost and re-based";
  EXPECT_EQ(TupleKeyHashCount() - before, 60u);
}

TEST(Keys, ParsersInvertBuilders) {
  HashId h = HashId::OfBytes("some-tuple-key");
  Writer hw;
  h.EncodeTo(&hw);
  const std::string hb = hw.data();
  const std::string_view kb("k\0y", 3);  // embedded NUL survives round-trip

  // One row per family: a built key and the fields Parse reads back. The
  // expected views alias `hb`, `kb` and literals, which outlive the rows.
  struct Row {
    std::string key;
    keys::ParsedKey want;
  };
  const std::vector<Row> rows = {
      {keys::Data("rel", h, kb, 42), {keys::kDataTag, "rel", hb, kb, 0, 42}},
      {keys::PageRec("r2", 7, 31), {keys::kPageTag, "r2", {}, {}, 31, 7}},
      {keys::Coord("r3", 1u << 20), {keys::kCoordTag, "r3", {}, {}, 0, 1u << 20}},
      {keys::EpochClaim(9), {keys::kClaimTag, {}, {}, {}, 0, 9}},
      {keys::Catalog("r4"), {keys::kCatalogTag, "r4", {}, {}, 0, 0}},
  };
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    SCOPED_TRACE(std::string("family ") + row.want.tag);
    keys::ParsedKey got;
    ASSERT_TRUE(keys::Parse(row.key, &got));
    EXPECT_EQ(got.tag, row.want.tag);
    EXPECT_EQ(got.relation, row.want.relation);
    EXPECT_EQ(got.hash_be20, row.want.hash_be20);
    EXPECT_EQ(got.key_bytes, row.want.key_bytes);
    EXPECT_EQ(got.partition, row.want.partition);
    EXPECT_EQ(got.epoch, row.want.epoch);

    // The next family's tag over this family's layout, truncation, and a
    // trailing byte are all rejected.
    std::string wrong_tag = row.key;
    wrong_tag[0] = rows[(i + 1) % rows.size()].want.tag;
    EXPECT_FALSE(keys::Parse(wrong_tag, &got));
    EXPECT_FALSE(keys::Parse(row.key.substr(0, row.key.size() - 1), &got));
    EXPECT_FALSE(keys::Parse(row.key + "x", &got));
  }
  // A tag no family uses, and the empty key, are rejected too.
  keys::ParsedKey got;
  EXPECT_FALSE(keys::Parse("Z" + rows[0].key.substr(1), &got));
  EXPECT_FALSE(keys::Parse("", &got));
}

// ---------------------------------------------------------------------------
// Multi-epoch GC: watermark advertisement, retirement rules, tombstones.

// Counts a node's data records for a relation, separating tombstones.
struct DataCount {
  size_t versions = 0;
  size_t tombstones = 0;
};
DataCount CountData(StorageService& svc, const std::string& rel) {
  DataCount c;
  auto& store = svc.store();
  for (auto it = store.SeekPrefix(keys::DataPrefix(rel)); it.Valid(); it.Next()) {
    if (it.value().empty()) {
      c.tombstones += 1;
    } else {
      c.versions += 1;
    }
  }
  return c;
}

size_t CountPrefix(StorageService& svc, std::string_view pfx) {
  size_t n = 0;
  for (auto it = svc.store().SeekPrefix(pfx); it.Valid(); it.Next()) ++n;
  return n;
}

TEST_F(StorageClusterTest, DeletePublishesTombstones) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch e0;
  e0["R"] = {Update::Insert(Row("a", "1")), Update::Insert(Row("b", "2"))};
  ASSERT_TRUE(dep->Publish(0, std::move(e0)).ok());
  UpdateBatch e1;
  e1["R"] = {Update::Delete(Row("a", ""))};
  ASSERT_TRUE(dep->Publish(0, std::move(e1)).ok());

  size_t tombstones = 0;
  for (size_t i = 0; i < dep->size(); ++i) {
    tombstones += CountData(dep->storage(i), "R").tombstones;
  }
  // The delete was replicated as an empty-value marker at the delete epoch.
  EXPECT_EQ(tombstones, 3u);
  // It is invisible to retrieval at every epoch.
  auto at2 = dep->Retrieve(1, "R", 2);
  ASSERT_TRUE(at2.ok());
  EXPECT_EQ(AsBag(*at2), (std::multiset<std::string>{"('b', '2')"}));
}

TEST_F(StorageClusterTest, WatermarkRetiresSupersededVersions) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  // Five epochs of overwrites of the same key + one delete of another.
  UpdateBatch e;
  e["R"] = {Update::Insert(Row("k", "v0")), Update::Insert(Row("dead", "x"))};
  ASSERT_TRUE(dep->Publish(0, std::move(e)).ok());
  for (int i = 1; i <= 3; ++i) {
    UpdateBatch u;
    u["R"] = {Update::Insert(Row("k", Tag("v", i)))};
    ASSERT_TRUE(dep->Publish(0, std::move(u)).ok());
  }
  UpdateBatch del;
  del["R"] = {Update::Delete(Row("dead", ""))};
  auto last = dep->Publish(0, std::move(del));
  ASSERT_TRUE(last.ok());  // epoch 5

  size_t versions_before = 0;
  for (size_t i = 0; i < dep->size(); ++i) {
    versions_before += CountData(dep->storage(i), "R").versions;
  }
  // 4 versions of k + 1 of dead, times replication 3.
  EXPECT_EQ(versions_before, 15u);

  // Advance the watermark to the final epoch on every node: only the newest
  // at-or-below-watermark version of k survives; dead's tombstone and its
  // superseded version are both reclaimed.
  for (size_t i = 0; i < dep->size(); ++i) {
    dep->storage(i).SetGcWatermark(*last);
  }
  size_t versions = 0, tombstones = 0;
  uint64_t retired = 0;
  for (size_t i = 0; i < dep->size(); ++i) {
    auto c = CountData(dep->storage(i), "R");
    versions += c.versions;
    tombstones += c.tombstones;
    retired += dep->storage(i).gc_stats().retired_data +
               dep->storage(i).gc_stats().retired_tombstones;
  }
  EXPECT_EQ(versions, 3u);    // one live version of k, 3 replicas
  EXPECT_EQ(tombstones, 0u);  // fully reclaimed
  EXPECT_EQ(retired, 15u);    // 3 stale k versions + dead + its tombstone, x3

  // Retrieval at the watermark epoch still sees exactly the live state.
  auto rows = dep->Retrieve(1, "R", *last);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(AsBag(*rows), (std::multiset<std::string>{"('k', 'v3')"}));

  // Watermarks are monotonic: a lower advertisement is ignored.
  dep->storage(0).SetGcWatermark(1);
  EXPECT_EQ(dep->storage(0).gc_watermark(), *last);
}

TEST_F(StorageClusterTest, WatermarkRetiresPageAndCoordinatorRecords) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R", 2)).ok());
  for (int i = 0; i < 6; ++i) {
    UpdateBatch u;
    u["R"] = {Update::Insert(Row(Tag("k", i % 2), "v"))};
    ASSERT_TRUE(dep->Publish(0, std::move(u)).ok());
  }
  size_t coords_before = 0, pages_before = 0;
  for (size_t i = 0; i < dep->size(); ++i) {
    coords_before += CountPrefix(dep->storage(i), "C");
    pages_before += CountPrefix(dep->storage(i), "P");
  }
  for (size_t i = 0; i < dep->size(); ++i) dep->storage(i).SetGcWatermark(6);
  size_t coords = 0, pages = 0;
  for (size_t i = 0; i < dep->size(); ++i) {
    coords += CountPrefix(dep->storage(i), "C");
    pages += CountPrefix(dep->storage(i), "P");
  }
  EXPECT_LT(coords, coords_before);
  EXPECT_LT(pages, pages_before);
  // Exactly the watermark-epoch coordinator survives, on its 3 replicas.
  EXPECT_EQ(coords, 3u);
  // Per partition, only the newest at-or-below-watermark page version (the
  // one the surviving coordinator references) remains.
  for (size_t i = 0; i < dep->size(); ++i) {
    auto rows = dep->Retrieve(i, "R", 6);
    ASSERT_TRUE(rows.ok()) << "node " << i;
    EXPECT_EQ(rows->size(), 2u);
  }
}

// GC-advertising publisher: with gc_keep_epochs set, publishes advertise the
// watermark cluster-wide and storage stays trimmed without manual calls.
TEST_F(StorageClusterTest, PublisherAdvertisesWatermark) {
  for (auto& p : {0, 1, 2, 3}) dep->publisher(p).set_gc_keep_epochs(2);
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  Epoch last = 0;
  for (int i = 0; i < 8; ++i) {
    UpdateBatch u;
    u["R"] = {Update::Insert(Row("hot", Tag("v", i)))};
    auto e = dep->Publish(0, std::move(u));
    ASSERT_TRUE(e.ok());
    last = *e;
  }
  dep->RunFor(1 * sim::kMicrosPerSec);  // let one-way advertisements land
  for (size_t i = 0; i < dep->size(); ++i) {
    EXPECT_EQ(dep->storage(i).gc_watermark(), last - 2) << "node " << i;
  }
  size_t versions = 0;
  for (size_t i = 0; i < dep->size(); ++i) {
    versions += CountData(dep->storage(i), "R").versions;
  }
  // Versions of "hot" retained: watermark survivor + the 2 epochs above it.
  EXPECT_EQ(versions, 9u);  // 3 versions x replication 3
  // History inside the kept window is intact...
  auto old_rows = dep->Retrieve(2, "R", last - 2);
  ASSERT_TRUE(old_rows.ok());
  EXPECT_EQ(old_rows->size(), 1u);
  // ...and epochs below the watermark are genuinely retired.
  auto below = dep->Retrieve(2, "R", last - 3);
  EXPECT_FALSE(below.ok());
}

// Replica pushes piggyback the GC watermark: a restarted node (whose
// watermark resets to 0) learns the cluster's mark from re-replication
// itself, without waiting for the next publish's advertisement.
TEST(StorageGc, ReplicaPushPiggybacksWatermark) {
  deploy::DeploymentOptions opts;
  opts.num_nodes = 4;
  opts.replication = 3;
  opts.gc_keep_epochs = 2;
  deploy::Deployment dep(opts);
  ASSERT_TRUE(dep.CreateRelation(0, SimpleRelation("R")).ok());
  Epoch last = 0;
  for (int i = 0; i < 6; ++i) {
    UpdateBatch u;
    u["R"] = {Update::Insert(Row(Tag("k", i % 2), Tag("v", i)))};
    auto e = dep.Publish(0, std::move(u));
    ASSERT_TRUE(e.ok());
    last = *e;
  }
  dep.RunFor(1 * sim::kMicrosPerSec);  // one-way advertisements land
  const Epoch w = last - opts.gc_keep_epochs;
  ASSERT_EQ(dep.storage(2).gc_watermark(), w);

  dep.KillNode(2, /*update_routing=*/true, /*rebalance=*/true);
  dep.RunFor(2 * sim::kMicrosPerSec);
  // Restart wipes the transient watermark; re-replication must restore it
  // with NO further publish.
  dep.RestartNode(2);
  ASSERT_TRUE(dep.RunUntil([&dep] { return dep.PendingRpcCount() == 0; }));
  dep.RunFor(500 * sim::kMicrosPerMilli);
  EXPECT_EQ(dep.storage(2).gc_watermark(), w)
      << "restarted node did not learn the watermark from replica pushes";
  // And retirement ran there: epochs below the watermark stay refused.
  auto below = dep.Retrieve(2, "R", w - 1);
  EXPECT_FALSE(below.ok());
  auto at = dep.Retrieve(2, "R", last);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(at->size(), 2u);
}

// ---------------------------------------------------------------------------
// Re-replication by difference: kReplicaPush round 1 compares bucket
// digests, round 2 ships only the buckets that differ.

// A node killed cleanly (every WAL record synced) and restarted with no
// publish in between lacks nothing: every digest matches, and no node ships
// a record in round 2.
TEST_F(StorageClusterTest, CleanRestartShipsNoRecords) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  PublishRounds(*dep, 2, 200);
  dep->KillNode(2, /*update_routing=*/false);
  dep->RunFor(1 * sim::kMicrosPerSec);  // the peers see the drop
  std::vector<std::unique_ptr<ReplicaPushTap>> taps;
  for (size_t n = 0; n < dep->size(); ++n) {
    taps.push_back(std::make_unique<ReplicaPushTap>(dep.get(), n));
  }
  dep->RestartNode(2);
  ASSERT_TRUE(dep->RunUntil([this] { return dep->PendingRpcCount() == 0; }));
  size_t digest_frames = 0;
  for (size_t n = 0; n < dep->size(); ++n) {
    digest_frames += taps[n]->digest_frames();
    EXPECT_EQ(taps[n]->records(), 0u) << "node " << n;
  }
  EXPECT_EQ(digest_frames, dep->size() * (dep->size() - 1));
}

// A node restarted with a torn WAL tail gets back exactly what it lost, and
// only buckets that held a lost record ship to it.
TEST(ReplicaExchange, TornTailRestartGetsBackExactlyWhatItLost) {
  deploy::DeploymentOptions opts;
  opts.num_nodes = 4;
  opts.replication = 3;
  opts.store.wal.sync_every_records = 0;  // a crash tears the unsynced tail
  deploy::Deployment dep(opts);
  ASSERT_TRUE(dep.CreateRelation(0, SimpleRelation("R")).ok());
  PublishRounds(dep, 3, 300);
  const net::NodeId victim = 2;
  const auto before = StoreContents(dep.storage(victim));
  dep.KillNode(victim, /*update_routing=*/false);
  dep.RunFor(1 * sim::kMicrosPerSec);
  ReplicaPushTap tap(&dep, victim);
  dep.RestartNode(victim);  // recovers now; the pushes land as events run
  const auto recovered = StoreContents(dep.storage(victim));
  std::set<uint32_t> lost_buckets;
  for (const auto& [key, value] : before) {
    if (recovered.count(key) == 0) {
      lost_buckets.insert(dep.storage(victim).ReplicaBucket(key).value());
    }
  }
  ASSERT_FALSE(lost_buckets.empty()) << "the crash tore nothing";
  ASSERT_TRUE(dep.RunUntil([&dep] { return dep.PendingRpcCount() == 0; }));

  EXPECT_EQ(StoreContents(dep.storage(victim)), before);
  EXPECT_GT(tap.records(), 0u);
  for (const auto& frame : tap.frames) {
    for (const std::string& key : frame.keys) {
      auto bucket = dep.storage(victim).ReplicaBucket(key);
      ASSERT_TRUE(bucket.has_value());
      EXPECT_EQ(lost_buckets.count(*bucket), 1u)
          << "node " << frame.from << " shipped bucket " << *bucket
          << ", which lost nothing";
    }
  }
}

// A pusher that lags the receiver's GC watermark ships versions the
// receiver already retired; the sweep the push schedules retires them
// again, so none survives at the receiver.
TEST(ReplicaExchange, LaggingPusherLeavesNoRetiredVersion) {
  deploy::DeploymentOptions opts;
  opts.num_nodes = 4;
  opts.replication = 3;
  opts.gc_keep_epochs = 1;
  deploy::Deployment dep(opts);
  ASSERT_TRUE(dep.CreateRelation(0, SimpleRelation("R")).ok());
  PublishRounds(dep, 3, 50);
  const net::NodeId lagger = 3, receiver = 1;
  dep.KillNode(lagger);  // frozen with versions the cluster retires next
  PublishRounds(dep, 3, 50);
  auto sweeps_idle = [&dep] {
    for (size_t n = 0; n < dep.size(); ++n) {
      auto node = static_cast<net::NodeId>(n);
      if (dep.IsAlive(node) && dep.storage(n).gc_sweep_active()) return false;
    }
    return true;
  };
  dep.RunFor(1 * sim::kMicrosPerSec);
  ASSERT_TRUE(dep.RunUntil(sweeps_idle));
  const Epoch w = dep.storage(receiver).gc_watermark();
  ASSERT_GT(w, 3u);
  const auto settled = StoreContents(dep.storage(receiver));

  ReplicaPushTap tap(&dep, receiver);
  dep.RestartNode(lagger);
  ASSERT_TRUE(dep.RunUntil([&dep] { return dep.PendingRpcCount() == 0; }));
  ASSERT_TRUE(dep.RunUntil(sweeps_idle));
  EXPECT_GT(tap.records(), 0u) << "the lagging pusher shipped nothing";
  EXPECT_EQ(dep.storage(receiver).gc_watermark(), w);
  EXPECT_EQ(StoreContents(dep.storage(receiver)), settled);
}

// The two GC entry points run one sweep: SetGcWatermark (the inline,
// synchronous floor raise) and a participant advertisement (a background
// sweep in bounded slices) must retire exactly the same records from the
// same publish history.
TEST(StorageGc, InlineAndBackgroundSweepsRetireTheSameRecords) {
  struct Cluster {
    std::unique_ptr<deploy::Deployment> dep;
    Epoch last = 0;
  };
  // Overwrites in both partitions, and a delete whose tombstone sits below
  // the watermark. Large enough that one background slice cannot cover a
  // node's store.
  auto build = [] {
    deploy::DeploymentOptions opts;
    opts.num_nodes = 4;
    opts.replication = 3;
    Cluster c{std::make_unique<deploy::Deployment>(opts)};
    EXPECT_TRUE(c.dep->CreateRelation(0, SimpleRelation("R", 2)).ok());
    UpdateBatch first;
    for (int k = 0; k < 1200; ++k) {
      first["R"].push_back(Update::Insert(Row(Tag("k", k), "v0")));
    }
    first["R"].push_back(Update::Insert(Row("dead", "x")));
    EXPECT_TRUE(c.dep->Publish(0, std::move(first)).ok());
    for (int round = 1; round <= 4; ++round) {
      UpdateBatch u;
      for (int k = round % 2; k < 1200; k += 2) {
        u["R"].push_back(Update::Insert(
            Row(Tag("k", k), Tag("v", round))));
      }
      if (round == 2) u["R"].push_back(Update::Delete(Row("dead", "")));
      auto e = c.dep->Publish(0, std::move(u));
      EXPECT_TRUE(e.ok());
      c.last = e.ValueOr(0);
    }
    return c;
  };
  auto stored_keys = [](StorageService& svc) {
    std::vector<std::string> out;
    for (auto it = svc.store().Seek(""); it.Valid(); it.Next()) {
      out.emplace_back(it.key());
    }
    return out;
  };

  Cluster inline_gc = build();
  Cluster background_gc = build();
  ASSERT_FALSE(HasFailure());
  ASSERT_EQ(inline_gc.last, background_gc.last);
  const Epoch w = inline_gc.last - 1;
  deploy::Deployment& a = *inline_gc.dep;
  deploy::Deployment& b = *background_gc.dep;
  for (size_t i = 0; i < a.size(); ++i) a.storage(i).SetGcWatermark(w);
  for (size_t i = 0; i < b.size(); ++i) {
    b.storage(i).SetParticipantWatermark(b.publisher(0).participant(), w);
  }
  ASSERT_TRUE(b.RunUntil([&b] {
    for (size_t i = 0; i < b.size(); ++i) {
      if (b.storage(i).gc_sweep_active()) return false;
    }
    return true;
  }));

  uint64_t max_slices = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const auto& ga = a.storage(i).gc_stats();
    const auto& gb = b.storage(i).gc_stats();
    EXPECT_EQ(stored_keys(a.storage(i)), stored_keys(b.storage(i)))
        << "node " << i;
    EXPECT_EQ(ga.retired_data, gb.retired_data) << "node " << i;
    EXPECT_EQ(ga.retired_pages, gb.retired_pages) << "node " << i;
    EXPECT_EQ(ga.retired_coords, gb.retired_coords) << "node " << i;
    EXPECT_EQ(ga.retired_tombstones, gb.retired_tombstones) << "node " << i;
    EXPECT_EQ(ga.retired_claims, gb.retired_claims) << "node " << i;
    EXPECT_EQ(ga.runs, 1u) << "node " << i;
    EXPECT_EQ(gb.runs, 1u) << "node " << i;
    max_slices = std::max(max_slices, gb.slices);
  }
  // Every record family was actually retired, and the background sweep
  // really was sliced.
  uint64_t data = 0, pages = 0, coords = 0, tombs = 0, claims = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const auto& g = a.storage(i).gc_stats();
    data += g.retired_data;
    pages += g.retired_pages;
    coords += g.retired_coords;
    tombs += g.retired_tombstones;
    claims += g.retired_claims;
  }
  EXPECT_GT(data, 0u);
  EXPECT_GT(pages, 0u);
  EXPECT_GT(coords, 0u);
  EXPECT_GT(tombs, 0u);
  EXPECT_GT(claims, 0u);
  EXPECT_GT(max_slices, 1u);
}

// ---------------------------------------------------------------------------
// Claim frame codecs: golden bytes assembled by hand from the layouts in
// docs/WIRE_FORMATS.md (kClaimEpoch .. kPurgeEpoch).

template <typename T>
std::string EncodeToBytes(const T& msg) {
  Writer w;
  msg.EncodeTo(&w);
  return w.Release();
}

// Decodes `bytes` fully, and checks that every strict prefix is rejected.
template <typename T>
void ExpectRoundTripAndTruncationRejected(const std::string& bytes,
                                          const T& want) {
  Reader r(bytes);
  T got;
  ASSERT_TRUE(T::DecodeFrom(&r, &got).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(got, want);
  for (size_t n = 0; n < bytes.size(); ++n) {
    Reader cut(std::string_view(bytes).substr(0, n));
    T partial;
    EXPECT_FALSE(T::DecodeFrom(&cut, &partial).ok()) << "prefix " << n;
  }
}

TEST(ClaimCodec, GoldenBytesMatchTheWireLayouts) {
  // Multi-byte varints on every field so a field-width change shows.
  const Epoch epoch = 1000;
  const ClaimInstance inst{/*participant=*/300, /*node=*/129,
                           /*nonce=*/70000};

  // kClaimEpoch and its heartbeat re-claim, and kConfirmEpoch:
  // varint64 epoch | varint32 participant | varint32 node | varint64 nonce.
  Writer claim;
  claim.PutVarint64(epoch);
  claim.PutVarint32(300);
  claim.PutVarint32(129);
  claim.PutVarint64(70000);
  const ClaimRequest claim_req{epoch, inst};
  EXPECT_EQ(EncodeToBytes(claim_req), claim.data());
  EXPECT_EQ(EncodeToBytes(ClaimRequest{5, {7, 3, 1}}),
            std::string("\x05\x07\x03\x01", 4));

  // kReleaseEpoch and kPurgeEpoch:
  // varint64 epoch | varint32 participant | varint64 nonce.
  Writer release;
  release.PutVarint64(epoch);
  release.PutVarint32(300);
  release.PutVarint64(70000);
  const EpochInstance release_body{epoch, 300, 70000};
  EXPECT_EQ(EncodeToBytes(release_body), release.data());

  // Claim refusal and fence grant replies:
  // varint32 participant | varint32 node | varint64 nonce.
  Writer reply;
  reply.PutVarint32(300);
  reply.PutVarint32(129);
  reply.PutVarint64(70000);
  EXPECT_EQ(EncodeToBytes(inst), reply.data());
  // The burned-epoch refusal names the fenced instance with node 0.
  Writer burned;
  burned.PutVarint32(300);
  burned.PutVarint32(0);
  burned.PutVarint64(70000);
  EXPECT_EQ(EncodeToBytes(ClaimInstance{300, 0, 70000}), burned.data());
  // A stored record's instance is exactly its (participant, node, nonce).
  EpochClaimRecord rec{300, 129, /*committed=*/true, 70000};
  EXPECT_EQ(EncodeToBytes(rec.instance()), reply.data());

  // kFenceEpoch: varint64 epoch | varint32 fencer | varint32 fenced
  // participant | varint64 ttl_us.
  Writer fence;
  fence.PutVarint64(epoch);
  fence.PutVarint32(300);
  fence.PutVarint32(129);
  fence.PutVarint64(2000000);
  const FenceRequest fence_req{epoch, /*fencer=*/300, /*fenced=*/129,
                               /*ttl_us=*/2000000};
  EXPECT_EQ(EncodeToBytes(fence_req), fence.data());
  EXPECT_EQ(EncodeToBytes(FenceRequest{5, 7, 3, 1}),
            std::string("\x05\x07\x03\x01", 4));

  ExpectRoundTripAndTruncationRejected(claim.data(), claim_req);
  ExpectRoundTripAndTruncationRejected(release.data(), release_body);
  ExpectRoundTripAndTruncationRejected(reply.data(), inst);
  ExpectRoundTripAndTruncationRejected(fence.data(), fence_req);

  // kGetEpochClaim reply: u8 outcome | bool waited | varint32 rank | the
  // stored record (varint32 participant | varint32 node | bool committed |
  // varint64 nonce | bool fenced | bool purged).
  Writer probe;
  probe.PutU8(4);  // held: the hold bound passed
  probe.PutBool(true);
  probe.PutVarint32(300);
  probe.PutVarint32(300);
  probe.PutVarint32(129);
  probe.PutBool(false);
  probe.PutVarint64(70000);
  probe.PutBool(true);
  probe.PutBool(false);
  const ClaimProbeAnswer answer{ClaimProbeAnswer::Outcome::kHeld, /*waited=*/true,
                                /*rank=*/300,
                                EpochClaimRecord{300, 129, false, 70000, true, false}};
  EXPECT_EQ(EncodeToBytes(answer), probe.data());
  ExpectRoundTripAndTruncationRejected(probe.data(), answer);
  // An outcome past the last one does not decode.
  std::string bad = probe.data();
  bad[0] = 5;
  Reader br(bad);
  ClaimProbeAnswer rejected;
  EXPECT_TRUE(ClaimProbeAnswer::DecodeFrom(&br, &rejected).IsCorruption());
}

// kPutPage golden bytes, assembled by hand from docs/WIRE_FORMATS.md: a
// delta with a base and one without. Partition 3 of 8 begins at 3 * 2^157,
// whose top byte is 0x60; hashes go out as 20 big-endian bytes, most
// significant first.
TEST(PageDeltaCodec, GoldenBytesMatchTheWireLayouts) {
  const HashId h1 = PartitionBegin(3, 8).Add(HashId::FromU64(1));
  const HashId h2 = PartitionBegin(3, 8).Add(HashId::FromU64(2));
  auto put_hash = [](Writer* w, uint8_t low) {
    w->PutU8(0x60);
    for (int i = 0; i < 18; ++i) w->PutU8(0);
    w->PutU8(low);
  };
  PageDelta delta;
  delta.page = PageDescriptor{PageId{"R", 1000, 3}, 8};
  delta.base = PageId{"R", 999, 3};
  delta.edits = {PageEdit{"k1", h1, false}, PageEdit{"k2", h2, true}};
  // string relation | varint64 epoch | varint32 partition | varint32
  // partitions | bool has_base | base PageId | varint64 n | n x (hash |
  // string key | bool erase).
  Writer want;
  want.PutString("R");
  want.PutVarint64(1000);
  want.PutVarint32(3);
  want.PutVarint32(8);
  want.PutBool(true);
  want.PutString("R");
  want.PutVarint64(999);
  want.PutVarint32(3);
  want.PutVarint64(2);
  put_hash(&want, 1);
  want.PutString("k1");
  want.PutBool(false);
  put_hash(&want, 2);
  want.PutString("k2");
  want.PutBool(true);
  EXPECT_EQ(EncodeToBytes(delta), want.data());
  ASSERT_EQ(want.data().substr(0, 8), std::string("\x01R\xe8\x07\x03\x08\x01\x01", 8));
  ExpectRoundTripAndTruncationRejected(want.data(), delta);

  // A new partition: no base, and the flag says so.
  PageDelta fresh = delta;
  fresh.base.reset();
  Writer want_fresh;
  want_fresh.PutString("R");
  want_fresh.PutVarint64(1000);
  want_fresh.PutVarint32(3);
  want_fresh.PutVarint32(8);
  want_fresh.PutBool(false);
  want_fresh.PutVarint64(2);
  put_hash(&want_fresh, 1);
  want_fresh.PutString("k1");
  want_fresh.PutBool(false);
  put_hash(&want_fresh, 2);
  want_fresh.PutString("k2");
  want_fresh.PutBool(true);
  EXPECT_EQ(EncodeToBytes(fresh), want_fresh.data());
  ExpectRoundTripAndTruncationRejected(want_fresh.data(), fresh);
}

// The coordinator record's golden bytes, assembled by hand from
// docs/WIRE_FORMATS.md: the relation and its partition count once, then each
// page as (partition, epoch), two or three bytes a page.
TEST(CoordinatorRecordTest, GoldenBytesMatchTheWireLayout) {
  CoordinatorRecord rec;
  rec.relation = "lineitem";
  rec.epoch = 1000;
  rec.participant = 300;
  for (auto [partition, epoch] : {std::pair<uint32_t, Epoch>{0, 7}, {3, 1000}, {31, 200}}) {
    rec.pages.push_back(PageDescriptor{PageId{"lineitem", epoch, partition}, 32});
  }
  // string relation | varint64 epoch | varint32 participant | varint32
  // num_partitions | varint64 n | n x (varint32 partition | varint64 epoch).
  Writer want;
  want.PutString("lineitem");
  want.PutVarint64(1000);
  want.PutVarint32(300);
  want.PutVarint32(32);
  want.PutVarint64(3);
  want.PutVarint32(0);
  want.PutVarint64(7);
  want.PutVarint32(3);
  want.PutVarint64(1000);
  want.PutVarint32(31);
  want.PutVarint64(200);
  EXPECT_EQ(EncodeToBytes(rec), want.data());
  ASSERT_EQ(want.data(), std::string("\x08lineitem\xe8\x07\xac\x02\x20\x03"
                                     "\x00\x07\x03\xe8\x07\x1f\xc8\x01",
                                     23));
  ExpectRoundTripAndTruncationRejected(want.data(), rec);
}

// A relation's creation record names no page (and so no partition count).
TEST(CoordinatorRecordTest, ARecordWithNoPagesRoundTrips) {
  CoordinatorRecord rec;
  rec.relation = "S";
  rec.participant = 1;
  ASSERT_EQ(EncodeToBytes(rec), std::string("\x01S\x00\x01\x00\x00", 6));
  ExpectRoundTripAndTruncationRejected(EncodeToBytes(rec), rec);
}

TEST(CoordinatorRecordTest, DecodeRefusesAPartitionOutOfRangeOrOrder) {
  auto body = [](uint32_t partitions, std::vector<uint32_t> pages) {
    Writer w;
    w.PutString("R");
    w.PutVarint64(2);
    w.PutVarint32(1);
    w.PutVarint32(partitions);
    w.PutVarint64(pages.size());
    for (uint32_t p : pages) {
      w.PutVarint32(p);
      w.PutVarint64(1);
    }
    return w.Release();
  };
  auto decode = [](std::string_view bytes) {
    Reader r(bytes);
    CoordinatorRecord rec;
    return CoordinatorRecord::DecodeFrom(&r, &rec);
  };
  EXPECT_TRUE(decode(body(8, {0, 3, 7})).ok());
  EXPECT_TRUE(decode(body(8, {8})).IsCorruption());     // at the count
  EXPECT_TRUE(decode(body(8, {2, 9})).IsCorruption());  // above it
  EXPECT_TRUE(decode(body(0, {0})).IsCorruption());     // no partitions
  EXPECT_TRUE(decode(body(8, {3, 3})).IsCorruption());  // repeated
  EXPECT_TRUE(decode(body(8, {5, 2})).IsCorruption());  // descending
  const std::string whole = body(8, {0, 3, 7});
  for (size_t n = 0; n < whole.size(); ++n) {
    EXPECT_FALSE(decode(std::string_view(whole).substr(0, n)).ok()) << "prefix " << n;
  }
}

// kReplicaPush golden bytes, assembled by hand from docs/WIRE_FORMATS.md:
// round 1, the reply naming differing buckets, and round 2. Two nodes that
// each hold one catalog entry, which lives in the bucket of records every
// member holds (2^10). Its digest is FNV-1a over its key, then its value,
// then MurmurHash3's finalizer.
TEST(ReplicaPushCodec, GoldenBytesMatchTheWireLayouts) {
  deploy::DeploymentOptions opts;
  opts.num_nodes = 2;
  opts.replication = 2;
  deploy::Deployment dep(opts);
  const RelationDef def = SimpleRelation("R");
  for (size_t n = 0; n < dep.size(); ++n) dep.storage(n).AddRelationLocal(def);
  const std::string key = keys::Catalog("R");
  Writer value;
  def.EncodeTo(&value);
  auto fnv1a = [](std::string_view bytes, uint64_t h) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    return h;
  };
  uint64_t sum = fnv1a(value.data(), fnv1a(key, 0xcbf29ce484222325ull));
  sum ^= sum >> 33;
  sum *= 0xff51afd7ed558ccdull;
  sum ^= sum >> 33;
  sum *= 0xc4ceb9fe1a85ec53ull;
  sum ^= sum >> 33;

  // Round 1: no marks, no burned epochs, no records, one digest entry:
  // varint32 bucket | varint64 count | u64 (little-endian) digest sum.
  Writer round1;
  round1.PutVarint64(0);
  round1.PutVarint64(0);
  round1.PutVarint64(0);
  round1.PutVarint64(1);
  round1.PutVarint32(1024);
  round1.PutVarint64(1);
  round1.PutU64(sum);
  ASSERT_EQ(round1.data().substr(0, 7), std::string("\x00\x00\x00\x01\x80\x08\x01", 7));
  ReplicaPushTap tap(&dep, 1);
  dep.storage(0).RebalanceTo(dep.snapshot());
  ASSERT_TRUE(dep.RunUntil([&dep] { return dep.PendingRpcCount() == 0; }));
  ASSERT_EQ(tap.frames.size(), 1u) << "equal digests, yet a round 2";
  EXPECT_EQ(tap.frames[0].body, round1.data());

  // The reply: varint64 count | varint32 bucket per differing bucket.
  auto reply_to = [&dep](const std::string& body) {
    std::string got = "unanswered";
    dep.storage(0).Call(1, kReplicaPush, body,
                        [&got](Status st, const std::string& reply) {
                          got = st.ok() ? reply : st.ToString();
                        });
    EXPECT_TRUE(dep.RunUntil([&got] { return got != "unanswered"; }));
    return got;
  };
  EXPECT_EQ(reply_to(round1.data()), std::string("\x00", 1));
  ASSERT_TRUE(dep.storage(1).store().Delete(key).ok());
  EXPECT_EQ(reply_to(round1.data()), std::string("\x01\x80\x08", 3));

  // Round 2: the record of the differing bucket, and no digests.
  Writer round2;
  round2.PutVarint64(0);
  round2.PutVarint64(0);
  round2.PutVarint64(1);
  round2.PutString(key);
  round2.PutString(value.data());
  round2.PutVarint64(0);
  tap.frames.clear();
  dep.storage(0).RebalanceTo(dep.snapshot());
  ASSERT_TRUE(dep.RunUntil([&dep] { return dep.PendingRpcCount() == 0; }));
  ASSERT_EQ(tap.frames.size(), 2u);
  EXPECT_EQ(tap.frames[0].body, round1.data());
  EXPECT_EQ(tap.frames[1].body, round2.data());
  EXPECT_TRUE(dep.storage(1).store().Contains(key));
}

// A pushed record is stored only if its key parses as one of the five
// families: a key with an unknown tag, or a truncated one, would sit where
// no pass ever reads, retires or re-replicates it. A data record is stored
// even while its relation is missing from the catalog (a push sends its
// data records before its catalog entries).
TEST(ReplicaPushMerge, StoresOnlyKeysAFamilyParses) {
  deploy::DeploymentOptions opts;
  opts.num_nodes = 2;
  opts.replication = 2;
  deploy::Deployment dep(opts);
  const std::string data = keys::Data("R", HashId::OfBytes("k"), "k", 1);
  const std::string unknown_tag = "Zjunk";
  const std::string truncated = data.substr(0, data.size() - 1);

  // Round 2: no marks, no burned epochs, three records, no digests.
  Writer body;
  body.PutVarint64(0);
  body.PutVarint64(0);
  body.PutVarint64(3);
  for (const std::string& key : {data, unknown_tag, truncated}) {
    body.PutString(key);
    body.PutString("v");
  }
  body.PutVarint64(0);
  std::optional<Status> got;
  dep.storage(0).Call(1, kReplicaPush, body.Release(),
                      [&got](Status st, const std::string&) { got = st; });
  ASSERT_TRUE(dep.RunUntil([&got] { return got.has_value(); }));
  ASSERT_TRUE(got->ok()) << got->ToString();
  const auto& store = dep.storage(1).store();
  EXPECT_TRUE(store.Contains(data));
  EXPECT_FALSE(store.Contains(unknown_tag));
  EXPECT_FALSE(store.Contains(truncated));
}

// Every request code answers an empty (undecodable) body promptly instead of
// leaving the caller to wait out its RPC deadline: Corruption for a body it
// cannot decode, NotSupported for the reserved ids of retired frames, and OK
// for kGetMaxEpoch, which reads no body.
TEST_F(StorageClusterTest, MalformedRequestsGetAnAnswer) {
  const std::vector<uint16_t> request_codes = {
      kCatalogAdd,  kPutTuples,  kPutPage,       kPutCoordinator, kGetCoordinator,
      kGetPage,     kGetInverse, kGetTuple,      kScanPage,       kReplicaPush,
      kGetMaxEpoch, kClaimEpoch, kGetEpochClaim, kConfirmEpoch,   kFenceEpoch};
  for (uint16_t code : request_codes) {
    bool done = false;
    Status got;
    const sim::SimTime sent = dep->sim().now();
    dep->storage(0).Call(1, code, std::string(),
                         [&](Status s, const std::string&) {
                           got = s;
                           done = true;
                         });
    ASSERT_TRUE(dep->RunUntil([&done] { return done; }));
    EXPECT_LE(dep->sim().now() - sent, sim::kMicrosPerSec)
        << "code " << code << " left its caller waiting: " << got.ToString();
    if (code == kGetInverse || code == kScanPage) {
      EXPECT_EQ(got.code(), Status::Code::kNotSupported) << got.ToString();
    } else if (code == kGetMaxEpoch) {
      EXPECT_TRUE(got.ok()) << got.ToString();
    } else {
      EXPECT_EQ(got.code(), Status::Code::kCorruption)
          << "code " << code << ": " << got.ToString();
    }
  }
  // A body whose count claims more entries than it holds is Corruption too,
  // and the node that decoded it keeps answering.
  std::vector<std::pair<uint16_t, std::string>> huge;
  for (std::string& b : HugeCountPageDeltas()) huge.emplace_back(kPutPage, b);
  for (std::string& b : HugeCountCoordinators()) {
    huge.emplace_back(kPutCoordinator, b);
  }
  Writer marks;  // kReplicaPush leads with its participant-mark count
  marks.PutVarint64(uint64_t{1} << 62);
  huge.emplace_back(kReplicaPush, marks.Release());
  for (const auto& [code, body] : huge) {
    bool done = false;
    Status got;
    dep->storage(0).Call(1, code, body, [&](Status s, const std::string&) {
      got = s;
      done = true;
    });
    ASSERT_TRUE(dep->RunUntil([&done] { return done; }));
    EXPECT_EQ(got.code(), Status::Code::kCorruption)
        << "code " << code << ": " << got.ToString();
  }
}

// A page delta is outside input: one that is not canonical is answered
// Corruption at once — edits out of order, one key edited twice, an edit
// outside the page's partition, or a base not older than the page — and
// nothing is stored.
TEST_F(StorageClusterTest, MalformedPageDeltasAreCorruption) {
  const HashId lo = PartitionBegin(1, 4).Add(HashId::FromU64(1));
  const HashId hi = PartitionBegin(1, 4).Add(HashId::FromU64(2));
  const HashId outside = PartitionBegin(2, 4);
  auto delta = [](std::optional<Epoch> base, std::vector<PageEdit> edits) {
    PageDelta d;
    d.page = PageDescriptor{PageId{"R", 5, 1}, 4};
    if (base) d.base = PageId{"R", *base, 1};
    d.edits = std::move(edits);
    return EncodeToBytes(d);
  };
  const std::vector<std::pair<std::string, std::string>> bodies = {
      {"edits out of order", delta(4, {{"b", hi, false}, {"a", lo, false}})},
      {"a key edited twice", delta(4, {{"a", lo, false}, {"a", lo, true}})},
      {"an edit outside the partition", delta(4, {{"a", outside, false}})},
      {"a base at the page's epoch", delta(5, {{"a", lo, false}})},
      {"a base above the page's epoch", delta(6, {{"a", lo, false}})},
  };
  for (const auto& [what, body] : bodies) {
    std::optional<Status> got;
    const sim::SimTime sent = dep->sim().now();
    dep->storage(0).Call(1, kPutPage, body,
                         [&got](Status s, const std::string&) { got = s; });
    ASSERT_TRUE(dep->RunUntil([&got] { return got.has_value(); }));
    EXPECT_LE(dep->sim().now() - sent, sim::kMicrosPerSec) << what;
    EXPECT_TRUE(got->IsCorruption()) << what << ": " << got->ToString();
  }
  EXPECT_FALSE(dep->storage(1).store().Contains(keys::PageRec("R", 5, 1)));
  EXPECT_EQ(dep->storage(1).counters().pages_stored, 0u);
}

// The index replica merges a delta into the base it stores. A replica that
// lost the base record fetches it from a co-replica, stores it and merges,
// so every replica ends with the same page bytes. With the base gone from
// every replica, the put fails with the fetch's error within one RPC
// deadline, the ticket resolves, and no call is left pending.
TEST_F(StorageClusterTest, ReplicaWithoutTheBaseFetchesIt) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R", 4)).ok());
  UpdateBatch load;
  for (int i = 0; i < 40; ++i) load["R"].push_back(Update::Insert(Row(Tag("k", i), "v0")));
  const Epoch e1 = *dep->Publish(0, std::move(load));
  const std::string key_bytes =
      EncodeTupleKey(SimpleRelation("R", 4).schema, Row("k7", "v1"));
  const uint32_t part = PartitionIndexFor(TupleKeyHash(key_bytes), 4);
  const PageDescriptor base{PageId{"R", e1, part}, 4};
  const std::string base_key = keys::PageRec("R", e1, part);
  auto replicas = dep->snapshot().ReplicasOf(base.home(), 3);
  ASSERT_EQ(replicas.size(), 3u);
  const std::string base_bytes = *dep->storage(replicas[0]).store().Get(base_key);
  ASSERT_TRUE(dep->storage(replicas[1]).store().Delete(base_key).ok());

  UpdateBatch update;
  update["R"] = {Update::Insert(Row("k7", "v1"))};
  auto e2 = dep->Publish(0, std::move(update));
  ASSERT_TRUE(e2.ok()) << e2.status().ToString();
  EXPECT_EQ(*dep->storage(replicas[1]).store().Get(base_key), base_bytes);
  const std::string page_key = keys::PageRec("R", *e2, part);
  const std::string page_bytes = *dep->storage(replicas[0]).store().Get(page_key);
  for (net::NodeId r : replicas) {
    EXPECT_EQ(*dep->storage(r).store().Get(page_key), page_bytes) << "node " << r;
  }
  auto rows = dep->Retrieve(2, "R", *e2);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 40u);
  EXPECT_EQ(AsBag(*rows).count(TupleToString(Row("k7", "v1"))), 1u);

  // Now the newest version is gone everywhere.
  for (size_t n = 0; n < dep->size(); ++n) {
    ASSERT_TRUE(dep->storage(n).store().Delete(page_key).ok());
  }
  UpdateBatch again;
  again["R"] = {Update::Insert(Row("k7", "v2"))};
  client::Ticket t = dep->session(0).Submit(std::move(again));
  const sim::SimTime sent = dep->sim().now();
  ASSERT_TRUE(dep->RunUntil([&t] { return t.epoch.done(); }));
  EXPECT_FALSE(t.epoch.ok());
  EXPECT_LE(dep->sim().now() - sent, net::kDefaultRpcTimeoutUs)
      << t.epoch.status().ToString();
  ASSERT_TRUE(dep->RunUntil([this] { return dep->PendingRpcCount() == 0; }));
}

// Epoch discovery: publishing via a node whose publisher's epoch floor is
// stale must not fork the epoch line — the publisher asks the cluster for the
// newest confirmed epoch first, and the floor only ever rises.
TEST_F(StorageClusterTest, StalePublisherDiscoversCurrentEpoch) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch a;
  a["R"] = {Update::Insert(Row("a", "1"))};
  ASSERT_TRUE(dep->Publish(0, std::move(a)).ok());
  UpdateBatch b;
  b["R"] = {Update::Insert(Row("b", "2"))};
  ASSERT_TRUE(dep->Publish(0, std::move(b)).ok());

  // Node 3 has neither discovered nor committed anything — its floor is 0.
  EXPECT_EQ(dep->publisher(3).current_epoch(), 0u);
  UpdateBatch c;
  c["R"] = {Update::Insert(Row("c", "3"))};
  auto e = dep->Publish(3, std::move(c));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*e, 3u);  // based on the discovered epoch 2, not the floor 0
  EXPECT_EQ(dep->publisher(3).current_epoch(), 3u);

  auto rows = dep->Retrieve(1, "R", *e);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(AsBag(*rows), (std::multiset<std::string>{"('a', '1')", "('b', '2')",
                                                      "('c', '3')"}));
  // And epoch 1's snapshot was not clobbered by the stale publisher.
  auto at1 = dep->Retrieve(1, "R", 1);
  ASSERT_TRUE(at1.ok());
  EXPECT_EQ(AsBag(*at1), (std::multiset<std::string>{"('a', '1')"}));
}

// ---------------------------------------------------------------------------
// Multi-writer epoch claims: the kClaimEpoch / kReleaseEpoch / kConfirmEpoch
// replica protocol that serializes concurrent publishers onto distinct
// epochs.

std::string ClaimBody(Epoch e, uint32_t participant, uint32_t node,
                      uint64_t nonce) {
  Writer w;
  w.PutVarint64(e);
  w.PutVarint32(participant);
  w.PutVarint32(node);
  w.PutVarint64(nonce);
  return w.Release();
}

TEST_F(StorageClusterTest, EpochClaimProtocol) {
  auto call = [&](uint16_t code, std::string body) {
    Status out = Status::Unavailable("no reply");
    std::string reply;
    bool done = false;
    dep->storage(0).Call(1, code, std::move(body),
                         [&](Status s, const std::string& b) {
                           out = s;
                           reply = b;
                           done = true;
                         });
    dep->RunUntil([&done] { return done; });
    return std::make_pair(out, reply);
  };

  // First come wins; re-claiming is idempotent for the same participant
  // (a retry's fresh attempt nonce refreshes the stored instance).
  EXPECT_TRUE(call(kClaimEpoch, ClaimBody(100, 7, 0, 1)).first.ok());
  EXPECT_TRUE(call(kClaimEpoch, ClaimBody(100, 7, 0, 2)).first.ok());

  // A different participant is refused; the reply names the stored winner
  // instance (participant, node, nonce).
  auto [taken, body] = call(kClaimEpoch, ClaimBody(100, 9, 2, 3));
  EXPECT_TRUE(taken.IsEpochTaken()) << taken.ToString();
  Reader r(body);
  uint32_t wp = 0, wn = 0;
  uint64_t wx = 0;
  ASSERT_TRUE(r.GetVarint32(&wp).ok() && r.GetVarint32(&wn).ok() &&
              r.GetVarint64(&wx).ok());
  EXPECT_EQ(wp, 7u);
  EXPECT_EQ(wx, 2u);  // the refreshed instance, not the first attempt's

  // A stale release (first attempt's nonce) must NOT unpin the newer
  // instance — that is exactly the delayed-release hazard.
  {
    Writer w;
    w.PutVarint64(100);
    w.PutVarint32(7);
    w.PutVarint64(1);
    dep->storage(0).SendOneWay(1, kReleaseEpoch, w.Release());
  }
  dep->RunFor(sim::kMicrosPerSec / 10);
  EXPECT_TRUE(call(kClaimEpoch, ClaimBody(100, 9, 2, 4)).first.IsEpochTaken());

  // An instance-exact release frees the slot for the next claimant.
  {
    Writer w;
    w.PutVarint64(100);
    w.PutVarint32(7);
    w.PutVarint64(2);
    dep->storage(0).SendOneWay(1, kReleaseEpoch, w.Release());
  }
  dep->RunFor(sim::kMicrosPerSec / 10);
  EXPECT_TRUE(call(kClaimEpoch, ClaimBody(100, 9, 2, 5)).first.ok());

  // Confirming marks the epoch committed and advances the node's discovery
  // frontier (kGetMaxEpoch reports only confirmed epochs).
  EXPECT_EQ(dep->storage(1).max_epoch_seen(), 0u);
  {
    Writer w;
    w.PutVarint64(100);
    w.PutVarint32(9);
    w.PutVarint32(2);
    w.PutVarint64(5);
    EXPECT_TRUE(call(kConfirmEpoch, w.Release()).first.ok());
  }
  EXPECT_EQ(dep->storage(1).max_epoch_seen(), 100u);

  // A committed claim is never released — the epoch is history, not a slot.
  {
    Writer w;
    w.PutVarint64(100);
    w.PutVarint32(9);
    w.PutVarint64(5);
    dep->storage(0).SendOneWay(1, kReleaseEpoch, w.Release());
  }
  dep->RunFor(sim::kMicrosPerSec / 10);
  // A probe of a committed epoch is answered at once, with the record.
  Writer gw;
  gw.PutVarint64(100);
  auto [got, claim] = call(kGetEpochClaim, gw.Release());
  ASSERT_TRUE(got.ok());
  Reader cr(claim);
  ClaimProbeAnswer answer;
  ASSERT_TRUE(ClaimProbeAnswer::DecodeFrom(&cr, &answer).ok());
  EXPECT_EQ(answer.outcome, ClaimProbeAnswer::Outcome::kConfirmed);
  EXPECT_FALSE(answer.waited);
  EXPECT_EQ(answer.claim.participant, 9u);
  EXPECT_TRUE(answer.claim.committed);
}

// Coordinator records alone must NOT advance the discovery frontier: a torn
// publish leaves partial records, and a publisher basing on them would
// absorb uncommitted state. Only the confirm protocol moves the frontier.
TEST_F(StorageClusterTest, DiscoveryIgnoresUnconfirmedCoordinatorRecords) {
  CoordinatorRecord rec;
  rec.relation = "R";
  rec.epoch = 50;
  rec.participant = 3;
  Writer w;
  rec.EncodeTo(&w);
  bool done = false;
  Status out;
  dep->storage(0).Call(1, kPutCoordinator, w.Release(),
                       [&](Status s, const std::string&) {
                         out = s;
                         done = true;
                       });
  dep->RunUntil([&done] { return done; });
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(dep->storage(1).max_epoch_seen(), 0u)
      << "an unconfirmed coordinator record moved the discovery frontier";
}

// A relation created AFTER epochs have already committed has no coordinator
// record at the current base; the publish-path walk-back must carry its
// creation record forward instead of wedging every future publish.
TEST_F(StorageClusterTest, RelationCreatedMidStreamStaysPublishable) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  for (int i = 0; i < 4; ++i) {
    UpdateBatch u;
    u["R"] = {Update::Insert(Row(Tag("k", i), "v"))};
    ASSERT_TRUE(dep->Publish(0, std::move(u)).ok());
  }
  // S's first record lands at the CURRENT epoch (4); the next publish's base
  // walk must find it below the new base.
  ASSERT_TRUE(dep->CreateRelation(1, SimpleRelation("S")).ok());
  UpdateBatch s;
  s["S"] = {Update::Insert(Row("s0", "x"))};
  auto e = dep->Publish(2, std::move(s));
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  auto rows = dep->Retrieve(3, "S", *e);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(AsBag(*rows), (std::multiset<std::string>{"('s0', 'x')"}));
  // And R's carried-forward state is intact at the new epoch.
  auto r_rows = dep->Retrieve(3, "R", *e);
  ASSERT_TRUE(r_rows.ok());
  EXPECT_EQ(r_rows->size(), 4u);
}

// The commit gate: a same-epoch coordinator record from a DIFFERENT
// participant is refused with kEpochTaken (first committed writer wins);
// the same participant's byte-identical retry overwrites freely.
TEST_F(StorageClusterTest, CommitGateRefusesConflictingSameEpochRecord) {
  auto put = [&](ParticipantId p) {
    CoordinatorRecord rec;
    rec.relation = "R";
    rec.epoch = 9;
    rec.participant = p;
    Writer w;
    rec.EncodeTo(&w);
    Status out;
    bool done = false;
    dep->storage(0).Call(2, kPutCoordinator, w.Release(),
                         [&](Status s, const std::string&) {
                           out = s;
                           done = true;
                         });
    dep->RunUntil([&done] { return done; });
    return out;
  };
  EXPECT_TRUE(put(1).ok());
  EXPECT_TRUE(put(1).ok());  // same-participant retry overwrites
  Status conflict = put(2);
  EXPECT_TRUE(conflict.IsEpochTaken()) << conflict.ToString();
  EXPECT_GE(dep->storage(2).counters().coordinator_conflicts, 1u);
}

// ---------------------------------------------------------------------------
// Abandonment fencing: the kFenceEpoch / kPurgeEpoch two-phase burn at one
// claim replica. Phase one (the fence grant) installs a burn PROMISE that
// refuses claims and confirms but never deletes data; phase two (the purge,
// sent only after EVERY replica granted) carries purge authority. The
// cross-replica unanimity rules live in the publisher and are exercised
// end-to-end by churn_test's fencing sweeps.

std::string FenceBody(Epoch e, uint32_t fencer, uint32_t target,
                      uint64_t ttl_us) {
  Writer w;
  w.PutVarint64(e);
  w.PutVarint32(fencer);
  w.PutVarint32(target);
  w.PutVarint64(ttl_us);
  return w.Release();
}

std::string PurgeBody(Epoch e, uint32_t participant, uint64_t nonce) {
  Writer w;
  w.PutVarint64(e);
  w.PutVarint32(participant);
  w.PutVarint64(nonce);
  return w.Release();
}

std::string ConfirmBody(Epoch e, uint32_t participant, uint32_t node,
                        uint64_t nonce) {
  Writer w;
  w.PutVarint64(e);
  w.PutVarint32(participant);
  w.PutVarint32(node);
  w.PutVarint64(nonce);
  return w.Release();
}

class FencingTest : public StorageClusterTest {
 protected:
  // One round-trip RPC from node 0 to `target`.
  std::pair<Status, std::string> Rpc(net::NodeId target, uint16_t code,
                                     std::string body) {
    Status out = Status::Unavailable("no reply");
    std::string reply;
    bool done = false;
    dep->storage(0).Call(target, code, std::move(body),
                         [&](Status s, const std::string& b) {
                           out = s;
                           reply = b;
                           done = true;
                         });
    dep->RunUntil([&done] { return done; });
    return {out, reply};
  }
};

// A fence only lands once the claim has sat untouched for a full staleness
// TTL; a live-but-slow owner whose refresh beats the TTL wins the race.
TEST_F(FencingTest, FenceWaitsOutTheStalenessTtl) {
  const uint64_t ttl = 2 * sim::kMicrosPerSec;
  // The owner's claim grant stamps the freshness clock.
  ASSERT_TRUE(Rpc(1, kClaimEpoch, ClaimBody(300, 7, 0, 1)).first.ok());
  // An instant fence is refused: slow is not abandoned.
  auto fresh = Rpc(1, kFenceEpoch, FenceBody(300, 9, 7, ttl));
  EXPECT_TRUE(fresh.first.IsUnavailable()) << fresh.first.ToString();
  EXPECT_NE(fresh.first.message().find("still fresh"), std::string::npos);
  // The owner refreshes before expiry; the staleness clock resets, so a
  // fence one-and-a-half TTLs after the ORIGINAL claim still loses.
  dep->RunFor(3 * sim::kMicrosPerSec / 2);
  ASSERT_TRUE(Rpc(1, kClaimEpoch, ClaimBody(300, 7, 0, 2)).first.ok());
  dep->RunFor(3 * sim::kMicrosPerSec / 2);
  EXPECT_TRUE(
      Rpc(1, kFenceEpoch, FenceBody(300, 9, 7, ttl)).first.IsUnavailable());
  // One full TTL with no refresh: abandonment is provable; the grant names
  // the exact retired instance (participant, node, nonce).
  dep->RunFor(2 * ttl);
  auto [granted, inst] = Rpc(1, kFenceEpoch, FenceBody(300, 9, 7, ttl));
  ASSERT_TRUE(granted.ok()) << granted.ToString();
  Reader r(inst);
  uint32_t fp = 0, fn = 0;
  uint64_t fx = 0;
  ASSERT_TRUE(r.GetVarint32(&fp).ok() && r.GetVarint32(&fn).ok() &&
              r.GetVarint64(&fx).ok());
  EXPECT_EQ(fp, 7u);
  EXPECT_EQ(fx, 2u);  // the refreshed instance, not the first attempt's
  EXPECT_GE(dep->storage(1).counters().fences_granted, 1u);
  EXPECT_GE(dep->storage(1).counters().fences_refused, 2u);
}

// A claim record that arrived WITHOUT a grant (replica push, rebalance) has
// no freshness evidence; the first fence attempt seeds the clock and
// refuses, giving a live owner one full TTL of grace to heartbeat it.
TEST_F(FencingTest, FenceSeedsGraceForClaimsOfUnknownFreshness) {
  EpochClaimRecord rec;
  rec.participant = 7;
  rec.node = 0;
  rec.nonce = 4;
  Writer w;
  rec.EncodeTo(&w);
  ASSERT_TRUE(dep->storage(1).store().Put(keys::EpochClaim(77), w.data()).ok());
  const uint64_t ttl = sim::kMicrosPerSec;
  auto seeded = Rpc(1, kFenceEpoch, FenceBody(77, 9, 7, ttl));
  EXPECT_TRUE(seeded.first.IsUnavailable()) << seeded.first.ToString();
  EXPECT_NE(seeded.first.message().find("unknown freshness"),
            std::string::npos);
  // Within the grace window the claim counts as fresh...
  dep->RunFor(ttl / 2);
  EXPECT_TRUE(
      Rpc(1, kFenceEpoch, FenceBody(77, 9, 7, ttl)).first.IsUnavailable());
  // ...after it, the fence lands.
  dep->RunFor(ttl);
  EXPECT_TRUE(Rpc(1, kFenceEpoch, FenceBody(77, 9, 7, ttl)).first.ok());
}

// Phase separation: a fence GRANT is a promise (refuses claims as a taken
// slot and confirms retryably, deletes nothing); only the purge broadcast
// after unanimity hardens it into an authoritative burn (kFenced for
// everyone, owner included).
TEST_F(FencingTest, FenceGrantIsAPromiseUntilPurged) {
  const uint64_t ttl = sim::kMicrosPerSec;
  ASSERT_TRUE(Rpc(1, kClaimEpoch, ClaimBody(100, 7, 0, 1)).first.ok());
  dep->RunFor(2 * ttl);
  ASSERT_TRUE(Rpc(1, kFenceEpoch, FenceBody(100, 9, 7, ttl)).first.ok());
  // The promise refuses every claimant — owner included — as a TAKEN slot,
  // not a burned one: the fence round may still fail elsewhere, so nobody
  // may skip past an epoch that could yet commit.
  auto contender = Rpc(1, kClaimEpoch, ClaimBody(100, 9, 2, 5));
  EXPECT_TRUE(contender.first.IsEpochTaken()) << contender.first.ToString();
  EXPECT_NE(contender.first.message().find("burn-promised"),
            std::string::npos);
  EXPECT_TRUE(Rpc(1, kClaimEpoch, ClaimBody(100, 7, 0, 6)).first.IsEpochTaken());
  // The owner's confirm is refused RETRYABLY (unanimity unknown — the epoch
  // may heal to committed through another replica), not terminally.
  auto confirm = Rpc(1, kConfirmEpoch, ConfirmBody(100, 7, 0, 1));
  EXPECT_TRUE(confirm.first.IsUnavailable()) << confirm.first.ToString();
  EXPECT_NE(confirm.first.message().find("burn-promised"), std::string::npos);
  EXPECT_GE(dep->storage(1).counters().fenced_writes_refused, 1u);
  // Phase two: the fencer reached unanimity and broadcasts purge authority.
  dep->storage(0).SendOneWay(1, kPurgeEpoch, PurgeBody(100, 7, 1));
  dep->RunFor(sim::kMicrosPerSec / 10);
  auto burned = Rpc(1, kClaimEpoch, ClaimBody(100, 9, 2, 7));
  EXPECT_TRUE(burned.first.IsFenced()) << burned.first.ToString();
  EXPECT_TRUE(
      Rpc(1, kConfirmEpoch, ConfirmBody(100, 7, 0, 1)).first.IsFenced());
  // The stored record carries both facts durably: burned AND purged. A
  // probe of a burned epoch is answered at once.
  auto [got, bytes] = Rpc(1, kGetEpochClaim, [] {
    Writer gw;
    gw.PutVarint64(100);
    return gw.Release();
  }());
  ASSERT_TRUE(got.ok());
  Reader cr(bytes);
  ClaimProbeAnswer answer;
  ASSERT_TRUE(ClaimProbeAnswer::DecodeFrom(&cr, &answer).ok());
  EXPECT_EQ(answer.outcome, ClaimProbeAnswer::Outcome::kBurned);
  const EpochClaimRecord& stored = answer.claim;
  EXPECT_TRUE(stored.fenced);
  EXPECT_TRUE(stored.purged);
  EXPECT_FALSE(stored.committed);
  EXPECT_EQ(stored.participant, 7u);
}

// The purge atomically retires a torn publish's discovery state: orphan
// coordinator and page records vanish together, so reads at the burned
// epoch get a clean definitive NotFound — never a half-discovered mix — and
// the fenced instance's late writes are refused everywhere afterwards.
TEST_F(FencingTest, PurgeHealsTornDiscoveryStateAtomically) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R", 4)).ok());
  UpdateBatch e1;
  e1["R"] = {Update::Insert(Row("a", "1"))};
  ASSERT_TRUE(dep->Publish(0, std::move(e1)).ok());
  UpdateBatch e2;
  e2["R"] = {Update::Insert(Row("b", "2"))};
  ASSERT_TRUE(dep->Publish(0, std::move(e2)).ok());

  // Forge a torn publish at epoch 3: claim, page, and coordinator landed;
  // the tuple writes and the confirm did not (the writer died mid-flight).
  Schema schema = SimpleRelation("R", 4).schema;
  Tuple orphan_row = Row("c", "3");
  std::string key_bytes = EncodeTupleKey(schema, orphan_row);
  HashId h = TupleKeyHash(key_bytes);
  uint32_t part = PartitionIndexFor(h, 4);
  // The page delta lists the orphan row alone (no base), so the forged page
  // holds only a tuple that was never written.
  PageDelta pg;
  pg.page = PageDescriptor{PageId{"R", 3, part}, 4};
  pg.edits = {PageEdit{key_bytes, h, false}};
  Writer pw;
  pg.EncodeTo(&pw);
  CoordinatorRecord crec;
  crec.relation = "R";
  crec.epoch = 3;
  crec.participant = 7;
  crec.pages = {pg.page};
  Writer cw;
  crec.EncodeTo(&cw);
  for (size_t n = 0; n < dep->size(); ++n) {
    auto id = static_cast<net::NodeId>(n);
    ASSERT_TRUE(Rpc(id, kClaimEpoch, ClaimBody(3, 7, 3, 9)).first.ok());
    ASSERT_TRUE(Rpc(id, kPutPage, pw.data()).first.ok());
    ASSERT_TRUE(Rpc(id, kPutCoordinator, cw.data()).first.ok());
  }
  // The torn chain IS visible to discovery: epoch-3 reads walk the orphan
  // coordinator into a page whose tuples were never written.
  auto torn = dep->Retrieve(1, "R", 3);
  EXPECT_FALSE(torn.ok()) << "torn epoch-3 chain served a complete answer";

  // Retire it: fence every replica past the TTL, then broadcast the purge —
  // exactly the fencer's two-phase sequence.
  const uint64_t ttl = sim::kMicrosPerSec;
  dep->RunFor(2 * ttl);
  for (size_t n = 0; n < dep->size(); ++n) {
    auto id = static_cast<net::NodeId>(n);
    ASSERT_TRUE(Rpc(id, kFenceEpoch, FenceBody(3, 9, 7, ttl)).first.ok());
  }
  for (size_t n = 0; n < dep->size(); ++n) {
    dep->storage(0).SendOneWay(static_cast<net::NodeId>(n), kPurgeEpoch,
                               PurgeBody(3, 7, 9));
  }
  dep->RunFor(sim::kMicrosPerSec / 5);

  // Healed atomically: the torn chain is gone end-to-end, so discovery at
  // the burned epoch is a clean NotFound (Retrieve has no walk-back; a
  // definitive miss is what the publisher's walk-back keys on), while the
  // committed epoch-2 chain still serves its full bag.
  auto at3 = dep->Retrieve(1, "R", 3);
  EXPECT_TRUE(at3.status().IsNotFound()) << at3.status().ToString();
  auto at2 = dep->Retrieve(1, "R", 2);
  ASSERT_TRUE(at2.ok()) << at2.status().ToString();
  EXPECT_EQ(AsBag(*at2), AsBag({Row("a", "1"), Row("b", "2")}));

  // The fenced instance's late same-epoch writes are refused everywhere.
  EXPECT_TRUE(Rpc(1, kPutPage, pw.data()).first.IsFenced());
  EXPECT_TRUE(Rpc(1, kPutCoordinator, cw.data()).first.IsFenced());
  Writer tw;
  tw.PutVarint64(1);  // one relation
  tw.PutString("R");
  tw.PutVarint64(1);  // one tuple
  h.EncodeTo(&tw);
  tw.PutString(key_bytes);
  tw.PutVarint64(3);
  Writer vw;
  EncodeTuple(orphan_row, &vw);
  tw.PutString(vw.data());
  EXPECT_TRUE(Rpc(1, kPutTuples, tw.Release()).first.IsFenced());
  EXPECT_TRUE(
      Rpc(1, kConfirmEpoch, ConfirmBody(3, 7, 3, 9)).first.IsFenced());
  EXPECT_GE(dep->storage(1).counters().fenced_writes_refused, 4u);
}

// A page write retires the versions of its partition that the replica's
// watermark supersedes, before any background slice runs: of the versions at
// or below the watermark only the newest survives, and never one at a burned
// epoch (a stale push may resurrect such a version).
TEST_F(FencingTest, PageWriteRetiresWhatItSupersedes) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R", 4)).ok());
  const uint32_t part = 2;
  const net::NodeId replica = 1;
  auto put_page = [&](Epoch epoch, std::optional<Epoch> base, uint64_t edit) {
    PageDelta d;
    d.page = PageDescriptor{PageId{"R", epoch, part}, 4};
    if (base) d.base = PageId{"R", *base, part};
    const std::string key = Tag("k", edit);
    d.edits = {{key, PartitionBegin(part, 4).Add(HashId::FromU64(edit)), false}};
    return Rpc(replica, kPutPage, EncodeToBytes(d)).first;
  };
  ASSERT_TRUE(put_page(1, std::nullopt, 1).ok());
  ASSERT_TRUE(put_page(2, 1, 2).ok());
  ASSERT_TRUE(put_page(4, 2, 4).ok());

  // Burn epoch 3 on the replica, then resurrect a page version there.
  const uint64_t ttl = sim::kMicrosPerSec;
  ASSERT_TRUE(Rpc(replica, kClaimEpoch, ClaimBody(3, 7, 3, 9)).first.ok());
  dep->RunFor(2 * ttl);
  ASSERT_TRUE(Rpc(replica, kFenceEpoch, FenceBody(3, 9, 7, ttl)).first.ok());
  dep->storage(0).SendOneWay(replica, kPurgeEpoch, PurgeBody(3, 7, 9));
  dep->RunFor(sim::kMicrosPerSec / 5);
  StorageService& svc = dep->storage(replica);
  ASSERT_TRUE(svc.IsEpochFenced(3));
  const std::string v2 = *svc.store().Get(keys::PageRec("R", 2, part));
  ASSERT_TRUE(svc.store().Put(keys::PageRec("R", 3, part), v2).ok());

  // The watermark rises to 3 (its sweep is 20 ms away); a write at epoch 5
  // arrives first.
  svc.SetParticipantWatermark(dep->publisher(0).participant(), 3);
  ASSERT_EQ(svc.gc_watermark(), 3u);
  const StorageService::GcStats before = svc.gc_stats();
  ASSERT_TRUE(put_page(5, 4, 5).ok());
  EXPECT_EQ(svc.gc_stats().slices, before.slices);
  std::vector<Epoch> left;
  for (auto it = svc.store().SeekPrefix(keys::VersionGroupPrefix(
           keys::PageRec("R", 0, part)));
       it.Valid(); it.Next()) {
    keys::ParsedKey pk;
    ASSERT_TRUE(keys::Parse(it.key(), &pk));
    left.push_back(pk.epoch);
  }
  // Epoch 2 is the one version at or below the watermark; 1 is superseded
  // and 3 is burned.
  EXPECT_EQ(left, (std::vector<Epoch>{2, 4, 5}));
  EXPECT_EQ(svc.gc_stats().retired_pages, before.retired_pages + 2);
}

// ---------------------------------------------------------------------------
// Write pins are per batch. The claim replicas grant per participant, so a
// batch can be granted an epoch where another batch of the same participant
// already wrote and failed. Committing over those writes would leave them as
// orphans: once GC passes the epoch it keeps them as their keys' newest
// versions and retires the versions the committed pages name.

size_t HeldProbes(deploy::Deployment& dep) {
  size_t n = 0;
  for (size_t i = 0; i < dep.size(); ++i) n += dep.storage(i).held_probe_count();
  return n;
}

TEST_F(StorageClusterTest, NextBatchRetiresAFailedDuplicatesWrites) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R", 4)).ok());
  // The one node outside epoch 2's claim replicas: killed without a routing
  // update, it fails a write the duplicate sends it but not its claim.
  auto claim_reps = dep->storage(0).snapshot().ReplicasOf(ClaimHash(2), 3);
  net::NodeId victim = 0;
  while (std::find(claim_reps.begin(), claim_reps.end(), victim) != claim_reps.end()) {
    ++victim;
  }
  const size_t writer = claim_reps.front();

  std::multiset<std::string> model;
  UpdateBatch x;
  for (int i = 0; i < 8; ++i) {
    x["R"].push_back(Update::Insert(Row(Tag("x", i), "1")));
    model.insert(Tag("('x", i) + "', '1')");
  }
  auto ex = dep->Publish(writer, x);
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  ASSERT_EQ(*ex, 1u);

  // A duplicate of the committed batch bases on epoch 1, writes at epoch 2
  // and fails before its commit round: its write to the dead node fails.
  dep->KillNode(victim, /*update_routing=*/false);
  auto dup = dep->Publish(writer, x);
  ASSERT_FALSE(dup.ok()) << "the duplicate committed at " << *dup;
  dep->RestartNode(victim);

  // The participant's next batch commits past the duplicate's epoch.
  UpdateBatch y;
  for (int i = 0; i < 4; ++i) {
    y["R"].push_back(Update::Insert(Row(Tag("y", i), "2")));
    model.insert(Tag("('y", i) + "', '2')");
  }
  auto ey = dep->Publish(writer, y);
  ASSERT_TRUE(ey.ok()) << ey.status().ToString();
  EXPECT_GT(*ey, 2u) << "the next batch committed over the duplicate's writes";

  // GC passes epoch 2; the latest epoch still reads back as the model.
  for (size_t i = 0; i < dep->size(); ++i) dep->storage(i).SetGcWatermark(*ey);
  auto rows = dep->Retrieve(victim, "R", *ey);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(AsBag(*rows), model);
  dep->RunFor(sim::kMicrosPerSec);
  EXPECT_EQ(dep->PendingRpcCount(), 0u);
  EXPECT_EQ(HeldProbes(*dep), 0u);
}

// A held probe whose replica dies, still routed, resolves with the kill's
// drop notice one hop later: no deadline is waited out.
TEST_F(StorageClusterTest, HeldProbeOfAKilledReplicaResolvesInOneRoundTrip) {
  bool claimed = false;
  dep->storage(0).Call(1, kClaimEpoch, ClaimBody(100, 7, 0, 1),
                       [&](Status s, const std::string&) { claimed = s.ok(); });
  dep->RunFor(sim::kMicrosPerMilli);
  ASSERT_TRUE(claimed);

  Writer w;
  w.PutVarint64(100);
  bool done = false;
  Status out;
  sim::SimTime answered = 0;
  dep->storage(2).Call(
      1, kGetEpochClaim, w.Release(),
      [&](Status s, const std::string&) {
        out = s;
        done = true;
        answered = dep->sim().now();
      },
      kEpochDiscoveryTimeoutUs);
  dep->RunFor(sim::kMicrosPerMilli);
  ASSERT_FALSE(done) << "a probe of a claimed epoch was not held";
  EXPECT_EQ(dep->storage(1).held_probe_count(), 1u);

  const sim::SimTime killed = dep->sim().now();
  dep->KillNode(1, /*update_routing=*/false);
  ASSERT_TRUE(dep->RunUntil([&] { return done; }));
  EXPECT_TRUE(out.IsUnavailable()) << out.ToString();
  EXPECT_LE(answered - killed, 2 * net::LinkParams{}.latency_us);
  EXPECT_EQ(dep->storage(2).rpc_counters().timed_out, 0u);
  EXPECT_EQ(dep->PendingRpcCount(), 0u);
  EXPECT_EQ(HeldProbes(*dep), 0u);
}

// ---------------------------------------------------------------------------
// ClaimReplica: the claim replica's rules alone, with no network. A probe of
// a claimed epoch is held and answered exactly once — by the change that
// settles it, or at its hold bound — and a restart drops it.

class ClaimReplicaTest : public ::testing::Test {
 protected:
  ClaimReplicaTest()
      : claims(&store, &counters, [this](Epoch e) { purged.push_back(e); }) {}

  static ClaimRequest Req(Epoch e, ParticipantId p, uint64_t nonce) {
    return ClaimRequest{e, ClaimInstance{p, /*node=*/p, nonce}};
  }
  /// The answers `replies` carries for probe `req_id`, decoded.
  static std::vector<ClaimProbeAnswer> AnswersTo(const ClaimReplica::Replies& replies,
                                                 uint64_t req_id) {
    std::vector<ClaimProbeAnswer> out;
    for (const ClaimReplica::Reply& r : replies) {
      if (r.req_id != req_id) continue;
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
      Reader rd(r.body);
      ClaimProbeAnswer a;
      EXPECT_TRUE(ClaimProbeAnswer::DecodeFrom(&rd, &a).ok());
      out.push_back(a);
    }
    return out;
  }

  localstore::LocalStore store;
  ClaimCounters counters;
  std::vector<Epoch> purged;
  ClaimReplica claims;
};

TEST_F(ClaimReplicaTest, ProbesOfSettledSlotsAreAnsweredAtOnce) {
  auto empty = AnswersTo(claims.Probe(9, 1, 5, 0), 1);
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty[0].outcome, ClaimProbeAnswer::Outcome::kEmpty);
  EXPECT_FALSE(empty[0].waited);
  ASSERT_EQ(claims.Claim(1, 2, Req(5, 1, 1), 0).size(), 1u);
  ASSERT_EQ(claims.Confirm(1, 3, Req(5, 1, 1), 0).size(), 1u);
  auto confirmed = AnswersTo(claims.Probe(9, 4, 5, 0), 4);
  ASSERT_EQ(confirmed.size(), 1u);
  EXPECT_EQ(confirmed[0].outcome, ClaimProbeAnswer::Outcome::kConfirmed);
  EXPECT_FALSE(confirmed[0].waited);
  EXPECT_EQ(claims.held_count(), 0u);
}

TEST_F(ClaimReplicaTest, ConfirmAnswersHeldProbesInArrivalOrder) {
  ASSERT_EQ(claims.Claim(1, 1, Req(5, 1, 1), 0).size(), 1u);
  EXPECT_TRUE(claims.Probe(3, 30, 5, 10).empty());
  EXPECT_TRUE(claims.Probe(2, 20, 5, 20).empty());
  EXPECT_TRUE(claims.Probe(4, 40, 5, 30).empty());
  EXPECT_EQ(claims.held_count(), 3u);
  // The owner's heartbeat re-claim changes nothing a probe waits for.
  EXPECT_EQ(claims.Claim(1, 2, Req(5, 1, 2), 40).size(), 1u);
  EXPECT_EQ(claims.held_count(), 3u);

  ClaimReplica::Replies out = claims.Confirm(1, 5, Req(5, 1, 2), 50);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].req_id, 5u);  // the confirm's own reply first
  const std::vector<uint64_t> order{out[1].req_id, out[2].req_id, out[3].req_id};
  EXPECT_EQ(order, (std::vector<uint64_t>{30, 20, 40}));
  for (uint32_t rank = 0; rank < 3; ++rank) {
    auto a = AnswersTo(out, order[rank]);
    ASSERT_EQ(a.size(), 1u);
    EXPECT_EQ(a[0].outcome, ClaimProbeAnswer::Outcome::kConfirmed);
    EXPECT_TRUE(a[0].waited);
    EXPECT_EQ(a[0].rank, rank);
    EXPECT_EQ(a[0].claim.participant, 1u);
  }
  // Answered exactly once: neither the hold bound nor a later change
  // answers them again.
  EXPECT_EQ(claims.held_count(), 0u);
  EXPECT_TRUE(claims.ExpireHeld(10 * kClaimProbeHoldUs).empty());
  EXPECT_EQ(claims.Claim(1, 6, Req(5, 1, 3), 60).size(), 1u);
}

TEST_F(ClaimReplicaTest, ReleaseAnswersHeldProbesWithAnEmptySlot) {
  ASSERT_EQ(claims.Claim(1, 1, Req(5, 1, 7), 0).size(), 1u);
  EXPECT_TRUE(claims.Probe(2, 10, 5, 0).empty());
  // A stale release (an older attempt's nonce) neither frees the slot nor
  // answers the probe.
  EXPECT_TRUE(claims.Release(EpochInstance{5, 1, 6}).empty());
  EXPECT_EQ(claims.held_count(), 1u);
  auto a = AnswersTo(claims.Release(EpochInstance{5, 1, 7}), 10);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].outcome, ClaimProbeAnswer::Outcome::kEmpty);
  EXPECT_TRUE(a[0].waited);
  EXPECT_EQ(claims.held_count(), 0u);
}

TEST_F(ClaimReplicaTest, FenceGrantAndPurgeEachAnswerHeldProbes) {
  const sim::SimTime ttl = sim::kMicrosPerSec;
  ASSERT_EQ(claims.Claim(1, 1, Req(5, 7, 3), 0).size(), 1u);
  EXPECT_TRUE(claims.Probe(2, 10, 5, 0).empty());
  // A refused fence (owner still fresh) changes nothing.
  ClaimReplica::Replies refused = claims.Fence(2, 11, FenceRequest{5, 9, 7, ttl}, ttl / 2);
  ASSERT_EQ(refused.size(), 1u);
  EXPECT_TRUE(refused[0].status.IsUnavailable());
  EXPECT_EQ(claims.held_count(), 1u);
  // The grant stores a burn promise and answers the probe with it.
  ClaimReplica::Replies granted = claims.Fence(2, 12, FenceRequest{5, 9, 7, ttl}, 2 * ttl);
  ASSERT_EQ(granted.size(), 2u);
  EXPECT_TRUE(granted[0].status.ok());
  auto promised = AnswersTo(granted, 10);
  ASSERT_EQ(promised.size(), 1u);
  EXPECT_EQ(promised[0].outcome, ClaimProbeAnswer::Outcome::kPromised);
  EXPECT_TRUE(promised[0].claim.fenced);
  EXPECT_FALSE(promised[0].claim.purged);
  // A probe of the promise is held in turn; the purge answers it.
  EXPECT_TRUE(claims.Probe(2, 13, 5, 2 * ttl).empty());
  auto burned = AnswersTo(claims.Burn(EpochInstance{5, 7, 3}), 13);
  ASSERT_EQ(burned.size(), 1u);
  EXPECT_EQ(burned[0].outcome, ClaimProbeAnswer::Outcome::kBurned);
  EXPECT_EQ(purged, (std::vector<Epoch>{5}));
  EXPECT_TRUE(claims.IsBurned(5));
  EXPECT_EQ(claims.held_count(), 0u);
}

TEST_F(ClaimReplicaTest, HoldBoundAnswersWithTheSlotStillHeld) {
  ASSERT_EQ(claims.Claim(1, 1, Req(5, 7, 1), 0).size(), 1u);
  EXPECT_TRUE(claims.Probe(2, 10, 5, 100).empty());
  EXPECT_TRUE(claims.ExpireHeld(100 + kClaimProbeHoldUs - 1).empty());
  auto held = AnswersTo(claims.ExpireHeld(100 + kClaimProbeHoldUs), 10);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].outcome, ClaimProbeAnswer::Outcome::kHeld);
  EXPECT_TRUE(held[0].waited);
  EXPECT_EQ(held[0].claim.participant, 7u);
  // Answered once: the commit that follows answers nobody else.
  EXPECT_EQ(claims.Confirm(1, 2, Req(5, 7, 1), 200 + kClaimProbeHoldUs).size(), 1u);
}

TEST_F(ClaimReplicaTest, PushAndRetirementAnswerHeldProbes) {
  ASSERT_EQ(claims.Claim(1, 1, Req(5, 7, 1), 0).size(), 1u);
  ASSERT_EQ(claims.Claim(1, 2, Req(6, 7, 2), 0).size(), 1u);
  EXPECT_TRUE(claims.Probe(2, 10, 5, 0).empty());
  EXPECT_TRUE(claims.Probe(2, 11, 6, 0).empty());
  // A pushed committed record answers the probe of epoch 5.
  Writer w;
  EpochClaimRecord{7, 7, /*committed=*/true, 1}.EncodeTo(&w);
  bool stored = false;
  auto pushed = AnswersTo(claims.MergePushed(5, w.data(), 10, &stored), 10);
  EXPECT_TRUE(stored);
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_EQ(pushed[0].outcome, ClaimProbeAnswer::Outcome::kConfirmed);
  EXPECT_EQ(claims.max_confirmed(), 5u);
  // GC deleting epoch 6's record answers its probe with an empty slot.
  ASSERT_TRUE(store.Delete(keys::EpochClaim(6)).ok());
  auto retired = AnswersTo(claims.Retired(6), 11);
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0].outcome, ClaimProbeAnswer::Outcome::kEmpty);
  EXPECT_EQ(claims.held_count(), 0u);
}

TEST_F(ClaimReplicaTest, RestartDropsHeldProbes) {
  ASSERT_EQ(claims.Claim(1, 1, Req(5, 7, 1), 0).size(), 1u);
  EXPECT_TRUE(claims.Probe(2, 10, 5, 0).empty());
  claims.Restart(50);
  EXPECT_EQ(claims.held_count(), 0u);
  // The rebuilt replica still holds the claim; its commit answers nobody.
  EXPECT_EQ(claims.Confirm(1, 2, Req(5, 7, 1), 60).size(), 1u);
  EXPECT_EQ(claims.max_confirmed(), 5u);
  EXPECT_TRUE(claims.Probe(2, 11, 6, 70).size() == 1u);  // empty: answered
  ASSERT_EQ(claims.Claim(1, 3, Req(6, 7, 2), 80).size(), 1u);
  EXPECT_TRUE(claims.Probe(2, 12, 6, 90).empty());
  claims.DropHeld();  // fail-stop death drops them too
  EXPECT_EQ(claims.held_count(), 0u);
}

}  // namespace
}  // namespace orchestra::storage
