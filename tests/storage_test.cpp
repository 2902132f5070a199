#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "deploy/deployment.h"
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
      HashId h = HashId::OfBytes("p" + std::to_string(rng.NextU64()));
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
    Tuple t = Row("key-" + std::to_string(i), rng.AlphaString(20));
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
    batch["R"].push_back(Update::Insert(Row("k" + std::to_string(i), "v")));
  }
  ASSERT_TRUE(dep->Publish(0, std::move(batch)).ok());

  // Kill a node; with r=3 every range still has live replicas, and retrieval
  // retries them transparently (§III-C).
  dep->KillNode(2);
  auto rows = dep->Retrieve(0, "R", 1);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 100u);
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
    batch["Nation"].push_back(Update::Insert(Row("n" + std::to_string(i), "meta")));
  }
  ASSERT_TRUE(dep->Publish(0, std::move(batch)).ok());
  // Every node holds every tuple.
  for (size_t n = 0; n < dep->size(); ++n) {
    size_t local = 0;
    auto& store = dep->storage(n).store();
    std::string prefix = keys::DataPrefix("Nation");
    for (auto it = store.SeekPrefix(prefix);
         localstore::LocalStore::WithinPrefix(it, prefix); it.Next()) {
      ++local;
    }
    EXPECT_EQ(local, 25u) << "node " << n;
  }
}

TEST_F(StorageClusterTest, NewNodeReceivesReplicasViaRebalance) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch batch;
  for (int i = 0; i < 200; ++i) {
    batch["R"].push_back(Update::Insert(Row("k" + std::to_string(i), "v")));
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
        auto page = dep.storage(n).ReadPageLocal(d.id);
        if (page.ok()) {
          pages.push_back(std::move(page).value());
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
        Update::Insert(Row("key-" + std::to_string(i), rng.AlphaString(12))));
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
    first["R"].push_back(Update::Insert(Row("k" + std::to_string(i), "v")));
  }
  uint64_t before = TupleKeyHashCount();
  ASSERT_TRUE(dep->Publish(0, std::move(first)).ok());
  EXPECT_EQ(TupleKeyHashCount() - before, 150u);

  // Overwrites of existing keys: carried-forward page entries reuse their
  // stored hashes, so the count is again exactly the update count.
  UpdateBatch second;
  for (int i = 0; i < 40; ++i) {
    second["R"].push_back(Update::Insert(Row("k" + std::to_string(i), "w")));
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
}

TEST(Keys, ParsersInvertBuilders) {
  HashId h = HashId::OfBytes("some-tuple-key");
  std::string hb;
  h.AppendBigEndian(&hb);
  const std::string_view kb("k\0y", 3);  // embedded NUL survives round-trip

  // The parsed views alias the key, so each key must outlive its checks.
  const std::string data_key = keys::Data("rel", h, kb, 42);
  keys::ParsedDataKey dk;
  ASSERT_TRUE(keys::ParseData(data_key, &dk));
  EXPECT_EQ(dk.relation, "rel");
  EXPECT_EQ(dk.hash_be20, hb);
  EXPECT_EQ(dk.key_bytes, kb);
  EXPECT_EQ(dk.epoch, 42u);

  const std::string page_key = keys::PageRec("r2", 7, 31);
  keys::ParsedPageKey pk;
  ASSERT_TRUE(keys::ParsePageRec(page_key, &pk));
  EXPECT_EQ(pk.relation, "r2");
  EXPECT_EQ(pk.partition, 31u);
  EXPECT_EQ(pk.epoch, 7u);

  const std::string coord_key = keys::Coord("r3", 1u << 20);
  keys::ParsedCoordKey ck;
  ASSERT_TRUE(keys::ParseCoord(coord_key, &ck));
  EXPECT_EQ(ck.relation, "r3");
  EXPECT_EQ(ck.epoch, 1u << 20);

  // Wrong tag, truncation, and trailing garbage are all rejected.
  const std::string wrong_tag = keys::Coord("rel", 1);
  const std::string truncated = wrong_tag.substr(0, 4);
  const std::string trailing = keys::PageRec("r", 1, 2) + "x";
  EXPECT_FALSE(keys::ParseData(wrong_tag, &dk));
  EXPECT_FALSE(keys::ParseCoord(truncated, &ck));
  EXPECT_FALSE(keys::ParsePageRec(trailing, &pk));
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
    u["R"] = {Update::Insert(Row("k", "v" + std::to_string(i)))};
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
    u["R"] = {Update::Insert(Row("k" + std::to_string(i % 2), "v"))};
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
    u["R"] = {Update::Insert(Row("hot", "v" + std::to_string(i)))};
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
    u["R"] = {Update::Insert(Row("k" + std::to_string(i % 2), "v" + std::to_string(i)))};
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
  Writer gw;
  gw.PutVarint64(100);
  auto [got, claim] = call(kGetEpochClaim, gw.Release());
  ASSERT_TRUE(got.ok());
  Reader cr(claim);
  uint32_t cp = 0, cn = 0;
  bool committed = false;
  uint64_t cx = 0;
  ASSERT_TRUE(cr.GetVarint32(&cp).ok() && cr.GetVarint32(&cn).ok() &&
              cr.GetBool(&committed).ok() && cr.GetVarint64(&cx).ok());
  EXPECT_EQ(cp, 9u);
  EXPECT_TRUE(committed);
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
    u["R"] = {Update::Insert(Row("k" + std::to_string(i), "v"))};
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
  // The stored record carries both facts durably: burned AND purged.
  auto [got, bytes] = Rpc(1, kGetEpochClaim, [] {
    Writer gw;
    gw.PutVarint64(100);
    return gw.Release();
  }());
  ASSERT_TRUE(got.ok());
  Reader cr(bytes);
  EpochClaimRecord stored;
  ASSERT_TRUE(EpochClaimRecord::DecodeFrom(&cr, &stored).ok());
  EXPECT_TRUE(stored.fenced);
  EXPECT_TRUE(stored.purged);
  EXPECT_FALSE(stored.committed);
  EXPECT_EQ(stored.participant, 7u);
}

// The purge atomically retires a torn publish's discovery state: orphan
// coordinator and page records vanish together with the inverse entries
// re-aimed at surviving versions, so reads at the burned epoch get a clean
// definitive NotFound — never a half-discovered mix — and the fenced
// instance's late writes are refused everywhere afterwards.
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
  Page pg;
  pg.desc.id = PageId{"R", 3, part};
  pg.desc.num_partitions = 4;
  pg.ids = {TupleId{key_bytes, 3}};
  pg.hashes = {h};
  Writer pw;
  pg.EncodeTo(&pw);
  CoordinatorRecord crec;
  crec.relation = "R";
  crec.epoch = 3;
  crec.participant = 7;
  crec.pages = {pg.desc};
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
  // No node's inverse entry aims at the purged page (torn discovery state).
  for (size_t n = 0; n < dep->size(); ++n) {
    Writer iw;
    iw.PutString("R");
    iw.PutVarint32(part);
    auto [is, ibytes] = Rpc(static_cast<net::NodeId>(n), kGetInverse,
                            iw.Release());
    if (!is.ok()) continue;  // no entry at all is fine
    Reader ir(ibytes);
    PageId aimed;
    ASSERT_TRUE(PageId::DecodeFrom(&ir, &aimed).ok());
    EXPECT_NE(aimed.epoch, 3u) << "node " << n << " inverse aims at purged page";
  }

  // The fenced instance's late same-epoch writes are refused everywhere.
  EXPECT_TRUE(Rpc(1, kPutPage, pw.data()).first.IsFenced());
  EXPECT_TRUE(Rpc(1, kPutCoordinator, cw.data()).first.IsFenced());
  Writer tw;
  tw.PutVarint64(1);  // one relation
  tw.PutString("R");
  tw.PutVarint64(1);  // one tuple
  std::string hash_be;
  h.AppendBigEndian(&hash_be);
  tw.PutRaw(hash_be.data(), hash_be.size());
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

}  // namespace
}  // namespace orchestra::storage
