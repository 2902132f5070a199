// Property suites: randomized histories and queries checked against simple
// models. These are the invariants the paper's design promises:
//  * every published epoch is a frozen, exactly-reconstructible snapshot
//    (§IV), regardless of the interleaving of inserts/updates/deletes;
//  * distributed execution returns the same bag as a single-node reference
//    for arbitrary select-project-join-aggregate plans (§V);
//  * replication keeps every epoch readable after a node failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "common/rng.h"
#include "common/strings.h"
#include "common/serial.h"
#include "deploy/deployment.h"
#include "localstore/local_store.h"
#include "query/reference.h"
#include "storage/page.h"
#include "sql/parser.h"
#include "optimizer/optimizer.h"

namespace orchestra {
namespace {

using storage::Epoch;
using storage::RelationDef;
using storage::Schema;
using storage::Tuple;
using storage::Update;
using storage::UpdateBatch;
using storage::Value;
using storage::ValueType;

// ---------------------------------------------------------------------------
// The column-pruned tuple decode (storage::DecodeTupleColumns, what a scan
// runs on each stored row) against the full decode: over random tuples,
// random keep lists, every truncation point and corrupted tags, it succeeds
// exactly when DecodeTuple does, yields the kept columns equal and leaves
// the others null.

Value RandomValue(Rng* rng) {
  switch (rng->Uniform(4)) {
    case 0:
      return Value::Null();
    case 1:
      return Value(static_cast<int64_t>(rng->NextU64()) >> rng->Uniform(64));
    case 2:
      return Value(static_cast<double>(rng->UniformRange(-1000000, 1000000)) / 7.0);
    default: {
      // Short (inline) and long strings, some with embedded NULs.
      std::string s = rng->AlphaString(static_cast<size_t>(rng->Uniform(40)));
      if (!s.empty() && rng->OneIn(3)) s[rng->Uniform(s.size())] = '\0';
      return Value(std::move(s));
    }
  }
}

void ExpectPrunedMatchesFull(std::string_view bytes, const std::vector<int32_t>& keep,
                             Tuple* scratch) {
  Tuple full;
  Reader fr(bytes);
  Status full_st = storage::DecodeTuple(&fr, &full);
  Reader pr(bytes);
  Status pruned_st = storage::DecodeTupleColumns(&pr, &keep, scratch);
  ASSERT_EQ(pruned_st.ok(), full_st.ok()) << full_st.ToString() << " / "
                                          << pruned_st.ToString();
  if (!full_st.ok()) return;
  EXPECT_EQ(pr.position(), fr.position());
  ASSERT_EQ(scratch->size(), full.size());
  for (size_t i = 0; i < full.size(); ++i) {
    bool kept = std::binary_search(keep.begin(), keep.end(), static_cast<int32_t>(i));
    if (kept) {
      EXPECT_EQ((*scratch)[i], full[i]) << "column " << i;
    } else {
      EXPECT_TRUE((*scratch)[i].is_null()) << "column " << i;
    }
  }
}

TEST(TupleCodecProperty, PrunedDecodeRefusesWhatTheFullDecodeRefuses) {
  Rng rng(2010);
  Tuple scratch;  // reused across rows, as a scan reuses its row
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE(round);
    Tuple t(static_cast<size_t>(rng.Uniform(13)));
    for (Value& v : t) v = RandomValue(&rng);
    std::vector<int32_t> keep;
    for (size_t i = 0; i < t.size() + 2; ++i) {
      if (rng.OneIn(2)) keep.push_back(static_cast<int32_t>(i));
    }
    Writer w;
    storage::EncodeTuple(t, &w);
    const std::string bytes = w.data();

    ExpectPrunedMatchesFull(bytes, keep, &scratch);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      ExpectPrunedMatchesFull(std::string_view(bytes).substr(0, cut), keep, &scratch);
    }
    // A bad type tag in one value, kept or skipped: both refuse.
    if (!t.empty()) {
      Writer prefix;
      prefix.PutVarint32(static_cast<uint32_t>(t.size()));
      size_t col = static_cast<size_t>(rng.Uniform(t.size()));
      for (size_t i = 0; i < col; ++i) t[i].EncodeTo(&prefix);
      std::string bad = prefix.data();
      bad.push_back('\x07');
      bad.append(bytes.substr(bad.size()));
      ExpectPrunedMatchesFull(bad, keep, &scratch);
      Reader r(bad);
      Tuple out;
      EXPECT_TRUE(storage::DecodeTuple(&r, &out).IsCorruption());
    }
  }
}

TEST(TupleCodecProperty, ArityTheBodyCannotHoldIsRefusedBeforeSizing) {
  // A 3-byte body that claims 65,536 values.
  Writer w;
  w.PutVarint32(1u << 16);
  Tuple out, pruned;
  std::vector<int32_t> keep = {0};
  Reader r(w.data());
  EXPECT_TRUE(storage::DecodeTuple(&r, &out).IsCorruption());
  Reader pr(w.data());
  EXPECT_TRUE(storage::DecodeTupleColumns(&pr, &keep, &pruned).IsCorruption());
  EXPECT_EQ(out.capacity(), 0u);
  EXPECT_EQ(pruned.capacity(), 0u);
}

// ---------------------------------------------------------------------------
// The copy-on-write page merge (storage::MergePage, the index replica's merge
// on encoded bytes) against a reference that loads the old page into a
// std::map, applies the edits in batch order and sorts the survivors by
// (hash, key). The merge's splice, applied to the encoded old page, must
// decode to the reference.

storage::Page ReferenceMerge(const storage::Page& old,
                             const std::vector<storage::PageEdit>& edits,
                             Epoch epoch) {
  std::map<std::string, std::pair<HashId, Epoch>> live;
  for (size_t i = 0; i < old.ids.size(); ++i) {
    live[old.ids[i].key_bytes] = {old.hashes[i], old.ids[i].epoch};
  }
  for (const storage::PageEdit& e : edits) {
    if (e.erase) {
      live.erase(std::string(e.key));
    } else {
      live[std::string(e.key)] = {e.hash, epoch};
    }
  }
  std::vector<std::tuple<HashId, std::string, Epoch>> rows;
  for (const auto& [key, v] : live) rows.emplace_back(v.first, key, v.second);
  std::sort(rows.begin(), rows.end());
  storage::Page out;
  for (const auto& [hash, key, e] : rows) {
    out.ids.push_back(storage::TupleId{key, e});
    out.hashes.push_back(hash);
  }
  return out;
}

// Keys share a handful of hashes, as under a partition-prefix placement, so
// ties on the hash exercise the key order too. Every hash falls in
// partition 0 of kMergePartitions.
HashId MergeHash(uint64_t k) { return HashId::FromU64(k % 5); }
constexpr uint32_t kMergePartitions = 4;

// Hashes that tie limb by limb, for the merge walk's byte-wise compare.
// Keys 2d and 2d + 1 share a whole hash, and bit i of d % 32 picks the value
// of 32-bit limb i (limb 4 the most significant): hashes d and d ^ 1 share
// their top 16 bytes and differ in the lowest limb, d and d ^ 2 in the next,
// and so on. The two limb values sort one way as numbers and the other way
// as little-endian bytes, so a compare that reads the encoding in the wrong
// byte order fails. Every hash falls in partition 0.
HashId LimbTieHash(uint64_t k) {
  constexpr uint32_t kLow = 0x000000FF, kHigh = 0x01000000;
  const uint64_t d = (k / 2) % 32;
  std::string big_endian;
  for (int limb = 4; limb >= 0; --limb) {
    const uint32_t v = ((d >> limb) & 1) != 0 ? kHigh : kLow;
    for (int b = 3; b >= 0; --b) big_endian.push_back(static_cast<char>(v >> (8 * b)));
  }
  Reader r(big_endian);
  HashId h;
  EXPECT_TRUE(HashId::DecodeFrom(&r, &h).ok());
  return h;
}

// One partition's edits, given in batch order, as a delta carries them:
// strictly ascending by (hash, key), the last edit of a key winning.
std::vector<storage::PageEdit> SortEdits(const std::vector<storage::PageEdit>& edits) {
  std::map<std::pair<HashId, std::string_view>, storage::PageEdit> last;
  for (const storage::PageEdit& e : edits) last[{e.hash, e.key}] = e;
  std::vector<storage::PageEdit> out;
  for (const auto& [key, e] : last) out.push_back(e);
  return out;
}

std::string EncodePage(const storage::Page& page) {
  Writer w;
  page.EncodeTo(&w);
  return w.Release();
}

// The new version `old` (at epoch 1, or none when `old` is null) becomes
// under `edits` (batch order), as the index replica stores it.
storage::Page ReplicaMerge(const storage::Page* old,
                           const std::vector<storage::PageEdit>& edits,
                           Epoch epoch, std::string* page_bytes = nullptr) {
  storage::PageDelta delta;
  delta.page = storage::PageDescriptor{storage::PageId{"R", epoch, 0},
                                       kMergePartitions};
  std::string base;
  if (old != nullptr) {
    delta.base = old->desc.id;
    base = EncodePage(*old);
  }
  delta.edits = SortEdits(edits);
  auto merged = storage::MergePage(base, delta);
  EXPECT_TRUE(merged.ok()) << merged.status().ToString();
  if (!merged.ok()) return {};
  std::string bytes;
  Status applied = localstore::Splice::Apply(merged->splice, base, &bytes);
  EXPECT_TRUE(applied.ok()) << applied.ToString();
  Reader r(bytes);
  storage::Page got;
  EXPECT_TRUE(storage::Page::DecodeFrom(&r, &got).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(got.desc, delta.page);
  EXPECT_EQ(got.ids.size(), merged->entries);
  if (page_bytes != nullptr) *page_bytes = std::move(bytes);
  return got;
}

storage::Page OldPage(std::vector<storage::TupleId> ids,
                      std::vector<HashId> hashes) {
  storage::Page old;
  old.desc = storage::PageDescriptor{storage::PageId{"R", 1, 0}, kMergePartitions};
  old.ids = std::move(ids);
  old.hashes = std::move(hashes);
  return old;
}

void ExpectMergeMatchesReference(const storage::Page& old,
                                 const std::vector<storage::PageEdit>& edits,
                                 Epoch epoch) {
  storage::Page want = ReferenceMerge(old, edits, epoch);
  std::string bytes;
  storage::Page got = ReplicaMerge(&old, edits, epoch, &bytes);
  EXPECT_EQ(got.ids, want.ids);
  EXPECT_EQ(got.hashes, want.hashes);
  // A same-batch retry rebuilds the version byte for byte.
  std::string retried;
  ReplicaMerge(&old, edits, epoch, &retried);
  EXPECT_EQ(retried, bytes);
  // Without a base, the edits alone make the version.
  if (old.ids.empty()) {
    storage::Page fresh = ReplicaMerge(nullptr, edits, epoch);
    EXPECT_EQ(fresh.ids, want.ids);
  }
}

// ---------------------------------------------------------------------------
// The coordinator record codec: random records (0-200 pages of one
// relation, ascending partitions, epochs of one to ten varint bytes) round
// trip, cost at most three bytes a page past the relation's name for
// partitions below 128 and epochs below 2^14, and every strict prefix of
// their bytes is refused.

TEST(CoordinatorRecordProperty, RandomRecordsRoundTrip) {
  Rng rng(33);
  for (int trial = 0; trial < 300; ++trial) {
    storage::CoordinatorRecord rec;
    rec.relation = rng.AlphaString(1 + rng.Uniform(12));
    rec.epoch = rng.NextU64() >> rng.Uniform(64);
    rec.participant = static_cast<storage::ParticipantId>(rng.NextU64());
    const auto partitions = static_cast<uint32_t>(1 + rng.Uniform(200));
    const bool small = rng.OneIn(2);
    for (uint32_t p = 0; p < partitions; ++p) {
      if (!rng.OneIn(3)) continue;
      Epoch e = small ? rng.Uniform(1 << 14) : rng.NextU64() >> rng.Uniform(64);
      rec.pages.push_back(storage::PageDescriptor{storage::PageId{rec.relation, e, p},
                                                  partitions});
    }
    Writer w;
    rec.EncodeTo(&w);
    const std::string bytes = w.Release();
    if (small && partitions <= 128) {
      EXPECT_LE(bytes.size(), rec.relation.size() + 24 + 3 * rec.pages.size());
    }
    Reader r(bytes);
    storage::CoordinatorRecord back;
    ASSERT_TRUE(storage::CoordinatorRecord::DecodeFrom(&r, &back).ok());
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(back, rec);
    for (size_t n = 0; n < bytes.size(); n += 1 + n / 16) {
      Reader cut(std::string_view(bytes).substr(0, n));
      storage::CoordinatorRecord partial;
      EXPECT_FALSE(storage::CoordinatorRecord::DecodeFrom(&cut, &partial).ok()) << n;
    }
  }
}

class MergePageProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergePageProperty, MatchesMapReference) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    // Odd rounds tie hashes limb by limb over a wider universe.
    HashId (*hash_of)(uint64_t) = round % 2 == 0 ? MergeHash : LimbTieHash;
    const uint64_t universe = 1 + rng.Uniform(round % 2 == 0 ? 40 : 80);
    // Old page: a random subset of the universe at older epochs.
    std::vector<std::tuple<HashId, std::string, Epoch>> rows;
    for (uint64_t k = 0; k < universe; ++k) {
      if (rng.OneIn(2)) rows.emplace_back(hash_of(k), Tag("k", k), 1 + rng.Uniform(9));
    }
    std::sort(rows.begin(), rows.end());
    storage::Page old = OldPage({}, {});
    for (const auto& [hash, key, e] : rows) {
      old.ids.push_back(storage::TupleId{key, e});
      old.hashes.push_back(hash);
    }
    // Edits in batch order; keys repeat, so one batch may set, erase and
    // set one key again. The key strings outlive the edits' views.
    const size_t n = rng.Uniform(16);
    std::vector<std::string> keys;
    keys.reserve(n);
    std::vector<storage::PageEdit> edits;
    for (size_t j = 0; j < n; ++j) {
      uint64_t k = rng.Uniform(universe);
      keys.push_back(Tag("k", k));
      edits.push_back(storage::PageEdit{keys.back(), hash_of(k), rng.OneIn(3)});
    }
    ExpectMergeMatchesReference(old, edits, 10);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergePageProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(MergePage, InsertThenDeleteAndEmptyResults) {
  const std::string a = Tag("k", 1), b = Tag("k", 6), c = Tag("k", 2);
  const storage::Page old = OldPage(
      {storage::TupleId{a, 3}, storage::TupleId{b, 4}}, {MergeHash(1), MergeHash(6)});
  // A key the batch inserts and then deletes never reaches the page; one it
  // deletes and then inserts does, at the new epoch.
  std::vector<storage::PageEdit> edits = {
      {c, MergeHash(2), false}, {c, MergeHash(2), true},
      {a, MergeHash(1), true},  {a, MergeHash(1), false}};
  ExpectMergeMatchesReference(old, edits, 7);
  storage::Page merged = ReplicaMerge(&old, edits, 7);
  ASSERT_EQ(merged.ids.size(), 2u);
  EXPECT_EQ(merged.ids[0], (storage::TupleId{a, 7}));
  EXPECT_EQ(merged.ids[1], (storage::TupleId{b, 4}));
  // Deleting every key leaves an empty page, as does merging nothing.
  std::vector<storage::PageEdit> erase_all = {{a, MergeHash(1), true},
                                              {b, MergeHash(6), true}};
  ExpectMergeMatchesReference(old, erase_all, 7);
  EXPECT_TRUE(ReplicaMerge(&old, erase_all, 7).ids.empty());
  EXPECT_TRUE(ReplicaMerge(nullptr, {}, 7).ids.empty());
}

// The base is the stored record the replica merges into: a truncated or
// corrupted one is answered with Corruption or merged as what it decodes
// to, and never aborts the node.
TEST(MergePage, TruncatedOrCorruptBaseIsCorruption) {
  const std::string a = Tag("k", 1), b = Tag("k", 6), c = Tag("k", 2);
  const storage::Page old = OldPage(
      {storage::TupleId{a, 3}, storage::TupleId{b, 4}}, {MergeHash(1), MergeHash(6)});
  const std::string base = EncodePage(old);
  storage::PageDelta delta;
  delta.page = storage::PageDescriptor{storage::PageId{"R", 7, 0}, kMergePartitions};
  delta.base = old.desc.id;
  delta.edits = {{c, MergeHash(2), false}};
  ASSERT_TRUE(storage::MergePage(base, delta).ok());
  for (size_t n = 0; n < base.size(); ++n) {
    auto cut = storage::MergePage(std::string_view(base).substr(0, n), delta);
    EXPECT_TRUE(cut.status().IsCorruption()) << "prefix " << n;
  }
  EXPECT_TRUE(storage::MergePage(base + "x", delta).status().IsCorruption());
  // Entries out of order, and a base that is another page.
  storage::Page swapped = old;
  std::swap(swapped.ids[0], swapped.ids[1]);
  std::swap(swapped.hashes[0], swapped.hashes[1]);
  EXPECT_TRUE(storage::MergePage(EncodePage(swapped), delta).status().IsCorruption());
  storage::PageDelta other = delta;
  other.base->epoch = 2;
  EXPECT_TRUE(storage::MergePage(base, other).status().IsCorruption());
  // Every single-byte corruption either decodes to some page or is refused.
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    std::string bad = base;
    bad[rng.Uniform(bad.size())] = static_cast<char>(rng.Uniform(256));
    auto merged = storage::MergePage(bad, delta);
    if (!merged.ok()) {
      EXPECT_TRUE(merged.status().IsCorruption());
      continue;
    }
    std::string bytes;
    EXPECT_TRUE(localstore::Splice::Apply(merged->splice, bad, &bytes).ok());
  }
}

// ---------------------------------------------------------------------------
// Random publish histories: every epoch is a frozen snapshot.

class PublishHistoryProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PublishHistoryProperty, EveryEpochReconstructsExactly) {
  Rng rng(GetParam());
  deploy::DeploymentOptions opts;
  opts.num_nodes = 3 + rng.Uniform(4);
  deploy::Deployment dep(opts);

  RelationDef def;
  def.name = "H";
  def.schema = Schema({{"k", ValueType::kInt64}, {"v", ValueType::kString}}, 1);
  def.num_partitions = 8 + static_cast<uint32_t>(rng.Uniform(12));
  ASSERT_TRUE(dep.CreateRelation(0, def).ok());

  // Model: key -> value, snapshotted at each epoch.
  std::map<int64_t, std::string> model;
  std::vector<std::map<int64_t, std::string>> snapshots;  // [epoch-1]
  const int epochs = 4 + static_cast<int>(rng.Uniform(4));
  for (int e = 0; e < epochs; ++e) {
    UpdateBatch batch;
    int ops = 1 + static_cast<int>(rng.Uniform(30));
    for (int i = 0; i < ops; ++i) {
      int64_t key = static_cast<int64_t>(rng.Uniform(40));
      if (!model.empty() && rng.OneIn(4)) {
        batch["H"].push_back(Update::Delete({Value(key), Value(std::string())}));
        model.erase(key);
      } else {
        std::string v = rng.AlphaString(8);
        batch["H"].push_back(Update::Insert({Value(key), Value(v)}));
        model[key] = v;
      }
    }
    auto epoch = dep.Publish(0, std::move(batch));
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    ASSERT_EQ(*epoch, static_cast<Epoch>(e + 1));
    snapshots.push_back(model);
  }

  // Every historical epoch must reconstruct exactly, from any node.
  for (int e = 0; e < epochs; ++e) {
    auto rows = dep.Retrieve(rng.Uniform(dep.size()), "H",
                             static_cast<Epoch>(e + 1));
    ASSERT_TRUE(rows.ok()) << "epoch " << (e + 1);
    std::map<int64_t, std::string> got;
    for (const Tuple& t : *rows) got[t[0].AsInt64()] = t[1].AsString();
    EXPECT_EQ(got, snapshots[e]) << "epoch " << (e + 1) << " diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PublishHistoryProperty,
                         ::testing::Values(11, 22, 33, 44));

TEST_P(PublishHistoryProperty, SnapshotsSurviveNodeFailure) {
  Rng rng(GetParam() * 1337);
  deploy::DeploymentOptions opts;
  opts.num_nodes = 5;
  opts.replication = 3;
  deploy::Deployment dep(opts);

  RelationDef def;
  def.name = "H";
  def.schema = Schema({{"k", ValueType::kInt64}, {"v", ValueType::kString}}, 1);
  def.num_partitions = 16;
  ASSERT_TRUE(dep.CreateRelation(0, def).ok());

  std::map<int64_t, std::string> model;
  UpdateBatch batch;
  for (int i = 0; i < 150; ++i) {
    int64_t key = static_cast<int64_t>(rng.Uniform(200));
    std::string v = rng.AlphaString(12);
    batch["H"].push_back(Update::Insert({Value(key), Value(v)}));
    model[key] = v;
  }
  auto epoch = dep.Publish(0, std::move(batch));
  ASSERT_TRUE(epoch.ok());

  // Kill a random non-coordinating node; r=3 keeps every range served.
  net::NodeId victim = 1 + static_cast<net::NodeId>(rng.Uniform(dep.size() - 1));
  dep.KillNode(victim);
  auto rows = dep.Retrieve(0, "H", *epoch);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::map<int64_t, std::string> got;
  for (const Tuple& t : *rows) got[t[0].AsInt64()] = t[1].AsString();
  EXPECT_EQ(got, model);
}

// ---------------------------------------------------------------------------
// Random SPJA queries: distributed == reference.

struct RandomQueryCase {
  uint64_t seed;
};

class RandomQueryProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomQueryProperty, DistributedMatchesReference) {
  Rng rng(GetParam());
  deploy::DeploymentOptions opts;
  opts.num_nodes = 3 + rng.Uniform(4);
  deploy::Deployment dep(opts);

  // Two relations with integer join attributes and a measure.
  RelationDef fact;
  fact.name = "F";
  fact.schema = Schema({{"fk", ValueType::kInt64},
                        {"dim", ValueType::kInt64},
                        {"grp", ValueType::kInt64},
                        {"m", ValueType::kDouble}},
                       1);
  fact.num_partitions = 12;
  RelationDef dim;
  dim.name = "D";
  dim.schema = Schema({{"dk", ValueType::kInt64}, {"label", ValueType::kString}}, 1);
  dim.num_partitions = 12;
  ASSERT_TRUE(dep.CreateRelation(0, fact).ok());
  ASSERT_TRUE(dep.CreateRelation(0, dim).ok());

  query::ReferenceDatabase ref_db;
  UpdateBatch batch;
  int n_dim = 10 + static_cast<int>(rng.Uniform(20));
  for (int i = 0; i < n_dim; ++i) {
    Tuple t = {Value(static_cast<int64_t>(i)),
               Value("L" + std::to_string(i % 5))};
    ref_db["D"].push_back(t);
    batch["D"].push_back(Update::Insert(std::move(t)));
  }
  int n_fact = 100 + static_cast<int>(rng.Uniform(300));
  for (int i = 0; i < n_fact; ++i) {
    Tuple t = {Value(static_cast<int64_t>(i)),
               Value(static_cast<int64_t>(rng.Uniform(n_dim))),
               Value(static_cast<int64_t>(rng.Uniform(7))),
               Value(rng.NextDouble() * 50)};
    ref_db["F"].push_back(t);
    batch["F"].push_back(Update::Insert(std::move(t)));
  }
  auto epoch = dep.Publish(0, std::move(batch));
  ASSERT_TRUE(epoch.ok());

  auto catalog = [&dep](const std::string& name) {
    return dep.storage(0).Relation(name);
  };
  optimizer::StatsCatalog stats;
  stats["F"] = {static_cast<uint64_t>(n_fact), 36, {}};
  stats["D"] = {static_cast<uint64_t>(n_dim), 16, {}};
  optimizer::CostParams params;
  params.num_nodes = dep.size();

  // A few random query shapes per seed.
  std::vector<std::string> queries;
  int64_t cut = static_cast<int64_t>(rng.Uniform(n_fact));
  queries.push_back("SELECT fk, m FROM F WHERE fk < " + std::to_string(cut));
  queries.push_back("SELECT grp, COUNT(*), SUM(m) FROM F GROUP BY grp");
  queries.push_back("SELECT label, SUM(m) FROM F, D WHERE F.dim = D.dk "
                    "GROUP BY label");
  queries.push_back("SELECT fk, label FROM F, D WHERE F.dim = D.dk AND grp = " +
                    std::to_string(rng.Uniform(7)));
  queries.push_back("SELECT MIN(m), MAX(m), COUNT(*) FROM F WHERE grp <> 3");

  for (const std::string& text : queries) {
    auto analyzed = sql::ParseAndAnalyze(text, catalog);
    ASSERT_TRUE(analyzed.ok()) << text << ": " << analyzed.status().ToString();
    optimizer::Optimizer opt(stats, params);
    auto planned = opt.Plan(*analyzed);
    ASSERT_TRUE(planned.ok()) << text << ": " << planned.status().ToString();
    auto got = dep.ExecuteQuery(rng.Uniform(dep.size()), planned->plan, *epoch);
    ASSERT_TRUE(got.ok()) << text << ": " << got.status().ToString();
    auto want = query::ReferenceExecute(planned->plan, ref_db);
    ASSERT_TRUE(want.ok()) << text;
    EXPECT_TRUE(query::SameBagApprox(got->rows, *want))
        << text << "\n got " << got->rows.size() << " want " << want->size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryProperty,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------------
// Determinism: the whole distributed pipeline is reproducible bit-for-bit.

TEST(Determinism, SameSeedSameTimingSameTraffic) {
  auto run = [](sim::SimTime* time_out, uint64_t* bytes_out) {
    deploy::DeploymentOptions opts;
    opts.num_nodes = 5;
    deploy::Deployment dep(opts);
    RelationDef def;
    def.name = "R";
    def.schema = Schema({{"k", ValueType::kInt64}, {"v", ValueType::kString}}, 1);
    ASSERT_TRUE(dep.CreateRelation(0, def).ok());
    Rng rng(9);
    UpdateBatch batch;
    for (int i = 0; i < 400; ++i) {
      batch["R"].push_back(
          Update::Insert({Value(static_cast<int64_t>(i)), Value(rng.AlphaString(16))}));
    }
    auto epoch = dep.Publish(0, std::move(batch));
    ASSERT_TRUE(epoch.ok());
    auto catalog = [&dep](const std::string& name) {
      return dep.storage(0).Relation(name);
    };
    auto analyzed = sql::ParseAndAnalyze("SELECT k, v FROM R WHERE k < 200", catalog);
    optimizer::Optimizer opt({}, {});
    auto planned = opt.Plan(*analyzed);
    dep.network().ResetTraffic();
    auto result = dep.ExecuteQuery(1, planned->plan, *epoch);
    ASSERT_TRUE(result.ok());
    *time_out = result->execution_us;
    *bytes_out = dep.network().total_bytes();
  };
  sim::SimTime t1 = 0, t2 = 0;
  uint64_t b1 = 0, b2 = 0;
  run(&t1, &b1);
  run(&t2, &b2);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(b1, b2);
  EXPECT_GT(b1, 0u);
}

}  // namespace
}  // namespace orchestra
