// Segmented WAL + checkpointed recovery: framing, torn-tail truncation,
// crash-mid-checkpoint and crash-mid-seal fault injection, backend crash
// semantics, the FileBackend, LocalStore integration, and a threaded
// writer-vs-readers smoke (the sanitize/TSan gate for the durability layer).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "localstore/local_store.h"
#include "wal/backend.h"
#include "wal/wal.h"

namespace orchestra::wal {
namespace {

struct Applied {
  RecordType type;
  std::string key, value;
  bool from_checkpoint;
};

Wal::ApplyFn Collect(std::vector<Applied>* out) {
  return [out](RecordType type, std::string_view key, std::string_view value,
               bool from_checkpoint) {
    out->push_back({type, std::string(key), std::string(value), from_checkpoint});
    return true;
  };
}

// The value of `base` with its first byte replaced by `c`, as a splice.
std::string ReplaceFirstByte(std::string_view base, char c) {
  localstore::Splice splice;
  splice.Literal(std::string(1, c));
  splice.Copy(1, base.size() - 1);
  return splice.Encode(base.size());
}

// The store's full contents, in key order.
std::map<std::string, std::string> Contents(const localstore::LocalStore& store) {
  std::map<std::string, std::string> out;
  for (auto it = store.Seek(""); it.Valid(); it.Next()) {
    out.emplace(it.key(), it.value());
  }
  return out;
}

TEST(WalNames, SegmentNameRoundTrip) {
  EXPECT_EQ(Wal::SegmentName(1), "wal-0000000001.seg");
  uint64_t id = 0;
  ASSERT_TRUE(Wal::ParseSegmentName("wal-0000000042.seg", &id));
  EXPECT_EQ(id, 42u);
  EXPECT_FALSE(Wal::ParseSegmentName("MANIFEST", &id));
  EXPECT_FALSE(Wal::ParseSegmentName("wal-00000000xx.seg", &id));
  EXPECT_FALSE(Wal::ParseSegmentName("wal-0000000001.tmp", &id));
  // Names sort in id order (the recovery replay order).
  EXPECT_LT(Wal::SegmentName(9), Wal::SegmentName(10));
}

TEST(Wal, AppendRecoverRoundTrip) {
  auto backend = std::make_shared<MemoryBackend>();
  {
    Wal wal(backend);
    ASSERT_TRUE(wal.AppendPut("a", "1").ok());
    ASSERT_TRUE(wal.AppendPut("b", std::string(1000, 'x')).ok());
    ASSERT_TRUE(wal.AppendDelete("a").ok());
    ASSERT_TRUE(wal.AppendPut("", "empty-key-ok-at-wal-layer").ok());
    EXPECT_EQ(wal.stats().records_appended, 4u);
  }
  Wal fresh(backend);
  std::vector<Applied> applied;
  ASSERT_TRUE(fresh.Recover(Collect(&applied)).ok());
  ASSERT_EQ(applied.size(), 4u);
  EXPECT_EQ(applied[0].type, RecordType::kPut);
  EXPECT_EQ(applied[0].key, "a");
  EXPECT_EQ(applied[1].value, std::string(1000, 'x'));
  EXPECT_EQ(applied[2].type, RecordType::kDelete);
  EXPECT_EQ(applied[3].key, "");
  EXPECT_FALSE(applied[0].from_checkpoint);
  EXPECT_EQ(fresh.stats().replayed_records, 4u);
  EXPECT_EQ(fresh.stats().snapshot_records, 0u);
  EXPECT_EQ(fresh.stats().torn_tails, 0u);
}

TEST(Wal, SegmentsSealAtTargetAndStayOrdered) {
  auto backend = std::make_shared<MemoryBackend>();
  WalOptions opts;
  opts.segment_target_bytes = 256;
  Wal wal(backend, opts);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(wal.AppendPut(Tag("key-", i), std::string(32, 'v')).ok());
  }
  EXPECT_GT(wal.stats().segments_sealed, 3u);
  EXPECT_EQ(wal.active_segment(), wal.stats().segments_sealed + 1);

  Wal fresh(backend, opts);
  std::vector<Applied> applied;
  ASSERT_TRUE(fresh.Recover(Collect(&applied)).ok());
  ASSERT_EQ(applied.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(applied[i].key, Tag("key-", i));  // id-order replay
  }
  // Recovery opens a fresh active segment past everything on disk.
  EXPECT_GT(fresh.active_segment(), wal.stats().segments_sealed);
}

TEST(MemoryBackend, CrashKeepsSyncedPrefixAndHalfTheTail) {
  MemoryBackend b;
  ASSERT_TRUE(b.Append("f", "0123456789").ok());
  ASSERT_TRUE(b.Sync("f").ok());
  ASSERT_TRUE(b.Append("f", "abcdefgh").ok());  // 8 unsynced bytes
  b.Crash();
  auto data = b.Read("f");
  ASSERT_TRUE(data.ok());
  // Synced 10 + half of the 8-byte unsynced tail.
  EXPECT_EQ(*data, "0123456789abcd");
  EXPECT_EQ(b.crashes(), 1u);
  EXPECT_EQ(b.crash_torn_bytes(), 4u);
  // Survivors count as durable: a second crash with no new appends is a
  // no-op, which is what makes double-kill churn schedules reproducible.
  b.Crash();
  EXPECT_EQ(*b.Read("f"), "0123456789abcd");
}

TEST(MemoryBackend, RenameIsAtomicPublish) {
  MemoryBackend b;
  ASSERT_TRUE(b.Append("tmp", "payload").ok());
  ASSERT_TRUE(b.Sync("tmp").ok());
  ASSERT_TRUE(b.Rename("tmp", "final").ok());
  EXPECT_FALSE(b.Exists("tmp"));
  ASSERT_TRUE(b.Exists("final"));
  EXPECT_EQ(*b.Read("final"), "payload");
  b.Crash();  // synced marker must survive the rename
  EXPECT_EQ(*b.Read("final"), "payload");
}

TEST(Wal, TornTailTruncationIsDeterministic) {
  // Two byte-identical histories crash and recover to byte-identical
  // backends and identical replay sequences.
  auto run = [](std::vector<Applied>* applied, std::string* seg_bytes) {
    auto backend = std::make_shared<MemoryBackend>();
    WalOptions opts;
    opts.sync_every_records = 0;  // leave a crashable tail
    {
      Wal wal(backend, opts);
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(wal.AppendPut(Tag("synced-", i), "v").ok());
      }
      ASSERT_TRUE(wal.Sync().ok());
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(wal.AppendPut(Tag("unsynced-", i), "v").ok());
      }
      // A large final record guarantees the crash's half-tail cut lands
      // INSIDE a record (not on a frame boundary), so truncation really runs.
      ASSERT_TRUE(wal.AppendPut("unsynced-big", std::string(2048, 'z')).ok());
    }
    backend->Crash();
    Wal fresh(backend, opts);
    ASSERT_TRUE(fresh.Recover(Collect(applied)).ok());
    EXPECT_EQ(fresh.stats().torn_tails, 1u);
    EXPECT_GT(fresh.stats().torn_bytes, 0u);
    *seg_bytes = *backend->Read(Wal::SegmentName(1));
  };
  std::vector<Applied> a1, a2;
  std::string b1, b2;
  run(&a1, &b1);
  run(&a2, &b2);
  ASSERT_EQ(a1.size(), a2.size());
  for (size_t i = 0; i < a1.size(); ++i) EXPECT_EQ(a1[i].key, a2[i].key);
  EXPECT_EQ(b1, b2);  // truncation left byte-identical segments
  // All synced records survived; the torn tail only cost unsynced ones.
  ASSERT_GE(a1.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a1[i].key, Tag("synced-", i));
  }
}

TEST(Wal, GarbageTailTruncatedAtLastWholeRecord) {
  auto backend = std::make_shared<MemoryBackend>();
  {
    Wal wal(backend);
    ASSERT_TRUE(wal.AppendPut("k1", "v1").ok());
    ASSERT_TRUE(wal.AppendPut("k2", "v2").ok());
  }
  // Simulate a partial frame header left by a crash (embedded NUL included).
  std::string whole = *backend->Read(Wal::SegmentName(1));
  ASSERT_TRUE(backend->Append(Wal::SegmentName(1), std::string("\x05\x00", 2)).ok());
  Wal fresh(backend);
  std::vector<Applied> applied;
  ASSERT_TRUE(fresh.Recover(Collect(&applied)).ok());
  EXPECT_EQ(applied.size(), 2u);
  EXPECT_EQ(fresh.stats().torn_tails, 1u);
  EXPECT_EQ(fresh.stats().torn_bytes, 2u);
  EXPECT_EQ(*backend->Read(Wal::SegmentName(1)), whole);
}

TEST(Wal, CorruptedCrcStopsReplayAtLastGoodRecord) {
  auto backend = std::make_shared<MemoryBackend>();
  {
    Wal wal(backend);
    ASSERT_TRUE(wal.AppendPut("good", "v").ok());
    ASSERT_TRUE(wal.AppendPut("flipped", "v").ok());
  }
  std::string bytes = *backend->Read(Wal::SegmentName(1));
  bytes.back() ^= 0x40;  // flip a payload bit in the second record
  ASSERT_TRUE(backend->Truncate(Wal::SegmentName(1), 0).ok());
  ASSERT_TRUE(backend->Append(Wal::SegmentName(1), bytes).ok());
  Wal fresh(backend);
  std::vector<Applied> applied;
  ASSERT_TRUE(fresh.Recover(Collect(&applied)).ok());
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0].key, "good");
  EXPECT_EQ(fresh.stats().torn_tails, 1u);
}

std::map<std::string, std::string> SnapshotMap(int n) {
  std::map<std::string, std::string> m;
  for (int i = 0; i < n; ++i) m[Tag("snap-", i)] = Tag("v", i);
  return m;
}

Wal::SnapshotIter MapIter(const std::map<std::string, std::string>& m) {
  auto it = std::make_shared<std::map<std::string, std::string>::const_iterator>(m.begin());
  return [&m, it](std::string_view* key, std::string_view* value) {
    if (*it == m.end()) return false;
    *key = (*it)->first;
    *value = (*it)->second;
    ++*it;
    return true;
  };
}

TEST(Wal, CheckpointRetiresSegmentsAndBoundsReplay) {
  auto backend = std::make_shared<MemoryBackend>();
  WalOptions opts;
  opts.segment_target_bytes = 128;
  Wal wal(backend, opts);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(wal.AppendPut(Tag("old-", i), std::string(16, 'x')).ok());
  }
  const auto snapshot = SnapshotMap(5);
  ASSERT_TRUE(wal.WriteCheckpoint(MapIter(snapshot)).ok());
  EXPECT_EQ(wal.stats().checkpoints, 1u);
  EXPECT_GT(wal.stats().segments_retired, 0u);
  // Everything below the watermark is gone from the backend.
  for (const std::string& name : backend->List()) {
    uint64_t id = 0;
    if (Wal::ParseSegmentName(name, &id)) {
      EXPECT_GE(id, wal.first_live_segment());
    }
  }
  // Post-checkpoint tail.
  ASSERT_TRUE(wal.AppendPut("tail-1", "t").ok());
  ASSERT_TRUE(wal.AppendDelete("snap-0").ok());

  Wal fresh(backend, opts);
  std::vector<Applied> applied;
  ASSERT_TRUE(fresh.Recover(Collect(&applied)).ok());
  EXPECT_EQ(fresh.stats().snapshot_records, 5u);
  EXPECT_EQ(fresh.stats().replayed_records, 2u);  // tail only, not the 30
  ASSERT_EQ(applied.size(), 7u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(applied[i].from_checkpoint);
    EXPECT_EQ(applied[i].key, Tag("snap-", i));  // sorted
  }
  EXPECT_EQ(applied[5].key, "tail-1");
  EXPECT_EQ(applied[6].type, RecordType::kDelete);
}

TEST(Wal, CrashMidCheckpointFallsBackToOldManifest) {
  auto backend = std::make_shared<MemoryBackend>();
  Wal wal(backend);
  ASSERT_TRUE(wal.AppendPut("a", "1").ok());
  const auto snap1 = SnapshotMap(3);
  ASSERT_TRUE(wal.WriteCheckpoint(MapIter(snap1)).ok());
  ASSERT_TRUE(wal.AppendPut("b", "2").ok());

  // Second checkpoint "crashes" after syncing MANIFEST.tmp, before rename.
  const auto snap2 = SnapshotMap(9);
  wal.FailNextCheckpointPublish();
  Status st = wal.WriteCheckpoint(MapIter(snap2));
  EXPECT_TRUE(st.IsAborted());
  EXPECT_EQ(wal.stats().checkpoint_failures, 1u);
  ASSERT_TRUE(backend->Exists("MANIFEST.tmp"));
  backend->Crash();

  Wal fresh(backend);
  std::vector<Applied> applied;
  ASSERT_TRUE(fresh.Recover(Collect(&applied)).ok());
  // The OLD snapshot (3 records) plus the post-snap1 tail; snap2 is nowhere.
  EXPECT_EQ(fresh.stats().snapshot_records, 3u);
  EXPECT_FALSE(backend->Exists("MANIFEST.tmp"));  // residue cleared
  bool saw_b = false;
  for (const auto& a : applied) {
    EXPECT_TRUE(a.key == "a" || a.key == "b" || a.key.rfind("snap-", 0) == 0)
        << a.key;
    if (a.key == "b") saw_b = true;
  }
  EXPECT_TRUE(saw_b) << "post-checkpoint tail record lost";
}

TEST(Wal, CrashMidSealTearsNonFinalSegment) {
  auto backend = std::make_shared<MemoryBackend>();
  WalOptions opts;
  opts.sync_every_records = 0;
  opts.segment_target_bytes = 64;
  Wal wal(backend, opts);
  wal.SkipNextSealSync();
  // Fill past the target: seals segment 1 WITHOUT syncing it.
  ASSERT_TRUE(wal.AppendPut("first", std::string(80, 'a')).ok());
  ASSERT_TRUE(wal.AppendPut("second", std::string(80, 'b')).ok());
  ASSERT_TRUE(wal.Sync().ok());  // segment 2 is durable; segment 1 is not
  ASSERT_GE(wal.active_segment(), 2u);
  backend->Crash();

  Wal fresh(backend, opts);
  std::vector<Applied> applied;
  ASSERT_TRUE(fresh.Recover(Collect(&applied)).ok());
  // Segment 1's record was torn; segment 2's survived. Replay is still in
  // id order and deterministic.
  EXPECT_EQ(fresh.stats().torn_tails, 1u);
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0].key, "second");
  EXPECT_EQ(fresh.stats().dropped_records, 0u);

  // The same tear through a store: the torn segment held the base of a
  // derived put that a later, durable segment holds. Recover drops that
  // record and counts it; the rest of the store equals the model.
  auto store_backend = std::make_shared<MemoryBackend>();
  localstore::StoreOptions store_opts;
  store_opts.wal_backend = store_backend;
  store_opts.checkpoint_every_records = 0;
  store_opts.wal = opts;
  localstore::LocalStore store(store_opts);
  ASSERT_TRUE(store.Put("kept", "k").ok());
  ASSERT_TRUE(store.wal()->Sync().ok());
  store.wal()->SkipNextSealSync();
  const std::string base(80, 'a');
  // Fills segment 1 past the target: it seals WITHOUT a sync.
  ASSERT_TRUE(store.Put("base", base).ok());
  ASSERT_GE(store.wal()->active_segment(), 2u);
  ASSERT_TRUE(store.PutDerived("derived", "base", ReplaceFirstByte(base, 'b')).ok());
  std::string derived = base;
  derived[0] = 'b';
  EXPECT_EQ(*store.Get("derived"), derived);
  ASSERT_TRUE(store.Put("later", "l").ok());
  ASSERT_TRUE(store.wal()->Sync().ok());  // segment 2 is durable
  store_backend->Crash();

  ASSERT_TRUE(store.Recover().ok());
  EXPECT_EQ(store.wal()->stats().torn_tails, 1u);
  EXPECT_EQ(store.wal()->stats().dropped_records, 1u);
  const std::map<std::string, std::string> model = {{"kept", "k"}, {"later", "l"}};
  EXPECT_EQ(Contents(store), model);
}

TEST(Wal, StaticReplayIsReadOnly) {
  auto backend = std::make_shared<MemoryBackend>();
  Wal wal(backend);
  ASSERT_TRUE(wal.AppendPut("k", "v").ok());
  const auto before = backend->List();
  std::vector<Applied> applied;
  ASSERT_TRUE(Wal::Replay(*backend, Collect(&applied)).ok());
  EXPECT_EQ(applied.size(), 1u);
  EXPECT_EQ(backend->List(), before);
}

// ---------------------------------------------------------------------------
// FileBackend: the one real-file implementation (bench/recovery use).

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/orchestra-wal-test-XXXXXX";
    char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr) << "mkdtemp failed";
    if (dir != nullptr) path_ = dir;
  }
  ~TempDir() {
    // Best-effort cleanup through the backend's own namespace ops.
    FileBackend b(path_);
    for (const std::string& name : b.List()) b.Remove(name).ok();
    std::remove(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(FileBackend, NamespaceRoundTrip) {
  TempDir dir;
  FileBackend b(dir.path());
  ASSERT_TRUE(b.Append("seg", "hello ").ok());
  ASSERT_TRUE(b.Append("seg", "world").ok());
  ASSERT_TRUE(b.Sync("seg").ok());
  EXPECT_EQ(*b.Read("seg"), "hello world");
  ASSERT_TRUE(b.Truncate("seg", 5).ok());
  EXPECT_EQ(*b.Read("seg"), "hello");
  ASSERT_TRUE(b.Append("seg", "!").ok());
  EXPECT_EQ(*b.Read("seg"), "hello!");
  ASSERT_TRUE(b.Rename("seg", "pub").ok());
  EXPECT_FALSE(b.Exists("seg"));
  EXPECT_EQ(*b.Read("pub"), "hello!");
  EXPECT_EQ(b.List(), std::vector<std::string>{"pub"});
  ASSERT_TRUE(b.Remove("pub").ok());
  ASSERT_TRUE(b.Remove("pub").ok());  // idempotent
  EXPECT_TRUE(b.List().empty());
  EXPECT_TRUE(b.Read("absent").status().IsNotFound());
}

TEST(FileBackend, WalRecoveryOnRealFiles) {
  TempDir dir;
  WalOptions opts;
  opts.segment_target_bytes = 512;
  {
    Wal wal(std::make_shared<FileBackend>(dir.path()), opts);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(wal.AppendPut(Tag("k", i), Tag("v", i)).ok());
    }
    const auto snapshot = SnapshotMap(4);
    ASSERT_TRUE(wal.WriteCheckpoint(MapIter(snapshot)).ok());
    ASSERT_TRUE(wal.AppendPut("tail", "t").ok());
  }
  Wal fresh(std::make_shared<FileBackend>(dir.path()), opts);
  std::vector<Applied> applied;
  ASSERT_TRUE(fresh.Recover(Collect(&applied)).ok());
  EXPECT_EQ(fresh.stats().snapshot_records, 4u);
  EXPECT_EQ(fresh.stats().replayed_records, 1u);
  EXPECT_EQ(applied.back().key, "tail");
}

// ---------------------------------------------------------------------------
// LocalStore + WAL: crash/recover equivalence against a model map.

localstore::StoreOptions DurableOptions(std::shared_ptr<MemoryBackend> backend,
                                        uint64_t checkpoint_every,
                                        uint64_t sync_every) {
  localstore::StoreOptions opts;
  opts.wal_backend = std::move(backend);
  opts.checkpoint_every_records = checkpoint_every;
  opts.wal.sync_every_records = sync_every;
  opts.wal.segment_target_bytes = 4096;
  return opts;
}

TEST(LocalStoreWal, CrashRecoverMatchesModel) {
  auto backend = std::make_shared<MemoryBackend>();
  localstore::LocalStore store(
      DurableOptions(backend, /*checkpoint_every=*/64, /*sync_every=*/1));
  std::map<std::string, std::string> model;
  Rng rng(11);
  for (int op = 0; op < 1200; ++op) {
    std::string k = Tag("key-", rng.Uniform(150));
    if (rng.OneIn(4)) {
      ASSERT_TRUE(store.Delete(k).ok());
      model.erase(k);
    } else if (rng.OneIn(3) && !model.empty()) {
      // A derived put from another live key; checkpoints land between
      // bases and the records derived from them.
      auto base = model.lower_bound(Tag("key-", rng.Uniform(150)));
      if (base == model.end()) base = model.begin();
      std::string derived = base->second;
      ASSERT_TRUE(store.PutDerived(k, base->first, ReplaceFirstByte(derived, 'z')).ok());
      derived[0] = 'z';
      model[k] = derived;
    } else {
      std::string v = rng.AlphaString(24);
      ASSERT_TRUE(store.Put(k, v).ok());
      model[k] = v;
    }
  }
  EXPECT_GT(store.wal()->stats().checkpoints, 0u);
  EXPECT_GT(store.wal()->stats().segments_retired, 0u);

  backend->Crash();  // sync_every=1: nothing unsynced, nothing lost
  ASSERT_TRUE(store.Recover().ok());
  ASSERT_EQ(store.entry_count(), model.size());
  for (const auto& [k, v] : model) {
    auto got = store.Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, v);
  }
  // Tail-only replay: far fewer records than the 1200 mutations.
  EXPECT_LT(store.wal()->stats().replayed_records, 200u);
  EXPECT_EQ(store.wal()->stats().dropped_records, 0u);
  // Ordered iteration equivalence too (the tree rebuilt correctly).
  auto it = store.Seek("");
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), k);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

TEST(LocalStoreWal, RepeatedCrashesStayDeterministic) {
  // Same seed, same crash points => byte-identical WAL state and identical
  // recovered stores across two independent runs.
  auto run = [](std::string* digest) {
    auto backend = std::make_shared<MemoryBackend>();
    localstore::LocalStore store(
        DurableOptions(backend, /*checkpoint_every=*/48, /*sync_every=*/4));
    Rng rng(29);
    for (int round = 0; round < 5; ++round) {
      for (int op = 0; op < 200; ++op) {
        std::string k = Tag("k", rng.Uniform(80));
        if (rng.OneIn(5)) {
          ASSERT_TRUE(store.Delete(k).ok());
        } else {
          ASSERT_TRUE(store.Put(k, rng.AlphaString(16)).ok());
        }
      }
      backend->Crash();
      ASSERT_TRUE(store.Recover().ok());
    }
    for (const std::string& name : backend->List()) {
      digest->append(name);
      digest->push_back('=');
      digest->append(*backend->Read(name));
      digest->push_back('\n');
    }
    for (auto it = store.Seek(""); it.Valid(); it.Next()) {
      digest->append(it.key());
      digest->push_back(':');
      digest->append(it.value());
      digest->push_back(';');
    }
  };
  std::string d1, d2;
  run(&d1);
  run(&d2);
  EXPECT_EQ(d1, d2);
}

TEST(LocalStoreWal, UnsyncedLossIsAnOperationPrefix) {
  // With a lazy sync cadence a crash loses a SUFFIX of operations: the
  // recovered store must equal the model as of some prefix of the op stream.
  auto backend = std::make_shared<MemoryBackend>();
  localstore::LocalStore store(
      DurableOptions(backend, /*checkpoint_every=*/0, /*sync_every=*/0));
  std::vector<std::map<std::string, std::string>> snapshots;
  std::map<std::string, std::string> model;
  snapshots.push_back(model);
  Rng rng(3);
  for (int op = 0; op < 120; ++op) {
    std::string k = Tag("k", rng.Uniform(20));
    if (rng.OneIn(4)) {
      ASSERT_TRUE(store.Delete(k).ok());
      model.erase(k);
    } else {
      std::string v = rng.AlphaString(8);
      ASSERT_TRUE(store.Put(k, v).ok());
      model[k] = v;
    }
    snapshots.push_back(model);
  }
  backend->Crash();
  ASSERT_TRUE(store.Recover().ok());
  std::map<std::string, std::string> recovered;
  for (auto it = store.Seek(""); it.Valid(); it.Next()) {
    recovered[std::string(it.key())] = std::string(it.value());
  }
  bool is_prefix_state = false;
  for (const auto& snap : snapshots) {
    if (snap == recovered) {
      is_prefix_state = true;
      break;
    }
  }
  EXPECT_TRUE(is_prefix_state)
      << "recovered state matches no prefix of the operation stream";
}

// A checkpoint between a base put and the put derived from it: the manifest
// holds the base's materialized value, and the tail's derived record applies
// to it on replay. A derived put's value is the base's value at the time of
// the put, whatever the base holds later.
TEST(LocalStoreWal, DerivedPutReplaysAgainstACheckpointedBase) {
  auto backend = std::make_shared<MemoryBackend>();
  localstore::LocalStore store(
      DurableOptions(backend, /*checkpoint_every=*/0, /*sync_every=*/1));
  ASSERT_TRUE(store.Put("base", "abcdef").ok());
  ASSERT_TRUE(store.Checkpoint().ok());
  ASSERT_TRUE(store.PutDerived("derived", "base", ReplaceFirstByte("abcdef", 'X')).ok());
  ASSERT_TRUE(store.Put("base", "uvwxyz").ok());
  EXPECT_TRUE(store.PutDerived("orphan", "absent", ReplaceFirstByte("ab", 'X'))
                  .IsNotFound());
  EXPECT_TRUE(store.PutDerived("short", "base", ReplaceFirstByte("abc", 'X'))
                  .IsCorruption());
  const std::map<std::string, std::string> model = {{"base", "uvwxyz"},
                                                    {"derived", "Xbcdef"}};
  EXPECT_EQ(Contents(store), model);
  backend->Crash();
  ASSERT_TRUE(store.Recover().ok());
  EXPECT_EQ(store.wal()->stats().replayed_records, 2u);
  EXPECT_EQ(store.wal()->stats().dropped_records, 0u);
  EXPECT_EQ(Contents(store), model);
}

TEST(LocalStoreWal, ExplicitCheckpointResetsTail) {
  auto backend = std::make_shared<MemoryBackend>();
  localstore::LocalStore store(
      DurableOptions(backend, /*checkpoint_every=*/0, /*sync_every=*/1));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.Put(Tag("k", i), "v").ok());
  }
  ASSERT_TRUE(store.Checkpoint().ok());
  EXPECT_EQ(store.wal()->stats().checkpoints, 1u);
  ASSERT_TRUE(store.Put("after", "v").ok());
  ASSERT_TRUE(store.Recover().ok());
  EXPECT_EQ(store.wal()->stats().replayed_records, 1u);  // just "after"
  EXPECT_EQ(store.entry_count(), 51u);
}

// ---------------------------------------------------------------------------
// Threaded smoke: one writer appending + checkpointing while readers replay
// through the static read-only path. MemoryBackend serializes internally;
// run under -fsanitize=thread in CI (ci/check.sh tsan stage).

TEST(WalThreads, ConcurrentReplayDuringWrites) {
  auto backend = std::make_shared<MemoryBackend>();
  WalOptions opts;
  opts.segment_target_bytes = 2048;
  Wal wal(backend, opts);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::atomic<uint64_t> replays{0};
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t seen = 0;
        Status st = Wal::Replay(*backend, [&](RecordType, std::string_view,
                                              std::string_view, bool) {
          ++seen;
          return true;
        });
        ASSERT_TRUE(st.ok());
        replays.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::map<std::string, std::string> live;
  for (int i = 0; i < 600; ++i) {
    std::string k = Tag("k", i % 37);
    ASSERT_TRUE(wal.AppendPut(k, std::string(64, 'v')).ok());
    live.emplace(k, "v");  // every value is "v"
    if (i % 150 == 149) {
      ASSERT_TRUE(wal.WriteCheckpoint(MapIter(live)).ok());
    }
  }
  // Make sure every reader observed the log at least once before stopping
  // (the writer can outpace thread startup on a fast machine).
  while (replays.load(std::memory_order_relaxed) < 2) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_GT(replays.load(), 0u);
  EXPECT_EQ(wal.stats().checkpoints, 4u);
}

}  // namespace
}  // namespace orchestra::wal
