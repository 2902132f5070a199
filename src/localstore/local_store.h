// LocalStore: the per-node embedded ordered key/value store. The paper's
// prototype used BerkeleyDB Java Edition for "persistent storage of data"
// (§VI); this is our from-scratch substitute with the same contract: an
// ordered map of byte-string keys to byte-string values with range scans.
//
// Structure is log-structured (append-only record arena + in-memory
// indexes), in the spirit of the log-structured filesystems that inspired the
// paper's versioned page scheme (§IV): writes append; the indexes point at
// live records; compaction reclaims superseded records. Durability is the
// WAL's job: Recover() rebuilds the store from it. A derived put stores a
// whole value but logs only the Splice that builds it from another key's
// value, so a small change to a large value costs the log a small record.
//
// Layout, tuned for the publish/scan hot paths:
//   * record bytes live in a chunked append-only arena — one memcpy per
//     write, no per-record heap allocations, and record locations are stable
//     until the next Compact();
//   * a robin-hood open-addressing hash index serves Get/GetView/Contains
//     point lookups and overwrite/delete mutations;
//   * an insert-only B+tree keyed by string_views into the arena provides
//     ordered range/prefix scans. Overwrites never touch the tree (both
//     indexes point into a shared live-slot table), and deletes only mark
//     the slot dead — iterators skip dead entries and compaction rebuilds
//     the tree densely.
//
// Zero-copy reads: GetView() and Iterator::key()/value() return views into
// the arena. Views remain valid until the next mutating call (a Put/Delete
// may trigger compaction, which rewrites the arena); copy before mutating.
#ifndef ORCHESTRA_LOCALSTORE_LOCAL_STORE_H_
#define ORCHESTRA_LOCALSTORE_LOCAL_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "wal/wal.h"

namespace orchestra::localstore {

struct StoreStats {
  uint64_t puts = 0;
  /// Bumped on the const read path (Get/GetView) with relaxed atomics: the
  /// read path must stay safe under concurrent read-only access (the TSan
  /// smoke gate; ROADMAP real-thread concurrency). Mutating counters stay
  /// plain — writes are single-threaded by contract.
  std::atomic<uint64_t> gets{0};
  uint64_t deletes = 0;
  /// Records/bytes appended by MUTATIONS (Put/Delete) only. Recovery replay
  /// re-materializes records into a fresh arena without re-counting them here,
  /// so the cumulative write volume stays truthful across restarts and
  /// checkpoint-retired WAL logs are never double-counted.
  uint64_t log_records = 0;
  uint64_t log_bytes = 0;
  uint64_t live_records = 0;      // records reachable from the index
  uint64_t compactions = 0;
  // Durability counters (checkpoints, retired logs, replayed records)
  // live in the WAL's own stats: wal()->stats().
};

/// A value built from a base value: runs copied from the base and literal
/// bytes, in order. Its encoding is what LocalStore::PutDerived takes and the
/// WAL logs: varint64 base size | varint64 result size | per run, varint64
/// (length << 1 | 1 for literal bytes) and then the varint64 base offset of a
/// copy or the bytes of a literal.
class Splice {
 public:
  /// Appends `len` bytes of the base from `offset`.
  void Copy(uint64_t offset, uint64_t len);
  /// Appends literal bytes.
  void Literal(std::string_view bytes);
  /// Appends every run of `tail`.
  void Append(const Splice& tail);
  /// The encoding, for a base of `base_size` bytes.
  std::string Encode(uint64_t base_size) const;
  /// Materializes an encoded splice against `base` into `out`. Corruption
  /// when it does not decode, was made for a base of another size, or
  /// reaches past the base.
  static Status Apply(std::string_view encoded, std::string_view base,
                      std::string* out);

 private:
  struct Run {
    bool literal = false;
    uint64_t offset = 0;  // into the base, or into literals_
    uint64_t len = 0;
  };
  std::vector<Run> runs_;
  std::string literals_;
  uint64_t size_ = 0;  // of the result
};

struct StoreOptions {
  /// Compact when garbage_ratio() exceeds this: when dead records exceed
  /// this fraction of log_size(), or dead bytes this fraction of
  /// arena_bytes(). Checkpoint when dead records exceed this fraction of
  /// the durable image (the last manifest's entries plus the WAL records
  /// appended since).
  double compaction_garbage_ratio = 0.5;
  /// Do not compact, or checkpoint, below this many records.
  uint64_t compaction_min_records = 4096;
  /// Durability: when set, every mutation is framed into a WAL on this
  /// backend and Recover() rebuilds from the newest checkpoint plus the log
  /// past it. Null keeps the store memory-only (cdss local databases, unit
  /// tests); such a store cannot Recover().
  std::shared_ptr<wal::Backend> wal_backend;
  /// WAL tuning (sync cadence); used only with wal_backend.
  wal::WalOptions wal;
};

class LocalStore {
 public:
  explicit LocalStore(StoreOptions options = {});

  /// Inserts or overwrites.
  Status Put(std::string_view key, std::string_view value);
  /// Inserts or overwrites `key` with the value the encoded `splice` makes
  /// of `base_key`'s current value, and logs only the splice: replay applies
  /// it to the base's value at that point of the log. NotFound when
  /// `base_key` is absent, Corruption when the splice does not apply.
  Status PutDerived(std::string_view key, std::string_view base_key,
                    std::string_view splice);
  /// Fails with NotFound if absent. Copies; prefer GetView on hot paths.
  Result<std::string> Get(std::string_view key) const;
  /// Zero-copy read: the view aliases the record arena and is valid until
  /// the next mutating call on this store.
  Result<std::string_view> GetView(std::string_view key) const;
  bool Contains(std::string_view key) const;
  /// Idempotent; OK even if absent.
  Status Delete(std::string_view key);

 private:
  // B+tree nodes; declared before Iterator so it can hold a leaf cursor.
  static constexpr int kLeafCap = 64;
  static constexpr int kInnerCap = 64;
  static constexpr int kMaxDepth = 16;

  /// Node-local key reference: the first 16 bytes inline (zero-padded) plus
  /// the full arena view. Comparisons touch the node's own cache lines and
  /// only dereference the arena on a prefix tie, which keeps B+tree binary
  /// searches from paying one cache miss per probed key.
  struct KeyRef {
    char pfx[16];
    std::string_view full;
  };
  struct LeafEntry {
    KeyRef key;
    uint32_t live_idx = 0;
  };
  struct Leaf {
    int n = 0;
    LeafEntry e[kLeafCap];
    Leaf* next = nullptr;
  };
  struct Inner {
    int n = 0;  // number of children
    KeyRef sep[kInnerCap - 1];
    void* child[kInnerCap];
    bool leaf_children = true;
  };

 public:
  /// Ordered forward iteration over live entries, up to an end bound.
  class Iterator {
   public:
    bool Valid() const { return leaf_ != nullptr; }
    void Next() {
      ++idx_;
      Normalize();
    }
    std::string_view key() const { return leaf_->e[idx_].key.full; }
    std::string_view value() const;

   private:
    friend class LocalStore;
    Iterator(const LocalStore* store, const Leaf* leaf, int idx, std::string ub)
        : store_(store), leaf_(leaf), idx_(idx), ub_(std::move(ub)) {
      Normalize();
    }
    void Normalize();  // skip dead entries, hop leaves, apply the end bound

    const LocalStore* store_;
    const Leaf* leaf_;
    int idx_;
    std::string ub_;  // exclusive end bound; empty = unbounded
  };

  /// Iterator positioned at the first key >= `start`; Valid() turns false at
  /// the first key >= `end`. An empty `end` is no end bound.
  Iterator Seek(std::string_view start, std::string end = {}) const;
  /// Iterator over exactly the keys with the given prefix: Seek from the
  /// prefix to PrefixUpperBound(prefix).
  Iterator SeekPrefix(std::string_view prefix) const;

  /// Smallest string greater than every string with the given prefix, or ""
  /// if no such bound exists (prefix is empty or all-0xFF).
  static std::string PrefixUpperBound(std::string_view prefix);

  size_t entry_count() const { return hcount_; }
  /// Records appended since the last rebuild (compaction or recovery), live
  /// + dead; a Delete counts as one. Shrinks on compaction and on a
  /// checkpointed recovery (retired WAL logs drop out entirely), so it is
  /// the CURRENT footprint, never the cumulative write volume.
  size_t log_size() const { return log_records_; }
  const StoreStats& stats() const { return stats_; }
  /// Bytes currently held by the record arena (live + garbage).
  size_t arena_bytes() const { return arena_.bytes(); }
  /// The compaction trigger's input: the larger of the dead (superseded or
  /// deleted) fraction of log_size() and the dead fraction of
  /// arena_bytes(). Records pace a store of small values; bytes pace one
  /// whose large values are overwritten, where a few dead records can hold
  /// most of the arena. Both count the CURRENT footprint, which excludes
  /// what compaction and a checkpointed recovery reclaimed, so
  /// already-reclaimed space never re-counts as garbage.
  double garbage_ratio() const {
    const double records =
        log_records_ == 0
            ? 0.0
            : 1.0 - static_cast<double>(hcount_) / static_cast<double>(log_records_);
    const double bytes =
        arena_.bytes() == 0
            ? 0.0
            : 1.0 - static_cast<double>(live_bytes_) / static_cast<double>(arena_.bytes());
    return std::max(records, bytes);
  }

  /// Crash-recovery entry point: discards ALL in-memory state and rebuilds
  /// from the WAL's newest checkpoint manifest plus a replay of only the
  /// log past it. The checkpoint rule keeps the records read at most
  /// max(compaction_min_records, live / (1 - compaction_garbage_ratio)).
  /// FailedPrecondition, with the store untouched, when no WAL backend is
  /// attached; Corruption when the WAL is damaged or holds a derived put
  /// without its base.
  Status Recover();

  /// Publishes a WAL checkpoint now (no-op without a WAL backend): dense
  /// snapshot manifest + retirement of every sealed log below it.
  Status Checkpoint();

  /// The attached WAL, or null. Exposed for stats and the churn harness's
  /// crash-timing fault hooks.
  wal::Wal* wal() { return wal_.get(); }

  /// Forces a compaction pass regardless of the garbage ratio.
  void Compact();

 private:
  /// Chunked append-only byte storage. Chunks are never reallocated, so
  /// record locations are stable until the arena itself is replaced.
  class Arena {
   public:
    /// Appends a||b contiguously; returns the start of the copy.
    const char* Append(std::string_view a, std::string_view b);
    size_t bytes() const { return bytes_; }

   private:
    static constexpr size_t kChunkBytes = 1 << 18;  // 256 KiB
    struct Chunk {
      std::unique_ptr<char[]> data;
      size_t used = 0;
      size_t cap = 0;
    };
    std::vector<Chunk> chunks_;
    size_t bytes_ = 0;
  };

  /// A key's current record: key then value, contiguous in the arena. A
  /// null `data` marks a deleted key whose tree entry is still in place.
  struct Slot {
    const char* data = nullptr;
    uint32_t key_len = 0;
    uint32_t value_len = 0;

    bool dead() const { return data == nullptr; }
    std::string_view key() const { return {data, key_len}; }
    std::string_view value() const { return {data + key_len, value_len}; }
  };

  /// Robin-hood open-addressing slot: probes are kept sorted by distance
  /// from their home bucket (insertion displaces richer entries; erasure
  /// backward-shifts), so lookups terminate early on a poorer slot. 8 bytes
  /// per slot — the 32-bit tag (low hash bits) is enough to derive the home
  /// bucket (capacity <= 2^32) and to filter keys before an arena compare.
  struct HashSlot {
    uint32_t tag = 0;
    uint32_t idx1 = 0;  // live index + 1; 0 marks an empty slot
  };

  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  /// Copies one record into the arena and counts it in log_size().
  /// `count_stats` is false on the recovery paths: replayed records land in
  /// the fresh arena but must not inflate the cumulative write counters.
  Slot AppendRecord(std::string_view key, std::string_view value,
                    bool count_stats);

  /// Slot of `key`, or kNoSlot. When absent and `miss` is non-null, the
  /// probe's stopping point is recorded so HashInsertAt can continue the
  /// robin-hood displacement without re-probing from the home bucket.
  struct HashMiss {
    size_t index = 0;
    size_t dist = 0;
  };
  size_t HashFind(uint64_t hash, std::string_view key,
                  HashMiss* miss = nullptr) const;
  void HashInsert(uint64_t hash, uint32_t live_idx);
  /// Continues an insert from a HashFind miss point (same table state).
  void HashInsertAt(HashMiss at, uint64_t hash, uint32_t live_idx);
  void HashEraseAt(size_t idx);
  /// Returns true if the table grew (invalidating any HashMiss).
  bool HashGrowIfNeeded();

  static KeyRef MakeKeyRef(std::string_view key);
  /// <0, 0, >0 like memcmp; resolves on the inline prefix when possible.
  static int CmpKey(const KeyRef& a, const KeyRef& b);
  /// Index of the child to descend into. `upper`: first separator > key
  /// (insert path — equal keys go right); otherwise first separator >= key
  /// (lower-bound path — equal keys may sit at the end of the left child).
  static int RouteChild(const Inner* in, const KeyRef& key, bool upper);

  Leaf* NewLeaf();
  Inner* NewInner();
  void TreeClear();
  void TreeInsert(std::string_view key, uint32_t live_idx);
  /// Leaf cursor at the first entry (dead or alive) with key >= `key`.
  std::pair<const Leaf*, int> TreeLowerBound(std::string_view key) const;
  /// Appends one live record to the indexes; used by the rebuild paths
  /// (Compact/Recover), which feed keys in sorted order.
  void IndexLiveRecord(Slot rec);

  void MaybeCompact();
  /// Checkpoints when the durable image holds at least
  /// compaction_min_records records and more than compaction_garbage_ratio
  /// of them are dead: the record half of MaybeCompact's rule.
  void MaybeCheckpoint();
  /// The index halves of Put and Delete (EraseAt takes a HashFind hit),
  /// shared with recovery replay: no WAL echo, no compaction/checkpoint
  /// triggers. `count_stats` as for AppendRecord.
  void ApplyPut(std::string_view key, std::string_view value, bool count_stats);
  void EraseAt(size_t hidx);
  /// Put's and PutDerived's shared tail, once the WAL holds the record.
  void CommitPut(std::string_view key, std::string_view value);
  /// The value `splice` makes of `base_key`'s current value.
  Status Derive(std::string_view base_key, std::string_view splice,
                std::string* out) const;

  StoreOptions options_;
  Arena arena_;
  uint64_t log_records_ = 0;  // see log_size()
  size_t live_bytes_ = 0;     // key and value bytes of the live records

  // Live-slot table: both indexes address records through it, so an
  // overwrite updates one cell and a delete nulls it — neither touches the
  // tree.
  std::vector<Slot> live_;

  // Insert-only B+tree over arena key views. Node storage is deque-backed
  // (stable addresses, bulk-freed on clear).
  std::deque<Leaf> leaves_;
  std::deque<Inner> inners_;
  void* root_ = nullptr;
  bool root_is_leaf_ = true;

  std::vector<HashSlot> htable_;
  size_t hcount_ = 0;  // == number of live keys

  // Durability: present iff StoreOptions::wal_backend was set.
  std::unique_ptr<wal::Wal> wal_;
  // Records in the durable image: the last checkpoint's entries plus the
  // WAL records appended since. Recovery reads this many.
  uint64_t durable_records_ = 0;

  // Mutable so read methods can count reads without a const_cast.
  mutable StoreStats stats_;
};

}  // namespace orchestra::localstore

#endif  // ORCHESTRA_LOCALSTORE_LOCAL_STORE_H_
