#include "localstore/local_store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/log.h"
#include "common/serial.h"

namespace orchestra::localstore {
namespace {

// 64-bit key hash: 8-byte chunks folded through a murmur3-style finalizer.
// Not cryptographic — just uniform enough for open addressing; placement
// hashing stays SHA-1 (hash/sha1.h).
inline uint64_t MixBits(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

inline uint64_t HashKey(std::string_view s) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ (s.size() * 0xff51afd7ed558ccdULL);
  while (s.size() >= 8) {
    uint64_t k;
    std::memcpy(&k, s.data(), 8);
    h = MixBits(h ^ k);
    s.remove_prefix(8);
  }
  if (!s.empty()) {
    uint64_t k = 0;
    std::memcpy(&k, s.data(), s.size());
    h = MixBits(h ^ k);
  }
  return h;
}

constexpr size_t kMinTableCapacity = 1024;

// A derived put's WAL value: varint32 base key length | base key | splice.
std::string EncodeDerivation(std::string_view base_key, std::string_view splice) {
  Writer w(base_key.size() + splice.size() + 5);
  w.PutVarint32(static_cast<uint32_t>(base_key.size()));
  w.PutRaw(base_key.data(), base_key.size());
  w.PutRaw(splice.data(), splice.size());
  return w.Release();
}

bool DecodeDerivation(std::string_view value, std::string_view* base_key,
                      std::string_view* splice) {
  Reader r(value);
  uint32_t len = 0;
  if (!r.GetVarint32(&len).ok() || !r.GetRawView(base_key, len).ok()) return false;
  *splice = r.RemainingView();
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Splice

void Splice::Copy(uint64_t offset, uint64_t len) {
  if (len == 0) return;
  size_ += len;
  if (!runs_.empty() && !runs_.back().literal &&
      runs_.back().offset + runs_.back().len == offset) {
    runs_.back().len += len;
    return;
  }
  runs_.push_back(Run{false, offset, len});
}

void Splice::Literal(std::string_view bytes) {
  if (bytes.empty()) return;
  size_ += bytes.size();
  if (runs_.empty() || !runs_.back().literal) {
    runs_.push_back(Run{true, literals_.size(), 0});
  }
  runs_.back().len += bytes.size();
  literals_.append(bytes);
}

void Splice::Append(const Splice& tail) {
  for (const Run& run : tail.runs_) {
    if (run.literal) {
      Literal(std::string_view(tail.literals_).substr(run.offset, run.len));
    } else {
      Copy(run.offset, run.len);
    }
  }
}

std::string Splice::Encode(uint64_t base_size) const {
  Writer w(literals_.size() + 12 * runs_.size() + 20);
  w.PutVarint64(base_size);
  w.PutVarint64(size_);
  for (const Run& run : runs_) {
    w.PutVarint64(run.len << 1 | (run.literal ? 1 : 0));
    if (run.literal) {
      w.PutRaw(literals_.data() + run.offset, run.len);
    } else {
      w.PutVarint64(run.offset);
    }
  }
  return w.Release();
}

Status Splice::Apply(std::string_view encoded, std::string_view base,
                     std::string* out) {
  Reader r(encoded);
  uint64_t base_size = 0, size = 0;
  ORC_RETURN_IF_ERROR(r.GetVarint64(&base_size));
  ORC_RETURN_IF_ERROR(r.GetVarint64(&size));
  if (base_size != base.size()) {
    return Status::Corruption("splice: made for a base of another size");
  }
  out->clear();
  // Each base byte is copied at most once by a well-formed splice, so the
  // declared size is reserved only up to what the inputs can make.
  out->reserve(std::min<uint64_t>(size, base.size() + encoded.size()));
  while (!r.AtEnd()) {
    uint64_t head = 0;
    ORC_RETURN_IF_ERROR(r.GetVarint64(&head));
    const uint64_t len = head >> 1;
    if (len > size - out->size()) {
      return Status::Corruption("splice: runs exceed the declared size");
    }
    if ((head & 1) != 0) {
      std::string_view bytes;
      ORC_RETURN_IF_ERROR(r.GetRawView(&bytes, len));
      out->append(bytes);
      continue;
    }
    uint64_t offset = 0;
    ORC_RETURN_IF_ERROR(r.GetVarint64(&offset));
    if (offset > base.size() || len > base.size() - offset) {
      return Status::Corruption("splice: a copy reaches past the base");
    }
    out->append(base.substr(offset, len));
  }
  if (out->size() != size) {
    return Status::Corruption("splice: runs fall short of the declared size");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Arena

const char* LocalStore::Arena::Append(std::string_view a, std::string_view b) {
  size_t n = a.size() + b.size();
  if (chunks_.empty() || chunks_.back().cap - chunks_.back().used < n) {
    Chunk c;
    c.cap = std::max(kChunkBytes, n);
    c.data = std::make_unique<char[]>(c.cap);
    chunks_.push_back(std::move(c));
  }
  Chunk& c = chunks_.back();
  char* dst = c.data.get() + c.used;
  std::memcpy(dst, a.data(), a.size());
  if (!b.empty()) std::memcpy(dst + a.size(), b.data(), b.size());
  c.used += n;
  bytes_ += n;
  return dst;
}

// ---------------------------------------------------------------------------
// Robin-hood hash index

size_t LocalStore::HashFind(uint64_t hash, std::string_view key,
                            HashMiss* miss) const {
  if (htable_.empty()) {
    if (miss != nullptr) *miss = HashMiss{0, 0};
    return kNoSlot;
  }
  size_t mask = htable_.size() - 1;
  auto tag = static_cast<uint32_t>(hash);
  size_t i = tag & mask;
  size_t dist = 0;
  while (true) {
    const HashSlot& slot = htable_[i];
    // Robin-hood invariant: entries along a probe chain never get poorer;
    // meeting an empty slot or one closer to home means the key is absent.
    size_t slot_dist =
        (i + htable_.size() - (static_cast<size_t>(slot.tag) & mask)) & mask;
    if (slot.idx1 == 0 || slot_dist < dist) {
      if (miss != nullptr) *miss = HashMiss{i, dist};
      return kNoSlot;
    }
    if (slot.tag == tag && live_[slot.idx1 - 1].key() == key) return i;
    i = (i + 1) & mask;
    ++dist;
  }
}

void LocalStore::HashInsertAt(HashMiss at, uint64_t hash, uint32_t live_idx) {
  size_t mask = htable_.size() - 1;
  size_t i = at.index;
  size_t dist = at.dist;
  HashSlot carry{static_cast<uint32_t>(hash), live_idx + 1};
  while (true) {
    HashSlot& slot = htable_[i];
    if (slot.idx1 == 0) {
      slot = carry;
      ++hcount_;
      return;
    }
    size_t slot_dist =
        (i + htable_.size() - (static_cast<size_t>(slot.tag) & mask)) & mask;
    if (slot_dist < dist) {
      std::swap(carry, slot);
      dist = slot_dist;
    }
    i = (i + 1) & mask;
    ++dist;
  }
}

void LocalStore::HashInsert(uint64_t hash, uint32_t live_idx) {
  HashGrowIfNeeded();
  size_t home = static_cast<uint32_t>(hash) & (htable_.size() - 1);
  HashInsertAt(HashMiss{home, 0}, hash, live_idx);
}

void LocalStore::HashEraseAt(size_t idx) {
  size_t mask = htable_.size() - 1;
  size_t i = idx;
  while (true) {
    size_t next = (i + 1) & mask;
    const HashSlot& n = htable_[next];
    if (n.idx1 == 0 ||
        ((next + htable_.size() - (static_cast<size_t>(n.tag) & mask)) & mask) ==
            0) {
      break;
    }
    htable_[i] = htable_[next];
    i = next;
  }
  htable_[i] = HashSlot{};
  --hcount_;
}

bool LocalStore::HashGrowIfNeeded() {
  // Grow at 7/8 load; robin-hood probing stays short well past 3/4.
  if (!htable_.empty() && (hcount_ + 1) * 8 <= htable_.size() * 7) return false;
  size_t new_cap = htable_.empty() ? kMinTableCapacity : htable_.size() * 2;
  std::vector<HashSlot> old = std::move(htable_);
  htable_.assign(new_cap, HashSlot{});
  size_t old_count = hcount_;
  hcount_ = 0;
  size_t mask = new_cap - 1;
  for (const HashSlot& slot : old) {
    if (slot.idx1 != 0) {
      HashInsertAt(HashMiss{static_cast<size_t>(slot.tag) & mask, 0}, slot.tag,
                   slot.idx1 - 1);
    }
  }
  ORC_CHECK(hcount_ == old_count, "localstore: hash rebuild lost entries");
  return true;
}

// ---------------------------------------------------------------------------
// Insert-only B+tree over arena key views

LocalStore::Leaf* LocalStore::NewLeaf() {
  leaves_.emplace_back();
  return &leaves_.back();
}

LocalStore::Inner* LocalStore::NewInner() {
  inners_.emplace_back();
  return &inners_.back();
}

void LocalStore::TreeClear() {
  leaves_.clear();
  inners_.clear();
  root_ = nullptr;
  root_is_leaf_ = true;
}

LocalStore::KeyRef LocalStore::MakeKeyRef(std::string_view key) {
  KeyRef r;
  std::memset(r.pfx, 0, sizeof(r.pfx));
  std::memcpy(r.pfx, key.data(), std::min(key.size(), sizeof(r.pfx)));
  r.full = key;
  return r;
}

int LocalStore::CmpKey(const KeyRef& a, const KeyRef& b) {
  // Zero-padding keeps prefix order consistent with full lexicographic
  // order: a nonzero prefix difference is always the true difference.
  int c = std::memcmp(a.pfx, b.pfx, sizeof(a.pfx));
  if (c != 0) return c;
  return a.full.compare(b.full);
}

int LocalStore::RouteChild(const Inner* in, const KeyRef& key, bool upper) {
  int lo = 0, hi = in->n - 1;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    int c = CmpKey(in->sep[mid], key);
    bool go_right = upper ? (c <= 0) : (c < 0);
    if (go_right) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void LocalStore::TreeInsert(std::string_view key, uint32_t live_idx) {
  KeyRef kref = MakeKeyRef(key);
  if (root_ == nullptr) {
    Leaf* l = NewLeaf();
    l->e[0] = LeafEntry{kref, live_idx};
    l->n = 1;
    root_ = l;
    root_is_leaf_ = true;
    return;
  }

  struct PathEntry {
    Inner* node;
    int child;
  };
  PathEntry path[kMaxDepth];
  int depth = 0;
  void* cur = root_;
  bool is_leaf = root_is_leaf_;
  while (!is_leaf) {
    Inner* in = static_cast<Inner*>(cur);
    int ci = RouteChild(in, kref, /*upper=*/true);
    ORC_CHECK(depth < kMaxDepth, "localstore: tree too deep");
    path[depth++] = PathEntry{in, ci};
    cur = in->child[ci];
    is_leaf = in->leaf_children;
  }
  Leaf* leaf = static_cast<Leaf*>(cur);

  // In-leaf position: after any equal keys (only one can be live; order
  // among duplicates is irrelevant to iteration, which skips dead slots).
  int pos = static_cast<int>(
      std::upper_bound(leaf->e, leaf->e + leaf->n, kref,
                       [](const KeyRef& k, const LeafEntry& e) {
                         return CmpKey(k, e.key) < 0;
                       }) -
      leaf->e);

  if (leaf->n < kLeafCap) {
    std::memmove(&leaf->e[pos + 1], &leaf->e[pos],
                 sizeof(LeafEntry) * static_cast<size_t>(leaf->n - pos));
    leaf->e[pos] = LeafEntry{kref, live_idx};
    ++leaf->n;
    return;
  }

  // Leaf split: assemble the kLeafCap+1 entries, give the right half to a
  // new leaf, and push the right leaf's first key up as separator.
  LeafEntry tmp[kLeafCap + 1];
  std::memcpy(tmp, leaf->e, sizeof(LeafEntry) * static_cast<size_t>(pos));
  tmp[pos] = LeafEntry{kref, live_idx};
  std::memcpy(&tmp[pos + 1], &leaf->e[pos],
              sizeof(LeafEntry) * static_cast<size_t>(kLeafCap - pos));
  Leaf* right = NewLeaf();
  constexpr int kLeft = (kLeafCap + 1) / 2;
  constexpr int kRight = kLeafCap + 1 - kLeft;
  std::memcpy(leaf->e, tmp, sizeof(LeafEntry) * kLeft);
  leaf->n = kLeft;
  std::memcpy(right->e, &tmp[kLeft], sizeof(LeafEntry) * kRight);
  right->n = kRight;
  right->next = leaf->next;
  leaf->next = right;

  KeyRef up_sep = right->e[0].key;
  void* up_child = right;

  // Propagate the split upward.
  while (depth > 0) {
    PathEntry pe = path[--depth];
    Inner* in = pe.node;
    int ci = pe.child;  // new child goes at ci+1, separator at ci
    if (in->n < kInnerCap) {
      std::memmove(&in->sep[ci + 1], &in->sep[ci],
                   sizeof(KeyRef) * static_cast<size_t>(in->n - 1 - ci));
      std::memmove(&in->child[ci + 2], &in->child[ci + 1],
                   sizeof(void*) * static_cast<size_t>(in->n - 1 - ci));
      in->sep[ci] = up_sep;
      in->child[ci + 1] = up_child;
      ++in->n;
      return;
    }
    // Inner split via temp arrays (kInnerCap+1 children, kInnerCap seps).
    void* tchild[kInnerCap + 1];
    KeyRef tsep[kInnerCap];
    std::memcpy(tchild, in->child, sizeof(void*) * static_cast<size_t>(ci + 1));
    tchild[ci + 1] = up_child;
    std::memcpy(&tchild[ci + 2], &in->child[ci + 1],
                sizeof(void*) * static_cast<size_t>(kInnerCap - 1 - ci));
    for (int i = 0; i < ci; ++i) tsep[i] = in->sep[i];
    tsep[ci] = up_sep;
    for (int i = ci; i < kInnerCap - 1; ++i) tsep[i + 1] = in->sep[i];

    constexpr int kLeftCh = (kInnerCap + 1) / 2;
    constexpr int kRightCh = kInnerCap + 1 - kLeftCh;
    Inner* rin = NewInner();
    rin->leaf_children = in->leaf_children;
    in->n = kLeftCh;
    std::memcpy(in->child, tchild, sizeof(void*) * kLeftCh);
    for (int i = 0; i < kLeftCh - 1; ++i) in->sep[i] = tsep[i];
    rin->n = kRightCh;
    std::memcpy(rin->child, &tchild[kLeftCh], sizeof(void*) * kRightCh);
    for (int i = 0; i < kRightCh - 1; ++i) rin->sep[i] = tsep[kLeftCh + i];
    up_sep = tsep[kLeftCh - 1];
    up_child = rin;
  }

  // The root itself split: grow the tree by one level.
  Inner* nr = NewInner();
  nr->leaf_children = root_is_leaf_;
  nr->child[0] = root_;
  nr->child[1] = up_child;
  nr->sep[0] = up_sep;
  nr->n = 2;
  root_ = nr;
  root_is_leaf_ = false;
}

std::pair<const LocalStore::Leaf*, int> LocalStore::TreeLowerBound(
    std::string_view key) const {
  if (root_ == nullptr) return {nullptr, 0};
  KeyRef kref = MakeKeyRef(key);
  const void* cur = root_;
  bool is_leaf = root_is_leaf_;
  while (!is_leaf) {
    const Inner* in = static_cast<const Inner*>(cur);
    int ci = RouteChild(in, kref, /*upper=*/false);
    cur = in->child[ci];
    is_leaf = in->leaf_children;
  }
  const Leaf* leaf = static_cast<const Leaf*>(cur);
  int pos = static_cast<int>(
      std::lower_bound(leaf->e, leaf->e + leaf->n, kref,
                       [](const LeafEntry& e, const KeyRef& k) {
                         return CmpKey(e.key, k) < 0;
                       }) -
      leaf->e);
  return {leaf, pos};
}

// ---------------------------------------------------------------------------
// Iterator

void LocalStore::Iterator::Normalize() {
  while (leaf_ != nullptr) {
    if (idx_ >= leaf_->n) {
      leaf_ = leaf_->next;
      idx_ = 0;
      continue;
    }
    const LeafEntry& e = leaf_->e[idx_];
    if (store_->live_[e.live_idx].dead()) {
      ++idx_;
      continue;
    }
    if (!ub_.empty() && e.key.full >= ub_) {
      leaf_ = nullptr;
      break;
    }
    break;
  }
}

std::string_view LocalStore::Iterator::value() const {
  return store_->live_[leaf_->e[idx_].live_idx].value();
}

// ---------------------------------------------------------------------------
// Store operations

LocalStore::LocalStore(StoreOptions options) : options_(std::move(options)) {
  if (options_.wal_backend != nullptr) {
    wal_ = std::make_unique<wal::Wal>(options_.wal_backend, options_.wal);
  }
}

LocalStore::Slot LocalStore::AppendRecord(std::string_view key,
                                          std::string_view value,
                                          bool count_stats) {
  Slot slot;
  slot.data = arena_.Append(key, value);
  slot.key_len = static_cast<uint32_t>(key.size());
  slot.value_len = static_cast<uint32_t>(value.size());
  ++log_records_;
  if (count_stats) {
    stats_.log_records += 1;
    stats_.log_bytes += key.size() + value.size() + 1;
  }
  return slot;
}

void LocalStore::ApplyPut(std::string_view key, std::string_view value,
                          bool count_stats) {
  uint64_t h = HashKey(key);
  HashMiss miss;
  size_t hidx = HashFind(h, key, &miss);
  Slot rec = AppendRecord(key, value, count_stats);
  live_bytes_ += key.size() + value.size();
  if (hidx != kNoSlot) {
    Slot& old = live_[htable_[hidx].idx1 - 1];
    live_bytes_ -= old.key_len + old.value_len;
    old = rec;  // overwrite: repoint the live slot
  } else {
    live_.push_back(rec);
    auto live_idx = static_cast<uint32_t>(live_.size() - 1);
    TreeInsert(rec.key(), live_idx);
    if (HashGrowIfNeeded()) {
      HashInsert(h, live_idx);  // table replaced; the miss point is stale
    } else {
      HashInsertAt(miss, h, live_idx);  // continue from the probe's stop point
    }
  }
}

void LocalStore::EraseAt(size_t hidx) {
  Slot& slot = live_[htable_[hidx].idx1 - 1];
  live_bytes_ -= slot.key_len + slot.value_len;
  slot = Slot{};  // the tree skips dead slots
  HashEraseAt(hidx);
}

Status LocalStore::Put(std::string_view key, std::string_view value) {
  if (key.empty()) return Status::InvalidArgument("localstore: empty key");
  if (wal_ != nullptr) {
    // Write-ahead: the record is durable (per the sync cadence) before any
    // in-memory index observes it.
    ORC_RETURN_IF_ERROR(wal_->AppendPut(key, value));
    ++appends_since_checkpoint_;
  }
  CommitPut(key, value);
  return Status::OK();
}

Status LocalStore::PutDerived(std::string_view key, std::string_view base_key,
                              std::string_view splice) {
  if (key.empty()) return Status::InvalidArgument("localstore: empty key");
  std::string value;
  ORC_RETURN_IF_ERROR(Derive(base_key, splice, &value));
  if (wal_ != nullptr) {
    ORC_RETURN_IF_ERROR(
        wal_->AppendDerivedPut(key, EncodeDerivation(base_key, splice)));
    ++appends_since_checkpoint_;
  }
  CommitPut(key, value);
  return Status::OK();
}

void LocalStore::CommitPut(std::string_view key, std::string_view value) {
  ApplyPut(key, value, /*count_stats=*/true);
  stats_.puts += 1;
  stats_.live_records = hcount_;
  MaybeCompact();
  MaybeCheckpoint();
}

Status LocalStore::Derive(std::string_view base_key, std::string_view splice,
                          std::string* out) const {
  size_t hidx = HashFind(HashKey(base_key), base_key);
  if (hidx == kNoSlot) return Status::NotFound("localstore: no base for a derived put");
  return Splice::Apply(splice, live_[htable_[hidx].idx1 - 1].value(), out);
}

Result<std::string> LocalStore::Get(std::string_view key) const {
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  size_t hidx = HashFind(HashKey(key), key);
  if (hidx == kNoSlot) return Status::NotFound("localstore: no such key");
  return std::string(live_[htable_[hidx].idx1 - 1].value());
}

Result<std::string_view> LocalStore::GetView(std::string_view key) const {
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  size_t hidx = HashFind(HashKey(key), key);
  if (hidx == kNoSlot) return Status::NotFound("localstore: no such key");
  return live_[htable_[hidx].idx1 - 1].value();
}

bool LocalStore::Contains(std::string_view key) const {
  return HashFind(HashKey(key), key) != kNoSlot;
}

Status LocalStore::Delete(std::string_view key) {
  uint64_t h = HashKey(key);
  size_t hidx = HashFind(h, key);
  if (hidx != kNoSlot) {
    if (wal_ != nullptr) {
      ORC_RETURN_IF_ERROR(wal_->AppendDelete(key));
      ++appends_since_checkpoint_;
    }
    // A delete stores nothing in the arena, but still counts as one record
    // in log_size(), which paces compaction, and in the write stats.
    ++log_records_;
    stats_.log_records += 1;
    stats_.log_bytes += key.size() + 1;
    EraseAt(hidx);
    stats_.deletes += 1;
    stats_.live_records = hcount_;
    MaybeCompact();
    MaybeCheckpoint();
  }
  return Status::OK();
}

LocalStore::Iterator LocalStore::Seek(std::string_view start, std::string end) const {
  auto [leaf, idx] = TreeLowerBound(start);
  return Iterator(this, leaf, idx, std::move(end));
}

std::string LocalStore::PrefixUpperBound(std::string_view prefix) {
  std::string ub(prefix);
  while (!ub.empty() && static_cast<unsigned char>(ub.back()) == 0xFF) {
    ub.pop_back();
  }
  if (ub.empty()) return ub;  // no upper bound exists
  ub.back() = static_cast<char>(static_cast<unsigned char>(ub.back()) + 1);
  return ub;
}

LocalStore::Iterator LocalStore::SeekPrefix(std::string_view prefix) const {
  return Seek(prefix, PrefixUpperBound(prefix));
}

void LocalStore::IndexLiveRecord(Slot rec) {
  live_bytes_ += rec.key_len + rec.value_len;
  live_.push_back(rec);
  auto live_idx = static_cast<uint32_t>(live_.size() - 1);
  TreeInsert(rec.key(), live_idx);
  HashInsert(HashKey(rec.key()), live_idx);
}

Status LocalStore::Recover() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("localstore: Recover() needs a WAL backend");
  }

  // Crash-restart: every in-memory structure is gone; the WAL's checkpoint
  // manifest plus the segments past it are the sole source of truth.
  // Checkpoint entries arrive sorted and unique (fast sorted-index path);
  // tail records replay through the general overwrite/delete path.
  arena_ = Arena();
  log_records_ = 0;
  live_bytes_ = 0;
  TreeClear();
  htable_.clear();
  hcount_ = 0;
  live_.clear();

  // Each tail record is followed by the compaction rule a live write
  // applies, so replaying a long tail keeps the arena as bounded as writing
  // it did.
  uint64_t tail_records = 0;
  auto replayed = [&] {
    MaybeCompact();
    return true;
  };
  Status st = wal_->Recover([&](wal::RecordType type, std::string_view key,
                                std::string_view value, bool from_checkpoint) {
    if (from_checkpoint) {
      IndexLiveRecord(AppendRecord(key, value, /*count_stats=*/false));
      return true;
    }
    ++tail_records;
    switch (type) {
      case wal::RecordType::kPut:
        ApplyPut(key, value, /*count_stats=*/false);
        return replayed();
      case wal::RecordType::kDerivedPut: {
        // The splice applies to the base's value at this point of the log;
        // a base that a torn segment lost leaves nothing to apply it to, and
        // the record is dropped.
        std::string_view base_key, splice;
        std::string derived;
        if (!DecodeDerivation(value, &base_key, &splice) ||
            !Derive(base_key, splice, &derived).ok()) {
          return false;
        }
        ApplyPut(key, derived, /*count_stats=*/false);
        return replayed();
      }
      case wal::RecordType::kDelete: {
        // An absent key is one the checkpoint already folded away. A delete
        // counts as one record in log_size(), as a live one does.
        size_t hidx = HashFind(HashKey(key), key);
        if (hidx != kNoSlot) {
          ++log_records_;
          EraseAt(hidx);
        }
        return replayed();
      }
      case wal::RecordType::kManifestHeader:
        break;
    }
    return false;
  });
  stats_.live_records = hcount_;
  appends_since_checkpoint_ = tail_records;
  return st;
}

void LocalStore::MaybeCompact() {
  if (log_records_ < options_.compaction_min_records) return;
  if (garbage_ratio() > options_.compaction_garbage_ratio) Compact();
}

Status LocalStore::Checkpoint() {
  if (wal_ == nullptr) return Status::OK();
  auto it = Seek("");
  Status st = wal_->WriteCheckpoint(
      [&](std::string_view* key, std::string_view* value) {
        if (!it.Valid()) return false;
        *key = it.key();
        *value = it.value();
        it.Next();
        return true;
      });
  // Reset the cadence either way: a failed publish (injected crash window)
  // must not retry on the very next Put — recovery handles it.
  appends_since_checkpoint_ = 0;
  return st;
}

void LocalStore::MaybeCheckpoint() {
  if (wal_ == nullptr || options_.checkpoint_every_records == 0) return;
  if (appends_since_checkpoint_ < options_.checkpoint_every_records) return;
  Checkpoint().ok();  // an injected publish failure is surfaced via stats
}

void LocalStore::Compact() {
  // Rewrite live records into a fresh arena in key order (sequential reads
  // after compaction walk the arena forward), then rebuild both indexes.
  // Invalidates all outstanding views and iterators.
  // The old arena keeps the records being copied alive until the rebuild.
  Arena old_arena = std::exchange(arena_, Arena());
  log_records_ = 0;
  std::vector<Slot> live;
  live.reserve(hcount_);
  for (auto it = Seek(""); it.Valid(); it.Next()) {
    live.push_back(AppendRecord(it.key(), it.value(), /*count_stats=*/false));
  }
  TreeClear();
  htable_.clear();
  hcount_ = 0;
  live_.clear();
  live_bytes_ = 0;
  for (const Slot& rec : live) IndexLiveRecord(rec);
  stats_.compactions += 1;
}

}  // namespace orchestra::localstore
