#include "storage/page.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"
#include "common/serial.h"
#include "hash/sha1.h"
#include "localstore/local_store.h"

namespace orchestra::storage {

namespace {
// Single-threaded simulation: a plain counter is sufficient.
uint64_t g_tuple_key_hash_count = 0;
}  // namespace

uint64_t TupleKeyHashCount() { return g_tuple_key_hash_count; }

HashId TupleKeyHash(std::string_view key_bytes) {
  g_tuple_key_hash_count += 1;
  Sha1Hasher h;
  h.Update("T\x1f");
  h.Update(key_bytes);
  return HashId::FromDigest(h.Finish());
}

HashId PlacementHash(const RelationDef& def, std::string_view key_bytes) {
  uint32_t arity = def.effective_partition_arity();
  if (arity >= def.schema.key_arity()) return TupleKeyHash(key_bytes);
  auto prefix = PartitionPrefixOfKey(arity, key_bytes);
  if (!prefix.ok()) return TupleKeyHash(key_bytes);
  return TupleKeyHash(*prefix);
}

HashId CoordinatorHash(const std::string& relation, Epoch epoch) {
  Sha1Hasher h;
  h.Update("C\x1f");
  h.Update(relation);
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(epoch >> (8 * i));
  h.Update(buf, sizeof(buf));
  return HashId::FromDigest(h.Finish());
}

HashId ClaimHash(Epoch epoch) {
  Sha1Hasher h;
  h.Update("E\x1f");
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(epoch >> (8 * i));
  h.Update(buf, sizeof(buf));
  return HashId::FromDigest(h.Finish());
}

HashId PartitionBegin(uint32_t partition, uint32_t num_partitions) {
  ORC_CHECK(partition < num_partitions, "partition out of range");
  return HashId::SpacePartition(num_partitions).MultiplyBy(partition);
}

HashId PartitionEnd(uint32_t partition, uint32_t num_partitions) {
  if (partition + 1 == num_partitions) return HashId::Zero();  // wraps
  return HashId::SpacePartition(num_partitions).MultiplyBy(partition + 1);
}

uint32_t PartitionIndexFor(const HashId& h, uint32_t num_partitions) {
  // Binary search over boundaries; num_partitions is small (O(nodes)).
  HashId width = HashId::SpacePartition(num_partitions);
  uint32_t lo = 0, hi = num_partitions - 1;
  while (lo < hi) {
    uint32_t mid = (lo + hi + 1) / 2;
    if (width.MultiplyBy(mid) <= h) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

HashId PartitionHome(uint32_t partition, uint32_t num_partitions) {
  HashId begin = PartitionBegin(partition, num_partitions);
  HashId end = PartitionEnd(partition, num_partitions);
  return begin.ClockwiseMidpoint(end);
}

void PageId::EncodeTo(Writer* w) const {
  w->PutString(relation);
  w->PutVarint64(epoch);
  w->PutVarint32(partition);
}

Status PageId::DecodeFrom(Reader* r, PageId* out) {
  ORC_RETURN_IF_ERROR(r->GetString(&out->relation));
  ORC_RETURN_IF_ERROR(r->GetVarint64(&out->epoch));
  return r->GetVarint32(&out->partition);
}

std::string PageId::ToString() const {
  return relation + "@" + std::to_string(epoch) + "#" + std::to_string(partition);
}

void PageDescriptor::EncodeTo(Writer* w) const {
  id.EncodeTo(w);
  w->PutVarint32(num_partitions);
}

Status PageDescriptor::DecodeFrom(Reader* r, PageDescriptor* out) {
  ORC_RETURN_IF_ERROR(PageId::DecodeFrom(r, &out->id));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&out->num_partitions));
  if (out->num_partitions == 0 || out->id.partition >= out->num_partitions) {
    return Status::Corruption("page descriptor: bad partition");
  }
  return Status::OK();
}

namespace {
// An encoded hash (HashId::EncodeTo): big-endian, so byte order is hash
// order.
constexpr size_t kHashBytes = 20;
// The smallest entry: a one-byte key length, a one-byte epoch and a hash.
constexpr size_t kMinEntryBytes = 2 + kHashBytes;

// Reads a varint64 as Reader::GetVarint64 does, from `p` up to `end`; null
// when the bytes end first or run past ten.
const char* ReadVarint64(const char* p, const char* end, uint64_t* v) {
  uint64_t r = 0;
  for (int shift = 0; shift <= 63 && p < end; shift += 7) {
    const auto byte = static_cast<uint8_t>(*p++);
    r |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = r;
      return p;
    }
  }
  return nullptr;
}
}  // namespace

HashId EntryView::placement() const {
  Reader r(hash);
  HashId h;
  HashId::DecodeFrom(&r, &h).ok();  // an EntryReader read all 20 bytes
  return h;
}

void WriteEntry(Writer* w, std::string_view key, Epoch epoch, const HashId& hash) {
  w->PutString(key);
  w->PutVarint64(epoch);
  hash.EncodeTo(w);
}

EntryReader::EntryReader(std::string_view bytes, uint64_t count)
    : p_(bytes.data()), end_(bytes.data() + bytes.size()), left_(count) {
  if (left_ == 0 && p_ != end_) {
    status_ = Status::Corruption("page entries: bytes past the last entry");
  }
}

EntryReader EntryReader::List(Reader* r) {
  uint64_t n = 0;
  Status st = r->GetCount(&n, kMinEntryBytes);
  std::string_view entries;
  if (st.ok()) st = r->GetRawView(&entries, r->remaining());
  if (!st.ok()) return EntryReader(std::move(st));
  return EntryReader(entries, n);
}

EntryReader EntryReader::OfPage(std::string_view bytes, const PageDescriptor& page) {
  Reader r(bytes);
  PageDescriptor held;
  Status st = PageDescriptor::DecodeFrom(&r, &held);
  if (st.ok() && !(held == page)) {
    st = Status::Corruption("page: the header names " + held.id.ToString());
  }
  if (!st.ok()) return EntryReader(std::move(st));
  return List(&r);
}

bool EntryReader::Next(EntryView* out) {
  if (left_ == 0 || !status_.ok()) return false;
  const char* const at = p_;
  uint64_t len = 0;
  const char* p = ReadVarint64(p_, end_, &len);
  if (p != nullptr && len <= static_cast<uint64_t>(end_ - p)) {
    out->key = std::string_view(p, len);
    p = ReadVarint64(p + len, end_, &out->epoch);
  } else {
    p = nullptr;
  }
  if (p == nullptr || static_cast<size_t>(end_ - p) < kHashBytes) {
    left_ = 0;
    status_ = Status::Corruption("page entries: truncated entry");
    return false;
  }
  out->hash = std::string_view(p, kHashBytes);
  p_ = p + kHashBytes;
  out->bytes = std::string_view(at, static_cast<size_t>(p_ - at));
  if (--left_ == 0 && p_ != end_) {
    status_ = Status::Corruption("page entries: bytes past the last entry");
    return false;
  }
  return true;
}

void Page::EncodeTo(Writer* w) const {
  ORC_CHECK(hashes.size() == ids.size(), "page: hashes not parallel to ids");
  desc.EncodeTo(w);
  w->PutVarint64(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    WriteEntry(w, ids[i].key_bytes, ids[i].epoch, hashes[i]);
  }
}

Status Page::DecodeFrom(Reader* r, Page* out) {
  ORC_RETURN_IF_ERROR(PageDescriptor::DecodeFrom(r, &out->desc));
  EntryReader entries = EntryReader::List(r);
  out->ids.clear();
  out->ids.reserve(entries.left());
  out->hashes.clear();
  out->hashes.reserve(entries.left());
  EntryView e;
  while (entries.Next(&e)) {
    out->ids.push_back(TupleId{std::string(e.key), e.epoch});
    out->hashes.push_back(e.placement());
  }
  return entries.status();
}

namespace {
// The (hash, key) order of page entries and edits.
bool Before(const HashId& ha, std::string_view ka, const HashId& hb,
            std::string_view kb) {
  return ha != hb ? ha < hb : ka < kb;
}

// The (hash, key) order of two entries with encoded hashes, as <0, 0, >0.
int CompareEncoded(std::string_view ha, std::string_view ka, std::string_view hb,
                   std::string_view kb) {
  const int order = std::memcmp(ha.data(), hb.data(), kHashBytes);
  return order != 0 ? order : ka.compare(kb);
}
}  // namespace

void PageDelta::EncodeTo(Writer* w) const {
  page.EncodeTo(w);
  w->PutBool(base.has_value());
  if (base) base->EncodeTo(w);
  w->PutVarint64(edits.size());
  for (const PageEdit& e : edits) {
    e.hash.EncodeTo(w);
    w->PutString(e.key);
    w->PutBool(e.erase);
  }
}

Status PageDelta::DecodeFrom(Reader* r, PageDelta* out) {
  ORC_RETURN_IF_ERROR(PageDescriptor::DecodeFrom(r, &out->page));
  const PageId& id = out->page.id;
  bool has_base = false;
  ORC_RETURN_IF_ERROR(r->GetBool(&has_base));
  out->base.reset();
  if (has_base) {
    PageId base;
    ORC_RETURN_IF_ERROR(PageId::DecodeFrom(r, &base));
    if (base.relation != id.relation || base.partition != id.partition) {
      return Status::Corruption("page delta: base is another partition's page");
    }
    if (base.epoch >= id.epoch) {
      return Status::Corruption("page delta: base is not older than the page");
    }
    out->base = std::move(base);
  }
  // An edit is at least a 20-byte hash, a one-byte key length and a flag.
  uint64_t n;
  ORC_RETURN_IF_ERROR(r->GetCount(&n, 22));
  out->edits.clear();
  out->edits.reserve(n);
  const HashId begin = out->page.range_begin();
  const HashId end = out->page.range_end();  // zero: the top of the ring
  for (uint64_t i = 0; i < n; ++i) {
    PageEdit e;
    ORC_RETURN_IF_ERROR(HashId::DecodeFrom(r, &e.hash));
    ORC_RETURN_IF_ERROR(r->GetStringView(&e.key));
    ORC_RETURN_IF_ERROR(r->GetBool(&e.erase));
    if (e.hash < begin || (end != HashId::Zero() && !(e.hash < end))) {
      return Status::Corruption("page delta: edit outside the partition");
    }
    if (!out->edits.empty() &&
        !Before(out->edits.back().hash, out->edits.back().key, e.hash, e.key)) {
      return Status::Corruption("page delta: edits out of order or repeated");
    }
    out->edits.push_back(e);
  }
  return Status::OK();
}

Result<PageMerge> MergePage(std::string_view base, const PageDelta& delta) {
  if (!delta.base && !base.empty()) {
    return Status::Corruption("page merge: bytes for a partition without a base");
  }
  EntryReader entries =
      delta.base
          ? EntryReader::OfPage(base, PageDescriptor{*delta.base, delta.page.num_partitions})
          : EntryReader(base, 0);
  const Epoch epoch = delta.page.id.epoch;
  const std::vector<PageEdit>& edits = delta.edits;
  Writer edit_hashes(kHashBytes * edits.size());
  for (const PageEdit& e : edits) e.hash.EncodeTo(&edit_hashes);
  auto edit_hash = [&](size_t j) {
    return std::string_view(edit_hashes.data()).substr(kHashBytes * j, kHashBytes);
  };
  localstore::Splice body;
  uint64_t written = 0;  // entries in the new version
  size_t run = base.size() - entries.rest().size();  // base run not yet copied
  auto copy_to = [&](size_t to) {
    body.Copy(run, to - run);
    run = to;
  };
  auto write = [&](size_t j) {
    Writer w(edits[j].key.size() + 32);
    WriteEntry(&w, edits[j].key, epoch, edits[j].hash);
    body.Literal(w.data());
    ++written;
  };
  size_t j = 0;  // next edit
  EntryView prev, entry;  // prev.bytes is empty before the first entry
  while (entries.Next(&entry)) {
    const auto at = static_cast<size_t>(entry.bytes.data() - base.data());
    if (!prev.bytes.empty() &&
        CompareEncoded(prev.hash, prev.key, entry.hash, entry.key) >= 0) {
      return Status::Corruption("page merge: base entries out of order");
    }
    prev = entry;
    // Edits that sort before this entry name keys the base does not hold.
    int order = 1;  // of edit j against this entry
    for (; j < edits.size() &&
           (order = CompareEncoded(edit_hash(j), edits[j].key, entry.hash, entry.key)) < 0;
         ++j) {
      if (edits[j].erase) continue;
      copy_to(at);
      write(j);
    }
    if (j < edits.size() && order == 0) {
      copy_to(at);
      run = at + entry.bytes.size();  // the edit replaces or erases this entry
      if (!edits[j].erase) write(j);
      ++j;
    } else {
      ++written;  // carried unchanged
    }
  }
  ORC_RETURN_IF_ERROR(entries.status());
  for (; j < edits.size(); ++j) {
    if (edits[j].erase) continue;
    copy_to(base.size());
    write(j);
  }
  copy_to(base.size());

  Writer header;
  delta.page.EncodeTo(&header);
  header.PutVarint64(written);
  localstore::Splice whole;
  whole.Literal(header.data());
  whole.Append(body);
  return PageMerge{whole.Encode(base.size()), written};
}

void ClaimInstance::EncodeTo(Writer* w) const {
  w->PutVarint32(participant);
  w->PutVarint32(node);
  w->PutVarint64(nonce);
}

Status ClaimInstance::DecodeFrom(Reader* r, ClaimInstance* out) {
  ORC_RETURN_IF_ERROR(r->GetVarint32(&out->participant));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&out->node));
  return r->GetVarint64(&out->nonce);
}

void ClaimRequest::EncodeTo(Writer* w) const {
  w->PutVarint64(epoch);
  claimant.EncodeTo(w);
}

Status ClaimRequest::DecodeFrom(Reader* r, ClaimRequest* out) {
  ORC_RETURN_IF_ERROR(r->GetVarint64(&out->epoch));
  return ClaimInstance::DecodeFrom(r, &out->claimant);
}

void EpochInstance::EncodeTo(Writer* w) const {
  w->PutVarint64(epoch);
  w->PutVarint32(participant);
  w->PutVarint64(nonce);
}

Status EpochInstance::DecodeFrom(Reader* r, EpochInstance* out) {
  ORC_RETURN_IF_ERROR(r->GetVarint64(&out->epoch));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&out->participant));
  return r->GetVarint64(&out->nonce);
}

void FenceRequest::EncodeTo(Writer* w) const {
  w->PutVarint64(epoch);
  w->PutVarint32(fencer);
  w->PutVarint32(fenced);
  w->PutVarint64(ttl_us);
}

Status FenceRequest::DecodeFrom(Reader* r, FenceRequest* out) {
  ORC_RETURN_IF_ERROR(r->GetVarint64(&out->epoch));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&out->fencer));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&out->fenced));
  return r->GetVarint64(&out->ttl_us);
}

void EpochClaimRecord::EncodeTo(Writer* w) const {
  w->PutVarint32(participant);
  w->PutVarint32(node);
  w->PutBool(committed);
  w->PutVarint64(nonce);
  w->PutBool(fenced);
  w->PutBool(purged);
}

Status EpochClaimRecord::DecodeFrom(Reader* r, EpochClaimRecord* out) {
  ORC_RETURN_IF_ERROR(r->GetVarint32(&out->participant));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&out->node));
  ORC_RETURN_IF_ERROR(r->GetBool(&out->committed));
  ORC_RETURN_IF_ERROR(r->GetVarint64(&out->nonce));
  ORC_RETURN_IF_ERROR(r->GetBool(&out->fenced));
  return r->GetBool(&out->purged);
}

void ClaimProbeAnswer::EncodeTo(Writer* w) const {
  w->PutU8(static_cast<uint8_t>(outcome));
  w->PutBool(waited);
  w->PutVarint32(rank);
  claim.EncodeTo(w);
}

Status ClaimProbeAnswer::DecodeFrom(Reader* r, ClaimProbeAnswer* out) {
  uint8_t outcome = 0;
  ORC_RETURN_IF_ERROR(r->GetU8(&outcome));
  if (outcome > static_cast<uint8_t>(Outcome::kHeld)) {
    return Status::Corruption("claim probe answer: unknown outcome");
  }
  out->outcome = static_cast<Outcome>(outcome);
  ORC_RETURN_IF_ERROR(r->GetBool(&out->waited));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&out->rank));
  return EpochClaimRecord::DecodeFrom(r, &out->claim);
}

void CoordinatorRecord::EncodeTo(Writer* w) const {
  // The relation and its partition count once; each page as (partition,
  // epoch), partitions ascending.
  const uint32_t num_partitions = pages.empty() ? 0 : pages.front().num_partitions;
  w->PutString(relation);
  w->PutVarint64(epoch);
  w->PutVarint32(participant);
  w->PutVarint32(num_partitions);
  w->PutVarint64(pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    const PageDescriptor& p = pages[i];
    ORC_CHECK(p.id.relation == relation && p.num_partitions == num_partitions &&
                  p.id.partition < num_partitions &&
                  (i == 0 || pages[i - 1].id.partition < p.id.partition),
              "coordinator record: a page of another relation or out of order");
    w->PutVarint32(p.id.partition);
    w->PutVarint64(p.id.epoch);
  }
}

Status CoordinatorRecord::DecodeFrom(Reader* r, CoordinatorRecord* out) {
  ORC_RETURN_IF_ERROR(r->GetString(&out->relation));
  ORC_RETURN_IF_ERROR(r->GetVarint64(&out->epoch));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&out->participant));
  uint32_t num_partitions = 0;
  ORC_RETURN_IF_ERROR(r->GetVarint32(&num_partitions));
  // A page is at least a one-byte partition and a one-byte epoch.
  uint64_t n;
  ORC_RETURN_IF_ERROR(r->GetCount(&n, 2));
  out->pages.clear();
  out->pages.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    PageDescriptor d;
    d.id.relation = out->relation;
    d.num_partitions = num_partitions;
    ORC_RETURN_IF_ERROR(r->GetVarint32(&d.id.partition));
    ORC_RETURN_IF_ERROR(r->GetVarint64(&d.id.epoch));
    if (d.id.partition >= num_partitions ||
        (i > 0 && out->pages.back().id.partition >= d.id.partition)) {
      return Status::Corruption("coordinator record: bad page partition");
    }
    out->pages.push_back(std::move(d));
  }
  return Status::OK();
}

}  // namespace orchestra::storage
