#include "storage/page.h"

#include <algorithm>

#include "common/log.h"
#include "common/serial.h"
#include "hash/sha1.h"

namespace orchestra::storage {

void TupleId::EncodeTo(Writer* w) const {
  w->PutString(key_bytes);
  w->PutVarint64(epoch);
}

Status TupleId::DecodeFrom(Reader* r, TupleId* out) {
  ORC_RETURN_IF_ERROR(r->GetString(&out->key_bytes));
  return r->GetVarint64(&out->epoch);
}

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

void Page::EncodeTo(Writer* w) const {
  ORC_CHECK(hashes.size() == ids.size(), "page: hashes not parallel to ids");
  desc.EncodeTo(w);
  w->PutVarint64(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i].EncodeTo(w);
    hashes[i].EncodeTo(w);
  }
}

Status Page::DecodeFrom(Reader* r, Page* out) {
  ORC_RETURN_IF_ERROR(PageDescriptor::DecodeFrom(r, &out->desc));
  // An entry is at least a 2-byte TupleId and a 20-byte hash.
  uint64_t n;
  ORC_RETURN_IF_ERROR(r->GetCount(&n, 22));
  out->ids.clear();
  out->ids.reserve(n);
  out->hashes.clear();
  out->hashes.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    TupleId id;
    ORC_RETURN_IF_ERROR(TupleId::DecodeFrom(r, &id));
    HashId h;
    ORC_RETURN_IF_ERROR(HashId::DecodeFrom(r, &h));
    out->ids.push_back(std::move(id));
    out->hashes.push_back(h);
  }
  return Status::OK();
}

Page MergePage(Page old, const std::vector<PageEdit>& edits, Epoch epoch) {
  auto before = [](const HashId& ha, std::string_view ka, const HashId& hb,
                   std::string_view kb) { return ha != hb ? ha < hb : ka < kb; };
  // The edits in (hash, key) order; the stable sort keeps batch order within
  // a key, so the last edit of a key ends its run.
  std::vector<const PageEdit*> order;
  for (const PageEdit& e : edits) order.push_back(&e);
  std::stable_sort(order.begin(), order.end(),
                   [&before](const PageEdit* a, const PageEdit* b) {
                     return before(a->hash, a->key, b->hash, b->key);
                   });
  Page out;
  out.ids.reserve(old.ids.size() + order.size());
  out.hashes.reserve(old.ids.size() + order.size());
  size_t i = 0;  // next old entry
  auto carry_until = [&](const PageEdit* e) {
    for (; i < old.ids.size() &&
           (e == nullptr ||
            before(old.hashes[i], old.ids[i].key_bytes, e->hash, e->key));
         ++i) {
      out.ids.push_back(std::move(old.ids[i]));
      out.hashes.push_back(old.hashes[i]);
    }
  };
  for (size_t j = 0; j < order.size(); ++j) {
    const PageEdit& e = *order[j];
    if (j + 1 < order.size() && order[j + 1]->hash == e.hash &&
        order[j + 1]->key == e.key) {
      continue;  // a later edit of this key wins
    }
    carry_until(&e);
    if (i < old.ids.size() && old.hashes[i] == e.hash &&
        old.ids[i].key_bytes == e.key) {
      ++i;  // the edit replaces or erases the old entry
    }
    if (!e.erase) {
      out.ids.push_back(TupleId{std::string(e.key), epoch});
      out.hashes.push_back(e.hash);
    }
  }
  carry_until(nullptr);
  return out;
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

void CoordinatorRecord::EncodeTo(Writer* w) const {
  w->PutString(relation);
  w->PutVarint64(epoch);
  w->PutVarint32(participant);
  w->PutVarint64(pages.size());
  for (const auto& p : pages) p.EncodeTo(w);
}

Status CoordinatorRecord::DecodeFrom(Reader* r, CoordinatorRecord* out) {
  ORC_RETURN_IF_ERROR(r->GetString(&out->relation));
  ORC_RETURN_IF_ERROR(r->GetVarint64(&out->epoch));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&out->participant));
  // A page descriptor is at least four one-byte fields.
  uint64_t n;
  ORC_RETURN_IF_ERROR(r->GetCount(&n, 4));
  out->pages.clear();
  out->pages.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    PageDescriptor d;
    ORC_RETURN_IF_ERROR(PageDescriptor::DecodeFrom(r, &d));
    out->pages.push_back(std::move(d));
  }
  return Status::OK();
}

}  // namespace orchestra::storage
