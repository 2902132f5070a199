#include "storage/service.h"

#include <algorithm>
#include <limits>

#include "common/log.h"
#include "common/strings.h"

namespace orchestra::storage {

namespace {
// Background GC pacing. A slice examines (scans plus deletes) at most
// kGcSliceRecords records before yielding the node's simulated CPU back to
// the request path; kGcSliceIntervalUs separates slices, and the leading
// delay is what coalesces a burst of advertisements into a single sweep.
constexpr uint64_t kGcSliceRecords = 2048;
constexpr sim::SimTime kGcSliceIntervalUs = 20 * sim::kMicrosPerMilli;

// Re-replication compares buckets of records by digest before it ships any.
// A bucket is the top kBucketBits of a record's placement hash. Records
// every member holds — catalog entries, and the data and pages of relations
// replicated everywhere — make one more bucket, kEveryoneBucket.
constexpr int kBucketBits = 10;
constexpr uint32_t kEveryoneBucket = 1u << kBucketBits;
constexpr uint32_t kBucketCount = kEveryoneBucket + 1;

// 64-bit FNV-1a over `bytes`, continuing from `h`.
uint64_t Fnv1a(std::string_view bytes, uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// A record's share of its bucket's digest. Data and page versions are
// written once per (key, epoch) and merge store-if-absent, so the key alone
// tells whether the receiver holds one; claims, coordinator records and
// catalog entries merge by value, so their value counts too. MurmurHash3's
// finalizer spreads FNV-1a's last byte over every bit, so two records whose
// keys differ only there (one key at two epochs) cannot trade places in the
// bucket's sum unnoticed.
uint64_t RecordDigest(const keys::ParsedKey& pk, std::string_view key,
                      std::string_view value) {
  uint64_t h = Fnv1a(key);
  switch (pk.tag) {
    case keys::kDataTag:
    case keys::kPageTag:
      break;
    default:
      h = Fnv1a(value, h);
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

// The first hash of bucket `b` (< kEveryoneBucket).
HashId BucketFloor(uint32_t b) {
  return HashId::SpacePartition(kEveryoneBucket).MultiplyBy(b);
}
}  // namespace

void KeyFilter::EncodeTo(Writer* w) const {
  w->PutBool(all);
  if (!all) {
    w->PutString(lo);
    w->PutString(hi);
  }
}

Status KeyFilter::DecodeFrom(Reader* r, KeyFilter* out) {
  ORC_RETURN_IF_ERROR(r->GetBool(&out->all));
  if (!out->all) {
    ORC_RETURN_IF_ERROR(r->GetString(&out->lo));
    ORC_RETURN_IF_ERROR(r->GetString(&out->hi));
  }
  return Status::OK();
}

StorageService::StorageService(net::NodeHost* host,
                               std::shared_ptr<SnapshotBoard> board, int replication,
                               localstore::StoreOptions store_options)
    : host_(host),
      board_(std::move(board)),
      replication_(replication),
      rpc_(host, net::ServiceId::kStorage, kReply),
      store_(store_options),
      claims_(&store_, &counters_, [this](Epoch e) { PurgeEpochLocal(e); }) {
  host_->Register(net::ServiceId::kStorage, this);
  // Every reply this node receives carries the responder's load hint; keep a
  // timestamped per-peer view for the session's admission control.
  rpc_.SetLoadHintHandler([this](net::NodeId peer, uint32_t hint) {
    peer_load_[peer] =
        PeerLoad{hint, host_->network()->simulator()->now()};
  });
}

uint32_t StorageService::LocalLoadHint() const {
  const net::InboxStats& inbox = host_->network()->inbox_stats(node());
  uint64_t hint = inbox.messages + inbox.bytes / 1024 + injected_load_hint_;
  return static_cast<uint32_t>(
      std::min<uint64_t>(hint, std::numeric_limits<uint32_t>::max()));
}

uint32_t StorageService::MaxRecentPeerLoad(sim::SimTime window_us) const {
  sim::SimTime now = host_->network()->simulator()->now();
  uint32_t worst = 0;
  // lint:allow(det-unordered-iter): max-aggregation is order-independent.
  for (const auto& [peer, load] : peer_load_) {
    if (now - load.at <= window_us) worst = std::max(worst, load.hint);
  }
  return worst;
}

// --------------------------------------------------------------------------
// Local API

void StorageService::AddRelationLocal(const RelationDef& def) {
  catalog_[def.name] = def;
  Writer w;
  def.EncodeTo(&w);
  store_.Put(keys::Catalog(def.name), w.data()).ok();
}

Result<RelationDef> StorageService::Relation(std::string_view name) const {
  auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    return Status::NotFound("no relation " + std::string(name));
  }
  return it->second;
}

const RelationDef* StorageService::FindRelation(std::string_view name) const {
  auto it = catalog_.find(name);
  return it == catalog_.end() ? nullptr : &it->second;
}

std::vector<std::string> StorageService::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(catalog_.size());
  for (const auto& [name, def] : catalog_) names.push_back(name);
  return names;
}

Result<CoordinatorRecord> StorageService::ReadCoordinatorLocal(const std::string& rel,
                                                               Epoch e) const {
  ORC_ASSIGN_OR_RETURN(std::string bytes, store_.Get(keys::Coord(rel, e)));
  Reader r(bytes);
  CoordinatorRecord rec;
  ORC_RETURN_IF_ERROR(CoordinatorRecord::DecodeFrom(&r, &rec));
  return rec;
}

Result<std::string> StorageService::ReadPageLocal(const PageId& id) const {
  return store_.Get(keys::PageRec(id.relation, id.epoch, id.partition));
}

Result<std::string_view> StorageService::ReadTupleLocal(std::string_view rel,
                                                        const EntryView& entry) const {
  auto bytes = store_.GetView(keys::DataRaw(rel, entry.hash, entry.key, entry.epoch));
  // Empty stored bytes are a delete tombstone, never a readable tuple.
  if (bytes.ok() && bytes->empty()) return Status::NotFound("tuple deleted");
  return bytes;
}

// --------------------------------------------------------------------------
// RPC plumbing

void StorageService::Call(net::NodeId to, uint16_t code, std::string body,
                          RpcCallback cb, sim::SimTime timeout_us) {
  rpc_.Call(to, code, std::move(body), std::move(cb), timeout_us);
}

void StorageService::CallEach(const std::vector<net::NodeId>& targets,
                              uint16_t code, const std::string& body,
                              std::function<void(std::vector<net::Reply>)> done,
                              sim::SimTime timeout_us) {
  rpc_.CallEach(targets, code, body, std::move(done), timeout_us);
}

void StorageService::CallAll(const std::vector<net::NodeId>& targets, uint16_t code,
                             const std::string& body,
                             std::function<void(Status)> cb) {
  rpc_.CallAll(targets, code, body, std::move(cb));
}

void StorageService::SendOneWay(net::NodeId to, uint16_t code, std::string body) {
  host_->SendTo(to, net::ServiceId::kStorage, code, std::move(body));
}

void StorageService::RunAfter(sim::SimTime delay, std::function<void()> fn) {
  net::Network* net = host_->network();
  net->RunOnNode(node(), net->simulator()->now() + delay, std::move(fn));
}

void StorageService::Respond(net::NodeId to, uint64_t req_id, Status st,
                             std::string body) {
  net::RpcClient::SendReply(host_, to, net::ServiceId::kStorage, kReply, req_id,
                            st, std::move(body), LocalLoadHint());
}

void StorageService::RespondCorrupt(net::NodeId to, uint64_t req_id,
                                    uint16_t code) {
  std::string why = Tag("storage request ", code);
  why += " does not decode";
  Respond(to, req_id, Status::Corruption(why), {});
}

void StorageService::RefuseFenced(net::NodeId to, uint64_t req_id,
                                  uint64_t writes, std::string why) {
  counters_.fenced_writes_refused += writes;
  Respond(to, req_id, Status::Fenced(std::move(why)), {});
}

void StorageService::RespondStored(net::NodeId to, uint64_t req_id,
                                   const std::string& key) {
  auto bytes = store_.Get(key);
  if (!bytes.ok()) {
    Respond(to, req_id, bytes.status(), {});
  } else {
    Respond(to, req_id, Status::OK(), std::move(bytes).value());
  }
}

void StorageService::Answer(ClaimReplica::Replies replies) {
  for (ClaimReplica::Reply& r : replies) {
    Respond(r.to, r.req_id, std::move(r.status), std::move(r.body));
  }
}

void StorageService::ArmProbeHold() {
  // A node task: a node that dies drops it with the probes it held.
  RunAfter(kClaimProbeHoldUs, [this] { Answer(claims_.ExpireHeld(Now())); });
}

void StorageService::OnConnectionDrop(net::NodeId peer) {
  // Orphan reaping: every call addressed to the failed peer resolves now
  // with Unavailable instead of waiting out its deadline.
  rpc_.FailPeer(peer);
}

// --------------------------------------------------------------------------
// Message handling

void StorageService::OnMessage(net::NodeId from, uint16_t code,
                               const std::string& payload) {
  Reader r(payload);
  if (code == kReply) {
    rpc_.HandleReply(payload);
    return;
  }
  if (code == kSetWatermark) {
    uint32_t participant;
    uint64_t w;
    if (r.GetVarint32(&participant).ok() && r.GetVarint64(&w).ok()) {
      SetParticipantWatermark(participant, w);
    }
    return;
  }
  if (code == kPurgeEpoch || code == kReleaseEpoch) {
    // One-way claim traffic: fence propagation from a unanimous fence round
    // (record the burn, purge local orphans; a committed epoch is left
    // alone), or an instance-exact release from a failed publish.
    EpochInstance inst;
    if (!EpochInstance::DecodeFrom(&r, &inst).ok()) return;
    Answer(code == kPurgeEpoch ? claims_.Burn(inst) : claims_.Release(inst));
    return;
  }
  uint64_t req_id;
  if (!r.GetU64(&req_id).ok()) return;
  HandleRequest(from, code, &r, req_id);
}

void StorageService::HandleRequest(net::NodeId from, uint16_t code, Reader* r,
                                   uint64_t req_id) {
  const auto& costs = host_->network()->costs();
  switch (code) {
    case kCatalogAdd: {
      RelationDef def;
      if (!RelationDef::DecodeFrom(r, &def).ok()) break;
      AddRelationLocal(def);
      Respond(from, req_id, Status::OK(), {});
      return;
    }
    case kPutTuples: {
      // One coalesced frame per (publish, destination): every tuple write
      // bound for this node, grouped by relation. Zero-copy receive: every
      // field is consumed as a view of the payload, and the
      // publisher-computed placement hash is spliced straight into the data
      // key — no SHA-1, no TupleId/tuple-bytes copies.
      uint64_t nrels;
      if (!r->GetVarint64(&nrels).ok()) break;
      counters_.puttuples_frames += 1;
      uint64_t total = 0;
      uint64_t fenced_refused = 0;
      for (uint64_t ri = 0; ri < nrels; ++ri) {
        std::string_view rel;
        uint64_t n;
        if (!r->GetStringView(&rel).ok() || !r->GetVarint64(&n).ok()) {
          RespondCorrupt(from, req_id, code);
          return;
        }
        if (FindRelation(rel) == nullptr) {
          Respond(from, req_id,
                  Status::NotFound("no relation " + std::string(rel)), {});
          return;
        }
        for (uint64_t i = 0; i < n; ++i) {
          std::string_view hash_be20, key_bytes, tuple_bytes;
          uint64_t epoch;
          if (!r->GetRawView(&hash_be20, 20).ok() ||
              !r->GetStringView(&key_bytes).ok() ||
              !r->GetVarint64(&epoch).ok() ||
              !r->GetStringView(&tuple_bytes).ok()) {
            RespondCorrupt(from, req_id, code);
            return;
          }
          // Zombie write refusal: a fenced epoch can never be resurrected.
          if (IsEpochFenced(epoch)) {
            ++fenced_refused;
            continue;
          }
          store_.Put(keys::DataRaw(rel, hash_be20, key_bytes, epoch), tuple_bytes)
              .ok();
          counters_.tuples_stored += 1;
        }
        total += n;
      }
      ChargeCpu(costs.tuple_write_us * static_cast<double>(total));
      if (fenced_refused > 0) {
        RefuseFenced(from, req_id, fenced_refused,
                     "tuple writes at a fenced epoch refused");
        return;
      }
      Respond(from, req_id, Status::OK(), {});
      return;
    }
    case kPutPage:
      HandlePutPage(from, r->RemainingView(), req_id, /*may_fetch=*/true);
      return;
    case kPutCoordinator: {
      // The body IS the stored record: validate with a full decode, then
      // store the wire bytes.
      std::string_view rec_bytes = r->RemainingView();
      CoordinatorRecord rec;
      if (!CoordinatorRecord::DecodeFrom(r, &rec).ok() || !r->AtEnd()) break;
      // Zombie commit refusal: a fenced epoch's coordinator chain is burned
      // and purged; no participant may rebuild it.
      if (IsEpochFenced(rec.epoch)) {
        RefuseFenced(from, req_id, 1,
                     Tag("coordinator write at fenced epoch ", rec.epoch));
        return;
      }
      // Multi-writer commit gate: the first committed writer of (rel, epoch)
      // wins. A record from the SAME participant overwrites freely (the
      // byte-identical same-batch retry); a conflicting participant is
      // refused with kEpochTaken carrying the stored winner so it can
      // re-base onto the committed epoch instead of tearing it.
      auto existing = store_.Get(keys::Coord(rec.relation, rec.epoch));
      if (existing.ok()) {
        Reader er(existing.value());
        CoordinatorRecord old;
        if (CoordinatorRecord::DecodeFrom(&er, &old).ok() &&
            old.participant != 0 && rec.participant != 0 &&
            old.participant != rec.participant) {
          counters_.coordinator_conflicts += 1;
          Writer wb;
          wb.PutVarint32(old.participant);
          Respond(from, req_id,
                  Status::EpochTaken("coordinator " + rec.relation + "@" +
                                     std::to_string(rec.epoch) +
                                     " already committed by participant " +
                                     std::to_string(old.participant)),
                  wb.Release());
          return;
        }
      }
      store_.Put(keys::Coord(rec.relation, rec.epoch), rec_bytes).ok();
      // Deliberately does NOT advance the confirmed frontier: a torn publish
      // leaves partial records, and discovery basing on them would absorb
      // uncommitted updates. Only kConfirmEpoch advances the frontier.
      Respond(from, req_id, Status::OK(), {});
      return;
    }
    case kClaimEpoch: {
      ClaimRequest req;
      if (!ClaimRequest::DecodeFrom(r, &req).ok()) break;
      ChargeCpu(costs.tuple_scan_us);
      Answer(claims_.Claim(from, req_id, req, Now()));
      return;
    }
    case kConfirmEpoch: {
      ClaimRequest req;
      if (!ClaimRequest::DecodeFrom(r, &req).ok()) break;
      Answer(claims_.Confirm(from, req_id, req, Now()));
      return;
    }
    case kFenceEpoch: {
      FenceRequest req;
      if (!FenceRequest::DecodeFrom(r, &req).ok()) break;
      ChargeCpu(costs.tuple_scan_us);
      Answer(claims_.Fence(from, req_id, req, Now()));
      return;
    }
    case kGetEpochClaim: {
      uint64_t epoch;
      if (!r->GetVarint64(&epoch).ok()) break;
      ClaimReplica::Replies answered = claims_.Probe(from, req_id, epoch, Now());
      if (answered.empty()) ArmProbeHold();
      Answer(std::move(answered));
      return;
    }
    case kGetMaxEpoch: {
      Writer w;
      w.PutVarint64(claims_.max_confirmed());
      Respond(from, req_id, Status::OK(), w.Release());
      return;
    }
    case kGetCoordinator: {
      std::string rel;
      uint64_t epoch;
      if (!r->GetString(&rel).ok() || !r->GetVarint64(&epoch).ok()) break;
      RespondStored(from, req_id, keys::Coord(rel, epoch));
      return;
    }
    case kGetPage: {
      PageId id;
      if (!PageId::DecodeFrom(r, &id).ok()) break;
      RespondStored(from, req_id,
                    keys::PageRec(id.relation, id.epoch, id.partition));
      return;
    }
    case kGetTuple: {
      // The stored bytes are already the encoded tuple: respond with them
      // directly instead of decode + re-encode.
      std::string_view rel;
      if (!r->GetStringView(&rel).ok()) break;
      EntryReader one(r->RemainingView(), 1);
      EntryView entry;
      if (!one.Next(&entry)) break;
      auto bytes = ReadTupleLocal(rel, entry);
      ChargeCpu(costs.tuple_scan_us);
      if (!bytes.ok()) {
        Respond(from, req_id, bytes.status(), {});
      } else {
        counters_.tuples_served += 1;
        Respond(from, req_id, Status::OK(), std::string(bytes.value()));
      }
      return;
    }
    case kReplicaPush:
      HandleReplicaPush(from, r, req_id);
      return;
    default:
      Respond(from, req_id, Status::NotSupported("unknown storage code"), {});
      return;
  }
  // A case leaves the switch only when its request body does not decode.
  RespondCorrupt(from, req_id, code);
}

void StorageService::HandlePutPage(net::NodeId from, std::string_view body,
                                   uint64_t req_id, bool may_fetch) {
  Reader r(body);
  PageDelta delta;
  if (!PageDelta::DecodeFrom(&r, &delta).ok() || !r.AtEnd()) {
    RespondCorrupt(from, req_id, kPutPage);
    return;
  }
  const PageId& id = delta.page.id;
  if (IsEpochFenced(id.epoch)) {
    RefuseFenced(from, req_id, 1, Tag("page write at fenced epoch ", id.epoch));
    return;
  }
  std::string base_key;
  std::string_view base;
  if (delta.base) {
    base_key = keys::PageRec(delta.base->relation, delta.base->epoch,
                             delta.base->partition);
    auto held = store_.GetView(base_key);
    if (!held.ok() && may_fetch) {
      // A new owner after a routing change, or a restart that lost the
      // record: fetch the base from a co-replica, store it, then merge.
      const PageDescriptor base_desc{*delta.base, delta.page.num_partitions};
      GetPage(base_desc, [this, from, req_id, base_key,
                          body = std::string(body)](Status st, std::string page) {
        if (!st.ok()) {
          Respond(from, req_id, st, {});
          return;
        }
        store_.Put(base_key, page).ok();
        HandlePutPage(from, body, req_id, /*may_fetch=*/false);
      });
      return;
    }
    if (!held.ok()) {
      Respond(from, req_id, held.status(), {});
      return;
    }
    base = *held;
  }
  auto merged = MergePage(base, delta);
  if (!merged.ok()) {
    Respond(from, req_id, merged.status(), {});
    return;
  }
  // Stored whole; logged as the splice of the base it was built from.
  const std::string key = keys::PageRec(id.relation, id.epoch, id.partition);
  Status st;
  if (delta.base) {
    st = store_.PutDerived(key, base_key, merged->splice);
  } else {
    std::string page_bytes;
    st = localstore::Splice::Apply(merged->splice, {}, &page_bytes);
    if (st.ok()) st = store_.Put(key, page_bytes);
  }
  if (!st.ok()) {
    Respond(from, req_id, st, {});
    return;
  }
  counters_.pages_stored += 1;
  ChargeCpu(host_->network()->costs().index_entry_us *
            static_cast<double>(merged->entries));
  Respond(from, req_id, Status::OK(), {});
  RetirePageGroup(id);
}

void StorageService::HandleReplicaPush(net::NodeId from, Reader* r,
                                       uint64_t req_id) {
  // Body: participant marks, burned epochs, records, bucket digests (see
  // RebalanceTo). Round 1 carries digests and no records, round 2 records
  // and no digests; the reply names the digested buckets that differ here.
  const auto& costs = host_->network()->costs();
  auto corrupt = [&] { RespondCorrupt(from, req_id, kReplicaPush); };
  // The participant-watermark table comes first, so a restarted node
  // re-learns every participant's mark (not just a scalar); the effective
  // watermark is recomputed as the min.
  uint64_t mark_count;
  if (!r->GetCount(&mark_count, 2).ok()) return corrupt();
  std::vector<std::pair<ParticipantId, Epoch>> pushed_marks;
  pushed_marks.reserve(mark_count);
  for (uint64_t i = 0; i < mark_count; ++i) {
    uint32_t p;
    uint64_t m;
    if (!r->GetVarint32(&p).ok() || !r->GetVarint64(&m).ok()) return corrupt();
    pushed_marks.emplace_back(p, m);
  }
  // Piggybacked fenced-epoch table: merged BEFORE the records below so a
  // push can never resurrect orphans at epochs its own sender knows are
  // burned (and so a restarted receiver whose fenced claim records were
  // GC'd below the watermark still re-learns the burns).
  uint64_t fence_count;
  if (!r->GetVarint64(&fence_count).ok()) return corrupt();
  for (uint64_t i = 0; i < fence_count; ++i) {
    EpochInstance burn;
    if (!EpochInstance::DecodeFrom(r, &burn).ok()) return corrupt();
    Answer(claims_.Burn(burn));
  }
  uint64_t n;
  if (!r->GetVarint64(&n).ok()) return corrupt();
  uint64_t stored = 0;
  auto put = [&](std::string_view key, std::string_view value) {
    store_.Put(key, value).ok();
    ++stored;
  };
  for (uint64_t i = 0; i < n; ++i) {
    std::string_view key, value;
    if (!r->GetStringView(&key).ok() || !r->GetStringView(&value).ok()) {
      return corrupt();
    }
    // A key no family parses is not stored: no pass would ever read,
    // retire or re-replicate it.
    keys::ParsedKey pk;
    if (!keys::Parse(key, &pk)) continue;
    switch (pk.tag) {
      case keys::kClaimTag: {
        // Epoch claims merge by strength (ClaimReplica::MergePushed).
        bool merged = false;
        Answer(claims_.MergePushed(pk.epoch, value, Now(), &merged));
        if (merged) ++stored;
        break;
      }
      case keys::kCatalogTag: {
        if (!store_.Contains(key)) put(key, value);
        Reader cr(value);
        RelationDef def;
        if (RelationDef::DecodeFrom(&cr, &def).ok()) catalog_[def.name] = def;
        break;
      }
      default: {
        // Coordinator, page and data versions. A stale pusher that missed
        // a fence must neither resurrect the orphans it purged nor rebuild
        // the burned epoch's coordinator chain.
        if (IsEpochFenced(pk.epoch)) break;
        // Data and page versions are written once per (key, epoch):
        // store-if-absent. Coordinator records too, EXCEPT when replicas
        // disagree about a (rel, epoch)'s writer — possible only after the
        // commit-gate backstop fired under a claim-replica wipeout.
        // Store-if-absent would then freeze the disagreement forever
        // (neither writer's pushes could ever overwrite the other's
        // replicas); merging toward the smaller participant makes every
        // replica CONVERGE to one deterministic writer per epoch instead.
        if (pk.tag != keys::kCoordTag) {
          if (!store_.Contains(key)) put(key, value);
          break;
        }
        auto curv = store_.Get(key);
        if (!curv.ok()) {
          put(key, value);
          break;
        }
        Reader pr(value);
        Reader cr(curv.value());
        CoordinatorRecord pushed, held;
        if (CoordinatorRecord::DecodeFrom(&pr, &pushed).ok() &&
            CoordinatorRecord::DecodeFrom(&cr, &held).ok() &&
            pushed.participant != 0 && held.participant != 0 &&
            pushed.participant < held.participant) {
          put(key, value);
        }
        break;
      }
    }
  }
  // Only a stored record costs a write; every other record costs a lookup.
  ChargeCpu(costs.tuple_write_us * static_cast<double>(stored) +
            costs.index_entry_us * static_cast<double>(n - stored));
  // Piggybacked GC watermarks: a freshly restarted node (its table resets
  // empty) learns every participant's mark from the first replica push
  // instead of waiting for the next advertisements. Conversely, a push from
  // a node that lags OUR watermark may have resurrected already-retired
  // records. Marks merge WITHOUT per-mark retirement, and one sweep covers
  // both cases: a raised watermark, and records this frame stored.
  for (const auto& [p, m] : pushed_marks) MergeParticipantMark(p, m);
  const Epoch effective = EffectiveParticipantWatermark();
  const bool raised = effective > gc_watermark_;
  if (raised) gc_watermark_ = effective;
  if ((raised || stored > 0) && gc_watermark_ > 0) ScheduleGcSweep();

  // Compare the pusher's digests with this node's own, bucket by bucket. An
  // entry is at least a one-byte bucket, a one-byte count and an 8-byte sum.
  uint64_t digest_count;
  if (!r->GetCount(&digest_count, 10).ok()) return corrupt();
  Writer differ;
  uint64_t differing = 0;
  if (digest_count > 0) {
    const std::vector<BucketDigest>& mine = LocalBucketDigests();
    for (uint64_t i = 0; i < digest_count; ++i) {
      uint32_t bucket;
      BucketDigest theirs;
      if (!r->GetVarint32(&bucket).ok() || !r->GetVarint64(&theirs.count).ok() ||
          !r->GetU64(&theirs.sum).ok() || bucket >= kBucketCount) {
        return corrupt();
      }
      if (mine[bucket].count != theirs.count || mine[bucket].sum != theirs.sum) {
        differ.PutVarint32(bucket);
        ++differing;
      }
    }
  }
  Writer reply;
  reply.PutVarint64(differing);
  reply.PutRaw(differ.data().data(), differ.size());
  Respond(from, req_id, Status::OK(), reply.Release());
}

void StorageService::PurgeEpochLocal(Epoch epoch) {
  // The orphan purge behind a fence: the burned epoch never committed (both
  // fence entry points refuse committed epochs), so every version stored at
  // it is unreachable garbage — and worse, a data version at the burned
  // epoch would SHADOW the committed version the coordinator chain
  // references once the GC watermark passes it. One ordered pass per
  // version family.
  std::vector<std::string> doomed;
  uint64_t scanned = 0;
  for (char tag : {keys::kDataTag, keys::kPageTag, keys::kCoordTag}) {
    for (auto it = store_.SeekPrefix(keys::TagPrefix(tag)); it.Valid(); it.Next()) {
      ++scanned;
      keys::ParsedKey pk;
      if (keys::Parse(it.key(), &pk) && pk.epoch == epoch) {
        doomed.emplace_back(it.key());
      }
    }
  }
  for (const std::string& key : doomed) store_.Delete(key).ok();
  counters_.purged_orphans += doomed.size();
  ChargeCpu(host_->network()->costs().tuple_scan_us *
            static_cast<double>(scanned + doomed.size()));
}

// --------------------------------------------------------------------------
// Replica-retry reads

void StorageService::GetCoordinator(
    const std::string& rel, Epoch epoch,
    std::function<void(Status, CoordinatorRecord)> cb) {
  HashId where = CoordinatorHash(rel, epoch);
  auto replicas = board_->current.ReplicasOf(where, replication_);
  Writer w;
  w.PutString(rel);
  w.PutVarint64(epoch);

  rpc_.CallFirst(std::move(replicas), kGetCoordinator, w.Release(),
                 [cb = std::move(cb)](Status st, const std::string& reply) {
                   if (!st.ok()) {
                     // Pass the last replica's error through: NotFound (a live
                     // replica definitively lacks the record) means something
                     // different to the publisher's walk-back than a timeout
                     // or drop does, and must not be flattened away.
                     cb(st, {});
                     return;
                   }
                   Reader r(reply);
                   CoordinatorRecord rec;
                   Status ds = CoordinatorRecord::DecodeFrom(&r, &rec);
                   if (ds.ok()) {
                     cb(Status::OK(), std::move(rec));
                   } else {
                     cb(ds, {});
                   }
                 });
}

void StorageService::GetPage(const PageDescriptor& desc,
                             std::function<void(Status, std::string)> cb) {
  auto replicas = board_->current.ReplicasOf(desc.home(), replication_);
  Writer w;
  desc.id.EncodeTo(&w);

  rpc_.CallFirst(std::move(replicas), kGetPage, w.Release(),
                 [desc, cb = std::move(cb)](Status st, const std::string& reply) {
                   if (!st.ok()) {
                     cb(Status::Unavailable("no replica has page"), {});
                     return;
                   }
                   // Refused unless every entry reads.
                   EntryReader entries = EntryReader::OfPage(reply, desc);
                   EntryView e;
                   while (entries.Next(&e)) {}
                   if (entries.status().ok()) {
                     cb(Status::OK(), reply);
                   } else {
                     cb(entries.status(), {});
                   }
                 });
}

void StorageService::FetchTuple(const std::string& rel, const EntryView& entry,
                                std::function<void(Status, Tuple)> cb) {
  auto replicas = board_->current.ReplicasOf(entry.placement(), replication_);
  Writer w;
  w.PutString(rel);
  w.PutRaw(entry.bytes.data(), entry.bytes.size());

  rpc_.CallFirst(std::move(replicas), kGetTuple, w.Release(),
                 [cb = std::move(cb)](Status st, const std::string& reply) {
                   if (!st.ok()) {
                     cb(Status::Unavailable("tuple not found on any replica"), {});
                     return;
                   }
                   Reader r(reply);
                   Tuple t;
                   Status ds = DecodeTuple(&r, &t);
                   if (!ds.ok()) {
                     cb(ds, {});
                     return;
                   }
                   cb(Status::OK(), std::move(t));
                 });
}

// --------------------------------------------------------------------------
// Background re-replication

std::optional<StorageService::Placement> StorageService::PlaceRecord(
    const keys::ParsedKey& pk) const {
  static const Placement kEveryone{kEveryoneBucket, /*everyone=*/true, HashId()};
  HashId hash;
  switch (pk.tag) {
    case keys::kDataTag: {
      const RelationDef* def = FindRelation(pk.relation);
      if (def != nullptr && def->replicate_everywhere) return kEveryone;
      Reader hr(pk.hash_be20);
      HashId::DecodeFrom(&hr, &hash).ok();  // Parse read all 20 bytes
      break;
    }
    case keys::kPageTag: {
      const RelationDef* def = FindRelation(pk.relation);
      if (def == nullptr) return std::nullopt;
      if (def->replicate_everywhere) return kEveryone;
      hash = PartitionHome(pk.partition, def->num_partitions);
      break;
    }
    case keys::kCoordTag:
      hash = CoordinatorHash(std::string(pk.relation), pk.epoch);
      break;
    case keys::kClaimTag:
      hash = ClaimHash(pk.epoch);
      break;
    default:  // kCatalogTag
      return kEveryone;
  }
  return Placement{static_cast<uint32_t>(hash.Top64() >> (64 - kBucketBits)),
                   /*everyone=*/false, hash};
}

std::optional<uint32_t> StorageService::ReplicaBucket(std::string_view key) const {
  keys::ParsedKey pk;
  if (!keys::Parse(key, &pk)) return std::nullopt;
  auto place = PlaceRecord(pk);
  if (!place) return std::nullopt;
  return place->bucket;
}

void StorageService::ForEachPlaced(
    const std::function<void(std::string_view key, std::string_view value,
                             const keys::ParsedKey&, const Placement&)>& fn)
    const {
  for (auto it = store_.Seek(""); it.Valid(); it.Next()) {
    keys::ParsedKey pk;
    if (!keys::Parse(it.key(), &pk)) continue;
    if (auto place = PlaceRecord(pk)) fn(it.key(), it.value(), pk, *place);
  }
}

const std::vector<StorageService::BucketDigest>&
StorageService::LocalBucketDigests() {
  const localstore::StoreStats& stats = store_.stats();
  if (!digests_.buckets.empty() && digests_.puts == stats.puts &&
      digests_.deletes == stats.deletes) {
    return digests_.buckets;
  }
  digests_.buckets.assign(kBucketCount, {});
  uint64_t digested = 0;
  ForEachPlaced([&](std::string_view key, std::string_view value,
                    const keys::ParsedKey& pk, const Placement& place) {
    BucketDigest& d = digests_.buckets[place.bucket];
    d.count += 1;
    d.sum += RecordDigest(pk, key, value);
    ++digested;
  });
  ChargeCpu(host_->network()->costs().index_entry_us *
            static_cast<double>(digested));
  digests_.puts = stats.puts;
  digests_.deletes = stats.deletes;
  return digests_.buckets;
}

void StorageService::PutPushTables(Writer* w) const {
  // The full participant table, so a restarted receiver rebuilds the
  // min-across-participants watermark, not a scalar.
  w->PutVarint64(participant_marks_.size());
  for (const auto& [p, pm] : participant_marks_) {
    w->PutVarint32(p);
    w->PutVarint64(pm.mark);
  }
  // Burns propagate even after the fenced claim records themselves were
  // retired below the GC watermark.
  w->PutVarint64(claims_.burned().size());
  for (const auto& [fe, inst] : claims_.burned()) {
    EpochInstance{fe, inst.participant, inst.nonce}.EncodeTo(w);
  }
}

std::vector<std::vector<net::NodeId>> StorageService::BucketTargets(
    const overlay::RoutingSnapshot& snap) const {
  std::vector<std::vector<net::NodeId>> targets(kBucketCount);
  for (uint32_t b = 0; b < kEveryoneBucket; ++b) {
    targets[b] = snap.ReplicasOf(BucketFloor(b), replication_);
  }
  // A range that starts inside a bucket adds its replicas to that bucket's.
  for (const overlay::RangeEntry& range : snap.entries()) {
    const auto b = static_cast<uint32_t>(range.begin.Top64() >> (64 - kBucketBits));
    if (range.begin == BucketFloor(b)) continue;
    for (net::NodeId t : snap.ReplicasOf(range.begin, replication_)) {
      if (std::find(targets[b].begin(), targets[b].end(), t) == targets[b].end()) {
        targets[b].push_back(t);
      }
    }
  }
  for (const auto& m : snap.members()) targets[kEveryoneBucket].push_back(m.node);
  for (auto& t : targets) t.erase(std::remove(t.begin(), t.end(), node()), t.end());
  return targets;
}

void StorageService::RebalanceTo(const overlay::RoutingSnapshot& snap) {
  // Round 1: offer each target the digest of every non-empty bucket `snap`
  // places on it. The digests are the ones this node answers pushers with;
  // a bucket split between replica sets is offered whole, so it differs at
  // a target that holds only part of it and ships.
  const std::vector<BucketDigest>& mine = LocalBucketDigests();
  const std::vector<std::vector<net::NodeId>> targets = BucketTargets(snap);
  std::map<net::NodeId, std::vector<uint32_t>> offers;
  for (uint32_t b = 0; b < kBucketCount; ++b) {
    if (mine[b].count == 0) continue;
    for (net::NodeId t : targets[b]) offers[t].push_back(b);
  }
  if (offers.empty()) return;

  // Round 2 starts once every target has answered: an answer names the
  // buckets it lacks or holds differently, and a failed call names none.
  using Ask = std::pair<net::NodeId, std::vector<uint32_t>>;
  auto answered = net::FanIn<Ask>(
      offers.size(),
      [this, pinned = std::make_shared<const overlay::RoutingSnapshot>(snap)](
          std::vector<Ask> asks) {
        std::map<net::NodeId, std::vector<bool>> asked;
        for (auto& [target, buckets] : asks) {
          if (buckets.empty()) continue;
          std::vector<bool>& want = asked[target];
          want.resize(kBucketCount);
          for (uint32_t b : buckets) want[b] = true;
        }
        if (!asked.empty()) PushBuckets(*pinned, asked);
      });
  for (const auto& [target, buckets] : offers) {
    Writer w;
    PutPushTables(&w);
    w.PutVarint64(0);  // no records
    w.PutVarint64(buckets.size());
    for (uint32_t b : buckets) {
      w.PutVarint32(b);
      w.PutVarint64(mine[b].count);
      w.PutU64(mine[b].sum);
    }
    Call(target, kReplicaPush, w.Release(),
         [answered, target](Status st, const std::string& body) {
           std::vector<uint32_t> differ;
           Reader r(body);
           uint64_t n = 0;
           if (st.ok() && r.GetCount(&n, 1).ok()) {
             for (uint64_t i = 0; i < n; ++i) {
               uint32_t b;
               if (!r.GetVarint32(&b).ok() || b >= kBucketCount) break;
               differ.push_back(b);
             }
           }
           answered(Ask(target, std::move(differ)));
         });
  }
}

void StorageService::PushBuckets(
    const overlay::RoutingSnapshot& snap,
    const std::map<net::NodeId, std::vector<bool>>& asked) {
  std::vector<bool> any(kBucketCount);
  for (const auto& [target, want] : asked) {
    for (uint32_t b = 0; b < kBucketCount; ++b) {
      if (want[b]) any[b] = true;
    }
  }
  std::map<net::NodeId, Writer> batches;
  std::map<net::NodeId, uint64_t> counts;
  ForEachPlaced([&](std::string_view key, std::string_view value,
                    const keys::ParsedKey&, const Placement& place) {
    if (!any[place.bucket]) return;
    std::vector<net::NodeId> targets;
    if (place.everyone) {
      for (const auto& m : snap.members()) targets.push_back(m.node);
    } else {
      targets = snap.ReplicasOf(place.hash, replication_);
    }
    for (net::NodeId t : targets) {
      auto want = asked.find(t);  // never this node: it offers to others only
      if (want == asked.end() || !want->second[place.bucket]) continue;
      Writer& w = batches[t];
      w.PutString(key);
      w.PutString(value);
      counts[t] += 1;
    }
  });
  for (auto& [target, batch] : batches) {
    Writer w;
    PutPushTables(&w);
    w.PutVarint64(counts[target]);
    w.PutRaw(batch.data().data(), batch.size());
    w.PutVarint64(0);  // no digests
    Call(target, kReplicaPush, w.Release(), [](Status, const std::string&) {});
  }
}

// --------------------------------------------------------------------------
// Multi-epoch GC

void StorageService::SetGcWatermark(Epoch w) {
  if (w < gc_watermark_ || w == 0) return;  // monotonic; 0 disables
  gc_watermark_ = w;
  // The direct entry point is synchronous: callers (tests, harness nudges)
  // expect retirement to have happened on return. Any background sweep in
  // flight is superseded — restart the cursor at the new watermark and run
  // the whole sweep inline as one unbounded slice.
  ResetGcSweep(/*active=*/false);
  RunGcSlice(std::numeric_limits<uint64_t>::max());
  gc_.runs += 1;
}

Epoch StorageService::EffectiveParticipantWatermark() const {
  sim::SimTime now = host_->network()->simulator()->now();
  Epoch min_mark = 0;
  bool any = false;
  for (const auto& [p, pm] : participant_marks_) {
    if (now - pm.at > kParticipantMarkTtlUs) continue;  // departed
    if (!any || pm.mark < min_mark) min_mark = pm.mark;
    any = true;
  }
  return any ? min_mark : 0;
}

void StorageService::MergeParticipantMark(ParticipantId p, Epoch mark) {
  sim::SimTime now = host_->network()->simulator()->now();
  ParticipantMark& pm = participant_marks_[p];
  pm.mark = std::max(pm.mark, mark);  // monotonic per participant
  pm.at = now;
  // Expire departed participants eagerly so they stop pinning the min (and
  // so replica pushes don't keep resurrecting their entries elsewhere).
  for (auto it = participant_marks_.begin(); it != participant_marks_.end();) {
    if (now - it->second.at > kParticipantMarkTtlUs) {
      it = participant_marks_.erase(it);
    } else {
      ++it;
    }
  }
}

void StorageService::SetParticipantWatermark(ParticipantId p, Epoch mark) {
  MergeParticipantMark(p, mark);
  Epoch effective = EffectiveParticipantWatermark();
  if (effective == 0 || effective < gc_watermark_) return;
  // Advertisements raise the floor immediately (watermark reads must see the
  // new mark) but retire in the background: each publish used to pay a
  // synchronous full-store sweep here, which is where the steady-state GC
  // throughput tax came from.
  gc_watermark_ = effective;
  ScheduleGcSweep();
}

// --------------------------------------------------------------------------
// Incremental background GC

void StorageService::ScheduleGcSweep() {
  if (gc_watermark_ == 0) return;
  if (gc_sweep_.active) {
    // A sweep is in flight: fold this advertisement into it. The running
    // sweep keeps its pinned (older) watermark; on completion it restarts at
    // the latest one, which also re-covers anything a stale replica push
    // resurrected behind the cursor.
    gc_sweep_.rearm = true;
    gc_.coalesced += 1;
    return;
  }
  ResetGcSweep(/*active=*/true);
  const uint64_t gen = gc_sweep_.generation;
  RunAfter(kGcSliceIntervalUs, [this, gen] { GcSliceTask(gen); });
}

void StorageService::ResetGcSweep(bool active) {
  gc_sweep_.active = active;
  gc_sweep_.rearm = false;
  gc_sweep_.generation += 1;
  gc_sweep_.watermark = gc_watermark_;
  gc_sweep_.phase = 0;
  gc_sweep_.resume.clear();
}

void StorageService::GcSliceTask(uint64_t generation) {
  if (!gc_sweep_.active || generation != gc_sweep_.generation) return;
  gc_.slices += 1;
  if (!RunGcSlice(kGcSliceRecords)) {
    RunAfter(kGcSliceIntervalUs,
             [this, generation] { GcSliceTask(generation); });
    return;
  }
  gc_sweep_.active = false;
  gc_.runs += 1;
  if (gc_sweep_.rearm) ScheduleGcSweep();
}

bool StorageService::RunGcSlice(uint64_t budget) {
  // One ordered pass per record family, in this order, each counting what
  // it retires in its own GcStats field. Coordinator records and epoch
  // claims below the watermark are unreachable (retrieval is supported at
  // [w, current]; no publisher can contend for a claim that far back).
  //
  // Page and data records share the layout <group-prefix><epoch:8B BE> and
  // sort by group then epoch, so the pass sees each group's versions
  // oldest-first and hands each whole group to RetireSuperseded.
  //
  // Correctness precondition: every version at-or-below the watermark was
  // referenced by some committed coordinator when written. Torn publishes
  // keep this locally checkable: coordinator records (the commit point) go
  // out only after every tuple/page write succeeded, and a failed publish
  // must be retried with the SAME batch (idempotent overwrite) before
  // publishing different data — an abandoned batch's orphan versions would
  // otherwise shadow the committed version the coordinators reference once
  // the watermark passes them.
  struct Phase {
    char tag;
    uint64_t GcStats::*retired;
  };
  static constexpr Phase kPhases[] = {{keys::kCoordTag, &GcStats::retired_coords},
                                      {keys::kClaimTag, &GcStats::retired_claims},
                                      {keys::kPageTag, &GcStats::retired_pages},
                                      {keys::kDataTag, &GcStats::retired_data}};
  const Epoch w = gc_sweep_.watermark;
  std::vector<std::string> doomed;
  std::vector<Epoch> retired_claims;  // told to ClaimReplica once deleted
  uint64_t scanned = 0;

  while (gc_sweep_.phase < 4 && scanned < budget) {
    const Phase& phase = kPhases[gc_sweep_.phase];
    const bool versioned = phase.tag == keys::kPageTag || phase.tag == keys::kDataTag;
    const std::string prefix = keys::TagPrefix(phase.tag);
    // The current version group, oldest first, and its key minus the
    // epoch. A coordinator or claim record is a group of its own.
    std::vector<GcVersion> group;
    std::string_view group_key;
    bool exhausted = true;
    for (auto it = store_.Seek(gc_sweep_.resume.empty() ? prefix : gc_sweep_.resume,
                               localstore::LocalStore::PrefixUpperBound(prefix));
         it.Valid(); it.Next()) {
      std::string_view key = it.key();
      const std::string_view key_group = versioned ? keys::VersionGroupPrefix(key) : key;
      if (key_group != group_key) {
        if (scanned >= budget) {
          // Stop BEFORE this group; the next slice re-seeks to it. Records
          // a push inserts behind the cursor are caught by the re-arm sweep,
          // exactly like ones behind a completed sweep.
          gc_sweep_.resume.assign(key);
          exhausted = false;
          break;
        }
        RetireSuperseded(group, w, phase.retired, &doomed);
        group.clear();
        group_key = key_group;
      }
      ++scanned;
      keys::ParsedKey pk;
      if (!keys::Parse(key, &pk)) continue;  // malformed: leave it alone
      if (versioned) {
        // Only data-family tombstones (empty value) are reaped once
        // trailing; pages have no tombstone notion.
        group.push_back(
            {key, pk.epoch, pk.tag == keys::kDataTag && it.value().empty()});
      } else if (pk.epoch < w) {
        doomed.emplace_back(key);
        ++(gc_.*phase.retired);
        if (pk.tag == keys::kClaimTag) retired_claims.push_back(pk.epoch);
      }
    }
    RetireSuperseded(group, w, phase.retired, &doomed);
    if (!exhausted) break;
    gc_sweep_.phase += 1;
    gc_sweep_.resume.clear();
  }

  for (const std::string& key : doomed) store_.Delete(key).ok();
  for (Epoch e : retired_claims) Answer(claims_.Retired(e));
  ChargeCpu(host_->network()->costs().tuple_scan_us *
            static_cast<double>(scanned + doomed.size()));
  return gc_sweep_.phase >= 4;
}

void StorageService::RetireSuperseded(const std::vector<GcVersion>& group,
                                      Epoch w, uint64_t GcStats::*retired,
                                      std::vector<std::string>* doomed) {
  const GcVersion* survivor = nullptr;  // newest version <= w so far
  for (const GcVersion& v : group) {
    if (v.epoch > w) continue;
    // A version at a burned epoch is purged garbage a stale push
    // resurrected; letting it win the newest-at-or-below race would shadow
    // the committed version the coordinators reference.
    if (IsEpochFenced(v.epoch)) {
      doomed->emplace_back(v.key);
      ++(gc_.*retired);
      continue;
    }
    if (survivor != nullptr) {
      doomed->emplace_back(survivor->key);
      ++(survivor->tombstone ? gc_.retired_tombstones : gc_.*retired);
    }
    survivor = &v;
  }
  // A surviving tombstone exists only to kill older versions, which are gone.
  if (survivor != nullptr && survivor->tombstone) {
    doomed->emplace_back(survivor->key);
    ++gc_.retired_tombstones;
  }
}

void StorageService::RetirePageGroup(const PageId& id) {
  const Epoch w = gc_watermark_;
  if (w == 0) return;
  // Only the partition's versions at or below the watermark can retire.
  std::vector<GcVersion> group;
  for (auto it = store_.Seek(keys::PageRec(id.relation, 0, id.partition),
                             keys::PageRec(id.relation, w + 1, id.partition));
       it.Valid(); it.Next()) {
    keys::ParsedKey pk;
    if (keys::Parse(it.key(), &pk)) group.push_back({it.key(), pk.epoch, false});
  }
  // Collected before any delete: a Delete may compact the store, which
  // invalidates the iterator and the group's key views.
  std::vector<std::string> doomed;
  RetireSuperseded(group, w, &GcStats::retired_pages, &doomed);
  for (const std::string& key : doomed) store_.Delete(key).ok();
  ChargeCpu(host_->network()->costs().tuple_scan_us *
            static_cast<double>(group.size() + doomed.size()));
}

void StorageService::OnRestart() {
  // The store is durable across a crash; the claim bookkeeping is rebuilt
  // from it (ClaimReplica::Restart). The watermark resets to 0 and is
  // re-learned from the next advertisement — GC merely lags on a freshly
  // restarted node.
  claims_.Restart(Now());
  gc_watermark_ = 0;
  // Per-participant marks are transient too; re-learned from advertisements
  // and the replica-push piggyback table.
  participant_marks_.clear();
  digests_ = {};
  // Any background sweep died with the node (its slice tasks were dropped as
  // node tasks); reset the cursor so the next advertisement starts fresh.
  ResetGcSweep(/*active=*/false);
}

}  // namespace orchestra::storage
