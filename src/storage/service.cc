#include "storage/service.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "common/log.h"

namespace orchestra::storage {

namespace {
// Background GC pacing. A slice examines (scans plus deletes) at most
// kGcSliceRecords records before yielding the node's simulated CPU back to
// the request path; kGcSliceIntervalUs separates slices, and the leading
// delay is what coalesces a burst of advertisements into a single sweep.
constexpr uint64_t kGcSliceRecords = 2048;
constexpr sim::SimTime kGcSliceIntervalUs = 20 * sim::kMicrosPerMilli;
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
      store_(store_options) {
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

Result<Page> StorageService::ReadPageLocal(const PageId& id) const {
  ORC_ASSIGN_OR_RETURN(std::string bytes,
                       store_.Get(keys::PageRec(id.relation, id.epoch, id.partition)));
  Reader r(bytes);
  Page page;
  ORC_RETURN_IF_ERROR(Page::DecodeFrom(&r, &page));
  return page;
}

Result<PageId> StorageService::ReadInverseLocal(const std::string& rel,
                                                uint32_t partition) const {
  ORC_ASSIGN_OR_RETURN(std::string bytes, store_.Get(keys::Inverse(rel, partition)));
  Reader r(bytes);
  PageId id;
  ORC_RETURN_IF_ERROR(PageId::DecodeFrom(&r, &id));
  return id;
}

Result<std::string_view> StorageService::ReadTupleBytesLocal(
    std::string_view rel, const TupleId& id) const {
  const RelationDef* def = FindRelation(rel);
  if (def == nullptr) return Status::NotFound("no relation " + std::string(rel));
  HashId h = PlacementHash(*def, id.key_bytes);
  return store_.GetView(keys::Data(rel, h, id.key_bytes, id.epoch));
}

Result<std::string_view> StorageService::ReadTupleBytesRaw(
    std::string_view rel, std::string_view hash_be20, std::string_view key_bytes,
    Epoch epoch) const {
  return store_.GetView(keys::DataRaw(rel, hash_be20, key_bytes, epoch));
}

Status StorageService::ScanPageLocal(
    const std::string& rel, const Page& page, const KeyFilter& filter,
    const std::function<void(const TupleId&, Tuple)>& yield,
    std::vector<TupleId>* missing) {
  // Build the membership set: localstore data key -> index into page.ids.
  // Placement hashes ride in the page itself — no SHA-1 here. Transparent
  // hashing lets the scan below probe with key views, no per-record string.
  struct SvHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, size_t, SvHash, std::equal_to<>> wanted;
  wanted.reserve(page.ids.size());
  for (size_t i = 0; i < page.ids.size(); ++i) {
    const TupleId& id = page.ids[i];
    if (!filter.Matches(id.key_bytes)) continue;
    wanted.emplace(keys::Data(rel, page.hashes[i], id.key_bytes, id.epoch), i);
  }
  ChargeCpu(host_->network()->costs().index_entry_us *
            static_cast<double>(page.ids.size()));

  // Single ordered pass through the page's hash range (§V-B).
  std::string start = keys::DataHashFloor(rel, page.desc.range_begin());
  std::string prefix = keys::DataPrefix(rel);
  HashId end = page.desc.range_end();
  bool wraps = end == HashId::Zero();
  std::string end_key = wraps ? std::string() : keys::DataHashFloor(rel, end);

  std::vector<bool> found(page.ids.size(), false);
  size_t scanned = 0;
  for (auto it = store_.Seek(start); localstore::LocalStore::WithinPrefix(it, prefix);
       it.Next()) {
    if (!wraps && std::string_view(it.key()) >= end_key) break;
    ++scanned;
    auto w = wanted.find(it.key());
    if (w == wanted.end()) continue;  // other version / other epoch
    Reader r(it.value());
    Tuple t;
    ORC_RETURN_IF_ERROR(DecodeTuple(&r, &t));
    found[w->second] = true;
    yield(page.ids[w->second], std::move(t));
  }
  ChargeCpu(host_->network()->costs().tuple_scan_us * static_cast<double>(scanned));

  if (missing != nullptr) {
    for (size_t i = 0; i < page.ids.size(); ++i) {
      if (!found[i] && filter.Matches(page.ids[i].key_bytes)) {
        missing->push_back(page.ids[i]);
      }
    }
  }
  return Status::OK();
}

// --------------------------------------------------------------------------
// RPC plumbing

void StorageService::Call(net::NodeId to, uint16_t code, std::string body,
                          RpcCallback cb, sim::SimTime timeout_us) {
  rpc_.Call(to, code, std::move(body), std::move(cb), timeout_us);
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

void StorageService::RespondStored(net::NodeId to, uint64_t req_id,
                                   const std::string& key) {
  auto bytes = store_.Get(key);
  if (!bytes.ok()) {
    Respond(to, req_id, bytes.status(), {});
  } else {
    Respond(to, req_id, Status::OK(), std::move(bytes).value());
  }
}

Result<EpochClaimRecord> StorageService::LoadClaim(Epoch epoch) const {
  ORC_ASSIGN_OR_RETURN(std::string_view bytes,
                       store_.GetView(keys::EpochClaim(epoch)));
  Reader r(bytes);
  EpochClaimRecord rec;
  ORC_RETURN_IF_ERROR(EpochClaimRecord::DecodeFrom(&r, &rec));
  return rec;
}

void StorageService::PutClaim(Epoch epoch, const EpochClaimRecord& rec) {
  Writer w;
  rec.EncodeTo(&w);
  store_.Put(keys::EpochClaim(epoch), w.data()).ok();
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
  if (code == kFetchTuples) {
    HandleFetchTuples(from, &r);
    return;
  }
  if (code == kTupleData) {
    HandleTupleData(from, &r);
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
  if (code == kPurgeEpoch) {
    // One-way fence propagation from a successful fence round: record the
    // burn and purge local orphans. Safe against races by construction —
    // MergeFencedEpoch refuses to touch a committed epoch.
    EpochInstance burn;
    if (!EpochInstance::DecodeFrom(&r, &burn).ok()) return;
    MergeFencedEpoch(burn.epoch, burn.participant, burn.nonce);
    return;
  }
  if (code == kReleaseEpoch) {
    // One-way claim cleanup from a failed publish: delete the claim only if
    // it is still the EXACT instance the releaser stored — matched by
    // (participant, nonce). A successor claimant's slot is not ours to
    // clear, and neither is a NEWER attempt of the same participant (a
    // delayed release from a dead attempt must not unpin the epoch its
    // retry re-claimed and is writing at).
    EpochInstance rel;
    if (!EpochInstance::DecodeFrom(&r, &rel).ok()) return;
    auto stored = LoadClaim(rel.epoch);
    if (stored.ok() && stored->participant == rel.participant &&
        stored->nonce == rel.nonce && !stored->committed && !stored->fenced) {
      // A fenced marker is NOT the releaser's to clear either: the burn must
      // survive so the epoch stays dead for everyone.
      store_.Delete(keys::EpochClaim(rel.epoch)).ok();
      claim_touch_.erase(rel.epoch);
    }
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
      if (!RelationDef::DecodeFrom(r, &def).ok()) {
        Respond(from, req_id, Status::Corruption("bad catalog entry"), {});
        return;
      }
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
      if (!r->GetVarint64(&nrels).ok()) return;
      counters_.puttuples_frames += 1;
      uint64_t total = 0;
      uint64_t fenced_refused = 0;
      for (uint64_t ri = 0; ri < nrels; ++ri) {
        std::string_view rel;
        uint64_t n;
        if (!r->GetStringView(&rel).ok() || !r->GetVarint64(&n).ok()) return;
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
        counters_.fenced_writes_refused += fenced_refused;
        Respond(from, req_id,
                Status::Fenced("tuple writes at a fenced epoch refused"), {});
        return;
      }
      Respond(from, req_id, Status::OK(), {});
      return;
    }
    case kPutPage: {
      // The body after the request id IS the stored record: validate with a
      // full decode, then store the raw wire bytes — no re-encode.
      std::string_view page_bytes = r->RemainingView();
      Page page;
      if (!Page::DecodeFrom(r, &page).ok() || !r->AtEnd()) {
        Respond(from, req_id, Status::Corruption("bad page"), {});
        return;
      }
      const PageId& id = page.desc.id;
      if (IsEpochFenced(id.epoch)) {
        counters_.fenced_writes_refused += 1;
        Respond(from, req_id,
                Status::Fenced("page write at fenced epoch " +
                               std::to_string(id.epoch)),
                {});
        return;
      }
      store_.Put(keys::PageRec(id.relation, id.epoch, id.partition), page_bytes)
          .ok();
      counters_.pages_stored += 1;
      ChargeCpu(costs.index_entry_us * static_cast<double>(page.ids.size()));
      // Inverse node bookkeeping: latest page for this partition (§IV).
      auto cur = ReadInverseLocal(id.relation, id.partition);
      if (!cur.ok() || cur.value().epoch <= id.epoch) {
        Writer iw;
        id.EncodeTo(&iw);
        store_.Put(keys::Inverse(id.relation, id.partition), iw.data()).ok();
      }
      Respond(from, req_id, Status::OK(), {});
      return;
    }
    case kPutCoordinator: {
      // As with kPutPage: validate with a full decode, store the wire bytes.
      std::string_view rec_bytes = r->RemainingView();
      CoordinatorRecord rec;
      if (!CoordinatorRecord::DecodeFrom(r, &rec).ok() || !r->AtEnd()) {
        Respond(from, req_id, Status::Corruption("bad coordinator record"), {});
        return;
      }
      // Zombie commit refusal: a fenced epoch's coordinator chain is burned
      // and purged; no participant may rebuild it.
      if (IsEpochFenced(rec.epoch)) {
        counters_.fenced_writes_refused += 1;
        Respond(from, req_id,
                Status::Fenced("coordinator write at fenced epoch " +
                               std::to_string(rec.epoch)),
                {});
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
      counters_.coordinators_stored += 1;
      // Deliberately does NOT advance max_epoch_seen_: a torn publish leaves
      // partial records, and discovery basing on them would absorb
      // uncommitted updates. Only kConfirmEpoch advances the frontier.
      Respond(from, req_id, Status::OK(), {});
      return;
    }
    case kClaimEpoch:
      HandleClaimEpoch(from, r, req_id);
      return;
    case kFenceEpoch:
      HandleFenceEpoch(from, r, req_id);
      return;
    case kConfirmEpoch: {
      // The epoch's coordinator records are all written: mark the claim
      // committed so discovery (kGetMaxEpoch) can report the epoch. Stored
      // even if the claim is missing here — after membership churn the new
      // claim replicas must still learn the confirmed frontier.
      ClaimRequest req;
      if (!ClaimRequest::DecodeFrom(r, &req).ok()) {
        Respond(from, req_id, Status::Corruption("bad epoch confirm"), {});
        return;
      }
      const Epoch epoch = req.epoch;
      // A fence that completed first wins: the epoch is burned and its
      // orphans purged, so flipping it committed now would report an epoch
      // whose data is gone. The publisher's ticket fails with kFenced and
      // the batch republishes at a fresh epoch.
      if (IsEpochFenced(epoch)) {
        counters_.fenced_writes_refused += 1;
        Respond(from, req_id,
                Status::Fenced("confirm at fenced epoch " +
                               std::to_string(epoch)),
                {});
        return;
      }
      // A burn PROMISE (fence granted here, unanimity unknown) also refuses
      // the confirm — that refusal is what makes unanimity meaningful — but
      // as a RETRYABLE error, not kFenced: the publisher keeps its epoch
      // pinned and resolves the partial burn on retry (self-fence to
      // unanimity, or recommit once a committed record heals this replica).
      auto stored = LoadClaim(epoch);
      if (stored.ok() && stored->fenced) {
        counters_.fenced_writes_refused += 1;
        Respond(from, req_id,
                Status::Unavailable("confirm at burn-promised epoch " +
                                    std::to_string(epoch)),
                {});
        return;
      }
      PutClaim(epoch, EpochClaimRecord{req.claimant.participant,
                                       req.claimant.node, /*committed=*/true,
                                       req.claimant.nonce});
      max_epoch_seen_ = std::max(max_epoch_seen_, epoch);
      claim_touch_[epoch] = host_->network()->simulator()->now();
      Respond(from, req_id, Status::OK(), {});
      return;
    }
    case kGetEpochClaim: {
      uint64_t epoch;
      if (!r->GetVarint64(&epoch).ok()) return;
      RespondStored(from, req_id, keys::EpochClaim(epoch));
      return;
    }
    case kGetMaxEpoch: {
      Writer w;
      w.PutVarint64(max_epoch_seen_);
      Respond(from, req_id, Status::OK(), w.Release());
      return;
    }
    case kGetCoordinator: {
      std::string rel;
      uint64_t epoch;
      if (!r->GetString(&rel).ok() || !r->GetVarint64(&epoch).ok()) return;
      RespondStored(from, req_id, keys::Coord(rel, epoch));
      return;
    }
    case kGetPage: {
      PageId id;
      if (!PageId::DecodeFrom(r, &id).ok()) return;
      RespondStored(from, req_id,
                    keys::PageRec(id.relation, id.epoch, id.partition));
      return;
    }
    case kGetInverse: {
      std::string rel;
      uint32_t partition;
      if (!r->GetString(&rel).ok() || !r->GetVarint32(&partition).ok()) return;
      RespondStored(from, req_id, keys::Inverse(rel, partition));
      return;
    }
    case kGetTuple: {
      // The stored bytes are already the encoded tuple: respond with them
      // directly instead of decode + re-encode.
      std::string_view rel;
      TupleId id;
      if (!r->GetStringView(&rel).ok() || !TupleId::DecodeFrom(r, &id).ok()) return;
      auto bytes = ReadTupleBytesLocal(rel, id);
      ChargeCpu(costs.tuple_scan_us);
      // Empty stored bytes are a delete tombstone, never a servable tuple.
      if (bytes.ok() && bytes.value().empty()) {
        Respond(from, req_id, Status::NotFound("tuple deleted"), {});
      } else if (!bytes.ok()) {
        Respond(from, req_id, bytes.status(), {});
      } else {
        Respond(from, req_id, Status::OK(), std::string(bytes.value()));
      }
      return;
    }
    case kReplicaPush: {
      // Leads with the pusher's participant-watermark table so a restarted
      // node re-learns every participant's mark (not just a scalar) from
      // re-replication; the effective watermark is recomputed as the min.
      uint64_t mark_count, n;
      if (!r->GetVarint64(&mark_count).ok()) return;
      std::vector<std::pair<ParticipantId, Epoch>> pushed_marks;
      pushed_marks.reserve(mark_count);
      for (uint64_t i = 0; i < mark_count; ++i) {
        uint32_t p;
        uint64_t m;
        if (!r->GetVarint32(&p).ok() || !r->GetVarint64(&m).ok()) return;
        pushed_marks.emplace_back(p, m);
      }
      // Piggybacked fenced-epoch table: merged BEFORE the records below so a
      // push can never resurrect orphans at epochs its own sender knows are
      // burned (and so a restarted receiver whose fenced claim records were
      // GC'd below the watermark still re-learns the burns).
      uint64_t fence_count;
      if (!r->GetVarint64(&fence_count).ok()) return;
      for (uint64_t i = 0; i < fence_count; ++i) {
        EpochInstance burn;
        if (!EpochInstance::DecodeFrom(r, &burn).ok()) return;
        MergeFencedEpoch(burn.epoch, burn.participant, burn.nonce);
      }
      if (!r->GetVarint64(&n).ok()) return;
      for (uint64_t i = 0; i < n; ++i) {
        std::string_view key, value;
        if (!r->GetStringView(&key).ok() || !r->GetStringView(&value).ok()) return;
        if (keys::Tag(key) == keys::kClaimTag) {
          // Epoch claims merge by strength: committed > purged burn > burn
          // promise > uncommitted claim > absent. A CONFIRMED claim replaces
          // anything unconfirmed (the commit is a fact — including a burn
          // promise from a fence round the commit's confirm refused
          // elsewhere). A PURGED burn carries purge authority and merges via
          // the phase-two path; a bare burn promise only installs the
          // marker — it must never purge, its fence round may have failed. A
          // plain claim fills an empty slot with a conservatively-fresh
          // clock (a pushed claim's owner gets a TTL of grace before a fence
          // can use this replica's vote). A slot whose bytes do not decode is
          // left alone by a plain claim: only an empty slot is filled.
          Reader vr(value);
          EpochClaimRecord pushed;
          Epoch ce = 0;
          if (!keys::ParseClaim(key, &ce) ||
              !EpochClaimRecord::DecodeFrom(&vr, &pushed).ok()) {
            continue;
          }
          auto mine = LoadClaim(ce);
          if (pushed.committed) {
            if (!mine.ok() || !mine->committed) store_.Put(key, value).ok();
            max_epoch_seen_ = std::max(max_epoch_seen_, ce);
            claim_touch_.erase(ce);
          } else if (pushed.fenced && pushed.purged) {
            if (!mine.ok() || !mine->committed) {
              MergeFencedEpoch(ce, pushed.participant, pushed.nonce);
            }
          } else if (pushed.fenced) {
            if (!mine.ok() || (!mine->committed && !mine->fenced)) {
              store_.Put(key, value).ok();
              claim_touch_.erase(ce);
            }
          } else if (mine.status().IsNotFound() && !IsEpochFenced(ce)) {
            store_.Put(key, value).ok();
            claim_touch_[ce] = host_->network()->simulator()->now();
          }
          continue;
        }
        if (keys::Tag(key) == keys::kCoordTag) {
          // Coordinator records replicate store-if-absent like everything
          // else, EXCEPT when replicas disagree about a (rel, epoch)'s
          // writer — possible only after the commit-gate backstop fired
          // under a claim-replica wipeout. Store-if-absent would then
          // freeze the disagreement forever (neither writer's pushes could
          // ever overwrite the other's replicas); merging toward the
          // smaller participant makes every replica CONVERGE to one
          // deterministic writer per epoch instead.
          if (!fenced_epochs_.empty()) {
            keys::ParsedCoordKey ck;
            if (keys::ParseCoord(key, &ck) && IsEpochFenced(ck.epoch)) {
              continue;  // burned epoch: never rebuild its coordinator chain
            }
          }
          auto curv = store_.Get(key);
          if (!curv.ok()) {
            store_.Put(key, value).ok();
          } else {
            Reader pr(value);
            Reader cr(curv.value());
            CoordinatorRecord pushed, mine;
            if (CoordinatorRecord::DecodeFrom(&pr, &pushed).ok() &&
                CoordinatorRecord::DecodeFrom(&cr, &mine).ok() &&
                pushed.participant != 0 && mine.participant != 0 &&
                pushed.participant < mine.participant) {
              store_.Put(key, value).ok();
            }
          }
          continue;
        }
        // Fence filter on store-if-absent: a stale pusher that missed a
        // fence must not resurrect the purged orphans here.
        if (!fenced_epochs_.empty()) {
          Epoch ve = 0;
          bool versioned = false;
          if (keys::Tag(key) == keys::kDataTag) {
            keys::ParsedDataKey dk;
            versioned = keys::ParseData(key, &dk);
            if (versioned) ve = dk.epoch;
          } else if (keys::Tag(key) == keys::kPageTag) {
            keys::ParsedPageKey pk;
            versioned = keys::ParsePageRec(key, &pk);
            if (versioned) ve = pk.epoch;
          }
          if (versioned && IsEpochFenced(ve)) continue;
        }
        if (!store_.Contains(key)) store_.Put(key, value).ok();
        if (keys::Tag(key) == keys::kCatalogTag) {
          Reader cr(value);
          RelationDef def;
          if (RelationDef::DecodeFrom(&cr, &def).ok()) catalog_[def.name] = def;
        }
      }
      ChargeCpu(costs.tuple_write_us * static_cast<double>(n));
      // Piggybacked GC watermarks: a freshly restarted node (its table
      // resets empty) learns every participant's mark from the first replica
      // push instead of waiting for the next advertisements. Conversely, a
      // push from a node that lags OUR watermark may have resurrected
      // already-retired records. Marks are merged WITHOUT per-mark
      // retirement and the sweep runs ONCE at the end — a push used to run
      // a full-store sweep per mark plus one more.
      for (const auto& [p, m] : pushed_marks) MergeParticipantMark(p, m);
      Epoch effective = EffectiveParticipantWatermark();
      if (effective > gc_watermark_) gc_watermark_ = effective;
      if (n > 0 && gc_watermark_ > 0) ScheduleGcSweep();
      Respond(from, req_id, Status::OK(), {});
      return;
    }
    case kScanPage:
      HandleScanPage(from, r, req_id);
      return;
    default:
      Respond(from, req_id, Status::NotSupported("unknown storage code"), {});
  }
}

void StorageService::HandleClaimEpoch(net::NodeId from, Reader* r,
                                      uint64_t req_id) {
  // The pre-write serialization point of multi-writer publishing. Body:
  // epoch, participant, claimant node, attempt nonce. Grant rules, in order:
  //   * empty slot                        -> store, grant;
  //   * stored participant == requester   -> grant (idempotent retry; node
  //                                          and nonce refresh to the newest
  //                                          attempt's);
  //   * otherwise                         -> kEpochTaken, body names the
  //                                          stored winner instance.
  // There is deliberately NO takeover rule — not for "split" claims and not
  // for claims whose holder node died. Any takeover breaks under membership
  // churn (a kill reshuffles the claim replica set, so a takeover can seize
  // an epoch whose holder held a full claim on the previous set and already
  // wrote at it). A wedged epoch is unwedged only by its own participant's
  // same-batch retry (idempotent re-grant) or its instance-exact release;
  // split races resolve through the publishers' per-participant stall
  // phases (see Publisher::LoseEpoch).
  ClaimRequest req;
  if (!ClaimRequest::DecodeFrom(r, &req).ok()) {
    Respond(from, req_id, Status::Corruption("bad epoch claim"), {});
    return;
  }
  const Epoch epoch = req.epoch;
  const ClaimInstance& claimant = req.claimant;
  ChargeCpu(host_->network()->costs().tuple_scan_us);
  // `committed` is flipped by kConfirmEpoch once the epoch's coordinator
  // records are all written; an idempotent re-grant preserves it (a
  // publisher retrying a publish that failed after its commit round must
  // not un-commit the epoch).
  auto grant = [&](bool committed, uint64_t stored_nonce) {
    PutClaim(epoch, EpochClaimRecord{claimant.participant, claimant.node,
                                     committed, stored_nonce});
    counters_.claims_granted += 1;
    // The freshness clock a fence races against: every grant (including the
    // owner's periodic refresh re-grants) resets the staleness TTL.
    claim_touch_[epoch] = host_->network()->simulator()->now();
    Respond(from, req_id, Status::OK(), {});
  };
  auto refuse = [&](Status st, const ClaimInstance& holder) {
    counters_.claims_refused += 1;
    Writer wb;
    holder.EncodeTo(&wb);
    Respond(from, req_id, std::move(st), wb.Release());
  };
  // Unanimity-table backstop: a burned epoch stays refused even after its
  // claim record was GC'd below the watermark (the in-memory burned set
  // outlives the record; pushes and kPurgeEpoch keep re-seeding it).
  if (auto burned = fenced_epochs_.find(epoch); burned != fenced_epochs_.end()) {
    refuse(Status::Fenced("epoch " + std::to_string(epoch) +
                          " burned by abandonment fencing"),
           ClaimInstance{burned->second.participant, 0, burned->second.nonce});
    return;
  }
  auto loaded = LoadClaim(epoch);
  if (!loaded.ok()) {
    grant(false, claimant.nonce);  // empty or malformed slot
    return;
  }
  const EpochClaimRecord& stored = *loaded;
  if (stored.fenced && stored.purged) {
    // Authoritative burn (the fence reached unanimity): refused for
    // EVERYONE, owner included (a zombie resurrecting its fenced epoch is
    // exactly what the burn prevents). Contenders skip past it.
    refuse(Status::Fenced("epoch " + std::to_string(epoch) +
                          " burned by abandonment fencing"),
           stored.instance());
    return;
  }
  if (stored.fenced) {
    // Bare burn promise (a fence round touched this replica; unanimity
    // unknown — the epoch may yet commit through a heal, or harden to a
    // purged burn). Refuse like an ordinary taken slot so the requester
    // waits and resolves it through the probe/fence machinery instead of
    // skipping an epoch that might still commit. Deliberately NO owner
    // re-grant here: silently clearing the promise would reopen the
    // confirm-vs-fence race the promise exists to close — the owner
    // retires its own instance with a self-fence instead.
    refuse(Status::EpochTaken("epoch " + std::to_string(epoch) +
                              " burn-promised under participant " +
                              std::to_string(stored.participant)),
           stored.instance());
    return;
  }
  if (stored.participant == claimant.participant) {
    // Idempotent re-grant. The stored nonce only moves FORWARD (attempt
    // nonces are monotonic per publisher): a DELAYED claim from an old
    // attempt must not roll the instance back, or the old attempt's equally
    // delayed release could match again and unpin the epoch the newest
    // attempt is writing at.
    grant(stored.committed, std::max(stored.nonce, claimant.nonce));
    return;
  }
  refuse(Status::EpochTaken("epoch " + std::to_string(epoch) +
                            " claimed by participant " +
                            std::to_string(stored.participant)),
         stored.instance());
}

void StorageService::HandleFenceEpoch(net::NodeId from, Reader* r,
                                      uint64_t req_id) {
  // Abandonment fencing (see kFenceEpoch in service.h). Decision order:
  //   1. already fenced            -> idempotent grant (another fencer won a
  //                                   race, or this is a retry);
  //   2. behind confirmed frontier -> refuse (a vacuous grant after
  //                                   membership churn could burn an epoch
  //                                   that committed elsewhere);
  //   3. stored claim committed    -> refuse (a commit is a fact; purging
  //                                   under it would lose visible data);
  //   4. slot changed hands        -> refuse (the fencer's staleness
  //                                   evidence is about a different owner);
  //   5. owner still fresh         -> refuse (a live-but-slow owner's claim
  //                                   refreshes win the race against fences)
  //                                   — waived when the owner fences ITSELF
  //                                   (retiring its own doomed instance);
  //   6. otherwise                 -> burn the epoch: store the fenced
  //                                   marker (refusing all future claims and
  //                                   confirms here).
  // A missing/malformed slot past the frontier grants vacuously — the burn
  // marker is what keeps a zombie's late re-claim out.
  //
  // The grant deliberately does NOT purge data: this round may still be
  // refused at another replica (owner fresh there, or its confirm landed
  // first), and a purge under an epoch that can still be observed committed
  // would delete visible data. Purging happens only in phase two — the
  // fencer's kPurgeEpoch broadcast after EVERY replica granted, which proves
  // no confirm round can ever complete at this epoch.
  uint64_t epoch, ttl_us;
  uint32_t fencer, fenced_participant;
  if (!r->GetVarint64(&epoch).ok() || !r->GetVarint32(&fencer).ok() ||
      !r->GetVarint32(&fenced_participant).ok() ||
      !r->GetVarint64(&ttl_us).ok()) {
    Respond(from, req_id, Status::Corruption("bad fence request"), {});
    return;
  }
  ChargeCpu(host_->network()->costs().tuple_scan_us);
  auto loaded = LoadClaim(epoch);
  const bool have = loaded.ok();
  const EpochClaimRecord stored = loaded.ValueOr({});
  auto grant = [&](const EpochClaimRecord& inst) {
    counters_.fences_granted += 1;
    Writer wb;
    inst.instance().EncodeTo(&wb);
    Respond(from, req_id, Status::OK(), wb.Release());
  };
  if (have && stored.fenced) {
    grant(stored);
    return;
  }
  auto refuse = [&](Status st) {
    counters_.fences_refused += 1;
    Respond(from, req_id, st, {});
  };
  if (epoch <= max_epoch_seen_) {
    refuse(Status::EpochTaken("fence refused: epoch " + std::to_string(epoch) +
                              " is at or behind the confirmed frontier"));
    return;
  }
  if (have && stored.committed) {
    refuse(Status::EpochTaken("fence refused: epoch " + std::to_string(epoch) +
                              " committed by participant " +
                              std::to_string(stored.participant)));
    return;
  }
  if (have && stored.participant != fenced_participant) {
    refuse(Status::EpochTaken(
        "fence refused: epoch " + std::to_string(epoch) + " now held by " +
        std::to_string(stored.participant) + ", not " +
        std::to_string(fenced_participant)));
    return;
  }
  // A self-fence (the owner retiring its own instance — it discovered a
  // partial burn it can neither commit through nor safely abandon) waives
  // the freshness check: the clock protects the owner, and the owner is the
  // requester.
  if (have && fencer != fenced_participant) {
    auto touch = claim_touch_.find(epoch);
    sim::SimTime now = host_->network()->simulator()->now();
    if (touch == claim_touch_.end()) {
      // Unknown freshness: this replica gained the claim without a grant
      // (replica push, rebalance). Seed the clock and refuse once — the
      // owner, if live, gets one TTL of grace to heartbeat it; a truly
      // abandoned claim is fenceable one TTL later.
      claim_touch_[epoch] = now;
      refuse(Status::Unavailable("fence refused: claim owner of epoch " +
                                 std::to_string(epoch) +
                                 " has unknown freshness; seeded"));
      return;
    }
    if (now - touch->second < static_cast<sim::SimTime>(ttl_us)) {
      refuse(Status::Unavailable("fence refused: claim owner of epoch " +
                                 std::to_string(epoch) + " is still fresh"));
      return;
    }
  }
  EpochClaimRecord burned;
  if (have) {
    burned = stored;
  } else {
    burned.participant = fenced_participant;
  }
  burned.committed = false;
  burned.fenced = true;
  PutClaim(epoch, burned);
  claim_touch_.erase(epoch);
  grant(burned);
}

void StorageService::MergeFencedEpoch(Epoch epoch, ParticipantId participant,
                                      uint64_t nonce) {
  auto loaded = LoadClaim(epoch);
  const bool have = loaded.ok();
  const EpochClaimRecord stored = loaded.ValueOr({});
  // A commit is a fact a fence never overrides: if this replica learned the
  // epoch committed (the fence round and a confirm round can interleave at
  // DIFFERENT replicas; both then fail their callers), keep the commit.
  if (have && stored.committed) return;
  if (IsEpochFenced(epoch)) return;
  fenced_epochs_[epoch] = FencedInstance{participant, nonce};
  claim_touch_.erase(epoch);
  // Persist the burn WITH purge authority (`purged`) so a restart re-learns
  // both facts and replica pushes propagate them (the marker replicates like
  // any claim record). Purge authority is what distinguishes this phase-two
  // entry point from a fence grant's burn promise: callers reach here only
  // downstream of a unanimously granted fence round.
  EpochClaimRecord burned;
  if (have) {
    burned = stored;
  } else {
    burned.participant = participant;
    burned.nonce = nonce;
  }
  burned.committed = false;
  burned.fenced = true;
  burned.purged = true;
  PutClaim(epoch, burned);
  PurgeEpochLocal(epoch);
}

void StorageService::PurgeEpochLocal(Epoch epoch) {
  // The orphan purge behind a fence: the burned epoch never committed (both
  // fence entry points refuse committed epochs), so every version stored at
  // it is unreachable garbage — and worse, a data version at the burned
  // epoch would SHADOW the committed version the coordinator chain
  // references once the GC watermark passes it. One ordered pass per family.
  std::vector<std::string> doomed;
  uint64_t scanned = 0;
  for (auto it = store_.SeekPrefix(keys::TagPrefix(keys::kDataTag)); it.Valid();
       it.Next()) {
    ++scanned;
    keys::ParsedDataKey dk;
    if (keys::ParseData(it.key(), &dk) && dk.epoch == epoch) {
      doomed.emplace_back(it.key());
    }
  }
  // Page purge also tracks, per purged partition, the newest SURVIVING page
  // version so inverse entries can be re-aimed below — discovery must never
  // see an inverse pointing at a purged page (torn state).
  struct PurgedPartition {
    std::string relation;
    uint32_t partition = 0;
    Epoch newest_surviving = 0;
    bool any_surviving = false;
  };
  std::vector<PurgedPartition> purged_parts;
  {
    std::string group;
    bool group_purged = false;
    PurgedPartition part;
    auto flush = [&] {
      if (group_purged) purged_parts.push_back(part);
      group_purged = false;
      part = PurgedPartition{};
    };
    for (auto it = store_.SeekPrefix(keys::TagPrefix(keys::kPageTag));
         it.Valid(); it.Next()) {
      ++scanned;
      keys::ParsedPageKey pk;
      if (!keys::ParsePageRec(it.key(), &pk)) continue;
      std::string_view g = keys::VersionGroupPrefix(it.key());
      if (g != group) {
        flush();
        group.assign(g);
      }
      if (pk.epoch == epoch) {
        doomed.emplace_back(it.key());
        group_purged = true;
        part.relation.assign(pk.relation);
        part.partition = pk.partition;
      } else {
        part.any_surviving = true;
        part.newest_surviving = std::max(part.newest_surviving, pk.epoch);
      }
    }
    flush();
  }
  for (auto it = store_.SeekPrefix(keys::TagPrefix(keys::kCoordTag));
       it.Valid(); it.Next()) {
    ++scanned;
    keys::ParsedCoordKey ck;
    if (keys::ParseCoord(it.key(), &ck) && ck.epoch == epoch) {
      doomed.emplace_back(it.key());
    }
  }
  for (const std::string& key : doomed) store_.Delete(key).ok();
  for (const PurgedPartition& pp : purged_parts) {
    auto inv = ReadInverseLocal(pp.relation, pp.partition);
    if (!inv.ok() || inv.value().epoch != epoch) continue;
    if (pp.any_surviving) {
      Writer iw;
      PageId{pp.relation, pp.newest_surviving, pp.partition}.EncodeTo(&iw);
      store_.Put(keys::Inverse(pp.relation, pp.partition), iw.data()).ok();
    } else {
      store_.Delete(keys::Inverse(pp.relation, pp.partition)).ok();
    }
  }
  counters_.purged_orphans += doomed.size();
  ChargeCpu(host_->network()->costs().tuple_scan_us *
            static_cast<double>(scanned + doomed.size()));
}

void StorageService::HandleScanPage(net::NodeId from, Reader* r, uint64_t req_id) {
  uint64_t scan_id;
  uint32_t requester;
  std::string rel;
  PageDescriptor desc;
  KeyFilter filter;
  if (!r->GetU64(&scan_id).ok() || !r->GetU32(&requester).ok() ||
      !r->GetString(&rel).ok() || !PageDescriptor::DecodeFrom(r, &desc).ok() ||
      !KeyFilter::DecodeFrom(r, &filter).ok()) {
    Respond(from, req_id, Status::Corruption("bad scan request"), {});
    return;
  }

  auto page = ReadPageLocal(desc.id);
  if (!page.ok()) {
    // This replica does not (yet) have the page; the caller retries another.
    Respond(from, req_id, page.status(), {});
    return;
  }
  counters_.scans_served += 1;
  ChargeCpu(host_->network()->costs().index_entry_us *
            static_cast<double>(page->ids.size()));

  // Group surviving tuple ids by their data storage node (Algorithm 1 line
  // 8), routing on the hashes carried in the page — no SHA-1 per id.
  if (FindRelation(rel) == nullptr) {
    Respond(from, req_id, Status::NotFound("no relation " + rel), {});
    return;
  }
  std::map<net::NodeId, std::vector<size_t>> by_owner;
  for (size_t i = 0; i < page->ids.size(); ++i) {
    if (!filter.Matches(page->ids[i].key_bytes)) continue;
    net::NodeId owner = board_->current.OwnerOf(page->hashes[i]);
    by_owner[owner].push_back(i);
  }

  uint64_t total_ids = 0;
  std::string hb;  // reused 20-byte scratch: no per-id allocation
  for (auto& [owner, idxs] : by_owner) {
    Writer w;
    w.PutU64(scan_id);
    w.PutU32(requester);
    w.PutString(rel);
    w.PutVarint64(idxs.size());
    for (size_t i : idxs) {
      // hash(20B BE) + TupleId: the data node splices these into its keys.
      hb.clear();
      page->hashes[i].AppendBigEndian(&hb);
      w.PutRaw(hb.data(), hb.size());
      page->ids[i].EncodeTo(&w);
    }
    total_ids += idxs.size();
    SendOneWay(owner, kFetchTuples, w.Release());
  }

  // Page summary back to the requester so it can count completion.
  Writer w;
  w.PutVarint64(by_owner.size());
  w.PutVarint64(total_ids);
  Respond(from, req_id, Status::OK(), w.Release());
}

void StorageService::HandleFetchTuples(net::NodeId /*from*/, Reader* r) {
  uint64_t scan_id;
  uint32_t requester;
  std::string rel;
  uint64_t n;
  if (!r->GetU64(&scan_id).ok() || !r->GetU32(&requester).ok() ||
      !r->GetString(&rel).ok() || !r->GetVarint64(&n).ok()) {
    return;
  }
  Writer out;
  out.PutU64(scan_id);
  Writer rows;
  Writer missing;
  uint64_t rows_n = 0, missing_n = 0;
  for (uint64_t i = 0; i < n; ++i) {
    std::string_view hash_be20, key_bytes;
    uint64_t epoch;
    if (!r->GetRawView(&hash_be20, 20).ok() ||
        !r->GetStringView(&key_bytes).ok() || !r->GetVarint64(&epoch).ok()) {
      return;
    }
    // The stored bytes ARE the encoded tuple: splice them into the reply
    // without decode/re-encode, keyed by the wire-carried hash (no SHA-1).
    // Empty bytes are a delete tombstone — report the id missing instead.
    auto bytes = ReadTupleBytesRaw(rel, hash_be20, key_bytes, epoch);
    if (bytes.ok() && !bytes.value().empty()) {
      rows.PutRaw(bytes.value().data(), bytes.value().size());
      ++rows_n;
    } else {
      TupleId{std::string(key_bytes), epoch}.EncodeTo(&missing);
      ++missing_n;
    }
  }
  counters_.tuples_served += rows_n;
  ChargeCpu(host_->network()->costs().tuple_scan_us * static_cast<double>(n));
  out.PutString(rel);
  out.PutVarint64(rows_n);
  out.PutRaw(rows.data().data(), rows.size());
  out.PutVarint64(missing_n);
  out.PutRaw(missing.data().data(), missing.size());
  // Direct to the requester, "bypassing the Index node and Relation
  // Coordinator" (Algorithm 1 line 9).
  SendOneWay(requester, kTupleData, out.Release());
}

void StorageService::HandleTupleData(net::NodeId /*from*/, Reader* r) {
  uint64_t scan_id;
  std::string rel;
  if (!r->GetU64(&scan_id).ok() || !r->GetString(&rel).ok()) return;
  auto it = scans_.find(scan_id);
  if (it == scans_.end()) return;  // scan already failed/finished
  ScanState& state = it->second;

  uint64_t rows_n;
  if (!r->GetVarint64(&rows_n).ok()) return;
  for (uint64_t i = 0; i < rows_n; ++i) {
    Tuple t;
    if (!DecodeTuple(r, &t).ok()) return;
    state.rows.push_back(std::move(t));
  }
  uint64_t missing_n;
  if (!r->GetVarint64(&missing_n).ok()) return;
  std::vector<TupleId> missing(missing_n);
  for (auto& id : missing) {
    if (!TupleId::DecodeFrom(r, &id).ok()) return;
  }
  state.data_parts_received += 1;
  for (const auto& id : missing) {
    state.lookups_outstanding += 1;
    RecoverMissingTuple(scan_id, id, 0);
  }
  ScanCheckDone(scan_id);
}

// --------------------------------------------------------------------------
// Retrieve (Algorithm 1)

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
                             std::function<void(Status, Page)> cb) {
  auto replicas = board_->current.ReplicasOf(desc.home(), replication_);
  Writer w;
  desc.id.EncodeTo(&w);

  rpc_.CallFirst(std::move(replicas), kGetPage, w.Release(),
                 [cb = std::move(cb)](Status st, const std::string& reply) {
                   if (!st.ok()) {
                     cb(Status::Unavailable("no replica has page"), {});
                     return;
                   }
                   Reader r(reply);
                   Page page;
                   Status ds = Page::DecodeFrom(&r, &page);
                   if (ds.ok()) {
                     cb(Status::OK(), std::move(page));
                   } else {
                     cb(ds, {});
                   }
                 });
}

void StorageService::Retrieve(const std::string& rel, Epoch epoch,
                              const KeyFilter& filter, RetrieveCallback cb) {
  uint64_t scan_id = next_scan_id_++;
  ScanState state;
  state.relation = rel;
  state.epoch = epoch;
  state.filter = filter;
  state.cb = std::move(cb);
  state.deadline_event = host_->network()->simulator()->ScheduleAfter(
      kScanDeadlineUs, [this, scan_id] {
        ScanFail(scan_id, Status::TimedOut("retrieve scan deadline"));
      });
  scans_.emplace(scan_id, std::move(state));

  GetCoordinator(rel, epoch, [this, scan_id](Status st, CoordinatorRecord rec) {
    auto it = scans_.find(scan_id);
    if (it == scans_.end()) return;
    if (!st.ok()) {
      ScanFail(scan_id, st);
      return;
    }
    it->second.pages_total = rec.pages.size();
    if (rec.pages.empty()) {
      ScanCheckDone(scan_id);
      return;
    }
    for (const PageDescriptor& desc : rec.pages) {
      StartPageScan(scan_id, desc, 0);
    }
  });
}

void StorageService::StartPageScan(uint64_t scan_id, const PageDescriptor& desc,
                                   size_t replica_idx) {
  auto it = scans_.find(scan_id);
  if (it == scans_.end()) return;
  ScanState& state = it->second;

  auto replicas = board_->current.ReplicasOf(desc.home(), replication_);
  if (replica_idx >= replicas.size()) {
    ScanFail(scan_id, Status::Unavailable("no replica can scan page " +
                                          desc.id.ToString()));
    return;
  }
  Writer w;
  w.PutU64(scan_id);
  w.PutU32(node());
  w.PutString(state.relation);
  desc.EncodeTo(&w);
  state.filter.EncodeTo(&w);

  Call(replicas[replica_idx], kScanPage, w.Release(),
       [this, scan_id, desc, replica_idx](Status st, const std::string& reply) {
         auto sit = scans_.find(scan_id);
         if (sit == scans_.end()) return;
         if (!st.ok()) {
           StartPageScan(scan_id, desc, replica_idx + 1);
           return;
         }
         Reader r(reply);
         uint64_t parts, ids;
         if (!r.GetVarint64(&parts).ok() || !r.GetVarint64(&ids).ok()) {
           ScanFail(scan_id, Status::Corruption("bad page summary"));
           return;
         }
         sit->second.summaries_received += 1;
         sit->second.data_parts_expected += parts;
         ScanCheckDone(scan_id);
       });
}

void StorageService::FetchTuple(const std::string& rel, const TupleId& id,
                                std::function<void(Status, Tuple)> cb) {
  auto def = Relation(rel);
  if (!def.ok()) {
    cb(def.status(), {});
    return;
  }
  auto replicas =
      board_->current.ReplicasOf(PlacementHash(*def, id.key_bytes), replication_);
  Writer w;
  w.PutString(rel);
  id.EncodeTo(&w);

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

void StorageService::RecoverMissingTuple(uint64_t scan_id, const TupleId& id,
                                         size_t replica_idx) {
  auto it = scans_.find(scan_id);
  if (it == scans_.end()) return;
  ScanState& state = it->second;

  auto def = Relation(state.relation);
  if (!def.ok()) {
    ScanFail(scan_id, def.status());
    return;
  }
  auto replicas = board_->current.ReplicasOf(PlacementHash(*def, id.key_bytes),
                                             replication_);
  if (replica_idx >= replicas.size()) {
    ScanFail(scan_id, Status::Unavailable("tuple lost from all replicas"));
    return;
  }
  Writer w;
  w.PutString(state.relation);
  id.EncodeTo(&w);
  Call(replicas[replica_idx], kGetTuple, w.Release(),
       [this, scan_id, id, replica_idx](Status st, const std::string& reply) {
         auto sit = scans_.find(scan_id);
         if (sit == scans_.end()) return;
         if (!st.ok()) {
           RecoverMissingTuple(scan_id, id, replica_idx + 1);
           return;
         }
         Reader r(reply);
         Tuple t;
         if (!DecodeTuple(&r, &t).ok()) {
           ScanFail(scan_id, Status::Corruption("bad tuple reply"));
           return;
         }
         sit->second.rows.push_back(std::move(t));
         sit->second.lookups_outstanding -= 1;
         ScanCheckDone(scan_id);
       });
}

void StorageService::ScanCheckDone(uint64_t scan_id) {
  auto it = scans_.find(scan_id);
  if (it == scans_.end()) return;
  ScanState& state = it->second;
  if (state.failed) return;
  if (state.summaries_received < state.pages_total) return;
  if (state.data_parts_received < state.data_parts_expected) return;
  if (state.lookups_outstanding > 0) return;
  RetrieveCallback cb = std::move(state.cb);
  std::vector<Tuple> rows = std::move(state.rows);
  host_->network()->simulator()->Cancel(state.deadline_event);
  scans_.erase(it);
  cb(Status::OK(), std::move(rows));
}

void StorageService::ScanFail(uint64_t scan_id, Status st) {
  auto it = scans_.find(scan_id);
  if (it == scans_.end()) return;
  RetrieveCallback cb = std::move(it->second.cb);
  host_->network()->simulator()->Cancel(it->second.deadline_event);
  scans_.erase(it);
  cb(st, {});
}

// --------------------------------------------------------------------------
// Background re-replication

void StorageService::RebalanceTo(const overlay::RoutingSnapshot& snap) {
  std::map<net::NodeId, Writer> batches;
  std::map<net::NodeId, uint64_t> batch_counts;

  auto add_to = [&](net::NodeId target, std::string_view key, std::string_view value) {
    if (target == node()) return;
    Writer& w = batches[target];
    w.PutString(key);
    w.PutString(value);
    batch_counts[target] += 1;
  };

  for (auto it = store_.Seek(""); it.Valid(); it.Next()) {
    std::string_view key = it.key();
    if (key.empty()) continue;
    std::vector<net::NodeId> targets;
    switch (keys::Tag(key)) {
      case keys::kDataTag: {
        keys::ParsedDataKey dk;
        if (!keys::ParseData(key, &dk)) continue;
        HashId h = HashId::FromBigEndianBytes(dk.hash_be20);
        targets = snap.ReplicasOf(h, replication_);
        break;
      }
      case keys::kPageTag: {
        keys::ParsedPageKey pk;
        if (!keys::ParsePageRec(key, &pk)) continue;
        auto def = catalog_.find(std::string(pk.relation));
        if (def == catalog_.end()) continue;
        targets = snap.ReplicasOf(
            PartitionHome(pk.partition, def->second.num_partitions), replication_);
        break;
      }
      case keys::kInverseTag: {
        keys::ParsedInverseKey ik;
        if (!keys::ParseInverse(key, &ik)) continue;
        auto def = catalog_.find(std::string(ik.relation));
        if (def == catalog_.end()) continue;
        targets = snap.ReplicasOf(
            PartitionHome(ik.partition, def->second.num_partitions), replication_);
        break;
      }
      case keys::kCoordTag: {
        keys::ParsedCoordKey ck;
        if (!keys::ParseCoord(key, &ck)) continue;
        targets = snap.ReplicasOf(CoordinatorHash(std::string(ck.relation), ck.epoch),
                                  replication_);
        break;
      }
      case keys::kClaimTag: {
        Epoch e;
        if (!keys::ParseClaim(key, &e)) continue;
        targets = snap.ReplicasOf(ClaimHash(e), replication_);
        break;
      }
      case keys::kCatalogTag: {
        for (const auto& m : snap.members()) targets.push_back(m.node);
        break;
      }
      default:
        continue;
    }
    for (net::NodeId t : targets) add_to(t, key, it.value());
  }

  for (auto& [target, w] : batches) {
    Writer out;
    // Piggybacked GC marks: the full participant table, so a restarted
    // receiver rebuilds the min-across-participants watermark, not a scalar.
    out.PutVarint64(participant_marks_.size());
    for (const auto& [p, pm] : participant_marks_) {
      out.PutVarint32(p);
      out.PutVarint64(pm.mark);
    }
    // Piggybacked fenced-epoch table: burns propagate even after the fenced
    // claim records themselves were retired below the GC watermark.
    out.PutVarint64(fenced_epochs_.size());
    for (const auto& [fe, inst] : fenced_epochs_) {
      EpochInstance{fe, inst.participant, inst.nonce}.EncodeTo(&out);
    }
    out.PutVarint64(batch_counts[target]);
    out.PutRaw(w.data().data(), w.size());
    Call(target, kReplicaPush, out.Release(), [](Status, const std::string&) {});
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
  gc_sweep_.resume = keys::TagPrefix(keys::kCoordTag);
  gc_sweep_.group.clear();
  gc_sweep_.best_key.clear();
  gc_sweep_.best_is_tombstone = false;
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
  static constexpr char kPhaseTags[4] = {keys::kCoordTag, keys::kClaimTag,
                                         keys::kPageTag, keys::kDataTag};
  // One ordered pass per record family. Coordinator records and epoch
  // claims below the watermark are unreachable (retrieval is supported at
  // [w, current]; no publisher can contend for a claim that far back).
  //
  // Page and data records share the layout <group-prefix><epoch:8B BE> and
  // sort by group then epoch, so the pass sees each group's versions
  // oldest-first. Within a group, every version at-or-below the watermark is
  // superseded by the next one at-or-below it; the newest such version is
  // what the kept coordinators still reference and survives. A data group's
  // survivor that is a delete tombstone (empty value) is retired too — it
  // exists only to kill older versions, which are gone once the pass runs.
  //
  // Correctness precondition: every version at-or-below the watermark was
  // referenced by some committed coordinator when written. Torn publishes
  // keep this locally checkable: coordinator records (the commit point) go
  // out only after every tuple/page write succeeded, and a failed publish
  // must be retried with the SAME batch (idempotent overwrite) before
  // publishing different data — an abandoned batch's orphan versions would
  // otherwise shadow the committed version the coordinators reference once
  // the watermark passes them.
  const Epoch w = gc_sweep_.watermark;
  std::vector<std::string> doomed;
  uint64_t scanned = 0;
  uint64_t n_coords = 0, n_pages = 0, n_data = 0, n_tombs = 0, n_claims = 0;

  // Reaps the tracked survivor if it is a trailing tombstone, then clears
  // the version-group carry.
  auto flush_group = [&] {
    if (gc_sweep_.best_is_tombstone && !gc_sweep_.best_key.empty()) {
      doomed.push_back(gc_sweep_.best_key);
      ++n_tombs;
    }
    gc_sweep_.best_key.clear();
    gc_sweep_.best_is_tombstone = false;
  };

  while (gc_sweep_.phase < 4 && scanned < budget) {
    const int phase = gc_sweep_.phase;
    const std::string prefix = keys::TagPrefix(kPhaseTags[phase]);
    bool exhausted = true;
    for (auto it = store_.Seek(gc_sweep_.resume);
         localstore::LocalStore::WithinPrefix(it, prefix); it.Next()) {
      if (scanned >= budget) {
        // Stop BEFORE consuming this record; the next slice re-seeks to it.
        // Records a push inserts behind the cursor are caught by the re-arm
        // sweep, exactly like ones behind a completed sweep.
        gc_sweep_.resume.assign(it.key());
        exhausted = false;
        break;
      }
      ++scanned;
      std::string_view key = it.key();
      switch (phase) {
        case 0: {
          keys::ParsedCoordKey ck;
          if (keys::ParseCoord(key, &ck) && ck.epoch < w) {
            doomed.emplace_back(key);
            ++n_coords;
          }
          break;
        }
        case 1: {
          Epoch e = 0;
          if (keys::ParseClaim(key, &e) && e < w) {
            doomed.emplace_back(key);
            ++n_claims;
            claim_touch_.erase(e);
          }
          break;
        }
        default: {
          Epoch epoch = 0;
          bool parsed = false;
          if (phase == 2) {
            keys::ParsedPageKey pk;
            parsed = keys::ParsePageRec(key, &pk);
            if (parsed) epoch = pk.epoch;
          } else {
            keys::ParsedDataKey dk;
            parsed = keys::ParseData(key, &dk);
            if (parsed) epoch = dk.epoch;
          }
          if (!parsed) break;  // malformed: leave it alone
          std::string_view group = keys::VersionGroupPrefix(key);
          if (group != gc_sweep_.group) {
            flush_group();
            gc_sweep_.group.assign(group);
          }
          if (epoch > w) break;
          // A version at a fenced epoch is NEVER a survivor: it is purged
          // garbage a stale push resurrected, and letting it win the
          // newest-at-or-below race would shadow the committed version the
          // coordinators reference. Doom it without updating the carry.
          if (IsEpochFenced(epoch)) {
            doomed.emplace_back(key);
            ++(phase == 2 ? n_pages : n_data);
            break;
          }
          if (!gc_sweep_.best_key.empty()) {
            doomed.push_back(gc_sweep_.best_key);
            if (gc_sweep_.best_is_tombstone) {
              ++n_tombs;
            } else {
              ++(phase == 2 ? n_pages : n_data);
            }
          }
          gc_sweep_.best_key.assign(key);
          // Only data-family tombstones (empty value) are reaped once
          // trailing; pages have no tombstone notion.
          gc_sweep_.best_is_tombstone = phase == 3 && it.value().empty();
          break;
        }
      }
    }
    if (!exhausted) break;
    if (phase >= 2) flush_group();
    gc_sweep_.phase += 1;
    gc_sweep_.group.clear();
    if (gc_sweep_.phase < 4) {
      gc_sweep_.resume = keys::TagPrefix(kPhaseTags[gc_sweep_.phase]);
    }
  }

  for (const std::string& key : doomed) store_.Delete(key).ok();
  ChargeCpu(host_->network()->costs().tuple_scan_us *
            static_cast<double>(scanned + doomed.size()));
  gc_.retired_coords += n_coords;
  gc_.retired_pages += n_pages;
  gc_.retired_data += n_data;
  gc_.retired_tombstones += n_tombs;
  gc_.retired_claims += n_claims;
  return gc_sweep_.phase >= 4;
}

void StorageService::OnRestart() {
  // The store is durable across a crash; the epoch high-mark is not. Rebuild
  // it from the surviving CONFIRMED epoch claims (coordinator records alone
  // may belong to torn publishes) so epoch discovery stays truthful. The
  // watermark resets to 0 and is re-learned from the next advertisement —
  // GC merely lags on a freshly restarted node.
  max_epoch_seen_ = 0;
  fenced_epochs_.clear();
  claim_touch_.clear();
  const sim::SimTime now = host_->network()->simulator()->now();
  for (auto it = store_.SeekPrefix(keys::TagPrefix(keys::kClaimTag));
       it.Valid(); it.Next()) {
    Epoch e;
    if (!keys::ParseClaim(it.key(), &e)) continue;
    Reader vr(it.value());
    EpochClaimRecord rec;
    if (!EpochClaimRecord::DecodeFrom(&vr, &rec).ok()) continue;
    if (rec.committed) {
      max_epoch_seen_ = std::max(max_epoch_seen_, e);
    } else if (rec.fenced) {
      // Burns are durable. Only PURGED burns re-enter the purge-authority
      // table — a bare burn promise (partial fence round) keeps refusing
      // claims/confirms through the record itself but must never purge.
      if (rec.purged) {
        fenced_epochs_[e] = FencedInstance{rec.participant, rec.nonce};
      }
    } else {
      // Conservative freshness seed: a replica restart must not make a LIVE
      // claim owner look stale — its next refresh re-arms the clock anyway.
      claim_touch_[e] = now;
    }
  }
  gc_watermark_ = 0;
  // Per-participant marks are transient too; re-learned from advertisements
  // and the replica-push piggyback table.
  participant_marks_.clear();
  // Any background sweep died with the node (its slice tasks were dropped as
  // node tasks); reset the cursor so the next advertisement starts fresh.
  ResetGcSweep(/*active=*/false);
}

}  // namespace orchestra::storage
