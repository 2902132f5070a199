#include "storage/publisher.h"

#include <algorithm>
#include <set>

#include "common/log.h"

namespace orchestra::storage {

namespace {

/// How a chained publish fails when its predecessor failed.
Status PrevFailed(const Status& prev_status) {
  return Status::Aborted("pipeline predecessor failed: " +
                         prev_status.ToString());
}

/// The unit of a claim loser's re-claim phases: a little over one network
/// hop, so a claim sent a unit after another reaches every claim replica
/// after it, even a replica the earlier claimant shares a node with.
constexpr sim::SimTime kPhaseUnitUs = 125;

/// The re-claim phase of a loser the claim replica woke with `rank` (its
/// place among the probes one change of the slot answered). Rank 0 claims
/// first; every later rank waits two units, so it finds the slot taken and
/// waits on that claim instead of splitting it. After an emptied slot each
/// claimant adds a phase of zero to seven units drawn from its participant
/// and its claim round: two claimants woken apart (a split, where each held
/// a fragment) then re-claim at distinct times, and a tie in one round is
/// unlikely to repeat in the next.
sim::SimTime ReclaimPhase(uint32_t rank, bool emptied, ParticipantId participant,
                          uint64_t nonce) {
  sim::SimTime phase = rank > 0 ? (emptied ? 8 : 2) * kPhaseUnitUs : 0;
  if (emptied) {
    uint64_t h = (static_cast<uint64_t>(participant) << 32) ^ nonce;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    phase += static_cast<sim::SimTime>((h ^ (h >> 31)) % 8) * kPhaseUnitUs;
  }
  return phase;
}

/// One key's write in a published batch, encoded once per publish: every
/// attempt stamps its own epoch on it.
struct KeyWrite {
  std::string key_bytes;
  HashId hash;
  std::string tuple_bytes;  // empty: a delete's tombstone
};

/// Encodes one relation's updates: key bytes, placement hash (the one SHA-1
/// of each tuple) and tuple bytes, in (hash, key) order with only the last
/// write of each key. The last update of a key in the batch wins, so
/// insert+delete of one key resolves to whichever came last, and each (key,
/// epoch) record is written once: a torn log then loses a record whole,
/// which the restart's digest exchange repairs, never half of a key's
/// writes. The stable sort keeps batch order within a key.
std::vector<KeyWrite> EncodeWrites(const RelationDef& def,
                                   const std::vector<Update>& updates) {
  std::vector<KeyWrite> writes;
  writes.reserve(updates.size());
  for (const Update& u : updates) {
    std::string kb = EncodeTupleKey(def.schema, u.tuple);
    HashId h = PlacementHash(def, kb);
    // A delete writes a tombstone: an empty-value data record at the new
    // epoch. No page ever lists it; it exists so data-node GC can tell
    // "this key was deleted at epoch e" apart from "version still live"
    // and reclaim the dead versions (then the tombstone itself).
    std::string bytes;
    if (u.kind != Update::Kind::kDelete) {
      Writer tw;
      EncodeTuple(u.tuple, &tw);
      bytes = tw.Release();
    }
    writes.push_back(KeyWrite{std::move(kb), h, std::move(bytes)});
  }
  std::stable_sort(writes.begin(), writes.end(),
                   [](const KeyWrite& a, const KeyWrite& b) {
                     return a.hash != b.hash ? a.hash < b.hash
                                             : a.key_bytes < b.key_bytes;
                   });
  std::vector<KeyWrite> last;
  last.reserve(writes.size());
  for (size_t j = 0; j < writes.size(); ++j) {
    if (j + 1 < writes.size() && writes[j + 1].hash == writes[j].hash &&
        writes[j + 1].key_bytes == writes[j].key_bytes) {
      continue;
    }
    last.push_back(std::move(writes[j]));
  }
  return last;
}

/// 64-bit FNV-1a over `bytes`, length first, continuing from `h`.
uint64_t Fnv1a(std::string_view bytes, uint64_t h) {
  h = (h ^ bytes.size()) * 0x100000001b3ull;
  for (unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

}  // namespace

/// One try at publishing the batch at one epoch: everything a re-base, a
/// chain re-base or a skip past a burned epoch rebuilds. RestartAttempt,
/// Rebase and SkipFenced replace the whole object, and Finish drops it;
/// every async callback holds the attempt it was issued for and does nothing
/// once that is no longer the publish's current one.
struct Publisher::Attempt {
  /// One kPutPage: the new page version's descriptor and its encoded
  /// PageDelta.
  struct PageWrite {
    PageDescriptor desc;
    std::string body;
  };

  Attempt(Epoch base, Epoch target,
          std::map<std::string, CoordinatorRecord> base_records = {})
      : base_epoch(base), new_epoch(target), records(std::move(base_records)) {}

  const Epoch base_epoch;
  const Epoch new_epoch;
  std::map<std::string, CoordinatorRecord> records;  // base-epoch records

  // Prepared output: what the write/commit stages send (with the batch's
  // encoded writes), and (out_records) what a chained successor bases
  // itself on. Valid once `prepared`.
  bool prepared = false;
  std::vector<PageWrite> page_writes;
  std::map<std::string, CoordinatorRecord> out_records;  // new-epoch records

  // The claim on new_epoch. Its round runs CONCURRENTLY with the prepare
  // stages (it starts as soon as the epoch is known); the outcome is acted
  // on only once the attempt is prepared and its write gate is open
  // (MaybeIssue).
  enum class Claim : uint8_t {
    kNone,      // no round sent yet
    kInFlight,  // a round is out
    kGranted,   // every claim replica granted
    kTaken,     // refused: another participant holds the epoch
    kBurned,    // refused: the epoch is fenced
    kFailed,    // a replica did not answer (claim_error)
    kHandled,   // a refusal is being handled: waiting for the winner, fencing
  };
  Claim claim = Claim::kNone;
  uint64_t claim_nonce = 0;  // instance id the latest round stored
  bool claim_split = false;  // a refused round was granted on some replica
  // The first claim replica (in replica order) that refused the latest
  // round: it holds the slot this attempt lost, and its probe waits there.
  net::NodeId probe_at = net::kInvalidNode;
  Status claim_error;
  bool write_gate_open = false;
  bool writes_issued = false;  // IssueWrites put bytes on the wire: a failed
                               // publish then KEEPS its claim, pinning the
                               // epoch so this participant's same-batch retry
                               // recommits the SAME epoch byte-identically —
                               // no other writer can take the epoch and leave
                               // our partial writes as shadowing orphans
  int claim_stall_left = 6;    // stalls (a probe's hold bound passed, a probe
                               // lost) before fencing or failing the batch
  int fence_rounds_left = 2;   // fence attempts in this attempt
  ParticipantId fence_target = 0;  // stalled owner named by the last probe
};

/// Everything one publish owns for its whole ticket. Shared between the
/// publish's own async stages and — when pipelined — a chained successor,
/// which holds `prev` until its write gate opens and `commit_prev` until its
/// commit gate opens. The predecessor links its one successor weakly
/// (`next`), so an abandoned pipeline can never form a shared_ptr cycle; the
/// client::Session retains every in-flight handle.
struct Publisher::PubState {
  // The batch, encoded once when it is submitted: per relation, its writes
  // (EncodeWrites). Every attempt reuses them; released at Finish.
  std::map<std::string, std::vector<KeyWrite>> writes;
  uint64_t digest = 0;  // of `writes`: tells this batch's pins from another's
  std::function<void(Status, Epoch)> cb;
  AttemptPtr at;  // current attempt; null before discovery and after Finish
  int rebase_left = 4;  // contended re-bases allowed for this publish
  int skip_left = 64;   // forward steps: past a burned epoch (SkipFenced),
                        // onto a commit a held probe watched, or to the
                        // frontier from an epoch already committed when
                        // first probed (a catch-up). Separate from
                        // rebase_left because a step always moves forward:
                        // a loser in a herd steps once per commit ahead of
                        // it, and abandonment churn can burn (and a stale
                        // base can trail) runs of epochs far wider than any
                        // sane contention re-base budget

  Handle prev;         // chain predecessor; cleared when the write gate opens
  Handle commit_prev;  // retained until the commit gate (prev fully resolved)
  std::weak_ptr<PubState> next;  // the chained successor, if any
  Gate waits = Gate::kNone;      // where this publish waits on prev

  // Lifecycle. `records_committed` -> every coordinator record acked (the
  // successor may WRITE; the confirm round overlaps it); `done` -> resolved.
  // The successor's writes wait for `records_committed`; its own COMMIT
  // additionally waits for `done` (commit order + the fail-the-suffix
  // contract).
  bool records_committed = false;
  bool done = false;
  Status final_status;
  Epoch committed_epoch = 0;  // valid once done with OK
};

void Publisher::CreateRelation(const RelationDef& def,
                               std::function<void(Status)> cb) {
  // The catalog is replicated at every node (tiny, like Nation/Region §VI-A).
  Writer w;
  def.EncodeTo(&w);
  std::vector<net::NodeId> everyone;
  for (const auto& m : service_->snapshot().members()) everyone.push_back(m.node);

  auto after_catalog = [this, def, cb = std::move(cb)](Status st) {
    if (!st.ok()) {
      cb(st);
      return;
    }
    CoordinatorRecord rec;
    rec.relation = def.name;
    rec.epoch = epoch_;
    rec.participant = participant_;
    Writer rw;
    rec.EncodeTo(&rw);
    auto replicas = service_->snapshot().ReplicasOf(
        CoordinatorHash(def.name, rec.epoch), service_->replication());
    service_->CallAll(replicas, kPutCoordinator, rw.data(), cb);
  };
  service_->CallAll(everyone, kCatalogAdd, w.data(), std::move(after_catalog));
}

Publisher::Handle Publisher::PublishChained(UpdateBatch batch, Handle prev,
                                            std::function<void(Status, Epoch)> cb) {
  ORC_CHECK(prev == nullptr || prev->next.expired(),
            "a publish can have only one chained successor");
  auto st = std::make_shared<PubState>();
  st->cb = std::move(cb);
  pipeline_stats_.publishes += 1;

  for (const auto& entry : batch) {
    if (service_->FindRelation(entry.first) == nullptr) {
      Finish(st, Status::InvalidArgument("publish to unknown relation " +
                                         entry.first));
      return st;
    }
  }
  // Each tuple is encoded and hashed here, once per publish; re-based,
  // chained and skipping attempts stamp their own epoch on the same bytes.
  uint64_t digest = 0xcbf29ce484222325ull;
  for (const auto& [rel, updates] : batch) {
    std::vector<KeyWrite> writes = EncodeWrites(*service_->FindRelation(rel), updates);
    digest = Fnv1a(rel, digest);
    for (const KeyWrite& kw : writes) {
      digest = Fnv1a(kw.tuple_bytes, Fnv1a(kw.key_bytes, digest));
    }
    st->writes.emplace(rel, std::move(writes));
  }
  st->digest = digest;

  // Chain only onto a predecessor that is still in flight: its in-memory
  // output is then by construction the newest epoch this participant can
  // know about. A *resolved* predecessor carries no such freshness (another
  // participant may have published since), so that falls back to the full
  // discovery path.
  if (prev && !prev->done) {
    pipeline_stats_.chained += 1;
    prev->next = st;
    st->prev = std::move(prev);
    if (st->prev->at != nullptr && st->prev->at->prepared) {
      StartChained(st);
    } else {
      st->waits = Gate::kPrepared;
    }
    return st;
  }

  DiscoverEpoch(st, /*rounds_left=*/2);
  return st;
}

void Publisher::StartChained(Handle st) {
  Handle prev = st->prev;
  if (prev == nullptr || st->done) return;
  if (prev->done && !prev->final_status.ok()) {
    st->prev.reset();
    Finish(st, PrevFailed(prev->final_status));
    return;
  }
  // The predecessor's prepared output IS this publish's base: its new-epoch
  // coordinator records cover every relation, so discovery and the base
  // coordinator fetches are skipped entirely. The epoch claim launches now,
  // overlapping this publish's prepare stages AND the predecessor's writes.
  const Attempt& base = *prev->at;
  RestartAttempt(st, base.new_epoch, base.new_epoch + 1, base.out_records);
}

std::function<void(Status)> Publisher::StageFanIn(Handle st, size_t n,
                                                  void (Publisher::*next)(Handle)) {
  return net::FanIn<Status>(
      n, [this, st, at = st->at, next](std::vector<Status> outcomes) {
        if (st->at != at) return;
        for (const Status& s : outcomes) {
          if (!s.ok()) {
            Finish(st, s);
            return;
          }
        }
        (this->*next)(st);
      });
}

void Publisher::RestartAttempt(
    Handle st, Epoch base, Epoch target,
    std::map<std::string, CoordinatorRecord> records) {
  st->at = std::make_shared<Attempt>(base, target, std::move(records));
  StartClaim(st);
  Apply(st);
}

void Publisher::DiscoverEpoch(Handle st, int rounds_left) {
  // Stage 0: epoch discovery. Every member reports the highest coordinator
  // epoch it stores; with replication r the newest coordinator record
  // survives on r nodes, so any surviving replica answers with the true
  // current epoch even when this publisher's epoch floor is stale. If more
  // than one member fails to answer (dead node plus dropped exchanges), the
  // newest record's holders might all be among the silent — under-discovery
  // would collide the new epoch with a committed one — so the round is
  // retried before proceeding best-effort.
  std::vector<net::NodeId> members;
  for (const auto& m : service_->snapshot().members()) members.push_back(m.node);
  service_->CallEach(
      members, kGetMaxEpoch, {},
      [this, st, rounds_left](std::vector<net::Reply> replies) {
        if (st->done) return;
        Epoch max_epoch = 0;
        size_t heard = 0;
        for (const net::Reply& reply : replies) {
          Reader r(reply.body);
          uint64_t e = 0;
          if (reply.status.ok() && r.GetVarint64(&e).ok()) {
            max_epoch = std::max<Epoch>(max_epoch, e);
            heard += 1;
          }
        }
        if (replies.size() - heard > 1 && rounds_left > 0) {
          DiscoverEpoch(st, rounds_left - 1);
          return;
        }
        epoch_ = std::max(epoch_, max_epoch);
        st->at = std::make_shared<Attempt>(epoch_, epoch_ + 1);
        ClaimAndFetchBase(st, /*stall_left=*/4);
      },
      kEpochDiscoveryTimeoutUs);
}

void Publisher::ClaimAndFetchBase(Handle st, int stall_left,
                                  sim::SimTime claim_delay) {
  // Stage 1: coordinator records of every relation at the base epoch
  // (needed both for the base version each page delta names and for
  // carrying unchanged relations forward to the new epoch). The epoch claim
  // launches concurrently — by the time the prepare stage finishes, the
  // claim outcome is usually already in.
  auto rels = service_->RelationNames();
  if (rels.empty()) {
    Finish(st, Status::FailedPrecondition("no relations in catalog"));
    return;
  }
  const AttemptPtr at = st->at;
  ReclaimAfter(st, claim_delay);
  auto arrive = StageFanIn(st, rels.size(), &Publisher::Apply);
  for (const auto& rel : rels) {
    FetchBaseCoordinator(st, at, arrive, rel, at->base_epoch,
                         /*walk_left=*/16, stall_left);
  }
}

void Publisher::FetchBaseCoordinator(Handle st, AttemptPtr at,
                                     std::function<void(Status)> arrive,
                                     const std::string& rel, Epoch epoch,
                                     int walk_left, int stall_left) {
  service_->GetCoordinator(
      rel, epoch,
      [this, st, at, arrive, rel, epoch, walk_left,
       stall_left](Status s, CoordinatorRecord rec) {
        if (st->at != at) return;
        if (s.IsNotFound() && epoch > 0 && stall_left > 0) {
          // Right after a membership change the record may exist and simply
          // not have reached the reshuffled replica set yet: re-fetch the
          // SAME epoch after a re-replication-sized pause before trusting
          // the hole. (Delivered as a node task: dies with this node,
          // fail-stop safe.)
          service_->RunAfter(2 * sim::kMicrosPerSec, [this, st, at, arrive, rel,
                                                      epoch, walk_left,
                                                      stall_left] {
            FetchBaseCoordinator(st, at, arrive, rel, epoch, walk_left,
                                 stall_left - 1);
          });
          return;
        }
        if (s.IsNotFound() && epoch > 0 && walk_left > 0) {
          // A persistent hole: this relation has no record at the base —
          // which happens when it was CREATED after that epoch committed
          // (CreateRelation writes its first record at the then-current
          // epoch). The newest record below the base carries its state
          // forward. This is safe under multi-writer: the base is a
          // CONFIRMED epoch, and everything at or below a confirmed epoch
          // is committed (partial records can only exist at the frontier's
          // wedged successor), so the walk can never absorb uncommitted
          // state — the stalls above already guarded the replication-lag
          // case. Transient errors (timeout, drop) still fail the publish.
          FetchBaseCoordinator(st, at, arrive, rel, epoch - 1, walk_left - 1,
                               /*stall_left=*/1);
          return;
        }
        if (s.ok()) at->records[rel] = std::move(rec);
        arrive(s);
      });
}

void Publisher::Apply(Handle st) {
  const AttemptPtr at = st->at;
  for (const auto& [rel, writes] : st->writes) {
    const RelationDef* def = service_->FindRelation(rel);
    // Stage 2: one page delta per touched partition, built on the version
    // the base coordinator record names (the paper locates it via the
    // inverse node, §IV). The index replicas merge it into the stored base,
    // so no page is fetched here; a chained publish names a page its
    // predecessor is still writing, which the write gate orders first. The
    // writes are in (hash, key) order, so a partition's edits are a run of
    // them, already in the order a delta carries.
    std::map<uint32_t, PageId> base_of;
    for (const PageDescriptor& d : at->records[rel].pages) {
      base_of[d.id.partition] = d.id;
    }
    for (size_t i = 0; i < writes.size();) {
      const uint32_t part = PartitionIndexFor(writes[i].hash, def->num_partitions);
      PageDelta delta;
      delta.page = PageDescriptor{PageId{rel, at->new_epoch, part},
                                  def->num_partitions};
      if (auto b = base_of.find(part); b != base_of.end()) delta.base = b->second;
      const HashId end = delta.page.range_end();  // zero: the top of the ring
      for (; i < writes.size() && (end == HashId::Zero() || writes[i].hash < end);
           ++i) {
        const KeyWrite& kw = writes[i];
        delta.edits.push_back(PageEdit{kw.key_bytes, kw.hash, kw.tuple_bytes.empty()});
      }
      Writer w;
      delta.EncodeTo(&w);
      at->page_writes.push_back(Attempt::PageWrite{delta.page, w.Release()});
    }
  }

  // The publish is now *prepared*: its output (page deltas + coordinator
  // records) exists in memory, so a chained successor can begin its own
  // prepare stage — overlapping it with this publish's writes and commit.
  BuildOutputs(*at);
  at->prepared = true;
  Resume(st->next.lock(), Gate::kPrepared);

  // Write gate: a chained publish puts nothing on the wire until the
  // predecessor's coordinator records are all acked (its commit, minus the
  // confirm round, which then overlaps our writes); its own COMMIT
  // additionally waits for the predecessor to fully resolve
  // (WriteCoordinators). This keeps the pipeline's failure story identical
  // to sequential publishing — at most one publish per chain can leave
  // orphan versions at an epoch it claimed, and only its own same-batch
  // retry can rewrite that epoch, so the GC sweep's locally-checkable
  // precondition holds. Once the gate opens, the publish must still hold
  // its epoch CLAIM before anything goes on the wire (MaybeIssue).
  Handle prev = st->prev;
  if (prev == nullptr) {
    at->write_gate_open = true;
    MaybeIssue(st);
    return;
  }
  st->commit_prev = prev;  // retained for the commit gate
  if (prev->records_committed || prev->done) {
    st->prev.reset();
    ReleaseGate(st, prev);
    return;
  }
  st->waits = Gate::kWriteGate;
}

void Publisher::Resume(const Handle& next, Gate gate) {
  if (next == nullptr || next->done || next->waits != gate) return;
  next->waits = Gate::kNone;
  switch (gate) {
    case Gate::kNone:
      return;
    case Gate::kPrepared:
      StartChained(next);
      return;
    case Gate::kWriteGate: {
      Handle prev = std::move(next->prev);
      if (prev != nullptr) ReleaseGate(next, prev);
      return;
    }
    case Gate::kCommitGate:
      CommitAfterPrev(next);
      return;
  }
}

void Publisher::ReleaseGate(Handle st, Handle prev) {
  if (st->done) return;
  if (prev->done && !prev->final_status.ok()) {
    Finish(st, PrevFailed(prev->final_status));
    return;
  }
  const AttemptPtr at = st->at;
  const Epoch prev_epoch = prev->done ? prev->committed_epoch : prev->at->new_epoch;
  if (prev_epoch != at->base_epoch) {
    // The predecessor lost an epoch race and re-based: it committed at a
    // later epoch than the one our prepared output was built against, so our
    // base coordinator records, page deltas, epoch — and the claim round we
    // launched for it — are all stale. Re-base onto its FINAL output. Any
    // fragments our stale claim stored sit at an epoch at or below the
    // predecessor's committed one — no future claim ever targets it, and GC
    // sweeps it.
    pipeline_stats_.chain_rebases += 1;
    if (written_epochs_.count(at->new_epoch) == 0) {
      ReleaseClaim(at->new_epoch, at->claim_nonce);
    }
    if (prev->done) {
      // The predecessor already RESOLVED and dropped its attempt; its
      // committed records are durable, so re-fetch them over the network.
      Rebase(st, prev_epoch, RebaseWhy::kContended);
      return;
    }
    RestartAttempt(st, prev_epoch, prev_epoch + 1, prev->at->out_records);
    return;
  }
  at->write_gate_open = true;
  MaybeIssue(st);
}

void Publisher::ReleaseClaim(Epoch epoch, uint64_t nonce) {
  Writer w;
  EpochInstance{epoch, participant_, nonce}.EncodeTo(&w);
  auto replicas =
      service_->snapshot().ReplicasOf(ClaimHash(epoch), service_->replication());
  for (net::NodeId r : replicas) {
    service_->SendOneWay(r, kReleaseEpoch, w.data());
  }
}

void Publisher::StartClaim(Handle st) {
  if (st->done) return;
  const AttemptPtr at = st->at;
  at->claim = Attempt::Claim::kInFlight;
  auto replicas = service_->snapshot().ReplicasOf(ClaimHash(at->new_epoch),
                                                  service_->replication());
  if (replicas.empty()) {  // degenerate single-node teardown; nothing to race
    at->claim = Attempt::Claim::kGranted;
    MaybeIssue(st);
    return;
  }
  // The requester needs EVERY replica to grant: under the single-failure
  // assumption any two claim rounds for one epoch overlap on at least one
  // live replica, so two full claims for the same epoch cannot both be
  // granted (the same overlap argument epoch discovery already relies on).
  at->claim_nonce = ++claim_seq_;
  service_->CallEach(
      replicas, kClaimEpoch, ClaimBody(at->new_epoch, at->claim_nonce),
      [this, st, at, replicas](std::vector<net::Reply> replies) {
        if (st->at != at) return;  // re-based or resolved meanwhile
        size_t granted = 0;
        bool taken = false;
        bool burned = false;  // a replica holds the BURNED marker
        Status error;         // first failure that is neither
        // The first refusing replica in replica order holds the slot this
        // attempt lost; its refusal names the holder.
        size_t holder = replicas.size();
        ClaimInstance holder_inst;
        for (const net::Reply& r : replies) {
          if (r.status.ok()) {
            granted += 1;
          } else if (r.status.IsFenced()) {
            burned = true;
          } else if (r.status.IsEpochTaken()) {
            taken = true;
            const auto i = static_cast<size_t>(
                std::find(replicas.begin(), replicas.end(), r.from) - replicas.begin());
            Reader rb(r.body);
            ClaimInstance inst;
            if (i < holder && ClaimInstance::DecodeFrom(&rb, &inst).ok()) {
              holder = i;
              holder_inst = inst;
            }
          } else if (error.ok()) {
            error = r.status;
          }
        }
        at->claim_split = granted > 0;
        at->probe_at = holder < replicas.size() ? replicas[holder] : replicas.front();
        if (holder_inst.participant != 0) at->fence_target = holder_inst.participant;
        if (burned) {
          // Nobody — this participant included — may ever hold the epoch
          // again. MaybeIssue releases fragments stored on grant-side
          // replicas before skipping.
          at->claim = Attempt::Claim::kBurned;
        } else if (taken) {
          pipeline_stats_.epoch_conflicts += 1;
          at->claim = Attempt::Claim::kTaken;
        } else if (!error.ok()) {
          at->claim = Attempt::Claim::kFailed;
          at->claim_error = error;
        } else {
          at->claim = Attempt::Claim::kGranted;
          ScheduleClaimRefresh(st, at);
        }
        MaybeIssue(st);
      },
      kEpochDiscoveryTimeoutUs);
}

void Publisher::MaybeIssue(Handle st) {
  // Writes launch once all three hold: outputs prepared, write gate open
  // (predecessor's records acked), claim round resolved. The claim usually
  // resolves first — it was launched with the prepare stages.
  if (st->done) return;
  const AttemptPtr at = st->at;
  if (!at->prepared || !at->write_gate_open || at->writes_issued) return;
  switch (at->claim) {
    case Attempt::Claim::kNone:
    case Attempt::Claim::kInFlight:
    case Attempt::Claim::kHandled:
      return;  // claim completion re-enters
    case Attempt::Claim::kGranted: {
      // The claim replicas grant per participant, so this batch may hold a
      // claim where another batch of this participant left writes. Those
      // must not sit under this batch's commit: with GC past the epoch they
      // would shadow the versions the committed pages name.
      auto pin = written_epochs_.find(at->new_epoch);
      if (pin == written_epochs_.end() || pin->second.batch == st->digest) {
        IssueWrites(st);
        return;
      }
      at->claim = Attempt::Claim::kHandled;
      Handle owner = pin->second.owner.lock();
      if (owner != nullptr && !owner->done) {
        AwaitWinner(st);  // that publish is still in flight: wait on it
      } else if (at->fence_rounds_left-- > 0) {
        // It resolved without committing: retire its writes (self-fence and
        // purge), then skip past the epoch.
        at->fence_target = participant_;
        FenceEpoch(st);
      } else {
        Finish(st, Status::Unavailable(
                       "epoch " + std::to_string(at->new_epoch) +
                       " holds another batch's writes of this participant"));
      }
      return;
    }
    case Attempt::Claim::kFailed:
      // A claim replica was unreachable: fail the batch (retryable);
      // fragments we stored are released by Finish.
      Finish(st, at->claim_error);
      return;
    case Attempt::Claim::kTaken:
      at->claim = Attempt::Claim::kHandled;
      // Our fragments (replicas that granted before another writer was
      // stored) must not wedge the epoch for everyone else. We issued no
      // writes (claims precede writes), so releasing is always safe here —
      // and the release is instance-exact (nonce), so it can never unpin a
      // later attempt.
      if (at->claim_split && written_epochs_.count(at->new_epoch) == 0) {
        ReleaseClaim(at->new_epoch, at->claim_nonce);
      }
      if (at->fence_target == participant_ && at->fence_rounds_left-- > 0) {
        // A replica refuses this participant its own claim only under a
        // burn promise — a fence round that did not reach every replica. It
        // resolves only by a self-fence to unanimity (or a commit that heals
        // it): nobody else will.
        FenceEpoch(st);
        return;
      }
      AwaitWinner(st);
      return;
    case Attempt::Claim::kBurned:
      at->claim = Attempt::Claim::kHandled;
      if (written_epochs_.count(at->new_epoch) == 0) {
        if (at->claim_split) ReleaseClaim(at->new_epoch, at->claim_nonce);
        SkipFenced(st);
      } else if (at->fence_rounds_left-- > 0) {
        // WE are the fenced instance at an epoch we hold writes at. The burn
        // may be PARTIAL (a fence round that granted on some replicas and
        // was refused on others leaves us unable to either commit or safely
        // abandon the epoch). Escalate a SELF-fence: if it reaches
        // unanimity, the purge broadcast removes our orphans cluster-wide
        // and FenceEpoch's grant path unpins and skips; if a replica refuses
        // because the epoch committed, the re-claim loop recommits it. Out
        // of fence budget -> retryable failure that KEEPS the pin and the
        // claim, so the session's same-batch retry resolves it.
        at->fence_target = participant_;
        FenceEpoch(st);
      } else {
        Finish(st, Status::Unavailable(
                       "epoch " + std::to_string(at->new_epoch) +
                       " is burn-promised under this participant's writes"));
      }
      return;
  }
}

void Publisher::AwaitWinner(Handle st) {
  if (st->done) return;
  const AttemptPtr at = st->at;
  const Epoch contested = at->new_epoch;
  // Probe the claim's fate — NOT a coordinator record. A torn commit leaves
  // partial records at the contested epoch, and basing on those would absorb
  // the winner's uncommitted (and possibly cross-attempt inconsistent)
  // state; the confirm flag is flipped only after EVERY record of the epoch
  // was acked. The replica that refused holds the probe while the slot
  // stays claimed, so this publish wakes when the winner commits, releases
  // or is burned, and sends no claim meanwhile.
  net::NodeId holder = at->probe_at;
  if (holder == net::kInvalidNode) {
    auto replicas = service_->snapshot().ReplicasOf(ClaimHash(contested),
                                                    service_->replication());
    holder = replicas.empty() ? service_->node() : replicas.front();
  }
  Writer w;
  w.PutVarint64(contested);
  service_->Call(
      holder, kGetEpochClaim, w.Release(),
      [this, st, at, contested](Status s, const std::string& reply) {
        if (st->at != at) return;
        Reader r(reply);
        ClaimProbeAnswer answer;
        if (!s.ok() || !ClaimProbeAnswer::DecodeFrom(&r, &answer).ok()) {
          // The holding replica died or restarted (its held probes went with
          // it) or answered garbage: claim again.
          Stall(st);
          return;
        }
        // Remember the stalled owner: a fence round must name the exact
        // participant it retires (the replicas refuse a mismatched target,
        // so a hand-off between owners can never be mis-fenced).
        if (answer.claim.participant != 0) at->fence_target = answer.claim.participant;
        using Outcome = ClaimProbeAnswer::Outcome;
        switch (answer.outcome) {
          case Outcome::kConfirmed:
            // A commit the probe waited for is the frontier this publish
            // watched move: base on it, re-claiming in wake order. One that
            // was already there means the attempt's view was stale.
            Rebase(st, contested,
                   answer.waited ? RebaseWhy::kWatched : RebaseWhy::kCatchUp,
                   ReclaimPhase(answer.rank, /*emptied=*/false, participant_, 0));
            return;
          case Outcome::kEmpty: {
            // The holder released (or never finished claiming): re-claim
            // the ORIGINAL epoch with the prepared outputs intact, after a
            // phase that orders this waiter among the woken ones and then
            // among participants. An empty slot the probe did not wait for
            // costs a stall, so a claim that keeps slipping away is bounded.
            const sim::SimTime phase = ReclaimPhase(
                answer.rank, /*emptied=*/true, participant_, at->claim_nonce);
            if (answer.waited) {
              ReclaimAfter(st, phase);
            } else {
              Stall(st, phase);
            }
            return;
          }
          case Outcome::kBurned:
            // The fence reached unanimity: the epoch is burned for everyone
            // — skip past it with the base intact.
            SkipFenced(st);
            return;
          case Outcome::kPromised:
            // A bare burn promise is NOT skippable (the epoch may yet
            // commit): wait for it to harden or heal, and on stall re-fence
            // it to unanimity.
            AwaitWinner(st);
            return;
          case Outcome::kHeld:
            Stall(st);
            return;
        }
      },
      kEpochDiscoveryTimeoutUs);
}

void Publisher::Stall(Handle st, sim::SimTime delay) {
  const AttemptPtr at = st->at;
  if (at->claim_stall_left-- > 0) {
    ReclaimAfter(st, delay);
    return;
  }
  // The winner has neither committed nor released within the stall budget.
  // With fencing enabled and a named owner, escalate: ask the claim replicas
  // to retire the claim as abandoned (they refuse if the owner is merely
  // slow — its heartbeat keeps the freshness clock warm). Without fencing
  // (or out of fence budget), fail the batch; the session's same-batch retry
  // discipline re-runs discovery + claim later, and the winner's own retry
  // (or its release) eventually unwedges the epoch.
  if (fence_after_us_ > 0 && at->fence_target != 0 && at->fence_rounds_left-- > 0) {
    FenceEpoch(st);
    return;
  }
  Finish(st, Status::Unavailable("epoch " + std::to_string(at->new_epoch) +
                                 " claimed by another participant that has not committed"));
}

void Publisher::ReclaimAfter(Handle st, sim::SimTime delay) {
  if (delay == 0) {
    StartClaim(st);
    return;
  }
  service_->RunAfter(delay, [this, st, at = st->at] {
    if (st->at == at) StartClaim(st);
  });
}

void Publisher::FenceEpoch(Handle st) {
  if (st->done) return;
  const AttemptPtr at = st->at;
  // One kFenceEpoch per claim replica. Every replica must grant — the same
  // all-replicas rule claims use, and for the same overlap reason: a fence
  // round and the owner's refresh round share at least one live replica, so
  // a refreshing owner is always seen by the fence round and refused there.
  auto replicas = service_->snapshot().ReplicasOf(ClaimHash(at->new_epoch),
                                                  service_->replication());
  if (replicas.empty()) {  // degenerate teardown: nothing holds the epoch
    SkipFenced(st);
    return;
  }
  Writer w;
  FenceRequest{at->new_epoch, participant_, at->fence_target,
               static_cast<uint64_t>(fence_after_us_)}
      .EncodeTo(&w);
  // The burn names the fenced instance: the first grant that decodes names
  // it exactly; until then, the target without a nonce.
  const EpochInstance target{at->new_epoch, at->fence_target, 0};
  service_->CallEach(
      replicas, kFenceEpoch, w.data(),
      [this, st, at, target](std::vector<net::Reply> replies) {
        if (st->at != at) return;
        EpochInstance burned = target;
        bool named = false;
        size_t granted = 0;
        for (const net::Reply& reply : replies) {
          if (!reply.status.ok()) continue;
          granted += 1;
          Reader r(reply.body);
          ClaimInstance fenced;
          if (!named && ClaimInstance::DecodeFrom(&r, &fenced).ok()) {
            named = true;
            burned.participant = fenced.participant;
            burned.nonce = fenced.nonce;
          }
        }
        if (granted == replies.size()) {
          pipeline_stats_.fences += 1;
          // The epoch is burned. Tell EVERY member (not just the claim
          // replicas) so orphan tuple/page/coordinator versions the
          // abandoned writer landed are purged cluster-wide and its late
          // writes are refused wherever they arrive. One-way best-effort:
          // replica pushes piggyback the burned set for any node missed.
          Writer pw;
          burned.EncodeTo(&pw);
          for (const auto& m : service_->snapshot().members()) {
            service_->SendOneWay(m.node, kPurgeEpoch, pw.data());
          }
          // Unanimity also settles a SELF-fence: with the purge broadcast
          // out, our own partial writes at the burned epoch are doomed
          // everywhere, so the pin (which exists to keep them from turning
          // into shadowing orphans) can be dropped before skipping past.
          written_epochs_.erase(at->new_epoch);
          SkipFenced(st);
          return;
        }
        // Any refusal aborts the fence: the owner refreshed (merely slow),
        // the epoch committed/changed hands, or a replica was unreachable
        // (then the overlap argument cannot be relied on). Resume waiting
        // with a short stall budget — the next exhaustion may retry the
        // fence if budget remains.
        at->claim_stall_left = 2;
        StartClaim(st);
      },
      kEpochDiscoveryTimeoutUs);
}

void Publisher::SkipFenced(Handle st) {
  if (st->done) return;
  // Skips have their own (deliberately deep) budget: each burned epoch costs
  // one claim round and nothing else, and new_epoch only ever moves forward,
  // so the loop terminates at the far edge of any burn region. Only a
  // pathological fence storm fails the publish here.
  if (--st->skip_left < 0) {
    Finish(st, Status::Aborted("fencing: burned-epoch skip budget exhausted"));
    return;
  }
  pipeline_stats_.fenced_skips += 1;
  // Unlike Rebase, the base is still valid — a burned epoch committed
  // nothing, so this publish's base records carry forward unchanged and only
  // the target epoch moves past the burn. (In-memory re-base, like
  // ReleaseGate's chain path.)
  Attempt& at = *st->at;
  RestartAttempt(st, at.base_epoch, at.new_epoch + 1, std::move(at.records));
}

std::string Publisher::ClaimBody(Epoch epoch, uint64_t nonce) const {
  Writer w;
  ClaimRequest{epoch, ClaimInstance{participant_, service_->node(), nonce}}
      .EncodeTo(&w);
  return w.Release();
}

void Publisher::ScheduleClaimRefresh(Handle st, AttemptPtr at) {
  if (fence_after_us_ == 0) return;
  sim::SimTime period = std::max<sim::SimTime>(1, fence_after_us_ / 3);
  service_->RunAfter(period, [this, st, at] {
    // Only a still-current, still-granted attempt refreshes; a re-base,
    // loss, or resolution since then makes this heartbeat a no-op.
    if (st->at != at || at->claim != Attempt::Claim::kGranted) return;
    // Same instance as the granted round: an idempotent re-grant.
    auto replicas = service_->snapshot().ReplicasOf(ClaimHash(at->new_epoch),
                                                    service_->replication());
    if (replicas.empty()) {
      ScheduleClaimRefresh(st, at);
      return;
    }
    service_->CallEach(
        replicas, kClaimEpoch, ClaimBody(at->new_epoch, at->claim_nonce),
        [this, st, at](std::vector<net::Reply> replies) {
          if (st->at != at) return;
          bool burned = false;
          for (const net::Reply& r : replies) burned |= r.status.IsFenced();
          if (!burned) {
            ScheduleClaimRefresh(st, at);
            return;
          }
          // Lost a fence race while holding the claim (we looked abandoned
          // long enough). Writes issued -> the zombie path: every further
          // write/commit at the burned epoch is refused with kFenced, so the
          // pipeline surfaces the terminal error on its own — just stop
          // refreshing. No writes yet -> the kBurned path, which MaybeIssue
          // takes only once the prepare stages are quiescent (acting here
          // could collide with in-flight base coordinator fetches).
          if (!at->writes_issued) {
            at->claim = Attempt::Claim::kBurned;
            at->claim_split = true;  // we held a grant; release fragments
            MaybeIssue(st);
          }
        },
        kEpochDiscoveryTimeoutUs);
  });
}

void Publisher::Rebase(Handle st, Epoch base, RebaseWhy why,
                       sim::SimTime claim_delay) {
  if (st->done) return;
  const bool step = why != RebaseWhy::kContended;
  if (step ? --st->skip_left < 0 : --st->rebase_left < 0) {
    Finish(st, Status::Aborted(step ? "epoch contention: skip budget exhausted"
                                    : "epoch contention: rebase budget exhausted"));
    return;
  }
  pipeline_stats_.rebases += 1;
  if (why == RebaseWhy::kCatchUp) {
    // The frontier may already be past `base`: one discovery round finds
    // it, where claiming base + 1, base + 2, ... would walk it one claim
    // round and one probe at a time.
    epoch_ = std::max(epoch_, base);
    st->at.reset();
    DiscoverEpoch(st, /*rounds_left=*/2);
    return;
  }
  st->at = std::make_shared<Attempt>(base, base + 1);
  ClaimAndFetchBase(st, /*stall_left=*/3, claim_delay);
}

void Publisher::BuildOutputs(Attempt& at) {
  // New-epoch coordinator record for EVERY relation: carry forward untouched
  // pages, and name the new version of every touched partition. The
  // publisher sends edits, not pages, so it cannot tell whether a version
  // emptied: an emptied partition keeps its descriptor and costs a scan one
  // empty page read, and its empty version is what lets GC retire the
  // partition's last non-empty one. Built once, pre-write: the commit stage
  // serializes these, and a chained successor bases itself on them.
  for (const auto& rel : service_->RelationNames()) {
    CoordinatorRecord rec;
    rec.relation = rel;
    rec.epoch = at.new_epoch;
    rec.participant = participant_;
    // Every relation's base record must be present: committing from a
    // default-constructed base would silently drop the relation's entire
    // carried-forward state at this epoch.
    ORC_CHECK(at.records.count(rel) > 0,
              "publish base is missing a relation's coordinator record");
    std::set<uint32_t> touched;
    for (const Attempt::PageWrite& pw : at.page_writes) {
      if (pw.desc.id.relation != rel) continue;
      touched.insert(pw.desc.id.partition);
      rec.pages.push_back(pw.desc);
    }
    for (const PageDescriptor& d : at.records[rel].pages) {
      if (touched.count(d.id.partition) == 0) rec.pages.push_back(d);
    }
    std::sort(rec.pages.begin(), rec.pages.end(),
              [](const PageDescriptor& a, const PageDescriptor& b) {
                return a.id.partition < b.id.partition;
              });
    at.out_records[rel] = std::move(rec);
  }
}

void Publisher::IssueWrites(Handle st) {
  // Stage 3: tuple versions and page deltas. Coordinator records — the
  // commit point — only go out once every write here has succeeded
  // (WriteCoordinators), so a torn publish can leave orphan tuples/pages at
  // the uncommitted epoch but never a coordinator record referencing state
  // that was not fully written. Orphans are overwritten byte-identically
  // when the publisher retries the batch, and GC retires them eventually.
  const AttemptPtr at = st->at;
  const auto& snap = service_->snapshot();
  std::vector<net::NodeId> everyone;
  for (const auto& m : snap.members()) everyone.push_back(m.node);

  at->writes_issued = true;
  written_epochs_[at->new_epoch] = Pin{st->digest, st};

  // 3a: tuple versions, coalesced into ONE multi-relation kPutTuples frame
  // per destination node — however many relations and partitions the batch
  // touches, each replica sees a single RPC. The wire format leads each
  // tuple with its placement hash so receivers key their stores without
  // rehashing (per relation: rel, n, then hash(20B BE), key, epoch, bytes).
  std::map<net::NodeId, std::map<std::string_view, Writer>> per_node_rel;
  std::map<net::NodeId, std::map<std::string_view, uint64_t>> per_node_count;
  Writer hash_be(20);  // reused 20-byte scratch: no per-tuple allocation
  for (const auto& [rel, writes] : st->writes) {
    const bool everywhere = service_->FindRelation(rel)->replicate_everywhere;
    for (const KeyWrite& kw : writes) {
      hash_be.Clear();
      kw.hash.EncodeTo(&hash_be);
      std::vector<net::NodeId> targets =
          everywhere ? everyone : snap.ReplicasOf(kw.hash, service_->replication());
      for (net::NodeId t : targets) {
        Writer& w = per_node_rel[t][rel];
        w.PutRaw(hash_be.data().data(), hash_be.size());
        w.PutString(kw.key_bytes);
        w.PutVarint64(at->new_epoch);
        w.PutString(kw.tuple_bytes);
        per_node_count[t][rel] += 1;
      }
    }
  }
  auto arrive = StageFanIn(st, per_node_rel.size() + at->page_writes.size(),
                           &Publisher::WriteCoordinators);
  for (auto& [target, rels] : per_node_rel) {
    Writer body;
    body.PutVarint64(rels.size());
    for (auto& [rel, w] : rels) {
      body.PutString(rel);
      body.PutVarint64(per_node_count[target][rel]);
      body.PutRaw(w.data().data(), w.size());
    }
    pipeline_stats_.put_frames += 1;
    service_->Call(target, kPutTuples, body.Release(),
                   [arrive](Status s, const std::string&) { arrive(s); });
  }

  // 3b: page deltas to their index nodes, which merge them.
  for (const Attempt::PageWrite& pw : at->page_writes) {
    const RelationDef* def = service_->FindRelation(pw.desc.id.relation);
    std::vector<net::NodeId> targets =
        def->replicate_everywhere
            ? everyone
            : snap.ReplicasOf(pw.desc.home(), service_->replication());
    service_->CallAll(targets, kPutPage, pw.body, arrive);
  }
}

void Publisher::WriteCoordinators(Handle st) {
  // Commit gate: a chained publish commits only after its predecessor fully
  // resolved (including the confirm round, which overlapped our writes). A
  // predecessor that failed at any stage aborts us here, BEFORE our commit —
  // the fail-the-suffix contract; our issued writes stay pinned by our claim
  // and are rewritten byte-identically by the same-batch retry.
  Handle cp = st->commit_prev;
  if (cp != nullptr && !cp->done) {
    st->waits = Gate::kCommitGate;
    return;
  }
  CommitAfterPrev(st);
}

void Publisher::CommitAfterPrev(Handle st) {
  if (st->done) return;
  Handle cp = st->commit_prev;
  st->commit_prev.reset();
  if (cp != nullptr && !cp->final_status.ok()) {
    Finish(st, PrevFailed(cp->final_status));
    return;
  }
  const AttemptPtr at = st->at;
  const auto& snap = service_->snapshot();
  auto arrive = net::FanIn<Status>(
      at->out_records.size(), [this, st, at](std::vector<Status> outcomes) {
        if (st->at != at) return;
        // A kEpochTaken refusal outranks transient errors: it means another
        // participant committed this epoch and this publish must re-base,
        // not merely retry. Likewise kFenced — the epoch was burned out from
        // under this publish mid-commit and the batch must move to a fresh
        // epoch. The last such refusal wins; otherwise the first error.
        Status result;
        for (const Status& s : outcomes) {
          if (s.IsEpochTaken() || s.IsFenced() || (!s.ok() && result.ok())) {
            result = s;
          }
        }
        if (result.IsEpochTaken()) {
          // Commit-time contention (the backstop gate): another writer
          // committed our epoch despite the claim — possible only when the
          // claim replica set was wiped out by simultaneous membership
          // churn. Our claim is moot; re-base onto the committed epoch and
          // re-publish the batch.
          pipeline_stats_.epoch_conflicts += 1;
          ReleaseClaim(at->new_epoch, at->claim_nonce);
          Rebase(st, at->new_epoch, RebaseWhy::kContended);
          return;
        }
        if (!result.ok()) {
          Finish(st, result);
          return;
        }
        // Every coordinator record acked: the successor may start WRITING
        // now — its commit still waits for our confirm via the commit gate.
        st->records_committed = true;
        Resume(st->next.lock(), Gate::kWriteGate);
        ConfirmEpoch(st);
      });

  // Commit: the prepared coordinator records for EVERY relation at the new
  // epoch (constructed in BuildOutputs, before the writes went out).
  for (const auto& [rel, rec] : at->out_records) {
    Writer w;
    rec.EncodeTo(&w);
    auto replicas = snap.ReplicasOf(CoordinatorHash(rel, at->new_epoch),
                                    service_->replication());
    service_->CallAll(replicas, kPutCoordinator, w.data(), arrive);
  }
}

void Publisher::ConfirmEpoch(Handle st) {
  if (st->done) return;
  const AttemptPtr at = st->at;
  // The commit is durable (every coordinator record acked); publish the fact
  // to the claim replicas so discovery reports this epoch as the frontier.
  // Runs BEFORE the user callback resolves: a participant that observes its
  // ticket committed is guaranteed the next discovery sees the epoch.
  auto replicas = service_->snapshot().ReplicasOf(ClaimHash(at->new_epoch),
                                                  service_->replication());
  if (replicas.empty()) {
    Finish(st, Status::OK());
    return;
  }
  service_->CallAll(replicas, kConfirmEpoch,
                    ClaimBody(at->new_epoch, at->claim_nonce),
                    [this, st](Status s) { Finish(st, s); });
}

void Publisher::Finish(Handle st, Status status) {
  if (st->done) return;
  st->done = true;
  st->final_status = status;
  // Dropping the attempt and the batch releases the heavy state now rather
  // than at handle destruction (a client::Session keeps its last handle as
  // the chain tail); a callback still out for the attempt finds it replaced
  // and does nothing.
  AttemptPtr at = std::move(st->at);
  st->writes.clear();
  const Epoch epoch = at != nullptr ? at->new_epoch : 0;
  if (status.ok()) {
    st->committed_epoch = epoch;
    // The frontier passed every epoch at or below this commit: our partial
    // writes there (if any) are either this very commit or superseded by it,
    // and those epochs can never be claimed again.
    written_epochs_.erase(written_epochs_.begin(),
                          written_epochs_.upper_bound(epoch));
    epoch_ = std::max(epoch_, epoch);
    // Coordinator role: advertise this PARTICIPANT's GC low-watermark. The
    // storage nodes retire below the min across active participants, so a
    // mark of 0 (committed epoch still inside the keep window) registers the
    // participant and holds retirement back rather than being skipped.
    // One-way and best-effort — a node that misses it catches up on the next
    // publish or replica push (which piggybacks the participant table).
    if (gc_keep_epochs_ > 0) {
      Epoch w = epoch > gc_keep_epochs_ ? epoch - gc_keep_epochs_ : 0;
      Writer ww;
      ww.PutVarint32(participant_);
      ww.PutVarint64(w);
      for (const auto& m : service_->snapshot().members()) {
        service_->SendOneWay(m.node, kSetWatermark, ww.data());
      }
    }
  } else if (status.IsFenced()) {
    // This participant WAS the fenced instance: its epoch is burned, its
    // orphan writes are purged, and its late rewrites are refused. Unpin the
    // epoch — the written_epochs_ pinning rule exists to let the same-batch
    // retry rewrite the SAME epoch byte-identically, but a burned epoch can
    // never be written or committed by anyone, so the retry must (and safely
    // can) republish at a fresh epoch instead.
    written_epochs_.erase(epoch);
  } else if (at != nullptr && at->claim != Attempt::Claim::kNone &&
             !at->writes_issued && written_epochs_.count(epoch) == 0) {
    // The failed publish holds a claim (or fragments) at an epoch THIS
    // PARTICIPANT never wrote to — by any attempt, not just this one;
    // release so other participants are not wedged waiting for a commit
    // that will never come. A written-at epoch keeps its claim instead: the
    // pinned epoch guarantees this participant's same-batch retry recommits
    // the SAME epoch over the partial writes (byte-identical), which is
    // what keeps the GC sweep's newest-version rule safe — releasing would
    // let another writer take the epoch and turn the partial writes into
    // shadowing orphans.
    ReleaseClaim(epoch, at->claim_nonce);
  }
  at.reset();
  // The successor learns this publish's fate first, wherever it waits (and
  // starts writing, or aborts).
  if (Handle next = st->next.lock()) Resume(next, next->waits);
  st->prev.reset();
  st->commit_prev.reset();

  auto cb = std::move(st->cb);
  st->cb = nullptr;
  cb(status, status.ok() ? epoch : 0);
}

}  // namespace orchestra::storage
