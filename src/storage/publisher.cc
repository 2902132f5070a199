#include "storage/publisher.h"

#include <algorithm>

#include "common/log.h"

namespace orchestra::storage {

/// Everything one in-flight publish owns. Shared between the publish's own
/// async stages (each RPC callback keeps the handle alive) and — when
/// pipelined — a chained successor, which holds `prev` until its write gate
/// resolves. Cross-publish continuation hooks (`on_prepared`, `on_done`)
/// capture the *successor* weakly so an abandoned pipeline can never form a
/// shared_ptr cycle; the client::Session retains every in-flight handle.
struct Publisher::PubState {
  struct PartitionWork {
    std::string relation;
    uint32_t partition = 0;
    bool has_old_desc = false;
    PageDescriptor old_desc;
    std::vector<const Update*> updates;
    // Parallel to `updates`: encoded key bytes and placement hash, computed
    // exactly once per update in FetchPages and reused everywhere after
    // (page sort, tuple writes, wire format) — SHA-1 never runs twice for
    // the same tuple in a publish.
    std::vector<std::string> update_keys;
    std::vector<HashId> update_hashes;
    Page old_page;  // empty when !has_old_desc
  };

  struct TupleWrite {
    std::string relation;
    TupleId id;
    std::string tuple_bytes;
    HashId hash;
    bool everywhere = false;
  };

  UpdateBatch batch;
  std::function<void(Status, Epoch)> cb;
  Epoch base_epoch = 0;
  Epoch new_epoch = 0;
  std::map<std::string, CoordinatorRecord> records;  // base-epoch records
  size_t outstanding = 0;
  Status first_error;
  std::vector<PartitionWork> parts;
  // Touched partitions per relation (true = new page version is non-empty),
  // carried from the apply stage to the coordinator construction.
  std::map<std::string, std::map<uint32_t, bool>> partition_nonempty;

  // Prepared output: what a chained successor bases itself on, and what the
  // write/commit stages send. Valid once `prepared`; released at Finish.
  std::vector<TupleWrite> tuple_writes;
  std::vector<Page> new_pages;
  std::map<std::string, CoordinatorRecord> out_records;  // new-epoch records

  // Lifecycle. `prepared` -> outputs computed (successors may start);
  // `records_committed` -> every coordinator record acked (successors may
  // WRITE; the confirm round overlaps them); `done` -> resolved;
  // `committed` -> done with success (commit point passed and confirmed,
  // epoch advanced). A successor's writes wait for `records_committed`; its
  // own COMMIT additionally waits for `done` (commit order + the
  // fail-the-suffix contract). A contention re-base clears `prepared` again
  // while the attempt state is rebuilt, so late-chaining successors wait for
  // the re-based outputs.
  bool prepared = false;
  bool records_committed = false;
  bool done = false;
  bool committed = false;
  Status final_status;
  Handle prev;         // chain predecessor; cleared when the write gate opens
  Handle commit_prev;  // retained until the commit gate (prev fully resolved)
  std::vector<std::function<void()>> on_prepared;
  std::vector<std::function<void()>> on_records_committed;
  std::vector<std::function<void()>> on_done;

  // Multi-writer contention bookkeeping (reset by ResetAttempt). The claim
  // round runs CONCURRENTLY with the prepare stages (it is started as soon
  // as the attempt's epoch is known); its outcome is acted on only once the
  // publish is prepared and its write gate is open (MaybeIssue).
  enum class ClaimState : uint8_t { kNone, kInFlight, kGranted, kLost, kError };
  ClaimState claim_state = ClaimState::kNone;
  uint64_t claim_round = 0;    // generation guard: a re-base invalidates any
                               // still-in-flight claim round
  uint64_t claim_nonce = 0;    // instance id the latest round stored
  ParticipantId claim_winner = 0;  // smallest winner named by a refusal
  bool claim_split = false;        // we were granted at least one fragment
  Status claim_error;
  Epoch claim_attempted = 0;   // epoch a claim round was sent for (fragments
                               // may be stored; released on failure/loss
                               // unless writes were issued — see below)
  Epoch claimed_epoch = 0;     // epoch this publish holds a full claim on
  bool write_gate_open = false;
  bool writes_issued = false;  // IssueWrites put bytes on the wire: a failed
                               // publish then KEEPS its claim, pinning the
                               // epoch so this participant's same-batch retry
                               // recommits the SAME epoch byte-identically —
                               // no other writer can take the epoch and leave
                               // our partial writes as shadowing orphans
  int claim_stall_left = 6;    // AwaitWinner probes before failing the batch
  int rebase_left = 4;         // contention re-bases allowed for this publish
  int fence_skip_left = 64;    // burned epochs this publish may step past —
                               // separate from rebase_left because a skip
                               // keeps the base and prepared records intact
                               // and always moves forward, while abandonment
                               // churn can burn runs of epochs far wider than
                               // any sane contention re-base budget
  bool claim_fenced = false;   // the claim round hit a BURNED epoch
  int fence_rounds_left = 2;   // fence attempts per attempt (reset on re-base)
  ParticipantId fence_target = 0;  // stalled owner named by the last probe

  void FireRecordsCommitted() {
    records_committed = true;
    for (size_t i = 0; i < on_records_committed.size(); ++i) {
      on_records_committed[i]();
    }
    on_records_committed.clear();
  }

  void FirePrepared() {
    prepared = true;
    // Index loop: StartChained may run synchronously and register further
    // hooks on *other* states, never re-entrantly on this vector.
    for (size_t i = 0; i < on_prepared.size(); ++i) on_prepared[i]();
    on_prepared.clear();
  }
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
  auto st = std::make_shared<PubState>();
  st->batch = std::move(batch);
  st->cb = std::move(cb);
  pipeline_stats_.publishes += 1;

  for (const auto& [rel, updates] : st->batch) {
    if (!service_->Relation(rel).ok()) {
      Finish(st, Status::InvalidArgument("publish to unknown relation " + rel));
      return st;
    }
    (void)updates;
  }

  // Chain only onto a predecessor that is still in flight: its in-memory
  // output is then by construction the newest epoch this participant can
  // know about. A *resolved* predecessor carries no such freshness (another
  // participant may have published since), so that falls back to the full
  // discovery path.
  if (prev && !prev->done) {
    pipeline_stats_.chained += 1;
    st->prev = std::move(prev);
    if (st->prev->prepared) {
      StartChained(st);
    } else {
      std::weak_ptr<PubState> weak = st;
      st->prev->on_prepared.push_back([this, weak] {
        if (Handle s = weak.lock()) StartChained(s);
      });
    }
    return st;
  }
  if (prev) pipeline_stats_.chain_fallbacks += 1;

  DiscoverEpoch(st, /*rounds_left=*/2);
  return st;
}

void Publisher::StartChained(Handle st) {
  Handle prev = st->prev;
  if (prev == nullptr || st->done) return;
  if (prev->done && !prev->final_status.ok()) {
    st->prev.reset();
    AbortOnPrev(st, prev->final_status);
    return;
  }
  // The predecessor's prepared output IS this publish's base: its new-epoch
  // coordinator records cover every relation, so discovery and the base
  // coordinator fetches are skipped entirely. The epoch claim launches now,
  // overlapping this publish's prepare stages AND the predecessor's writes.
  RestartAttempt(st, prev->new_epoch, prev->new_epoch + 1, prev->out_records);
}

void Publisher::RestartAttempt(
    Handle st, Epoch base, Epoch target,
    std::map<std::string, CoordinatorRecord> records) {
  ResetAttempt(st);
  st->records = std::move(records);
  st->base_epoch = base;
  st->new_epoch = target;
  StartClaim(st);
  FetchPages(st);
}

void Publisher::AbortOnPrev(Handle st, const Status& prev_status) {
  pipeline_stats_.aborted_on_prev += 1;
  Finish(st, Status::Aborted("pipeline predecessor failed: " +
                             prev_status.ToString()));
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
  struct Disc {
    Epoch max_epoch = 0;
    size_t outstanding = 0;
    size_t members = 0;
    size_t successes = 0;
    bool started = false;
  };
  auto disc = std::make_shared<Disc>();
  std::vector<net::NodeId> members;
  for (const auto& m : service_->snapshot().members()) members.push_back(m.node);
  disc->outstanding = members.size();
  disc->members = members.size();
  auto finish_discovery = [this, st, disc, rounds_left]() {
    if (disc->started) return;
    disc->started = true;
    if (disc->members > 0 && disc->members - disc->successes > 1 &&
        rounds_left > 0) {
      DiscoverEpoch(st, rounds_left - 1);
      return;
    }
    epoch_ = std::max(epoch_, disc->max_epoch);
    st->base_epoch = epoch_;
    st->new_epoch = st->base_epoch + 1;
    ClaimAndFetchBase(st, /*stall_left=*/4);
  };
  if (members.empty()) {
    finish_discovery();
    return;
  }
  for (net::NodeId m : members) {
    service_->Call(
        m, kGetMaxEpoch, {},
        [disc, finish_discovery](Status s, const std::string& reply) {
          if (s.ok()) {
            Reader r(reply);
            uint64_t e = 0;
            if (r.GetVarint64(&e).ok()) {
              disc->max_epoch = std::max<Epoch>(disc->max_epoch, e);
              disc->successes += 1;
            }
          }
          if (--disc->outstanding == 0) finish_discovery();
        },
        kEpochDiscoveryTimeoutUs);
  }
}

void Publisher::ClaimAndFetchBase(Handle st, int stall_left) {
  // Stage 1: coordinator records of every relation at the base epoch
  // (needed both for the copy-on-write page lookups and for carrying
  // unchanged relations forward to the new epoch). The epoch claim launches
  // concurrently — by the time the prepare stages finish, the claim outcome
  // is usually already in.
  auto rels = service_->RelationNames();
  if (rels.empty()) {
    Finish(st, Status::FailedPrecondition("no relations in catalog"));
    return;
  }
  StartClaim(st);
  st->outstanding = rels.size();
  for (const auto& rel : rels) {
    FetchBaseCoordinator(st, rel, st->base_epoch, /*walk_left=*/16,
                         stall_left);
  }
}

void Publisher::FetchBaseCoordinator(Handle st, const std::string& rel,
                                     Epoch epoch, int walk_left, int stall_left) {
  service_->GetCoordinator(
      rel, epoch,
      [this, st, rel, epoch, walk_left, stall_left](Status s,
                                                    CoordinatorRecord rec) {
        if (st->done) return;
        if (s.IsNotFound() && epoch > 0 && stall_left > 0) {
          // Right after a membership change the record may exist and simply
          // not have reached the reshuffled replica set yet: re-fetch the
          // SAME epoch after a re-replication-sized pause before trusting
          // the hole. (Delivered as a node task: dies with this node,
          // fail-stop safe.)
          service_->RunAfter(2 * sim::kMicrosPerSec,
                             [this, st, rel, epoch, walk_left, stall_left] {
                               FetchBaseCoordinator(st, rel, epoch, walk_left,
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
          FetchBaseCoordinator(st, rel, epoch - 1, walk_left - 1,
                               /*stall_left=*/1);
          return;
        }
        if (!s.ok() && st->first_error.ok()) st->first_error = s;
        if (s.ok()) st->records[rel] = std::move(rec);
        if (--st->outstanding == 0) {
          if (!st->first_error.ok()) {
            Finish(st, st->first_error);
            return;
          }
          FetchPages(st);
        }
      });
}

void Publisher::FetchPages(Handle st) {
  // Group each relation's updates by partition. Each tuple's placement hash
  // is computed here, once, and carried through the rest of the publish.
  for (auto& [rel, updates] : st->batch) {
    const RelationDef* def = service_->FindRelation(rel);
    std::map<uint32_t, PubState::PartitionWork> by_partition;
    for (const Update& u : updates) {
      std::string kb = EncodeTupleKey(def->schema, u.tuple);
      HashId h = PlacementHash(*def, kb);
      uint32_t part = PartitionIndexFor(h, def->num_partitions);
      PubState::PartitionWork& pw = by_partition[part];
      pw.relation = rel;
      pw.partition = part;
      pw.updates.push_back(&u);
      pw.update_keys.push_back(std::move(kb));
      pw.update_hashes.push_back(h);
    }
    // Partition -> current descriptor, built once per relation instead of a
    // linear scan over rec.pages for every touched partition.
    const CoordinatorRecord& rec = st->records[rel];
    std::map<uint32_t, const PageDescriptor*> desc_of;
    for (const PageDescriptor& d : rec.pages) desc_of[d.id.partition] = &d;
    for (auto& [part, pw] : by_partition) {
      auto d = desc_of.find(part);
      if (d != desc_of.end()) {
        pw.has_old_desc = true;
        pw.old_desc = *d->second;
      }
      st->parts.push_back(std::move(pw));
    }
  }

  // Stage 2: fetch the current page of each affected partition. The paper
  // locates it via the inverse node (§IV); here the base coordinator record
  // plays that role — its descriptor names the page, so we go straight to
  // the index node.
  //
  // Chained publishes: a descriptor at an uncommitted ancestor's epoch names
  // a page that may still be in flight to its index nodes — it MUST be taken
  // from that ancestor's in-memory output, which doubles as the pipeline
  // overlap win: these partitions cost no round trip at all. The walk covers
  // the whole live chain (a window-4 pipeline can reference pages from three
  // epochs back); ancestors whose chain link was already cleared have
  // committed, so their pages are durably fetchable over the network.
  auto page_from_chain = [&st](const PubState::PartitionWork& pw) -> const Page* {
    for (const PubState* anc = st->prev.get(); anc != nullptr;
         anc = anc->prev.get()) {
      if (pw.old_desc.id.epoch != anc->new_epoch) continue;
      for (const Page& page : anc->new_pages) {
        if (page.desc.id.relation == pw.relation &&
            page.desc.id.partition == pw.partition) {
          return &page;
        }
      }
      return nullptr;  // right epoch, page missing: fetch over the network
    }
    return nullptr;
  };
  st->outstanding = 1;  // guard against zero fetches
  for (size_t i = 0; i < st->parts.size(); ++i) {
    PubState::PartitionWork& pw = st->parts[i];
    if (!pw.has_old_desc) continue;
    if (const Page* cached = page_from_chain(pw)) {
      pw.old_page = *cached;
      continue;
    }
    st->outstanding += 1;
    service_->GetPage(pw.old_desc, [this, st, i](Status s, Page page) {
      if (!s.ok() && st->first_error.ok()) st->first_error = s;
      if (s.ok()) st->parts[i].old_page = std::move(page);
      if (--st->outstanding == 0) Apply(st);
    });
  }
  if (--st->outstanding == 0) Apply(st);
}

void Publisher::Apply(Handle st) {
  if (!st->first_error.ok()) {
    Finish(st, st->first_error);
    return;
  }

  for (PubState::PartitionWork& pw : st->parts) {
    const RelationDef* def = service_->FindRelation(pw.relation);
    // key bytes -> (epoch, hash) of the live version. Hashes come from the
    // old page (for carried-forward tuples) or from FetchPages (for
    // updates); nothing here computes SHA-1.
    struct Live {
      Epoch epoch;
      const HashId* hash;
    };
    std::map<std::string_view, Live> ids;
    for (size_t i = 0; i < pw.old_page.ids.size(); ++i) {
      ids[pw.old_page.ids[i].key_bytes] = {pw.old_page.ids[i].epoch,
                                           &pw.old_page.hashes[i]};
    }

    for (size_t j = 0; j < pw.updates.size(); ++j) {
      const Update* u = pw.updates[j];
      const std::string& kb = pw.update_keys[j];
      if (u->kind == Update::Kind::kDelete) {
        ids.erase(std::string_view(kb));
        // Delete tombstone: an empty-value data record at the new epoch. No
        // page ever lists it; it exists so data-node GC can tell "this key
        // was deleted at epoch e" apart from "version still live" and
        // reclaim the dead versions (then the tombstone itself). Writes
        // preserve batch order, so insert+delete of one key in one batch
        // resolves to whichever came last.
        st->tuple_writes.push_back(
            PubState::TupleWrite{pw.relation,
                                 TupleId{kb, st->new_epoch},
                                 std::string(),
                                 pw.update_hashes[j],
                                 def->replicate_everywhere});
        continue;
      }
      ids[kb] = {st->new_epoch, &pw.update_hashes[j]};
      Writer tw;
      EncodeTuple(u->tuple, &tw);
      st->tuple_writes.push_back(
          PubState::TupleWrite{pw.relation,
                               TupleId{kb, st->new_epoch},
                               tw.Release(),
                               pw.update_hashes[j],
                               def->replicate_everywhere});
    }

    Page page;
    page.desc.id = PageId{pw.relation, st->new_epoch, pw.partition};
    page.desc.num_partitions = def->num_partitions;
    // Sort by (hash, key) so data-node scans are one ordered pass — a
    // decorated sort over the precomputed hashes, not SHA-1 per comparison.
    struct Row {
      const HashId* hash;
      std::string_view key;
      Epoch epoch;
    };
    std::vector<Row> rows;
    rows.reserve(ids.size());
    for (const auto& [kb, live] : ids) rows.push_back({live.hash, kb, live.epoch});
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      if (*a.hash != *b.hash) return *a.hash < *b.hash;
      return a.key < b.key;
    });
    page.ids.reserve(rows.size());
    page.hashes.reserve(rows.size());
    for (const Row& row : rows) {
      page.ids.push_back(TupleId{std::string(row.key), row.epoch});
      page.hashes.push_back(*row.hash);
    }
    st->partition_nonempty[pw.relation][pw.partition] = !page.ids.empty();
    // Empty pages are still written: an empty version is what lets GC retire
    // a partition's last non-empty page. It carries no descriptor in the new
    // coordinator record.
    st->new_pages.push_back(std::move(page));
  }

  // The publish is now *prepared*: its output (new pages + coordinator
  // records) exists in memory, so a chained successor can begin its own
  // fetch/partition/apply stages — overlapping them with this publish's
  // writes and commit.
  BuildOutputs(st);
  st->FirePrepared();

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
    st->write_gate_open = true;
    MaybeIssue(st);
    return;
  }
  st->commit_prev = prev;  // retained for the commit gate
  if (prev->records_committed || prev->done) {
    st->prev.reset();
    ReleaseGate(st, prev);
    return;
  }
  std::weak_ptr<PubState> weak = st;
  prev->on_records_committed.push_back([this, weak] {
    Handle s = weak.lock();
    if (s == nullptr || s->done) return;
    Handle p = s->prev;
    s->prev.reset();
    if (p != nullptr) ReleaseGate(s, p);
  });
}

void Publisher::ReleaseGate(Handle st, Handle prev) {
  if (st->done) return;
  if (prev->done && !prev->final_status.ok()) {
    AbortOnPrev(st, prev->final_status);
    return;
  }
  if (prev->new_epoch != st->base_epoch) {
    // The predecessor lost an epoch race and re-based: it committed at a
    // later epoch than the one our prepared output was built against, so our
    // base coordinator records, page contents, epoch — and the claim round
    // we launched for it — are all stale. Re-base onto its FINAL output. Its
    // records are copied here (the hook runs before Finish releases them);
    // its pages are already durably committed, so the re-run fetches them
    // over the network. Any fragments our stale claim stored sit at an
    // epoch at or below the predecessor's committed one — no future claim
    // ever targets it, and GC sweeps it.
    pipeline_stats_.chain_rebases += 1;
    if (written_epochs_.count(st->new_epoch) == 0) {
      ReleaseClaim(st->new_epoch, st->claim_nonce);
    }
    if (prev->done) {
      // The predecessor already RESOLVED — Finish released its out_records,
      // so the in-memory copy path would hand us an EMPTY base and silently
      // drop every relation's carried-forward state. Its committed records
      // are durable; re-fetch them over the network instead.
      Rebase(st, prev->new_epoch);
      return;
    }
    RestartAttempt(st, prev->new_epoch, prev->new_epoch + 1,
                   prev->out_records);
    return;
  }
  st->write_gate_open = true;
  MaybeIssue(st);
}

void Publisher::ResetAttempt(Handle st) {
  st->records.clear();
  st->parts.clear();
  st->tuple_writes.clear();
  st->new_pages.clear();
  st->out_records.clear();
  st->partition_nonempty.clear();
  st->first_error = Status::OK();
  st->outstanding = 0;
  // Late-chaining successors must wait for the re-based outputs.
  st->prepared = false;
  st->write_gate_open = false;
  // Invalidate any in-flight claim round (its completion becomes a no-op).
  st->claim_round += 1;
  st->claim_state = PubState::ClaimState::kNone;
  st->claim_nonce = 0;
  st->claim_winner = 0;
  st->claim_split = false;
  st->claim_error = Status::OK();
  st->claim_attempted = 0;
  st->claimed_epoch = 0;
  st->writes_issued = false;
  st->claim_stall_left = 6;
  st->claim_fenced = false;
  st->fence_rounds_left = 2;
  st->fence_target = 0;
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
  const Epoch epoch = st->new_epoch;
  const uint64_t round_id = ++st->claim_round;
  st->claim_state = PubState::ClaimState::kInFlight;
  st->claim_attempted = epoch;
  auto replicas =
      service_->snapshot().ReplicasOf(ClaimHash(epoch), service_->replication());
  if (replicas.empty()) {  // degenerate single-node teardown; nothing to race
    st->claim_state = PubState::ClaimState::kGranted;
    st->claimed_epoch = epoch;
    MaybeIssue(st);
    return;
  }
  // The requester needs EVERY replica to grant: under the single-failure
  // assumption any two claim rounds for one epoch overlap on at least one
  // live replica, so two full claims for the same epoch cannot both be
  // granted (the same overlap argument epoch discovery already relies on).
  struct Round {
    size_t outstanding = 0;
    size_t granted = 0;
    bool any_taken = false;
    bool any_fenced = false;   // a replica holds the BURNED marker
    ParticipantId winner = 0;  // smallest winner named by a refusal
    Status error;              // first non-taken failure
  };
  auto round = std::make_shared<Round>();
  round->outstanding = replicas.size();
  st->claim_nonce = ++claim_seq_;
  std::string body = ClaimBody(epoch, st->claim_nonce);
  for (net::NodeId target : replicas) {
    service_->Call(
        target, kClaimEpoch, body,
        [this, st, round, round_id, epoch](Status s, const std::string& reply) {
          if (s.ok()) {
            round->granted += 1;
          } else if (s.IsFenced()) {
            round->any_fenced = true;
          } else if (s.IsEpochTaken()) {
            round->any_taken = true;
            Reader r(reply);
            ClaimInstance holder;
            if (ClaimInstance::DecodeFrom(&r, &holder).ok() &&
                (round->winner == 0 || holder.participant < round->winner)) {
              round->winner = holder.participant;
            }
          } else if (round->error.ok()) {
            round->error = s;
          }
          if (--round->outstanding > 0) return;
          if (st->done || round_id != st->claim_round) return;  // stale round
          if (round->any_fenced) {
            // The epoch is BURNED: nobody — this participant included — may
            // ever hold it again. Routed through the kLost path so fragments
            // stored on grant-side replicas are released before skipping.
            st->claim_state = PubState::ClaimState::kLost;
            st->claim_fenced = true;
            st->claim_split = round->granted > 0;
          } else if (round->any_taken) {
            pipeline_stats_.epoch_conflicts += 1;
            st->claim_state = PubState::ClaimState::kLost;
            st->claim_winner = round->winner;
            st->claim_split = round->granted > 0;
          } else if (!round->error.ok()) {
            st->claim_state = PubState::ClaimState::kError;
            st->claim_error = round->error;
          } else {
            st->claim_state = PubState::ClaimState::kGranted;
            st->claimed_epoch = epoch;
            ScheduleClaimRefresh(st, round_id);
          }
          MaybeIssue(st);
        },
        kEpochDiscoveryTimeoutUs);
  }
}

void Publisher::MaybeIssue(Handle st) {
  // Writes launch once all three hold: outputs prepared, write gate open
  // (predecessor's records acked), claim round resolved. The claim usually
  // resolves first — it was launched with the prepare stages.
  if (st->done || !st->prepared || !st->write_gate_open || st->writes_issued) {
    return;
  }
  switch (st->claim_state) {
    case PubState::ClaimState::kNone:
    case PubState::ClaimState::kInFlight:
      return;  // claim completion re-enters
    case PubState::ClaimState::kGranted:
      IssueWrites(st);
      return;
    case PubState::ClaimState::kError:
      // A claim replica was unreachable: fail the batch (retryable);
      // fragments we stored are released by Finish.
      Finish(st, st->claim_error);
      return;
    case PubState::ClaimState::kLost: {
      bool split = st->claim_split;
      st->claim_state = PubState::ClaimState::kNone;  // consumed
      if (st->claim_fenced) {
        st->claim_fenced = false;
        if (split && written_epochs_.count(st->new_epoch) == 0) {
          ReleaseClaim(st->new_epoch, st->claim_nonce);
        }
        if (written_epochs_.count(st->new_epoch) > 0) {
          // WE are the fenced instance at an epoch we hold writes at. The
          // burn may be PARTIAL (a fence round that granted on some replicas
          // and was refused on others leaves us unable to either commit or
          // safely abandon the epoch). Escalate a SELF-fence: if it reaches
          // unanimity, the purge broadcast removes our orphans cluster-wide
          // and FenceEpoch's grant path unpins and skips; if a replica
          // refuses because the epoch committed, the re-claim loop recommits
          // it. Out of fence budget -> retryable failure that KEEPS the pin
          // and the claim, so the session's same-batch retry resolves it.
          if (st->fence_rounds_left-- > 0) {
            st->fence_target = participant_;
            FenceEpoch(st, st->new_epoch);
          } else {
            Finish(st,
                   Status::Unavailable(
                       "epoch " + std::to_string(st->new_epoch) +
                       " is burn-promised under this participant's writes"));
          }
        } else {
          SkipFenced(st, st->new_epoch);
        }
        return;
      }
      LoseEpoch(st, st->new_epoch, split);
      return;
    }
  }
}

void Publisher::LoseEpoch(Handle st, Epoch contested, bool split) {
  if (st->done) return;
  // Our fragments (replicas that granted before another writer was stored)
  // must not wedge the epoch for everyone else. We issued no writes (claims
  // precede writes), so releasing is always safe here — and the release is
  // instance-exact (nonce), so it can never unpin a later attempt.
  if (split && written_epochs_.count(contested) == 0) {
    ReleaseClaim(contested, st->claim_nonce);
  }
  // There is deliberately NO takeover of another participant's claim — not
  // even of a split or seemingly-dead one. Any takeover rule that looks
  // safe locally breaks under membership churn (a kill reshuffles the claim
  // replica set, so a "split" view can coexist with a full claim on the old
  // set whose holder is writing). Instead: wait for the holder to commit
  // (then re-base) or to release/retry (then re-claim). Split-claim races
  // where nobody won resolve themselves because AwaitWinner's stall delay
  // carries a deterministic per-participant phase offset — contenders
  // re-claim at distinct times, and the first one wins the whole slot.
  AwaitWinner(st, contested);
}

void Publisher::AwaitWinner(Handle st, Epoch contested) {
  if (st->done) return;
  if (st->claim_stall_left-- <= 0) {
    // The winner has neither committed nor released within the stall budget.
    // With fencing enabled and a named owner, escalate: ask the claim
    // replicas to retire the claim as abandoned (they refuse if the owner is
    // merely slow — its heartbeat keeps the freshness clock warm). Without
    // fencing (or out of fence budget), fail the batch; the session's
    // same-batch retry discipline re-runs discovery + claim later, and the
    // winner's own retry (or its release) eventually unwedges the epoch.
    if (fence_after_us_ > 0 && st->fence_target != 0 &&
        st->fence_rounds_left-- > 0) {
      FenceEpoch(st, contested);
      return;
    }
    Finish(st, Status::Unavailable(
                   "epoch " + std::to_string(contested) +
                   " claimed by another participant that has not committed"));
    return;
  }
  // Probe the claim's `committed` flag — NOT a coordinator record. A torn
  // commit leaves partial records at the contested epoch, and basing on
  // those would absorb the winner's uncommitted (and possibly cross-attempt
  // inconsistent) state; the confirm flag is flipped only after EVERY record
  // of the epoch was acked.
  Writer w;
  w.PutVarint64(contested);
  auto replicas = service_->snapshot().ReplicasOf(ClaimHash(contested),
                                                  service_->replication());
  service_->Call(
      replicas.empty() ? service_->node() : replicas.front(), kGetEpochClaim,
      w.Release(),
      [this, st, contested](Status s, const std::string& reply) {
        if (st->done) return;
        if (s.ok()) {
          Reader r(reply);
          EpochClaimRecord claim;
          if (EpochClaimRecord::DecodeFrom(&r, &claim).ok()) {
            if (claim.committed) {
              Rebase(st, contested);
              return;
            }
            if (claim.fenced && claim.purged) {
              // The fence reached unanimity: the epoch is burned for
              // everyone — skip past it with the base intact.
              SkipFenced(st, contested);
              return;
            }
            // Remember the stalled owner: a fence round must name the exact
            // participant it retires (the replicas refuse a mismatched
            // target, so a hand-off between owners can never be mis-fenced).
            // A bare burn promise (fenced, not purged) lands here too — it
            // is NOT skippable (the epoch may yet commit); waiting and, on
            // stall, re-fencing it to unanimity is what resolves it.
            if (claim.participant != 0) st->fence_target = claim.participant;
          }
        }
        // Not committed yet: re-claim after a pause. If the winner's publish
        // failed and released the claim, the re-claim is granted and this
        // publish proceeds at its ORIGINAL epoch with its prepared outputs
        // intact; otherwise the refusal routes back here with one less
        // stall.
        ReclaimAfterPause(st);
      },
      kEpochDiscoveryTimeoutUs);
}

void Publisher::FenceEpoch(Handle st, Epoch contested) {
  if (st->done) return;
  // One kFenceEpoch per claim replica. Every replica must grant — the same
  // all-replicas rule claims use, and for the same overlap reason: a fence
  // round and the owner's refresh round share at least one live replica, so
  // a refreshing owner is always seen by the fence round and refused there.
  auto replicas = service_->snapshot().ReplicasOf(ClaimHash(contested),
                                                  service_->replication());
  if (replicas.empty()) {  // degenerate teardown: nothing holds the epoch
    SkipFenced(st, contested);
    return;
  }
  struct FenceRound {
    size_t outstanding = 0;
    size_t total = 0;
    size_t granted = 0;
    bool have_instance = false;
    ParticipantId fenced_participant = 0;
    uint64_t fenced_nonce = 0;
  };
  auto round = std::make_shared<FenceRound>();
  round->outstanding = replicas.size();
  round->total = replicas.size();
  round->fenced_participant = st->fence_target;
  Writer w;
  w.PutVarint64(contested);
  w.PutVarint32(participant_);       // fencer (audit trail)
  w.PutVarint32(st->fence_target);   // the instance being retired
  w.PutVarint64(fence_after_us_);    // staleness TTL the replicas check
  std::string body = w.Release();
  for (net::NodeId target : replicas) {
    service_->Call(
        target, kFenceEpoch, body,
        [this, st, round, contested](Status s, const std::string& reply) {
          if (s.ok()) {
            round->granted += 1;
            if (!round->have_instance) {
              // Grant replies name the exact fenced instance; the purge
              // broadcast carries it so stragglers refuse its writes too.
              Reader r(reply);
              ClaimInstance fenced;
              if (ClaimInstance::DecodeFrom(&r, &fenced).ok()) {
                round->have_instance = true;
                round->fenced_participant = fenced.participant;
                round->fenced_nonce = fenced.nonce;
              }
            }
          }
          if (--round->outstanding > 0) return;
          if (st->done) return;
          if (round->granted == round->total) {
            pipeline_stats_.fences += 1;
            // The epoch is burned. Tell EVERY member (not just the claim
            // replicas) so orphan tuple/page/coordinator versions the
            // abandoned writer landed are purged cluster-wide and its late
            // writes are refused wherever they arrive. One-way best-effort:
            // replica pushes piggyback the burned set for any node missed.
            Writer pw;
            EpochInstance{contested, round->fenced_participant,
                          round->fenced_nonce}
                .EncodeTo(&pw);
            for (const auto& m : service_->snapshot().members()) {
              service_->SendOneWay(m.node, kPurgeEpoch, pw.data());
            }
            // Unanimity also settles a SELF-fence: with the purge broadcast
            // out, our own partial writes at the burned epoch are doomed
            // everywhere, so the pin (which exists to keep them from turning
            // into shadowing orphans) can be dropped before skipping past.
            written_epochs_.erase(contested);
            SkipFenced(st, contested);
            return;
          }
          // Any refusal aborts the fence: the owner refreshed (merely slow),
          // the epoch committed/changed hands, or a replica was unreachable
          // (then the overlap argument cannot be relied on). Resume waiting
          // with a short stall budget — the next exhaustion may retry the
          // fence if budget remains.
          st->claim_stall_left = 2;
          ReclaimAfterPause(st);
        },
        kEpochDiscoveryTimeoutUs);
  }
}

void Publisher::SkipFenced(Handle st, Epoch burned) {
  if (st->done) return;
  // Skips have their own (deliberately deep) budget: each burned epoch costs
  // one claim round and nothing else, and new_epoch only ever moves forward,
  // so the loop terminates at the far edge of any burn region. Only a
  // pathological fence storm fails the publish here.
  if (--st->fence_skip_left < 0) {
    Finish(st, Status::Aborted("fencing: burned-epoch skip budget exhausted"));
    return;
  }
  pipeline_stats_.fenced_skips += 1;
  // Unlike Rebase, the base is still valid — a burned epoch committed
  // nothing, so this publish's base records carry forward unchanged and only
  // the target epoch moves past the burn. (In-memory re-base, like
  // ReleaseGate's chain path.)
  RestartAttempt(st, st->base_epoch, burned + 1, std::move(st->records));
}

void Publisher::ReclaimAfterPause(Handle st) {
  // The per-participant phase offset makes split-claim contenders re-claim
  // at distinct times, so the earliest one wins the whole slot.
  sim::SimTime pause = 2 * sim::kMicrosPerSec +
                       static_cast<sim::SimTime>(participant_) *
                           (sim::kMicrosPerSec / 4);
  service_->RunAfter(pause, [this, st] { StartClaim(st); });
}

std::string Publisher::ClaimBody(Epoch epoch, uint64_t nonce) const {
  Writer w;
  ClaimRequest{epoch, ClaimInstance{participant_, service_->node(), nonce}}
      .EncodeTo(&w);
  return w.Release();
}

void Publisher::ScheduleClaimRefresh(Handle st, uint64_t round_id) {
  if (fence_after_us_ == 0) return;
  sim::SimTime period = std::max<sim::SimTime>(1, fence_after_us_ / 3);
  service_->RunAfter(period, [this, st, round_id] {
    // Only the round that was granted refreshes; a re-base, loss, or
    // resolution since then makes this heartbeat a no-op.
    if (st->done || round_id != st->claim_round ||
        st->claim_state != PubState::ClaimState::kGranted) {
      return;
    }
    // Same instance as the granted round: an idempotent re-grant.
    std::string body = ClaimBody(st->claimed_epoch, st->claim_nonce);
    auto replicas = service_->snapshot().ReplicasOf(ClaimHash(st->claimed_epoch),
                                                    service_->replication());
    struct Beat {
      size_t outstanding = 0;
      bool fenced = false;
    };
    auto beat = std::make_shared<Beat>();
    beat->outstanding = replicas.size();
    if (replicas.empty()) {
      ScheduleClaimRefresh(st, round_id);
      return;
    }
    for (net::NodeId target : replicas) {
      service_->Call(
          target, kClaimEpoch, body,
          [this, st, round_id, beat](Status s, const std::string&) {
            if (s.IsFenced()) beat->fenced = true;
            if (--beat->outstanding > 0) return;
            if (st->done || round_id != st->claim_round) return;
            if (beat->fenced) {
              // Lost a fence race while holding the claim (we looked
              // abandoned long enough). Writes issued -> the zombie path:
              // every further write/commit at the burned epoch is refused
              // with kFenced, so the pipeline surfaces the terminal error on
              // its own — just stop refreshing. No writes yet -> route
              // through the kLost/claim_fenced path, which MaybeIssue
              // consumes only once the prepare stages are quiescent (acting
              // here could collide with in-flight page fetches).
              if (!st->writes_issued) {
                st->claim_state = PubState::ClaimState::kLost;
                st->claim_fenced = true;
                st->claim_split = true;  // we held a grant; release fragments
                MaybeIssue(st);
              }
              return;
            }
            ScheduleClaimRefresh(st, round_id);
          },
          kEpochDiscoveryTimeoutUs);
    }
  });
}

void Publisher::Rebase(Handle st, Epoch base) {
  if (st->done) return;
  if (--st->rebase_left < 0) {
    Finish(st, Status::Aborted("epoch contention: rebase budget exhausted"));
    return;
  }
  pipeline_stats_.rebases += 1;
  ResetAttempt(st);
  st->base_epoch = base;
  st->new_epoch = base + 1;
  ClaimAndFetchBase(st, /*stall_left=*/3);
}

void Publisher::BuildOutputs(Handle st) {
  // New-epoch coordinator record for EVERY relation: carry forward untouched
  // pages, add the new versions of touched non-empty partitions. Built once,
  // pre-write: the commit stage serializes these, and a chained successor
  // bases itself on them.
  for (const auto& rel : service_->RelationNames()) {
    CoordinatorRecord rec;
    rec.relation = rel;
    rec.epoch = st->new_epoch;
    rec.participant = participant_;
    // Every relation's base record must be present: committing from a
    // default-constructed base would silently drop the relation's entire
    // carried-forward state at this epoch.
    ORC_CHECK(st->records.count(rel) > 0,
              "publish base is missing a relation's coordinator record");
    const CoordinatorRecord& old = st->records[rel];
    auto changed = st->partition_nonempty.find(rel);
    for (const PageDescriptor& d : old.pages) {
      bool touched = changed != st->partition_nonempty.end() &&
                     changed->second.count(d.id.partition) > 0;
      if (!touched) rec.pages.push_back(d);
    }
    if (changed != st->partition_nonempty.end()) {
      const RelationDef* def = service_->FindRelation(rel);
      for (const auto& [part, nonempty] : changed->second) {
        if (!nonempty) continue;
        PageDescriptor d;
        d.id = PageId{rel, st->new_epoch, part};
        d.num_partitions = def->num_partitions;
        rec.pages.push_back(d);
      }
    }
    std::sort(rec.pages.begin(), rec.pages.end(),
              [](const PageDescriptor& a, const PageDescriptor& b) {
                return a.id.partition < b.id.partition;
              });
    st->out_records[rel] = std::move(rec);
  }
}

void Publisher::IssueWrites(Handle st) {
  // Stage 3: tuple versions and page versions. Coordinator records — the
  // commit point — only go out once every write here has succeeded
  // (WriteCoordinators), so a torn publish can leave orphan tuples/pages at
  // the uncommitted epoch but never a coordinator record referencing state
  // that was not fully written. Orphans are overwritten byte-identically
  // when the publisher retries the batch, and GC retires them eventually.
  st->outstanding = 1;
  auto track = [st](Status s) {
    if (!s.ok() && st->first_error.ok()) st->first_error = s;
  };
  auto dec = [this, st]() {
    if (--st->outstanding == 0) {
      if (!st->first_error.ok()) {
        Finish(st, st->first_error);
      } else {
        WriteCoordinators(st);
      }
    }
  };

  const auto& snap = service_->snapshot();
  std::vector<net::NodeId> everyone;
  for (const auto& m : snap.members()) everyone.push_back(m.node);

  st->writes_issued = true;
  written_epochs_.insert(st->new_epoch);

  // 3a: tuple versions, coalesced into ONE multi-relation kPutTuples frame
  // per destination node — however many relations and partitions the batch
  // touches, each replica sees a single RPC. The wire format leads each
  // tuple with its placement hash so receivers key their stores without
  // rehashing (per relation: rel, n, then hash(20B BE), key, epoch, bytes).
  std::map<net::NodeId, std::map<std::string_view, Writer>> per_node_rel;
  std::map<net::NodeId, std::map<std::string_view, uint64_t>> per_node_count;
  std::string hash_be;  // reused 20-byte scratch: no per-tuple allocation
  for (const PubState::TupleWrite& tw : st->tuple_writes) {
    hash_be.clear();
    tw.hash.AppendBigEndian(&hash_be);
    std::vector<net::NodeId> targets =
        tw.everywhere ? everyone : snap.ReplicasOf(tw.hash, service_->replication());
    for (net::NodeId t : targets) {
      Writer& w = per_node_rel[t][tw.relation];
      w.PutRaw(hash_be.data(), hash_be.size());
      w.PutString(tw.id.key_bytes);
      w.PutVarint64(tw.id.epoch);
      w.PutString(tw.tuple_bytes);
      per_node_count[t][tw.relation] += 1;
      pipeline_stats_.tuple_records += 1;
    }
  }
  for (auto& [target, rels] : per_node_rel) {
    Writer body;
    body.PutVarint64(rels.size());
    for (auto& [rel, w] : rels) {
      body.PutString(rel);
      body.PutVarint64(per_node_count[target][rel]);
      body.PutRaw(w.data().data(), w.size());
    }
    st->outstanding += 1;
    pipeline_stats_.put_frames += 1;
    service_->Call(target, kPutTuples, body.Release(),
                   [track, dec](Status s, const std::string&) {
                     track(s);
                     dec();
                   });
  }

  // 3b: new page versions to their index nodes.
  for (const Page& page : st->new_pages) {
    const RelationDef* def = service_->FindRelation(page.desc.id.relation);
    Writer w;
    page.EncodeTo(&w);
    std::vector<net::NodeId> targets =
        def->replicate_everywhere
            ? everyone
            : snap.ReplicasOf(page.desc.home(), service_->replication());
    st->outstanding += 1;
    service_->CallAll(targets, kPutPage, w.data(), [track, dec](Status s) {
      track(s);
      dec();
    });
  }

  dec();
}

void Publisher::WriteCoordinators(Handle st) {
  // Commit gate: a chained publish commits only after its predecessor fully
  // resolved (including the confirm round, which overlapped our writes). A
  // predecessor that failed at any stage aborts us here, BEFORE our commit —
  // the fail-the-suffix contract; our issued writes stay pinned by our claim
  // and are rewritten byte-identically by the same-batch retry.
  Handle cp = st->commit_prev;
  if (cp != nullptr && !cp->done) {
    std::weak_ptr<PubState> weak = st;
    cp->on_done.push_back([this, weak] {
      Handle s = weak.lock();
      if (s == nullptr || s->done) return;
      CommitAfterPrev(s);
    });
    return;
  }
  CommitAfterPrev(st);
}

void Publisher::CommitAfterPrev(Handle st) {
  if (st->done) return;
  Handle cp = st->commit_prev;
  st->commit_prev.reset();
  if (cp != nullptr && !cp->final_status.ok()) {
    AbortOnPrev(st, cp->final_status);
    return;
  }
  const auto& snap = service_->snapshot();
  st->outstanding = 1;
  auto track = [st](Status s) {
    // A kEpochTaken refusal outranks transient errors: it means another
    // participant committed this epoch and this publish must re-base, not
    // merely retry. Likewise kFenced — the epoch was burned out from under
    // this publish mid-commit and the batch must move to a fresh epoch.
    if (s.IsEpochTaken() || s.IsFenced()) {
      st->first_error = s;
    } else if (!s.ok() && st->first_error.ok()) {
      st->first_error = s;
    }
  };
  auto dec = [this, st]() {
    if (--st->outstanding > 0) return;
    if (st->first_error.IsEpochTaken()) {
      // Commit-time contention (the backstop gate): another writer committed
      // our epoch despite the claim — possible only when the claim replica
      // set was wiped out by simultaneous membership churn. Our claim is
      // moot; re-base onto the committed epoch and re-publish the batch.
      pipeline_stats_.epoch_conflicts += 1;
      ReleaseClaim(st->new_epoch, st->claim_nonce);
      st->claim_attempted = 0;
      Rebase(st, st->new_epoch);
      return;
    }
    if (!st->first_error.ok()) {
      Finish(st, st->first_error);
      return;
    }
    // Every coordinator record acked: successors may start WRITING now —
    // their commits still wait for our confirm via the commit gate.
    st->FireRecordsCommitted();
    ConfirmEpoch(st);
  };

  // Commit: the prepared coordinator records for EVERY relation at the new
  // epoch (constructed in BuildOutputs, before the writes went out).
  for (const auto& [rel, rec] : st->out_records) {
    Writer w;
    rec.EncodeTo(&w);
    auto replicas = snap.ReplicasOf(CoordinatorHash(rel, st->new_epoch),
                                    service_->replication());
    st->outstanding += 1;
    service_->CallAll(replicas, kPutCoordinator, w.data(), [track, dec](Status s) {
      track(s);
      dec();
    });
  }

  dec();
}

void Publisher::ConfirmEpoch(Handle st) {
  if (st->done) return;
  // The commit is durable (every coordinator record acked); publish the fact
  // to the claim replicas so discovery reports this epoch as the frontier.
  // Runs BEFORE the user callback resolves: a participant that observes its
  // ticket committed is guaranteed the next discovery sees the epoch.
  auto replicas = service_->snapshot().ReplicasOf(ClaimHash(st->new_epoch),
                                                  service_->replication());
  if (replicas.empty()) {
    Finish(st, Status::OK());
    return;
  }
  service_->CallAll(replicas, kConfirmEpoch,
                    ClaimBody(st->new_epoch, st->claim_nonce),
                    [this, st](Status s) { Finish(st, s); });
}

void Publisher::Finish(Handle st, Status status) {
  if (st->done) return;
  st->done = true;
  st->final_status = status;
  if (status.ok()) {
    st->committed = true;
    // The frontier passed every epoch at or below this commit: our partial
    // writes there (if any) are either this very commit or superseded by it,
    // and those epochs can never be claimed again.
    written_epochs_.erase(written_epochs_.begin(),
                          written_epochs_.upper_bound(st->new_epoch));
    epoch_ = std::max(epoch_, st->new_epoch);
    // Coordinator role: advertise this PARTICIPANT's GC low-watermark. The
    // storage nodes retire below the min across active participants, so a
    // mark of 0 (committed epoch still inside the keep window) registers the
    // participant and holds retirement back rather than being skipped.
    // One-way and best-effort — a node that misses it catches up on the next
    // publish or replica push (which piggybacks the participant table).
    if (gc_keep_epochs_ > 0) {
      Epoch w = st->new_epoch > gc_keep_epochs_ ? st->new_epoch - gc_keep_epochs_
                                                : 0;
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
    written_epochs_.erase(st->new_epoch);
  } else if (st->claim_attempted != 0 && !st->writes_issued &&
             written_epochs_.count(st->claim_attempted) == 0) {
    // The failed publish holds a claim (or fragments) at an epoch THIS
    // PARTICIPANT never wrote to — by any attempt, not just this one;
    // release so other participants are not wedged waiting for a commit
    // that will never come. A written-at epoch keeps its claim instead: the
    // pinned epoch guarantees this participant's same-batch retry recommits
    // the SAME epoch over the partial writes (byte-identical), which is
    // what keeps the GC sweep's newest-version rule safe — releasing would
    // let another writer take the epoch and turn the partial writes into
    // shadowing orphans.
    ReleaseClaim(st->claim_attempted, st->claim_nonce);
  }
  // Continuation hooks fire before the user callback: a successor blocked on
  // this publish learns its fate (and starts writing, or aborts) first.
  if (!st->prepared) st->FirePrepared();  // waiters observe done + status
  if (!st->records_committed) st->FireRecordsCommitted();  // ditto (failures)
  for (size_t i = 0; i < st->on_done.size(); ++i) st->on_done[i]();
  st->on_done.clear();
  st->prev.reset();
  st->commit_prev.reset();

  // Release the heavy state now rather than at handle destruction: a
  // client::Session keeps the last handle around as its chain tail, and
  // nothing may chain onto (or read from) a resolved publish.
  st->batch.clear();
  st->parts.clear();
  st->tuple_writes.clear();
  st->new_pages.clear();
  st->records.clear();
  st->out_records.clear();
  st->partition_nonempty.clear();

  auto cb = std::move(st->cb);
  st->cb = nullptr;
  cb(status, status.ok() ? st->new_epoch : 0);
}

}  // namespace orchestra::storage
