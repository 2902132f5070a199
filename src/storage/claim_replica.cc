#include "storage/claim_replica.h"

#include <algorithm>
#include <limits>

#include "common/strings.h"
#include "storage/keys.h"

namespace orchestra::storage {

namespace {

Status Refusal(const char* why, Epoch epoch, ParticipantId participant) {
  return Status::EpochTaken("epoch " + std::to_string(epoch) + why +
                            std::to_string(participant));
}

}  // namespace

Result<EpochClaimRecord> ClaimReplica::Load(Epoch epoch) const {
  ORC_ASSIGN_OR_RETURN(std::string_view bytes,
                       store_->GetView(keys::EpochClaim(epoch)));
  Reader r(bytes);
  EpochClaimRecord rec;
  ORC_RETURN_IF_ERROR(EpochClaimRecord::DecodeFrom(&r, &rec));
  return rec;
}

void ClaimReplica::Put(Epoch epoch, const EpochClaimRecord& rec) {
  Writer w;
  rec.EncodeTo(&w);
  store_->Put(keys::EpochClaim(epoch), w.data()).ok();
}

ClaimReplica::Slot ClaimReplica::SlotOf(Epoch epoch, EpochClaimRecord* rec) const {
  auto loaded = Load(epoch);
  *rec = loaded.ValueOr({});
  if (loaded.ok() && rec->committed) return Slot::kConfirmed;
  if (auto b = burned_.find(epoch); b != burned_.end()) {
    // GC may have retired the record; the burned table outlives it.
    if (!loaded.ok()) {
      *rec = EpochClaimRecord{b->second.participant, 0, false, b->second.nonce,
                              /*fenced=*/true, /*purged=*/true};
    }
    return Slot::kBurned;
  }
  if (!loaded.ok()) return Slot::kEmpty;
  if (rec->fenced) return rec->purged ? Slot::kBurned : Slot::kPromised;
  return Slot::kClaimed;
}

ClaimReplica::Reply ClaimReplica::Answer(net::NodeId to, uint64_t req_id,
                                         const ClaimProbeAnswer& answer) {
  Writer w;
  answer.EncodeTo(&w);
  return Reply{to, req_id, Status::OK(), w.Release()};
}

ClaimProbeAnswer::Outcome ClaimReplica::OutcomeOf(Slot slot) {
  switch (slot) {
    case Slot::kEmpty:
      return ClaimProbeAnswer::Outcome::kEmpty;
    case Slot::kClaimed:
      return ClaimProbeAnswer::Outcome::kHeld;
    case Slot::kPromised:
      return ClaimProbeAnswer::Outcome::kPromised;
    case Slot::kConfirmed:
      return ClaimProbeAnswer::Outcome::kConfirmed;
    case Slot::kBurned:
      break;
  }
  return ClaimProbeAnswer::Outcome::kBurned;
}

void ClaimReplica::Settle(Epoch epoch, sim::SimTime now, Replies* out) {
  auto it = held_.find(epoch);
  if (it == held_.end()) return;
  EpochClaimRecord rec;
  const Slot slot = SlotOf(epoch, &rec);
  std::vector<HeldProbe> still;
  uint32_t rank = 0;
  for (const HeldProbe& p : it->second) {
    ClaimProbeAnswer::Outcome outcome;
    if (p.slot != slot) {
      outcome = OutcomeOf(slot);
    } else if (p.until <= now) {
      // An unchanged slot answers kHeld even under a burn promise: the
      // waiter then spends a stall instead of probing the promise forever.
      outcome = ClaimProbeAnswer::Outcome::kHeld;
    } else {
      still.push_back(p);
      continue;
    }
    out->push_back(Answer(p.from, p.req_id, {outcome, /*waited=*/true, rank++, rec}));
  }
  if (still.empty()) {
    held_.erase(it);
  } else {
    it->second = std::move(still);
  }
}

void ClaimReplica::Wake(Epoch epoch, Replies* out) {
  Settle(epoch, std::numeric_limits<sim::SimTime>::min(), out);
}

size_t ClaimReplica::held_count() const {
  size_t n = 0;
  for (const auto& [epoch, probes] : held_) n += probes.size();
  return n;
}

ClaimReplica::Replies ClaimReplica::Claim(net::NodeId from, uint64_t req_id,
                                          const ClaimRequest& req,
                                          sim::SimTime now) {
  // The pre-write serialization point of multi-writer publishing. Grant
  // rules, in order:
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
  // split races resolve through the publishers' re-claim phases (see
  // Publisher::AwaitWinner).
  const Epoch epoch = req.epoch;
  const ClaimInstance& claimant = req.claimant;
  Replies out;
  // `committed` is flipped by kConfirmEpoch once the epoch's coordinator
  // records are all written; an idempotent re-grant preserves it (a
  // publisher retrying a publish that failed after its commit round must
  // not un-commit the epoch).
  auto grant = [&](bool committed, uint64_t stored_nonce) {
    Put(epoch, EpochClaimRecord{claimant.participant, claimant.node, committed,
                                stored_nonce});
    // Every grant (including the owner's periodic refresh re-grants)
    // resets the staleness TTL.
    touched_[epoch] = now;
    // A grant settles no held probe: probes are held only on a claimed or
    // promised slot, and a grant fills an empty slot or re-grants a claimed
    // (or committed) one as it was.
    out.push_back(Reply{from, req_id, Status::OK(), {}});
    return out;
  };
  auto refuse = [&](Status st, const ClaimInstance& holder) {
    counters_->claims_refused += 1;
    Writer wb;
    holder.EncodeTo(&wb);
    out.push_back(Reply{from, req_id, std::move(st), wb.Release()});
    return out;
  };
  // Unanimity-table backstop: a burned epoch stays refused even after its
  // claim record was GC'd below the watermark (the in-memory burned set
  // outlives the record; pushes and kPurgeEpoch keep re-seeding it).
  if (auto burned = burned_.find(epoch); burned != burned_.end()) {
    return refuse(Status::Fenced("epoch " + std::to_string(epoch) +
                                 " burned by abandonment fencing"),
                  ClaimInstance{burned->second.participant, 0,
                                burned->second.nonce});
  }
  auto loaded = Load(epoch);
  if (!loaded.ok()) return grant(false, claimant.nonce);  // empty or malformed
  const EpochClaimRecord& stored = *loaded;
  if (stored.fenced && stored.purged) {
    // Authoritative burn (the fence reached unanimity): refused for
    // EVERYONE, owner included (a zombie resurrecting its fenced epoch is
    // exactly what the burn prevents). Contenders skip past it.
    return refuse(Status::Fenced("epoch " + std::to_string(epoch) +
                                 " burned by abandonment fencing"),
                  stored.instance());
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
    return refuse(Refusal(" burn-promised under participant ", epoch,
                          stored.participant),
                  stored.instance());
  }
  if (stored.participant == claimant.participant) {
    // Idempotent re-grant. The stored nonce only moves FORWARD (attempt
    // nonces are monotonic per publisher): a DELAYED claim from an old
    // attempt must not roll the instance back, or the old attempt's equally
    // delayed release could match again and unpin the epoch the newest
    // attempt is writing at.
    return grant(stored.committed, std::max(stored.nonce, claimant.nonce));
  }
  return refuse(Refusal(" claimed by participant ", epoch, stored.participant),
                stored.instance());
}

ClaimReplica::Replies ClaimReplica::Probe(net::NodeId from, uint64_t req_id,
                                          Epoch epoch, sim::SimTime now) {
  EpochClaimRecord rec;
  const Slot slot = SlotOf(epoch, &rec);
  if (slot == Slot::kClaimed || slot == Slot::kPromised) {
    held_[epoch].push_back(HeldProbe{from, req_id, now + kClaimProbeHoldUs, slot});
    return {};
  }
  return {Answer(from, req_id, {OutcomeOf(slot), /*waited=*/false, 0, rec})};
}

ClaimReplica::Replies ClaimReplica::ExpireHeld(sim::SimTime now) {
  Replies out;
  for (auto it = held_.begin(); it != held_.end();) {
    const Epoch epoch = (it++)->first;  // Settle may erase this entry
    Settle(epoch, now, &out);
  }
  return out;
}

ClaimReplica::Replies ClaimReplica::Confirm(net::NodeId from, uint64_t req_id,
                                            const ClaimRequest& req,
                                            sim::SimTime now) {
  // The epoch's coordinator records are all written: mark the claim
  // committed so discovery (kGetMaxEpoch) can report the epoch. Stored even
  // if the claim is missing here — after membership churn the new claim
  // replicas must still learn the confirmed frontier.
  const Epoch epoch = req.epoch;
  // A fence that completed first wins: the epoch is burned and its orphans
  // purged, so flipping it committed now would report an epoch whose data
  // is gone. The publisher's ticket fails with kFenced and the batch
  // republishes at a fresh epoch.
  if (IsBurned(epoch)) {
    counters_->fenced_writes_refused += 1;
    return {Reply{from, req_id,
                  Status::Fenced(Tag("confirm at fenced epoch ", epoch)),
                  {}}};
  }
  // A burn PROMISE (fence granted here, unanimity unknown) also refuses the
  // confirm — that refusal is what makes unanimity meaningful — but as a
  // RETRYABLE error, not kFenced: the publisher keeps its epoch pinned and
  // resolves the partial burn on retry (self-fence to unanimity, or
  // recommit once a committed record heals this replica).
  auto stored = Load(epoch);
  if (stored.ok() && stored->fenced) {
    counters_->fenced_writes_refused += 1;
    return {Reply{from, req_id,
                  Status::Unavailable("confirm at burn-promised epoch " +
                                      std::to_string(epoch)),
                  {}}};
  }
  Put(epoch, EpochClaimRecord{req.claimant.participant, req.claimant.node,
                              /*committed=*/true, req.claimant.nonce});
  max_confirmed_ = std::max(max_confirmed_, epoch);
  touched_[epoch] = now;
  Replies out{Reply{from, req_id, Status::OK(), {}}};
  Wake(epoch, &out);
  return out;
}

ClaimReplica::Replies ClaimReplica::Release(const EpochInstance& release) {
  // One-way claim cleanup from a failed publish: delete the claim only if it
  // is still the EXACT instance the releaser stored — matched by
  // (participant, nonce). A successor claimant's slot is not ours to clear,
  // and neither is a NEWER attempt of the same participant (a delayed
  // release from a dead attempt must not unpin the epoch its retry
  // re-claimed and is writing at). A fenced marker is NOT the releaser's to
  // clear either: the burn must survive so the epoch stays dead for
  // everyone.
  auto stored = Load(release.epoch);
  if (!stored.ok() || stored->participant != release.participant ||
      stored->nonce != release.nonce || stored->committed || stored->fenced) {
    return {};
  }
  store_->Delete(keys::EpochClaim(release.epoch)).ok();
  touched_.erase(release.epoch);
  Replies out;
  Wake(release.epoch, &out);
  return out;
}

ClaimReplica::Replies ClaimReplica::Fence(net::NodeId from, uint64_t req_id,
                                          const FenceRequest& req,
                                          sim::SimTime now) {
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
  const Epoch epoch = req.epoch;
  const ParticipantId fenced_participant = req.fenced;
  auto loaded = Load(epoch);
  const bool have = loaded.ok();
  const EpochClaimRecord stored = loaded.ValueOr({});
  Replies out;
  auto grant = [&](const EpochClaimRecord& inst) {
    counters_->fences_granted += 1;
    Writer wb;
    inst.instance().EncodeTo(&wb);
    out.push_back(Reply{from, req_id, Status::OK(), wb.Release()});
    return out;
  };
  auto refuse = [&](Status st) {
    counters_->fences_refused += 1;
    out.push_back(Reply{from, req_id, std::move(st), {}});
    return out;
  };
  if (have && stored.fenced) return grant(stored);
  if (epoch <= max_confirmed_) {
    return refuse(Status::EpochTaken("fence refused: epoch " +
                                     std::to_string(epoch) +
                                     " is at or behind the confirmed frontier"));
  }
  if (have && stored.committed) {
    return refuse(Status::EpochTaken("fence refused: epoch " +
                                     std::to_string(epoch) +
                                     " committed by participant " +
                                     std::to_string(stored.participant)));
  }
  if (have && stored.participant != fenced_participant) {
    return refuse(Status::EpochTaken(
        "fence refused: epoch " + std::to_string(epoch) + " now held by " +
        std::to_string(stored.participant) + ", not " +
        std::to_string(fenced_participant)));
  }
  // A self-fence (the owner retiring its own instance — it discovered a
  // partial burn it can neither commit through nor safely abandon) waives
  // the freshness check: the clock protects the owner, and the owner is the
  // requester.
  if (have && req.fencer != fenced_participant) {
    auto touch = touched_.find(epoch);
    if (touch == touched_.end()) {
      // Unknown freshness: this replica gained the claim without a grant
      // (replica push, rebalance). Seed the clock and refuse once — the
      // owner, if live, gets one TTL of grace to heartbeat it; a truly
      // abandoned claim is fenceable one TTL later.
      touched_[epoch] = now;
      return refuse(Status::Unavailable("fence refused: claim owner of epoch " +
                                        std::to_string(epoch) +
                                        " has unknown freshness; seeded"));
    }
    if (now - touch->second < static_cast<sim::SimTime>(req.ttl_us)) {
      return refuse(Status::Unavailable("fence refused: claim owner of epoch " +
                                        std::to_string(epoch) +
                                        " is still fresh"));
    }
  }
  EpochClaimRecord burned = stored;
  if (!have) burned.participant = fenced_participant;
  burned.committed = false;
  burned.fenced = true;
  Put(epoch, burned);
  touched_.erase(epoch);
  grant(burned);
  Wake(epoch, &out);
  return out;
}

ClaimReplica::Replies ClaimReplica::Burn(const EpochInstance& burn) {
  const Epoch epoch = burn.epoch;
  auto loaded = Load(epoch);
  const bool have = loaded.ok();
  const EpochClaimRecord stored = loaded.ValueOr({});
  // A commit is a fact a fence never overrides: if this replica learned the
  // epoch committed (the fence round and a confirm round can interleave at
  // DIFFERENT replicas; both then fail their callers), keep the commit.
  if ((have && stored.committed) || IsBurned(epoch)) return {};
  burned_[epoch] = Burned{burn.participant, burn.nonce};
  touched_.erase(epoch);
  // Persist the burn WITH purge authority (`purged`) so a restart re-learns
  // both facts and replica pushes propagate them (the marker replicates like
  // any claim record). Purge authority is what distinguishes this phase-two
  // entry point from a fence grant's burn promise: callers reach here only
  // downstream of a unanimously granted fence round.
  EpochClaimRecord burned = stored;
  if (!have) {
    burned.participant = burn.participant;
    burned.nonce = burn.nonce;
  }
  burned.committed = false;
  burned.fenced = true;
  burned.purged = true;
  Put(epoch, burned);
  purge_(epoch);
  Replies out;
  Wake(epoch, &out);
  return out;
}

ClaimReplica::Replies ClaimReplica::MergePushed(Epoch epoch,
                                                std::string_view value,
                                                sim::SimTime now, bool* stored) {
  // A CONFIRMED claim replaces anything unconfirmed (the commit is a fact —
  // including a burn promise from a fence round the commit's confirm
  // refused elsewhere). A PURGED burn carries purge authority and merges
  // through Burn; a bare burn promise only installs the marker — it must
  // never purge, its fence round may have failed. A plain claim fills an
  // empty slot with a conservatively fresh clock (a pushed claim's owner
  // gets a TTL of grace before a fence can use this replica's vote). A slot
  // whose bytes do not decode is left alone by a plain claim: only an empty
  // slot is filled.
  *stored = false;
  Reader vr(value);
  EpochClaimRecord pushed;
  if (!EpochClaimRecord::DecodeFrom(&vr, &pushed).ok()) return {};
  auto mine = Load(epoch);
  auto put = [&] {
    store_->Put(keys::EpochClaim(epoch), value).ok();
    *stored = true;
  };
  if (pushed.committed) {
    if (!mine.ok() || !mine->committed) put();
    max_confirmed_ = std::max(max_confirmed_, epoch);
    touched_.erase(epoch);
  } else if (pushed.fenced && pushed.purged) {
    if (!mine.ok() || !mine->committed) {
      return Burn(EpochInstance{epoch, pushed.participant, pushed.nonce});
    }
  } else if (pushed.fenced) {
    if (!mine.ok() || (!mine->committed && !mine->fenced)) {
      put();
      touched_.erase(epoch);
    }
  } else if (mine.status().IsNotFound() && !IsBurned(epoch)) {
    put();
    touched_[epoch] = now;
  }
  Replies out;
  Wake(epoch, &out);
  return out;
}

ClaimReplica::Replies ClaimReplica::Retired(Epoch epoch) {
  touched_.erase(epoch);
  Replies out;
  Wake(epoch, &out);
  return out;
}

void ClaimReplica::Restart(sim::SimTime now) {
  // The records are durable across a crash; the frontier, the burned table
  // and the clocks are not. The frontier is rebuilt from the CONFIRMED
  // claims only (coordinator records alone may belong to torn publishes),
  // so epoch discovery stays truthful.
  max_confirmed_ = 0;
  burned_.clear();
  touched_.clear();
  held_.clear();
  for (auto it = store_->SeekPrefix(keys::TagPrefix(keys::kClaimTag));
       it.Valid(); it.Next()) {
    keys::ParsedKey pk;
    if (!keys::Parse(it.key(), &pk)) continue;
    Reader vr(it.value());
    EpochClaimRecord rec;
    if (!EpochClaimRecord::DecodeFrom(&vr, &rec).ok()) continue;
    if (rec.committed) {
      max_confirmed_ = std::max(max_confirmed_, pk.epoch);
    } else if (rec.fenced) {
      // Burns are durable. Only PURGED burns re-enter the purge-authority
      // table — a bare burn promise (partial fence round) keeps refusing
      // claims and confirms through the record itself but must never purge.
      if (rec.purged) burned_[pk.epoch] = Burned{rec.participant, rec.nonce};
    } else {
      // Conservative freshness seed: a replica restart must not make a LIVE
      // claim owner look stale — its next refresh re-arms the clock anyway.
      touched_[pk.epoch] = now;
    }
  }
}

}  // namespace orchestra::storage
