// ClaimReplica: one storage node's epoch-claim rules, with no network.
//
// A claim replica keeps the claim record of each epoch it replicates (the
// 'E' family of the node's LocalStore), the freshness clock a fence races
// against, the table of burned epochs, and the highest confirmed epoch that
// discovery reports. Every transition — a claim, a probe, a confirm, a
// release, a fence grant, a purge, a pushed record, a GC retirement, a
// restart — is one method that returns the replies to send. So a state
// change also answers the held probes it settles: a probe of a claimed (or
// burn-promised) epoch is held until that state changes or its hold bound
// passes, and is answered exactly once. StorageService decodes the
// requests, calls these methods and sends what they return.
#ifndef ORCHESTRA_STORAGE_CLAIM_REPLICA_H_
#define ORCHESTRA_STORAGE_CLAIM_REPLICA_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "localstore/local_store.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "storage/page.h"

namespace orchestra::storage {

/// How long a claim replica holds a kGetEpochClaim whose epoch stays
/// claimed. Below the probe's deadline (kEpochDiscoveryTimeoutUs), so a
/// held probe is answered before its caller gives up on it.
constexpr sim::SimTime kClaimProbeHoldUs = 4 * sim::kMicrosPerSec;

/// What the claim rules count at one replica.
struct ClaimCounters {
  // Claim requests refused with kEpochTaken or kFenced.
  uint64_t claims_refused = 0;
  // kFenceEpoch grants (the epoch burned here) and refusals (owner fresh,
  // committed, slot changed hands, behind the frontier).
  uint64_t fences_granted = 0;
  uint64_t fences_refused = 0;
  // Writes and confirms refused because their epoch is fenced; the storage
  // node adds its tuple, page and coordinator refusals.
  uint64_t fenced_writes_refused = 0;
};

class ClaimReplica {
 public:
  /// One reply to send: the answer to request `req_id` from node `to`.
  struct Reply {
    net::NodeId to = net::kInvalidNode;
    uint64_t req_id = 0;
    Status status;
    std::string body;
  };
  using Replies = std::vector<Reply>;

  /// The fenced instance of a burned epoch, for instance-exact refusals.
  struct Burned {
    ParticipantId participant = 0;
    uint64_t nonce = 0;
  };

  /// `purge` deletes every data, page and coordinator version stored at a
  /// burned epoch; it runs when a burn with purge authority is first
  /// learned here.
  ClaimReplica(localstore::LocalStore* store, ClaimCounters* counters,
               std::function<void(Epoch)> purge)
      : store_(store), counters_(counters), purge_(std::move(purge)) {}

  /// kClaimEpoch, including the owner's heartbeat re-claim: grants an empty
  /// slot or the stored participant's own re-claim, refuses anyone else.
  Replies Claim(net::NodeId from, uint64_t req_id, const ClaimRequest& req,
                sim::SimTime now);
  /// kGetEpochClaim: answered now unless the epoch is claimed or
  /// burn-promised; then held (no reply yet) until that changes or
  /// ExpireHeld passes its hold bound.
  Replies Probe(net::NodeId from, uint64_t req_id, Epoch epoch,
                sim::SimTime now);
  /// kConfirmEpoch: marks the epoch committed and raises max_confirmed().
  Replies Confirm(net::NodeId from, uint64_t req_id, const ClaimRequest& req,
                  sim::SimTime now);
  /// kReleaseEpoch: deletes the claim when it is still exactly `release`'s
  /// uncommitted, unfenced instance.
  Replies Release(const EpochInstance& release);
  /// kFenceEpoch, phase one: stores a burn promise or refuses.
  Replies Fence(net::NodeId from, uint64_t req_id, const FenceRequest& req,
                sim::SimTime now);
  /// Phase two (kPurgeEpoch, a pushed purged burn, the push table): records
  /// the burn with purge authority and purges the epoch's versions. A no-op
  /// when the epoch committed here or the burn is already known.
  Replies Burn(const EpochInstance& burn);
  /// Merges one pushed claim record by strength: committed > purged burn >
  /// burn promise > uncommitted claim > absent. `stored` reports whether
  /// the pushed bytes were stored.
  Replies MergePushed(Epoch epoch, std::string_view value, sim::SimTime now,
                      bool* stored);
  /// GC deleted the epoch's claim record (it lies below the watermark).
  Replies Retired(Epoch epoch);
  /// Answers every held probe whose hold bound has passed.
  Replies ExpireHeld(sim::SimTime now);
  /// Crash restart: rebuilds the confirmed frontier, the burned table and
  /// the freshness clocks from the durable records, and drops the held
  /// probes (their callers saw the node die).
  void Restart(sim::SimTime now);
  /// Fail-stop death: the held probes are dropped unanswered.
  void DropHeld() { held_.clear(); }

  Epoch max_confirmed() const { return max_confirmed_; }
  bool IsBurned(Epoch e) const { return burned_.count(e) > 0; }
  const std::map<Epoch, Burned>& burned() const { return burned_; }
  /// Probes held now, over every epoch.
  size_t held_count() const;

 private:
  /// What a probe sees in an epoch's slot.
  enum class Slot : uint8_t { kEmpty, kClaimed, kPromised, kConfirmed, kBurned };
  struct HeldProbe {
    net::NodeId from = net::kInvalidNode;
    uint64_t req_id = 0;
    sim::SimTime until = 0;  // hold bound
    Slot slot = Slot::kClaimed;  // the state it waits to see change
  };

  /// The epoch's stored claim record: NotFound when the slot is empty,
  /// Corruption when its bytes do not decode.
  Result<EpochClaimRecord> Load(Epoch epoch) const;
  void Put(Epoch epoch, const EpochClaimRecord& rec);
  /// The slot's state, with the record a probe answer carries.
  Slot SlotOf(Epoch epoch, EpochClaimRecord* rec) const;
  /// Answers, in arrival order, the held probes of `epoch` whose slot has
  /// changed since they were held (with the slot's state now) or whose hold
  /// bound is at or before `now` (kHeld).
  void Settle(Epoch epoch, sim::SimTime now, Replies* out);
  /// Settle on a state change: answers only the probes whose slot changed.
  void Wake(Epoch epoch, Replies* out);
  static Reply Answer(net::NodeId to, uint64_t req_id,
                      const ClaimProbeAnswer& answer);
  /// The answer a changed slot gives; a claimed slot answers kHeld.
  static ClaimProbeAnswer::Outcome OutcomeOf(Slot slot);

  localstore::LocalStore* store_;
  ClaimCounters* counters_;
  std::function<void(Epoch)> purge_;
  Epoch max_confirmed_ = 0;
  // The freshness clock a fence races against: stamped at every grant,
  // heartbeat re-grant and confirm, seeded to "now" for uncommitted claims
  // on restart and for pushed claims (a replica restart or a push must not
  // make a live owner look stale).
  std::map<Epoch, sim::SimTime> touched_;
  // Burned epochs with the fenced instance. Durable through the fenced
  // claim record; rebuilt on restart and re-taught by the replica-push
  // table. Never pruned: fences are rare, and a kept entry stops a stale
  // push from resurrecting purged versions after GC retired the record.
  std::map<Epoch, Burned> burned_;
  std::map<Epoch, std::vector<HeldProbe>> held_;
};

}  // namespace orchestra::storage

#endif  // ORCHESTRA_STORAGE_CLAIM_REPLICA_H_
