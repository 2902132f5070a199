// Publisher: the participant-side write path of the versioned store (§IV).
// Publishing a batch of updates creates a new global epoch:
//   1. fetch the coordinator records of ALL relations at the current epoch,
//   2. group the updates by page partition into page deltas: the new page
//      version, the version it builds on (named by the base coordinator
//      record) and the partition's edits; untouched pages are shared,
//   3. write new tuple versions to their data storage nodes (replicated on
//      insert, §III-C), page deltas to their index nodes — the index
//      replica is the only place a page is merged (copy-on-write, §IV) —
//      and a coordinator record per relation at the new epoch (unchanged
//      relations carry their page list forward, so every relation is
//      resolvable at every epoch),
//   4. confirm the epoch at its claim replicas, which makes it discoverable,
//      and raise this publisher's epoch floor to it.
//
// There is no distributed locking: participants publish disjoint update
// logs, and conflicts are resolved at import time by reconciliation (§II).
//
// Multi-writer contention: each publisher carries a ParticipantId, and two
// publishers may race for the same new epoch. The race is decided in two
// deterministic stages:
//   * CLAIM (pre-write): before issuing any write, a publish claims its
//     epoch at the claim replicas (kClaimEpoch, first-come, idempotent per
//     participant). A refused claim (kEpochTaken naming the winner) means
//     the loser has written NOTHING at that epoch — it probes the claim
//     (kGetEpochClaim), which a claim replica holds until the winner
//     commits, releases or is burned, and then RE-BASES: it re-runs its
//     prepare stage on top of the winner's committed output (the same
//     machinery a chained publish uses for an in-memory base) and claims the
//     next epoch. Losers that one commit wakes together re-claim in their
//     arrival order at the holding replica, so one of them takes the next
//     epoch alone and the rest wait on it. A held claim is NEVER taken over
//     — takeover rules break under membership churn — so a wedged epoch
//     waits for its holder's same-batch retry (idempotent re-claim) or its
//     instance-exact release; split races (nobody won a full claim)
//     self-resolve through deterministic per-participant re-claim phases of
//     about one round trip.
//   * COMMIT (authoritative): coordinator records are participant-tagged and
//     storage nodes refuse a conflicting same-epoch record with kEpochTaken
//     (first committed writer wins), so even a claim-set wiped out by
//     simultaneous membership churn cannot let two writers both commit one
//     epoch. A commit-stage loser re-bases exactly like a claim-stage loser.
// A re-based publish re-publishes its ORIGINAL batch at the higher epoch, so
// any orphan tuple/page versions its first attempt left behind are
// superseded by its own committed versions — the GC sweep's same-batch
// precondition holds for contention losers by construction.
//
// Pipelining: PublishChained() lets a client::Session keep a bounded window
// of publishes in flight. A publish chained onto a still-in-flight
// predecessor skips epoch discovery and the base-coordinator fetches — it
// bases itself on the predecessor's in-memory output (its computed
// coordinator records) as soon as the predecessor has *prepared* them,
// overlapping its own prepare stage with the predecessor's tuple/page
// writes (and claims its own epoch concurrently with that stage). A publish has at most one chained successor, which it
// links weakly; the successor records where it waits on its predecessor —
// for it to prepare, at the write gate, or at the commit gate — and the
// predecessor resumes it from exactly that place. The two gates keep
// pipelining exactly as safe as sequential publishing:
//   * WRITE gate — a chained publish issues no writes until every
//     coordinator record of its predecessor is acked (the predecessor's
//     confirm round then overlaps the successor's writes), so a failed
//     predecessor aborts the successor before it puts a byte on the wire
//     whenever the failure precedes the commit;
//   * COMMIT gate — the successor's own coordinator records go out only
//     once the predecessor fully resolved, so commits stay strictly ordered
//     and a predecessor that failed even at its confirm stage aborts the
//     successor BEFORE its commit (the fail-the-suffix contract). The
//     successor's already-issued writes stay claim-pinned and are rewritten
//     byte-identically by the same-batch retry.
#ifndef ORCHESTRA_STORAGE_PUBLISHER_H_
#define ORCHESTRA_STORAGE_PUBLISHER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/service.h"

namespace orchestra::storage {

/// One update in a published log. An insert with an existing key is an
/// update: the key maps to a new TupleId at the new epoch; the old version
/// remains retrievable at older epochs.
struct Update {
  enum class Kind : uint8_t { kInsert = 0, kDelete = 1 };
  Kind kind = Kind::kInsert;
  Tuple tuple;  // for kDelete only the key attributes are consulted

  static Update Insert(Tuple t) { return Update{Kind::kInsert, std::move(t)}; }
  static Update Delete(Tuple t) { return Update{Kind::kDelete, std::move(t)}; }
};

/// Relation name -> updates.
using UpdateBatch = std::map<std::string, std::vector<Update>>;

class Publisher {
 public:
  /// Opaque in-flight publish state (defined in publisher.cc); handles chain
  /// pipelined publishes and must be retained by the caller until the
  /// publish's callback fires (client::Session does this).
  struct PubState;
  using Handle = std::shared_ptr<PubState>;

  explicit Publisher(StorageService* service)
      : service_(service), participant_(service->node() + 1) {}

  /// This publisher's participant identity (defaults to node id + 1, which
  /// is unique per node and never 0). One publisher publishes for exactly
  /// one participant; epoch claims and coordinator records carry it.
  ParticipantId participant() const { return participant_; }
  void set_participant(ParticipantId p) { participant_ = p; }

  /// Registers a relation everywhere and writes its (empty) coordinator
  /// record at the current epoch.
  void CreateRelation(const RelationDef& def, std::function<void(Status)> cb);

  /// The one publish entry point (client::Session drives it). If `prev`
  /// names a publish from this Publisher that is still in flight, the new
  /// publish chains onto it as its one successor (see the file comment;
  /// `prev` must not already have one); if `prev` is null or already
  /// resolved, this is a fresh publish with full epoch discovery — a
  /// resolved predecessor gives no freshness guarantee (another participant
  /// may have published since), so chaining onto one is never attempted.
  /// Returns the publish's handle (already resolved if the batch was rejected
  /// synchronously). The handle must outlive the publish; cb resolves exactly
  /// once. A failed publish never advances the epoch, and republishing the
  /// same batch is idempotent: the retry recomputes the same new epoch and
  /// rewrites byte-identical records over whatever the first attempt landed.
  Handle PublishChained(UpdateBatch batch, Handle prev,
                        std::function<void(Status, Epoch)> cb);

  /// The highest epoch this publisher has discovered or committed: the floor
  /// under every discovered base, and the epoch CreateRelation writes at.
  Epoch current_epoch() const { return epoch_; }

  /// GC policy: after each successful publish, advertise a low-watermark of
  /// (new epoch - keep) to every member, retiring superseded versions below
  /// it. 0 (default) disables GC; retrievals then work at every past epoch.
  void set_gc_keep_epochs(uint64_t keep) { gc_keep_epochs_ = keep; }
  uint64_t gc_keep_epochs() const { return gc_keep_epochs_; }

  /// Abandonment fencing: a claim whose owner shows no liveness (no refresh,
  /// no confirm) for `ttl` of simulated time may be FENCED by a stalled
  /// contender — the claim replicas burn the epoch, purge the owner's orphan
  /// versions, and refuse the owner's late writes instance-exactly, so the
  /// chain cannot be wedged forever by a writer that died after claiming.
  /// 0 (default) disables fencing: claims then wedge until their holder
  /// retries or releases (the pre-fencing liveness contract). While enabled,
  /// a publish that holds a granted claim also heartbeats it (an idempotent
  /// re-claim every ttl/3) so a merely-slow owner always looks fresh and
  /// wins the fence race.
  void set_fence_after_us(sim::SimTime ttl) { fence_after_us_ = ttl; }
  sim::SimTime fence_after_us() const { return fence_after_us_; }

  /// Pipeline accounting (bench + regression hooks).
  struct PipelineStats {
    uint64_t publishes = 0;        // publishes started
    uint64_t chained = 0;          // based on an in-flight predecessor
    uint64_t put_frames = 0;       // coalesced kPutTuples frames sent
    // Multi-writer contention accounting.
    uint64_t epoch_conflicts = 0;  // claims or commits lost to another writer
    uint64_t rebases = 0;          // publishes re-based onto a winner's epoch
    uint64_t chain_rebases = 0;    // successors re-based after a prev rebase
    // Abandonment-fencing accounting.
    uint64_t fences = 0;           // fence rounds this publisher won
    uint64_t fenced_skips = 0;     // burned epochs skipped past
  };
  const PipelineStats& pipeline_stats() const { return pipeline_stats_; }

 private:
  /// One try at publishing a batch at one epoch (defined in publisher.cc).
  struct Attempt;
  using AttemptPtr = std::shared_ptr<Attempt>;
  /// Where a chained publish waits on its predecessor.
  enum class Gate : uint8_t { kNone, kPrepared, kWriteGate, kCommitGate };

  /// Stage 0: ask every member for its highest confirmed epoch; re-runs the
  /// round (up to `rounds_left`) while more than one member failed to answer,
  /// since under single-failure assumptions a committed record has at least
  /// two live replicas — at most one silent member means at least one holder
  /// of the newest record was heard. Starts the first attempt.
  void DiscoverEpoch(Handle st, int rounds_left);
  /// Stage 1 of a fresh publish and of a network re-base: launches the claim
  /// for the attempt's epoch (after `claim_delay`), then fetches every
  /// relation's coordinator record at its base epoch.
  void ClaimAndFetchBase(Handle st, int stall_left, sim::SimTime claim_delay = 0);
  /// Chained stage 1: derive the base (records + epoch) from the
  /// predecessor's prepared in-memory output; no network round trips.
  void StartChained(Handle st);
  /// Replaces the attempt with one at (base, target) whose base records are
  /// already in memory, claims `target`, and re-runs the prepare stages: a
  /// chained start, a chain re-base, or a skip past a burned epoch.
  void RestartAttempt(Handle st, Epoch base, Epoch target,
                      std::map<std::string, CoordinatorRecord> records);
  /// Base coordinator fetch of one relation at a CONFIRMED epoch; reports to
  /// `arrive`. A missing record means replication lag (the fetch re-tries the
  /// SAME epoch `stall_left` times, spaced apart in time) or a relation
  /// CREATED after that epoch committed, whose newest record below the base
  /// then carries its state forward (bounded walk-back). Transient errors
  /// fail the (retryable) publish.
  void FetchBaseCoordinator(Handle st, AttemptPtr at,
                            std::function<void(Status)> arrive,
                            const std::string& rel, Epoch epoch, int walk_left,
                            int stall_left);
  /// Why a publish re-bases (Rebase), which decides where it bases and which
  /// budget the step draws on.
  enum class RebaseWhy : uint8_t {
    kWatched,    // a held probe saw the epoch commit: base on it
    kCatchUp,    // the epoch was already committed at the first probe:
                 // re-run discovery and base on the frontier it finds
    kContended,  // a commit-time refusal or a chain predecessor that
                 // committed elsewhere: base on the epoch named
  };
  /// The fan-in of one stage's `n` operations on the current attempt: once
  /// all have arrived, the first error fails the publish and otherwise
  /// `next` runs — unless the attempt was replaced meanwhile.
  std::function<void(Status)> StageFanIn(Handle st, size_t n,
                                         void (Publisher::*next)(Handle));
  /// The prepare stage: builds one page delta per touched partition from the
  /// batch's encoded writes and — via BuildOutputs — the new coordinator
  /// records, then *prepares* the publish (resuming a successor that waits
  /// for it) before gating its own writes on the predecessor's commit.
  void Apply(Handle st);
  /// Publishes the prepared writes: tuple versions at the attempt's epoch,
  /// coalesced into one multi-relation kPutTuples frame per destination
  /// node, and page deltas to their index nodes. Runs only once the
  /// predecessor (if any) committed.
  void IssueWrites(Handle st);
  /// Computes the new-epoch coordinator record of every relation from the
  /// base records plus the touched partitions; kept on the attempt for both
  /// the commit stage and any chained successor.
  void BuildOutputs(Attempt& at);
  /// Resumes the chained publish `next` if it waits at `gate` on its
  /// predecessor; a no-op when it is done or waits elsewhere.
  void Resume(const Handle& next, Gate gate);
  /// Write-gate release for a chained publish, once the predecessor's
  /// coordinator records are all acked or it resolved: aborts on its failure,
  /// re-bases when it committed at another epoch than this publish prepared
  /// against (it re-based under contention), else opens the write gate.
  void ReleaseGate(Handle st, Handle prev);
  /// Starts a claim round for the attempt's epoch: one kClaimEpoch per claim
  /// replica. Launched as soon as the epoch is known (overlapping the
  /// prepare stages and, for chained publishes, the predecessor's writes);
  /// the outcome is recorded on the attempt and acted upon by MaybeIssue.
  void StartClaim(Handle st);
  /// Joins the three conditions writes wait for — outputs prepared, write
  /// gate open, claim round resolved — and acts on the claim outcome:
  /// granted -> IssueWrites (or, over another batch's writes, wait on it or
  /// retire them with a self-fence); taken -> release fragments,
  /// AwaitWinner; burned -> SkipFenced (or a self-fence); error -> Finish.
  void MaybeIssue(Handle st);
  /// A claim loser's wait: one probe of the attempt's epoch at the claim
  /// replica that refused it, held there until the slot changes.
  /// Committed -> Rebase (onto it if the probe waited, else a catch-up);
  /// emptied -> re-claim after a phase of about one round trip (the probe's
  /// rank, then the participant, break split-claim ties); burned ->
  /// SkipFenced; burn-promised -> probe again; hold bound passed or probe
  /// lost -> Stall. The waiter sends no claim while it waits. A claim is
  /// NEVER taken over: takeover rules break under membership churn (the
  /// claim replica set reshuffles on every kill).
  void AwaitWinner(Handle st);
  /// Spends one stall of the attempt and re-claims after `delay`; out of
  /// stalls, fences the stalled owner (if enabled) or fails the publish (the
  /// session retries the batch).
  void Stall(Handle st, sim::SimTime delay = 0);
  /// Re-runs the attempt's claim round after `delay`.
  void ReclaimAfter(Handle st, sim::SimTime delay);
  /// kClaimEpoch / kConfirmEpoch body for this participant's attempt.
  std::string ClaimBody(Epoch epoch, uint64_t nonce) const;
  /// Stalled-contender fence round: asks every claim replica to retire the
  /// abandoned claim at the attempt's epoch (kFenceEpoch, TTL-checked
  /// server-side). All replicas granting burns the epoch — the round then
  /// broadcasts kPurgeEpoch to every member (orphan cleanup) and skips past
  /// the burned epoch. ANY refusal (owner refreshed, epoch committed, replica
  /// silent) aborts the fence and resumes waiting: the quorum rule means a
  /// live owner only has to reach one claim replica to keep its epoch.
  void FenceEpoch(Handle st);
  /// Skips a publish past its attempt's BURNED epoch: the base (and its
  /// fetched records) stay valid; only the target epoch moves to burned + 1.
  void SkipFenced(Handle st);
  /// Claim-liveness heartbeat (fencing enabled only): re-sends the granted
  /// claim of `at` (same nonce — an idempotent re-grant) every
  /// fence_after_us_/3 so the claim replicas' freshness clock keeps a live
  /// owner unfenceable. A kFenced reply means this publish lost a fence
  /// race; it skips or fails.
  void ScheduleClaimRefresh(Handle st, AttemptPtr at);
  /// Re-bases a contention loser onto the committed output at `base`: a new
  /// attempt fetches the committed coordinator records there and re-runs
  /// Apply and the claim at base + 1, the claim after `claim_delay`. A
  /// catch-up instead re-runs epoch discovery (floored at `base`) and bases
  /// on the frontier it finds. Bounded per publish: a watched commit and a
  /// catch-up are forward steps and draw on the step budget that also skips
  /// burned epochs, a contended re-base on the contention budget.
  void Rebase(Handle st, Epoch base, RebaseWhy why, sim::SimTime claim_delay = 0);
  /// One-way claim cleanup of a failed or lost epoch: deletes this
  /// participant's claim (fragments) at `epoch` — only the exact instance
  /// named by `nonce`, so a delayed release never unpins a newer attempt.
  void ReleaseClaim(Epoch epoch, uint64_t nonce);
  /// The commit point: coordinator records are written only after every
  /// tuple/page write succeeded, so a coordinator record never references
  /// state that was lost with a failed publish. Participant-tagged; a
  /// kEpochTaken reply (commit-time contention) triggers a re-base instead
  /// of failing the batch. For a chained publish this is also the COMMIT
  /// gate: the records go out only once the predecessor fully resolved
  /// (commit order; a predecessor that failed its confirm aborts this
  /// publish before its commit, preserving the fail-the-suffix contract).
  void WriteCoordinators(Handle st);
  void CommitAfterPrev(Handle st);
  /// Post-commit confirmation: flips the epoch claim's `committed` flag on
  /// the claim replicas so discovery can report the epoch. Runs after every
  /// coordinator record landed; a failed confirmation fails the publish
  /// (the records are durable — the same-batch retry re-claims, rewrites
  /// byte-identically, and re-confirms).
  void ConfirmEpoch(Handle st);
  /// Resolves the publish exactly once: on success advances the epoch and
  /// advertises the GC watermark; drops the attempt; resumes the successor
  /// wherever it waits, then runs the user callback.
  void Finish(Handle st, Status status);

  StorageService* service_;
  ParticipantId participant_;
  Epoch epoch_ = 0;
  uint64_t gc_keep_epochs_ = 0;
  sim::SimTime fence_after_us_ = 0;  // 0 = abandonment fencing disabled
  /// Claim-attempt nonce source: every claim round stores a fresh
  /// (participant, nonce) instance, making releases instance-exact under
  /// message delay/reordering.
  uint64_t claim_seq_ = 0;
  /// A write pin: the batch (by digest) that issued writes at an epoch, and
  /// the publish that issued them.
  struct Pin {
    uint64_t batch = 0;
    std::weak_ptr<PubState> owner;
  };
  /// Epochs THIS participant has issued writes at that are not yet committed:
  /// the claim on such an epoch must never be released — not even by a later
  /// attempt of the same batch that failed before writing — because only the
  /// same batch's retry may rewrite the epoch byte-identically over the
  /// partial writes. The claim replicas grant per participant, so another
  /// batch of this participant can be granted a pinned epoch: it waits while
  /// the pinning publish is in flight, and once that resolved it retires the
  /// partial writes with a self-fence and skips past the epoch. Entries at
  /// or below a committed epoch are dropped (the frontier passed them, which
  /// it does only by committing or burning them).
  std::map<Epoch, Pin> written_epochs_;
  PipelineStats pipeline_stats_;
};

}  // namespace orchestra::storage

#endif  // ORCHESTRA_STORAGE_PUBLISHER_H_
