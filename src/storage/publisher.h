// Publisher: the participant-side write path of the versioned store (§IV).
// Publishing a batch of updates creates a new global epoch:
//   1. fetch the coordinator records of ALL relations at the current epoch,
//   2. fetch the affected pages, apply the updates copy-on-write (the new
//      page lists the new TupleIds; untouched pages are shared),
//   3. write new tuple versions to their data storage nodes (replicated on
//      insert, §III-C), new pages to their index nodes, and a coordinator
//      record per relation at the new epoch (unchanged relations carry their
//      page list forward, so every relation is resolvable at every epoch),
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
//     the loser has written NOTHING at that epoch — it waits for the
//     winner's commit and then RE-BASES: it re-runs its fetch/partition/
//     apply stages on top of the winner's committed output (the same
//     machinery a chained publish uses for an in-memory base) and claims the
//     next epoch. A held claim is NEVER taken over — takeover rules break
//     under membership churn — so a wedged epoch waits for its holder's
//     same-batch retry (idempotent re-claim) or its instance-exact release;
//     split races (nobody won a full claim) self-resolve through
//     deterministic per-participant retry phases.
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
// coordinator records and new pages) as soon as the predecessor has
// *prepared* them, overlapping its own fetch/partition/apply stages with the
// predecessor's tuple/page writes (and claims its own epoch concurrently
// with those stages). Two gates keep this exactly as safe as sequential
// publishing:
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
#include <set>
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
  /// publish chains onto it (see the file comment); if `prev` is null or
  /// already resolved, this is a fresh publish with full epoch discovery — a
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
    uint64_t chain_fallbacks = 0;  // prev handle given but already resolved
    uint64_t aborted_on_prev = 0;  // aborted because the predecessor failed
    uint64_t put_frames = 0;       // coalesced kPutTuples frames sent
    uint64_t tuple_records = 0;    // tuple records carried by those frames
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
  /// Stage 0: ask every member for its highest stored coordinator epoch;
  /// re-runs the round (up to `rounds_left`) while more than one member
  /// failed to answer, since under single-failure assumptions a committed
  /// record has at least two live replicas — at most one silent member means
  /// at least one holder of the newest record was heard.
  void DiscoverEpoch(Handle st, int rounds_left);
  void BeginPublish(Handle st);
  /// Chained stage 1: derive the base (records + epoch) from the
  /// predecessor's prepared in-memory output; no network round trips.
  void StartChained(Handle st);
  /// Base coordinator fetch. The discovered base is always a CONFIRMED
  /// epoch, so a missing record means either replication lag (the fetch
  /// re-tries the SAME epoch `stall_left` times spaced apart in time first)
  /// or a relation CREATED after that epoch committed — whose newest record
  /// below the base then carries its state forward (bounded walk-back).
  /// The walk is safe under multi-writer because everything at or below a
  /// confirmed epoch is committed (partial records exist only at the
  /// frontier's wedged successor), so it can never absorb a torn publish's
  /// output. Transient errors still fail the (retryable) publish.
  void FetchBaseCoordinator(Handle st, const std::string& rel, Epoch epoch,
                            int walk_left, int stall_left);
  void FetchPages(Handle st);
  /// Applies the batch copy-on-write: computes the new pages, tuple writes,
  /// and — via BuildOutputs — the new coordinator records, then *prepares*
  /// the publish (unblocking a chained successor) before gating its own
  /// writes on the predecessor's commit.
  void Apply(Handle st);
  /// Publishes the prepared writes: tuple versions coalesced into one
  /// multi-relation kPutTuples frame per destination node, page versions to
  /// their index nodes. Runs only once the predecessor (if any) committed.
  void IssueWrites(Handle st);
  /// Computes the new-epoch coordinator record of every relation from the
  /// base records plus the touched partitions; stored on the handle for both
  /// the commit stage and any chained successor.
  void BuildOutputs(Handle st);
  /// Write-gate release for a chained publish: runs when the predecessor's
  /// coordinator records are all acked (its confirm round then overlaps this
  /// publish's writes) or when it resolved early with a failure. Aborts on
  /// predecessor failure, re-bases (ResetAttempt + network re-fetch) when
  /// the predecessor committed at a different epoch than the one this
  /// publish prepared against (i.e. it re-based under contention), and
  /// otherwise opens the write gate.
  void ReleaseGate(Handle st, Handle prev);
  /// Starts a claim round for the attempt's epoch: one kClaimEpoch per claim
  /// replica. Launched as soon as the epoch is known (overlapping the
  /// prepare stages and, for chained publishes, the predecessor's writes);
  /// the outcome is recorded on the handle and acted upon by MaybeIssue.
  void StartClaim(Handle st);
  /// Joins the three conditions writes wait for — outputs prepared, write
  /// gate open, claim round resolved — and acts on the claim outcome:
  /// granted -> IssueWrites, lost -> LoseEpoch/AwaitWinner, error -> Finish.
  void MaybeIssue(Handle st);
  /// A claim was refused. Releases any fragments this publish holds
  /// (instance-exact via the claim nonce), then waits for the winner's
  /// commit via AwaitWinner. A claim is NEVER taken over — not even a split
  /// or seemingly-dead one: takeover rules break under membership churn
  /// (the claim replica set reshuffles on every kill), and the holder's
  /// partial writes could be shadowed. Split-claim races resolve through
  /// AwaitWinner's deterministic per-participant stall phase instead.
  void LoseEpoch(Handle st, Epoch contested, bool split);
  /// Stall loop of a claim loser: probes for the winner's committed
  /// coordinator record at the contested epoch. Found -> Rebase; not found
  /// -> re-claim (the winner may have failed and released) until the stall
  /// budget runs out, then fail the publish (the session retries the batch).
  void AwaitWinner(Handle st, Epoch contested);
  /// Stalled-contender fence round: asks every claim replica to retire the
  /// abandoned claim at `contested` (kFenceEpoch, TTL-checked server-side).
  /// All replicas granting burns the epoch — the round then broadcasts
  /// kPurgeEpoch to every member (orphan cleanup) and skips past the burned
  /// epoch. ANY refusal (owner refreshed, epoch committed, replica silent)
  /// aborts the fence and resumes waiting: the quorum rule means a live
  /// owner only has to reach one claim replica to keep its epoch.
  void FenceEpoch(Handle st, Epoch contested);
  /// Skips a publish past a BURNED epoch: like a chain re-base, but the base
  /// (and its fetched records) stay valid — only the target epoch moves to
  /// burned + 1. Used by a fencer after its fence round, and by any publish
  /// that discovers a burned epoch via a kFenced claim refusal or probe.
  void SkipFenced(Handle st, Epoch burned);
  /// Claim-liveness heartbeat (fencing enabled only): re-sends the granted
  /// claim (same nonce — an idempotent re-grant) every fence_after_us_/3 so
  /// the claim replicas' freshness clock keeps a live owner unfenceable. A
  /// kFenced reply means this publish lost a fence race; it skips or fails.
  void ScheduleClaimRefresh(Handle st, uint64_t round_id);
  /// Re-bases a contention loser onto the winner's committed output: resets
  /// the attempt state, fetches the committed coordinator records at `base`,
  /// and re-runs FetchPages/Apply/claim at base + 1. Bounded per publish.
  void Rebase(Handle st, Epoch base);
  void FetchRebaseCoordinator(Handle st, const std::string& rel, Epoch base,
                              int walk_left, int stall_left);
  /// One-way claim cleanup: deletes this participant's claim (fragments) at
  /// `epoch` on the claim replicas — only the exact instance named by
  /// `nonce`, so a delayed release can never unpin a newer attempt's claim.
  /// Sent when a publish that claimed (or may hold claim fragments at)
  /// `epoch` fails or loses the epoch.
  void ReleaseClaim(Epoch epoch, uint64_t nonce);
  /// Clears all per-attempt state so a re-base can re-run the pipeline
  /// stages against a new base; keeps the batch, callback, and chain hooks.
  static void ResetAttempt(Handle st);
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
  /// Resolves the publish exactly once: on success advances the epoch,
  /// advertises the GC watermark, and marks the handle committed; always
  /// fires the handle's continuation hooks before the user callback.
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
  /// Epochs THIS participant has issued writes at that are not yet committed:
  /// the claim on such an epoch must never be released — not even by a later
  /// attempt of the same batch that failed before writing — because only this
  /// participant's same-batch retry may rewrite the epoch byte-identically
  /// over the partial writes. Entries at or below a committed epoch are
  /// dropped (the frontier passed them; they can never be claimed again).
  std::set<Epoch> written_epochs_;
  PipelineStats pipeline_stats_;
};

}  // namespace orchestra::storage

#endif  // ORCHESTRA_STORAGE_PUBLISHER_H_
