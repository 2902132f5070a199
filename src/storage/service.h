// StorageService: the per-node endpoint of the versioned storage protocol.
// Every node simultaneously plays three Fig. 3 roles for the key ranges it
// owns/replicates: relation coordinator, index node, and data storage node.
// The paper's fourth role, the inverse node, stores nothing here: the
// coordinator record names each partition's current page, and a publisher
// reads it there (§IV). Its replica-retry reads (GetCoordinator, GetPage,
// FetchTuple) serve the query executor, which runs Algorithm 1's
// Retrieve(R, e, f) as a one-scan plan (client::Session::Retrieve); GetPage
// also fetches a page delta's base for an index replica that lacks it.
//
// Five record families share the node's one LocalStore (storage/keys.h):
// data, page and coordinator versions, epoch claims and catalog entries.
// Every pass that treats families differently parses a stored key once
// (keys::Parse) and switches on the parsed tag, one function per decision:
// PlaceRecord (where it replicates), RecordDigest (what its bucket digest
// covers), HandleReplicaPush (how a pushed copy merges), PurgeEpochLocal
// (what a fence purges) and RunGcSlice (when GC retires it; for a data or
// page version, RetireSuperseded, which a page write also calls). The epoch-claim
// rules live in one class with no network, ClaimReplica (storage/
// claim_replica.h): this service decodes claim requests, calls it and sends
// the replies it returns.
#ifndef ORCHESTRA_STORAGE_SERVICE_H_
#define ORCHESTRA_STORAGE_SERVICE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "localstore/local_store.h"
#include "net/node_host.h"
#include "net/rpc.h"
#include "overlay/ring.h"
#include "storage/claim_replica.h"
#include "storage/keys.h"
#include "storage/page.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace orchestra::storage {

/// Shared mutable view of the current routing table; the membership layer
/// updates it, services read it. Queries instead pin an explicit snapshot.
struct SnapshotBoard {
  overlay::RoutingSnapshot current;
};

/// Storage protocol message codes (service kStorage).
///
/// The publish-path body (kPutTuples) carries each tuple's placement hash in
/// 20-byte big-endian wire form, computed once by the publisher; receivers
/// splice it straight into their localstore keys and never recompute SHA-1.
enum StorageCode : uint16_t {
  kCatalogAdd = 1,
  // One coalesced frame per destination node and publish: nrels, then per
  // relation: rel, n, then per tuple: hash(20B BE), key, epoch, bytes. The
  // publisher batches every tuple write bound for a node — across all
  // relations and partitions — into a single kPutTuples RPC.
  kPutTuples = 2,
  // One frame per (publish, touched partition) and index replica: the new
  // page's descriptor, the PageId of the version it builds on (none for a
  // new partition) and the partition's edits (PageDelta). The replica
  // merges them into its stored base (MergePage).
  kPutPage = 3,
  kPutCoordinator = 4,
  kGetCoordinator = 5,
  kGetPage = 6,
  kGetInverse = 7,    // retired (inverse-node lookup); reserved, never reused
  kGetTuple = 8,
  kScanPage = 9,      // retired (storage-side Retrieve scan); reserved
  kFetchTuples = 10,  // retired (storage-side Retrieve scan); reserved
  kTupleData = 11,    // retired (storage-side Retrieve scan); reserved
  // Background re-replication (PAST-style, §III-C), in two rounds per
  // target: bucket digests, answered with the buckets that differ, then the
  // records of those buckets. Every frame leads with the pusher's GC marks
  // and burned epochs, so a restarted node catches up without waiting for
  // the next publish.
  kReplicaPush = 12,
  kGetMaxEpoch = 13,  // highest coordinator epoch this node stores
  kSetWatermark = 14, // one-way: (participant, GC low-watermark) advertisement
  // Multi-writer epoch claims: the pre-write serialization point. A claim
  // names (epoch, participant, node, attempt nonce); replicas grant
  // first-come (idempotent for the same participant) and answer a
  // conflicting claim with a kEpochTaken status whose body carries the
  // stored winner instance. Claims are NEVER taken over (takeover rules
  // break under membership churn): a wedged epoch is unwedged by its own
  // participant's retry or instance-exact release only.
  kClaimEpoch = 15,
  // A claim loser's probe of the epoch it lost. The claim replica answers at
  // once when the epoch is committed, empty or burned; otherwise it holds
  // the probe until the claim confirms, is released or is burned, or for at
  // most kClaimProbeHoldUs. The answer (ClaimProbeAnswer) says which
  // happened, whether the probe waited and its rank among the probes the
  // same change answered.
  kGetEpochClaim = 16,
  kReleaseEpoch = 17,    // one-way: delete own claim (failed publish cleanup)
  // Commit confirmation: after ALL coordinator records of an epoch are
  // written, the publisher flips its claim's `committed` flag on the claim
  // replicas. kGetMaxEpoch reports only CONFIRMED epochs, so a publisher's
  // discovered base is always a fully committed epoch — partial coordinator
  // records of torn publishes can no longer inflate discovery and leak
  // uncommitted content into other writers' bases.
  kConfirmEpoch = 18,
  // Abandonment fencing: after a claim has sat uncommitted and untouched for
  // the requester-supplied staleness TTL, any participant may BURN the epoch.
  // Body: epoch, fencer participant, fenced participant (the stored owner the
  // fencer observed), ttl_us. A grant marks the claim record fenced — nobody
  // (including the abandoned owner) can ever claim, write, or confirm at
  // that epoch again — and atomically purges the owner's orphan versions
  // (data/page/coordinator records at that epoch). Refused while the owner
  // is fresh (its claim refreshes beat the TTL), once the epoch committed,
  // when the slot changed hands, or behind the confirmed frontier. The reply
  // body names the fenced instance (participant, node, nonce). Safety rides
  // the same single-failure overlap argument as claims: a fence needs EVERY
  // live claim replica, so it cannot coexist with a full un-fenced claim or
  // a confirmed commit.
  kFenceEpoch = 19,
  // One-way fence propagation: (epoch, fenced participant, fenced nonce).
  // Receivers record the burn and purge local orphan versions at the epoch;
  // ignored if the local claim committed (a commit is a fact).
  kPurgeEpoch = 20,
  kReply = 100,       // RPC reply envelope
};

/// Per-call deadline for epoch discovery: much tighter than the general RPC
/// deadline so a publish past a dead member stalls seconds, not a minute.
constexpr sim::SimTime kEpochDiscoveryTimeoutUs = 5 * sim::kMicrosPerSec;
static_assert(kClaimProbeHoldUs < kEpochDiscoveryTimeoutUs,
              "a held claim probe must be answered before its deadline");

/// A participant's GC watermark advertisement stays live this long; after
/// that the participant is considered departed and stops holding the
/// effective (min-across-participants) watermark down.
constexpr sim::SimTime kParticipantMarkTtlUs = 300 * sim::kMicrosPerSec;

/// Sargable filter a scan applies to index-page ids: an inclusive key-bytes
/// range.
struct KeyFilter {
  bool all = true;
  std::string lo, hi;  // valid when !all

  bool Matches(std::string_view key_bytes) const {
    return all || (key_bytes >= lo && key_bytes <= hi);
  }
  void EncodeTo(Writer* w) const;
  static Status DecodeFrom(Reader* r, KeyFilter* out);
};

class StorageService : public net::Service {
 public:
  using RpcCallback = std::function<void(Status, const std::string& body)>;

  StorageService(net::NodeHost* host, std::shared_ptr<SnapshotBoard> board,
                 int replication, localstore::StoreOptions store_options = {});

  net::NodeId node() const { return host_->node(); }
  int replication() const { return replication_; }
  const overlay::RoutingSnapshot& snapshot() const { return board_->current; }
  localstore::LocalStore& store() { return store_; }

  // --- Local (same-node) API, used by the query engine and tests ----------
  void AddRelationLocal(const RelationDef& def);
  Result<RelationDef> Relation(std::string_view name) const;
  /// Zero-copy catalog lookup for hot paths: no RelationDef copy. The
  /// pointer is valid until the catalog entry is replaced.
  const RelationDef* FindRelation(std::string_view name) const;
  std::vector<std::string> RelationNames() const;
  Result<CoordinatorRecord> ReadCoordinatorLocal(const std::string& rel, Epoch e) const;
  /// A page version's stored bytes (read them with EntryReader::OfPage).
  Result<std::string> ReadPageLocal(const PageId& id) const;
  /// The one read of a tuple version: its stored (encoded) bytes, keyed by
  /// the page entry that names it, whose hash keys the read (no SHA-1).
  /// NotFound for a version this node lacks or a delete tombstone. The view
  /// is valid until the next store mutation. The data key is written into
  /// `key`, the caller's buffer, so a scan reuses one for every row.
  Result<std::string_view> ReadTupleLocal(std::string_view rel, const EntryView& entry,
                                          std::string* key) const;

  // --- Asynchronous RPC (lifecycle-managed, see net/rpc.h) ------------------
  /// Sends a request; `cb` resolves exactly once — with the reply, with
  /// TimedOut at the per-call deadline, or with Unavailable when the
  /// destination is reaped after a connection drop.
  void Call(net::NodeId to, uint16_t code, std::string body, RpcCallback cb,
            sim::SimTime timeout_us = net::kDefaultRpcTimeoutUs);
  /// Sends the same request to several nodes; once the last reply arrived,
  /// `done` receives them all in arrival order (net::RpcClient::CallEach).
  void CallEach(const std::vector<net::NodeId>& targets, uint16_t code,
                const std::string& body,
                std::function<void(std::vector<net::Reply>)> done,
                sim::SimTime timeout_us = net::kDefaultRpcTimeoutUs);
  /// Sends the same request to several nodes; cb(OK) when all succeed, else
  /// the first error.
  void CallAll(const std::vector<net::NodeId>& targets, uint16_t code,
               const std::string& body, std::function<void(Status)> cb);
  /// Fire-and-forget message (no reply expected).
  void SendOneWay(net::NodeId to, uint16_t code, std::string body);

  /// Runs `fn` on this node's simulated thread after `delay`. Delivered as a
  /// node task, so it is dropped if the node dies before it fires (fail-stop
  /// safe, unlike a raw simulator event).
  void RunAfter(sim::SimTime delay, std::function<void()> fn);

  /// Outstanding entries in the pending-call table (leak regression hook).
  size_t pending_rpc_count() const { return rpc_.pending_count(); }
  /// Claim probes this node holds unanswered (leak regression hook).
  size_t held_probe_count() const { return claims_.held_count(); }
  const net::RpcClient::Counters& rpc_counters() const { return rpc_.counters(); }

  // --- Admission control ----------------------------------------------------
  /// This node's load measure, advertised in every RPC reply it sends:
  /// queued inbox deliveries plus queued kilobytes (so a few huge frames
  /// count like many small ones), plus any injected test load.
  uint32_t LocalLoadHint() const;
  /// Test/bench hook: adds a synthetic component to the advertised hint so
  /// backpressure can be exercised without constructing a real overload.
  void InjectLoadHint(uint32_t extra) { injected_load_hint_ = extra; }
  /// The highest load hint any peer reported within the trailing window
  /// (default 2 s of simulated time) — what a client::Session throttles on.
  uint32_t MaxRecentPeerLoad(
      sim::SimTime window_us = 2 * sim::kMicrosPerSec) const;

  // --- Distributed reads ----------------------------------------------------
  /// Fetches the coordinator record for (rel, epoch), retrying replicas.
  void GetCoordinator(const std::string& rel, Epoch epoch,
                      std::function<void(Status, CoordinatorRecord)> cb);
  /// Fetches a page's stored bytes from its index node, retrying replicas.
  /// Corruption when they do not read as the page `desc` names.
  void GetPage(const PageDescriptor& desc,
               std::function<void(Status, std::string)> cb);
  /// Fetches the tuple version a page entry names, trying each replica of
  /// its data node in turn (used when a local replica is stale, §IV).
  void FetchTuple(const std::string& rel, const EntryView& entry,
                  std::function<void(Status, Tuple)> cb);

  /// Re-replicates local state according to `snap` after a membership
  /// change, shipping only what differs. Round 1 offers every other replica
  /// this node's (bucket, count, digest) entry for each non-empty bucket
  /// `snap` places on it; the target answers with the buckets whose digests
  /// differ from its own. Once every target has answered, round 2 ships the
  /// records of those buckets that `snap` places on the target, which it
  /// merges like any push. Both rounds are kReplicaPush frames carrying the
  /// participant-mark and burned-epoch tables.
  void RebalanceTo(const overlay::RoutingSnapshot& snap);
  /// The digest bucket RebalanceTo files a stored record under; nullopt for
  /// a key outside the replicated families.
  std::optional<uint32_t> ReplicaBucket(std::string_view key) const;

  // --- Multi-epoch GC -------------------------------------------------------
  /// Raises the GC low-watermark and retires superseded versions below it:
  /// coordinator records (and epoch claims) with epoch < w, page versions
  /// older than their partition's newest version at-or-below w, and tuple
  /// versions older than their key's newest version at-or-below w (plus
  /// delete tombstones once nothing older survives). Supported retrieval
  /// epochs become [w, current]. Re-advertising the current watermark re-runs
  /// retirement, which clears records a stale replica push may have
  /// resurrected. This is the direct floor-raise entry point (tests and the
  /// churn harness use it): it cancels any background sweep and runs the
  /// same sliced sweep to completion before returning. Publisher
  /// advertisements instead go through SetParticipantWatermark so one slow
  /// writer holds retirement back for everyone.
  void SetGcWatermark(Epoch w);
  Epoch gc_watermark() const { return gc_watermark_; }

  /// Multi-writer GC: records participant `p`'s advertised low-watermark
  /// (monotonic per participant) and applies the EFFECTIVE watermark — the
  /// minimum across all participants heard from within kParticipantMarkTtlUs
  /// — via SetGcWatermark. A participant that lags (or advertises 0 because
  /// its committed epoch is still inside the keep window) pins the effective
  /// mark down, so versions a slow peer still bases its publishes on are
  /// never retired out from under it.
  void SetParticipantWatermark(ParticipantId p, Epoch mark);
  /// min across active participants (0 when none have advertised).
  Epoch EffectiveParticipantWatermark() const;
  /// Advertised marks currently tracked (restart wipes them; replica pushes
  /// re-teach them).
  size_t participant_mark_count() const { return participant_marks_.size(); }

  /// Highest CONFIRMED epoch this node knows of — a claim whose publisher
  /// completed the commit (kConfirmEpoch), learned directly or via replica
  /// push. The publishers' epoch-discovery RPC (kGetMaxEpoch) reports it;
  /// coordinator records alone deliberately do NOT advance it (a torn
  /// publish leaves partial records, and basing on them would absorb
  /// uncommitted updates).
  Epoch max_epoch_seen() const { return claims_.max_confirmed(); }

  /// Crash-restart hook: rebuilds transient epoch bookkeeping from the
  /// (durable) store after a Recover().
  void OnRestart();

  /// True if `e` is known burned on this node (learned via kPurgeEpoch or a
  /// replica push, or rebuilt from the durable fenced claim record).
  bool IsEpochFenced(Epoch e) const { return claims_.IsBurned(e); }

  struct GcStats {
    uint64_t runs = 0;                // completed sweeps (inline or background)
    uint64_t slices = 0;              // background slices executed
    uint64_t coalesced = 0;           // advertisements folded into a sweep
                                      // already in flight (re-armed it)
    uint64_t retired_data = 0;        // superseded tuple versions
    uint64_t retired_pages = 0;       // superseded page versions
    uint64_t retired_coords = 0;      // coordinator records below watermark
    uint64_t retired_tombstones = 0;  // delete markers fully reclaimed
    uint64_t retired_claims = 0;      // epoch claims below watermark
  };
  const GcStats& gc_stats() const { return gc_; }
  /// True while a background retirement sweep is in flight (or re-armed).
  bool gc_sweep_active() const { return gc_sweep_.active; }

  // --- net::Service ----------------------------------------------------------
  void OnMessage(net::NodeId from, uint16_t code, const std::string& payload) override;
  void OnConnectionDrop(net::NodeId peer) override;
  /// Fail-stop death of this node: drop outstanding calls without invoking
  /// their callbacks, and the claim probes it holds unanswered — nothing may
  /// execute on a halted node.
  void OnSelfFailed() override {
    rpc_.DropAll();
    claims_.DropHeld();
  }

  /// The claim counters (claims_refused, fences_granted, fences_refused,
  /// fenced_writes_refused) come from ClaimCounters.
  struct Counters : ClaimCounters {
    uint64_t tuples_stored = 0;
    uint64_t pages_stored = 0;
    uint64_t tuples_served = 0;  // kGetTuple replies that carried a tuple
    // Coalesced publish frames received: one per (publish, destination node)
    // pair — the RPC-count story of the pipelined publish path.
    uint64_t puttuples_frames = 0;
    // Same-epoch coordinator writes refused at the commit gate (the
    // backstop; nonzero only under claim-replica-set wipeout by simultaneous
    // membership churn).
    uint64_t coordinator_conflicts = 0;
    // Orphan records purged by fence-triggered local purges.
    uint64_t purged_orphans = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  void Respond(net::NodeId to, uint64_t req_id, Status st, std::string body);
  /// Answers a request whose body does not decode: every request gets a
  /// reply, so a malformed one fails fast instead of timing out.
  void RespondCorrupt(net::NodeId to, uint64_t req_id, uint16_t code);
  /// Refuses `writes` writes at a burned epoch with kFenced: a fenced epoch
  /// is never written, rebuilt or confirmed again.
  void RefuseFenced(net::NodeId to, uint64_t req_id, uint64_t writes,
                    std::string why);
  /// Replies with the stored bytes under `key`, or with NotFound.
  void RespondStored(net::NodeId to, uint64_t req_id, const std::string& key);
  /// Sends the replies a ClaimReplica transition returned.
  void Answer(ClaimReplica::Replies replies);
  /// Holds a claim probe: answers it (and any other probe due) once the
  /// hold bound passes, unless a claim change answered it first.
  void ArmProbeHold();
  sim::SimTime Now() const { return host_->network()->simulator()->now(); }
  /// Background GC: starts a sliced sweep at the current watermark, or
  /// re-arms the one in flight (it finishes, then restarts at the latest
  /// watermark, which also clears records a stale replica push resurrected
  /// behind its cursor).
  void ScheduleGcSweep();
  /// Points the sweep cursor at the start of a pass at the current
  /// watermark; bumping the generation drops slices queued by an earlier
  /// sweep.
  void ResetGcSweep(bool active);
  /// One scheduled slice; `generation` guards against slices queued by a
  /// sweep that was since cancelled (restart, SetGcWatermark).
  void GcSliceTask(uint64_t generation);
  /// Retires up to `budget` records' worth of sweep work, ending only
  /// between version groups; true when the sweep has covered all four key
  /// families.
  bool RunGcSlice(uint64_t budget);
  /// One version of a data key or of a page partition, as GC sees it.
  struct GcVersion {
    std::string_view key;
    Epoch epoch = 0;
    bool tombstone = false;  // a data delete marker (empty value)
  };
  /// The one retirement rule for a version group, given oldest first:
  /// every version at or below `w` except the newest of them retires, a
  /// version at a burned epoch retires and never survives, and a surviving
  /// tombstone retires too. Appends the retired keys to `doomed`, counting
  /// each in `retired` (a tombstone in GcStats::retired_tombstones). The
  /// sweep calls it once per group, a page write on its own partition.
  void RetireSuperseded(const std::vector<GcVersion>& group, Epoch w,
                        uint64_t GcStats::*retired,
                        std::vector<std::string>* doomed);
  /// After a page write: retires the versions of its partition that the
  /// node's watermark supersedes, so they never wait for a sweep.
  void RetirePageGroup(const PageId& id);
  /// Records a participant's advertised mark (monotonic, TTL-pruned)
  /// WITHOUT applying the effective watermark — bulk callers (replica push)
  /// merge everything first and sweep once.
  void MergeParticipantMark(ParticipantId p, Epoch mark);
  /// Deletes every data/page/coordinator version stored at `epoch`, so
  /// discovery never sees torn state after a fence.
  void PurgeEpochLocal(Epoch epoch);
  void HandleRequest(net::NodeId from, uint16_t code, Reader* r, uint64_t req_id);
  /// kPutPage: the index replica is the only place a page is merged. Merges
  /// the body's PageDelta into the stored base (MergePage) and stores the
  /// result whole, logging only the splice. Without the base in its store
  /// (`may_fetch`), it first fetches the base from a co-replica and stores
  /// it; the put then fails with the fetch's error if no replica has it.
  void HandlePutPage(net::NodeId from, std::string_view body, uint64_t req_id,
                     bool may_fetch);
  void HandleReplicaPush(net::NodeId from, Reader* r, uint64_t req_id);

  // --- Re-replication by difference --------------------------------------
  /// Where a stored record replicates: around the ring position `hash`, or
  /// on every member (`everyone`: a catalog entry, or a record of a relation
  /// replicated everywhere). `bucket` is its digest bucket: the top bits of
  /// `hash`, or the one bucket of everything every member holds.
  struct Placement {
    uint32_t bucket = 0;
    bool everyone = false;
    HashId hash;
  };
  /// nullopt for a page whose relation the catalog does not hold yet.
  std::optional<Placement> PlaceRecord(const keys::ParsedKey& pk) const;
  /// One ordered pass over every stored key that parses and is placed.
  void ForEachPlaced(
      const std::function<void(std::string_view key, std::string_view value,
                               const keys::ParsedKey&, const Placement&)>& fn)
      const;
  struct BucketDigest {
    uint64_t count = 0;
    uint64_t sum = 0;  // of the records' digests, mod 2^64
  };
  /// This node's digest of every bucket, which it both offers as a pusher
  /// and compares against as a target. Rebuilt, in one pass, only when the
  /// store changed since the last build.
  const std::vector<BucketDigest>& LocalBucketDigests();
  /// Per bucket, the nodes other than this one that `snap` places some of
  /// its records on.
  std::vector<std::vector<net::NodeId>> BucketTargets(
      const overlay::RoutingSnapshot& snap) const;
  /// Round 2: one pass ships each target the records of the buckets it
  /// named in its round-1 reply.
  void PushBuckets(const overlay::RoutingSnapshot& snap,
                   const std::map<net::NodeId, std::vector<bool>>& asked);
  /// The tables every kReplicaPush leads with: participant marks and
  /// burned epochs.
  void PutPushTables(Writer* w) const;

  void ChargeCpu(double micros) { host_->network()->ChargeCpu(node(), micros); }

  net::NodeHost* host_;
  std::shared_ptr<SnapshotBoard> board_;
  int replication_;
  net::RpcClient rpc_;
  localstore::LocalStore store_;
  // std::less<> enables string_view lookups without temporary strings.
  std::map<std::string, RelationDef, std::less<>> catalog_;
  Counters counters_;
  ClaimReplica claims_;
  Epoch gc_watermark_ = 0;
  GcStats gc_;
  // Background sweep cursor. The watermark is pinned per sweep (retiring
  // below an older mark is always safe); phases cover the four swept key
  // families in tag order: 0 coordinators, 1 claims, 2 pages, 3 data. A
  // slice ends between version groups, so nothing carries over but the
  // resume key.
  struct GcSweep {
    bool active = false;
    bool rearm = false;
    uint64_t generation = 0;
    Epoch watermark = 0;
    int phase = 0;
    std::string resume;  // next slice's Seek start; empty: the phase's
  };
  GcSweep gc_sweep_;
  // Admission control: latest load hint per peer (timestamped so stale
  // reports age out) and the synthetic test component of our own hint.
  struct PeerLoad {
    uint32_t hint = 0;
    sim::SimTime at = 0;
  };
  std::unordered_map<net::NodeId, PeerLoad> peer_load_;
  uint32_t injected_load_hint_ = 0;
  // Multi-writer GC: latest watermark advertised per participant, with the
  // sim time it was heard (entries expire after kParticipantMarkTtlUs).
  struct ParticipantMark {
    Epoch mark = 0;
    sim::SimTime at = 0;
  };
  std::map<ParticipantId, ParticipantMark> participant_marks_;
  // LocalBucketDigests' last build (empty before the first), and the
  // store's put and delete counts it was built at. OnRestart drops it:
  // recovery rebuilds the store without counting.
  struct DigestCache {
    uint64_t puts = 0;
    uint64_t deletes = 0;
    std::vector<BucketDigest> buckets;
  };
  DigestCache digests_;
};

}  // namespace orchestra::storage

#endif  // ORCHESTRA_STORAGE_SERVICE_H_
