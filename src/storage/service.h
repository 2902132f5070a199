// StorageService: the per-node endpoint of the versioned storage protocol.
// Every node simultaneously plays all Fig. 3 roles for the key ranges it
// owns/replicates: relation coordinator, index node, inverse node, and data
// storage node. The service also implements the client side of
// Retrieve(R, e, f) — Algorithm 1 — with replica-retry on missing state, so
// a retrieval can never observe stale data: a tuple version is reachable
// only through the epoch's page list (§IV).
#ifndef ORCHESTRA_STORAGE_SERVICE_H_
#define ORCHESTRA_STORAGE_SERVICE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "localstore/local_store.h"
#include "net/node_host.h"
#include "net/rpc.h"
#include "overlay/ring.h"
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
/// The publish-path bodies (kPutTuples, kFetchTuples) carry each tuple's
/// placement hash in 20-byte big-endian wire form, computed once by the
/// publisher; receivers splice it straight into their localstore keys and
/// never recompute SHA-1.
enum StorageCode : uint16_t {
  kCatalogAdd = 1,
  // One coalesced frame per destination node and publish: nrels, then per
  // relation: rel, n, then per tuple: hash(20B BE), key, epoch, bytes. The
  // publisher batches every tuple write bound for a node — across all
  // relations and partitions — into a single kPutTuples RPC.
  kPutTuples = 2,
  kPutPage = 3,
  kPutCoordinator = 4,
  kGetCoordinator = 5,
  kGetPage = 6,
  kGetInverse = 7,
  kGetTuple = 8,
  kScanPage = 9,      // Algorithm 1, step 4: ask index node to scan a page
  kFetchTuples = 10,  // Algorithm 1, step 8: index node -> data node
  kTupleData = 11,    // Algorithm 1, step 9: data node -> requester (direct)
  kReplicaPush = 12,  // background re-replication (PAST-style, §III-C);
                      // leads with the pusher's GC watermark so a restarted
                      // node catches up without waiting for the next publish
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
  kGetEpochClaim = 16,   // read back (participant, node, committed) of a claim
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
  // (data/page/coordinator records at that epoch, plus inverse entries that
  // pointed at them). Refused while the owner is fresh (its claim refreshes
  // beat the TTL), once the epoch committed, when the slot changed hands, or
  // behind the confirmed frontier. The reply body names the fenced instance
  // (participant, node, nonce). Safety rides the same single-failure overlap
  // argument as claims: a fence needs EVERY live claim replica, so it cannot
  // coexist with a full un-fenced claim or a confirmed commit.
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

/// Whole-scan deadline for Retrieve: bounds loss of the one-way data legs.
constexpr sim::SimTime kScanDeadlineUs = 120 * sim::kMicrosPerSec;

/// A participant's GC watermark advertisement stays live this long; after
/// that the participant is considered departed and stops holding the
/// effective (min-across-participants) watermark down.
constexpr sim::SimTime kParticipantMarkTtlUs = 300 * sim::kMicrosPerSec;

/// Sargable filter pushed to index nodes: an inclusive key-bytes range.
struct KeyFilter {
  bool all = true;
  std::string lo, hi;  // valid when !all

  bool Matches(const std::string& key_bytes) const {
    return all || (key_bytes >= lo && key_bytes <= hi);
  }
  void EncodeTo(Writer* w) const;
  static Status DecodeFrom(Reader* r, KeyFilter* out);
};

class StorageService : public net::Service {
 public:
  using RpcCallback = std::function<void(Status, const std::string& body)>;
  using RetrieveCallback =
      std::function<void(Status, std::vector<Tuple>)>;

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
  Result<Page> ReadPageLocal(const PageId& id) const;
  Result<PageId> ReadInverseLocal(const std::string& rel, uint32_t partition) const;
  /// Zero-copy read of one tuple version's stored (encoded) bytes; computes
  /// the placement hash. The view is valid until the next store mutation.
  Result<std::string_view> ReadTupleBytesLocal(std::string_view rel,
                                               const TupleId& id) const;
  /// Same, with the placement hash supplied in its 20-byte big-endian wire
  /// form (as carried by kPutTuples/kFetchTuples/kQueryFetch) — no SHA-1.
  Result<std::string_view> ReadTupleBytesRaw(std::string_view rel,
                                             std::string_view hash_be20,
                                             std::string_view key_bytes,
                                             Epoch epoch) const;
  /// Single ordered pass over the page's hash range, yielding tuples present
  /// in the page. Ids in the page but missing locally are appended to
  /// `missing` (stale replica). CPU is charged per record scanned.
  Status ScanPageLocal(const std::string& rel, const Page& page,
                       const KeyFilter& filter,
                       const std::function<void(const TupleId&, Tuple)>& yield,
                       std::vector<TupleId>* missing);

  // --- Asynchronous RPC (lifecycle-managed, see net/rpc.h) ------------------
  /// Sends a request; `cb` resolves exactly once — with the reply, with
  /// TimedOut at the per-call deadline, or with Unavailable when the
  /// destination is reaped after a connection drop.
  void Call(net::NodeId to, uint16_t code, std::string body, RpcCallback cb,
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
  /// Retrieve scans still in flight (leak regression hook).
  size_t active_scan_count() const { return scans_.size(); }
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
  /// Fetches a page from its index node, retrying replicas.
  void GetPage(const PageDescriptor& desc,
               std::function<void(Status, Page)> cb);
  /// Algorithm 1: Retrieve(R, e, f). Returns all matching tuples via cb.
  void Retrieve(const std::string& rel, Epoch epoch, const KeyFilter& filter,
                RetrieveCallback cb);
  /// Fetches one tuple version, trying each replica of its data node in turn
  /// (used when a local replica is stale, §IV).
  void FetchTuple(const std::string& rel, const TupleId& id,
                  std::function<void(Status, Tuple)> cb);

  /// Re-replicates local state according to `snap` (background replication
  /// after membership change). Sends batched kReplicaPush messages.
  void RebalanceTo(const overlay::RoutingSnapshot& snap);

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
  Epoch max_epoch_seen() const { return max_epoch_seen_; }

  /// Crash-restart hook: rebuilds transient epoch bookkeeping from the
  /// (durable) store after a Recover().
  void OnRestart();

  /// True if `e` is known burned on this node (fence granted here, learned
  /// via kPurgeEpoch, or rebuilt from the durable fenced claim record).
  bool IsEpochFenced(Epoch e) const { return fenced_epochs_.count(e) > 0; }

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
  /// Fail-stop death of this node: drop outstanding calls and scans without
  /// invoking their callbacks — nothing may execute on a halted node. Scan
  /// deadline closures are cancelled eagerly, like resolved RPC deadlines.
  void OnSelfFailed() override {
    rpc_.DropAll();
    // lint:allow(det-unordered-iter): cancels deadline closures only; no
    // callbacks run on a halted node, so order cannot reach the trace.
    for (auto& [id, scan] : scans_) {
      host_->network()->simulator()->Cancel(scan.deadline_event);
    }
    scans_.clear();
  }

  struct Counters {
    uint64_t tuples_stored = 0;
    uint64_t pages_stored = 0;
    uint64_t coordinators_stored = 0;
    uint64_t scans_served = 0;
    uint64_t tuples_served = 0;
    // Coalesced publish frames received: one per (publish, destination node)
    // pair — the RPC-count story of the pipelined publish path.
    uint64_t puttuples_frames = 0;
    // Multi-writer contention observed at this node: claim requests refused
    // with kEpochTaken, and same-epoch coordinator writes refused at the
    // commit gate (the backstop; nonzero only under claim-replica-set
    // wipeout by simultaneous membership churn).
    uint64_t claims_granted = 0;
    uint64_t claims_refused = 0;
    uint64_t coordinator_conflicts = 0;
    // Abandonment fencing at this claim replica: kFenceEpoch grants (the
    // epoch burned here) and refusals (owner fresh/committed/frontier), late
    // writes refused because their epoch is fenced, and orphan records
    // purged by fence-triggered local purges.
    uint64_t fences_granted = 0;
    uint64_t fences_refused = 0;
    uint64_t fenced_writes_refused = 0;
    uint64_t purged_orphans = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  struct ScanState {
    std::string relation;
    Epoch epoch;
    KeyFilter filter;
    RetrieveCallback cb;
    size_t pages_total = 0;
    size_t summaries_received = 0;
    size_t data_parts_expected = 0;
    size_t data_parts_received = 0;
    size_t lookups_outstanding = 0;  // retries of individually missing tuples
    std::vector<Tuple> rows;
    bool failed = false;
    // Whole-scan deadline: the data legs (kFetchTuples/kTupleData) are
    // one-way, so a lost message would otherwise leave the scan pending
    // forever. Resolves the scan with TimedOut; cancelled on completion.
    sim::Simulator::EventId deadline_event = 0;
  };

  void Respond(net::NodeId to, uint64_t req_id, Status st, std::string body);
  /// Replies with the stored bytes under `key`, or with NotFound.
  void RespondStored(net::NodeId to, uint64_t req_id, const std::string& key);
  /// The epoch's stored claim record: NotFound when the slot is empty,
  /// Corruption when its bytes do not decode.
  Result<EpochClaimRecord> LoadClaim(Epoch epoch) const;
  void PutClaim(Epoch epoch, const EpochClaimRecord& rec);
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
  /// Retires up to `budget` records' worth of sweep work; true when the
  /// sweep has covered all four key families.
  bool RunGcSlice(uint64_t budget);
  /// Records a participant's advertised mark (monotonic, TTL-pruned)
  /// WITHOUT applying the effective watermark — bulk callers (replica push)
  /// merge everything first and sweep once.
  void MergeParticipantMark(ParticipantId p, Epoch mark);
  void HandleClaimEpoch(net::NodeId from, Reader* r, uint64_t req_id);
  void HandleFenceEpoch(net::NodeId from, Reader* r, uint64_t req_id);
  /// Records `epoch` as burned (fenced instance = participant/nonce), stores
  /// the durable fenced claim marker, and purges local orphan versions — a
  /// no-op if the local claim committed (a commit is a fact a fence never
  /// overrides) or the burn is already known.
  void MergeFencedEpoch(Epoch epoch, ParticipantId participant, uint64_t nonce);
  /// Deletes every data/page/coordinator version stored at `epoch` and
  /// repairs inverse entries that pointed at a purged page (re-aimed at the
  /// newest surviving version, or dropped when none survives), so discovery
  /// never sees torn state after a fence.
  void PurgeEpochLocal(Epoch epoch);
  void HandleRequest(net::NodeId from, uint16_t code, Reader* r, uint64_t req_id);
  void HandleScanPage(net::NodeId from, Reader* r, uint64_t req_id);
  void HandleFetchTuples(net::NodeId from, Reader* r);
  void HandleTupleData(net::NodeId from, Reader* r);
  void ScanCheckDone(uint64_t scan_id);
  void ScanFail(uint64_t scan_id, Status st);
  void StartPageScan(uint64_t scan_id, const PageDescriptor& desc, size_t replica_idx);
  void RecoverMissingTuple(uint64_t scan_id, const TupleId& id, size_t replica_idx);

  void ChargeCpu(double micros) { host_->network()->ChargeCpu(node(), micros); }

  net::NodeHost* host_;
  std::shared_ptr<SnapshotBoard> board_;
  int replication_;
  net::RpcClient rpc_;
  localstore::LocalStore store_;
  // std::less<> enables string_view lookups without temporary strings.
  std::map<std::string, RelationDef, std::less<>> catalog_;
  uint64_t next_scan_id_ = 1;
  std::unordered_map<uint64_t, ScanState> scans_;
  Counters counters_;
  Epoch max_epoch_seen_ = 0;
  Epoch gc_watermark_ = 0;
  GcStats gc_;
  // Background sweep cursor. The watermark is pinned per sweep (retiring
  // below an older mark is always safe); phases cover the four swept key
  // families in tag order: 0 coordinators, 1 claims, 2 pages, 3 data.
  struct GcSweep {
    bool active = false;
    bool rearm = false;
    uint64_t generation = 0;
    Epoch watermark = 0;
    int phase = 0;
    std::string resume;       // lower bound of the next slice's Seek
    std::string group;        // version-group carry (phases 2 and 3)
    std::string best_key;     // newest version <= watermark in `group`
    bool best_is_tombstone = false;
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
  // Abandonment fencing. `claim_touch_` is the freshness clock a fence races
  // against: set at every claim grant/re-grant and confirm, seeded to "now"
  // for surviving uncommitted claims on restart (conservative: a replica
  // restart must not make a live owner look stale). Transient by design.
  std::map<Epoch, sim::SimTime> claim_touch_;
  // Burned epochs with the fenced instance (for instance-exact zombie write
  // refusals). Durable via the fenced claim record; rebuilt on restart and
  // re-taught by the replica-push piggyback. Never pruned — fences are rare
  // and a retained entry keeps a stale push from resurrecting orphans.
  struct FencedInstance {
    ParticipantId participant = 0;
    uint64_t nonce = 0;
  };
  std::map<Epoch, FencedInstance> fenced_epochs_;
};

}  // namespace orchestra::storage

#endif  // ORCHESTRA_STORAGE_SERVICE_H_
