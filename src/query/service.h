// QueryService: the per-node distributed query engine (§V).
//
// Worker role (every node in the snapshot):
//  * instantiates the disseminated plan + routing-table snapshot,
//  * drives leaf scans over the versioned pages it owns (distributed scan
//    spillover pushes remote tuples into the plan at their data node),
//  * routes Rehash output by hash under the query's routing table, batches
//    and compresses blocks, acks received blocks,
//  * runs the end-of-stream protocol: scans use a part-done barrier; a
//    Rehash broadcasts EOS markers only after its input ended AND all its
//    blocks were acked (§V-B),
//  * on a recovery message: purges tainted state, re-arms EOS for the new
//    phase, restarts leaf scans for inherited ranges, and re-sends cached
//    output that had been destined to failed nodes (§V-D stages 2-4).
//
// Initiator role:
//  * resolves scan bindings (coordinator records) at the chosen epoch,
//  * takes the routing snapshot and disseminates it with the plan (§V-A),
//  * collects shipped rows (with taints) and runs the final stage,
//  * detects failures via connection drops, participant reports, and
//    optional pings; recovers incrementally or by full restart (§V-C/D).
#ifndef ORCHESTRA_QUERY_SERVICE_H_
#define ORCHESTRA_QUERY_SERVICE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "query/operators.h"
#include "query/plan.h"
#include "storage/service.h"

namespace orchestra::query {

struct QueryOptions {
  enum class RecoveryMode : uint8_t { kNone = 0, kRestart = 1, kIncremental = 2 };
  RecoveryMode recovery = RecoveryMode::kIncremental;
  /// Rows per network block (batching, §V-A).
  uint32_t block_rows = 1024;
  /// Background pings to detect "hung" machines (§V-C).
  bool enable_ping = false;
  sim::SimTime ping_interval_us = 1 * sim::kMicrosPerSec;
  int ping_miss_threshold = 3;
  /// Disable provenance tagging (for the recovery-overhead ablation; queries
  /// cannot be recovered incrementally without it).
  bool provenance = true;
};

struct QueryResult {
  std::vector<Tuple> rows;
  sim::SimTime execution_us = 0;
  uint32_t recoveries = 0;
  uint32_t restarts = 0;
  std::vector<net::NodeId> failures_handled;
};

class QueryService : public net::Service {
 public:
  using Callback = std::function<void(Status, QueryResult)>;

  QueryService(net::NodeHost* host, storage::StorageService* storage,
               std::shared_ptr<storage::SnapshotBoard> board);

  /// Initiator entry point: runs `plan` against exactly `epoch` (every scan
  /// binds its coordinator record there) and delivers the final rows.
  void Execute(const PhysicalPlan& plan, storage::Epoch epoch, QueryOptions options,
               Callback cb);

  void OnMessage(net::NodeId from, uint16_t code, const std::string& payload) override;
  void OnConnectionDrop(net::NodeId peer) override;
  /// Fail-stop death of this node: release every root (initiator state,
  /// including the user's completion callback), exec, and buffered message
  /// without invoking anything — the node is halted.
  void OnSelfFailed() override {
    roots_.clear();
    execs_.clear();
    pending_.clear();
  }

  net::NodeId node() const { return host_->node(); }

  struct Counters {
    uint64_t blocks_sent = 0;
    uint64_t blocks_received = 0;
    uint64_t rows_routed = 0;
    uint64_t rows_shipped = 0;
    uint64_t rows_dropped_tainted = 0;
    uint64_t scans_restarted = 0;
    uint64_t cache_rows_resent = 0;
  };
  const Counters& counters() const { return counters_; }

  // --- Leak regression hooks -------------------------------------------------
  /// Initiator-side queries still holding a completion callback.
  size_t active_root_count() const { return roots_.size(); }
  /// Worker-side executions still instantiated.
  size_t active_exec_count() const { return execs_.size(); }
  /// Messages buffered ahead of their plan across all queries.
  size_t buffered_message_count() const {
    size_t n = 0;
    for (const auto& [qid, msgs] : pending_) n += msgs.size();
    return n;
  }

 private:
  enum QueryCode : uint16_t {
    kPlan = 1,
    kDataBlock = 2,
    kBlockAck = 3,
    kEosMarker = 4,
    kScanPartDone = 5,
    kQueryFetch = 6,
    kShipBlock = 7,
    kShipEos = 8,
    kNodeSuspect = 9,
    kRecover = 10,
    kAbort = 11,
    kPing = 12,
    kPong = 13,
  };

  // --- Worker-side state -----------------------------------------------------
  struct RehashState {
    std::map<net::NodeId, std::vector<BlockRow>> buffers;
    std::map<net::NodeId, uint32_t> next_seq;
    std::map<net::NodeId, std::set<uint32_t>> unacked;
    struct CacheEntry {
      BlockRow row;
      net::NodeId dest;
    };
    std::vector<CacheEntry> cache;  // output cache for recovery resend (§V-D)
    bool child_eos = false;
    bool eos_broadcast = false;  // for the current phase
  };

  struct ScanState {
    std::deque<storage::PageDescriptor> pending_pages;
    /// Pages this node already scanned whose ids must be re-routed because
    /// their data-storage node failed (partial rescan, §V-D stage 3).
    std::deque<storage::PageDescriptor> pending_partial;
    bool iteration_done = false;
    bool part_done_broadcast = false;
    size_t async_outstanding = 0;
    std::map<net::NodeId, uint32_t> part_done_phase;  // scan barrier
    bool chain_running = false;
  };

  struct Exec {
    uint64_t query_id = 0;
    net::NodeId initiator = net::kInvalidNode;
    storage::Epoch epoch = 0;
    bool provenance = true;
    uint32_t block_rows = 1024;
    PhysicalPlan plan;
    overlay::RoutingSnapshot snapshot;    // as disseminated
    overlay::RoutingSnapshot table;       // current (updated by recovery)
    overlay::RoutingSnapshot prev_table;  // table of the previous phase
    ExecContext cx;
    std::vector<std::unique_ptr<Operator>> ops;
    std::vector<int32_t> parents;
    std::map<int32_t, storage::CoordinatorRecord> bindings;
    std::map<int32_t, RehashState> rehash;
    std::map<int32_t, ScanState> scans;
    std::map<int32_t, std::map<net::NodeId, uint32_t>> eos_from;  // rehash EOS
    std::map<int32_t, bool> net_eos_delivered;  // per rehash op, this phase
    std::vector<BlockRow> ship_buffer;
    uint32_t ship_seq = 0;
    bool ship_eos_sent = false;
  };

  // --- Initiator-side state ---------------------------------------------------
  struct Root {
    uint64_t query_id = 0;
    PhysicalPlan plan;
    storage::Epoch epoch = 0;
    QueryOptions options;
    overlay::RoutingSnapshot snapshot;
    overlay::RoutingSnapshot table;
    uint32_t phase = 0;
    std::vector<net::NodeId> failed;
    DynamicBitset failed_bits;
    std::map<int32_t, storage::CoordinatorRecord> bindings;
    std::vector<BlockRow> results;
    std::map<net::NodeId, uint32_t> ship_eos_phase;
    Callback cb;
    sim::SimTime started_at = 0;
    uint32_t recoveries = 0;
    uint32_t restarts = 0;
    // Ping-based hung-node detection.
    uint64_t ping_round = 0;
    std::map<net::NodeId, uint64_t> last_pong_round;
    bool ping_timer_armed = false;
  };

  // Worker paths.
  void HandlePlan(net::NodeId from, const std::string& payload);
  void HandleDataBlock(net::NodeId from, const std::string& payload);
  void HandleBlockAck(net::NodeId from, Reader* r);
  void HandleEosMarker(net::NodeId from, Reader* r);
  void HandleScanPartDone(net::NodeId from, Reader* r);
  void HandleQueryFetch(net::NodeId from, Reader* r);
  void HandleRecover(net::NodeId from, const std::string& payload);
  void HandleAbort(Reader* r);

  void StartExec(Exec& ex);
  void AssignScanPages(Exec& ex, int32_t scan_op,
                       const overlay::RoutingSnapshot& table,
                       std::deque<storage::PageDescriptor>* out) const;
  void DriveScanChain(uint64_t query_id, int32_t scan_op);
  enum class ScanMode { kFull, kFailedOwnersOnly };
  void ProcessPage(Exec& ex, int32_t scan_op, const storage::Page& page,
                   ScanMode mode);
  void InjectScanRow(Exec& ex, int32_t scan_op, Tuple tuple, DynamicBitset taint);
  void FinishScanIteration(Exec& ex, int32_t scan_op);
  void CheckScanEos(Exec& ex, int32_t scan_op);
  void RouteRow(Exec& ex, int32_t rehash_op, BlockRow row, bool count_cache);
  void FlushRehash(Exec& ex, int32_t rehash_op, net::NodeId dest);
  void FlushAllRehash(Exec& ex, int32_t rehash_op);
  void TryBroadcastRehashEos(Exec& ex, int32_t rehash_op);
  void CheckNetEos(Exec& ex, int32_t op);
  void ShipRow(Exec& ex, BlockRow row);
  void FlushShip(Exec& ex);
  void OnShipChildEos(Exec& ex);
  std::vector<net::NodeId> LiveMembers(const Exec& ex) const;

  // Initiator paths.
  void DisseminatePlan(Root& root);
  void HandleShipBlock(net::NodeId from, const std::string& payload);
  void HandleShipEos(net::NodeId from, Reader* r);
  void HandleSuspect(Root& root, net::NodeId node);
  void CheckRootDone(Root& root);
  void FinishRoot(Root& root, Status st);
  void PingTick(uint64_t query_id);
  std::vector<net::NodeId> LiveMembers(const Root& root) const;

  void ChargeBlockCosts(const TupleBlock& block);
  void SendTo(net::NodeId to, uint16_t code, std::string payload) {
    host_->SendTo(to, net::ServiceId::kQuery, code, std::move(payload));
  }
  Exec* FindExec(uint64_t query_id);
  Root* FindRoot(uint64_t query_id);
  void BufferPending(uint64_t query_id, net::NodeId from, uint16_t code,
                     const std::string& payload);
  /// Records a finished/aborted query id (so late messages are not
  /// re-buffered), evicting the oldest ids beyond a fixed cap.
  void MarkAborted(uint64_t query_id);

  net::NodeHost* host_;
  storage::StorageService* storage_;
  std::shared_ptr<storage::SnapshotBoard> board_;
  std::map<uint64_t, std::unique_ptr<Exec>> execs_;
  std::map<uint64_t, std::unique_ptr<Root>> roots_;
  // Blocks that raced ahead of their plan message (FIFO is per-connection).
  std::map<uint64_t, std::vector<std::tuple<net::NodeId, uint16_t, std::string>>>
      pending_;
  std::set<uint64_t> aborted_;          // recently finished/aborted queries
  std::deque<uint64_t> aborted_order_;  // insertion order, for capped eviction
  // Peers whose connection dropped (fail-stop, ids are never reused): their
  // queries can make no progress, so messages for them are never buffered.
  std::set<net::NodeId> dropped_peers_;
  uint64_t next_query_seq_ = 1;
  Counters counters_;
};

}  // namespace orchestra::query

#endif  // ORCHESTRA_QUERY_SERVICE_H_
