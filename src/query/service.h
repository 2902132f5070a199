// QueryService: the per-node distributed query engine (§V).
//
// Worker role (every node in the snapshot):
//  * instantiates the disseminated plan + routing-table snapshot,
//  * drives leaf scans over the versioned pages it owns (distributed scan
//    spillover pushes remote tuples into the plan at their data node),
//  * routes Rehash output by hash under the query's routing table, batches
//    and compresses blocks,
//  * runs the end-of-stream protocol (§V-B): every EOS frame (scan
//    part-done, rehash EOS marker, ship EOS) tells its receiver how many
//    frames of its edge the sender has sent it, and the receiver's barrier
//    holds once they have all arrived,
//  * on a recovery message: purges tainted state, re-arms EOS for the new
//    phase, restarts leaf scans for inherited ranges, and re-sends cached
//    output that had been destined to failed nodes (§V-D stages 2-4),
//  * reports a scan read that fails, or a counted frame that never arrived,
//    to the initiator (kScanFailed).
//
// Initiator role:
//  * resolves scan bindings (coordinator records) at the chosen epoch,
//  * takes the routing snapshot and disseminates it with the plan (§V-A),
//  * collects shipped rows (with taints) and runs the final stage,
//  * detects failures via connection drops, participant reports, and
//    optional pings; recovers incrementally or by full restart (§V-C/D),
//  * fails the query with the status of a worker's kScanFailed, or as
//    Unavailable when a ship EOS counts a block that never arrived.
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

/// A member that misses more than this many ping rounds in a row is
/// suspected hung.
constexpr uint64_t kPingMissThreshold = 3;

/// Every query resolves: query frames are one-way, so one lost ship or EOS
/// frame would leave its root waiting forever, and one lost kAbort its
/// worker's execution. This long after Execute the root finishes with
/// TimedOut, and this long after its plan arrived a worker releases the
/// execution.
constexpr sim::SimTime kQueryDeadlineUs = 120 * sim::kMicrosPerSec;

/// Rows per network block (batching, §V-A).
constexpr size_t kBlockRows = 1024;

struct QueryOptions {
  enum class RecoveryMode : uint8_t { kNone = 0, kRestart = 1, kIncremental = 2 };
  RecoveryMode recovery = RecoveryMode::kIncremental;
  /// Background pings to detect "hung" machines (§V-C): one round per
  /// interval; 0 sends none.
  sim::SimTime ping_interval_us = 0;
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
  /// binds its coordinator record there) and delivers the final rows, or an
  /// error no later than kQueryDeadlineUs.
  void Execute(const PhysicalPlan& plan, storage::Epoch epoch, QueryOptions options,
               Callback cb);

  void OnMessage(net::NodeId from, uint16_t code, const std::string& payload) override;
  void OnConnectionDrop(net::NodeId peer) override;
  /// Fail-stop death of this node: release every root (initiator state,
  /// including the user's completion callback), exec, deadline and buffered
  /// message without invoking anything — the node is halted.
  void OnSelfFailed() override;

  net::NodeId node() const { return host_->node(); }

  struct Counters {
    uint64_t blocks_sent = 0;
    uint64_t rows_routed = 0;
    uint64_t rows_shipped = 0;
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

  /// Query protocol message codes (service kQuery); docs/WIRE_FORMATS.md
  /// gives each frame's body.
  enum QueryCode : uint16_t {
    kPlan = 1,
    kDataBlock = 2,
    kBlockAck = 3,  // retired (per-block ack); reserved, never reused
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
    kScanFailed = 14,
  };

 private:
  /// End-of-stream barrier over a routing table. It counts the frames of
  /// its edge that arrive from each sender, and each sender marks the highest
  /// phase it has finished with how many it sent here, across phases. The
  /// barrier holds for phase p once every member of the table has marked p
  /// and all its frames have arrived. One type serves the scan part-done
  /// wait, a rehash op's EOS markers and the initiator's ship EOS.
  class Barrier {
   public:
    void Arrive(net::NodeId from) { senders_[from].arrived += 1; }
    /// False when fewer of the `frames` have arrived: delivery is in order
    /// per connection, so one was lost.
    bool Mark(net::NodeId from, uint32_t phase, uint32_t frames);
    bool Reached(const overlay::RoutingSnapshot& table, uint32_t phase) const;

   private:
    struct Sender {
      bool marked = false;
      uint32_t phase = 0, frames = 0, arrived = 0;
    };
    std::map<net::NodeId, Sender> senders_;
  };

  // --- Worker-side state -----------------------------------------------------
  /// What one operator's network edge has done in the current recovery
  /// phase; a new phase starts from fresh flags and the EOS wave re-runs.
  struct PhaseFlags {
    bool input_done = false;     // scan: iteration ended
    bool eos_sent = false;       // part-done, EOS markers or ship EOS sent
    bool eos_delivered = false;  // the barrier released EOS into the plan
  };

  /// One plan operator on this node: its instance plus the state of its
  /// network edge. Scan ops use the scan fields, rehash ops the rehash
  /// fields; both wait on `eos` (scan: every node's part-done; rehash: every
  /// sender's EOS marker).
  struct OpRec {
    std::unique_ptr<Operator> op;
    PhaseFlags phase;
    Barrier eos;
    // Scan: the coordinator record it reads and its page queues.
    storage::CoordinatorRecord binding;
    std::deque<storage::PageDescriptor> pending_pages;
    /// Pages this node already scanned whose ids must be re-routed because
    /// their data-storage node failed (partial rescan, §V-D stage 3).
    std::deque<storage::PageDescriptor> pending_partial;
    size_t async_outstanding = 0;
    bool chain_running = false;
    /// The data key and the row each read decodes into, reused across rows.
    std::string read_key;
    Tuple read_row;
    /// Frames of this op's edge sent to each node, across phases (scan:
    /// kQueryFetch, rehash: kDataBlock, ship: kShipBlock); each EOS frame
    /// carries its count.
    std::map<net::NodeId, uint32_t> sent;
    // Rehash and ship: rows buffered per destination (ship: the initiator).
    // Rehash: the output cache for recovery resend (§V-D).
    std::map<net::NodeId, std::vector<BlockRow>> buffers;
    struct CacheEntry {
      BlockRow row;
      net::NodeId dest;
    };
    std::vector<CacheEntry> cache;
    /// The bytes RowHash hashes, reused across rows.
    std::string hash_key;
  };

  struct Exec {
    uint64_t query_id = 0;
    net::NodeId initiator = net::kInvalidNode;
    bool provenance = true;
    PhysicalPlan plan;
    overlay::RoutingSnapshot table;       // current (updated by recovery)
    overlay::RoutingSnapshot prev_table;  // table of the previous phase
    ExecContext cx;
    /// The taint of a row this node reads itself: {this node}, sized like
    /// every taint of the query (empty without provenance).
    DynamicBitset own_taint;
    std::vector<OpRec> ops;  // indexed by op id
    /// The kQueryDeadlineUs event; ReleaseExec and OnSelfFailed cancel it.
    sim::Simulator::EventId deadline = 0;
  };

  // --- Initiator-side state ---------------------------------------------------
  /// One run of the plan; a restart (kRestart recovery) replaces it whole.
  struct Run {
    uint32_t phase = 0;
    std::vector<BlockRow> results;
    Barrier ship_eos;
    bool ping_timer_armed = false;
  };

  struct Root {
    uint64_t query_id = 0;
    PhysicalPlan plan;
    storage::Epoch epoch = 0;
    QueryOptions options;
    overlay::RoutingSnapshot table;  // pinned at start, updated by recovery
    std::vector<net::NodeId> failed;
    DynamicBitset failed_bits;
    std::map<int32_t, storage::CoordinatorRecord> bindings;
    Run run;
    Callback cb;
    sim::SimTime started_at = 0;
    /// The kQueryDeadlineUs event. It holds a pointer to this root, so
    /// every path that erases a root cancels it (FinishRoot, OnSelfFailed).
    sim::Simulator::EventId deadline = 0;
    uint32_t recoveries = 0;
    uint32_t restarts = 0;
    // Ping-based hung-node detection; survives a restart.
    uint64_t ping_round = 0;
    std::map<net::NodeId, uint64_t> last_pong_round;
  };

  // Worker paths.
  void HandlePlan(const std::string& payload);
  /// Decodes a worker frame's header once, finds its execution (or holds
  /// the frame until the plan arrives), checks the op it names against the
  /// plan and hands it to its handler.
  void OnWorkerFrame(net::NodeId from, uint16_t code, const std::string& payload,
                     Reader* r);
  void HandleDataBlock(Exec& ex, TupleBlock block);
  void HandleQueryFetch(Exec& ex, net::NodeId from, int32_t scan_op, Reader* r);
  void HandleRecover(Exec& ex, Reader* r);
  void HandleAbort(Reader* r);
  /// Erases the query's execution, if any, with its deadline, and marks the
  /// id aborted so its late frames are not buffered.
  void ReleaseExec(uint64_t query_id);

  void StartExec(Exec& ex);
  /// Starts the scan chain over the queued pages unless it runs already;
  /// with no page queued, this node's part of the phase is done.
  void RunScan(Exec& ex, int32_t scan_op);
  void AssignScanPages(Exec& ex, int32_t scan_op,
                       const overlay::RoutingSnapshot& table,
                       std::deque<storage::PageDescriptor>* out) const;
  void DriveScanChain(uint64_t query_id, int32_t scan_op);
  enum class ScanMode { kFull, kFailedOwnersOnly };
  /// Scans one page version from its stored bytes, walking its entries in
  /// place: reads the ones this node owns and sends each other data owner
  /// its entries (kQueryFetch).
  void ProcessPage(Exec& ex, int32_t scan_op, const storage::PageDescriptor& desc,
                   std::string_view bytes, ScanMode mode);
  static ScanOp& ScanOf(Exec& ex, int32_t scan_op);
  /// The one read of a scanned tuple version, by the key its page entry
  /// names: from this node's store, decoding only the columns the scan's
  /// shape reads into the scan's reused row, or from a replica when the
  /// store lacks it (FetchScanTuple). Either way the row enters the plan
  /// through ScanOp::Push, as the covering scan's rows do.
  void ReadScanTuple(Exec& ex, int32_t scan_op, const std::string& rel,
                     const storage::EntryView& entry, const DynamicBitset& taint);
  void FetchScanTuple(Exec& ex, int32_t scan_op, const std::string& rel,
                      const storage::EntryView& entry, const DynamicBitset& taint);
  /// The one completion of an asynchronous scan read: settles the scan's
  /// outstanding count, runs `use` on success and re-checks the barrier. A
  /// failed read fails the query unless recovery would purge its rows anyway
  /// (their taint already meets the failed set).
  void FinishScanRead(uint64_t query_id, int32_t scan_op, const Status& st,
                      const DynamicBitset& taint,
                      const std::function<void(Exec&)>& use);
  /// Fails the query at its initiator (kScanFailed).
  void ReportScanFailure(Exec& ex, const Status& st);
  void FinishScanIteration(Exec& ex, int32_t scan_op);
  /// Sends op `id`'s EOS frame for the current phase (`code`: kScanPartDone
  /// or kEosMarker) to every member, each with the count of the op's frames
  /// it was sent.
  void SendEos(Exec& ex, int32_t id, uint16_t code);
  /// Releases EOS into the plan, once per phase, when op `id`'s barrier
  /// holds (for a scan, also only after this node's iteration and reads).
  void CheckEos(Exec& ex, int32_t id);
  void RouteRow(Exec& ex, int32_t rehash_op, BlockRow row);
  /// Sends the rows op `id` buffered for `dest` as one block: kDataBlock
  /// from a rehash op, kShipBlock from the ship op.
  void FlushBlock(Exec& ex, int32_t id, net::NodeId dest);
  void ShipRow(Exec& ex, BlockRow row);
  void OnShipChildEos(Exec& ex);

  // Initiator paths.
  void DisseminatePlan(Root& root);
  void HandleShipBlock(net::NodeId from, const std::string& payload);
  void HandleShipEos(net::NodeId from, Reader* r);
  void HandleSuspect(Root& root, net::NodeId node);
  void FinishRoot(Root& root, Status st);
  void PingTick(uint64_t query_id);
  /// The nodes of a query's current routing table.
  static std::vector<net::NodeId> LiveMembers(
      const overlay::RoutingSnapshot& table);

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
