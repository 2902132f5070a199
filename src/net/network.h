// Simulated message-based network with TCP-like semantics (§III-B, §V-A):
//  * reliable, in-order delivery between any pair of live nodes,
//  * near-immediate notification of connection drop when a peer dies,
//  * flow control arises from bandwidth pacing (uplink/downlink occupancy),
//  * per-link bandwidth and latency knobs (the NetEm/HTB substitute, §VI-C),
//  * complete traffic accounting — real serialized byte counts.
//
// CPU execution model: each node is single-threaded. Incoming messages queue
// at the node and are drained one at a time; handlers charge simulated CPU
// through ChargeCpu(), which advances the node's clock. Messages sent from
// inside a handler depart at the handler's (charged) completion time.
#ifndef ORCHESTRA_NET_NETWORK_H_
#define ORCHESTRA_NET_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hash/hash_id.h"
#include "sim/cost_model.h"
#include "sim/simulator.h"

namespace orchestra::net {

/// Dense node identifier: index into the network's node table.
using NodeId = uint32_t;
constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Framing overhead charged per message on top of the payload (Ethernet + IP
/// + TCP headers and our type/length framing).
constexpr uint64_t kMessageOverheadBytes = 66;

/// Application hook for a node.
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  /// A message arrived. `type` is an application-defined tag; `payload` the
  /// serialized body. Runs on the node's (simulated) thread.
  virtual void OnMessage(NodeId from, uint32_t type, const std::string& payload) = 0;
  /// The TCP connection to `peer` dropped (peer failed or partitioned).
  virtual void OnConnectionDrop(NodeId /*peer*/) {}
};

/// Link characteristics; defaults model the paper's Gigabit LAN.
struct LinkParams {
  double bandwidth_bytes_per_sec = 125.0e6;  // 1 Gbit/s
  sim::SimTime latency_us = 100;             // 0.1 ms LAN RTT/2
};

struct NodeTraffic {
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t messages_sent = 0;
  uint64_t messages_received = 0;
};

/// A node's inbox occupancy: queued-but-undrained deliveries (messages,
/// drop notices, and node tasks) and their payload bytes, plus high-water
/// marks since the last ResetTraffic(). This is the admission-control
/// signal — storage replies advertise it as a load hint, and it is what the
/// pipelined-publish bench bounds under overload.
struct InboxStats {
  uint64_t messages = 0;      // deliveries currently queued
  uint64_t bytes = 0;         // payload bytes currently queued
  uint64_t max_messages = 0;  // high-water marks (reset with traffic)
  uint64_t max_bytes = 0;
};

/// Fault-injection mix applied to cross-node messages (local loopback, drop
/// notices, and node tasks are never perturbed). Decisions are drawn from a
/// dedicated seeded Rng in Send order, so a run is bit-for-bit reproducible.
/// Per-direction drop overrides (SetDropOverride) model asymmetric
/// partitions: the ordered pair (from -> to) can drop at its own rate while
/// the reverse direction stays healthy.
struct FaultOptions {
  double drop_prob = 0;               // P(message silently lost)
  double delay_prob = 0;              // P(extra propagation delay)
  sim::SimTime max_extra_delay_us = 0;  // delay drawn uniform in [1, max]
};

struct FaultCounters {
  uint64_t dropped = 0;
  uint64_t delayed = 0;
};

/// The simulated network. Owns node state; applications register a
/// MessageHandler per node.
class Network {
 public:
  Network(sim::Simulator* simulator, LinkParams default_link,
          const sim::CostModel* cost_model = &sim::CostModel::Default());

  /// Adds a node; `cpu_speed` scales CPU charges (1.0 = reference machine).
  NodeId AddNode(const std::string& name, double cpu_speed = 1.0);
  size_t node_count() const { return nodes_.size(); }

  void SetHandler(NodeId node, MessageHandler* handler);
  const std::string& NodeName(NodeId node) const { return nodes_[node].name; }

  /// Overrides link params for the ordered pair (from → to).
  void SetLinkParams(NodeId from, NodeId to, LinkParams params);
  /// Overrides every link's params (bandwidth sweep experiments).
  void SetAllLinkParams(LinkParams params);
  LinkParams GetLinkParams(NodeId from, NodeId to) const;

  /// Reliable in-order send. Local sends (from == to) are delivered without
  /// touching the network (zero traffic, zero latency) — this is what makes
  /// the storage layer's index/data co-location optimization real (§IV). A
  /// send to a dead node is a connect to a closed port: nothing is delivered,
  /// and the sender gets OnConnectionDrop one round trip later.
  void Send(NodeId from, NodeId to, uint32_t type, std::string payload);

  /// Fail-stop kill: node stops processing; all peers get OnConnectionDrop
  /// after their one-way latency to the dead node (TCP reset detection).
  void KillNode(NodeId node);
  /// "Hung" machine (§V-C): stops draining its inbox but connections stay
  /// open, so only application-level pings can detect it.
  void HangNode(NodeId node);
  /// Recovers a hung (still-alive) machine: it resumes draining its inbox,
  /// backlog first — unlike ReviveNode, nothing queued was lost.
  void UnhangNode(NodeId node);
  /// Restart after a fail-stop kill: the node processes messages again with
  /// an empty inbox. Everything in flight to it while dead was lost; peers
  /// reconnect implicitly on the next send.
  void ReviveNode(NodeId node);
  bool IsAlive(NodeId node) const { return nodes_[node].alive; }
  bool IsHung(NodeId node) const { return nodes_[node].hung; }

  // --- Fault injection ------------------------------------------------------
  /// Seeds the fault stream; faults stay disabled until SetFaultOptions gives
  /// non-zero probabilities. Reseeding restarts the stream.
  void SeedFaults(uint64_t seed) { fault_rng_ = Rng(seed); }
  /// Swaps the active fault mix (e.g. zeroed at a convergence point). The
  /// decision stream keeps its position, so toggling is itself deterministic.
  void SetFaultOptions(FaultOptions opts) { fault_opts_ = opts; }
  const FaultCounters& fault_counters() const { return fault_counters_; }
  /// Asymmetric partition support: the ordered link (from -> to) drops at
  /// `prob` instead of the global drop_prob; the reverse direction is
  /// unaffected. Decisions still come from the shared seeded stream in Send
  /// order, so runs stay reproducible. Remove with ClearDropOverrides().
  void SetDropOverride(NodeId from, NodeId to, double prob) {
    drop_overrides_[{from, to}] = prob;
  }
  /// Heals one directed link (removes its override; the global drop_prob
  /// applies again). No-op if no override is set.
  void ClearDropOverride(NodeId from, NodeId to) {
    drop_overrides_.erase({from, to});
  }
  void ClearDropOverrides() { drop_overrides_.clear(); }

  /// Charges `micros` of reference-speed CPU to `node` (scaled by its speed).
  /// Must be called from inside a message handler or scheduled node task.
  void ChargeCpu(NodeId node, double micros);

  /// Runs `fn` as a task on `node`'s simulated thread at time >= `at`.
  void RunOnNode(NodeId node, sim::SimTime at, std::function<void()> fn);

  // --- Traffic accounting ---------------------------------------------------
  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t total_messages() const { return total_messages_; }
  const NodeTraffic& traffic(NodeId node) const { return nodes_[node].traffic; }
  /// Current + high-water inbox occupancy (admission-control signal).
  const InboxStats& inbox_stats(NodeId node) const { return nodes_[node].inbox_stats; }
  /// Max over nodes of the inbox message high-water mark.
  uint64_t MaxInboxMessages() const;
  void ResetTraffic();

  sim::Simulator* simulator() { return sim_; }
  const sim::CostModel& costs() const { return *costs_; }

 private:
  struct Delivery {
    NodeId from = kInvalidNode;
    uint32_t type = 0;
    std::string payload;
    bool is_drop_notice = false;  // OnConnectionDrop pseudo-message
    std::function<void()> task;   // RunOnNode pseudo-message
  };

  struct NodeState {
    std::string name;
    double cpu_speed = 1.0;
    bool alive = true;
    bool hung = false;
    MessageHandler* handler = nullptr;
    std::deque<Delivery> inbox;
    bool drain_scheduled = false;
    sim::SimTime cpu_free = 0;      // node's thread is busy until this time
    sim::SimTime uplink_free = 0;   // outgoing NIC busy until
    sim::SimTime downlink_free = 0; // incoming NIC busy until
    // Arrival time of the latest in-flight message per sender; a drop notice
    // for a dead sender must not overtake these (per-connection TCP order).
    std::map<NodeId, sim::SimTime> last_arrival_from;
    NodeTraffic traffic;
    InboxStats inbox_stats;
  };

  void EnqueueDelivery(NodeId to, Delivery d, sim::SimTime at);
  /// Tells `peer` at `at` that its connection to `dead` dropped, but never
  /// ahead of data `dead` already sent it.
  void SendDropNotice(NodeId dead, NodeId peer, sim::SimTime at);
  void ScheduleDrain(NodeId node, sim::SimTime at);
  void DrainOne(NodeId node);

  void InboxPush(NodeState& node, const Delivery& d);
  void InboxPop(NodeState& node, const Delivery& d);
  void InboxClear(NodeState& node);

  sim::Simulator* sim_;
  const sim::CostModel* costs_;
  LinkParams default_link_;
  std::map<std::pair<NodeId, NodeId>, LinkParams> link_overrides_;
  std::map<std::pair<NodeId, NodeId>, double> drop_overrides_;
  std::vector<NodeState> nodes_;
  uint64_t total_bytes_ = 0;
  uint64_t total_messages_ = 0;
  NodeId draining_node_ = kInvalidNode;  // node whose handler is running
  Rng fault_rng_{0};
  FaultOptions fault_opts_;
  FaultCounters fault_counters_;
};

}  // namespace orchestra::net

#endif  // ORCHESTRA_NET_NETWORK_H_
