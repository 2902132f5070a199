#include "net/network.h"

#include <algorithm>

#include "common/log.h"

namespace orchestra::net {

Network::Network(sim::Simulator* simulator, LinkParams default_link,
                 const sim::CostModel* cost_model)
    : sim_(simulator), costs_(cost_model), default_link_(default_link) {}

NodeId Network::AddNode(const std::string& name, double cpu_speed) {
  NodeState state;
  state.name = name;
  state.cpu_speed = cpu_speed;
  nodes_.push_back(std::move(state));
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Network::SetHandler(NodeId node, MessageHandler* handler) {
  nodes_[node].handler = handler;
}

void Network::SetLinkParams(NodeId from, NodeId to, LinkParams params) {
  link_overrides_[{from, to}] = params;
}

void Network::SetAllLinkParams(LinkParams params) {
  default_link_ = params;
  link_overrides_.clear();
}

LinkParams Network::GetLinkParams(NodeId from, NodeId to) const {
  auto it = link_overrides_.find({from, to});
  if (it != link_overrides_.end()) return it->second;
  return default_link_;
}

void Network::Send(NodeId from, NodeId to, uint32_t type, std::string payload) {
  ORC_CHECK(from < nodes_.size() && to < nodes_.size(), "bad node id");
  NodeState& sender = nodes_[from];
  if (!sender.alive) return;  // a dead node sends nothing

  // If called from inside this node's handler, the message departs at the
  // handler's current charged time; otherwise at the simulator's now.
  sim::SimTime initiate = std::max(sim_->now(), sender.cpu_free);
  if (!nodes_[to].alive) {
    SendDropNotice(to, from,
                   initiate + GetLinkParams(from, to).latency_us +
                       GetLinkParams(to, from).latency_us);
    return;
  }

  Delivery d;
  d.from = from;
  d.type = type;
  d.payload = std::move(payload);

  if (from == to) {
    // Local loopback: no network resource usage (co-location is free).
    EnqueueDelivery(to, std::move(d), initiate);
    return;
  }

  uint64_t bytes = d.payload.size() + kMessageOverheadBytes;
  sender.traffic.bytes_sent += bytes;
  sender.traffic.messages_sent += 1;
  total_bytes_ += bytes;
  total_messages_ += 1;

  LinkParams lp = GetLinkParams(from, to);
  double tx_us = static_cast<double>(bytes) / lp.bandwidth_bytes_per_sec * 1e6;

  // Uplink serialization at the sender ...
  sim::SimTime tx_start = std::max(initiate, sender.uplink_free);
  sim::SimTime tx_done = tx_start + static_cast<sim::SimTime>(tx_us);
  sender.uplink_free = tx_done;
  // Fault injection: the seeded stream decides this message's fate. A drop
  // loses the message downstream of the sender's NIC (uplink time already
  // spent, nothing reaches the receiver); a delay stretches propagation.
  // Directional overrides take precedence over the global drop rate, so an
  // asymmetric partition (A -> B lossy, B -> A clean) is expressible.
  sim::SimTime extra_delay = 0;
  double drop_prob = fault_opts_.drop_prob;
  if (!drop_overrides_.empty()) {
    auto ov = drop_overrides_.find({from, to});
    if (ov != drop_overrides_.end()) drop_prob = ov->second;
  }
  if (drop_prob > 0 && fault_rng_.NextDouble() < drop_prob) {
    fault_counters_.dropped += 1;
    return;
  }
  if (fault_opts_.delay_prob > 0 &&
      fault_rng_.NextDouble() < fault_opts_.delay_prob) {
    extra_delay = 1 + static_cast<sim::SimTime>(
                          fault_rng_.Uniform(static_cast<uint64_t>(
                              std::max<sim::SimTime>(fault_opts_.max_extra_delay_us, 1))));
    fault_counters_.delayed += 1;
  }
  // ... propagation ...
  sim::SimTime arrival = tx_done + lp.latency_us + extra_delay;
  // ... downlink serialization at the receiver. This is what makes a query
  // initiator collecting results from 15 peers a genuine bottleneck (§VI-B).
  NodeState& receiver = nodes_[to];
  sim::SimTime rx_start = std::max(arrival, receiver.downlink_free);
  sim::SimTime rx_done = rx_start + static_cast<sim::SimTime>(tx_us);
  receiver.downlink_free = rx_done;
  receiver.last_arrival_from[from] = rx_done;

  EnqueueDelivery(to, std::move(d), rx_done);
}

void Network::EnqueueDelivery(NodeId to, Delivery d, sim::SimTime at) {
  sim_->Schedule(at, [this, to, d = std::move(d)]() mutable {
    NodeState& node = nodes_[to];
    if (!node.alive) return;  // bytes hit a dead NIC
    if (!d.task && !d.is_drop_notice && d.from != to) {
      uint64_t bytes = d.payload.size() + kMessageOverheadBytes;
      node.traffic.bytes_received += bytes;
      node.traffic.messages_received += 1;
    }
    InboxPush(node, d);
    node.inbox.push_back(std::move(d));
    if (!node.hung) ScheduleDrain(to, std::max(sim_->now(), node.cpu_free));
  });
}

void Network::InboxPush(NodeState& node, const Delivery& d) {
  InboxStats& s = node.inbox_stats;
  s.messages += 1;
  s.bytes += d.payload.size();
  s.max_messages = std::max(s.max_messages, s.messages);
  s.max_bytes = std::max(s.max_bytes, s.bytes);
}

void Network::InboxPop(NodeState& node, const Delivery& d) {
  InboxStats& s = node.inbox_stats;
  s.messages -= 1;
  s.bytes -= d.payload.size();
}

void Network::InboxClear(NodeState& node) {
  node.inbox_stats.messages = 0;
  node.inbox_stats.bytes = 0;
  node.inbox.clear();
}

void Network::ScheduleDrain(NodeId node, sim::SimTime at) {
  NodeState& state = nodes_[node];
  if (state.drain_scheduled) return;
  state.drain_scheduled = true;
  sim_->Schedule(at, [this, node]() { DrainOne(node); });
}

void Network::DrainOne(NodeId node) {
  NodeState& state = nodes_[node];
  state.drain_scheduled = false;
  if (!state.alive || state.hung || state.inbox.empty()) return;

  Delivery d = std::move(state.inbox.front());
  state.inbox.pop_front();
  InboxPop(state, d);

  state.cpu_free = std::max(state.cpu_free, sim_->now());
  NodeId prev_draining = draining_node_;
  draining_node_ = node;

  if (d.task) {
    d.task();
  } else if (d.is_drop_notice) {
    if (state.handler) state.handler->OnConnectionDrop(d.from);
  } else {
    ChargeCpu(node, costs_->msg_fixed_us);
    if (state.handler) state.handler->OnMessage(d.from, d.type, d.payload);
  }

  draining_node_ = prev_draining;
  if (state.alive && !state.hung && !state.inbox.empty()) {
    ScheduleDrain(node, std::max(sim_->now(), state.cpu_free));
  }
}

void Network::KillNode(NodeId node) {
  NodeState& state = nodes_[node];
  if (!state.alive) return;
  state.alive = false;
  InboxClear(state);
  // TCP reset propagates to every peer holding a connection; with complete
  // routing tables (§III-B) that is every other node. It is NOT delayed by
  // unrelated traffic the peer is ingesting from other nodes.
  for (NodeId peer = 0; peer < nodes_.size(); ++peer) {
    if (peer == node || !nodes_[peer].alive) continue;
    SendDropNotice(node, peer,
                   sim_->now() + GetLinkParams(node, peer).latency_us);
  }
}

void Network::SendDropNotice(NodeId dead, NodeId peer, sim::SimTime at) {
  // In-order delivery is per-connection: the reset cannot overtake data the
  // dead node already sent to that peer, so a handler never sees a message
  // from a peer it has observed as dropped.
  auto last = nodes_[peer].last_arrival_from.find(dead);
  if (last != nodes_[peer].last_arrival_from.end()) {
    at = std::max(at, last->second);
  }
  Delivery d;
  d.from = dead;
  d.is_drop_notice = true;
  EnqueueDelivery(peer, std::move(d), at);
}

void Network::HangNode(NodeId node) { nodes_[node].hung = true; }

void Network::UnhangNode(NodeId node) {
  NodeState& state = nodes_[node];
  if (!state.alive || !state.hung) return;
  state.hung = false;
  // The machine was alive the whole time: its queued backlog survives and
  // drains now, oldest first (peers' RPCs to it may long since have timed
  // out; their reply handling tolerates late responses).
  state.cpu_free = std::max(state.cpu_free, sim_->now());
  if (!state.inbox.empty()) {
    ScheduleDrain(node, std::max(sim_->now(), state.cpu_free));
  }
}

void Network::ReviveNode(NodeId node) {
  NodeState& state = nodes_[node];
  if (state.alive) return;
  state.alive = true;
  state.hung = false;
  InboxClear(state);
  // The machine boots "now": its clocks cannot owe time from before death.
  sim::SimTime now = sim_->now();
  state.cpu_free = std::max(state.cpu_free, now);
  state.uplink_free = std::max(state.uplink_free, now);
  state.downlink_free = std::max(state.downlink_free, now);
}

void Network::ChargeCpu(NodeId node, double micros) {
  NodeState& state = nodes_[node];
  double scaled = micros / state.cpu_speed;
  state.cpu_free = std::max(state.cpu_free, sim_->now()) +
                   static_cast<sim::SimTime>(scaled);
}

void Network::RunOnNode(NodeId node, sim::SimTime at, std::function<void()> fn) {
  Delivery d;
  d.from = node;
  d.task = std::move(fn);
  EnqueueDelivery(node, std::move(d), at);
}

void Network::ResetTraffic() {
  total_bytes_ = 0;
  total_messages_ = 0;
  for (auto& n : nodes_) {
    n.traffic = NodeTraffic{};
    n.inbox_stats.max_messages = n.inbox_stats.messages;
    n.inbox_stats.max_bytes = n.inbox_stats.bytes;
  }
}

uint64_t Network::MaxInboxMessages() const {
  uint64_t m = 0;
  for (const auto& n : nodes_) m = std::max(m, n.inbox_stats.max_messages);
  return m;
}

}  // namespace orchestra::net
