// NodeHost: demultiplexes one node's inbound messages to the services running
// on it (storage, query executor, CDSS participant...). Message types
// are (service_id << 16) | code.
#ifndef ORCHESTRA_NET_NODE_HOST_H_
#define ORCHESTRA_NET_NODE_HOST_H_

#include <map>
#include <string>

#include "net/network.h"

namespace orchestra::net {

/// Well-known service identifiers.
enum class ServiceId : uint16_t {
  kGossip = 1,  // reserved: the retired epoch gossip; no service registers it
  kStorage = 2,
  kQuery = 3,
  kPing = 4,    // reserved: no service registers it (query pings are kQuery 12/13)
  kCdss = 5,
};

/// A protocol endpoint living on one node.
class Service {
 public:
  virtual ~Service() = default;
  virtual void OnMessage(NodeId from, uint16_t code, const std::string& payload) = 0;
  virtual void OnConnectionDrop(NodeId /*peer*/) {}
  /// This node itself was marked failed (fail-stop). Release per-call and
  /// per-query state WITHOUT invoking completion callbacks: the node is
  /// halted, so nothing may execute on it anymore.
  virtual void OnSelfFailed() {}
};

/// Owns the per-node dispatch table; installed as the node's MessageHandler.
class NodeHost : public MessageHandler {
 public:
  NodeHost(Network* network, NodeId node) : network_(network), node_(node) {
    network->SetHandler(node, this);
  }

  void Register(ServiceId id, Service* service) { services_[id] = service; }

  /// Sends from this node to `to` addressed at (service, code).
  void SendTo(NodeId to, ServiceId service, uint16_t code, std::string payload) {
    uint32_t type = (static_cast<uint32_t>(service) << 16) | code;
    network_->Send(node_, to, type, std::move(payload));
  }

  void OnMessage(NodeId from, uint32_t type, const std::string& payload) override {
    auto id = static_cast<ServiceId>(type >> 16);
    auto it = services_.find(id);
    if (it != services_.end()) {
      it->second->OnMessage(from, static_cast<uint16_t>(type & 0xFFFF), payload);
    }
  }

  void OnConnectionDrop(NodeId peer) override {
    for (auto& [id, service] : services_) service->OnConnectionDrop(peer);
  }

  /// Propagates fail-stop death of this node to every service on it.
  void FailSelf() {
    for (auto& [id, service] : services_) service->OnSelfFailed();
  }

  NodeId node() const { return node_; }
  Network* network() { return network_; }

 private:
  Network* network_;
  NodeId node_;
  std::map<ServiceId, Service*> services_;
};

}  // namespace orchestra::net

#endif  // ORCHESTRA_NET_NODE_HOST_H_
