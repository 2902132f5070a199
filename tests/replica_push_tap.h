// Test helper: records the kReplicaPush requests one node receives, then
// hands every message on to the node's own NodeHost.
#ifndef ORCHESTRA_TESTS_REPLICA_PUSH_TAP_H_
#define ORCHESTRA_TESTS_REPLICA_PUSH_TAP_H_

#include <string>
#include <vector>

#include "common/serial.h"
#include "deploy/deployment.h"
#include "storage/page.h"
#include "storage/service.h"

namespace orchestra::storage {

class ReplicaPushTap : public net::MessageHandler {
 public:
  /// One kReplicaPush request: its sender, its body (after the request id),
  /// the keys of the records it carries and its number of digest entries.
  struct Frame {
    net::NodeId from = 0;
    std::string body;
    std::vector<std::string> keys;
    uint64_t digests = 0;
  };

  ReplicaPushTap(deploy::Deployment* dep, net::NodeId node)
      : dep_(dep), node_(node) {
    dep_->network().SetHandler(node_, this);
  }
  ~ReplicaPushTap() override { dep_->network().SetHandler(node_, &dep_->host(node_)); }

  void OnMessage(net::NodeId from, uint32_t type, const std::string& payload) override {
    if (type == ((static_cast<uint32_t>(net::ServiceId::kStorage) << 16) | kReplicaPush)) {
      frames.push_back(Decode(from, payload));
    }
    dep_->host(node_).OnMessage(from, type, payload);
  }
  void OnConnectionDrop(net::NodeId peer) override {
    dep_->host(node_).OnConnectionDrop(peer);
  }

  /// Round-2 records received so far.
  size_t records() const {
    size_t n = 0;
    for (const Frame& f : frames) n += f.keys.size();
    return n;
  }
  /// Round-1 frames (the ones carrying digests) received so far.
  size_t digest_frames() const {
    size_t n = 0;
    for (const Frame& f : frames) n += f.digests > 0 ? 1 : 0;
    return n;
  }

  std::vector<Frame> frames;

 private:
  // Walks the layout in docs/WIRE_FORMATS.md; a body that does not decode
  // keeps what was read before the fault.
  static Frame Decode(net::NodeId from, const std::string& payload) {
    Frame f;
    f.from = from;
    f.body = payload.size() >= 8 ? payload.substr(8) : std::string();
    Reader r(f.body);
    uint64_t n = 0;
    if (!r.GetVarint64(&n).ok()) return f;
    for (uint64_t i = 0; i < n; ++i) {
      uint32_t p;
      uint64_t m;
      if (!r.GetVarint32(&p).ok() || !r.GetVarint64(&m).ok()) return f;
    }
    if (!r.GetVarint64(&n).ok()) return f;
    for (uint64_t i = 0; i < n; ++i) {
      EpochInstance burn;
      if (!EpochInstance::DecodeFrom(&r, &burn).ok()) return f;
    }
    if (!r.GetVarint64(&n).ok()) return f;
    for (uint64_t i = 0; i < n; ++i) {
      std::string key, value;
      if (!r.GetString(&key).ok() || !r.GetString(&value).ok()) return f;
      f.keys.push_back(std::move(key));
    }
    r.GetVarint64(&f.digests).ok();
    return f;
  }

  deploy::Deployment* dep_;
  net::NodeId node_;
};

}  // namespace orchestra::storage

#endif  // ORCHESTRA_TESTS_REPLICA_PUSH_TAP_H_
