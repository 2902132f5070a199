#include "overlay/ring.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "common/serial.h"

namespace orchestra::overlay {

RoutingSnapshot RoutingSnapshot::Build(uint64_t version, AllocationScheme scheme,
                                       std::vector<Member> members) {
  ORC_CHECK(!members.empty(), "cannot build routing table with no members");
  std::sort(members.begin(), members.end(),
            [](const Member& a, const Member& b) { return a.position < b.position; });

  RoutingSnapshot snap;
  snap.version_ = version;
  snap.scheme_ = scheme;
  snap.members_ = members;

  const size_t n = members.size();
  snap.entries_.reserve(n);

  if (scheme == AllocationScheme::kBalanced || n == 1) {
    // Equal sequential ranges in node-hash order (Fig. 2b).
    HashId partition = HashId::SpacePartition(static_cast<uint32_t>(n));
    for (size_t i = 0; i < n; ++i) {
      snap.entries_.push_back(
          RangeEntry{partition.MultiplyBy(static_cast<uint32_t>(i)), members[i].node});
    }
  } else {
    // Pastry-style: node owns the keys nearest its position (Fig. 2a); the
    // boundary between ring-adjacent nodes is the clockwise midpoint.
    for (size_t i = 0; i < n; ++i) {
      const Member& prev = members[(i + n - 1) % n];
      const Member& cur = members[i];
      HashId begin = prev.position.ClockwiseMidpoint(cur.position);
      snap.entries_.push_back(RangeEntry{begin, cur.node});
    }
    std::sort(snap.entries_.begin(), snap.entries_.end(),
              [](const RangeEntry& a, const RangeEntry& b) { return a.begin < b.begin; });
  }
  return snap;
}

net::NodeId RoutingSnapshot::OwnerOf(const HashId& key) const {
  ORC_CHECK(!entries_.empty(), "empty routing table");
  // Last entry with begin <= key; keys before the first entry wrap to the last.
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), key,
      [](const HashId& k, const RangeEntry& e) { return k < e.begin; });
  if (it == entries_.begin()) return entries_.back().owner;
  return std::prev(it)->owner;
}

std::pair<HashId, HashId> RoutingSnapshot::RangeOf(const HashId& key) const {
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), key,
      [](const HashId& k, const RangeEntry& e) { return k < e.begin; });
  size_t idx = (it == entries_.begin()) ? entries_.size() - 1
                                        : static_cast<size_t>(std::prev(it) - entries_.begin());
  HashId begin = entries_[idx].begin;
  HashId end = entries_[(idx + 1) % entries_.size()].begin;
  return {begin, end};
}

std::vector<net::NodeId> RoutingSnapshot::ReplicasOf(const HashId& key,
                                                     int replication) const {
  const size_t n = entries_.size();
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), key,
      [](const HashId& k, const RangeEntry& e) { return k < e.begin; });
  size_t idx = (it == entries_.begin()) ? n - 1
                                        : static_cast<size_t>(std::prev(it) - entries_.begin());

  std::vector<net::NodeId> replicas;
  auto add = [&replicas](net::NodeId id) {
    if (std::find(replicas.begin(), replicas.end(), id) == replicas.end()) {
      replicas.push_back(id);
    }
  };
  add(entries_[idx].owner);
  int half = replication / 2;
  for (int j = 1; j <= half; ++j) {
    add(entries_[(idx + j) % n].owner);              // clockwise
    add(entries_[(idx + n - (j % n)) % n].owner);    // counterclockwise
  }
  return replicas;
}

bool RoutingSnapshot::Contains(net::NodeId node) const {
  for (const auto& m : members_)
    if (m.node == node) return true;
  return false;
}

void RoutingSnapshot::EncodeTo(Writer* w) const {
  w->PutU64(version_);
  w->PutU8(static_cast<uint8_t>(scheme_));
  w->PutVarint64(members_.size());
  for (const auto& m : members_) {
    w->PutU32(m.node);
    m.position.EncodeTo(w);
  }
  w->PutVarint64(entries_.size());
  for (const auto& e : entries_) {
    e.begin.EncodeTo(w);
    w->PutU32(e.owner);
  }
}

Result<RoutingSnapshot> RoutingSnapshot::Decode(Reader* r) {
  RoutingSnapshot snap;
  ORC_RETURN_IF_ERROR(r->GetU64(&snap.version_));
  uint8_t scheme;
  ORC_RETURN_IF_ERROR(r->GetU8(&scheme));
  snap.scheme_ = static_cast<AllocationScheme>(scheme);
  uint64_t n;
  ORC_RETURN_IF_ERROR(r->GetVarint64(&n));
  snap.members_.resize(n);
  for (auto& m : snap.members_) {
    ORC_RETURN_IF_ERROR(r->GetU32(&m.node));
    ORC_RETURN_IF_ERROR(HashId::DecodeFrom(r, &m.position));
  }
  uint64_t e;
  ORC_RETURN_IF_ERROR(r->GetVarint64(&e));
  snap.entries_.resize(e);
  for (auto& entry : snap.entries_) {
    ORC_RETURN_IF_ERROR(HashId::DecodeFrom(r, &entry.begin));
    ORC_RETURN_IF_ERROR(r->GetU32(&entry.owner));
  }
  return snap;
}

RoutingSnapshot RoutingSnapshot::ReassignFailed(const std::vector<net::NodeId>& failed,
                                                int replication,
                                                uint64_t new_version) const {
  auto is_failed = [&failed](net::NodeId id) {
    return std::find(failed.begin(), failed.end(), id) != failed.end();
  };

  RoutingSnapshot snap;
  snap.version_ = new_version;
  snap.scheme_ = scheme_;
  for (const auto& m : members_) {
    if (!is_failed(m.node)) snap.members_.push_back(m);
  }
  ORC_CHECK(!snap.members_.empty(), "all nodes failed");

  const size_t n = entries_.size();
  for (size_t i = 0; i < n; ++i) {
    const RangeEntry& entry = entries_[i];
    if (!is_failed(entry.owner)) {
      snap.entries_.push_back(entry);
      continue;
    }
    HashId begin = entry.begin;
    HashId end = entries_[(i + 1) % n].begin;

    // The live holders of this range's replicas: ring neighbors at distance
    // <= ⌊r/2⌋ (§III-C). Divide the range evenly among them (§V-D stage 1).
    std::vector<net::NodeId> heirs;
    int half = replication / 2;
    for (int j = 1; j <= half && heirs.size() < n; ++j) {
      net::NodeId cw = entries_[(i + j) % n].owner;
      net::NodeId ccw = entries_[(i + n - (j % n)) % n].owner;
      for (net::NodeId cand : {cw, ccw}) {
        if (!is_failed(cand) &&
            std::find(heirs.begin(), heirs.end(), cand) == heirs.end()) {
          heirs.push_back(cand);
        }
      }
    }
    if (heirs.empty()) {
      // No live replica within the replication neighborhood: fall back to the
      // nearest live clockwise owner (data for this range may be lost, but
      // the key space must stay fully covered).
      for (size_t j = 1; j < n; ++j) {
        net::NodeId cand = entries_[(i + j) % n].owner;
        if (!is_failed(cand)) {
          heirs.push_back(cand);
          break;
        }
      }
    }
    ORC_CHECK(!heirs.empty(), "no live heir for failed range");
    std::sort(heirs.begin(), heirs.end());

    uint32_t k = static_cast<uint32_t>(heirs.size());
    HashId width = end.Sub(begin).DivideBy(k);
    for (uint32_t j = 0; j < k; ++j) {
      snap.entries_.push_back(RangeEntry{begin.Add(width.MultiplyBy(j)), heirs[j]});
    }
  }

  std::sort(snap.entries_.begin(), snap.entries_.end(),
            [](const RangeEntry& a, const RangeEntry& b) { return a.begin < b.begin; });
  return snap;
}

std::string RoutingSnapshot::ToString() const {
  std::string s = "RoutingSnapshot v" + std::to_string(version_) + " {";
  for (const auto& e : entries_) {
    s += "\n  [" + e.begin.ToShortHex() + "..) -> n" + std::to_string(e.owner);
  }
  s += "\n}";
  return s;
}

void Ring::Join(net::NodeId node, const std::string& name) {
  JoinAt(node, HashId::OfBytes(name));
}

void Ring::JoinAt(net::NodeId node, const HashId& position) {
  ORC_CHECK(!IsMember(node), "node already in ring");
  members_.push_back(Member{node, position});
}

void Ring::Leave(net::NodeId node) {
  members_.erase(std::remove_if(members_.begin(), members_.end(),
                                [node](const Member& m) { return m.node == node; }),
                 members_.end());
}

bool Ring::IsMember(net::NodeId node) const {
  return std::any_of(members_.begin(), members_.end(),
                     [node](const Member& m) { return m.node == node; });
}

RoutingSnapshot Ring::TakeSnapshot() {
  ++version_;
  return RoutingSnapshot::Build(version_, scheme_, members_);
}

}  // namespace orchestra::overlay
