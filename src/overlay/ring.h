// The hashing-based substrate (§III): key-space partitioning over the 160-bit
// SHA-1 ring, with two allocation schemes:
//
//  * kPastry   — each node owns the keys nearest its hash ID (Fig. 2a). Used
//                for large networks; highly non-uniform at small n.
//  * kBalanced — the key space is divided into equal sequential ranges, one
//                per node, assigned in node-hash order (Fig. 2b). The paper
//                uses this for all experiments; a node owns ONE large
//                contiguous range, which keeps index pages co-located with
//                their tuples (§IV).
//
// A RoutingSnapshot is the complete routing table (every node, single-hop,
// per [13]) frozen at a version. Queries always run against a snapshot so
// membership changes cannot re-route mid-computation (§III-C, §V-C).
#ifndef ORCHESTRA_OVERLAY_RING_H_
#define ORCHESTRA_OVERLAY_RING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "hash/hash_id.h"
#include "net/network.h"

namespace orchestra::overlay {

enum class AllocationScheme : uint8_t { kBalanced = 0, kPastry = 1 };

/// One contiguous clockwise range [begin, end_of_next_entry) owned by a node.
struct RangeEntry {
  HashId begin;
  net::NodeId owner = net::kInvalidNode;
};

/// A member of the overlay: network node + its position hash (SHA-1 of its
/// name/address, per §III-A).
struct Member {
  net::NodeId node = net::kInvalidNode;
  HashId position;
};

/// Immutable complete routing table at a version.
class RoutingSnapshot {
 public:
  RoutingSnapshot() = default;

  /// Builds the allocation for `members` under `scheme`. Members need not be
  /// sorted. Precondition: non-empty, distinct positions.
  static RoutingSnapshot Build(uint64_t version, AllocationScheme scheme,
                               std::vector<Member> members);

  uint64_t version() const { return version_; }
  AllocationScheme scheme() const { return scheme_; }

  /// The node owning `key` (last entry whose begin <= key, wrapping).
  net::NodeId OwnerOf(const HashId& key) const;
  /// The clockwise range [begin, end) owned around `key`.
  std::pair<HashId, HashId> RangeOf(const HashId& key) const;

  /// Replica set for `key` with replication factor r: the owner plus ⌊r/2⌋
  /// range-owners clockwise and ⌊r/2⌋ counterclockwise (§III-C). Result is
  /// deduplicated and starts with the owner.
  std::vector<net::NodeId> ReplicasOf(const HashId& key, int replication) const;

  const std::vector<RangeEntry>& entries() const { return entries_; }
  const std::vector<Member>& members() const { return members_; }  // ring order
  size_t node_count() const { return members_.size(); }
  bool Contains(net::NodeId node) const;

  void EncodeTo(Writer* w) const;
  static Result<RoutingSnapshot> Decode(Reader* r);

  /// Derives the table used for incremental recovery (§V-D stage 1): ranges
  /// owned by nodes in `failed` are reassigned to live replicas, dividing
  /// each failed range evenly among them. Version bumps to `new_version`.
  RoutingSnapshot ReassignFailed(const std::vector<net::NodeId>& failed,
                                 int replication, uint64_t new_version) const;

  std::string ToString() const;

 private:
  uint64_t version_ = 0;
  AllocationScheme scheme_ = AllocationScheme::kBalanced;
  std::vector<RangeEntry> entries_;  // sorted by begin
  std::vector<Member> members_;      // sorted by position (ring order)
};

/// Mutable membership view held by the substrate; produces snapshots.
class Ring {
 public:
  explicit Ring(AllocationScheme scheme) : scheme_(scheme) {}

  /// Adds a node, hashing `name` for its ring position.
  void Join(net::NodeId node, const std::string& name);
  /// Adds a node at an explicit position (tests).
  void JoinAt(net::NodeId node, const HashId& position);
  void Leave(net::NodeId node);
  bool IsMember(net::NodeId node) const;
  size_t size() const { return members_.size(); }

  /// Builds a snapshot of the current membership; bumps the version.
  RoutingSnapshot TakeSnapshot();

 private:
  AllocationScheme scheme_;
  std::vector<Member> members_;
  uint64_t version_ = 0;
};

}  // namespace orchestra::overlay

#endif  // ORCHESTRA_OVERLAY_RING_H_
