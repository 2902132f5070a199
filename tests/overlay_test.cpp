#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "common/serial.h"
#include "common/strings.h"
#include "overlay/ring.h"

namespace orchestra::overlay {
namespace {

std::vector<Member> MakeMembers(size_t n) {
  std::vector<Member> members;
  for (size_t i = 0; i < n; ++i) {
    members.push_back(Member{static_cast<net::NodeId>(i),
                             HashId::OfBytes(Tag("node-", i))});
  }
  return members;
}

TEST(RoutingSnapshot, SingleNodeOwnsEverything) {
  auto snap = RoutingSnapshot::Build(1, AllocationScheme::kBalanced, MakeMembers(1));
  EXPECT_EQ(snap.OwnerOf(HashId::Zero()), 0u);
  EXPECT_EQ(snap.OwnerOf(HashId::Max()), 0u);
  EXPECT_EQ(snap.OwnerOf(HashId::OfBytes("anything")), 0u);
}

TEST(RoutingSnapshot, BalancedRangesAreEqual) {
  auto snap = RoutingSnapshot::Build(1, AllocationScheme::kBalanced, MakeMembers(8));
  const auto& entries = snap.entries();
  ASSERT_EQ(entries.size(), 8u);
  HashId width = entries[1].begin.Sub(entries[0].begin);
  for (size_t i = 1; i + 1 < entries.size(); ++i) {
    EXPECT_EQ(entries[i + 1].begin.Sub(entries[i].begin), width) << i;
  }
}

TEST(RoutingSnapshot, PastryAssignsNearestNode) {
  auto members = MakeMembers(6);
  auto snap = RoutingSnapshot::Build(1, AllocationScheme::kPastry, members);
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    HashId key = HashId::OfBytes(Tag("k", rng.NextU64()));
    net::NodeId owner = snap.OwnerOf(key);
    // The owner must minimize ring distance (in either direction).
    auto dist = [&](const Member& m) {
      HashId cw = key.DistanceFrom(m.position);
      HashId ccw = m.position.DistanceFrom(key);
      return std::min(cw, ccw);
    };
    const Member* owner_member = nullptr;
    for (const auto& m : members) {
      if (m.node == owner) owner_member = &m;
    }
    ASSERT_NE(owner_member, nullptr);
    for (const auto& m : members) {
      EXPECT_GE(dist(m), dist(*owner_member))
          << "key " << key.ToShortHex() << " owner n" << owner;
    }
  }
}

struct SchemeAndSize {
  AllocationScheme scheme;
  size_t nodes;
};

class AllocationProperty : public ::testing::TestWithParam<SchemeAndSize> {};

TEST_P(AllocationProperty, EveryKeyHasExactlyOneOwner) {
  auto [scheme, n] = GetParam();
  auto snap = RoutingSnapshot::Build(1, scheme, MakeMembers(n));
  EXPECT_EQ(snap.node_count(), n);
  Rng rng(n * 31 + static_cast<int>(scheme));
  for (int trial = 0; trial < 100; ++trial) {
    HashId key = HashId::OfBytes(Tag("key", rng.NextU64()));
    net::NodeId owner = snap.OwnerOf(key);
    EXPECT_LT(owner, n);
    auto [begin, end] = snap.RangeOf(key);
    EXPECT_TRUE(key.InRange(begin, end));
    // RangeOf and OwnerOf agree.
    EXPECT_EQ(snap.OwnerOf(begin), owner);
  }
}

TEST_P(AllocationProperty, ReplicasAreDistinctAndStartWithOwner) {
  auto [scheme, n] = GetParam();
  auto snap = RoutingSnapshot::Build(1, scheme, MakeMembers(n));
  Rng rng(n * 17);
  for (int trial = 0; trial < 50; ++trial) {
    HashId key = HashId::OfBytes(Tag("rep", rng.NextU64()));
    auto replicas = snap.ReplicasOf(key, 3);
    EXPECT_EQ(replicas[0], snap.OwnerOf(key));
    std::set<net::NodeId> uniq(replicas.begin(), replicas.end());
    EXPECT_EQ(uniq.size(), replicas.size());
    EXPECT_EQ(replicas.size(), std::min<size_t>(3, n));
  }
}

TEST_P(AllocationProperty, EncodeDecodeRoundTrip) {
  auto [scheme, n] = GetParam();
  auto snap = RoutingSnapshot::Build(7, scheme, MakeMembers(n));
  Writer w;
  snap.EncodeTo(&w);
  Reader r(w.data());
  auto back = RoutingSnapshot::Decode(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->version(), 7u);
  EXPECT_EQ(back->node_count(), n);
  for (int trial = 0; trial < 20; ++trial) {
    HashId key = HashId::OfBytes(Tag("rt", trial));
    EXPECT_EQ(back->OwnerOf(key), snap.OwnerOf(key));
  }
}

// A snapshot body whose member or range count claims more entries than
// its bytes hold is Corruption, not an allocation sized by the claim.
TEST(RoutingSnapshot, DecodeRejectsACountTheBodyCannotHold) {
  auto snap = RoutingSnapshot::Build(7, AllocationScheme::kBalanced, MakeMembers(3));
  for (uint64_t claimed : {uint64_t{1} << 40, uint64_t{1} << 62}) {
    Writer members;
    members.PutU64(7);  // version
    members.PutU8(static_cast<uint8_t>(AllocationScheme::kBalanced));
    members.PutVarint64(claimed);
    Reader mr(members.data());
    EXPECT_TRUE(RoutingSnapshot::Decode(&mr).status().IsCorruption());

    // A whole member table, then a huge range-entry count.
    Writer whole;
    snap.EncodeTo(&whole);
    Reader full(whole.data());
    uint64_t version = 0;
    uint8_t scheme = 0;
    uint64_t n = 0;
    ASSERT_TRUE(full.GetU64(&version).ok() && full.GetU8(&scheme).ok() &&
                full.GetVarint64(&n).ok());
    std::string_view member_bytes;
    ASSERT_TRUE(full.GetRawView(&member_bytes, n * 24).ok());
    Writer entries;
    entries.PutU64(version);
    entries.PutU8(scheme);
    entries.PutVarint64(n);
    entries.PutRaw(member_bytes.data(), member_bytes.size());
    entries.PutVarint64(claimed);
    Reader er(entries.data());
    EXPECT_TRUE(RoutingSnapshot::Decode(&er).status().IsCorruption());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSizes, AllocationProperty,
    ::testing::Values(SchemeAndSize{AllocationScheme::kBalanced, 1},
                      SchemeAndSize{AllocationScheme::kBalanced, 2},
                      SchemeAndSize{AllocationScheme::kBalanced, 5},
                      SchemeAndSize{AllocationScheme::kBalanced, 16},
                      SchemeAndSize{AllocationScheme::kBalanced, 100},
                      SchemeAndSize{AllocationScheme::kPastry, 2},
                      SchemeAndSize{AllocationScheme::kPastry, 5},
                      SchemeAndSize{AllocationScheme::kPastry, 16},
                      SchemeAndSize{AllocationScheme::kPastry, 100}));

TEST(RoutingSnapshot, BalancedIsMoreUniformThanPastry) {
  // The paper's Fig. 2 argument: at small n, Pastry-style ranges are highly
  // non-uniform while balanced ranges are equal by construction.
  auto members = MakeMembers(8);
  auto pastry = RoutingSnapshot::Build(1, AllocationScheme::kPastry, members);
  auto balanced = RoutingSnapshot::Build(1, AllocationScheme::kBalanced, members);

  auto spread = [](const RoutingSnapshot& snap) {
    HashId min_width = HashId::Max(), max_width = HashId::Zero();
    const auto& e = snap.entries();
    for (size_t i = 0; i < e.size(); ++i) {
      HashId width = e[(i + 1) % e.size()].begin.Sub(e[i].begin);
      min_width = std::min(min_width, width);
      max_width = std::max(max_width, width);
    }
    // Ratio approximated with top 64 bits.
    return static_cast<double>(max_width.Top64()) /
           std::max<double>(1.0, static_cast<double>(min_width.Top64()));
  };
  EXPECT_LT(spread(balanced), 1.01);
  EXPECT_GT(spread(pastry), 2.0);
}

TEST(RoutingSnapshot, ReassignFailedCoversWholeRing) {
  auto snap = RoutingSnapshot::Build(1, AllocationScheme::kBalanced, MakeMembers(8));
  auto recovered = snap.ReassignFailed({2, 5}, 3, 2);
  EXPECT_EQ(recovered.version(), 2u);
  EXPECT_EQ(recovered.node_count(), 6u);
  Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    HashId key = HashId::OfBytes(Tag("f", rng.NextU64()));
    net::NodeId owner = recovered.OwnerOf(key);
    EXPECT_NE(owner, 2u);
    EXPECT_NE(owner, 5u);
  }
}

TEST(RoutingSnapshot, ReassignFailedPreservesLiveRanges) {
  auto snap = RoutingSnapshot::Build(1, AllocationScheme::kBalanced, MakeMembers(8));
  auto recovered = snap.ReassignFailed({3}, 3, 2);
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    HashId key = HashId::OfBytes(Tag("g", rng.NextU64()));
    net::NodeId before = snap.OwnerOf(key);
    net::NodeId after = recovered.OwnerOf(key);
    if (before != 3) {
      EXPECT_EQ(after, before) << "live ranges must not move";
    } else {
      EXPECT_NE(after, 3u);
      // Heirs must be replicas of the failed range (ring neighbors).
      auto reps = snap.ReplicasOf(key, 3);
      EXPECT_TRUE(std::find(reps.begin(), reps.end(), after) != reps.end());
    }
  }
}

TEST(RoutingSnapshot, ReassignSplitsAmongMultipleHeirs) {
  auto snap = RoutingSnapshot::Build(1, AllocationScheme::kBalanced, MakeMembers(8));
  auto recovered = snap.ReassignFailed({3}, 3, 2);
  std::set<net::NodeId> heirs;
  Rng rng(12);
  for (int trial = 0; trial < 400; ++trial) {
    HashId key = HashId::OfBytes(Tag("h", rng.NextU64()));
    if (snap.OwnerOf(key) == 3) heirs.insert(recovered.OwnerOf(key));
  }
  // r=3 gives one clockwise and one counterclockwise heir; the failed range
  // is divided evenly among them (§V-D stage 1).
  EXPECT_EQ(heirs.size(), 2u);
}

TEST(Ring, JoinLeaveRebuilds) {
  Ring ring(AllocationScheme::kBalanced);
  ring.Join(0, "a");
  ring.Join(1, "b");
  auto s1 = ring.TakeSnapshot();
  EXPECT_EQ(s1.node_count(), 2u);
  ring.Join(2, "c");
  auto s2 = ring.TakeSnapshot();
  EXPECT_EQ(s2.node_count(), 3u);
  EXPECT_GT(s2.version(), s1.version());
  ring.Leave(1);
  auto s3 = ring.TakeSnapshot();
  EXPECT_EQ(s3.node_count(), 2u);
  EXPECT_FALSE(s3.Contains(1));
}

}  // namespace
}  // namespace orchestra::overlay
