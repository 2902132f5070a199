#include <gtest/gtest.h>

#include <vector>

#include "net/network.h"
#include "net/node_host.h"

namespace orchestra::net {
namespace {

struct Recorder : public MessageHandler {
  struct Msg {
    NodeId from;
    uint32_t type;
    std::string payload;
    sim::SimTime at;
  };
  explicit Recorder(sim::Simulator* s) : sim(s) {}
  void OnMessage(NodeId from, uint32_t type, const std::string& payload) override {
    msgs.push_back({from, type, payload, sim->now()});
  }
  void OnConnectionDrop(NodeId peer) override { drops.push_back(peer); }
  sim::Simulator* sim;
  std::vector<Msg> msgs;
  std::vector<NodeId> drops;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : network(&sim, LinkParams{}) {
    a = network.AddNode("a");
    b = network.AddNode("b");
    c = network.AddNode("c");
    ra = std::make_unique<Recorder>(&sim);
    rb = std::make_unique<Recorder>(&sim);
    rc = std::make_unique<Recorder>(&sim);
    network.SetHandler(a, ra.get());
    network.SetHandler(b, rb.get());
    network.SetHandler(c, rc.get());
  }
  sim::Simulator sim;
  Network network;
  NodeId a, b, c;
  std::unique_ptr<Recorder> ra, rb, rc;
};

TEST_F(NetworkTest, DeliversWithTypeAndPayload) {
  network.Send(a, b, 42, "hello");
  sim.Run();
  ASSERT_EQ(rb->msgs.size(), 1u);
  EXPECT_EQ(rb->msgs[0].from, a);
  EXPECT_EQ(rb->msgs[0].type, 42u);
  EXPECT_EQ(rb->msgs[0].payload, "hello");
  EXPECT_GE(rb->msgs[0].at, LinkParams{}.latency_us);
}

TEST_F(NetworkTest, InOrderDelivery) {
  for (int i = 0; i < 20; ++i) network.Send(a, b, i, "");
  sim.Run();
  ASSERT_EQ(rb->msgs.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rb->msgs[i].type, static_cast<uint32_t>(i));
}

TEST_F(NetworkTest, LocalLoopbackIsFreeAndUncounted) {
  network.Send(a, a, 1, "self");
  sim.Run();
  ASSERT_EQ(ra->msgs.size(), 1u);
  EXPECT_EQ(network.total_bytes(), 0u);
  EXPECT_EQ(network.total_messages(), 0u);
}

TEST_F(NetworkTest, TrafficAccounting) {
  network.Send(a, b, 1, std::string(100, 'x'));
  sim.Run();
  EXPECT_EQ(network.total_bytes(), 100 + kMessageOverheadBytes);
  EXPECT_EQ(network.traffic(a).bytes_sent, 100 + kMessageOverheadBytes);
  EXPECT_EQ(network.traffic(b).bytes_received, 100 + kMessageOverheadBytes);
  EXPECT_EQ(network.traffic(b).bytes_sent, 0u);
  network.ResetTraffic();
  EXPECT_EQ(network.total_bytes(), 0u);
}

TEST_F(NetworkTest, BandwidthDelaysLargeMessages) {
  // 1 MB at 1 MB/s should take ~1 s of simulated time (plus latency),
  // serialized on both uplink and downlink -> ~2 s.
  network.SetAllLinkParams(LinkParams{1.0e6, 100});
  network.Send(a, b, 1, std::string(1'000'000, 'x'));
  sim.Run();
  ASSERT_EQ(rb->msgs.size(), 1u);
  EXPECT_GE(rb->msgs[0].at, 2 * sim::kMicrosPerSec);
  EXPECT_LT(rb->msgs[0].at, 3 * sim::kMicrosPerSec);
}

TEST_F(NetworkTest, ReceiverDownlinkIsABottleneck) {
  // Two senders to one receiver share its downlink: total arrival time is
  // roughly double a single transfer (the paper's query-initiator collection
  // bottleneck, §VI-B).
  network.SetAllLinkParams(LinkParams{1.0e6, 0});
  network.Send(a, c, 1, std::string(500'000, 'x'));
  network.Send(b, c, 2, std::string(500'000, 'y'));
  sim.Run();
  ASSERT_EQ(rc->msgs.size(), 2u);
  EXPECT_GE(rc->msgs[1].at, 1 * sim::kMicrosPerSec);
}

TEST_F(NetworkTest, KillNotifiesPeersAndDropsDelivery) {
  network.Send(a, b, 1, "in flight");
  network.KillNode(b);
  sim.Run();
  EXPECT_TRUE(rb->msgs.empty());  // b never processed it
  // a and c both learn about the drop.
  ASSERT_EQ(ra->drops.size(), 1u);
  EXPECT_EQ(ra->drops[0], b);
  ASSERT_EQ(rc->drops.size(), 1u);
  EXPECT_FALSE(network.IsAlive(b));
}

TEST_F(NetworkTest, DeadNodeCannotSend) {
  network.KillNode(a);
  network.Send(a, b, 1, "ghost");
  sim.Run();
  EXPECT_TRUE(rb->msgs.empty());
}

// A send to a node that is already dead is a connect to a closed port:
// nothing is delivered or counted, and the sender alone learns of the drop,
// one round trip later.
TEST_F(NetworkTest, SendToDeadNodeReturnsADropNotice) {
  network.KillNode(b);
  sim.Run();
  ra->drops.clear();
  rc->drops.clear();
  const sim::SimTime sent = sim.now();
  network.Send(a, b, 1, "closed port");
  sim.Run();
  EXPECT_TRUE(rb->msgs.empty());
  EXPECT_EQ(network.total_messages(), 0u);
  ASSERT_EQ(ra->drops.size(), 1u);
  EXPECT_EQ(ra->drops[0], b);
  EXPECT_EQ(sim.now() - sent, 2 * LinkParams{}.latency_us);
  EXPECT_TRUE(rc->drops.empty());
}

TEST_F(NetworkTest, HungNodeReceivesNothingButStaysConnected) {
  network.HangNode(b);
  network.Send(a, b, 1, "stuck");
  sim.Run();
  EXPECT_TRUE(rb->msgs.empty());
  EXPECT_TRUE(network.IsAlive(b));
  EXPECT_TRUE(ra->drops.empty());  // no TCP-level signal for a hang (§V-C)
}

TEST_F(NetworkTest, UnhangDrainsBacklogInOrder) {
  network.HangNode(b);
  for (int i = 0; i < 3; ++i) network.Send(a, b, i, "queued");
  sim.Run();
  EXPECT_TRUE(rb->msgs.empty());  // wedged: backlog held, nothing lost
  EXPECT_EQ(network.inbox_stats(b).messages, 3u);
  network.UnhangNode(b);
  sim.Run();
  ASSERT_EQ(rb->msgs.size(), 3u);  // unlike a revive, the backlog survives
  for (int i = 0; i < 3; ++i) EXPECT_EQ(rb->msgs[i].type, (uint32_t)i);
  EXPECT_EQ(network.inbox_stats(b).messages, 0u);
  EXPECT_GE(network.inbox_stats(b).max_messages, 3u);
}

TEST_F(NetworkTest, AsymmetricDropOverridesPartitionOneDirection) {
  // A -> B always drops; B -> A (and every other link) stays healthy. This
  // is the asymmetric-partition groundwork: SetFaultOptions alone is
  // symmetric.
  network.SeedFaults(7);
  network.SetDropOverride(a, b, 1.0);
  for (int i = 0; i < 5; ++i) {
    network.Send(a, b, 1, "lost");
    network.Send(b, a, 2, "fine");
    network.Send(a, c, 3, "fine");
  }
  sim.Run();
  EXPECT_TRUE(rb->msgs.empty());            // a -> b severed
  EXPECT_EQ(ra->msgs.size(), 5u);           // b -> a untouched
  EXPECT_EQ(rc->msgs.size(), 5u);           // a -> c untouched
  EXPECT_EQ(network.fault_counters().dropped, 5u);

  network.ClearDropOverrides();
  network.Send(a, b, 4, "healed");
  sim.Run();
  ASSERT_EQ(rb->msgs.size(), 1u);
  EXPECT_EQ(rb->msgs[0].type, 4u);
}

TEST_F(NetworkTest, DirectionalDropComposesWithGlobalMix) {
  // Global drops off; one lossy direction via override, drawn from the same
  // seeded stream -> deterministic across runs.
  network.SeedFaults(11);
  network.SetDropOverride(b, c, 0.5);
  int delivered_run1 = 0;
  for (int i = 0; i < 40; ++i) network.Send(b, c, 1, "maybe");
  sim.Run();
  delivered_run1 = static_cast<int>(rc->msgs.size());
  EXPECT_GT(delivered_run1, 0);
  EXPECT_LT(delivered_run1, 40);
  EXPECT_EQ(40u - delivered_run1, network.fault_counters().dropped);
}

TEST_F(NetworkTest, CpuChargeSerializesHandlers) {
  // Handler charges 1000us per message; 3 messages -> node busy ~3000us.
  struct Charger : public MessageHandler {
    Network* net;
    NodeId self;
    sim::Simulator* sim;
    std::vector<sim::SimTime> handled_at;
    void OnMessage(NodeId, uint32_t, const std::string&) override {
      handled_at.push_back(sim->now());
      net->ChargeCpu(self, 1000);
    }
  };
  Charger charger;
  charger.net = &network;
  charger.self = b;
  charger.sim = &sim;
  network.SetHandler(b, &charger);
  for (int i = 0; i < 3; ++i) network.Send(a, b, i, "");
  sim.Run();
  ASSERT_EQ(charger.handled_at.size(), 3u);
  EXPECT_GE(charger.handled_at[2] - charger.handled_at[0], 2000);
}

TEST_F(NetworkTest, RunOnNodeExecutesAtRequestedTime) {
  sim::SimTime ran_at = -1;
  network.RunOnNode(a, 5000, [&] { ran_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(ran_at, 5000);
}

TEST_F(NetworkTest, PerLinkOverride) {
  network.SetLinkParams(a, b, LinkParams{125.0e6, 50'000});  // 50ms link
  network.Send(a, b, 1, "slow");
  network.Send(a, c, 2, "fast");
  sim.Run();
  ASSERT_EQ(rb->msgs.size(), 1u);
  ASSERT_EQ(rc->msgs.size(), 1u);
  EXPECT_GT(rb->msgs[0].at, rc->msgs[0].at);
}

TEST(NodeHost, RoutesByService) {
  sim::Simulator sim;
  Network network(&sim, LinkParams{});
  NodeId a = network.AddNode("a");
  NodeId b = network.AddNode("b");
  NodeHost host_a(&network, a);
  NodeHost host_b(&network, b);

  struct Svc : public Service {
    std::vector<uint16_t> codes;
    std::vector<NodeId> drops;
    void OnMessage(NodeId, uint16_t code, const std::string&) override {
      codes.push_back(code);
    }
    void OnConnectionDrop(NodeId peer) override { drops.push_back(peer); }
  };
  Svc gossip, storage;
  host_b.Register(ServiceId::kGossip, &gossip);
  host_b.Register(ServiceId::kStorage, &storage);

  host_a.SendTo(b, ServiceId::kGossip, 7, "x");
  host_a.SendTo(b, ServiceId::kStorage, 9, "y");
  sim.Run();
  ASSERT_EQ(gossip.codes.size(), 1u);
  EXPECT_EQ(gossip.codes[0], 7u);
  ASSERT_EQ(storage.codes.size(), 1u);
  EXPECT_EQ(storage.codes[0], 9u);

  network.KillNode(a);
  sim.Run();
  EXPECT_EQ(gossip.drops.size(), 1u);
  EXPECT_EQ(storage.drops.size(), 1u);
}

}  // namespace
}  // namespace orchestra::net
