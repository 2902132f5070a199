// Regression tests for the RPC lifecycle layer (net/rpc.h): every completion
// callback handed to the async RPC plumbing is released when its call
// resolves — by reply, deadline, orphan reaping, or teardown — and the
// pending-call tables drain to empty once the system is quiescent.
//
// The seed's implementation leaked ~1620 allocations per test run: replica
// retry loops were built from a shared_ptr<std::function> that captured
// itself (a reference cycle LeakSanitizer flags), and cancelled deadline
// events kept their closures queued in the simulator until their timestamp.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "deploy/deployment.h"
#include "net/rpc.h"
#include "replica_push_tap.h"
#include "storage/publisher.h"
#include "storage/schema.h"
#include "storage/service.h"

namespace orchestra::storage {
namespace {

RelationDef SimpleRelation(const std::string& name, uint32_t partitions = 8) {
  RelationDef def;
  def.name = name;
  def.schema = Schema({{"x", ValueType::kString}, {"y", ValueType::kString}}, 1);
  def.num_partitions = partitions;
  return def;
}

Tuple Row(const std::string& x, const std::string& y) {
  return {Value(x), Value(y)};
}

std::unique_ptr<deploy::Deployment> MakeCluster(size_t nodes = 4,
                                                int replication = 3) {
  deploy::DeploymentOptions opts;
  opts.num_nodes = nodes;
  opts.replication = replication;
  return std::make_unique<deploy::Deployment>(opts);
}

// The counting hook is process-global, so snapshot it per test: the delta
// must return to zero once this test's calls have all resolved.
class RpcLifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override { baseline_alive_ = net::RpcStats::callbacks_alive(); }

  int64_t CallbacksAliveDelta() const {
    return net::RpcStats::callbacks_alive() - baseline_alive_;
  }

  int64_t baseline_alive_ = 0;
};

// The headline regression: N publish/retrieve rounds leave every pending-call
// table empty and no completion callback alive.
TEST_F(RpcLifecycleTest, PublishesDrainPendingTables) {
  constexpr int kBatches = 8;
  auto dep = MakeCluster();
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());

  Epoch epoch = 0;
  for (int b = 0; b < kBatches; ++b) {
    UpdateBatch batch;
    for (int i = 0; i < 16; ++i) {
      batch["R"].push_back(
          Update::Insert(Row(Tag("k", b * 16 + i), "v")));
    }
    // Each publish discovers the previous one's confirmed epoch.
    auto e = dep->Publish(0, std::move(batch));
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    epoch = *e;
  }
  auto rows = dep->Retrieve(1, "R", epoch);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), static_cast<size_t>(kBatches * 16));

  // Quiescent: nothing pending anywhere, no callback outlives its call.
  EXPECT_EQ(dep->PendingRpcCount(), 0u);
  for (size_t i = 0; i < dep->size(); ++i) {
    EXPECT_EQ(dep->storage(i).pending_rpc_count(), 0u) << "node " << i;
    EXPECT_EQ(dep->query(i).active_root_count(), 0u) << "node " << i;
    EXPECT_EQ(dep->query(i).buffered_message_count(), 0u) << "node " << i;
  }
  EXPECT_EQ(CallbacksAliveDelta(), 0);
  // A worker releases its execution once the initiator's kAbort lands, one
  // hop after the root resolved.
  dep->RunFor(1 * sim::kMicrosPerSec);
  for (size_t i = 0; i < dep->size(); ++i) {
    EXPECT_EQ(dep->query(i).active_exec_count(), 0u) << "node " << i;
  }
}

// Started calls must be accounted as resolved exactly once.
TEST_F(RpcLifecycleTest, EveryCallResolvesExactlyOnce) {
  auto dep = MakeCluster();
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch batch;
  batch["R"] = {Update::Insert(Row("a", "1")), Update::Insert(Row("b", "2"))};
  ASSERT_TRUE(dep->Publish(0, std::move(batch)).ok());

  for (size_t i = 0; i < dep->size(); ++i) {
    const auto& c = dep->storage(i).rpc_counters();
    EXPECT_EQ(c.started, c.completed + c.timed_out + c.reaped + c.cancelled)
        << "node " << i;
    EXPECT_EQ(c.timed_out, 0u) << "node " << i;
  }
}

// Orphan reaping: killing a node resolves calls addressed to it with
// Unavailable as soon as the connection drop is detected — the caller's
// replica retry succeeds and nothing waits out a deadline.
TEST_F(RpcLifecycleTest, PeerFailureReapsOrphanedCalls) {
  auto dep = MakeCluster(5, 3);
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch batch;
  for (int i = 0; i < 32; ++i) {
    batch["R"].push_back(Update::Insert(Row(Tag("k", i), "v")));
  }
  auto epoch = dep->Publish(0, std::move(batch));
  ASSERT_TRUE(epoch.ok());

  dep->KillNode(3);
  auto rows = dep->Retrieve(1, "R", *epoch);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 32u);

  EXPECT_EQ(dep->PendingRpcCount(), 0u);
  EXPECT_EQ(CallbacksAliveDelta(), 0);
}

// Fail-stop death releases the dead node's own state: its outstanding calls
// and queries are dropped — without invoking callbacks, since nothing may
// execute on a halted node — instead of lingering until teardown.
TEST_F(RpcLifecycleTest, KillNodeReleasesDeadNodesOwnState) {
  auto dep = MakeCluster();
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch batch;
  batch["R"] = {Update::Insert(Row("a", "1")), Update::Insert(Row("b", "2"))};
  bool fired = false;
  // The raw publisher, not a Session: a session ticket would resolve on the
  // kill, and this test checks that the callback is dropped, not invoked.
  Publisher::Handle handle = dep->publisher(2).PublishChained(
      std::move(batch), nullptr, [&](Status, Epoch) { fired = true; });
  EXPECT_GT(dep->storage(2).pending_rpc_count(), 0u);  // in flight

  dep->KillNode(2);
  EXPECT_EQ(dep->storage(2).pending_rpc_count(), 0u);
  EXPECT_EQ(dep->query(2).active_root_count(), 0u);
  EXPECT_FALSE(fired);  // dropped, not invoked

  dep->RunFor(1 * sim::kMicrosPerSec);
  EXPECT_EQ(dep->PendingRpcCount(), 0u);
  EXPECT_EQ(CallbacksAliveDelta(), 0);
}

// Per-call deadlines: a hung node (connection stays open, inbox not drained)
// cannot pin a call forever — the deadline resolves it with TimedOut and
// releases the callback.
TEST_F(RpcLifecycleTest, DeadlineResolvesCallsToHungNode) {
  auto dep = MakeCluster();
  dep->network().HangNode(2);

  bool fired = false;
  Status got;
  dep->storage(0).Call(
      2, kGetCoordinator, "",
      [&](Status st, const std::string&) {
        fired = true;
        got = st;
      },
      2 * sim::kMicrosPerSec);
  ASSERT_TRUE(dep->RunUntil([&] { return fired; }, 10 * sim::kMicrosPerSec));
  EXPECT_TRUE(got.IsTimedOut()) << got.ToString();
  EXPECT_EQ(dep->storage(0).pending_rpc_count(), 0u);
  EXPECT_EQ(dep->storage(0).rpc_counters().timed_out, 1u);
  EXPECT_EQ(CallbacksAliveDelta(), 0);
}

// A cancelled deadline must release its closure immediately: a resolved call
// may not pin memory in the simulator until its far-future timestamp.
TEST_F(RpcLifecycleTest, ResolvedCallLeavesNoEventBehind) {
  auto dep = MakeCluster();
  size_t quiescent = dep->sim().pending_events();
  bool fired = false;
  dep->storage(0).Call(1, kGetCoordinator, "",
                       [&](Status, const std::string&) { fired = true; });
  ASSERT_TRUE(dep->RunUntil([&] { return fired; }));
  // Nothing new outstanding: the reply resolved the call and freed the
  // deadline's closure (stale heap entries are fine, closures are not).
  EXPECT_LE(dep->sim().pending_events(), quiescent);
  EXPECT_EQ(CallbacksAliveDelta(), 0);
}

// Teardown mid-flight: destroying a deployment with calls outstanding drops
// their callbacks without invoking them (the services they capture are being
// destroyed too) and leaves nothing alive.
TEST_F(RpcLifecycleTest, TeardownReleasesOutstandingCallbacks) {
  auto dep = MakeCluster();
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  UpdateBatch batch;
  batch["R"] = {Update::Insert(Row("a", "1"))};
  bool fired = false;
  // The raw publisher, not a Session: a session ticket would resolve on
  // teardown, and this test checks that the callback is dropped.
  Publisher::Handle handle = dep->publisher(0).PublishChained(
      std::move(batch), nullptr, [&](Status, Epoch) { fired = true; });
  EXPECT_GT(dep->PendingRpcCount(), 0u);  // in flight, sim not stepped
  dep.reset();
  EXPECT_FALSE(fired);
  EXPECT_EQ(CallbacksAliveDelta(), 0);
}

// CancelAll resolves (and invokes) every outstanding callback with the given
// status — including retry-chain continuations that try to reissue calls,
// which must themselves resolve before CancelAll returns.
TEST_F(RpcLifecycleTest, CancelAllInvokesEveryOutstandingCallback) {
  auto dep = MakeCluster();
  net::RpcClient rpc(&dep->host(0), net::ServiceId::kStorage, kReply);

  int plain = 0, chain = 0;
  Status chain_status;
  rpc.Call(1, kGetCoordinator, "",
           [&](Status st, const std::string&) { plain += st.IsAborted() ? 1 : 0; });
  rpc.CallFirst({1, 2, 3}, kGetCoordinator, "",
                [&](Status st, const std::string&) {
                  chain += 1;
                  chain_status = st;
                });
  EXPECT_EQ(rpc.pending_count(), 2u);

  rpc.CancelAll(Status::Aborted("shutting down"));
  EXPECT_EQ(rpc.pending_count(), 0u);
  EXPECT_EQ(plain, 1);
  // The failover continuation retried replicas 2 and 3 inside CancelAll's
  // drain; the user callback still fired exactly once, with the last error.
  EXPECT_EQ(chain, 1);
  EXPECT_TRUE(chain_status.IsAborted()) << chain_status.ToString();
  EXPECT_EQ(CallbacksAliveDelta(), 0);
}

// Replica failover is cycle-free: exhausting every replica reports the
// failure and releases the whole retry chain.
TEST_F(RpcLifecycleTest, ReplicaFailoverExhaustionReleasesChain) {
  auto dep = MakeCluster();
  bool fired = false;
  Status got;
  // Epoch 99 exists nowhere; every replica answers NotFound, the failover
  // chain must unwind completely, and the definitive NotFound (not a
  // flattened Unavailable) reaches the caller — the publisher's coordinator
  // walk-back distinguishes the two.
  dep->storage(0).GetCoordinator("nope", 99, [&](Status st, CoordinatorRecord) {
    fired = true;
    got = st;
  });
  ASSERT_TRUE(dep->RunUntil([&] { return fired; }));
  EXPECT_TRUE(got.IsNotFound()) << got.ToString();
  EXPECT_EQ(dep->storage(0).pending_rpc_count(), 0u);
  EXPECT_EQ(CallbacksAliveDelta(), 0);
}

// Property: under randomized peer drops and restarts — with message drops
// and delays injected on the wire — the pending tables drain and
// callbacks_alive returns to zero for every seed once the system quiesces.
// Individual operations may fail (Unavailable/TimedOut); leaks may not, and
// a read that returns OK returns every row published so far.
TEST_F(RpcLifecycleTest, RandomChurnDrainsTablesForEverySeed) {
  int reads_ok = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    auto dep = MakeCluster(5, 3);
    dep->network().SeedFaults(rng.Fork(7).NextU64());
    ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok()) << seed;

    net::FaultOptions faults;
    faults.drop_prob = 0.05;
    faults.delay_prob = 0.15;
    faults.max_extra_delay_us = 30 * sim::kMicrosPerMilli;
    dep->network().SetFaultOptions(faults);

    // What a read at the last OK publish's epoch returns: every key an OK
    // publish wrote, with the value of the last publish that wrote it. A
    // publish that failed may still have committed, so its rows may show.
    std::set<std::string> required;
    std::map<std::string, std::set<std::string>> allowed;
    std::vector<net::NodeId> dead;
    for (int round = 0; round < 12; ++round) {
      // Random kill (keep a majority) or restart of a previous victim.
      if (!dead.empty() && rng.OneIn(2)) {
        net::NodeId n = dead.back();
        dead.pop_back();
        dep->network().SetFaultOptions({});  // restarts repair cleanly
        dep->RestartNode(n);
        dep->network().SetFaultOptions(faults);
      } else if (dead.empty() && rng.OneIn(3)) {
        auto victim = static_cast<net::NodeId>(1 + rng.Uniform(dep->size() - 1));
        dep->KillNode(victim, /*update_routing=*/true, /*rebalance=*/true);
        dead.push_back(victim);
      }
      // Fire work through a live node; failures are acceptable outcomes.
      net::NodeId via = 0;
      UpdateBatch batch;
      for (int i = 0; i < 6; ++i) {
        batch["R"].push_back(Update::Insert(
            Row(Tag("k", rng.Uniform(64)), Tag("v", round))));
      }
      std::vector<std::string> keys;
      for (const Update& u : batch["R"]) keys.push_back(u.tuple[0].AsString());
      auto e = dep->Publish(via, std::move(batch));
      for (const std::string& k : keys) {
        if (e.ok()) {
          required.insert(k);
          allowed[k].clear();
        }
        allowed[k].insert(Tag("v", round));
      }
      if (!e.ok()) continue;
      auto rows = dep->Retrieve(via, "R", *e);
      if (!rows.ok()) continue;
      reads_ok += 1;
      std::set<std::string> seen;
      for (const Tuple& t : *rows) {
        const std::string& k = t[0].AsString();
        EXPECT_TRUE(seen.insert(k).second) << "seed " << seed << " key " << k << " twice";
        EXPECT_TRUE(allowed.count(k) && allowed[k].count(t[1].AsString()))
            << "seed " << seed << " round " << round << " key " << k;
      }
      for (const std::string& k : required) {
        EXPECT_TRUE(seen.count(k)) << "seed " << seed << " round " << round
                                   << ": OK read of " << rows->size()
                                   << " rows lacks key " << k;
      }
    }

    // Quiesce: faults off, everyone back, all deadlines run out.
    dep->network().SetFaultOptions({});
    for (net::NodeId n : dead) dep->RestartNode(n);
    dep->RunUntil([&] { return dep->PendingRpcCount() == 0; },
                  600 * sim::kMicrosPerSec);
    dep->RunFor(90 * sim::kMicrosPerSec);

    EXPECT_EQ(dep->PendingRpcCount(), 0u) << "seed " << seed;
    for (size_t i = 0; i < dep->size(); ++i) {
      EXPECT_EQ(dep->storage(i).pending_rpc_count(), 0u)
          << "seed " << seed << " node " << i;
      EXPECT_EQ(dep->query(i).active_root_count(), 0u)
          << "seed " << seed << " node " << i;
      EXPECT_EQ(dep->query(i).active_exec_count(), 0u)
          << "seed " << seed << " node " << i;
      const auto& c = dep->storage(i).rpc_counters();
      EXPECT_EQ(c.started, c.completed + c.timed_out + c.reaped + c.cancelled)
          << "seed " << seed << " node " << i;
    }
    dep.reset();
    EXPECT_EQ(CallbacksAliveDelta(), 0) << "seed " << seed;
  }
  EXPECT_GT(reads_ok, 0);
}

// Re-replication sends round 2 only once round 1 was answered. A target
// that dies between the two rounds leaves no call and no callback behind
// once the deadlines have run, and its next restart repairs what it lost.
TEST_F(RpcLifecycleTest, TargetKilledBetweenPushRoundsLeavesNothingPending) {
  deploy::DeploymentOptions opts;
  opts.num_nodes = 4;
  opts.replication = 3;
  opts.store.wal.sync_every_records = 0;  // a crash tears the unsynced tail
  auto dep = std::make_unique<deploy::Deployment>(opts);
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  for (int round = 0; round < 3; ++round) {
    UpdateBatch batch;
    for (int i = 0; i < 300; ++i) {
      batch["R"].push_back(Update::Insert(Row(Tag("k", i), Tag("v", round))));
    }
    ASSERT_TRUE(dep->Publish(0, std::move(batch)).ok());
  }
  auto contents = [&dep](net::NodeId n) {
    std::map<std::string, std::string> out;
    for (auto it = dep->storage(n).store().Seek(""); it.Valid(); it.Next()) {
      out.emplace(it.key(), it.value());
    }
    return out;
  };
  const net::NodeId victim = 2;
  const auto before = contents(victim);
  dep->KillNode(victim, /*update_routing=*/false);
  dep->RunFor(1 * sim::kMicrosPerSec);
  {
    ReplicaPushTap tap(dep.get(), victim);
    dep->RestartNode(victim);
    ASSERT_NE(contents(victim), before) << "the crash tore nothing";
    // Every other node's round 1 answered, no round 2 landed yet: kill.
    ASSERT_TRUE(dep->RunUntil(
        [&] { return tap.digest_frames() == dep->size() - 1; }));
    ASSERT_EQ(tap.records(), 0u);
    dep->KillNode(victim, /*update_routing=*/false);
  }
  ASSERT_TRUE(dep->RunUntil([&] { return dep->PendingRpcCount() == 0; }));
  EXPECT_EQ(CallbacksAliveDelta(), 0);

  dep->RestartNode(victim);
  ASSERT_TRUE(dep->RunUntil([&] { return dep->PendingRpcCount() == 0; }));
  EXPECT_EQ(contents(victim), before);
  dep.reset();
  EXPECT_EQ(CallbacksAliveDelta(), 0);
}

}  // namespace
}  // namespace orchestra::storage
