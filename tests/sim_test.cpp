#include <gtest/gtest.h>

#include <vector>

#include "deploy/deployment.h"
#include "sim/cost_model.h"
#include "sim/simulator.h"

namespace orchestra::sim {
namespace {

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, EqualTimesFireFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleFromWithinEvent) {
  Simulator sim;
  int hits = 0;
  sim.Schedule(1, [&] {
    ++hits;
    sim.ScheduleAfter(5, [&] { ++hits; });
  });
  sim.Run();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sim.now(), 6);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  sim.Schedule(100, [&] {
    sim.Schedule(5, [&] { EXPECT_EQ(sim.now(), 100); });
  });
  sim.Run();
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  auto id = sim.Schedule(10, [&] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int hits = 0;
  sim.Schedule(10, [&] { ++hits; });
  sim.Schedule(20, [&] { ++hits; });
  sim.RunUntil(15);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(sim.now(), 15);
  sim.Run();
  EXPECT_EQ(hits, 2);
}

TEST(Simulator, StepUntilLeavesLaterEventsPending) {
  Simulator sim;
  int hits = 0;
  sim.Schedule(10, [&] { ++hits; });
  sim.Schedule(20, [&] { ++hits; });
  EXPECT_TRUE(sim.StepUntil(15));
  EXPECT_FALSE(sim.StepUntil(15));
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(sim.now(), 10);
  EXPECT_EQ(sim.pending_events(), 1u);
}

// Deployment::RunUntil never runs an event scheduled after its budget, so a
// predicate that only a later event satisfies is reported as not reached.
TEST(DeploymentRunUntil, NeverRunsAnEventPastItsBudget) {
  deploy::Deployment dep(deploy::DeploymentOptions{});
  SimTime start = dep.sim().now();
  bool fired = false;
  dep.sim().ScheduleAfter(60 * kMicrosPerSec, [&] { fired = true; });
  EXPECT_FALSE(dep.RunUntil([&] { return fired; }, 1 * kMicrosPerSec));
  EXPECT_FALSE(fired);
  EXPECT_LE(dep.sim().now(), start + 1 * kMicrosPerSec);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.Schedule(1, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(Simulator, EventsFiredCount) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.Schedule(i, [] {});
  sim.Run();
  EXPECT_EQ(sim.events_fired(), 5u);
}

TEST(CostModel, DefaultsAreSane) {
  const CostModel& m = CostModel::Default();
  EXPECT_GT(m.tuple_scan_us, 0);
  EXPECT_GT(m.tuple_write_us, m.tuple_scan_us);  // writes cost more than reads
  EXPECT_GT(m.msg_fixed_us, m.marshal_per_tuple_us);
}

}  // namespace
}  // namespace orchestra::sim
