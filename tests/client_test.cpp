// client::Session — the unified async participant API. Covers:
//  * Pending<T> resolution/continuation semantics,
//  * pipelined publishing: ordered commits, chain accounting, sim-time
//    overlap win, in-memory page handoff across chained epochs,
//  * failure semantics: suffix abort + in-order same-batch retry,
//    ticket resolution when the session's node dies,
//  * admission control: window shrinks under injected load hints with no
//    publish lost, and recovers when load clears.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "client/session.h"
#include "common/pending.h"
#include "common/strings.h"
#include "deploy/deployment.h"
#include "storage/publisher.h"

namespace orchestra::client {
namespace {

using storage::Epoch;
using storage::Tuple;
using storage::Update;
using storage::UpdateBatch;
using storage::Value;
using storage::ValueType;

storage::RelationDef SimpleRelation(const std::string& name,
                                    uint32_t partitions = 8) {
  storage::RelationDef def;
  def.name = name;
  def.schema = storage::Schema(
      {{"k", ValueType::kString}, {"v", ValueType::kString}}, /*key_arity=*/1);
  def.num_partitions = partitions;
  return def;
}

Tuple Row(const std::string& k, const std::string& v) {
  return Tuple{Value(k), Value(v)};
}

UpdateBatch OneRow(const std::string& rel, const std::string& k,
                   const std::string& v) {
  UpdateBatch b;
  b[rel] = {Update::Insert(Row(k, v))};
  return b;
}

std::map<std::string, std::string> AsMap(const std::vector<Tuple>& rows) {
  std::map<std::string, std::string> m;
  for (const Tuple& t : rows) m[t[0].AsString()] = t[1].AsString();
  return m;
}

// ---------------------------------------------------------------------------
// Pending<T>

TEST(Pending, ResolvesOnceAndRunsContinuations) {
  Pending<int> p;
  EXPECT_FALSE(p.done());
  EXPECT_FALSE(p.ok());
  int fired = 0;
  p.OnReady([&fired] { ++fired; });
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(p.Resolve(Status::OK(), 7));
  EXPECT_TRUE(p.done());
  EXPECT_TRUE(p.ok());
  EXPECT_EQ(p.value(), 7);
  EXPECT_EQ(fired, 1);
  // Late continuation runs immediately; second resolve is rejected.
  p.OnReady([&fired] { ++fired; });
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(p.Resolve(Status::IOError("too late"), 9));
  EXPECT_EQ(p.value(), 7);
}

TEST(Pending, CopiesShareState) {
  Pending<std::string> a;
  Pending<std::string> b = a;
  a.Resolve(Status::OK(), "shared");
  EXPECT_TRUE(b.ok());
  EXPECT_EQ(b.value(), "shared");
  EXPECT_EQ(a.ToResult().value(), "shared");
}

TEST(Pending, FailureCarriesStatus) {
  Pending<int> p;
  p.Resolve(Status::NotFound("missing"));
  EXPECT_TRUE(p.done());
  EXPECT_FALSE(p.ok());
  EXPECT_TRUE(p.status().IsNotFound());
  EXPECT_FALSE(p.ToResult().ok());
}

// ---------------------------------------------------------------------------
// Session basics

class SessionTest : public ::testing::Test {
 protected:
  explicit SessionTest(size_t nodes = 4) {
    deploy::DeploymentOptions opts;
    opts.num_nodes = nodes;
    opts.replication = 3;
    dep = std::make_unique<deploy::Deployment>(opts);
  }
  bool Drive(const std::function<bool()>& pred,
             sim::SimTime budget = deploy::Deployment::kDefaultWaitUs) {
    return dep->RunUntil(pred, budget);
  }
  std::unique_ptr<deploy::Deployment> dep;
};

TEST_F(SessionTest, FlushIsABarrier) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  Session& s = dep->session(0);
  for (int i = 0; i < 3; ++i) {
    s.Submit(OneRow("R", "k", Tag("v", i)));
  }
  Pending<Epoch> flush = s.Flush();
  EXPECT_FALSE(flush.done());
  ASSERT_TRUE(Drive([&flush] { return flush.done(); }));
  EXPECT_TRUE(flush.ok());
  EXPECT_EQ(flush.value(), 3u);
  EXPECT_EQ(s.in_flight(), 0u);
  EXPECT_EQ(s.queued(), 0u);
  // An idle flush resolves immediately with the last epoch.
  Pending<Epoch> idle = s.Flush();
  EXPECT_TRUE(idle.ok());
  EXPECT_EQ(idle.value(), 3u);
}

TEST_F(SessionTest, RetrievePendingDeliversRows) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  ASSERT_TRUE(dep->Publish(0, OneRow("R", "a", "1")).ok());
  auto rows = dep->session(2).Retrieve("R", 1);
  ASSERT_TRUE(Drive([&rows] { return rows.done(); }));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(AsMap(rows.value()),
            (std::map<std::string, std::string>{{"a", "1"}}));
}

// ---------------------------------------------------------------------------
// Pipelining

TEST_F(SessionTest, PipelinedWindowCommitsInOrderAndChains) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  Session& s = dep->session(0);
  const auto& pstats = dep->publisher(0).pipeline_stats();
  uint64_t chained_before = pstats.chained;

  std::map<std::string, std::string> model;
  std::vector<Ticket> tickets;
  for (int i = 0; i < 6; ++i) {
    std::string k = Tag("k", i % 4);
    std::string v = Tag("v", i);
    model[k] = v;
    tickets.push_back(s.Submit(OneRow("R", k, v)));
  }
  EXPECT_GT(s.in_flight(), 1u);  // the window really overlaps publishes
  ASSERT_TRUE(Drive([&tickets] {
    for (const Ticket& t : tickets) {
      if (!t.epoch.done()) return false;
    }
    return true;
  }));
  for (size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].epoch.ok()) << tickets[i].epoch.status().ToString();
    EXPECT_EQ(tickets[i].epoch.value(), i + 1);  // strictly ordered commits
  }
  EXPECT_GT(pstats.chained, chained_before);  // pipelining actually engaged
  EXPECT_GE(s.stats().max_in_flight, 2u);

  // Every overlapped epoch is fully retrievable, including intermediates
  // (the in-memory page handoff produced exactly the committed pages).
  auto rows = dep->Retrieve(1, "R", tickets.back().epoch.value());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(AsMap(*rows), model);
  auto mid = dep->Retrieve(2, "R", 3);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->size(), 3u);  // k0..k2 as of epoch 3
}

// The pipeline's reason to exist: the same batch stream finishes in
// substantially less simulated time at window 4 than at window 1.
TEST(SessionPipeline, OverlapBeatsSequentialSimTime) {
  auto run = [](size_t window) -> sim::SimTime {
    deploy::DeploymentOptions opts;
    opts.num_nodes = 4;
    opts.replication = 3;
    opts.session.max_window = window;
    deploy::Deployment dep(opts);
    EXPECT_TRUE(dep.CreateRelation(0, SimpleRelation("R")).ok());
    Session& s = dep.session(0);
    sim::SimTime start = dep.sim().now();
    std::vector<Ticket> tickets;
    for (int i = 0; i < 12; ++i) {
      tickets.push_back(s.Submit(OneRow("R", Tag("k", i % 5),
                                        Tag("v", i))));
    }
    EXPECT_TRUE(dep.RunUntil([&tickets] {
      for (const Ticket& t : tickets) {
        if (!t.epoch.done()) return false;
      }
      return true;
    }));
    for (const Ticket& t : tickets) EXPECT_TRUE(t.epoch.ok());
    return dep.sim().now() - start;
  };
  sim::SimTime sequential = run(1);
  sim::SimTime pipelined = run(4);
  // The bench asserts the full >= 2x acceptance bound; here a conservative
  // 1.5x guards the mechanism against regressions at unit-test scale.
  EXPECT_LT(pipelined * 3, sequential * 2)
      << "window 4 took " << pipelined << "us vs window 1 " << sequential << "us";
}

// One coalesced kPutTuples frame per destination node per publish, even when
// the batch spans relations and partitions.
TEST_F(SessionTest, TupleWritesCoalescePerNode) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("S")).ok());
  auto frames_now = [&] {
    uint64_t n = 0;
    for (size_t i = 0; i < dep->size(); ++i) {
      n += dep->storage(i).counters().puttuples_frames;
    }
    return n;
  };
  uint64_t before = frames_now();
  UpdateBatch b;
  for (int i = 0; i < 16; ++i) {
    std::string k = Tag("k", i);
    b["R"].push_back(Update::Insert(Row(k, "r")));
    b["S"].push_back(Update::Insert(Row(k, "s")));
  }
  ASSERT_TRUE(dep->Publish(0, std::move(b)).ok());
  uint64_t frames = frames_now() - before;
  // 32 tuple writes x replication 3 land in at most one frame per node.
  EXPECT_LE(frames, dep->size());
  EXPECT_GE(frames, 1u);
}

// ---------------------------------------------------------------------------
// Failure semantics

TEST_F(SessionTest, FailureAbortsSuffixAndSameBatchRetryRecovers) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  ASSERT_TRUE(dep->Publish(0, OneRow("R", "seed", "s")).ok());

  std::vector<UpdateBatch> batches;
  for (int i = 0; i < 4; ++i) {
    batches.push_back(OneRow("R", Tag("k", i), Tag("v", i)));
  }
  Session& s = dep->session(0);
  std::vector<Ticket> tickets;
  for (const UpdateBatch& b : batches) tickets.push_back(s.Submit(b));
  // Kill a storage peer without updating routing: its replica writes fail,
  // so the actively-writing publish errors and the suffix aborts before
  // writing anything.
  dep->KillNode(3, /*update_routing=*/false);
  ASSERT_TRUE(Drive([&tickets] {
    for (const Ticket& t : tickets) {
      if (!t.epoch.done()) return false;
    }
    return true;
  }));
  size_t failed_at = tickets.size();
  for (size_t i = 0; i < tickets.size(); ++i) {
    if (!tickets[i].epoch.ok()) {
      failed_at = i;
      break;
    }
  }
  ASSERT_LT(failed_at, tickets.size());  // something did fail
  for (size_t i = failed_at; i < tickets.size(); ++i) {
    EXPECT_FALSE(tickets[i].epoch.ok()) << "commit behind a failed publish";
  }

  // Recover the cluster, then re-submit the failed suffix in order with the
  // SAME batches — the idempotent-retry discipline.
  dep->RestartNode(3);
  dep->RunFor(2 * sim::kMicrosPerSec);
  std::vector<Ticket> retry;
  for (size_t i = failed_at; i < batches.size(); ++i) {
    retry.push_back(s.Submit(batches[i]));
  }
  ASSERT_TRUE(Drive(
      [&retry] {
        for (const Ticket& t : retry) {
          if (!t.epoch.done()) return false;
        }
        return true;
      },
      4 * deploy::Deployment::kDefaultWaitUs));
  for (const Ticket& t : retry) {
    ASSERT_TRUE(t.epoch.ok()) << t.epoch.status().ToString();
  }
  auto rows = dep->Retrieve(1, "R", retry.back().epoch.value());
  ASSERT_TRUE(rows.ok());
  std::map<std::string, std::string> want{{"seed", "s"}, {"k0", "v0"},
                                          {"k1", "v1"}, {"k2", "v2"},
                                          {"k3", "v3"}};
  EXPECT_EQ(AsMap(*rows), want);
}

TEST_F(SessionTest, TicketsResolveWhenSessionNodeDies) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  Session& s = dep->session(1);
  std::vector<Ticket> tickets;
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(s.Submit(OneRow("R", Tag("k", i), "v")));
  }
  dep->KillNode(1);  // the session's own node
  // No driving needed: the kill path fails the tickets synchronously — a
  // dead client's work can never resolve through its dropped callbacks.
  for (const Ticket& t : tickets) {
    ASSERT_TRUE(t.epoch.done());
    EXPECT_FALSE(t.epoch.ok());
  }
  EXPECT_EQ(s.in_flight(), 0u);
  EXPECT_EQ(s.queued(), 0u);
}

// ---------------------------------------------------------------------------
// Admission control

TEST_F(SessionTest, BackpressureShrinksWindowWithoutLosingPublishes) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  Session& s = dep->session(0);
  ASSERT_EQ(s.window(), 4u);

  // Every peer reports heavy load; the first replies throttle the session.
  for (size_t i = 1; i < dep->size(); ++i) {
    dep->storage(i).InjectLoadHint(100000);
  }
  std::map<std::string, std::string> model;
  std::vector<Ticket> tickets;
  for (int i = 0; i < 8; ++i) {
    std::string k = Tag("k", i);
    model.emplace(k, "v");
    tickets.push_back(s.Submit(OneRow("R", k, "v")));
  }
  ASSERT_TRUE(Drive(
      [&tickets] {
        for (const Ticket& t : tickets) {
          if (!t.epoch.done()) return false;
        }
        return true;
      },
      4 * deploy::Deployment::kDefaultWaitUs));
  // No publish lost: everything committed despite throttling.
  for (const Ticket& t : tickets) {
    ASSERT_TRUE(t.epoch.ok()) << t.epoch.status().ToString();
  }
  EXPECT_GE(s.stats().throttle_shrinks, 1u);
  EXPECT_EQ(s.stats().min_window_seen, 1u);
  EXPECT_EQ(s.window(), 1u);
  auto rows = dep->Retrieve(1, "R", tickets.back().epoch.value());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(AsMap(*rows), model);

  // Load clears -> the window recovers (additive growth per launch).
  for (size_t i = 1; i < dep->size(); ++i) dep->storage(i).InjectLoadHint(0);
  dep->RunFor(3 * sim::kMicrosPerSec);  // age out stale hints
  std::vector<Ticket> more;
  for (int i = 0; i < 6; ++i) {
    more.push_back(s.Submit(OneRow("R", Tag("m", i), "v")));
  }
  ASSERT_TRUE(Drive([&more] {
    for (const Ticket& t : more) {
      if (!t.epoch.done()) return false;
    }
    return true;
  }));
  for (const Ticket& t : more) ASSERT_TRUE(t.epoch.ok());
  EXPECT_GE(s.stats().window_grows, 1u);
  EXPECT_GT(s.window(), 1u);
}

// ---------------------------------------------------------------------------
// Multi-writer: concurrent sessions from disjoint participants on one
// deployment. Epoch contention must resolve deterministically — one writer
// per epoch (claims + the participant-tagged commit gate), the loser
// re-basing onto the winner's committed output — with no torn or shadowed
// versions at any epoch.

TEST_F(SessionTest, ConcurrentPublishersResolveContentionDeterministically) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  Session& a = dep->session(0);  // participant 1
  Session& b = dep->session(1);  // participant 2
  ASSERT_NE(a.participant(), b.participant());

  // Submit in the same sim instant: both discover the same base and race
  // for the same epoch.
  const sim::SimTime t0 = dep->sim().now();
  Ticket ta = a.Submit(OneRow("R", "a", "va"));
  Ticket tb = b.Submit(OneRow("R", "b", "vb"));
  ASSERT_TRUE(Drive([&] { return ta.epoch.done() && tb.epoch.done(); }));
  ASSERT_TRUE(ta.epoch.ok()) << ta.epoch.status().ToString();
  ASSERT_TRUE(tb.epoch.ok()) << tb.epoch.status().ToString();
  // The loser wakes when the winner commits: both tickets resolve within
  // a few commit times, not after a multi-second contention pause.
  EXPECT_LE(dep->sim().now() - t0, 20 * sim::kMicrosPerMilli);

  // One writer per epoch, and the epochs are adjacent: the loser re-based
  // onto the winner's commit instead of failing or tearing.
  EXPECT_NE(ta.epoch.value(), tb.epoch.value());
  Epoch lo = std::min(ta.epoch.value(), tb.epoch.value());
  Epoch hi = std::max(ta.epoch.value(), tb.epoch.value());
  EXPECT_EQ(hi, lo + 1);
  uint64_t conflicts = dep->publisher(0).pipeline_stats().epoch_conflicts +
                       dep->publisher(1).pipeline_stats().epoch_conflicts;
  uint64_t rebases = dep->publisher(0).pipeline_stats().rebases +
                     dep->publisher(1).pipeline_stats().rebases;
  EXPECT_GE(conflicts, 1u);
  EXPECT_GE(rebases, 1u);

  // The final epoch merges both participants' (disjoint) updates; the
  // earlier epoch carries exactly the winner's.
  auto at_hi = dep->Retrieve(2, "R", hi);
  ASSERT_TRUE(at_hi.ok());
  EXPECT_EQ(AsMap(*at_hi),
            (std::map<std::string, std::string>{{"a", "va"}, {"b", "vb"}}));
  auto at_lo = dep->Retrieve(2, "R", lo);
  ASSERT_TRUE(at_lo.ok());
  bool a_won = ta.epoch.value() == lo;
  EXPECT_EQ(AsMap(*at_lo),
            a_won ? (std::map<std::string, std::string>{{"a", "va"}})
                  : (std::map<std::string, std::string>{{"b", "vb"}}));
  // The loser's held probe was answered; nothing is left pending.
  dep->RunFor(sim::kMicrosPerSec);
  EXPECT_EQ(dep->PendingRpcCount(), 0u);
  for (size_t i = 0; i < dep->size(); ++i) {
    EXPECT_EQ(dep->storage(i).held_probe_count(), 0u);
  }
}

// A split: each writer sits on a claim replica of epoch 1, so its own claim
// reaches that replica first and each holds a fragment — nobody holds the
// whole claim. Both release and re-claim after distinct phases of about a
// round trip; the race resolves in milliseconds at adjacent epochs.
TEST_F(SessionTest, SplitClaimResolvesInMillisecondsAtAdjacentEpochs) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  auto reps = dep->storage(0).snapshot().ReplicasOf(storage::ClaimHash(1), 3);
  ASSERT_EQ(reps.size(), 3u);
  const sim::SimTime t0 = dep->sim().now();
  Ticket ta = dep->session(reps[0]).Submit(OneRow("R", "a", "va"));
  Ticket tb = dep->session(reps[1]).Submit(OneRow("R", "b", "vb"));
  ASSERT_TRUE(Drive([&] { return ta.epoch.done() && tb.epoch.done(); }));
  ASSERT_TRUE(ta.epoch.ok()) << ta.epoch.status().ToString();
  ASSERT_TRUE(tb.epoch.ok()) << tb.epoch.status().ToString();
  EXPECT_LE(dep->sim().now() - t0, 20 * sim::kMicrosPerMilli);
  EXPECT_EQ(std::min(ta.epoch.value(), tb.epoch.value()), 1u);
  EXPECT_EQ(std::max(ta.epoch.value(), tb.epoch.value()), 2u);
  // The split refused both writers.
  EXPECT_GE(dep->publisher(reps[0]).pipeline_stats().epoch_conflicts, 1u);
  EXPECT_GE(dep->publisher(reps[1]).pipeline_stats().epoch_conflicts, 1u);
  auto rows = dep->Retrieve(2, "R", 2);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(AsMap(*rows),
            (std::map<std::string, std::string>{{"a", "va"}, {"b", "vb"}}));
  dep->RunFor(sim::kMicrosPerSec);
  EXPECT_EQ(dep->PendingRpcCount(), 0u);
  for (size_t i = 0; i < dep->size(); ++i) {
    EXPECT_EQ(dep->storage(i).held_probe_count(), 0u);
  }
}

// Same race twice (fresh deployments) => identical winner and epochs.
TEST(MultiWriter, ContentionReplaysIdentically) {
  auto run = [] {
    deploy::DeploymentOptions opts;
    opts.num_nodes = 4;
    opts.replication = 3;
    deploy::Deployment dep(opts);
    EXPECT_TRUE(dep.CreateRelation(0, SimpleRelation("R")).ok());
    Ticket ta = dep.session(0).Submit(OneRow("R", "a", "va"));
    Ticket tb = dep.session(1).Submit(OneRow("R", "b", "vb"));
    EXPECT_TRUE(
        dep.RunUntil([&] { return ta.epoch.done() && tb.epoch.done(); }));
    EXPECT_TRUE(ta.epoch.ok());
    EXPECT_TRUE(tb.epoch.ok());
    return std::make_pair(ta.epoch.value(), tb.epoch.value());
  };
  auto first = run();
  auto second = run();
  EXPECT_EQ(first, second);
}

// Sustained concurrent publishing: every committed epoch has exactly one
// writer, and retrieval at EVERY epoch equals the model built by applying
// the committed batches in epoch order — i.e. no epoch was ever torn by a
// second writer and no version was shadowed by a contention loser.
TEST_F(SessionTest, NoTornOrShadowedVersionsAcrossFullHistory) {
  ASSERT_TRUE(dep->CreateRelation(0, SimpleRelation("R")).ok());
  constexpr int kRounds = 6;
  constexpr size_t kWriters = 3;
  // (epoch -> (key, value)) of every committed batch, across all writers.
  std::map<Epoch, std::pair<std::string, std::string>> commits;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Ticket> tickets;
    std::vector<std::pair<std::string, std::string>> rows;
    for (size_t w = 0; w < kWriters; ++w) {
      // Disjoint per-writer key stripes, fresh value per round.
      std::string k = Tag("w", w) + Tag("k", round % 2);
      std::string v = Tag("r", round);
      rows.emplace_back(k, v);
      tickets.push_back(dep->session(w).Submit(OneRow("R", k, v)));
    }
    ASSERT_TRUE(Drive([&tickets] {
      for (const Ticket& t : tickets) {
        if (!t.epoch.done()) return false;
      }
      return true;
    }));
    for (size_t w = 0; w < kWriters; ++w) {
      ASSERT_TRUE(tickets[w].epoch.ok())
          << "round " << round << " writer " << w << ": "
          << tickets[w].epoch.status().ToString();
      // Torn-epoch detector: one committed writer per epoch, ever.
      ASSERT_TRUE(commits.emplace(tickets[w].epoch.value(), rows[w]).second)
          << "epoch " << tickets[w].epoch.value() << " committed twice";
    }
  }
  // Replay the commit log in epoch order and check retrieval at EVERY epoch.
  std::map<std::string, std::string> model;
  for (const auto& [epoch, kv] : commits) {
    model[kv.first] = kv.second;
    auto rows = dep->Retrieve(3, "R", epoch);
    ASSERT_TRUE(rows.ok()) << "epoch " << epoch;
    EXPECT_EQ(AsMap(*rows), model) << "epoch " << epoch;
  }
  EXPECT_EQ(dep->storage(0).counters().coordinator_conflicts +
                dep->storage(1).counters().coordinator_conflicts +
                dep->storage(2).counters().coordinator_conflicts +
                dep->storage(3).counters().coordinator_conflicts,
            0u)
      << "the commit-gate backstop fired: claims failed to serialize";
}

// GC under multi-writer: the effective watermark is the MIN across active
// participants, so a slow writer pins retirement and its base versions are
// never retired out from under it.
TEST(MultiWriter, GcWatermarkIsMinAcrossParticipants) {
  deploy::DeploymentOptions opts;
  opts.num_nodes = 4;
  opts.replication = 3;
  opts.gc_keep_epochs = 2;
  deploy::Deployment dep(opts);
  ASSERT_TRUE(dep.CreateRelation(0, SimpleRelation("R")).ok());

  // The slow writer commits once, early, and then goes quiet.
  auto slow = dep.Publish(1, OneRow("R", "slow", "v0"));
  ASSERT_TRUE(slow.ok());
  const Epoch slow_base = *slow;

  // The fast writer races ahead: its own mark advances, but the effective
  // watermark stays pinned at the slow participant's (0, inside the keep
  // window), so nothing the slow writer bases on is retired.
  Epoch last = 0;
  for (int i = 0; i < 8; ++i) {
    auto e = dep.Publish(0, OneRow("R", "fast", Tag("v", i)));
    ASSERT_TRUE(e.ok());
    last = *e;
  }
  dep.RunFor(1 * sim::kMicrosPerSec);  // advertisements land
  ASSERT_GT(last, opts.gc_keep_epochs + slow_base);
  for (size_t i = 0; i < dep.size(); ++i) {
    EXPECT_EQ(dep.storage(i).gc_watermark(), 0u) << "node " << i;
    EXPECT_EQ(dep.storage(i).EffectiveParticipantWatermark(), 0u);
    EXPECT_EQ(dep.storage(i).participant_mark_count(), 2u);
  }
  // Every historical epoch — including the slow writer's base — is intact.
  auto old_rows = dep.Retrieve(2, "R", slow_base);
  ASSERT_TRUE(old_rows.ok());
  EXPECT_EQ(old_rows->size(), 1u);

  // The slow writer catches up: the min jumps and retirement finally runs.
  // The effective mark is now min over BOTH participants' latest marks —
  // the fast writer's trails by the epochs the slow one just claimed.
  auto wake = dep.Publish(1, OneRow("R", "slow", "v1"));
  ASSERT_TRUE(wake.ok());
  dep.RunFor(1 * sim::kMicrosPerSec);
  const Epoch expect_mark = std::min(*wake, last) - opts.gc_keep_epochs;
  for (size_t i = 0; i < dep.size(); ++i) {
    EXPECT_EQ(dep.storage(i).gc_watermark(), expect_mark) << "node " << i;
  }
  // Epochs below the new watermark are retired...
  auto below = dep.Retrieve(2, "R", slow_base);
  EXPECT_FALSE(below.ok());
  // ...and the live window still reads exactly.
  auto now = dep.Retrieve(2, "R", *wake);
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(AsMap(*now), (std::map<std::string, std::string>{
                             {"slow", "v1"}, {"fast", "v7"}}));
}

// ---------------------------------------------------------------------------
// Abandonment fencing at the client surface: a session whose in-flight
// publish is fenced mid-write must surface a clean terminal error on its
// Ticket — no hang, no silent success — its chained successors must abort
// in submit order behind it, and the same-batch retry must recover at a
// fresh epoch with none of the zombie's writes leaking into history.

TEST(Fencing, FencedMidPublishFailsTicketAndAbortsSuccessorsInOrder) {
  deploy::DeploymentOptions opts;
  opts.num_nodes = 4;
  opts.replication = 3;
  opts.fence_after_us = 2 * sim::kMicrosPerSec;
  deploy::Deployment dep(opts);
  ASSERT_TRUE(dep.CreateRelation(0, SimpleRelation("R")).ok());

  // Cast the roles off the ring: the victim writes from the one node that
  // does NOT replicate the contested epoch's claim, so the fencer's
  // all-replicas grant round never depends on the hung node.
  auto claim_reps =
      dep.storage(0).snapshot().ReplicasOf(storage::ClaimHash(2),
                                           opts.replication);
  size_t writer = 0;
  for (size_t n = 0; n < dep.size(); ++n) {
    if (std::find(claim_reps.begin(), claim_reps.end(),
                  static_cast<net::NodeId>(n)) == claim_reps.end()) {
      writer = n;
    }
  }
  const size_t fencer = (writer + 1) % dep.size();
  ASSERT_TRUE(dep.Publish(fencer, OneRow("R", "seed", "s")).ok());  // epoch 1

  auto frames_now = [&dep] {
    uint64_t n = 0;
    for (size_t i = 0; i < dep.size(); ++i) {
      n += dep.storage(i).counters().puttuples_frames;
    }
    return n;
  };
  const uint64_t frames_before = frames_now();

  Session& zombie = dep.session(writer);
  std::vector<UpdateBatch> batches;
  for (int i = 0; i < 3; ++i) {
    batches.push_back(OneRow("R", Tag("k", i),
                             Tag("v", i)));
  }
  std::vector<Ticket> tickets;
  for (const UpdateBatch& b : batches) tickets.push_back(zombie.Submit(b));

  // Freeze the writer after its epoch-2 tuple writes hit a replica but
  // before its confirm: a real abandonment, indistinguishable from a crash
  // to everyone else, with orphan versions already on the wire.
  ASSERT_TRUE(dep.RunUntil([&] { return frames_now() > frames_before; }));
  ASSERT_FALSE(tickets[0].epoch.done());
  dep.network().HangNode(static_cast<net::NodeId>(writer));

  // Run the fencer's two-phase sequence from the test (at 4 nodes every
  // replica set includes the hung node, so a full contender publish cannot
  // commit — the live fencer pipeline is exercised by the churn sweeps):
  // wait out the staleness TTL, collect a grant from EVERY claim replica
  // (all alive by the role-casting above), then broadcast purge authority.
  dep.RunFor(2 * opts.fence_after_us);
  auto rpc = [&](net::NodeId target, uint16_t code, std::string body) {
    Status out = Status::Unavailable("no reply");
    bool done = false;
    dep.storage(fencer).Call(target, code, std::move(body),
                             [&](Status s, const std::string&) {
                               out = s;
                               done = true;
                             });
    dep.RunUntil([&done] { return done; });
    return out;
  };
  const uint32_t fencer_id = 9;  // any non-owner participant may fence
  for (net::NodeId target : claim_reps) {
    Writer fw;
    storage::FenceRequest{2, fencer_id, zombie.participant(),
                          static_cast<uint64_t>(opts.fence_after_us)}
        .EncodeTo(&fw);
    Status granted = rpc(target, storage::kFenceEpoch, fw.Release());
    ASSERT_TRUE(granted.ok()) << granted.ToString();
  }
  Writer pw;
  pw.PutVarint64(2);
  pw.PutVarint32(zombie.participant());
  pw.PutVarint64(0);  // nonce is advisory on purge; the fence named it
  for (size_t n = 0; n < dep.size(); ++n) {
    if (n == writer) continue;
    dep.storage(fencer).SendOneWay(static_cast<net::NodeId>(n),
                                   storage::kPurgeEpoch, pw.data());
  }
  dep.RunFor(sim::kMicrosPerSec / 5);
  uint64_t fences_granted = 0;
  for (size_t i = 0; i < dep.size(); ++i) {
    fences_granted += dep.storage(i).counters().fences_granted;
  }
  EXPECT_GE(fences_granted, claim_reps.size());

  // Thaw the zombie. Its head publish must resolve with a terminal error —
  // never hang awaiting a grant that cannot come, never report success for
  // purged writes — and the pipelined successors abort in order behind it.
  dep.network().UnhangNode(static_cast<net::NodeId>(writer));
  ASSERT_TRUE(dep.RunUntil(
      [&tickets] {
        for (const Ticket& t : tickets) {
          if (!t.epoch.done()) return false;
        }
        return true;
      },
      4 * deploy::Deployment::kDefaultWaitUs));
  const Status& head = tickets[0].epoch.status();
  EXPECT_FALSE(head.ok()) << "silent success for a fenced publish";
  EXPECT_TRUE(head.IsFenced() || head.IsTimedOut()) << head.ToString();
  for (size_t i = 1; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].epoch.done()) << "successor " << i << " hung";
    EXPECT_TRUE(tickets[i].epoch.status().IsAborted())
        << "successor " << i << ": " << tickets[i].epoch.status().ToString();
  }

  // The writer node was dark when the purge broadcast went out, so its
  // local orphans survive until anti-entropy delivers the burned-epoch
  // table — the same replica-push repair any partition heal runs.
  for (size_t i = 0; i < dep.size(); ++i) {
    dep.storage(i).RebalanceTo(dep.snapshot());
  }
  ASSERT_TRUE(dep.RunUntil([&dep] { return dep.PendingRpcCount() == 0; }));

  // None of the zombie's writes leaked into committed history: the last
  // committed epoch still reads exactly the seed, and the burned epoch
  // discovers nothing at all (its orphans were purged, not half-purged).
  auto at1 = dep.Retrieve(fencer, "R", 1);
  ASSERT_TRUE(at1.ok()) << at1.status().ToString();
  EXPECT_EQ(AsMap(*at1), (std::map<std::string, std::string>{{"seed", "s"}}));
  EXPECT_FALSE(dep.Retrieve(fencer, "R", 2).ok());

  // The idempotent-retry discipline still holds across a fence: the same
  // batches, resubmitted in order, commit at fresh epochs.
  std::vector<Ticket> retry;
  for (const UpdateBatch& b : batches) retry.push_back(zombie.Submit(b));
  ASSERT_TRUE(dep.RunUntil(
      [&retry] {
        for (const Ticket& t : retry) {
          if (!t.epoch.done()) return false;
        }
        return true;
      },
      4 * deploy::Deployment::kDefaultWaitUs));
  Epoch prev = 2;  // the burned epoch: every retry must land strictly past it
  for (const Ticket& t : retry) {
    ASSERT_TRUE(t.epoch.ok()) << t.epoch.status().ToString();
    EXPECT_GT(t.epoch.value(), prev);
    prev = t.epoch.value();
  }
  auto final_rows = dep.Retrieve(fencer, "R", prev);
  ASSERT_TRUE(final_rows.ok());
  EXPECT_EQ(AsMap(*final_rows),
            (std::map<std::string, std::string>{{"seed", "s"},
                                                {"k0", "v0"},
                                                {"k1", "v1"},
                                                {"k2", "v2"}}));
}

}  // namespace
}  // namespace orchestra::client
