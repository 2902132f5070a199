#include "tests/churn_harness.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/serial.h"
#include "deploy/deployment.h"
#include "storage/keys.h"
#include "storage/page.h"
#include "storage/publisher.h"
#include "wal/wal.h"

namespace orchestra::churn {
namespace {

using storage::Epoch;
using storage::Tuple;
using storage::Update;
using storage::UpdateBatch;
using storage::Value;

constexpr const char* kRelations[] = {"churn_a", "churn_b"};
constexpr size_t kNumRelations = 2;

/// Key -> payload string; the reference state of one relation.
using ModelState = std::map<int64_t, std::string>;

storage::RelationDef MakeDef(const std::string& name, uint32_t partitions) {
  storage::RelationDef def;
  def.name = name;
  def.schema = storage::Schema(
      {{"k", storage::ValueType::kInt64}, {"v", storage::ValueType::kString}},
      /*key_arity=*/1);
  def.num_partitions = partitions;
  return def;
}

Tuple Row(int64_t k, std::string v) {
  return Tuple{Value(k), Value(std::move(v))};
}

/// Everything one churn run owns; RunChurn drives it.
struct Driver {
  explicit Driver(const ChurnOptions& o)
      : opts(o), rng(o.seed), workload_rng(rng.Fork(1)), fault_rng(rng.Fork(2)) {
    deploy::DeploymentOptions dopts;
    dopts.num_nodes = o.num_nodes;
    dopts.replication = o.replication;
    dopts.seed = o.seed;
    dopts.gc_keep_epochs = o.gc_keep_epochs;
    dopts.store.compaction_min_records = o.compaction_min_records;
    dopts.store.wal.sync_every_records = o.wal_sync_every;
    dopts.store.checkpoint_every_records = o.wal_checkpoint_every;
    dopts.fence_after_us = o.fence_after_us;
    dep = std::make_unique<deploy::Deployment>(dopts);
    dep->network().SeedFaults(rng.Fork(3).NextU64());
    report.seed = o.seed;
  }

  const ChurnOptions& opts;
  Rng rng, workload_rng, fault_rng;
  std::unique_ptr<deploy::Deployment> dep;
  ChurnReport report;

  // Reference model: per relation, the current state plus every retained
  // committed snapshot (pruned below the GC watermark). With concurrent
  // publishers, committed batches are applied in COMMIT-EPOCH order; if a
  // force-aborted ticket may have committed invisibly (its publish outlived
  // the abort), the history snapshots are invalidated until fresh commits
  // rebuild them — the current-state model stays exact because a retried
  // batch rewrites the same keys.
  ModelState current[kNumRelations];
  std::map<Epoch, ModelState> history[kNumRelations];
  Epoch committed_epoch = 0;
  Epoch watermark = 0;
  std::set<Epoch> committed_epochs_seen;  // torn-epoch detector

  std::set<net::NodeId> dead;
  std::set<net::NodeId> hung;
  // Deliberately abandoned writer nodes: killed shortly after a round's
  // submissions and NEVER restarted (disjoint from `dead`, which repairs
  // revive). Their claims are exactly the wedge abandonment fencing exists
  // to break; their uncommitted batches are forgiven, their key stripes
  // adopted from storage truth at every convergence point.
  std::set<net::NodeId> abandoned;
  size_t abandons_scheduled = 0;  // budget incl. kills still in flight
  std::set<std::pair<net::NodeId, net::NodeId>> partitions;  // directed links
  // Liveness oracle state: the confirmed-epoch frontier observed at the
  // previous convergence point. It must strictly advance between points
  // whenever at least one live, non-abandoned writer exists.
  Epoch last_frontier = 0;
  // A force-aborted ticket's publish may still commit LATER (e.g. when its
  // hung node drains); snapshots taken between the abort and that landing
  // can miss its updates. Tainted history is dropped at the next convergence
  // point, after the cluster has fully drained.
  bool history_tainted = false;
  bool failed = false;

  // --- plumbing -------------------------------------------------------------

  void Trace(const char* fmt, ...) {
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    char line[384];
    std::snprintf(line, sizeof(line), "t=%" PRId64 " dig=%016" PRIx64 " %s\n",
                  dep->sim().now(), dep->sim().trace_digest(), buf);
    report.trace += line;
  }

  bool Fail(const std::string& what) {
    if (failed) return false;
    failed = true;
    report.ok = false;
    report.failure =
        "churn[seed=" + std::to_string(opts.seed) + "] " + what +
        " (rerun RunChurn with this seed to replay the identical trace)";
    report.trace += "FAIL " + what + "\n";
    return false;
  }

  net::NodeId RandomLive(Rng& r) {
    // Hung nodes are excluded: they are alive at the TCP level but drain
    // nothing, so neither a client pinning a session there nor a new fault
    // targeting them makes sense.
    std::vector<net::NodeId> live;
    for (size_t i = 0; i < dep->size(); ++i) {
      auto n = static_cast<net::NodeId>(i);
      if (dep->IsAlive(n) && !dep->network().IsHung(n)) live.push_back(n);
    }
    return live[r.Uniform(live.size())];
  }

  void SetChurnFaults(bool on) {
    net::FaultOptions f;
    if (on) {
      f.drop_prob = opts.drop_prob;
      f.delay_prob = opts.delay_prob;
      f.max_extra_delay_us = opts.max_extra_delay_us;
    }
    dep->network().SetFaultOptions(f);
  }

  void RebalanceAll() {
    for (size_t i = 0; i < dep->size(); ++i) {
      auto n = static_cast<net::NodeId>(i);
      // A hung machine is wedged: nothing executes on it until it unhangs.
      if (dep->IsAlive(n) && !dep->network().IsHung(n)) {
        dep->storage(i).RebalanceTo(dep->snapshot());
      }
    }
  }

  void Settle() {
    dep->RunUntil([this] { return dep->PendingRpcCount() == 0; },
                  300 * sim::kMicrosPerSec);
    dep->RunFor(500 * sim::kMicrosPerMilli);  // one-way stragglers
  }

  // --- workload -------------------------------------------------------------

  /// Number of disjoint participants driving the workload.
  size_t Publishers() const { return std::max<size_t>(1, opts.publishers); }

  /// Participant `p` updates only its own key stripe, so concurrent update
  /// logs are disjoint (the paper's participant model).
  UpdateBatch MakeBatch(size_t publisher, size_t rel_idx) {
    UpdateBatch batch;
    const int64_t stripe =
        static_cast<int64_t>(publisher) * static_cast<int64_t>(opts.keys);
    auto& updates = batch[kRelations[rel_idx]];
    for (size_t i = 0; i < opts.updates_per_round; ++i) {
      auto k = stripe + static_cast<int64_t>(workload_rng.Uniform(opts.keys));
      if (workload_rng.NextDouble() < opts.delete_prob) {
        updates.push_back(Update::Delete(Row(k, std::string())));
      } else {
        updates.push_back(Update::Insert(Row(k, workload_rng.AlphaString(24))));
      }
    }
    return batch;
  }

  /// A force-aborted ticket's publish may still have committed invisibly;
  /// every retained history snapshot below such a commit could be missing
  /// its updates. Drop them — commits from here on rebuild history.
  void InvalidateHistory() {
    bool had = false;
    for (size_t r = 0; r < kNumRelations; ++r) {
      had = had || !history[r].empty();
      history[r].clear();
    }
    if (had) report.history_invalidations += 1;
  }

  void ApplyToModel(size_t rel_idx, const UpdateBatch& batch, Epoch epoch) {
    for (const Update& u : batch.at(kRelations[rel_idx])) {
      int64_t k = u.tuple[0].AsInt64();
      if (u.kind == Update::Kind::kDelete) {
        current[rel_idx].erase(k);
      } else {
        current[rel_idx][k] = u.tuple[1].AsString();
      }
    }
    if (epoch < committed_epoch) {
      // A ticket from an earlier attempt resolved late, below epochs already
      // applied. The current-state merge above is exact (stripes are
      // disjoint) but the retained snapshots between `epoch` and
      // `committed_epoch` were taken without it.
      InvalidateHistory();
      return;
    }
    for (size_t r = 0; r < kNumRelations; ++r) history[r][epoch] = current[r];
    committed_epoch = epoch;
    if (opts.gc_keep_epochs > 0 && epoch > opts.gc_keep_epochs) {
      watermark = epoch - opts.gc_keep_epochs;
      for (size_t r = 0; r < kNumRelations; ++r) {
        auto& h = history[r];
        h.erase(h.begin(), h.lower_bound(watermark));
      }
    }
  }

  /// Publishes the round's batches — `publish_window` per participant, all
  /// participants submitting CONCURRENTLY through their own pinned sessions
  /// — retrying each participant's uncommitted suffix (idempotently, in
  /// order, with the same batches, through the SAME participant: the
  /// discipline multi-writer epoch claims rely on) across faults and kills.
  /// Escalates to a convergence repair before the final attempts. Commits
  /// are consumed per participant (suffix-order asserted per session),
  /// checked for torn epochs across participants, and applied to the model
  /// in commit-epoch order.
  ///
  /// Ownership rules under faults: a participant whose node is HUNG or DEAD
  /// skips attempts until it unhangs/restarts (repair guarantees both by the
  /// last attempts). Batches are never re-pinned to another participant: a
  /// failed publish that already issued writes keeps its epoch claim, and
  /// only the SAME participant's retry can recommit that epoch byte-
  /// identically — re-pinning would wedge on the pinned claim (and, with a
  /// takeover, could leave the dead twin's partial writes as orphans).
  bool PublishRound() {
    const size_t window = std::max<size_t>(1, opts.publish_window);
    const size_t pubs = Publishers();

    struct Owned {
      size_t rel = 0;
      UpdateBatch batch;
    };
    struct Writer {
      net::NodeId node = net::kInvalidNode;  // pinned session node
      std::vector<Owned> work;
      size_t committed = 0;  // committed prefix of `work`
    };
    std::vector<Writer> writers(pubs);
    for (size_t p = 0; p < pubs; ++p) {
      writers[p].node =
          pubs == 1 ? RandomLive(rng) : static_cast<net::NodeId>(p);
      writers[p].work.reserve(window);
      for (size_t i = 0; i < window; ++i) {
        size_t rel = workload_rng.Uniform(kNumRelations);
        writers[p].work.push_back(Owned{rel, MakeBatch(p, rel)});
      }
    }

    const size_t total = window * pubs;
    // Batches still owed by writers that have NOT been abandoned (an
    // abandoned writer never restarts, so its suffix is unfulfillable).
    auto RemainingLive = [this](const std::vector<Writer>& ws) {
      size_t remaining = 0;
      for (const Writer& wr : ws) {
        if (abandoned.count(wr.node) > 0) continue;
        remaining += wr.work.size() - wr.committed;
      }
      return remaining;
    };
    const sim::SimTime budget =
        deploy::Deployment::kDefaultWaitUs +
        60 * sim::kMicrosPerSec * static_cast<sim::SimTime>(total);
    for (size_t attempt = 0; attempt < opts.publish_attempts; ++attempt) {
      if (attempt == opts.publish_attempts - 2) {
        // Last-but-one attempt: repair the cluster first. If the batches
        // still cannot publish on a healthy quiescent cluster, that is a bug.
        Repair();
      }
      struct Submitted {
        size_t publisher = 0;
        std::vector<client::Ticket> tickets;
      };
      std::vector<Submitted> subs;
      for (size_t p = 0; p < pubs; ++p) {
        Writer& wr = writers[p];
        if (wr.committed == wr.work.size()) continue;
        if (!dep->IsAlive(wr.node) || dep->network().IsHung(wr.node)) {
          continue;  // wait for restart/unhang/repair — never re-pin
        }
        Submitted s;
        s.publisher = p;
        s.tickets.reserve(wr.work.size() - wr.committed);
        client::Session& sess = dep->session(wr.node);
        for (size_t i = wr.committed; i < wr.work.size(); ++i) {
          s.tickets.push_back(sess.Submit(wr.work[i].batch));  // copy: retried
        }
        subs.push_back(std::move(s));
      }
      bool all_resolved = dep->RunUntil(
          [&subs] {
            for (const Submitted& s : subs) {
              for (const client::Ticket& t : s.tickets) {
                if (!t.epoch.done()) return false;
              }
            }
            return true;
          },
          budget);
      if (!all_resolved) {
        // A ticket can only stay unresolved if something wedged (e.g. a
        // session node hung mid-flight); cut those sessions loose. The
        // aborted publishes may still commit invisibly once the node drains,
        // so history snapshots taken from here on are not trustworthy until
        // the next convergence point has drained everything.
        for (const Submitted& s : subs) {
          bool stuck = false;
          for (const client::Ticket& t : s.tickets) stuck = stuck || !t.epoch.done();
          if (stuck) {
            dep->session(writers[s.publisher].node)
                .AbortInFlight(Status::TimedOut("churn round budget expired"));
          }
        }
        history_tainted = true;
      }
      // Consume each participant's committed prefix; collect commits for
      // epoch-ordered model application and the torn-epoch check.
      struct Commit {
        Epoch epoch = 0;
        size_t publisher = 0;
        size_t idx = 0;
      };
      std::vector<Commit> commits;
      for (const Submitted& s : subs) {
        Writer& wr = writers[s.publisher];
        size_t done_now = 0;
        for (const client::Ticket& t : s.tickets) {
          if (!t.epoch.ok()) break;
          commits.push_back(
              Commit{t.epoch.value(), s.publisher, wr.committed + done_now});
          ++done_now;
        }
        // Pipeline ordering invariant: nothing behind a failed ticket may
        // have committed (the session fails the whole suffix).
        for (size_t j = done_now; j < s.tickets.size(); ++j) {
          if (s.tickets[j].epoch.ok()) {
            return Fail("session committed ticket " + std::to_string(j) +
                        " after an earlier ticket failed");
          }
        }
        if (done_now < s.tickets.size()) {
          const Status& fs = s.tickets[done_now].epoch.status();
          Trace("pubfail p=%zu idx=%zu err=%s", s.publisher,
                wr.committed + done_now, fs.ToString().c_str());
          // An AMBIGUOUS failure (timeout, fence, anything past the claim
          // gate) may have landed coordinator records before dying. Those
          // records are visible to epoch-snapshot reads at every epoch from
          // the torn attempt until the same-batch retry recommits — the
          // documented same-batch-retry contract keeps CURRENT reads exact,
          // but model snapshots taken inside the torn window are not
          // storage-truth. Only a claim-gate refusal (the slot was taken
          // before anything was written) is unambiguous and taint-free.
          bool prewrite_refusal =
              fs.IsEpochTaken() ||
              (fs.IsUnavailable() &&
               fs.message().find("claimed by") != std::string::npos);
          if (!prewrite_refusal) history_tainted = true;
        }
        if (done_now > 0) {
          report.pipelined_commits += done_now - 1;
          if (subs.size() > 1) report.concurrent_commits += done_now;
        }
        wr.committed += done_now;
      }
      // Torn-epoch detector: one epoch, one committed writer — ever.
      std::sort(commits.begin(), commits.end(),
                [](const Commit& a, const Commit& b) { return a.epoch < b.epoch; });
      for (const Commit& c : commits) {
        if (!committed_epochs_seen.insert(c.epoch).second) {
          return Fail("torn epoch " + std::to_string(c.epoch) +
                      ": two committed publishes report the same epoch");
        }
        Writer& wr = writers[c.publisher];
        ApplyToModel(wr.work[c.idx].rel, wr.work[c.idx].batch, c.epoch);
        report.publishes_ok += 1;
        Trace("pub p=%zu rel=%zu via=%u ep=%llu win=%zu", c.publisher,
              wr.work[c.idx].rel, wr.node,
              static_cast<unsigned long long>(c.epoch), window);
      }
      // An abandoned writer's uncommitted suffix is forgiven: it is never
      // restarted, so those batches can never commit — requiring them would
      // deadlock the round. Everything owned by a live (or revivable) writer
      // must still land. With no abandonment this is total == committed.
      if (RemainingLive(writers) == 0) {
        if (attempt > 0) report.publish_retries += attempt;
        return true;
      }
      // Let in-flight fault fallout (timeouts, drop notices) clear a little
      // before retrying; publishes are idempotent per batch + participant.
      dep->RunFor(2 * sim::kMicrosPerSec);
    }
    WedgeDump();
    return Fail("publish failed after " + std::to_string(opts.publish_attempts) +
                " attempts: " + std::to_string(RemainingLive(writers)) +
                " of " + std::to_string(total) +
                " batches uncommitted by non-abandoned writers");
  }

  // --- faults ---------------------------------------------------------------

  void MaybeScheduleKill() {
    if (fault_rng.NextDouble() >= opts.kill_prob) return;
    if (dead.size() + hung.size() >= opts.max_dead) return;
    net::NodeId victim = RandomLive(fault_rng);
    // Crash-point arming happens NOW (not inside the kill lambda): the
    // victim's very next checkpoint publish / segment seal during the round
    // trips the hook, so the scheduled crash lands on a store whose WAL is in
    // the half-finished state the hook models. The `prob > 0 &&` short-
    // circuits keep default-0 runs from drawing fault_rng at all, preserving
    // the byte-identical traces of seeds recorded before these knobs existed.
    if (opts.crash_mid_checkpoint_prob > 0 &&
        fault_rng.NextDouble() < opts.crash_mid_checkpoint_prob) {
      if (wal::Wal* w = dep->storage(victim).store().wal()) {
        w->FailNextCheckpointPublish();
        Trace("arm-ckpt-fail node=%u", victim);
      }
    }
    if (opts.crash_mid_seal_prob > 0 &&
        fault_rng.NextDouble() < opts.crash_mid_seal_prob) {
      if (wal::Wal* w = dep->storage(victim).store().wal()) {
        w->SkipNextSealSync();
        Trace("arm-seal-skip node=%u", victim);
      }
    }
    sim::SimTime delay = static_cast<sim::SimTime>(
        fault_rng.Uniform(3 * sim::kMicrosPerSec));  // lands mid-publish
    dep->sim().ScheduleAfter(delay, [this, victim] {
      if (!dep->IsAlive(victim)) return;
      dep->KillNode(victim, /*update_routing=*/true, /*rebalance=*/false);
      dead.insert(victim);
      report.kills += 1;
      Trace("kill node=%u", victim);
    });
  }

  void MaybeScheduleHang() {
    if (opts.hang_prob <= 0 || fault_rng.NextDouble() >= opts.hang_prob) return;
    if (dead.size() + hung.size() >= opts.max_dead) return;
    net::NodeId victim = RandomLive(fault_rng);
    sim::SimTime delay = static_cast<sim::SimTime>(
        fault_rng.Uniform(3 * sim::kMicrosPerSec));  // lands mid-publish
    dep->sim().ScheduleAfter(delay, [this, victim] {
      if (!dep->IsAlive(victim) || dep->network().IsHung(victim)) return;
      dep->network().HangNode(victim);
      hung.insert(victim);
      report.hangs += 1;
      Trace("hang node=%u", victim);
    });
  }

  /// Schedules a deliberate ABANDONMENT: a writer node is killed a random
  /// sub-publish interval after the round's submissions — landing after its
  /// epoch claim hit the wire, usually with orphan writes behind it — and is
  /// never restarted. Without fencing that claim wedges every competitor
  /// forever; with fence_after_us armed the survivors retire it. The
  /// `abandon_prob > 0` short-circuit keeps pre-knob seeds from drawing
  /// fault_rng, preserving their byte-identical traces. At least one writer
  /// always survives un-abandoned (otherwise the liveness contract is void).
  void MaybeScheduleAbandon() {
    if (opts.abandon_prob <= 0 || abandons_scheduled >= opts.max_abandoned) {
      return;
    }
    if (fault_rng.NextDouble() >= opts.abandon_prob) return;
    const size_t pubs = Publishers();
    if (pubs < 2 || abandons_scheduled + 1 >= pubs) return;
    std::vector<net::NodeId> eligible;  // live, unhung, un-abandoned writers
    for (size_t p = 0; p < pubs; ++p) {
      auto n = static_cast<net::NodeId>(p);
      if (dep->IsAlive(n) && !dep->network().IsHung(n) &&
          abandoned.count(n) == 0) {
        eligible.push_back(n);
      }
    }
    if (eligible.empty()) return;
    net::NodeId victim = eligible[fault_rng.Uniform(eligible.size())];
    abandons_scheduled += 1;
    sim::SimTime delay = static_cast<sim::SimTime>(
        fault_rng.Uniform(3 * sim::kMicrosPerSec));  // lands mid-publish
    dep->sim().ScheduleAfter(delay, [this, victim] {
      if (!dep->IsAlive(victim) || abandoned.count(victim) > 0) return;
      dep->KillNode(victim, /*update_routing=*/true, /*rebalance=*/false);
      abandoned.insert(victim);
      report.abandons += 1;
      // Its final in-flight publish may have committed invisibly (the
      // coordinator write can land before the kill); snapshots spanning the
      // abandon are untrustworthy until the stripe is adopted below.
      history_tainted = true;
      Trace("abandon node=%u", victim);
    });
  }

  /// Full diagnostic dump on a suspected wedge: every live node's epoch-claim
  /// table ('E' records, decoded) plus every writer's fault/pipeline state.
  /// Appends to the trace so it rides along in ChurnReport::failure repros.
  void WedgeDump() {
    Trace("wedge-dump begin");
    for (size_t i = 0; i < dep->size(); ++i) {
      auto n = static_cast<net::NodeId>(i);
      if (!dep->IsAlive(n)) continue;
      const auto& store = dep->storage(i).store();
      for (auto it = store.SeekPrefix(storage::keys::TagPrefix(storage::keys::kClaimTag));
           it.Valid(); it.Next()) {
        Epoch e = 0;
        if (!storage::keys::ParseClaim(it.key(), &e)) continue;
        storage::EpochClaimRecord rec;
        Reader r(it.value());
        if (!storage::EpochClaimRecord::DecodeFrom(&r, &rec).ok()) continue;
        Trace("claim node=%u ep=%llu owner=%u from=%u committed=%d fenced=%d "
              "nonce=%llu",
              n, static_cast<unsigned long long>(e), rec.participant, rec.node,
              rec.committed ? 1 : 0, rec.fenced ? 1 : 0,
              static_cast<unsigned long long>(rec.nonce));
      }
    }
    const size_t pubs = Publishers();
    for (size_t p = 0; p < pubs; ++p) {
      auto n = static_cast<net::NodeId>(p);
      const auto& ps = dep->publisher(p).pipeline_stats();
      Trace("writer p=%zu node=%u alive=%d hung=%d abandoned=%d pubs=%llu "
            "conflicts=%llu rebases=%llu fences=%llu fskips=%llu",
            p, n, dep->IsAlive(n) ? 1 : 0, dep->network().IsHung(n) ? 1 : 0,
            abandoned.count(n) > 0 ? 1 : 0,
            static_cast<unsigned long long>(ps.publishes),
            static_cast<unsigned long long>(ps.epoch_conflicts),
            static_cast<unsigned long long>(ps.rebases),
            static_cast<unsigned long long>(ps.fences),
            static_cast<unsigned long long>(ps.fenced_skips));
    }
    Trace("wedge-dump end");
  }

  /// One trace line per restart with the node's cumulative WAL recovery
  /// counters (replayed tail records, snapshot records, torn tails/bytes).
  /// Cumulative is deliberate: the line both documents what this recovery
  /// cost and folds every prior crash into the digest-checked trace.
  void TraceRecovery(net::NodeId n) {
    wal::Wal* w = dep->storage(n).store().wal();
    if (w == nullptr) return;
    const wal::WalStats& s = w->stats();
    Trace("recover node=%u replayed=%llu snap=%llu torn=%llu torn_bytes=%llu",
          n, static_cast<unsigned long long>(s.replayed_records),
          static_cast<unsigned long long>(s.snapshot_records),
          static_cast<unsigned long long>(s.torn_tails),
          static_cast<unsigned long long>(s.torn_bytes));
  }

  void MaybeRestartDead() {
    for (auto it = dead.begin(); it != dead.end();) {
      if (fault_rng.NextDouble() < opts.restart_prob) {
        net::NodeId n = *it;
        it = dead.erase(it);
        dep->RestartNode(n);
        report.restarts += 1;
        Trace("restart node=%u", n);
        TraceRecovery(n);
      } else {
        ++it;
      }
    }
    for (auto it = hung.begin(); it != hung.end();) {
      if (fault_rng.NextDouble() < opts.unhang_prob) {
        net::NodeId n = *it;
        it = hung.erase(it);
        dep->network().UnhangNode(n);
        report.unhangs += 1;
        Trace("unhang node=%u", n);
      } else {
        ++it;
      }
    }
  }

  void MaybeSchedulePartition() {
    if (opts.partition_prob <= 0 ||
        fault_rng.NextDouble() >= opts.partition_prob) {
      return;
    }
    if (partitions.size() >= opts.max_partitions) return;
    net::NodeId from = RandomLive(fault_rng);
    net::NodeId to = RandomLive(fault_rng);
    if (from == to || partitions.count({from, to}) > 0) return;
    partitions.insert({from, to});
    dep->network().SetDropOverride(from, to, opts.partition_drop_prob);
    report.partitions += 1;
    Trace("partition %u->%u p=%.2f", from, to, opts.partition_drop_prob);
  }

  void MaybeHealPartitions() {
    for (auto it = partitions.begin(); it != partitions.end();) {
      if (fault_rng.NextDouble() < opts.partition_heal_prob) {
        dep->network().ClearDropOverride(it->first, it->second);
        report.partition_heals += 1;
        Trace("heal %u->%u", it->first, it->second);
        it = partitions.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Full repair: faults off, partitions healed, everyone unhung +
  /// restarted, re-replicated, quiescent.
  void Repair() {
    SetChurnFaults(false);
    for (const auto& [from, to] : partitions) {
      dep->network().ClearDropOverride(from, to);
      report.partition_heals += 1;
      Trace("heal %u->%u (repair)", from, to);
    }
    partitions.clear();
    for (auto it = hung.begin(); it != hung.end();) {
      net::NodeId n = *it;
      it = hung.erase(it);
      dep->network().UnhangNode(n);
      report.unhangs += 1;
      Trace("unhang node=%u (repair)", n);
    }
    for (auto it = dead.begin(); it != dead.end();) {
      net::NodeId n = *it;
      it = dead.erase(it);
      dep->RestartNode(n);
      report.restarts += 1;
      Trace("restart node=%u (repair)", n);
      TraceRecovery(n);
    }
    RebalanceAll();
    Settle();
  }

  // --- convergence checks ---------------------------------------------------

  /// Erases every abandoned writer's key stripe from `m`. History checks
  /// compare through this: an abandoned stripe's orphan rows can be adopted
  /// into a snapshot and then purged by a LATER fence, so no snapshot of it
  /// is stable — the stripe's current state stays covered via adoption, its
  /// history is simply out of contract.
  void EraseAbandonedStripes(ModelState* m) const {
    for (net::NodeId n : abandoned) {
      const int64_t lo_k =
          static_cast<int64_t>(n) * static_cast<int64_t>(opts.keys);
      m->erase(m->lower_bound(lo_k),
               m->upper_bound(lo_k + static_cast<int64_t>(opts.keys) - 1));
    }
  }

  bool CheckRelationAt(size_t rel_idx, Epoch epoch, const ModelState& expect,
                       const storage::KeyFilter& filter, const char* what,
                       bool exclude_abandoned_stripes = false) {
    net::NodeId via = RandomLive(rng);
    Result<std::vector<Tuple>> rows =
        dep->Retrieve(via, kRelations[rel_idx], epoch, filter);
    for (int retry = 0; retry < 3 && !rows.ok(); ++retry) {
      // Transport-level stragglers from the churn phase may fail the first
      // scan; a wrong ANSWER is never retried.
      dep->RunFor(2 * sim::kMicrosPerSec);
      rows = dep->Retrieve(RandomLive(rng), kRelations[rel_idx], epoch, filter);
    }
    if (!rows.ok()) {
      return Fail(std::string(what) + " retrieve(" + kRelations[rel_idx] +
                  ", e=" + std::to_string(epoch) +
                  ") failed: " + rows.status().ToString());
    }
    ModelState got;
    for (const Tuple& t : *rows) {
      if (t.size() != 2) return Fail("retrieved tuple with wrong arity");
      int64_t k = t[0].AsInt64();
      if (!got.emplace(k, t[1].AsString()).second) {
        return Fail(std::string(what) + " duplicate key " + std::to_string(k) +
                    " in retrieval of " + kRelations[rel_idx]);
      }
    }
    ModelState want;
    for (const auto& [k, v] : expect) {
      std::string kb;
      Value(k).EncodeOrdered(&kb);
      if (filter.Matches(kb)) want.emplace(k, v);
    }
    if (exclude_abandoned_stripes) {
      EraseAbandonedStripes(&got);
      EraseAbandonedStripes(&want);
    }
    if (got != want) {
      std::string detail;
      for (const auto& [k, v] : got) {
        auto it = want.find(k);
        if (it == want.end()) detail += " extra:" + std::to_string(k);
        else if (it->second != v) detail += " diff:" + std::to_string(k);
      }
      for (const auto& [k, v] : want) {
        if (!got.count(k)) detail += " missing:" + std::to_string(k);
      }
      return Fail(std::string(what) + " mismatch on " + kRelations[rel_idx] +
                  " at e=" + std::to_string(epoch) + ": got " +
                  std::to_string(got.size()) + " rows, want " +
                  std::to_string(want.size()) + " [" + detail + " ]");
    }
    return true;
  }

  /// An abandoned writer's stripe is storage-truth: the writer died
  /// mid-publish and is never retried, so whether its final in-flight batch
  /// committed invisibly is unknowable client-side. Nothing else ever writes
  /// the stripe (stripes are disjoint, and a fence purge only removes
  /// UNcommitted orphans), so whatever a repaired cluster serves for it at
  /// the check epoch is final — adopt it into the model instead of guessing.
  /// History snapshots spanning the abandon were already dropped via
  /// history_tainted; snapshots taken after this adoption are exact again.
  bool AdoptAbandonedStripes() {
    if (abandoned.empty()) return true;
    const size_t pubs = Publishers();
    for (size_t p = 0; p < pubs; ++p) {
      auto n = static_cast<net::NodeId>(p);
      if (abandoned.count(n) == 0) continue;
      const int64_t lo_k =
          static_cast<int64_t>(p) * static_cast<int64_t>(opts.keys);
      const int64_t hi_k = lo_k + static_cast<int64_t>(opts.keys) - 1;
      storage::KeyFilter f;
      f.all = false;
      Value(lo_k).EncodeOrdered(&f.lo);
      Value(hi_k).EncodeOrdered(&f.hi);  // KeyFilter bounds are inclusive
      for (size_t r = 0; r < kNumRelations; ++r) {
        Result<std::vector<Tuple>> rows =
            dep->Retrieve(RandomLive(rng), kRelations[r], committed_epoch, f);
        for (int retry = 0; retry < 3 && !rows.ok(); ++retry) {
          dep->RunFor(2 * sim::kMicrosPerSec);
          rows = dep->Retrieve(RandomLive(rng), kRelations[r], committed_epoch, f);
        }
        if (!rows.ok()) {
          return Fail("adopt abandoned stripe p=" + std::to_string(p) +
                      " retrieve failed: " + rows.status().ToString());
        }
        auto& cur = current[r];
        cur.erase(cur.lower_bound(lo_k), cur.upper_bound(hi_k));
        for (const Tuple& t : *rows) {
          if (t.size() != 2) return Fail("adopted tuple with wrong arity");
          cur[t[0].AsInt64()] = t[1].AsString();
        }
      }
    }
    return true;
  }

  bool ConvergeAndCheck() {
    Repair();
    if (history_tainted) {
      // Give any publish whose ticket was force-aborted — but whose state
      // machine survived (e.g. parked in a claim-stall loop on a formerly
      // hung node) — time to land its commit, then drop the snapshots it may
      // have invalidated. Snapshots from here on are trustworthy again; the
      // current-state model is exact throughout (a retried batch rewrites
      // the same keys, so the newest version per key matches the model).
      dep->RunFor(40 * sim::kMicrosPerSec);
      Settle();
      InvalidateHistory();
      history_tainted = false;
    }
    // After a full repair — every node unhung/restarted and the network
    // quiescent — the pending RPC tables must have drained: calls to a hung
    // node resolve through their deadlines, calls to a dead one through
    // orphan reaping. A leftover entry is a lifecycle leak.
    if (dep->PendingRpcCount() != 0) {
      return Fail("pending RPC tables did not drain after repair: " +
                  std::to_string(dep->PendingRpcCount()) + " entries");
    }
    // Liveness oracle (deterministic global-progress check): between two
    // convergence points every round published at least one batch from a
    // live writer, so as long as ANY live, non-abandoned writer exists the
    // confirmed-epoch frontier must have advanced — abandonment fencing
    // (when armed) guarantees an abandoned claim cannot pin it. A flat
    // frontier is a wedged chain: dump the claim tables and fail.
    {
      const size_t pubs = Publishers();
      bool any_live_writer = pubs == 1;  // single-writer mode re-picks a node
      for (size_t p = 0; p < pubs && !any_live_writer; ++p) {
        if (abandoned.count(static_cast<net::NodeId>(p)) == 0) {
          any_live_writer = true;
        }
      }
      Epoch frontier = dep->MaxKnownEpoch();
      if (any_live_writer && frontier <= last_frontier) {
        WedgeDump();
        return Fail("liveness: confirmed-epoch frontier wedged at " +
                    std::to_string(frontier) + " since the previous check");
      }
      last_frontier = frontier;
    }
    // Nudge GC so the storage measurements below see a retired state even if
    // re-replication just resurrected already-retired records. Abandoned
    // nodes stay dead through checks; nothing executes on them.
    if (watermark > 0) {
      for (size_t i = 0; i < dep->size(); ++i) {
        if (!dep->IsAlive(static_cast<net::NodeId>(i))) continue;
        dep->storage(i).SetGcWatermark(watermark);
      }
      Settle();
    }
    report.checks += 1;
    if (!AdoptAbandonedStripes()) return false;

    storage::KeyFilter all;
    for (size_t r = 0; r < kNumRelations; ++r) {
      if (!CheckRelationAt(r, committed_epoch, current[r], all, "current")) {
        return false;
      }
    }
    // Sargable range retrieval: a random inclusive key range.
    {
      size_t r = rng.Uniform(kNumRelations);
      auto lo = static_cast<int64_t>(rng.Uniform(opts.keys));
      auto hi = lo + static_cast<int64_t>(rng.Uniform(opts.keys - lo) + 1);
      storage::KeyFilter f;
      f.all = false;
      Value(lo).EncodeOrdered(&f.lo);
      Value(hi).EncodeOrdered(&f.hi);
      if (!CheckRelationAt(r, committed_epoch, current[r], f, "range")) {
        return false;
      }
    }
    // Historical epoch at-or-above the watermark.
    if (opts.verify_history && !history[0].empty()) {
      std::vector<Epoch> eligible;
      for (const auto& [e, st] : history[0]) {
        if (e >= watermark && e != committed_epoch) eligible.push_back(e);
      }
      if (!eligible.empty()) {
        Epoch e = eligible[rng.Uniform(eligible.size())];
        size_t r = rng.Uniform(kNumRelations);
        if (!CheckRelationAt(r, e, history[r].at(e), all, "history",
                             /*exclude_abandoned_stripes=*/true)) {
          return false;
        }
      }
    }
    return CheckStorageBounds();
  }

  bool CheckStorageBounds() {
    uint64_t live_total = 0;
    double worst_dead = 0;
    uint64_t retired = 0;
    const uint64_t floor = opts.compaction_min_records;
    for (size_t i = 0; i < dep->size(); ++i) {
      // Abandoned nodes are dead at check time (repairs never revive them);
      // their stores are frozen mid-crash, so the bounds below don't apply.
      if (!dep->IsAlive(static_cast<net::NodeId>(i))) continue;
      const auto& store = dep->storage(i).store();
      live_total += store.entry_count();
      const auto& gs = dep->storage(i).gc_stats();
      retired = retired + gs.retired_data + gs.retired_pages +
                gs.retired_coords + gs.retired_tombstones;
      // Bounded garbage: compaction keeps the log within ~2x live once past
      // the compaction floor (below it compaction never runs, by design).
      uint64_t log = store.log_size();
      uint64_t cap = std::max<uint64_t>(
          floor + floor / 4, 2 * store.entry_count() + store.entry_count() / 4 + 64);
      if (log > cap) {
        return Fail("store log unbounded on node " + std::to_string(i) +
                    ": log=" + std::to_string(log) +
                    " live=" + std::to_string(store.entry_count()));
      }
      if (log >= floor) {
        worst_dead = std::max(worst_dead, store.garbage_ratio());
        if (store.garbage_ratio() > 0.55) {
          return Fail("dead fraction above compaction threshold on node " +
                      std::to_string(i) + ": " +
                      std::to_string(store.garbage_ratio()));
        }
      }
    }
    report.max_live_records = std::max(report.max_live_records, live_total);
    report.max_dead_fraction = std::max(report.max_dead_fraction, worst_dead);
    report.gc_retired_total = retired;

    if (opts.gc_keep_epochs > 0) {
      // Live records must not grow with the round count: versions retained
      // per key/page/coordinator are bounded by the watermark window, and
      // copies per record by the node count (old replicas keep theirs until
      // the version is superseded). With concurrent publishers the EFFECTIVE
      // watermark is the min across participants, which can lag the newest
      // mark by roughly a round of everyone else's commits — widen the
      // window (and the key space, which is striped) accordingly.
      const uint64_t pubs = Publishers();
      const uint64_t win_batches = std::max<size_t>(1, opts.publish_window);
      uint64_t window = opts.gc_keep_epochs + 4 +
                        (pubs > 1 ? 2 * pubs * win_batches + 4 : 0);
      uint64_t per_rel = opts.keys * pubs * window +         // tuple versions
                         opts.num_partitions * window +      // page versions
                         window +                            // coordinators
                         opts.num_partitions + opts.num_nodes + 1;  // I + M
      uint64_t bound = opts.num_nodes * kNumRelations * per_rel +
                       opts.num_nodes * window +  // epoch claims ('E')
                       512;
      report.live_record_bound = bound;
      if (live_total > bound) {
        return Fail("GC failed to bound storage: live=" +
                    std::to_string(live_total) +
                    " bound=" + std::to_string(bound) + " after " +
                    std::to_string(report.publishes_ok) + " publishes");
      }
    }
    Trace("check ep=%llu live=%llu deadmax=%.3f",
          static_cast<unsigned long long>(committed_epoch),
          static_cast<unsigned long long>(live_total), worst_dead);
    return true;
  }

  // --- top level ------------------------------------------------------------

  bool Setup() {
    if (Publishers() > opts.num_nodes) {
      return Fail("publishers (" + std::to_string(Publishers()) +
                  ") exceed num_nodes (" + std::to_string(opts.num_nodes) + ")");
    }
    for (size_t r = 0; r < kNumRelations; ++r) {
      Status st = dep->CreateRelation(
          0, MakeDef(kRelations[r], opts.num_partitions));
      if (!st.ok()) return Fail("create relation: " + st.ToString());
    }
    // Initial population of every participant's stripe so overwrites
    // dominate from round one.
    const size_t all_keys = opts.keys * Publishers();
    for (size_t r = 0; r < kNumRelations; ++r) {
      UpdateBatch batch;
      auto& ups = batch[kRelations[r]];
      for (size_t k = 0; k < all_keys; ++k) {
        ups.push_back(Update::Insert(
            Row(static_cast<int64_t>(k), workload_rng.AlphaString(24))));
      }
      auto e = dep->Publish(0, batch);
      if (!e.ok()) return Fail("initial publish: " + e.status().ToString());
      committed_epochs_seen.insert(*e);
      for (size_t i = 0; i < all_keys; ++i) {
        current[r][static_cast<int64_t>(i)] = ups[i].tuple[1].AsString();
      }
      for (size_t rr = 0; rr < kNumRelations; ++rr) {
        history[rr][*e] = current[rr];
      }
      committed_epoch = *e;
    }
    Trace("setup ep=%llu pubs=%zu", static_cast<unsigned long long>(committed_epoch),
          Publishers());
    return true;
  }

  void Run() {
    if (!Setup()) return;
    for (size_t round = 1; round <= opts.rounds && !failed; ++round) {
      MaybeRestartDead();
      MaybeHealPartitions();
      SetChurnFaults(true);
      MaybeScheduleKill();
      MaybeScheduleHang();
      MaybeSchedulePartition();
      MaybeScheduleAbandon();
      if (!PublishRound()) break;
      // Flush any still-pending scheduled kill/hang, then re-replicate
      // around it so the next round's publish can reach every record.
      dep->RunFor(3 * sim::kMicrosPerSec + 1);
      if (!dead.empty() || !abandoned.empty()) {
        SetChurnFaults(false);
        RebalanceAll();
        Settle();
      }
      Trace("round=%zu ep=%llu dead=%zu hung=%zu", round,
            static_cast<unsigned long long>(committed_epoch), dead.size(),
            hung.size());
      if (round % opts.check_every == 0 || round == opts.rounds) {
        if (!ConvergeAndCheck()) break;
      }
    }
    if (!failed) report.ok = true;
    report.final_epoch = committed_epoch;
    for (size_t i = 0; i < dep->size(); ++i) {
      const auto& ps = dep->publisher(i).pipeline_stats();
      report.epoch_conflicts += ps.epoch_conflicts;
      report.rebases += ps.rebases + ps.chain_rebases;
      report.fences += ps.fences;
      report.fenced_skips += ps.fenced_skips;
      const auto& sc = dep->storage(i).counters();
      report.coordinator_conflicts += sc.coordinator_conflicts;
      report.fences_granted += sc.fences_granted;
      report.fenced_writes_refused += sc.fenced_writes_refused;
      report.purged_orphans += sc.purged_orphans;
      if (wal::Wal* w = dep->storage(i).store().wal()) {
        const wal::WalStats& ws = w->stats();
        report.wal_replayed_records += ws.replayed_records;
        report.wal_torn_tails += ws.torn_tails;
        report.wal_torn_bytes += ws.torn_bytes;
        report.wal_checkpoints += ws.checkpoints;
      }
    }
    report.faults_dropped = dep->network().fault_counters().dropped;
    report.faults_delayed = dep->network().fault_counters().delayed;
    report.trace_digest = dep->sim().trace_digest();
    report.sim_seconds = static_cast<double>(dep->sim().now()) / 1e6;
    char tail[160];
    std::snprintf(tail, sizeof(tail),
                  "end ok=%d ep=%llu dig=%016" PRIx64 " drops=%llu delays=%llu\n",
                  report.ok ? 1 : 0,
                  static_cast<unsigned long long>(report.final_epoch),
                  report.trace_digest,
                  static_cast<unsigned long long>(report.faults_dropped),
                  static_cast<unsigned long long>(report.faults_delayed));
    report.trace += tail;
  }
};

}  // namespace

ChurnReport RunChurn(const ChurnOptions& options) {
  Driver driver(options);
  driver.Run();
  return driver.report;
}

std::string ReplayCommand(const ChurnReport& report,
                          const std::string& test_filter) {
  return "ORCHESTRA_CHURN_SEED=" + std::to_string(report.seed) +
         " ./churn_test --gtest_filter=" + test_filter;
}

std::string TraceTail(const ChurnReport& report, size_t max_lines) {
  const std::string& t = report.trace;
  if (t.empty() || max_lines == 0) return std::string();
  // Trace lines are '\n'-terminated; scan backwards for the cut point.
  size_t newlines = 0;
  size_t i = t.size();
  while (i > 0) {
    --i;
    if (t[i] == '\n') {
      ++newlines;
      if (newlines > max_lines) return t.substr(i + 1);
    }
  }
  return t;
}

}  // namespace orchestra::churn
