// Deterministic churn / fault-injection harness. Drives a sustained
// publish/overwrite/delete/query workload against a simulated multi-node
// deployment while injecting crashes, restarts, message drops, and delayed
// deliveries, and checks full-retrieval equivalence against an in-memory
// model after every convergence point.
//
// Everything is derived from ChurnOptions::seed: the workload stream, the
// fault schedule, and the network's drop/delay stream. Two runs with the
// same options produce byte-identical event traces (ChurnReport::trace) and
// equal simulator digests; a failing run reports its seed in
// ChurnReport::failure ("churn[seed=N] ...") — rerun RunChurn with that seed
// to replay the exact failure.
//
// The harness is also the proof obligation for multi-epoch GC: with
// gc_keep_epochs > 0 it asserts at every convergence point that storage
// stays bounded (live records do not grow with the number of rounds, and
// each store's dead-record fraction stays below the compaction threshold
// plus slack) while retrieval stays correct at the current epoch and at
// retained historical epochs.
//
// Multi-writer mode (publishers >= 2): each publisher is a DISJOINT
// participant — its own client::Session pinned to its own node, updating its
// own key stripe — and every round all publishers submit concurrently, so
// epoch claims genuinely contend. Batches are owned by their participant for
// retries (the same-batch-same-participant discipline multi-writer claims
// rely on); committed batches are applied to the model in COMMIT-EPOCH order
// across participants, and a round fails if two tickets ever report the same
// committed epoch (a torn epoch). Asymmetric partitions
// (Network::SetDropOverride: one direction of a node pair drops, the reverse
// stays healthy) join the fault mix via partition_prob.
#ifndef ORCHESTRA_TESTS_CHURN_HARNESS_H_
#define ORCHESTRA_TESTS_CHURN_HARNESS_H_

#include <cstdint>
#include <string>

#include "sim/simulator.h"

namespace orchestra::churn {

/// All knobs of one churn run. Thread/ordering contract: RunChurn is a
/// single-threaded, blocking call that owns its Deployment and simulator —
/// drive one run per thread, never share a ChurnOptions-under-mutation.
/// Within a run, committed batches are applied to the reference model in
/// commit-EPOCH order (not submission order) across participants, which is
/// the only order the versioned store's snapshots are comparable in.
struct ChurnOptions {
  uint64_t seed = 1;

  // Cluster shape.
  size_t num_nodes = 5;
  int replication = 3;
  uint32_t num_partitions = 8;

  // Workload: each round every participant publishes `publish_window`
  // batches of upserts/deletes over its key stripe (overwrite-heavy — this
  // is what grows dead versions) through its client::Session. With a
  // window > 1 the batches pipeline: later publishes overlap earlier ones'
  // writes while commits stay strictly ordered, and the harness asserts that
  // ordering (a commit observed after a failed predecessor fails the run).
  size_t rounds = 100;
  size_t keys = 48;              // working-set size per relation AND stripe
  size_t updates_per_round = 8;  // updates per published batch
  double delete_prob = 0.15;     // P(update is a delete)
  size_t publish_window = 1;     // batches submitted (and in flight) per round

  // Concurrent disjoint participants. 1 = the classic single-writer harness
  // (one randomly chosen session per round). >= 2: participant i is pinned
  // to node i's session and updates only its own key stripe
  // [i*keys, (i+1)*keys); each round every participant submits its
  // publish_window batches CONCURRENTLY, so same-epoch claims contend and
  // losers re-base. Requires publishers <= num_nodes.
  size_t publishers = 1;

  // Fault mix. Kills are scheduled to land mid-publish; restarts happen
  // between rounds. max_dead keeps the replica-safety bound of the system
  // (replication-way storage tolerates replication/2 failures); hung nodes
  // count against the same budget — while hung they serve nothing.
  double kill_prob = 0.08;
  double restart_prob = 0.5;
  size_t max_dead = 1;
  double drop_prob = 0.02;
  double delay_prob = 0.10;
  sim::SimTime max_extra_delay_us = 20 * 1000;
  // Hung machines (§V-C): the node stops draining its inbox but connections
  // stay open, so RPCs to it burn their full deadline instead of failing
  // fast. Unhangs happen between rounds (like restarts) and at every repair;
  // after each repair the harness asserts the pending RPC tables drained.
  double hang_prob = 0.0;
  double unhang_prob = 0.5;
  // Asymmetric partitions: with partition_prob per round, one DIRECTED link
  // (from -> to) between live nodes starts dropping at partition_drop_prob
  // while the reverse direction stays healthy (Network::SetDropOverride).
  // Each active partition heals with partition_heal_prob per round; repairs
  // heal all of them. At most max_partitions are active at once.
  double partition_prob = 0.0;
  double partition_drop_prob = 0.9;
  double partition_heal_prob = 0.5;
  size_t max_partitions = 1;

  // Convergence cadence: every `check_every` rounds faults pause, dead nodes
  // restart, re-replication runs, and the model-equivalence + GC assertions
  // execute.
  size_t check_every = 20;

  // Multi-epoch GC: watermark = current epoch - gc_keep_epochs (0 = GC off;
  // storage then grows without bound and only equivalence is asserted).
  uint64_t gc_keep_epochs = 6;

  // LocalStore compaction floor for the deployment: lowered from the
  // production default (4096) so harness-scale stores still exercise the
  // GC -> compaction pipeline. Dead-fraction assertions apply to stores
  // at or above the floor (below it, compaction never runs by design).
  uint64_t compaction_min_records = 512;

  // Abandoned writers + fencing. With abandon_prob per round (at most
  // max_abandoned per run, writer nodes only, never the last live writer
  // class), one writer is killed a random sub-publish interval after the
  // round's submissions — landing after its epoch claim hit the wire — and
  // NEVER restarted: its claim would wedge the epoch chain forever under the
  // seed liveness contract. fence_after_us > 0 arms abandonment fencing on
  // every publisher (DeploymentOptions::fence_after_us) so stalled
  // contenders retire such claims; the liveness oracle below then holds.
  // Both default off; runs that predate these knobs draw nothing extra from
  // the fault RNG and replay byte-identically.
  double abandon_prob = 0.0;
  size_t max_abandoned = 0;
  sim::SimTime fence_after_us = 0;

  // Publish retry budget per batch (re-publishing a batch is idempotent).
  size_t publish_attempts = 12;

  // Also retrieve at one retained historical epoch per check.
  bool verify_history = true;

  // Durability (each node's WAL lives on the deployment's deterministic
  // in-memory backend). `wal_sync_every` feeds straight into the per-node
  // WalOptions: 1 makes every record durable before it is acked (a crash
  // tears nothing), 0 leaves the whole tail unsynced so KillNode genuinely
  // loses suffixes. A store checkpoints by its own rule (past
  // compaction_min_records, once most of its durable image is dead).
  uint64_t wal_sync_every = 1;
  // Crash-point fault injection: when a kill is scheduled, also arm (with
  // this probability) the victim's WAL fault hook so the crash lands
  // mid-checkpoint-publish (MANIFEST.tmp written, rename skipped). 0 draws
  // nothing from the fault RNG, preserving seed traces of runs that predate
  // this knob.
  double crash_mid_checkpoint_prob = 0.0;
};

struct ChurnReport {
  bool ok = false;
  std::string failure;  // empty when ok; else "churn[seed=N] ..."
  std::string trace;    // one line per round/action; byte-identical per seed

  uint64_t publishes_ok = 0;
  uint64_t publish_retries = 0;
  uint64_t kills = 0;
  uint64_t restarts = 0;
  uint64_t hangs = 0;
  uint64_t unhangs = 0;
  uint64_t pipelined_commits = 0;  // commits while >1 publish was in flight
  uint64_t checks = 0;
  uint64_t final_epoch = 0;

  // Multi-writer observations.
  uint64_t partitions = 0;        // asymmetric partitions scheduled
  uint64_t partition_heals = 0;   // healed between rounds (repairs heal all)
  uint64_t epoch_conflicts = 0;   // claims/commits lost across all publishers
  uint64_t rebases = 0;           // contention re-bases across all publishers
  uint64_t coordinator_conflicts = 0;  // commit-gate refusals (backstop;
                                       // expected to stay 0 outside
                                       // claim-replica-set wipeouts)
  uint64_t concurrent_commits = 0;  // commits while another PARTICIPANT also
                                    // had a publish in flight
  uint64_t history_invalidations = 0;  // model history dropped after a
                                       // possibly-committed aborted ticket

  // Abandonment + fencing observations.
  uint64_t seed = 0;       // echoed from ChurnOptions (replay convenience)
  uint64_t abandons = 0;   // writers killed-after-claim and never restarted
  uint64_t fences = 0;     // fence rounds fully granted (across publishers)
  uint64_t fenced_skips = 0;  // burned epochs skipped over by contenders
  uint64_t fences_granted = 0;        // claim-replica fence grants (storage)
  uint64_t fenced_writes_refused = 0;  // zombie writes bounced with kFenced
  uint64_t purged_orphans = 0;  // orphan records doomed by fence purges

  // GC / storage-bound observations (maxima over all convergence checks).
  double max_dead_fraction = 0;    // worst per-store dead fraction
  uint64_t max_live_records = 0;   // worst cluster-wide live record count
  uint64_t live_record_bound = 0;  // the bound asserted against
  uint64_t gc_retired_total = 0;   // records retired by GC across the run

  // Durability observations (summed over all nodes at the end of the run).
  uint64_t wal_replayed_records = 0;  // tail records replayed across restarts
  uint64_t wal_torn_tails = 0;        // crash-torn segment tails truncated
  uint64_t wal_torn_bytes = 0;        // bytes discarded by those truncations
  uint64_t wal_checkpoints = 0;       // checkpoints published across the run

  // Fault accounting + determinism fingerprint.
  uint64_t faults_dropped = 0;
  uint64_t faults_delayed = 0;
  uint64_t trace_digest = 0;  // simulator digest at the end of the run
  double sim_seconds = 0;     // simulated makespan
};

/// Runs the churn scenario described by `options` to completion.
ChurnReport RunChurn(const ChurnOptions& options);

/// One-line shell command that replays `report`'s exact run:
/// "ORCHESTRA_CHURN_SEED=<seed> ./churn_test --gtest_filter=<test_filter>".
/// Print it with every sweep failure so the repro is a copy-paste away.
std::string ReplayCommand(const ChurnReport& report,
                          const std::string& test_filter);

/// The last `max_lines` lines of the report's event trace (the whole trace
/// when shorter) — the standard failure attachment for sweep assertions.
std::string TraceTail(const ChurnReport& report, size_t max_lines);

}  // namespace orchestra::churn

#endif  // ORCHESTRA_TESTS_CHURN_HARNESS_H_
