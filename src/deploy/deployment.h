// Deployment: assembles a full simulated ORCHESTRA cluster — simulator,
// network, node hosts, storage services, publishers — the way the
// paper deploys its prototype on the local cluster or EC2 (§VI). Used by
// tests, benchmarks, and examples.
#ifndef ORCHESTRA_DEPLOY_DEPLOYMENT_H_
#define ORCHESTRA_DEPLOY_DEPLOYMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "client/session.h"
#include "net/node_host.h"
#include "overlay/ring.h"
#include "query/service.h"
#include "sim/simulator.h"
#include "storage/publisher.h"
#include "storage/service.h"
#include "wal/backend.h"

namespace orchestra::deploy {

struct DeploymentOptions {
  size_t num_nodes = 4;
  int replication = 3;
  net::LinkParams link;  // defaults: Gigabit LAN
  /// Not read by the deployment, which draws no randomness of its own;
  /// harnesses (benchmark/, the churn harness) still set it to their run seed.
  uint64_t seed = 42;
  /// Multi-epoch GC: after each successful publish the publisher advertises
  /// (participant, new epoch - gc_keep_epochs); storage nodes retire
  /// superseded versions below the EFFECTIVE watermark — the min across
  /// active participants, so one slow writer pins retirement and a peer's
  /// base versions are never retired out from under it. 0 keeps every epoch
  /// forever (the seed behavior); retrievals are then valid at any epoch
  /// instead of only [watermark, current].
  uint64_t gc_keep_epochs = 0;
  /// Abandonment fencing: a claim whose owner shows no liveness for this
  /// much simulated time may be fenced by a stalled contender — the epoch is
  /// burned, the abandoned writer's orphans are purged, and its late writes
  /// are refused (Publisher::set_fence_after_us). 0 (default) disables
  /// fencing: an abandoned claim then wedges the chain forever, the seed
  /// liveness contract.
  sim::SimTime fence_after_us = 0;
  /// Per-node LocalStore tuning (the compaction and checkpoint thresholds,
  /// WAL sync cadence); harnesses lower the floor so small stores still
  /// exercise the GC->compact and checkpoint paths. The deployment supplies
  /// each node's WAL backend: a deterministic wal::MemoryBackend, so
  /// KillNode models a real crash — unsynced WAL bytes are torn away — and
  /// RestartNode rebuilds the store from the newest checkpoint plus the
  /// surviving log (docs/DURABILITY.md).
  localstore::StoreOptions store;
  /// Per-node client::Session tuning: the publish window (pipelining).
  /// Defaults pipeline up to 4 publishes per session.
  /// Leave `session.participant` at 0: every node's session then publishes
  /// as its own distinct participant (node id + 1), which is what makes
  /// concurrent multi-writer publishing across sessions safe.
  client::SessionOptions session;
};

class Deployment {
 public:
  explicit Deployment(DeploymentOptions options);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  size_t size() const { return hosts_.size(); }
  sim::Simulator& sim() { return sim_; }
  net::Network& network() { return network_; }
  net::NodeHost& host(size_t i) { return *hosts_[i]; }
  storage::StorageService& storage(size_t i) { return *storage_[i]; }
  storage::Publisher& publisher(size_t i) { return *publishers_[i]; }
  query::QueryService& query(size_t i) { return *query_[i]; }
  /// The participant-facing API of node i; the synchronous conveniences
  /// below all route through it.
  client::Session& session(size_t i) { return *sessions_[i]; }
  std::shared_ptr<storage::SnapshotBoard> board() { return board_; }
  /// Node i's WAL backend. Harnesses use it to inspect crash/torn-tail
  /// counters and to stage fault injection.
  const std::shared_ptr<wal::MemoryBackend>& wal_backend(size_t i) const {
    return wal_backends_[i];
  }
  const overlay::RoutingSnapshot& snapshot() const { return board_->current; }
  const DeploymentOptions& options() const { return options_; }

  /// Kills the node (fail-stop) and, if `update_routing`, rebuilds the
  /// current routing table without it (queries keep their own snapshots).
  /// With `rebalance`, surviving nodes re-replicate to the new table — under
  /// the balanced scheme a membership change shifts every range, so without
  /// it records whose whole replica set moved become unreachable.
  void KillNode(net::NodeId node, bool update_routing = true,
                bool rebalance = false);

  /// Adds a fresh node to the ring, updates the routing table, and triggers
  /// background re-replication from existing nodes.
  net::NodeId AddNode();

  /// Restarts a previously killed node: it rejoins the ring with its durable
  /// store (indexes rebuilt via LocalStore::Recover, epoch bookkeeping via
  /// StorageService::OnRestart), and all live nodes re-replicate toward the
  /// new routing table so the returnee both catches up on missed writes and
  /// re-serves its own.
  void RestartNode(net::NodeId node);

  /// Liveness passthrough for harnesses.
  bool IsAlive(net::NodeId node) const { return network_.IsAlive(node); }

  /// Highest epoch any live node's publisher has discovered or committed.
  /// Harnesses use it as the newest epoch to read or import at.
  storage::Epoch MaxKnownEpoch() const;

  /// Sum of all storage services' pending-call tables (leak regression hook:
  /// zero once every synchronous convenience above has returned).
  size_t PendingRpcCount() const;

  /// Default wait budget for RunUntil and the synchronous conveniences.
  static constexpr sim::SimTime kDefaultWaitUs = 120 * sim::kMicrosPerSec;

  /// Steps the simulator until `pred()` holds, running no event scheduled
  /// more than `max_wait` after now. Returns true if the predicate fired;
  /// on false the clock stays at the last event run.
  bool RunUntil(const std::function<bool()>& pred,
                sim::SimTime max_wait = kDefaultWaitUs);
  /// Runs for a fixed amount of simulated time.
  void RunFor(sim::SimTime duration);

  // --- Synchronous conveniences (submit through the node's client::Session
  // and drive the sim until the returned Pending resolves) -----------------
  Status CreateRelation(size_t via_node, const storage::RelationDef& def);
  Result<storage::Epoch> Publish(size_t via_node, storage::UpdateBatch batch);
  /// Algorithm 1 read at exactly `epoch`: a one-scan query on `via_node`'s
  /// executor (client::Session::Retrieve).
  Result<std::vector<storage::Tuple>> Retrieve(size_t via_node,
                                               const std::string& relation,
                                               storage::Epoch epoch,
                                               storage::KeyFilter filter = {});
  /// Runs a distributed query from `via_node` and drives the sim to
  /// completion. The query reads exactly `epoch`; there is no implicit
  /// "latest" (MaxKnownEpoch names the newest epoch a harness knows of).
  Result<query::QueryResult> ExecuteQuery(size_t via_node,
                                          const query::PhysicalPlan& plan,
                                          storage::Epoch epoch,
                                          query::QueryOptions options = {});

 private:
  /// Builds node `id`'s host and services: storage (over a fresh
  /// MemoryBackend WAL, recorded in wal_backends_), publisher, query engine
  /// and session.
  void BuildNode(net::NodeId id);

  DeploymentOptions options_;
  sim::Simulator sim_;
  net::Network network_;
  overlay::Ring ring_;
  std::shared_ptr<storage::SnapshotBoard> board_;
  std::vector<std::unique_ptr<net::NodeHost>> hosts_;
  std::vector<std::shared_ptr<wal::MemoryBackend>> wal_backends_;
  std::vector<std::unique_ptr<storage::StorageService>> storage_;
  std::vector<std::unique_ptr<storage::Publisher>> publishers_;
  std::vector<std::unique_ptr<query::QueryService>> query_;
  std::vector<std::unique_ptr<client::Session>> sessions_;
};

}  // namespace orchestra::deploy

#endif  // ORCHESTRA_DEPLOY_DEPLOYMENT_H_
