#include "deploy/deployment.h"

#include <algorithm>
#include <variant>

#include "common/log.h"

namespace orchestra::deploy {

Deployment::Deployment(DeploymentOptions options)
    : options_(options),
      network_(&sim_, options.link),
      ring_(overlay::AllocationScheme::kBalanced),
      board_(std::make_shared<storage::SnapshotBoard>()) {
  for (size_t i = 0; i < options_.num_nodes; ++i) {
    std::string name = "node-" + std::to_string(i);
    net::NodeId id = network_.AddNode(name);
    ring_.Join(id, name);
  }
  board_->current = ring_.TakeSnapshot();
  for (size_t i = 0; i < options_.num_nodes; ++i) BuildNode(static_cast<net::NodeId>(i));
}

Deployment::~Deployment() = default;

void Deployment::BuildNode(net::NodeId id) {
  localstore::StoreOptions store = options_.store;
  wal_backends_.push_back(std::make_shared<wal::MemoryBackend>());
  store.wal_backend = wal_backends_.back();
  hosts_.push_back(std::make_unique<net::NodeHost>(&network_, id));
  storage_.push_back(std::make_unique<storage::StorageService>(
      hosts_.back().get(), board_, options_.replication, store));
  publishers_.push_back(std::make_unique<storage::Publisher>(storage_.back().get()));
  publishers_.back()->set_gc_keep_epochs(options_.gc_keep_epochs);
  publishers_.back()->set_fence_after_us(options_.fence_after_us);
  query_.push_back(std::make_unique<query::QueryService>(
      hosts_.back().get(), storage_.back().get(), board_));
  sessions_.push_back(std::make_unique<client::Session>(
      storage_.back().get(), publishers_.back().get(), query_.back().get(),
      options_.session));
}

void Deployment::KillNode(net::NodeId node, bool update_routing, bool rebalance) {
  network_.KillNode(node);
  // Model the crash at the durability layer too: un-synced WAL bytes are
  // torn away deterministically, so the eventual RestartNode recovers only
  // what the node had made durable.
  wal_backends_[node]->Crash();
  if (update_routing) {
    ring_.Leave(node);
    board_->current = ring_.TakeSnapshot();
  }
  // The dead node's own outstanding calls and queries can never complete
  // (its NIC is gone, replies hit a dead handler); every service on it
  // releases that state now — without invoking callbacks, since nothing may
  // execute on a halted node — instead of holding it until teardown.
  hosts_[node]->FailSelf();
  // The dead node's session tickets can likewise never resolve through the
  // publisher (its callbacks were just dropped); fail them at the client
  // layer so callers observe the death instead of hanging.
  sessions_[node]->AbortInFlight(Status::Unavailable("session node killed"));
  if (update_routing && rebalance) {
    for (auto& svc : storage_) {
      if (network_.IsAlive(svc->node())) svc->RebalanceTo(board_->current);
    }
  }
}

void Deployment::RestartNode(net::NodeId node) {
  if (network_.IsAlive(node)) return;
  network_.ReviveNode(node);
  if (!ring_.IsMember(node)) ring_.Join(node, network_.NodeName(node));
  board_->current = ring_.TakeSnapshot();

  // Crash-restart: only durable state survived — the checkpoint plus the
  // synced WAL tail. The in-memory indexes are rebuilt from scratch.
  Status rec = storage_[node]->store().Recover();
  ORC_CHECK(rec.ok(), "restart recovery failed");
  storage_[node]->OnRestart();

  // Both directions of catch-up: survivors push what the returnee missed,
  // the returnee re-serves what the new table assigns elsewhere.
  for (auto& svc : storage_) {
    if (network_.IsAlive(svc->node())) svc->RebalanceTo(board_->current);
  }
}

size_t Deployment::PendingRpcCount() const {
  size_t total = 0;
  for (const auto& svc : storage_) total += svc->pending_rpc_count();
  return total;
}

net::NodeId Deployment::AddNode() {
  std::string name = "node-" + std::to_string(network_.node_count());
  net::NodeId id = network_.AddNode(name);
  ring_.Join(id, name);
  BuildNode(id);

  overlay::RoutingSnapshot next = ring_.TakeSnapshot();
  // Background replication (PAST-style): existing nodes push state the new
  // table says the newcomer (or anyone else) should replicate.
  for (auto& svc : storage_) {
    if (network_.IsAlive(svc->node())) svc->RebalanceTo(next);
  }
  board_->current = next;
  return id;
}

storage::Epoch Deployment::MaxKnownEpoch() const {
  storage::Epoch max_epoch = 0;
  for (size_t i = 0; i < publishers_.size(); ++i) {
    if (network_.IsAlive(static_cast<net::NodeId>(i))) {
      max_epoch = std::max(max_epoch, publishers_[i]->current_epoch());
    }
  }
  return max_epoch;
}

bool Deployment::RunUntil(const std::function<bool()>& pred, sim::SimTime max_wait) {
  sim::SimTime deadline = sim_.now() + max_wait;
  while (!pred()) {
    if (!sim_.StepUntil(deadline)) return false;
  }
  return true;
}

void Deployment::RunFor(sim::SimTime duration) { sim_.RunUntil(sim_.now() + duration); }

namespace {

// Synchronous wait for the conveniences below: each submits through the
// node's client::Session and steps the simulator until the returned Pending
// resolves. The Pending's state is shared — if RunUntil gives up, a late
// completion still lands in that shared state (and is simply unobserved)
// rather than in a dead stack frame.
template <typename T>
Result<T> AwaitPending(Deployment& dep, const char* what, sim::SimTime max_wait,
                       Pending<T> p) {
  if (!dep.RunUntil([&p] { return p.done(); }, max_wait)) {
    return Status::TimedOut(std::string(what) + " did not complete");
  }
  if (!p.status().ok()) return p.status();
  return std::move(p.value());
}

constexpr sim::SimTime kDefaultWaitUs = Deployment::kDefaultWaitUs;

}  // namespace

Status Deployment::CreateRelation(size_t via_node, const storage::RelationDef& def) {
  return AwaitPending(*this, "CreateRelation", kDefaultWaitUs,
                      session(via_node).CreateRelation(def))
      .status();
}

Result<storage::Epoch> Deployment::Publish(size_t via_node,
                                           storage::UpdateBatch batch) {
  client::Ticket t = session(via_node).Submit(std::move(batch));
  return AwaitPending(*this, "Publish", kDefaultWaitUs, t.epoch);
}

Result<std::vector<storage::Tuple>> Deployment::Retrieve(size_t via_node,
                                                         const std::string& relation,
                                                         storage::Epoch epoch,
                                                         storage::KeyFilter filter) {
  return AwaitPending(*this, "Retrieve", kDefaultWaitUs,
                      session(via_node).Retrieve(relation, epoch, filter));
}

Result<query::QueryResult> Deployment::ExecuteQuery(size_t via_node,
                                                    const query::PhysicalPlan& plan,
                                                    storage::Epoch epoch,
                                                    query::QueryOptions options) {
  return AwaitPending(*this, "query", 600 * sim::kMicrosPerSec,
                      session(via_node).Query(plan, epoch, options));
}

}  // namespace orchestra::deploy
