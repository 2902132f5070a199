#include "query/service.h"

#include <algorithm>

#include "common/log.h"

namespace orchestra::query {

namespace {
constexpr size_t kMaxPendingPerQuery = 4096;
constexpr size_t kMaxAbortedTracked = 1024;

// Query ids are (initiator << kQueryInitiatorShift) | sequence, so the
// initiator of any query is recoverable from the id alone.
constexpr int kQueryInitiatorShift = 40;

DynamicBitset SingletonTaint(size_t bits, net::NodeId node) {
  DynamicBitset b(bits);
  if (node < bits) b.Set(node);
  return b;
}
}  // namespace

QueryService::QueryService(net::NodeHost* host, storage::StorageService* storage,
                           std::shared_ptr<storage::SnapshotBoard> board)
    : host_(host), storage_(storage), board_(std::move(board)) {
  host_->Register(net::ServiceId::kQuery, this);
}

// ===========================================================================
// Initiator: Execute / dissemination / collection

void QueryService::Execute(const PhysicalPlan& plan, storage::Epoch epoch,
                           QueryOptions options, Callback cb) {
  Status valid = plan.Validate();
  if (!valid.ok()) {
    cb(valid, {});
    return;
  }

  auto root = std::make_unique<Root>();
  root->query_id =
      (static_cast<uint64_t>(node()) << kQueryInitiatorShift) | next_query_seq_++;
  root->plan = plan;
  root->epoch = epoch;
  root->options = options;
  root->snapshot = board_->current;
  root->table = root->snapshot;
  root->cb = std::move(cb);
  root->started_at = host_->network()->simulator()->now();
  size_t bits = 0;
  for (const auto& m : root->snapshot.members()) {
    bits = std::max<size_t>(bits, m.node + 1);
  }
  root->failed_bits = DynamicBitset(bits);
  uint64_t qid = root->query_id;
  Root& ref = *root;
  roots_[qid] = std::move(root);

  // Resolve every scan's coordinator record at the chosen epoch; this is what
  // pins the query to one consistent version of the database (§IV).
  auto scan_ids = ref.plan.ScanOpIds();
  if (scan_ids.empty()) {
    FinishRoot(ref, Status::InvalidArgument("plan has no scans"));
    return;
  }
  auto remaining = std::make_shared<size_t>(scan_ids.size());
  auto failed = std::make_shared<Status>();
  for (int32_t op : scan_ids) {
    const std::string& rel = ref.plan.op(op).relation;
    storage_->GetCoordinator(
        rel, epoch,
        [this, qid, op, remaining, failed](Status st, storage::CoordinatorRecord rec) {
          Root* live = FindRoot(qid);
          if (live == nullptr) return;
          if (!st.ok() && failed->ok()) *failed = st;
          if (st.ok()) live->bindings[op] = std::move(rec);
          if (--*remaining == 0) {
            if (!failed->ok()) {
              FinishRoot(*live, *failed);
              return;
            }
            DisseminatePlan(*live);
          }
        });
  }
}

void QueryService::DisseminatePlan(Root& root) {
  Writer w;
  w.PutU64(root.query_id);
  w.PutU32(node());
  w.PutVarint64(root.epoch);
  w.PutBool(root.options.provenance);
  w.PutVarint32(root.options.block_rows);
  root.table.EncodeTo(&w);
  root.plan.EncodeTo(&w);
  w.PutVarint32(static_cast<uint32_t>(root.bindings.size()));
  for (const auto& [op, rec] : root.bindings) {
    w.PutVarint32(static_cast<uint32_t>(op));
    rec.EncodeTo(&w);
  }
  std::string payload = w.Release();
  for (net::NodeId m : LiveMembers(root)) {
    SendTo(m, kPlan, payload);
  }
  if (root.options.enable_ping && !root.ping_timer_armed) {
    root.ping_timer_armed = true;
    uint64_t qid = root.query_id;
    host_->network()->RunOnNode(
        node(), host_->network()->simulator()->now() + root.options.ping_interval_us,
        [this, qid] { PingTick(qid); });
  }
}

std::vector<net::NodeId> QueryService::LiveMembers(const Root& root) const {
  std::vector<net::NodeId> live;
  for (const auto& m : root.table.members()) live.push_back(m.node);
  return live;
}

std::vector<net::NodeId> QueryService::LiveMembers(const Exec& ex) const {
  std::vector<net::NodeId> live;
  for (const auto& m : ex.table.members()) live.push_back(m.node);
  return live;
}

void QueryService::HandleShipBlock(net::NodeId /*from*/, const std::string& payload) {
  TupleBlock block;
  if (!TupleBlock::Decode(payload, &block).ok()) return;
  Root* root = FindRoot(block.query_id);
  if (root == nullptr) return;
  ChargeBlockCosts(block);
  for (BlockRow& row : block.rows) {
    if (row.taint.Intersects(root->failed_bits)) {
      counters_.rows_dropped_tainted += 1;
      continue;
    }
    root->results.push_back(std::move(row));
  }
}

void QueryService::HandleShipEos(net::NodeId from, Reader* r) {
  uint64_t qid;
  uint32_t phase;
  if (!r->GetU64(&qid).ok() || !r->GetVarint32(&phase).ok()) return;
  Root* root = FindRoot(qid);
  if (root == nullptr) return;
  uint32_t& cur = root->ship_eos_phase[from];
  cur = std::max(cur, phase);
  CheckRootDone(*root);
}

void QueryService::CheckRootDone(Root& root) {
  for (net::NodeId m : LiveMembers(root)) {
    auto it = root.ship_eos_phase.find(m);
    if (it == root.ship_eos_phase.end() || it->second < root.phase) return;
  }
  FinishRoot(root, Status::OK());
}

void QueryService::FinishRoot(Root& root, Status st) {
  uint64_t qid = root.query_id;
  QueryResult result;
  if (st.ok()) {
    std::vector<Tuple> raw;
    raw.reserve(root.results.size());
    for (BlockRow& r : root.results) raw.push_back(std::move(r.tuple));
    result.rows = root.plan.final_stage.Apply(raw);
  }
  result.execution_us = host_->network()->simulator()->now() - root.started_at;
  result.recoveries = root.recoveries;
  result.restarts = root.restarts;
  result.failures_handled = root.failed;

  // Tell workers to GC their per-query state.
  Writer w;
  w.PutU64(qid);
  for (net::NodeId m : LiveMembers(root)) SendTo(m, kAbort, w.data());

  Callback cb = std::move(root.cb);
  roots_.erase(qid);
  MarkAborted(qid);
  cb(st, std::move(result));
}

void QueryService::HandleSuspect(Root& root, net::NodeId suspect) {
  if (!root.table.Contains(suspect)) return;
  if (std::find(root.failed.begin(), root.failed.end(), suspect) != root.failed.end()) {
    return;
  }
  root.failed.push_back(suspect);
  if (suspect < root.failed_bits.size()) root.failed_bits.Set(suspect);

  switch (root.options.recovery) {
    case QueryOptions::RecoveryMode::kNone:
      FinishRoot(root, Status::Unavailable("node failed during query"));
      return;

    case QueryOptions::RecoveryMode::kRestart: {
      // Abort everywhere and run the whole query again over the remaining
      // nodes — same routing-table derivation as incremental recovery (§VI-E).
      root.restarts += 1;
      Writer w;
      w.PutU64(root.query_id);
      root.table = root.table.ReassignFailed({suspect}, storage_->replication(),
                                             root.table.version() + 1);
      for (net::NodeId m : LiveMembers(root)) SendTo(m, kAbort, w.data());
      MarkAborted(root.query_id);

      uint64_t old_id = root.query_id;
      uint64_t new_id =
          (static_cast<uint64_t>(node()) << kQueryInitiatorShift) | next_query_seq_++;
      auto node_handle = roots_.extract(old_id);
      node_handle.key() = new_id;
      roots_.insert(std::move(node_handle));
      Root& fresh = *roots_[new_id];
      fresh.query_id = new_id;
      fresh.phase = 0;
      fresh.results.clear();
      fresh.ship_eos_phase.clear();
      // The old ping timer dies with the old query id; let DisseminatePlan
      // arm a fresh one for the new id.
      fresh.ping_timer_armed = false;
      DisseminatePlan(fresh);
      return;
    }

    case QueryOptions::RecoveryMode::kIncremental: {
      // §V-D stage 1: reassign the failed ranges among live replicas.
      root.recoveries += 1;
      root.phase += 1;
      root.table = root.table.ReassignFailed({suspect}, storage_->replication(),
                                             root.table.version() + 1);
      // Purge tainted rows already collected.
      auto& results = root.results;
      results.erase(std::remove_if(results.begin(), results.end(),
                                   [&root](const BlockRow& r) {
                                     return r.taint.Intersects(root.failed_bits);
                                   }),
                    results.end());
      Writer w;
      w.PutU64(root.query_id);
      w.PutVarint32(root.phase);
      w.PutVarint32(static_cast<uint32_t>(root.failed.size()));
      for (net::NodeId f : root.failed) w.PutU32(f);
      root.table.EncodeTo(&w);
      for (net::NodeId m : LiveMembers(root)) SendTo(m, kRecover, w.data());
      return;
    }
  }
}

void QueryService::PingTick(uint64_t query_id) {
  Root* root = FindRoot(query_id);
  if (root == nullptr) return;
  root->ping_round += 1;
  Writer w;
  w.PutU64(query_id);
  w.PutU64(root->ping_round);
  std::vector<net::NodeId> suspects;
  for (net::NodeId m : LiveMembers(*root)) {
    if (m == node()) continue;
    SendTo(m, kPing, w.data());
    uint64_t last = root->last_pong_round.count(m) ? root->last_pong_round[m] : 0;
    if (root->ping_round > last &&
        root->ping_round - last >
            static_cast<uint64_t>(root->options.ping_miss_threshold)) {
      suspects.push_back(m);
    }
  }
  for (net::NodeId s : suspects) {
    Root* again = FindRoot(query_id);
    if (again == nullptr) return;
    HandleSuspect(*again, s);
  }
  // HandleSuspect may have finished (or restarted) the query; `root` is only
  // valid if the id still resolves.
  if (Root* live = FindRoot(query_id)) {
    host_->network()->RunOnNode(
        node(),
        host_->network()->simulator()->now() + live->options.ping_interval_us,
        [this, query_id] { PingTick(query_id); });
  }
}

// ===========================================================================
// Message dispatch

void QueryService::OnMessage(net::NodeId from, uint16_t code,
                             const std::string& payload) {
  Reader r(payload);
  switch (code) {
    case kPlan:
      HandlePlan(from, payload);
      return;
    case kDataBlock:
      HandleDataBlock(from, payload);
      return;
    case kBlockAck:
      HandleBlockAck(from, &r);
      return;
    case kEosMarker:
      HandleEosMarker(from, &r);
      return;
    case kScanPartDone:
      HandleScanPartDone(from, &r);
      return;
    case kQueryFetch:
      HandleQueryFetch(from, &r);
      return;
    case kShipBlock:
      HandleShipBlock(from, payload);
      return;
    case kShipEos:
      HandleShipEos(from, &r);
      return;
    case kNodeSuspect: {
      uint64_t qid;
      uint32_t suspect;
      if (!r.GetU64(&qid).ok() || !r.GetU32(&suspect).ok()) return;
      if (Root* root = FindRoot(qid)) HandleSuspect(*root, suspect);
      return;
    }
    case kRecover:
      HandleRecover(from, payload);
      return;
    case kAbort:
      HandleAbort(&r);
      return;
    case kPing: {
      uint64_t qid, round;
      if (!r.GetU64(&qid).ok() || !r.GetU64(&round).ok()) return;
      Writer w;
      w.PutU64(qid);
      w.PutU64(round);
      SendTo(from, kPong, w.Release());
      return;
    }
    case kPong: {
      uint64_t qid, round;
      if (!r.GetU64(&qid).ok() || !r.GetU64(&round).ok()) return;
      if (Root* root = FindRoot(qid)) {
        uint64_t& last = root->last_pong_round[from];
        last = std::max(last, round);
      }
      return;
    }
  }
}

void QueryService::OnConnectionDrop(net::NodeId peer) {
  dropped_peers_.insert(peer);
  // Buffered pre-plan messages that can never be replayed are released now
  // instead of being held for the deployment's lifetime: everything buffered
  // for a query whose initiator died (its kPlan will never arrive), and
  // everything the failed peer itself sent.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if ((it->first >> kQueryInitiatorShift) == peer) {
      // Mark it aborted too: peers that have not yet observed the drop keep
      // shipping blocks for this query, and they must not be re-buffered.
      MarkAborted(it->first);
      it = pending_.erase(it);
      continue;
    }
    auto& msgs = it->second;
    msgs.erase(std::remove_if(msgs.begin(), msgs.end(),
                              [peer](const auto& m) { return std::get<0>(m) == peer; }),
               msgs.end());
    if (msgs.empty()) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  // Initiator: direct detection via the dropped TCP connection (§V-A).
  std::vector<uint64_t> root_ids;
  for (auto& [qid, root] : roots_) root_ids.push_back(qid);
  for (uint64_t qid : root_ids) {
    if (Root* root = FindRoot(qid)) HandleSuspect(*root, peer);
  }
  // Worker: report upstream failures to the query initiator (§V-C), or give
  // up if the initiator itself died.
  std::vector<uint64_t> exec_ids;
  for (auto& [qid, ex] : execs_) exec_ids.push_back(qid);
  for (uint64_t qid : exec_ids) {
    Exec* ex = FindExec(qid);
    if (ex == nullptr) continue;
    if (ex->initiator == peer) {
      execs_.erase(qid);
      MarkAborted(qid);
      continue;
    }
    if (ex->initiator == node()) continue;  // the Root path handles it
    if (ex->table.Contains(peer)) {
      Writer w;
      w.PutU64(qid);
      w.PutU32(peer);
      SendTo(ex->initiator, kNodeSuspect, w.Release());
    }
  }
}

QueryService::Exec* QueryService::FindExec(uint64_t query_id) {
  auto it = execs_.find(query_id);
  return it == execs_.end() ? nullptr : it->second.get();
}

QueryService::Root* QueryService::FindRoot(uint64_t query_id) {
  auto it = roots_.find(query_id);
  return it == roots_.end() ? nullptr : it->second.get();
}

void QueryService::BufferPending(uint64_t query_id, net::NodeId from, uint16_t code,
                                 const std::string& payload) {
  if (aborted_.count(query_id)) return;
  // A query whose initiator's connection has dropped can never deliver its
  // plan here; messages for it (e.g. shuffle blocks from a worker that has
  // not yet observed the drop) would otherwise be buffered forever.
  auto initiator = static_cast<net::NodeId>(query_id >> kQueryInitiatorShift);
  if (dropped_peers_.count(initiator)) return;
  auto& vec = pending_[query_id];
  if (vec.size() < kMaxPendingPerQuery) vec.emplace_back(from, code, payload);
}

// ===========================================================================
// Worker: plan instantiation and scans

void QueryService::HandlePlan(net::NodeId /*from*/, const std::string& payload) {
  Reader r(payload);
  auto ex = std::make_unique<Exec>();
  uint64_t qid;
  if (!r.GetU64(&qid).ok()) return;
  ex->query_id = qid;
  uint32_t initiator;
  if (!r.GetU32(&initiator).ok()) return;
  ex->initiator = initiator;
  uint64_t epoch;
  if (!r.GetVarint64(&epoch).ok()) return;
  ex->epoch = epoch;
  if (!r.GetBool(&ex->provenance).ok()) return;
  if (!r.GetVarint32(&ex->block_rows).ok()) return;
  auto snap = overlay::RoutingSnapshot::Decode(&r);
  if (!snap.ok()) return;
  ex->snapshot = std::move(snap).value();
  ex->table = ex->snapshot;
  ex->prev_table = ex->snapshot;
  if (!PhysicalPlan::DecodeFrom(&r, &ex->plan).ok()) return;
  uint32_t n_bindings;
  if (!r.GetVarint32(&n_bindings).ok()) return;
  for (uint32_t i = 0; i < n_bindings; ++i) {
    uint32_t op;
    storage::CoordinatorRecord rec;
    if (!r.GetVarint32(&op).ok()) return;
    if (!storage::CoordinatorRecord::DecodeFrom(&r, &rec).ok()) return;
    ex->bindings[static_cast<int32_t>(op)] = std::move(rec);
  }

  // Execution context shared by this node's operator instances.
  size_t bits = 0;
  for (const auto& m : ex->snapshot.members()) bits = std::max<size_t>(bits, m.node + 1);
  ex->cx.self = node();
  ex->cx.taint_bits = ex->provenance ? bits : 0;
  ex->cx.phase = 0;
  ex->cx.failed = DynamicBitset(bits);
  ex->cx.costs = &host_->network()->costs();
  ex->cx.charge = [this](double us) { host_->network()->ChargeCpu(node(), us); };
  Exec* raw = ex.get();
  ex->cx.route = [this, raw](int32_t op, BlockRow row) {
    RouteRow(*raw, op, std::move(row), /*count_cache=*/true);
  };
  ex->cx.ship = [this, raw](BlockRow row) { ShipRow(*raw, std::move(row)); };
  ex->cx.rehash_child_eos = [this, raw](int32_t op) {
    RehashState& rs = raw->rehash[op];
    rs.child_eos = true;
    FlushAllRehash(*raw, op);
    TryBroadcastRehashEos(*raw, op);
  };
  ex->cx.ship_child_eos = [this, raw]() { OnShipChildEos(*raw); };

  // Instantiate operators and wire parents.
  ex->parents = ex->plan.ParentIds();
  ex->ops.resize(ex->plan.ops.size());
  for (const PhysOp& def : ex->plan.ops) {
    ex->ops[def.id] = MakeOperator(&ex->plan.ops[def.id], &ex->cx);
  }
  for (const PhysOp& def : ex->plan.ops) {
    for (size_t c = 0; c < def.children.size(); ++c) {
      ex->ops[def.children[c]]->SetParent(ex->ops[def.id].get(), c);
    }
  }
  for (const PhysOp& def : ex->plan.ops) {
    if (def.kind == OpKind::kRehash) ex->rehash[def.id];
  }

  execs_[qid] = std::move(ex);
  StartExec(*raw);

  // Replay any messages that raced ahead of the plan.
  auto pending = pending_.find(qid);
  if (pending != pending_.end()) {
    auto msgs = std::move(pending->second);
    pending_.erase(pending);
    for (auto& [pfrom, pcode, ppayload] : msgs) OnMessage(pfrom, pcode, ppayload);
  }
}

void QueryService::AssignScanPages(Exec& ex, int32_t scan_op,
                                   const overlay::RoutingSnapshot& table,
                                   std::deque<storage::PageDescriptor>* out) const {
  const PhysOp& op = ex.plan.op(scan_op);
  auto binding = ex.bindings.find(scan_op);
  if (binding == ex.bindings.end()) return;
  auto def = storage_->Relation(op.relation);
  bool replicated = def.ok() && def->replicate_everywhere;
  for (const storage::PageDescriptor& desc : binding->second.pages) {
    if (op.broadcast_local || replicated) {
      // Broadcast scans read the full local replica. Partitioned scans of a
      // replicate-everywhere relation also visit every page at every node:
      // each node injects exactly the tuples it owns by placement hash, so
      // the output is hash-partitioned without any network traffic.
      out->push_back(desc);
    } else if (table.OwnerOf(desc.home()) == node()) {
      out->push_back(desc);
    }
  }
}

void QueryService::StartExec(Exec& ex) {
  for (int32_t scan_op : ex.plan.ScanOpIds()) {
    ScanState& ss = ex.scans[scan_op];
    AssignScanPages(ex, scan_op, ex.table, &ss.pending_pages);
    if (ss.pending_pages.empty()) {
      FinishScanIteration(ex, scan_op);
    } else {
      ss.chain_running = true;
      uint64_t qid = ex.query_id;
      host_->network()->RunOnNode(node(), host_->network()->simulator()->now(),
                                  [this, qid, scan_op] {
                                    DriveScanChain(qid, scan_op);
                                  });
    }
  }
}

void QueryService::DriveScanChain(uint64_t query_id, int32_t scan_op) {
  Exec* ex = FindExec(query_id);
  if (ex == nullptr) return;
  ScanState& ss = ex->scans[scan_op];
  if (ss.pending_pages.empty() && ss.pending_partial.empty()) {
    ss.chain_running = false;
    FinishScanIteration(*ex, scan_op);
    return;
  }
  ScanMode mode =
      ss.pending_pages.empty() ? ScanMode::kFailedOwnersOnly : ScanMode::kFull;
  auto& queue =
      ss.pending_pages.empty() ? ss.pending_partial : ss.pending_pages;
  storage::PageDescriptor desc = queue.front();
  queue.pop_front();

  auto page = storage_->ReadPageLocal(desc.id);
  if (page.ok()) {
    ProcessPage(*ex, scan_op, page.value(), mode);
  } else {
    // Stale local replica: fetch the page from a peer (§IV — missing state is
    // fetched, never substituted with an older version).
    ss.async_outstanding += 1;
    storage_->GetPage(desc, [this, query_id, scan_op, mode](Status st,
                                                            storage::Page p) {
      Exec* ex2 = FindExec(query_id);
      if (ex2 == nullptr) return;
      ScanState& ss2 = ex2->scans[scan_op];
      ss2.async_outstanding -= 1;
      if (st.ok()) ProcessPage(*ex2, scan_op, p, mode);
      CheckScanEos(*ex2, scan_op);
    });
  }

  // Yield the node between pages so sends interleave and failures can land
  // mid-scan.
  host_->network()->RunOnNode(node(), host_->network()->simulator()->now(),
                              [this, query_id, scan_op] {
                                DriveScanChain(query_id, scan_op);
                              });
}

void QueryService::ProcessPage(Exec& ex, int32_t scan_op, const storage::Page& page,
                               ScanMode mode) {
  const PhysOp& op = ex.plan.op(scan_op);
  const auto& costs = host_->network()->costs();
  // An id participates in a partial rescan only if its data node (under the
  // previous routing table) failed: its spillover injections were purged and
  // its fetch requests died with the node.
  // Placement hashes ride in the page (page.hashes[i] belongs to ids[i]).
  auto prev_owner_failed = [&ex](const HashId& hash) {
    net::NodeId prev = ex.prev_table.OwnerOf(hash);
    return prev < ex.cx.failed.size() && ex.cx.failed.Test(prev);
  };

  if (op.kind == OpKind::kCoveringScan) {
    if (mode == ScanMode::kFailedOwnersOnly) return;  // index-only: no spillover
    // Key attributes come straight from the index page (Table I).
    auto def = storage_->Relation(op.relation);
    if (!def.ok()) return;
    ex.cx.charge(costs.index_entry_us * static_cast<double>(page.ids.size()));
    for (const storage::TupleId& id : page.ids) {
      if (!op.key_filter.Matches(id.key_bytes)) continue;
      Tuple key_vals;
      if (!storage::DecodeTupleKey(def->schema, id.key_bytes, &key_vals).ok()) continue;
      InjectScanRow(ex, scan_op, std::move(key_vals),
                    SingletonTaint(ex.cx.taint_bits, node()));
    }
    return;
  }

  auto def = storage_->Relation(op.relation);
  if (!def.ok()) return;
  bool broadcast = op.broadcast_local;
  bool replicated = def->replicate_everywhere;
  // True broadcast scans contribute identical local state at every node;
  // nothing is lost when a node fails, so no partial rescan is needed.
  if (mode == ScanMode::kFailedOwnersOnly && broadcast) return;

  // Split the page's ids into locally-owned and remote (Algorithm 1 line 8 /
  // Table I distributed scan): remote tuples are pushed into the plan at
  // their data storage node. Ownership routes on the page-carried hashes.
  storage::Page local_part;
  local_part.desc = page.desc;
  auto take_local = [&local_part, &page](size_t i) {
    local_part.ids.push_back(page.ids[i]);
    local_part.hashes.push_back(page.hashes[i]);
  };
  std::map<net::NodeId, std::vector<size_t>> remote;
  for (size_t i = 0; i < page.ids.size(); ++i) {
    const storage::TupleId& id = page.ids[i];
    if (!op.key_filter.Matches(id.key_bytes)) continue;
    if (mode == ScanMode::kFailedOwnersOnly && !prev_owner_failed(page.hashes[i])) {
      continue;
    }
    if (broadcast) {
      take_local(i);
      continue;
    }
    net::NodeId owner = ex.table.OwnerOf(page.hashes[i]);
    if (replicated) {
      // Every node holds the data; the hash owner injects, others skip.
      if (owner == node()) take_local(i);
      continue;
    }
    if (owner == node()) {
      take_local(i);
    } else if (owner < ex.cx.failed.size() && ex.cx.failed.Test(owner)) {
      // Data owner already failed under this table: read from local replica
      // or fetch from another replica.
      take_local(i);
    } else {
      remote[owner].push_back(i);
    }
  }

  ScanState& ss = ex.scans[scan_op];
  std::vector<storage::TupleId> missing;
  if (!local_part.ids.empty()) {
    // (Partial rescans often have nothing local in a page; skipping the
    // ordered pass keeps recovery's fixed cost proportional to lost data.)
    storage_->ScanPageLocal(
        op.relation, local_part, op.key_filter,
        [this, &ex, scan_op](const storage::TupleId& /*id*/, Tuple t) {
          InjectScanRow(ex, scan_op, std::move(t),
                        SingletonTaint(ex.cx.taint_bits, node()));
        },
        &missing).ok();
  }
  for (const storage::TupleId& id : missing) {
    ss.async_outstanding += 1;
    uint64_t qid = ex.query_id;
    storage_->FetchTuple(op.relation, id, [this, qid, scan_op](Status st, Tuple t) {
      Exec* ex2 = FindExec(qid);
      if (ex2 == nullptr) return;
      ScanState& ss2 = ex2->scans[scan_op];
      ss2.async_outstanding -= 1;
      if (st.ok()) {
        InjectScanRow(*ex2, scan_op, std::move(t),
                      SingletonTaint(ex2->cx.taint_bits, node()));
      }
      CheckScanEos(*ex2, scan_op);
    });
  }

  std::string hb;  // reused 20-byte scratch: no per-id allocation
  for (auto& [owner, idxs] : remote) {
    Writer w;
    w.PutU64(ex.query_id);
    w.PutVarint32(static_cast<uint32_t>(scan_op));
    w.PutVarint32(ex.cx.phase);
    w.PutString(op.relation);
    w.PutVarint64(idxs.size());
    for (size_t i : idxs) {
      // hash(20B BE) + TupleId, so the data node reads without SHA-1.
      hb.clear();
      page.hashes[i].AppendBigEndian(&hb);
      w.PutRaw(hb.data(), hb.size());
      page.ids[i].EncodeTo(&w);
    }
    SendTo(owner, kQueryFetch, w.Release());
  }
}

void QueryService::InjectScanRow(Exec& ex, int32_t scan_op, Tuple tuple,
                                 DynamicBitset taint) {
  if (ex.cx.taint_bits > 0 && taint.Intersects(ex.cx.failed)) {
    counters_.rows_dropped_tainted += 1;
    return;
  }
  BlockRow row;
  row.tuple = std::move(tuple);
  row.taint = std::move(taint);
  static_cast<ScanOp*>(ex.ops[scan_op].get())->Inject(std::move(row));
}

void QueryService::HandleQueryFetch(net::NodeId from, Reader* r) {
  uint64_t qid;
  uint32_t scan_op, phase;
  std::string rel;
  uint64_t n;
  if (!r->GetU64(&qid).ok() || !r->GetVarint32(&scan_op).ok() ||
      !r->GetVarint32(&phase).ok() || !r->GetString(&rel).ok() ||
      !r->GetVarint64(&n).ok()) {
    return;
  }
  Exec* ex = FindExec(qid);
  if (ex == nullptr) {
    // Cannot replay a partially-consumed reader; rebuild payload.
    Writer w;
    w.PutU64(qid);
    w.PutVarint32(scan_op);
    w.PutVarint32(phase);
    w.PutString(rel);
    w.PutVarint64(n);
    for (uint64_t i = 0; i < n; ++i) {
      std::string_view hash_be20;
      storage::TupleId id;
      if (!r->GetRawView(&hash_be20, 20).ok() ||
          !storage::TupleId::DecodeFrom(r, &id).ok()) {
        return;
      }
      w.PutRaw(hash_be20.data(), hash_be20.size());
      id.EncodeTo(&w);
    }
    BufferPending(qid, from, kQueryFetch, w.Release());
    return;
  }
  const auto& costs = host_->network()->costs();
  DynamicBitset taint(ex->cx.taint_bits);
  if (ex->cx.taint_bits > 0) {
    if (from < ex->cx.taint_bits) taint.Set(from);
    if (node() < ex->cx.taint_bits) taint.Set(node());
  }
  for (uint64_t i = 0; i < n; ++i) {
    std::string_view hash_be20;
    storage::TupleId id;
    if (!r->GetRawView(&hash_be20, 20).ok() ||
        !storage::TupleId::DecodeFrom(r, &id).ok()) {
      return;
    }
    // The wire-carried hash keys the local read directly (no SHA-1).
    auto bytes = storage_->ReadTupleBytesRaw(rel, hash_be20, id.key_bytes, id.epoch);
    Tuple t;
    bool ok = bytes.ok();
    if (ok) {
      Reader tr(bytes.value());
      ok = storage::DecodeTuple(&tr, &t).ok();
    }
    ex->cx.charge(costs.tuple_scan_us);
    if (ok) {
      InjectScanRow(*ex, static_cast<int32_t>(scan_op), std::move(t), taint);
    } else {
      ScanState& ss = ex->scans[static_cast<int32_t>(scan_op)];
      ss.async_outstanding += 1;
      storage_->FetchTuple(rel, id, [this, qid, scan_op, taint](Status st, Tuple t2) {
        Exec* ex2 = FindExec(qid);
        if (ex2 == nullptr) return;
        ScanState& ss2 = ex2->scans[static_cast<int32_t>(scan_op)];
        ss2.async_outstanding -= 1;
        if (st.ok()) {
          InjectScanRow(*ex2, static_cast<int32_t>(scan_op), std::move(t2), taint);
        }
        CheckScanEos(*ex2, static_cast<int32_t>(scan_op));
      });
    }
  }
}

void QueryService::FinishScanIteration(Exec& ex, int32_t scan_op) {
  ScanState& ss = ex.scans[scan_op];
  ss.iteration_done = true;
  if (!ss.part_done_broadcast) {
    ss.part_done_broadcast = true;
    Writer w;
    w.PutU64(ex.query_id);
    w.PutVarint32(static_cast<uint32_t>(scan_op));
    w.PutVarint32(ex.cx.phase);
    for (net::NodeId m : LiveMembers(ex)) SendTo(m, kScanPartDone, w.data());
  }
  CheckScanEos(ex, scan_op);
}

void QueryService::HandleScanPartDone(net::NodeId from, Reader* r) {
  uint64_t qid;
  uint32_t scan_op, phase;
  if (!r->GetU64(&qid).ok() || !r->GetVarint32(&scan_op).ok() ||
      !r->GetVarint32(&phase).ok()) {
    return;
  }
  Exec* ex = FindExec(qid);
  if (ex == nullptr) {
    Writer w;
    w.PutU64(qid);
    w.PutVarint32(scan_op);
    w.PutVarint32(phase);
    BufferPending(qid, from, kScanPartDone, w.Release());
    return;
  }
  ScanState& ss = ex->scans[static_cast<int32_t>(scan_op)];
  uint32_t& cur = ss.part_done_phase[from];
  cur = std::max(cur, phase);
  CheckScanEos(*ex, static_cast<int32_t>(scan_op));
}

void QueryService::CheckScanEos(Exec& ex, int32_t scan_op) {
  ScanState& ss = ex.scans[scan_op];
  if (!ss.iteration_done || ss.async_outstanding > 0) return;
  auto* scan = static_cast<ScanOp*>(ex.ops[scan_op].get());
  if (scan->eos_propagated()) return;
  // Scan barrier: every live node has finished its part for this phase, so
  // no more spillover fetches can arrive (FIFO delivery makes this safe).
  for (net::NodeId m : LiveMembers(ex)) {
    auto it = ss.part_done_phase.find(m);
    if (it == ss.part_done_phase.end() || it->second < ex.cx.phase) return;
  }
  scan->SignalEos();
}

// ===========================================================================
// Worker: rehash / ship dataflow

void QueryService::RouteRow(Exec& ex, int32_t rehash_op, BlockRow row,
                            bool count_cache) {
  const PhysOp& op = ex.plan.op(rehash_op);
  net::NodeId dest = ex.table.OwnerOf(RowHash(row.tuple, op.hash_cols));
  counters_.rows_routed += 1;
  RehashState& rs = ex.rehash[rehash_op];
  if (count_cache && ex.provenance) {
    // Output caching + provenance bookkeeping are the recovery-support
    // overhead the paper measures in §VI-E.
    ex.cx.charge(ex.cx.costs->provenance_tag_us);
    rs.cache.push_back(RehashState::CacheEntry{row, dest});
  }
  auto& buf = rs.buffers[dest];
  buf.push_back(std::move(row));
  if (buf.size() >= ex.block_rows) FlushRehash(ex, rehash_op, dest);
}

void QueryService::FlushRehash(Exec& ex, int32_t rehash_op, net::NodeId dest) {
  RehashState& rs = ex.rehash[rehash_op];
  auto it = rs.buffers.find(dest);
  if (it == rs.buffers.end() || it->second.empty()) return;
  TupleBlock block;
  block.query_id = ex.query_id;
  block.dest_op = rehash_op;
  block.phase = ex.cx.phase;
  block.seq = rs.next_seq[dest]++;
  block.sender = node();
  block.rows = std::move(it->second);
  it->second.clear();
  rs.unacked[dest].insert(block.seq);
  ChargeBlockCosts(block);
  counters_.blocks_sent += 1;
  SendTo(dest, kDataBlock, block.Encode());
}

void QueryService::FlushAllRehash(Exec& ex, int32_t rehash_op) {
  RehashState& rs = ex.rehash[rehash_op];
  std::vector<net::NodeId> dests;
  for (auto& [dest, buf] : rs.buffers) {
    if (!buf.empty()) dests.push_back(dest);
  }
  for (net::NodeId d : dests) FlushRehash(ex, rehash_op, d);
}

void QueryService::TryBroadcastRehashEos(Exec& ex, int32_t rehash_op) {
  RehashState& rs = ex.rehash[rehash_op];
  if (!rs.child_eos || rs.eos_broadcast) return;
  for (const auto& [dest, unacked] : rs.unacked) {
    if (!unacked.empty()) return;  // EOS only after all data acked (§V-B)
  }
  rs.eos_broadcast = true;
  Writer w;
  w.PutU64(ex.query_id);
  w.PutVarint32(static_cast<uint32_t>(rehash_op));
  w.PutVarint32(ex.cx.phase);
  for (net::NodeId m : LiveMembers(ex)) SendTo(m, kEosMarker, w.data());
}

void QueryService::HandleDataBlock(net::NodeId from, const std::string& payload) {
  TupleBlock block;
  if (!TupleBlock::Decode(payload, &block).ok()) return;
  Exec* ex = FindExec(block.query_id);
  if (ex == nullptr) {
    BufferPending(block.query_id, from, kDataBlock, payload);
    return;
  }
  ChargeBlockCosts(block);
  counters_.blocks_received += 1;

  int32_t parent_id = ex->parents[block.dest_op];
  ORC_CHECK(parent_id >= 0, "rehash without parent");
  Operator* parent = ex->ops[parent_id].get();
  size_t child_idx = 0;
  const auto& siblings = ex->plan.op(parent_id).children;
  for (size_t i = 0; i < siblings.size(); ++i) {
    if (siblings[i] == block.dest_op) child_idx = i;
  }
  for (BlockRow& row : block.rows) {
    if (ex->cx.taint_bits > 0) {
      if (row.taint.size() != ex->cx.taint_bits) {
        DynamicBitset resized(ex->cx.taint_bits);
        for (size_t i = 0; i < row.taint.size() && i < ex->cx.taint_bits; ++i) {
          if (row.taint.Test(i)) resized.Set(i);
        }
        row.taint = std::move(resized);
      }
      row.taint.Set(node());
      ex->cx.charge(ex->cx.costs->provenance_tag_us);
      if (row.taint.Intersects(ex->cx.failed)) {
        counters_.rows_dropped_tainted += 1;
        continue;
      }
    }
    parent->Consume(child_idx, std::move(row));
  }

  Writer w;
  w.PutU64(ex->query_id);
  w.PutVarint32(static_cast<uint32_t>(block.dest_op));
  w.PutVarint32(block.seq);
  SendTo(from, kBlockAck, w.Release());
}

void QueryService::HandleBlockAck(net::NodeId from, Reader* r) {
  uint64_t qid;
  uint32_t op, seq;
  if (!r->GetU64(&qid).ok() || !r->GetVarint32(&op).ok() || !r->GetVarint32(&seq).ok()) {
    return;
  }
  Exec* ex = FindExec(qid);
  if (ex == nullptr) return;
  RehashState& rs = ex->rehash[static_cast<int32_t>(op)];
  rs.unacked[from].erase(seq);
  TryBroadcastRehashEos(*ex, static_cast<int32_t>(op));
}

void QueryService::HandleEosMarker(net::NodeId from, Reader* r) {
  uint64_t qid;
  uint32_t op, phase;
  if (!r->GetU64(&qid).ok() || !r->GetVarint32(&op).ok() ||
      !r->GetVarint32(&phase).ok()) {
    return;
  }
  Exec* ex = FindExec(qid);
  if (ex == nullptr) {
    Writer w;
    w.PutU64(qid);
    w.PutVarint32(op);
    w.PutVarint32(phase);
    BufferPending(qid, from, kEosMarker, w.Release());
    return;
  }
  auto& marks = ex->eos_from[static_cast<int32_t>(op)];
  uint32_t& cur = marks[from];
  cur = std::max(cur, phase);
  CheckNetEos(*ex, static_cast<int32_t>(op));
}

void QueryService::CheckNetEos(Exec& ex, int32_t op) {
  if (ex.net_eos_delivered[op]) return;
  const auto& marks = ex.eos_from[op];
  for (net::NodeId m : LiveMembers(ex)) {
    auto it = marks.find(m);
    if (it == marks.end() || it->second < ex.cx.phase) return;
  }
  ex.net_eos_delivered[op] = true;
  int32_t parent_id = ex.parents[op];
  const auto& siblings = ex.plan.op(parent_id).children;
  size_t child_idx = 0;
  for (size_t i = 0; i < siblings.size(); ++i) {
    if (siblings[i] == op) child_idx = i;
  }
  ex.ops[parent_id]->OnChildEos(child_idx);
}

void QueryService::ShipRow(Exec& ex, BlockRow row) {
  counters_.rows_shipped += 1;
  ex.ship_buffer.push_back(std::move(row));
  if (ex.ship_buffer.size() >= ex.block_rows) FlushShip(ex);
}

void QueryService::FlushShip(Exec& ex) {
  if (ex.ship_buffer.empty()) return;
  TupleBlock block;
  block.query_id = ex.query_id;
  block.dest_op = ex.plan.root;
  block.phase = ex.cx.phase;
  block.seq = ex.ship_seq++;
  block.sender = node();
  block.rows = std::move(ex.ship_buffer);
  ex.ship_buffer.clear();
  ChargeBlockCosts(block);
  counters_.blocks_sent += 1;
  SendTo(ex.initiator, kShipBlock, block.Encode());
}

void QueryService::OnShipChildEos(Exec& ex) {
  if (ex.ship_eos_sent) return;
  ex.ship_eos_sent = true;
  FlushShip(ex);
  Writer w;
  w.PutU64(ex.query_id);
  w.PutVarint32(ex.cx.phase);
  SendTo(ex.initiator, kShipEos, w.Release());
}

// ===========================================================================
// Worker: recovery (§V-D stages 2-4) and teardown

void QueryService::HandleRecover(net::NodeId from, const std::string& payload) {
  Reader r(payload);
  uint64_t qid;
  uint32_t phase, n_failed;
  if (!r.GetU64(&qid).ok() || !r.GetVarint32(&phase).ok() ||
      !r.GetVarint32(&n_failed).ok()) {
    return;
  }
  std::vector<net::NodeId> failed(n_failed);
  for (auto& f : failed) {
    if (!r.GetU32(&f).ok()) return;
  }
  auto table = overlay::RoutingSnapshot::Decode(&r);
  if (!table.ok()) return;

  Exec* ex = FindExec(qid);
  if (ex == nullptr) {
    BufferPending(qid, from, kRecover, payload);
    return;
  }
  if (phase <= ex->cx.phase) return;  // stale / duplicate

  ex->prev_table = ex->table;
  const overlay::RoutingSnapshot& prev_table = ex->prev_table;
  ex->table = std::move(table).value();
  ex->cx.phase = phase;
  for (net::NodeId f : failed) {
    if (f < ex->cx.failed.size()) ex->cx.failed.Set(f);
  }

  // Stage 2: drop all state derived from the failed nodes.
  for (auto& op : ex->ops) op->PurgeTainted();
  for (auto& [op_id, rs] : ex->rehash) {
    rs.cache.erase(std::remove_if(rs.cache.begin(), rs.cache.end(),
                                  [ex](const RehashState::CacheEntry& e) {
                                    return e.row.taint.Intersects(ex->cx.failed);
                                  }),
                   rs.cache.end());
    for (auto& [dest, buf] : rs.buffers) {
      buf.erase(std::remove_if(buf.begin(), buf.end(),
                               [ex](const BlockRow& b) {
                                 return b.taint.Intersects(ex->cx.failed);
                               }),
                buf.end());
    }
    for (net::NodeId f : failed) {
      rs.unacked.erase(f);
      // Unflushed rows routed to a failed node are superseded by the cache
      // resend below (stage 4); flushing them later would wait forever for
      // an ack from a dead node.
      rs.buffers.erase(f);
    }
    rs.child_eos = false;
    rs.eos_broadcast = false;
  }
  ex->ship_buffer.erase(std::remove_if(ex->ship_buffer.begin(), ex->ship_buffer.end(),
                                       [ex](const BlockRow& b) {
                                         return b.taint.Intersects(ex->cx.failed);
                                       }),
                        ex->ship_buffer.end());
  ex->ship_eos_sent = false;

  // Re-arm EOS bookkeeping for the new phase; the EOS wave re-runs.
  for (auto& op : ex->ops) op->ResetForPhase();
  ex->net_eos_delivered.clear();

  // Stage 4: re-create data that was sent to the failed nodes' ranges, now
  // routed under the new table.
  for (auto& [op_id, rs] : ex->rehash) {
    for (auto& entry : rs.cache) {
      bool to_failed = std::find(failed.begin(), failed.end(), entry.dest) !=
                       failed.end();
      if (!to_failed) continue;
      const PhysOp& op = ex->plan.op(op_id);
      entry.dest = ex->table.OwnerOf(RowHash(entry.row.tuple, op.hash_cols));
      rs.buffers[entry.dest].push_back(entry.row);
      counters_.cache_rows_resent += 1;
      if (rs.buffers[entry.dest].size() >= ex->block_rows) {
        FlushRehash(*ex, op_id, entry.dest);
      }
    }
  }

  // Stage 3: restart leaf scans for the hash ranges inherited from the
  // failed nodes.
  for (int32_t scan_op : ex->plan.ScanOpIds()) {
    ScanState& ss = ex->scans[scan_op];
    ss.part_done_broadcast = false;
    ss.iteration_done = false;

    std::deque<storage::PageDescriptor> prev_pages, new_pages;
    AssignScanPages(*ex, scan_op, prev_table, &prev_pages);
    AssignScanPages(*ex, scan_op, ex->table, &new_pages);
    auto was_mine = [&prev_pages](const storage::PageDescriptor& d) {
      for (const auto& p : prev_pages) {
        if (p.id == d.id) return true;
      }
      return false;
    };
    for (const auto& d : new_pages) {
      if (!was_mine(d)) {
        ss.pending_pages.push_back(d);  // full rescan of inherited ranges
      } else {
        // Already scanned, but ids whose data node failed must be re-routed
        // (their pushed-into-plan copies were purged as tainted).
        ss.pending_partial.push_back(d);
      }
    }
    if (!ss.pending_pages.empty()) counters_.scans_restarted += 1;
    if (ss.pending_pages.empty() && ss.pending_partial.empty()) {
      FinishScanIteration(*ex, scan_op);
    } else if (!ss.chain_running) {
      ss.chain_running = true;
      host_->network()->RunOnNode(node(), host_->network()->simulator()->now(),
                                  [this, qid, scan_op] {
                                    DriveScanChain(qid, scan_op);
                                  });
    }
  }

  // EOS markers and part-done messages for the new phase may have overtaken
  // this recovery broadcast (they travel on different connections); re-check
  // every condition that would otherwise only fire on message arrival.
  for (const PhysOp& def : ex->plan.ops) {
    if (def.kind == OpKind::kRehash) CheckNetEos(*ex, def.id);
  }
}

void QueryService::HandleAbort(Reader* r) {
  uint64_t qid;
  if (!r->GetU64(&qid).ok()) return;
  execs_.erase(qid);
  pending_.erase(qid);
  MarkAborted(qid);
}

void QueryService::MarkAborted(uint64_t query_id) {
  // FIFO eviction: the set orders by id (initiator in the high bits), so
  // erasing *aborted_.begin() would evict by initiator number — possibly the
  // id just inserted — rather than the oldest record.
  if (aborted_.insert(query_id).second) aborted_order_.push_back(query_id);
  while (aborted_.size() > kMaxAbortedTracked) {
    aborted_.erase(aborted_order_.front());
    aborted_order_.pop_front();
  }
}

void QueryService::ChargeBlockCosts(const TupleBlock& block) {
  const auto& costs = host_->network()->costs();
  double kb = static_cast<double>(block.ApproxRawBytes()) / 1024.0;
  host_->network()->ChargeCpu(
      node(), costs.marshal_per_tuple_us * static_cast<double>(block.rows.size()) +
                  (costs.marshal_per_kb_us + costs.compress_per_kb_us) * kb);
}

}  // namespace orchestra::query
