#include "query/service.h"

#include <algorithm>

#include "common/log.h"
#include "net/rpc.h"

namespace orchestra::query {

namespace {
constexpr size_t kMaxPendingPerQuery = 4096;
constexpr size_t kMaxAbortedTracked = 1024;

// Query ids are (initiator << kQueryInitiatorShift) | sequence, so the
// initiator of any query is recoverable from the id alone.
constexpr int kQueryInitiatorShift = 40;

// A close that counts a frame which never arrived: delivery is in order per
// connection, so the frame was lost.
Status LostFrame() { return Status::Unavailable("a query frame was lost"); }
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
  root->table = board_->current;
  root->cb = std::move(cb);
  root->started_at = host_->network()->simulator()->now();
  size_t bits = 0;
  for (const auto& m : root->table.members()) {
    bits = std::max<size_t>(bits, m.node + 1);
  }
  root->failed_bits = DynamicBitset(bits);
  uint64_t qid = root->query_id;
  Root& ref = *root;
  roots_[qid] = std::move(root);
  // A simulator event, not a node task: a node task cannot be cancelled, and
  // would hold pending_events() above zero long after the query resolved.
  ref.deadline = host_->network()->simulator()->ScheduleAfter(
      kQueryDeadlineUs,
      [this, &ref] { FinishRoot(ref, Status::TimedOut("query deadline")); });

  // Resolve every scan's coordinator record at the chosen epoch; this is what
  // pins the query to one consistent version of the database (§IV).
  auto scan_ids = ref.plan.ScanOpIds();
  if (scan_ids.empty()) {
    FinishRoot(ref, Status::InvalidArgument("plan has no scans"));
    return;
  }
  using Bound = std::pair<int32_t, Result<storage::CoordinatorRecord>>;
  auto arrive = net::FanIn<Bound>(scan_ids.size(), [this, qid](std::vector<Bound> bound) {
    Root* live = FindRoot(qid);
    if (live == nullptr) return;
    for (auto& [op, rec] : bound) {
      if (!rec.ok()) {
        FinishRoot(*live, rec.status());
        return;
      }
      live->bindings[op] = std::move(rec).value();
    }
    DisseminatePlan(*live);
  });
  for (int32_t op : scan_ids) {
    storage_->GetCoordinator(ref.plan.op(op).relation, epoch,
                             [arrive, op](Status st, storage::CoordinatorRecord rec) {
                               arrive(st.ok() ? Bound(op, std::move(rec)) : Bound(op, st));
                             });
  }
}

void QueryService::DisseminatePlan(Root& root) {
  Writer w;
  w.PutU64(root.query_id);
  w.PutU32(node());
  w.PutVarint64(root.epoch);
  w.PutBool(root.options.provenance);
  root.table.EncodeTo(&w);
  root.plan.EncodeTo(&w);
  w.PutVarint32(static_cast<uint32_t>(root.bindings.size()));
  for (const auto& [op, rec] : root.bindings) {
    w.PutVarint32(static_cast<uint32_t>(op));
    rec.EncodeTo(&w);
  }
  std::string payload = w.Release();
  for (net::NodeId m : LiveMembers(root.table)) {
    SendTo(m, kPlan, payload);
  }
  if (root.options.ping_interval_us > 0 && !root.run.ping_timer_armed) {
    root.run.ping_timer_armed = true;
    uint64_t qid = root.query_id;
    host_->network()->RunOnNode(
        node(), host_->network()->simulator()->now() + root.options.ping_interval_us,
        [this, qid] { PingTick(qid); });
  }
}

std::vector<net::NodeId> QueryService::LiveMembers(
    const overlay::RoutingSnapshot& table) {
  std::vector<net::NodeId> live;
  for (const auto& m : table.members()) live.push_back(m.node);
  return live;
}

Status QueryService::HandleShipBlock(Root& root, Reader* body) {
  TupleBlock block;
  ORC_RETURN_IF_ERROR(TupleBlock::Decode(body->RemainingView(), &block));
  ChargeBlockCosts(block);
  for (BlockRow& row : block.rows) {
    if (row.taint.Intersects(root.failed_bits)) continue;
    root.run.results.push_back(std::move(row));
  }
  return Status::OK();
}

void QueryService::FinishRoot(Root& root, Status st) {
  host_->network()->simulator()->Cancel(root.deadline);
  uint64_t qid = root.query_id;
  QueryResult result;
  if (st.ok()) {
    std::vector<Tuple> raw;
    raw.reserve(root.run.results.size());
    for (BlockRow& r : root.run.results) raw.push_back(std::move(r.tuple));
    result.rows = root.plan.final_stage.Apply(raw);
  }
  result.execution_us = host_->network()->simulator()->now() - root.started_at;
  result.recoveries = root.recoveries;
  result.restarts = root.restarts;
  result.failures_handled = root.failed;

  // Tell workers to GC their per-query state.
  Writer w;
  w.PutU64(qid);
  for (net::NodeId m : LiveMembers(root.table)) SendTo(m, kAbort, w.data());

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
      root.table = root.table.ReassignFailed({suspect}, storage_->replication(),
                                             root.table.version() + 1);
      // Before the scan bindings arrive no worker holds the plan: Execute's
      // fan-in disseminates it over the new table, under the same id.
      if (root.bindings.empty()) return;
      Writer w;
      w.PutU64(root.query_id);
      for (net::NodeId m : LiveMembers(root.table)) SendTo(m, kAbort, w.data());
      MarkAborted(root.query_id);

      uint64_t new_id =
          (static_cast<uint64_t>(node()) << kQueryInitiatorShift) | next_query_seq_++;
      auto node_handle = roots_.extract(root.query_id);
      node_handle.key() = new_id;
      roots_.insert(std::move(node_handle));
      root.query_id = new_id;
      // The old ping timer dies with the old query id; the new run arms one
      // for the new id.
      root.run = {};
      DisseminatePlan(root);
      return;
    }

    case QueryOptions::RecoveryMode::kIncremental: {
      // §V-D stage 1: reassign the failed ranges among live replicas.
      root.recoveries += 1;
      root.run.phase += 1;
      root.table = root.table.ReassignFailed({suspect}, storage_->replication(),
                                             root.table.version() + 1);
      // Purge tainted rows already collected.
      auto& results = root.run.results;
      results.erase(std::remove_if(results.begin(), results.end(),
                                   [&root](const BlockRow& r) {
                                     return r.taint.Intersects(root.failed_bits);
                                   }),
                    results.end());
      Writer w;
      w.PutU64(root.query_id);
      w.PutVarint32(root.run.phase);
      w.PutVarint32(static_cast<uint32_t>(root.failed.size()));
      for (net::NodeId f : root.failed) w.PutU32(f);
      root.table.EncodeTo(&w);
      for (net::NodeId m : LiveMembers(root.table)) SendTo(m, kRecover, w.data());
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
  for (net::NodeId m : LiveMembers(root->table)) {
    if (m == node()) continue;
    SendTo(m, kPing, w.data());
    uint64_t last = root->last_pong_round.count(m) ? root->last_pong_round[m] : 0;
    if (root->ping_round > last &&
        root->ping_round - last > kPingMissThreshold) {
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
      HandlePlan(payload);
      return;
    case kDataBlock:
    case kQueryFetch:
    case kShipBlock:
      OnDataflowFrame(from, code, payload);
      return;
    case kRecover: {
      uint64_t qid;
      if (!r.GetU64(&qid).ok()) return;
      if (Exec* ex = FindExec(qid)) {
        HandleRecover(*ex, &r);
      } else {
        BufferPending(qid, from, code, payload);
      }
      return;
    }
    case kNodeSuspect: {
      uint64_t qid;
      uint32_t suspect;
      if (!r.GetU64(&qid).ok() || !r.GetU32(&suspect).ok()) return;
      if (Root* root = FindRoot(qid)) HandleSuspect(*root, suspect);
      return;
    }
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
    case kScanFailed: {
      uint64_t qid = 0;
      uint8_t st_code = 0;
      std::string st_msg;
      if (!r.GetU64(&qid).ok() || !r.GetU8(&st_code).ok() ||
          !r.GetString(&st_msg).ok()) {
        return;
      }
      Status st = net::MakeStatus(st_code, st_msg);
      Root* root = FindRoot(qid);
      if (root != nullptr && !st.ok()) FinishRoot(*root, st);
      return;
    }
  }
}

void QueryService::OnDataflowFrame(net::NodeId from, uint16_t code,
                                   const std::string& payload) {
  Reader r(payload);
  uint64_t qid = 0;
  uint32_t op = 0, phase = 0, end = 0;
  if (!r.GetU64(&qid).ok() || !r.GetVarint32(&op).ok() || !r.GetVarint32(&phase).ok() ||
      !r.GetVarint32(&end).ok()) {
    return;
  }
  // Only a closing frame may come without a body.
  const bool body = end == 0 || !r.AtEnd();
  if (code == kShipBlock) {
    Root* root = FindRoot(qid);
    if (root == nullptr || op != static_cast<uint32_t>(root->plan.root)) return;
    Barrier& eos = root->run.ship_eos;
    Status st = !eos.Arrive(from, phase, end) ? LostFrame()
                : body                        ? HandleShipBlock(*root, &r)
                                              : Status::OK();
    if (!st.ok()) {
      FinishRoot(*root, st);
    } else if (end > 0 && eos.Reached(LiveMembers(root->table), root->run.phase)) {
      FinishRoot(*root, Status::OK());
    }
    return;
  }
  Exec* ex = FindExec(qid);
  if (ex == nullptr) {
    BufferPending(qid, from, code, payload);
    return;
  }
  // A frame naming an operator the plan lacks, or one of the wrong kind, is
  // dropped.
  if (op >= ex->ops.size()) return;
  auto id = static_cast<int32_t>(op);
  OpKind kind = ex->plan.op(id).kind;
  bool is_scan = kind == OpKind::kScan || kind == OpKind::kCoveringScan;
  if (code == kQueryFetch ? !is_scan : kind != OpKind::kRehash) return;
  Status st = !ex->ops[id].eos.Arrive(from, phase, end) ? LostFrame()
              : !body                                   ? Status::OK()
              : code == kDataBlock                      ? HandleDataBlock(*ex, id, &r)
                                                        : HandleQueryFetch(*ex, from, id, &r);
  if (!st.ok()) {
    ReportScanFailure(*ex, st);
  } else if (end > 0) {
    CheckEos(*ex, id);
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
      ReleaseExec(qid);
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

void QueryService::HandlePlan(const std::string& payload) {
  Reader r(payload);
  auto ex = std::make_unique<Exec>();
  uint64_t qid;
  if (!r.GetU64(&qid).ok()) return;
  ex->query_id = qid;
  uint32_t initiator;
  if (!r.GetU32(&initiator).ok()) return;
  ex->initiator = initiator;
  uint64_t epoch = 0;  // pinned by the bindings below
  if (!r.GetVarint64(&epoch).ok()) return;
  if (!r.GetBool(&ex->provenance).ok()) return;
  auto snap = overlay::RoutingSnapshot::Decode(&r);
  if (!snap.ok()) return;
  ex->table = std::move(snap).value();
  ex->prev_table = ex->table;
  if (!PhysicalPlan::DecodeFrom(&r, &ex->plan).ok() || !ex->plan.Validate().ok()) {
    return;
  }
  ex->ops.resize(ex->plan.ops.size());
  uint32_t n_bindings = 0;
  if (!r.GetVarint32(&n_bindings).ok()) return;
  for (uint32_t i = 0; i < n_bindings; ++i) {
    uint32_t op = 0;
    if (!r.GetVarint32(&op).ok() || op >= ex->ops.size() ||
        !storage::CoordinatorRecord::DecodeFrom(&r, &ex->ops[op].binding).ok()) {
      return;
    }
  }

  // Execution context shared by this node's operator instances.
  size_t bits = 0;
  for (const auto& m : ex->table.members()) bits = std::max<size_t>(bits, m.node + 1);
  ex->cx.self = node();
  ex->cx.taint_bits = ex->provenance ? bits : 0;
  ex->own_taint = DynamicBitset(ex->cx.taint_bits);
  if (node() < ex->cx.taint_bits) ex->own_taint.Set(node());
  ex->cx.phase = 0;
  ex->cx.failed = DynamicBitset(bits);
  ex->cx.costs = &host_->network()->costs();
  ex->cx.charge = [this](double us) { host_->network()->ChargeCpu(node(), us); };
  Exec* raw = ex.get();
  ex->cx.route = [this, raw](int32_t op, BlockRow row) {
    RouteRow(*raw, op, std::move(row));
  };
  ex->cx.ship = [this, raw](BlockRow row) { ShipRow(*raw, std::move(row)); };
  ex->cx.send_eos = [this, raw](int32_t op) { SendEos(*raw, op); };

  // Instantiate operators and wire parents.
  for (const PhysOp& def : ex->plan.ops) {
    ex->ops[def.id].op = MakeOperator(&def, &ex->cx);
  }
  for (const PhysOp& def : ex->plan.ops) {
    for (size_t c = 0; c < def.children.size(); ++c) {
      ex->ops[def.children[c]].op->SetParent(ex->ops[def.id].op.get(), c);
    }
  }
  for (int32_t scan_op : ex->plan.ScanOpIds()) ScanOf(*ex, scan_op).FindShape();

  execs_[qid] = std::move(ex);
  // By then the root has resolved, even if its kAbort never arrives here.
  raw->deadline = host_->network()->simulator()->ScheduleAfter(
      kQueryDeadlineUs, [this, qid] { ReleaseExec(qid); });
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
  auto def = storage_->Relation(op.relation);
  bool replicated = def.ok() && def->replicate_everywhere;
  for (const storage::PageDescriptor& desc : ex.ops[scan_op].binding.pages) {
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

void QueryService::DeriveSpillPairs(Exec& ex, int32_t scan_op) const {
  OpRec& scan = ex.ops[scan_op];
  scan.spill_to.clear();
  scan.spill_from.clear();
  const PhysOp& op = ex.plan.op(scan_op);
  auto def = storage_->Relation(op.relation);
  if (op.kind == OpKind::kCoveringScan || op.broadcast_local || !def.ok() ||
      def->replicate_everywhere) {
    return;
  }
  std::set<net::NodeId> to, from;
  for (const storage::PageDescriptor& desc : scan.binding.pages) {
    net::NodeId scanner = ex.table.OwnerOf(desc.home());
    std::vector<net::NodeId> owners = ex.table.OwnersOf(desc.range_begin(), desc.range_end());
    if (scanner == node()) {
      to.insert(owners.begin(), owners.end());
    } else if (std::binary_search(owners.begin(), owners.end(), node())) {
      from.insert(scanner);
    }
  }
  to.erase(node());
  scan.spill_to.assign(to.begin(), to.end());
  scan.spill_from.assign(from.begin(), from.end());
}

void QueryService::StartExec(Exec& ex) {
  for (int32_t scan_op : ex.plan.ScanOpIds()) {
    DeriveSpillPairs(ex, scan_op);
    AssignScanPages(ex, scan_op, ex.table, &ex.ops[scan_op].pending_pages);
    RunScan(ex, scan_op);
  }
}

void QueryService::RunScan(Exec& ex, int32_t scan_op) {
  OpRec& scan = ex.ops[scan_op];
  if (scan.pending_pages.empty() && scan.pending_partial.empty()) {
    FinishScanIteration(ex, scan_op);
  } else if (!scan.chain_running) {
    scan.chain_running = true;
    uint64_t qid = ex.query_id;
    host_->network()->RunOnNode(node(), host_->network()->simulator()->now(),
                                [this, qid, scan_op] { DriveScanChain(qid, scan_op); });
  }
}

void QueryService::DriveScanChain(uint64_t query_id, int32_t scan_op) {
  Exec* ex = FindExec(query_id);
  if (ex == nullptr) return;
  OpRec& scan = ex->ops[scan_op];
  if (scan.pending_pages.empty() && scan.pending_partial.empty()) {
    scan.chain_running = false;
    FinishScanIteration(*ex, scan_op);
    return;
  }
  ScanMode mode =
      scan.pending_pages.empty() ? ScanMode::kFailedOwnersOnly : ScanMode::kFull;
  auto& queue = scan.pending_pages.empty() ? scan.pending_partial : scan.pending_pages;
  storage::PageDescriptor desc = queue.front();
  queue.pop_front();

  auto page = storage_->ReadPageLocal(desc.id);
  if (page.ok()) {
    ProcessPage(*ex, scan_op, desc, page.value(), mode);
  } else {
    // Stale local replica: fetch the page from a peer (§IV — missing state is
    // fetched, never substituted with an older version).
    scan.async_outstanding += 1;
    storage_->GetPage(desc, [this, query_id, scan_op, desc, mode,
                             taint = ex->own_taint](Status st, std::string bytes) {
      FinishScanRead(query_id, scan_op, st, taint,
                     [&](Exec& e) { ProcessPage(e, scan_op, desc, bytes, mode); });
    });
  }

  // Yield the node between pages so sends interleave and failures can land
  // mid-scan.
  host_->network()->RunOnNode(node(), host_->network()->simulator()->now(),
                              [this, query_id, scan_op] {
                                DriveScanChain(query_id, scan_op);
                              });
}

void QueryService::ProcessPage(Exec& ex, int32_t scan_op,
                               const storage::PageDescriptor& desc,
                               std::string_view bytes, ScanMode mode) {
  const PhysOp& op = ex.plan.op(scan_op);
  const auto& costs = host_->network()->costs();
  // An id participates in a partial rescan only if its data node (under the
  // previous routing table) failed: its spillover injections were purged and
  // its fetch requests died with the node.
  auto prev_owner_failed = [&ex](const HashId& hash) {
    net::NodeId prev = ex.prev_table.OwnerOf(hash);
    return prev < ex.cx.failed.size() && ex.cx.failed.Test(prev);
  };
  auto def = storage_->Relation(op.relation);
  if (!def.ok()) {
    ReportScanFailure(ex, def.status());
    return;
  }
  storage::EntryReader entries = storage::EntryReader::OfPage(bytes, desc);
  storage::EntryView e;

  if (op.kind == OpKind::kCoveringScan) {
    if (mode == ScanMode::kFailedOwnersOnly) return;  // index-only: no spillover
    // Key attributes come straight from the index page (Table I).
    ex.cx.charge(costs.index_entry_us * static_cast<double>(entries.left()));
    Tuple& key_vals = ex.ops[scan_op].read_row;
    while (entries.Next(&e)) {
      if (!op.key_filter.Matches(e.key)) continue;
      Status st = storage::DecodeTupleKey(def->schema, e.key, &key_vals);
      if (!st.ok()) {
        ReportScanFailure(ex, st);
        return;
      }
      ScanOf(ex, scan_op).Push(&key_vals, ex.own_taint);
    }
    if (!entries.status().ok()) ReportScanFailure(ex, entries.status());
    return;
  }

  bool broadcast = op.broadcast_local;
  bool replicated = def->replicate_everywhere;
  // True broadcast scans contribute identical local state at every node;
  // nothing is lost when a node fails, so no partial rescan is needed.
  if (mode == ScanMode::kFailedOwnersOnly && broadcast) return;

  // Split the page's entries into locally-owned and remote (Algorithm 1
  // line 8 / Table I distributed scan): remote tuples are pushed into the
  // plan at their data storage node. Ownership routes on the page-carried
  // hashes; both kinds stay views into the page's bytes.
  std::vector<storage::EntryView> local;
  std::map<net::NodeId, std::vector<std::string_view>> remote;
  while (entries.Next(&e)) {
    if (!op.key_filter.Matches(e.key)) continue;
    const HashId hash = e.placement();
    if (mode == ScanMode::kFailedOwnersOnly && !prev_owner_failed(hash)) continue;
    if (broadcast) {
      local.push_back(e);
      continue;
    }
    net::NodeId owner = ex.table.OwnerOf(hash);
    if (replicated) {
      // Every node holds the data; the hash owner injects, others skip.
      if (owner == node()) local.push_back(e);
      continue;
    }
    if (owner == node() || (owner < ex.cx.failed.size() && ex.cx.failed.Test(owner))) {
      // Ours, or the data owner already failed under this table: read from
      // the local replica or fetch from another replica.
      local.push_back(e);
    } else {
      remote[owner].push_back(e.bytes);
    }
  }
  if (!entries.status().ok()) {
    ReportScanFailure(ex, entries.status());
    return;
  }

  if (!local.empty()) {
    // Charged once per page: a charge is whole microseconds.
    ex.cx.charge(costs.index_entry_us * static_cast<double>(local.size()));
    for (const storage::EntryView& entry : local) {
      ReadScanTuple(ex, scan_op, op.relation, entry, ex.own_taint);
    }
    ex.cx.charge(costs.tuple_scan_us * static_cast<double>(local.size()));
  }

  // Each data node gets the entries it owns, copied from the page as they
  // are, in page order.
  for (const auto& [owner, owned] : remote) {
    Writer w = StartFrame(ex, scan_op, owner, /*close=*/false);
    w.PutVarint64(owned.size());
    for (std::string_view entry : owned) w.PutRaw(entry.data(), entry.size());
    SendTo(owner, kQueryFetch, w.Release());
  }
}

ScanOp& QueryService::ScanOf(Exec& ex, int32_t scan_op) {
  return *static_cast<ScanOp*>(ex.ops[scan_op].op.get());
}

void QueryService::FetchScanTuple(Exec& ex, int32_t scan_op, const std::string& rel,
                                  const storage::EntryView& entry,
                                  const DynamicBitset& taint) {
  ex.ops[scan_op].async_outstanding += 1;
  storage_->FetchTuple(rel, entry, [this, qid = ex.query_id, scan_op,
                                 taint](Status st, Tuple t) {
    FinishScanRead(qid, scan_op, st, taint,
                   [&](Exec& e) { ScanOf(e, scan_op).Push(&t, taint); });
  });
}

void QueryService::FinishScanRead(uint64_t query_id, int32_t scan_op,
                                  const Status& st, const DynamicBitset& taint,
                                  const std::function<void(Exec&)>& use) {
  Exec* ex = FindExec(query_id);
  if (ex == nullptr) return;
  ex->ops[scan_op].async_outstanding -= 1;
  if (st.ok()) {
    use(*ex);
  } else if (!taint.Intersects(ex->cx.failed)) {
    ReportScanFailure(*ex, st);
  }
  CheckEos(*ex, scan_op);
}

void QueryService::ReportScanFailure(Exec& ex, const Status& st) {
  Writer w;
  w.PutU64(ex.query_id);
  w.PutU8(static_cast<uint8_t>(st.code()));
  w.PutString(st.message());
  SendTo(ex.initiator, kScanFailed, w.Release());
}

Status QueryService::HandleQueryFetch(Exec& ex, net::NodeId from, int32_t scan_op,
                                      Reader* body) {
  const std::string& rel = ex.plan.op(scan_op).relation;
  const auto& costs = host_->network()->costs();
  DynamicBitset taint(ex.cx.taint_bits);
  if (ex.cx.taint_bits > 0) {
    if (from < ex.cx.taint_bits) taint.Set(from);
    if (node() < ex.cx.taint_bits) taint.Set(node());
  }
  storage::EntryReader entries = storage::EntryReader::List(body);
  storage::EntryView e;
  while (entries.Next(&e)) {
    ex.cx.charge(costs.tuple_scan_us);
    ReadScanTuple(ex, scan_op, rel, e, taint);
  }
  return entries.status();
}

void QueryService::ReadScanTuple(Exec& ex, int32_t scan_op, const std::string& rel,
                                 const storage::EntryView& entry,
                                 const DynamicBitset& taint) {
  OpRec& rec = ex.ops[scan_op];
  ScanOp& scan = ScanOf(ex, scan_op);
  auto bytes = storage_->ReadTupleLocal(rel, entry, &rec.read_key);
  if (bytes.ok()) {
    Reader tr(bytes.value());
    if (storage::DecodeTupleColumns(&tr, scan.keep(), &rec.read_row).ok()) {
      scan.Push(&rec.read_row, taint);
      return;
    }
  }
  FetchScanTuple(ex, scan_op, rel, entry, taint);
}

void QueryService::FinishScanIteration(Exec& ex, int32_t scan_op) {
  PhaseFlags& flags = ex.ops[scan_op].phase;
  flags.input_done = true;
  SendEos(ex, scan_op);
  CheckEos(ex, scan_op);
}

void QueryService::SendEos(Exec& ex, int32_t id) {
  OpRec& rec = ex.ops[id];
  if (rec.phase.eos_sent) return;
  rec.phase.eos_sent = true;
  OpKind kind = ex.plan.op(id).kind;
  std::vector<net::NodeId> to = kind == OpKind::kRehash ? LiveMembers(ex.table)
                                : kind == OpKind::kShip ? std::vector{ex.initiator}
                                                        : rec.spill_to;
  for (net::NodeId m : to) FlushBlock(ex, id, m, /*close=*/true);
}

void QueryService::CheckEos(Exec& ex, int32_t id) {
  OpRec& rec = ex.ops[id];
  bool scan = ex.plan.op(id).kind != OpKind::kRehash;  // else a scan op
  // A scan's barrier means every node whose pages can spill here has
  // finished its part for this phase and every fetch it counted has
  // arrived; it counts once this node's own iteration and reads are done.
  if (rec.phase.eos_delivered ||
      (scan && (!rec.phase.input_done || rec.async_outstanding > 0)) ||
      !rec.eos.Reached(scan ? rec.spill_from : LiveMembers(ex.table), ex.cx.phase)) {
    return;
  }
  rec.phase.eos_delivered = true;
  if (scan) {
    ScanOf(ex, id).SignalEos();
  } else {
    static_cast<RehashOp*>(rec.op.get())->DeliverEos();
  }
}

bool QueryService::Barrier::Arrive(net::NodeId from, uint32_t phase, uint32_t end) {
  Sender& s = senders_[from];
  s.arrived += 1;
  if (end == 0) return true;
  s.marked = true;
  s.phase = std::max(s.phase, phase);
  s.frames = std::max(s.frames, end - 1);
  return s.arrived >= end - 1;
}

bool QueryService::Barrier::Reached(const std::vector<net::NodeId>& senders,
                                    uint32_t phase) const {
  for (net::NodeId from : senders) {
    auto it = senders_.find(from);
    if (it == senders_.end() || !it->second.marked || it->second.phase < phase ||
        it->second.arrived < it->second.frames) {
      return false;
    }
  }
  return true;
}

// ===========================================================================
// Worker: rehash / ship dataflow

void QueryService::RouteRow(Exec& ex, int32_t rehash_op, BlockRow row) {
  const PhysOp& op = ex.plan.op(rehash_op);
  OpRec& rehash = ex.ops[rehash_op];
  net::NodeId dest = ex.table.OwnerOf(RowHash(row.tuple, op.hash_cols, &rehash.hash_key));
  counters_.rows_routed += 1;
  if (ex.provenance) {
    // Output caching + provenance bookkeeping are the recovery-support
    // overhead the paper measures in §VI-E.
    ex.cx.charge(ex.cx.costs->provenance_tag_us);
    rehash.cache.push_back(OpRec::CacheEntry{row, dest});
  }
  auto& buf = rehash.buffers[dest];
  buf.push_back(std::move(row));
  if (buf.size() >= kBlockRows) FlushBlock(ex, rehash_op, dest);
}

void QueryService::FlushBlock(Exec& ex, int32_t id, net::NodeId dest, bool close) {
  auto it = ex.ops[id].buffers.find(dest);
  bool rows = it != ex.ops[id].buffers.end() && !it->second.empty();
  if (!rows && !close) return;
  Writer w = StartFrame(ex, id, dest, close);
  if (rows) {
    TupleBlock block;
    block.rows = std::move(it->second);
    it->second.clear();
    ChargeBlockCosts(block);
    counters_.blocks_sent += 1;
    std::string bytes = block.Encode();
    w.PutRaw(bytes.data(), bytes.size());
  }
  OpKind kind = ex.plan.op(id).kind;
  SendTo(dest,
         kind == OpKind::kRehash ? kDataBlock
         : kind == OpKind::kShip ? kShipBlock
                                 : kQueryFetch,
         w.Release());
}

Writer QueryService::StartFrame(Exec& ex, int32_t id, net::NodeId to, bool close) {
  uint32_t sent = ++ex.ops[id].sent[to];
  Writer w;
  w.PutU64(ex.query_id);
  w.PutVarint32(static_cast<uint32_t>(id));
  w.PutVarint32(ex.cx.phase);
  w.PutVarint32(close ? sent + 1 : 0);
  return w;
}

Status QueryService::HandleDataBlock(Exec& ex, int32_t rehash_op, Reader* body) {
  TupleBlock block;
  ORC_RETURN_IF_ERROR(TupleBlock::Decode(body->RemainingView(), &block));
  ChargeBlockCosts(block);
  auto* rehash = static_cast<RehashOp*>(ex.ops[rehash_op].op.get());
  for (BlockRow& row : block.rows) {
    if (ex.cx.taint_bits > 0) {
      if (row.taint.size() != ex.cx.taint_bits) {
        DynamicBitset resized(ex.cx.taint_bits);
        for (size_t i = 0; i < row.taint.size() && i < ex.cx.taint_bits; ++i) {
          if (row.taint.Test(i)) resized.Set(i);
        }
        row.taint = std::move(resized);
      }
      row.taint.Set(node());
      ex.cx.charge(ex.cx.costs->provenance_tag_us);
      if (row.taint.Intersects(ex.cx.failed)) continue;
    }
    rehash->Deliver(std::move(row));
  }
  return Status::OK();
}

void QueryService::ShipRow(Exec& ex, BlockRow row) {
  counters_.rows_shipped += 1;
  auto& buf = ex.ops[ex.plan.root].buffers[ex.initiator];
  buf.push_back(std::move(row));
  if (buf.size() >= kBlockRows) FlushBlock(ex, ex.plan.root, ex.initiator);
}

// ===========================================================================
// Worker: recovery (§V-D stages 2-4) and teardown

void QueryService::HandleRecover(Exec& ex, Reader* r) {
  uint32_t phase = 0, n_failed = 0;
  if (!r->GetVarint32(&phase).ok() || !r->GetVarint32(&n_failed).ok()) return;
  std::vector<net::NodeId> failed;
  for (uint32_t i = 0; i < n_failed; ++i) {
    net::NodeId f = 0;
    if (!r->GetU32(&f).ok()) return;
    failed.push_back(f);
  }
  auto table = overlay::RoutingSnapshot::Decode(r);
  if (!table.ok()) return;
  if (phase <= ex.cx.phase) return;  // stale / duplicate

  ex.prev_table = ex.table;
  const overlay::RoutingSnapshot& prev_table = ex.prev_table;
  ex.table = std::move(table).value();
  ex.cx.phase = phase;
  for (net::NodeId f : failed) {
    if (f < ex.cx.failed.size()) ex.cx.failed.Set(f);
  }
  auto tainted = [&ex](const BlockRow& b) { return b.taint.Intersects(ex.cx.failed); };

  // Stage 2: drop all state derived from the failed nodes, and start the new
  // phase with fresh EOS state; the EOS wave re-runs.
  for (OpRec& rec : ex.ops) {
    rec.op->PurgeTainted();
    rec.op->ResetForPhase();
    rec.phase = {};
    std::erase_if(rec.cache, [&](const OpRec::CacheEntry& e) { return tainted(e.row); });
    for (auto& [dest, buf] : rec.buffers) std::erase_if(buf, tainted);
    // Unflushed rows routed to a failed node are superseded by the cache
    // resend below (stage 4).
    for (net::NodeId f : failed) rec.buffers.erase(f);
  }

  // Stage 4: re-create data that was sent to the failed nodes' ranges, now
  // routed under the new table.
  for (size_t id = 0; id < ex.ops.size(); ++id) {
    OpRec& rec = ex.ops[id];
    for (auto& entry : rec.cache) {
      if (std::find(failed.begin(), failed.end(), entry.dest) == failed.end()) continue;
      const PhysOp& op = ex.plan.op(static_cast<int32_t>(id));
      entry.dest = ex.table.OwnerOf(RowHash(entry.row.tuple, op.hash_cols, &rec.hash_key));
      rec.buffers[entry.dest].push_back(entry.row);
      counters_.cache_rows_resent += 1;
      if (rec.buffers[entry.dest].size() >= kBlockRows) {
        FlushBlock(ex, static_cast<int32_t>(id), entry.dest);
      }
    }
  }

  // Stage 3: restart leaf scans for the hash ranges inherited from the
  // failed nodes. A live node's ranges only grow under ReassignFailed, so
  // the spill pairs derived from the new table keep every live pair of an
  // earlier phase.
  for (int32_t scan_op : ex.plan.ScanOpIds()) {
    DeriveSpillPairs(ex, scan_op);
    OpRec& scan = ex.ops[scan_op];
    std::deque<storage::PageDescriptor> prev_pages, new_pages;
    AssignScanPages(ex, scan_op, prev_table, &prev_pages);
    AssignScanPages(ex, scan_op, ex.table, &new_pages);
    for (const auto& d : new_pages) {
      bool was_mine = std::any_of(prev_pages.begin(), prev_pages.end(),
                                  [&d](const auto& p) { return p.id == d.id; });
      // Inherited ranges are rescanned in full. Pages already scanned are
      // re-read only for the ids whose data node failed (their
      // pushed-into-plan copies were purged as tainted).
      (was_mine ? scan.pending_partial : scan.pending_pages).push_back(d);
    }
    if (!scan.pending_pages.empty()) counters_.scans_restarted += 1;
    RunScan(ex, scan_op);
  }

  // Closing frames of the new phase may have overtaken this recovery
  // broadcast (they travel on different connections); re-check every
  // condition that would otherwise only fire on message arrival.
  for (const PhysOp& def : ex.plan.ops) {
    if (def.kind == OpKind::kRehash) CheckEos(ex, def.id);
  }
}

void QueryService::HandleAbort(Reader* r) {
  uint64_t qid;
  if (!r->GetU64(&qid).ok()) return;
  ReleaseExec(qid);
  pending_.erase(qid);
}

void QueryService::ReleaseExec(uint64_t query_id) {
  auto it = execs_.find(query_id);
  if (it != execs_.end()) {
    host_->network()->simulator()->Cancel(it->second->deadline);
    execs_.erase(it);
  }
  MarkAborted(query_id);
}

void QueryService::OnSelfFailed() {
  sim::Simulator* sim = host_->network()->simulator();
  for (const auto& [qid, root] : roots_) sim->Cancel(root->deadline);
  for (const auto& [qid, ex] : execs_) sim->Cancel(ex->deadline);
  roots_.clear();
  execs_.clear();
  pending_.clear();
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
