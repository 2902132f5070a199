#include "tracer.h"

#include <cstdio>

#include "net/node_host.h"
#include "storage/service.h"

namespace orchestra::benchmark {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_ns_(HostNs()) {}

uint32_t Tracer::Intern(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  auto id = static_cast<uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  totals_.emplace_back();
  return id;
}

void Tracer::Begin(uint32_t name, int32_t node, sim::SimTime sim_us) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.node = node;
  s.sim_us = sim_us;
  s.parent_op = open_ops_.size() == 1 ? open_ops_.begin()->first : 0;
  s.start_ns = HostNs();
  stack_.push_back({spans_.size(), 0});
  spans_.push_back(s);
}

void Tracer::End() {
  if (!enabled_ || stack_.empty()) return;
  int64_t now = HostNs();
  Open open = stack_.back();
  stack_.pop_back();
  Span& s = spans_[open.index];
  s.end_ns = now;
  int64_t dur = s.end_ns - s.start_ns;
  Totals& t = totals_[s.name];
  t.calls += 1;
  t.self_ns += dur - open.child_ns;
  t.self_samples_ns.push_back(dur - open.child_ns);
  if (stack_.empty()) {
    top_level_ns_ += dur;
  } else {
    stack_.back().child_ns += dur;
  }
}

uint64_t Tracer::OpBegin(uint32_t name, sim::SimTime sim_due_us) {
  if (!enabled_) return 0;
  Op op;
  op.name = name;
  op.id = next_op_++;
  op.sim_start_us = sim_due_us;
  op.start_ns = HostNs();
  open_ops_[op.id] = ops_.size();
  ops_.push_back(op);
  return op.id;
}

void Tracer::OpEnd(uint64_t id, sim::SimTime sim_us) {
  if (!enabled_) return;
  auto it = open_ops_.find(id);
  if (it == open_ops_.end()) return;
  Op& op = ops_[it->second];
  op.sim_end_us = sim_us;
  op.end_ns = HostNs();
  open_ops_.erase(it);
}

void Tracer::Clear() {
  for (Totals& t : totals_) t = Totals{};
  spans_.clear();
  stack_.clear();
  top_level_ns_ = 0;
  ops_.clear();
  open_ops_.clear();
}

const Tracer::Totals& Tracer::Get(const std::string& name) const {
  static const Totals kEmpty;
  auto it = ids_.find(name);
  return it == ids_.end() ? kEmpty : totals_[it->second];
}

double Tracer::CalibrateSpanCostNs() {
  constexpr int kSpans = 200000;
  Tracer scratch(true);
  uint32_t name = scratch.Intern("calibrate");
  int64_t t0 = HostNs();
  for (int i = 0; i < kSpans; ++i) {
    scratch.Begin(name, 0, i);
    scratch.End();
  }
  return static_cast<double>(HostNs() - t0) / kSpans;
}

// Span names are built from fixed identifiers, so they need no JSON escaping.
bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  auto next_event = [&] {
    std::fputs(first ? "\n" : ",\n", f);
    first = false;
  };
  for (const Span& s : spans_) {
    next_event();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"sim_us\":%lld,"
                 "\"parent_op\":%llu}}",
                 names_[s.name].c_str(), s.node,
                 static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.sim_us),
                 static_cast<unsigned long long>(s.parent_op));
  }
  for (const Op& op : ops_) {
    if (op.sim_end_us < 0) continue;  // never resolved; nothing to draw
    next_event();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"client\",\"ph\":\"b\",\"pid\":2,"
                 "\"tid\":0,\"id\":%llu,\"ts\":%.3f,\"args\":{\"sim_due_us\":%lld}}",
                 names_[op.name].c_str(), static_cast<unsigned long long>(op.id),
                 static_cast<double>(op.start_ns - origin_ns_) / 1e3,
                 static_cast<long long>(op.sim_start_us));
    next_event();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"client\",\"ph\":\"e\",\"pid\":2,"
                 "\"tid\":0,\"id\":%llu,\"ts\":%.3f,\"args\":{\"sim_done_us\":%lld}}",
                 names_[op.name].c_str(), static_cast<unsigned long long>(op.id),
                 static_cast<double>(op.end_ns - origin_ns_) / 1e3,
                 static_cast<long long>(op.sim_end_us));
  }
  std::fputs("\n],\"metadata\":{\"pid 1\":\"node handler spans (tid = node)\","
             "\"pid 2\":\"client operations\"}}\n",
             f);
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------

namespace {

/// "storage.put_tuples", "query.data_block", ... for a message type.
std::string SpanName(uint32_t type) {
  const auto service = static_cast<net::ServiceId>(type >> 16);
  const auto code = static_cast<uint16_t>(type & 0xFFFF);
  if (service == net::ServiceId::kStorage) {
    switch (code) {
      case storage::kCatalogAdd: return "storage.catalog_add";
      case storage::kPutTuples: return "storage.put_tuples";
      case storage::kPutPage: return "storage.put_page";
      case storage::kPutCoordinator: return "storage.put_coordinator";
      case storage::kGetCoordinator: return "storage.get_coordinator";
      case storage::kGetPage: return "storage.get_page";
      case storage::kGetInverse: return "storage.get_inverse";
      case storage::kGetTuple: return "storage.get_tuple";
      case storage::kScanPage: return "storage.scan_page";
      case storage::kFetchTuples: return "storage.fetch_tuples";
      case storage::kTupleData: return "storage.tuple_data";
      case storage::kReplicaPush: return "storage.replica_push";
      case storage::kGetMaxEpoch: return "storage.get_max_epoch";
      case storage::kSetWatermark: return "storage.set_watermark";
      case storage::kClaimEpoch: return "storage.claim_epoch";
      case storage::kGetEpochClaim: return "storage.get_epoch_claim";
      case storage::kReleaseEpoch: return "storage.release_epoch";
      case storage::kConfirmEpoch: return "storage.confirm_epoch";
      case storage::kFenceEpoch: return "storage.fence_epoch";
      case storage::kPurgeEpoch: return "storage.purge_epoch";
      case storage::kReply: return "storage.reply";
      default: return "storage.code" + std::to_string(code);
    }
  }
  if (service == net::ServiceId::kQuery) {
    // QueryService's codes are private to the class; these mirror the table
    // in docs/WIRE_FORMATS.md.
    static const char* const kQueryCodes[] = {
        nullptr,       "plan",         "data_block",  "block_ack",
        "eos_marker",  "scan_part_done", "query_fetch", "ship_block",
        "ship_eos",    "node_suspect", "recover",     "abort",
        "ping",        "pong"};
    if (code >= 1 && code <= 13) return std::string("query.") + kQueryCodes[code];
    return "query.code" + std::to_string(code);
  }
  switch (service) {
    case net::ServiceId::kGossip: return "gossip." + std::to_string(code);
    case net::ServiceId::kPing: return "ping." + std::to_string(code);
    case net::ServiceId::kCdss: return "cdss." + std::to_string(code);
    default: return "service" + std::to_string(type >> 16) + "." + std::to_string(code);
  }
}

}  // namespace

void TracingHandler::OnMessage(net::NodeId from, uint32_t type,
                               const std::string& payload) {
  if (!tracer_->enabled()) {
    inner_->OnMessage(from, type, payload);
    return;
  }
  tracer_->Begin(NameId(type), static_cast<int32_t>(node_), sim_->now());
  inner_->OnMessage(from, type, payload);
  tracer_->End();
}

void TracingHandler::OnConnectionDrop(net::NodeId peer) {
  ScopedSpan span(tracer_, tracer_->Intern("net.connection_drop"),
                  static_cast<int32_t>(node_), sim_->now());
  inner_->OnConnectionDrop(peer);
}

uint32_t TracingHandler::NameId(uint32_t type) {
  auto it = name_ids_.find(type);
  if (it != name_ids_.end()) return it->second;
  uint32_t id = tracer_->Intern(SpanName(type));
  name_ids_.emplace(type, id);
  return id;
}

}  // namespace orchestra::benchmark
