#include "net/rpc.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/log.h"
#include "common/serial.h"

namespace orchestra::net {

namespace {

std::atomic<int64_t> g_callbacks_alive{0};
std::atomic<uint64_t> g_calls_started{0};
std::atomic<uint64_t> g_calls_resolved{0};

}  // namespace

Status MakeStatus(uint8_t code, const std::string& msg) {
  switch (static_cast<Status::Code>(code)) {
    case Status::Code::kOk: return Status::OK();
    case Status::Code::kNotFound: return Status::NotFound(msg);
    case Status::Code::kInvalidArgument: return Status::InvalidArgument(msg);
    case Status::Code::kCorruption: return Status::Corruption(msg);
    case Status::Code::kIOError: return Status::IOError(msg);
    case Status::Code::kUnavailable: return Status::Unavailable(msg);
    case Status::Code::kAborted: return Status::Aborted(msg);
    case Status::Code::kTimedOut: return Status::TimedOut(msg);
    case Status::Code::kNotSupported: return Status::NotSupported(msg);
    case Status::Code::kFailedPrecondition: return Status::FailedPrecondition(msg);
    case Status::Code::kEpochTaken: return Status::EpochTaken(msg);
    case Status::Code::kFenced: return Status::Fenced(msg);
  }
  return Status::IOError("rpc: unknown status code " + std::to_string(code));
}

int64_t RpcStats::callbacks_alive() { return g_callbacks_alive.load(); }
uint64_t RpcStats::calls_started() { return g_calls_started.load(); }
uint64_t RpcStats::calls_resolved() { return g_calls_resolved.load(); }

RpcClient::RpcClient(NodeHost* host, ServiceId service, uint16_t reply_code)
    : host_(host), service_(service), reply_code_(reply_code) {}

RpcClient::~RpcClient() { DropAll(); }

void RpcClient::DropAll() {
  sim::Simulator* sim = host_->network()->simulator();
  // lint:allow(det-unordered-iter): cancel + count only; no callbacks run
  // and no messages are sent, so order cannot reach the trace.
  for (auto& [id, pc] : pending_) {
    sim->Cancel(pc.deadline_event);
    counters_.cancelled += 1;
    g_callbacks_alive.fetch_sub(1);
    g_calls_resolved.fetch_add(1);
  }
  pending_.clear();
}

uint64_t RpcClient::Call(NodeId to, uint16_t code, std::string body, Callback cb,
                         sim::SimTime timeout_us) {
  uint64_t req_id = next_req_id_++;
  Writer w(body.size() + 12);
  w.PutU64(req_id);
  w.PutRaw(body.data(), body.size());

  sim::Simulator* sim = host_->network()->simulator();
  PendingCall pc;
  pc.to = to;
  pc.cb = std::move(cb);
  pc.deadline_event = sim->ScheduleAfter(timeout_us, [this, req_id]() {
    Resolve(req_id, Resolution::kTimeout, Status::TimedOut("rpc deadline exceeded"),
            {});
  });
  pending_.emplace(req_id, std::move(pc));
  counters_.started += 1;
  g_calls_started.fetch_add(1);
  g_callbacks_alive.fetch_add(1);

  host_->SendTo(to, service_, code, w.Release());
  return req_id;
}

void RpcClient::CallEach(const std::vector<NodeId>& targets, uint16_t code,
                         const std::string& body,
                         std::function<void(std::vector<Reply>)> done,
                         sim::SimTime timeout_us) {
  auto arrive = FanIn<Reply>(targets.size(), std::move(done));
  for (NodeId t : targets) {
    Call(t, code, body,
         [arrive, t](Status st, const std::string& reply) {
           arrive(Reply{std::move(st), reply, t});
         },
         timeout_us);
  }
}

void RpcClient::CallAll(const std::vector<NodeId>& targets, uint16_t code,
                        const std::string& body, std::function<void(Status)> cb,
                        sim::SimTime timeout_us) {
  CallEach(targets, code, body,
           [cb = std::move(cb)](std::vector<Reply> replies) {
             for (const Reply& r : replies) {
               if (!r.status.ok()) {
                 cb(r.status);
                 return;
               }
             }
             cb(Status::OK());
           },
           timeout_us);
}

void RpcClient::CallFirst(std::vector<NodeId> targets, uint16_t code,
                          std::string body, Callback cb, sim::SimTime timeout_us) {
  if (targets.empty()) {
    cb(Status::Unavailable("rpc: no replicas to call"), {});
    return;
  }
  NodeId first = targets.front();
  targets.erase(targets.begin());
  if (targets.empty()) {
    // Final attempt: its outcome — success or the last error — goes straight
    // to the caller, so no retry state (or body copy) needs to be retained.
    Call(first, code, std::move(body), std::move(cb), timeout_us);
    return;
  }
  // The attempt's callback owns the remaining targets and the body by value;
  // on failure it re-enters CallFirst with one fewer target. Unlike a
  // self-capturing shared function, nothing here references itself, so the
  // whole chain is released as soon as one attempt succeeds or the last one
  // fails.
  std::string wire_body = body;
  Call(
      first, code, std::move(wire_body),
      [this, targets = std::move(targets), code, body = std::move(body),
       cb = std::move(cb), timeout_us](Status st, const std::string& reply) mutable {
        if (st.ok() || targets.empty()) {
          cb(st, reply);
          return;
        }
        CallFirst(std::move(targets), code, std::move(body), std::move(cb),
                  timeout_us);
      },
      timeout_us);
}

void RpcClient::FailPeer(NodeId peer) {
  std::vector<uint64_t> orphans;
  // lint:allow(det-unordered-iter): collect-only; resolution order is fixed
  // by the sort below, not by table order.
  for (const auto& [id, pc] : pending_) {
    if (pc.to == peer) orphans.push_back(id);
  }
  // Reap in issue order (req-ids are monotonic): orphan callbacks can send
  // messages, so their firing order feeds the trace and must not be a hash
  // artifact.
  std::sort(orphans.begin(), orphans.end());
  for (uint64_t id : orphans) {
    Resolve(id, Resolution::kReap, Status::Unavailable("peer failed"), {});
  }
}

void RpcClient::CancelAll(Status st) {
  while (!pending_.empty()) {
    Resolve(pending_.begin()->first, Resolution::kCancel, st, {});
  }
}

bool RpcClient::HandleReply(const std::string& payload) {
  Reader r(payload);
  uint64_t req_id;
  uint8_t st_code;
  std::string st_msg;
  uint32_t load_hint;
  if (!r.GetU64(&req_id).ok() || !r.GetU8(&st_code).ok() ||
      !r.GetString(&st_msg).ok() || !r.GetVarint32(&load_hint).ok()) {
    return false;
  }
  auto it = pending_.find(req_id);
  if (it == pending_.end()) return false;  // raced, resolved
  // Surface the responder's load hint before the call's callback runs, so a
  // caller that reacts to its own completion already sees fresh load state.
  if (load_hint_handler_) load_hint_handler_(it->second.to, load_hint);
  std::string body(payload.substr(r.position()));
  Resolve(req_id, Resolution::kReply, MakeStatus(st_code, st_msg), body);
  return true;
}

void RpcClient::Resolve(uint64_t req_id, Resolution how, Status st,
                        const std::string& body) {
  auto it = pending_.find(req_id);
  if (it == pending_.end()) return;
  Callback cb = std::move(it->second.cb);
  if (how != Resolution::kTimeout) {
    host_->network()->simulator()->Cancel(it->second.deadline_event);
  }
  pending_.erase(it);
  switch (how) {
    case Resolution::kReply: counters_.completed += 1; break;
    case Resolution::kTimeout: counters_.timed_out += 1; break;
    case Resolution::kReap: counters_.reaped += 1; break;
    case Resolution::kCancel: counters_.cancelled += 1; break;
  }
  g_callbacks_alive.fetch_sub(1);
  g_calls_resolved.fetch_add(1);
  cb(st, body);
}

void RpcClient::SendReply(NodeHost* host, NodeId to, ServiceId service,
                          uint16_t reply_code, uint64_t req_id, const Status& st,
                          std::string body, uint32_t load_hint) {
  Writer w(body.size() + 20);
  w.PutU64(req_id);
  w.PutU8(static_cast<uint8_t>(st.code()));
  w.PutString(st.message());
  w.PutVarint32(load_hint);
  w.PutRaw(body.data(), body.size());
  host->SendTo(to, service, reply_code, w.Release());
}

}  // namespace orchestra::net
