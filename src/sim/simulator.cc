#include "sim/simulator.h"

#include "common/log.h"

namespace orchestra::sim {

Simulator::EventId Simulator::Schedule(SimTime at, Callback cb) {
  if (at < now_) at = now_;
  EventId id = next_id_++;
  heap_.push(Event{at, id});
  callbacks_.emplace(id, std::move(cb));
  return id;
}

void Simulator::Cancel(EventId id) { callbacks_.erase(id); }

bool Simulator::StepUntil(SimTime t) {
  while (!heap_.empty()) {
    Event ev = heap_.top();
    auto it = callbacks_.find(ev.id);
    if (it == callbacks_.end()) {  // cancelled
      heap_.pop();
      continue;
    }
    if (ev.at > t) return false;
    heap_.pop();
    Callback cb = std::move(it->second);
    callbacks_.erase(it);
    ORC_CHECK(ev.at >= now_, "event in the past");
    now_ = ev.at;
    ++fired_;
    digest_ = (digest_ ^ static_cast<uint64_t>(ev.at)) * 0x100000001b3ull;
    digest_ = (digest_ ^ ev.id) * 0x100000001b3ull;
    cb();
    return true;
  }
  return false;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(SimTime t) {
  while (StepUntil(t)) {
  }
  if (now_ < t) now_ = t;
}

}  // namespace orchestra::sim
