// Deterministic discrete-event simulator. This is the substitute for the
// paper's physical 16-node cluster / EC2 deployment (see DESIGN.md §2): all
// distributed components run as event handlers against a simulated clock, and
// "execution time" of an experiment is the simulated makespan.
#ifndef ORCHESTRA_SIM_SIMULATOR_H_
#define ORCHESTRA_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_map>
#include <vector>

namespace orchestra::sim {

/// Simulated time in microseconds since simulation start.
using SimTime = int64_t;

constexpr SimTime kMicrosPerMilli = 1000;
constexpr SimTime kMicrosPerSec = 1000 * 1000;

/// Event-queue simulator. Events with equal timestamps fire in scheduling
/// order (FIFO), making runs fully deterministic.
class Simulator {
 public:
  using Callback = std::function<void()>;
  using EventId = uint64_t;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Schedules `cb` at absolute time `at` (clamped to now if in the past).
  EventId Schedule(SimTime at, Callback cb);
  /// Schedules `cb` `delay` microseconds from now.
  EventId ScheduleAfter(SimTime delay, Callback cb) { return Schedule(now_ + delay, std::move(cb)); }
  /// Cancels a pending event; no-op if already fired or cancelled. The
  /// callback (and everything it captured) is released immediately — a
  /// cancelled far-future deadline must not pin memory until its timestamp.
  void Cancel(EventId id);

  /// Runs the next event. Returns false when the queue is empty.
  bool Step() { return StepUntil(std::numeric_limits<SimTime>::max()); }
  /// Runs the next event if it is due at or before `t`. Returns false, and
  /// runs nothing, when no event is due by then.
  bool StepUntil(SimTime t);
  /// Runs until the queue drains.
  void Run();
  /// Runs events with time <= t, then sets now to t.
  void RunUntil(SimTime t);

  SimTime now() const { return now_; }
  size_t pending_events() const { return callbacks_.size(); }
  uint64_t events_fired() const { return fired_; }
  /// Running FNV-1a digest of every fired event's (at, id) pair. Two runs of
  /// the same scenario are event-for-event identical iff their digests match
  /// at every observation point — the churn harness's determinism check.
  uint64_t trace_digest() const { return digest_; }

 private:
  // The heap orders (at, id) pairs; callbacks live in a side table so that
  // Cancel() can release a closure the moment it is cancelled. Heap entries
  // whose id is no longer in the table are skipped on pop.
  struct Event {
    SimTime at;
    EventId id;
    bool operator>(const Event& o) const {
      if (at != o.at) return at > o.at;
      return id > o.id;
    }
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap_;
  std::unordered_map<EventId, Callback> callbacks_;
  SimTime now_ = 0;
  EventId next_id_ = 1;
  uint64_t fired_ = 0;
  uint64_t digest_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
};

}  // namespace orchestra::sim

#endif  // ORCHESTRA_SIM_SIMULATOR_H_
