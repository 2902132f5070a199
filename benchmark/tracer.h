// Span recorder for the benchmark's traced run. Every layer is measured from
// outside the system: the benchmark wraps each node's message handler
// (TracingHandler) and its own calls into public functions (ScopedSpan), and
// times them with the host's steady clock. Nothing here schedules simulator
// events, so a traced run replays the untraced run event for event.
//
// Spans nest on one stack (the simulator is single-threaded): a span's self
// time is its duration minus the time its child spans cover. Client
// operations (tickets, queries, restarts) are long-lived and overlap, so they
// are kept apart from the stack; a layer span's parent is the one client
// operation in flight, or 0 when none or several are.
#ifndef ORCHESTRA_BENCHMARK_TRACER_H_
#define ORCHESTRA_BENCHMARK_TRACER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"

namespace orchestra::benchmark {

inline int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  /// A disabled tracer records nothing; every call is a cheap no-op.
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Interns a span name; ids are dense and stable.
  uint32_t Intern(const std::string& name);

  /// Opens a layer span on the stack at host time now.
  void Begin(uint32_t name, int32_t node, sim::SimTime sim_us);
  /// Closes the innermost open layer span.
  void End();

  /// Opens a client operation span (due time `sim_due_us`, host time now).
  uint64_t OpBegin(uint32_t name, sim::SimTime sim_due_us);
  /// Closes client operation `id` at sim time `sim_us`, host time now.
  void OpEnd(uint64_t id, sim::SimTime sim_us);

  /// Drops every recorded span and total (names stay interned). Called at the
  /// start of the timed phase so setup and warm-up work is not counted.
  void Clear();

  /// Per-name totals over closed layer spans.
  struct Totals {
    uint64_t calls = 0;
    int64_t self_ns = 0;
    std::vector<int64_t> self_samples_ns;  // one per call
  };
  /// Totals for `name`, or an empty record if no such span closed.
  const Totals& Get(const std::string& name) const;
  const std::vector<std::string>& names() const { return names_; }

  /// Host time covered by outermost layer spans (the attributed loop time).
  int64_t top_level_ns() const { return top_level_ns_; }
  size_t span_count() const { return spans_.size() + ops_.size(); }

  /// Host cost of recording one span, measured on a scratch tracer.
  static double CalibrateSpanCostNs();

  /// Writes every span as Chrome trace-event JSON (Perfetto, chrome://tracing).
  /// Layer spans are complete events on one track per node; client operations
  /// are async events. Returns false if the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    uint32_t name = 0;
    int32_t node = -1;
    sim::SimTime sim_us = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t parent_op = 0;
  };
  struct Open {
    size_t index = 0;
    int64_t child_ns = 0;
  };
  struct Op {
    uint32_t name = 0;
    uint64_t id = 0;
    sim::SimTime sim_start_us = 0;
    sim::SimTime sim_end_us = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  bool enabled_;
  int64_t origin_ns_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<Totals> totals_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  int64_t top_level_ns_ = 0;
  std::vector<Op> ops_;
  std::map<uint64_t, size_t> open_ops_;  // op id -> index in ops_
  uint64_t next_op_ = 1;
};

/// Times one call into the system (or one piece of benchmark work) as a layer
/// span; no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, uint32_t name, int32_t node, sim::SimTime sim_us)
      : tracer_(tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->Begin(name, node, sim_us);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// Installed with Network::SetHandler in place of a node's NodeHost: forwards
/// every delivery unchanged and records one span per handler call, named
/// "<service>.<code>" after the storage and query wire codes.
class TracingHandler : public net::MessageHandler {
 public:
  TracingHandler(Tracer* tracer, net::MessageHandler* inner, net::NodeId node,
                 const sim::Simulator* sim)
      : tracer_(tracer), inner_(inner), node_(node), sim_(sim) {}

  void OnMessage(net::NodeId from, uint32_t type, const std::string& payload) override;
  void OnConnectionDrop(net::NodeId peer) override;

 private:
  uint32_t NameId(uint32_t type);

  Tracer* tracer_;
  net::MessageHandler* inner_;
  net::NodeId node_;
  const sim::Simulator* sim_;
  std::unordered_map<uint32_t, uint32_t> name_ids_;
};

}  // namespace orchestra::benchmark

#endif  // ORCHESTRA_BENCHMARK_TRACER_H_
