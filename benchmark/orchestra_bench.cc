// orchestra_bench: the benchmark program. One process runs one workload once:
//
//   orchestra_bench --workload W --seed N --out F [--seconds S] [--trace T]
//                   [--perturb]
//
// It sets the deployment up five times (setup_s is the median), runs the
// timed phase, checks the outputs against an oracle, and writes one JSON
// object to F. Without --trace the object holds the end-to-end metrics; with
// --trace T it holds the per-layer metrics and the spans go to T as Chrome
// trace-event JSON. Workload sizes are frozen per-second rates times S, so a
// fixed (seed, S) pair always runs the same operations and every sim-time
// metric repeats exactly. --perturb corrupts one expected value so a negative
// test can assert that the oracle fires.
//
// It uses only the public headers under src/ and measures every layer from
// outside, by timing its calls into public functions. README.md in this
// directory defines each workload and metric.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "deploy/deployment.h"
#include "optimizer/optimizer.h"
#include "query/reference.h"
#include "sql/parser.h"
#include "storage/page.h"
#include "tracer.h"
#include "workload/stbench.h"
#include "workload/tpch.h"
#include "workload/workload.h"

namespace orchestra::benchmark {
namespace {

using sim::SimTime;
using storage::Epoch;
using storage::Tuple;
using storage::Value;

constexpr SimTime kMs = sim::kMicrosPerMilli;
constexpr SimTime kSec = sim::kMicrosPerSec;

// Frozen sizes: operations per second of --seconds, calibrated once so each
// timed phase takes about S seconds of host time on the reference machine
// (README.md, "Calibration"). Changing any of these redefines the benchmark.
constexpr double kPublishBatchesPerSec = 28;   // publish_incremental
constexpr double kFailoverQueriesPerSec = 10;  // query_failover
constexpr double kDeploymentsPerSec = 0.8;     // multi_writer
constexpr double kMixedPublishesPerSec = 10;   // mixed_read_write (and queries)
constexpr int kSetups = 5;                     // setup_s is their median

// Host-speed probe. The host this runs on is shared, and its speed drifts by
// ±10% over tens of seconds. A fixed reference workload runs every
// kProbeEveryNs of the timed phase, and around every setup; its mean duration
// tracks the host's current speed (correlation about 0.9 with the phase time
// over repeated runs of one seed), and host_s and setup_s are scaled by
// kProbeReferenceNs / mean, the probe's median duration on the reference
// machine (README.md, "Calibration").
constexpr int64_t kProbeEveryNs = 100'000'000;
constexpr double kProbeReferenceNs = 2.35e6;
constexpr int kProbesPerSetupSide = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  std::string out;
  std::string trace_path;  // empty: untraced
  double seconds = 10;
  bool perturb = false;
};

size_t Scaled(double per_sec, double seconds, size_t floor) {
  return std::max(floor, static_cast<size_t>(std::llround(per_sec * seconds)));
}

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

size_t TupleBytes(const Tuple& t) {
  Writer w;
  storage::EncodeTuple(t, &w);
  return w.size();
}

double RowsBytes(const std::vector<Tuple>& rows) {
  double b = 0;
  for (const Tuple& t : rows) b += static_cast<double>(TupleBytes(t));
  return b;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Millis(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double SimMs(SimTime us) { return static_cast<double>(us) / 1e3; }

/// Exponential draw with the given mean, in whole simulated microseconds.
SimTime Exponential(Rng* rng, SimTime mean) {
  return static_cast<SimTime>(-static_cast<double>(mean) * std::log1p(-rng->NextDouble()));
}

/// The speed probe's reference workload, about 2 ms: a dependent walk over
/// a 48 MiB random cycle (memory latency under the host's cache and
/// bandwidth contention, like the system's large working sets), then sorting,
/// hashing and copying. Every buffer is allocated once, so the probe's own
/// cost does not depend on the state of the system's heap.
class SpeedProbe {
 public:
  SpeedProbe() : cycle_(kCycle), keys_(kKeys), slots_(kSlots), from_(kCopy, 'q'), to_(kCopy) {
    // Sattolo's shuffle: one cycle through every entry, so the walk never
    // settles into a cache-resident loop.
    for (uint32_t i = 0; i < kCycle; ++i) cycle_[i] = i;
    Rng rng(4242);
    for (uint32_t i = kCycle - 1; i > 0; --i) {
      std::swap(cycle_[i], cycle_[rng.Uniform(i)]);
    }
  }

  void Work() {
    uint32_t at = 0;
    for (int i = 0; i < kSteps; ++i) at = cycle_[at];
    Rng rng(777);
    for (uint64_t& k : keys_) k = rng.NextU64() | 1;
    std::sort(keys_.begin(), keys_.end());
    std::fill(slots_.begin(), slots_.end(), 0);
    for (uint64_t k : keys_) {
      size_t i = (k * 0x9E3779B97F4A7C15ull) >> 49;
      while (slots_[i] != 0) i = (i + 1) & (kSlots - 1);
      slots_[i] = k;
    }
    for (int i = 0; i < 3; ++i) {
      std::memcpy(to_.data(), from_.data(), kCopy);
      from_[static_cast<size_t>(i)] = to_[static_cast<size_t>(i) + 1];
    }
    sink_ = at + slots_[keys_[7] & (kSlots - 1)] + static_cast<uint64_t>(to_[3]);
  }

  /// Mean duration of `n` runs of Work(), in ns.
  double Ns(int n) {
    int64_t t0 = HostNs();
    for (int i = 0; i < n; ++i) Work();
    return static_cast<double>(HostNs() - t0) / n;
  }

 private:
  static constexpr uint32_t kCycle = 12u << 20;  // 48 MiB of uint32
  static constexpr int kSteps = 4000;
  static constexpr size_t kKeys = 16384;
  static constexpr size_t kSlots = 32768;  // power of two, load factor 1/2
  static constexpr size_t kCopy = 1 << 20;
  std::vector<uint32_t> cycle_;
  std::vector<uint64_t> keys_, slots_;
  std::vector<char> from_, to_;
  volatile uint64_t sink_ = 0;
};

/// Changes the first value of the first row (the negative test's corruption).
bool PerturbRows(std::vector<Tuple>* rows) {
  if (rows->empty() || rows->front().empty()) return false;
  Value& v = rows->front().front();
  switch (v.type()) {
    case storage::ValueType::kDouble: v = Value(v.AsDouble() + 1.0); break;
    case storage::ValueType::kInt64: v = Value(v.AsInt64() + 1); break;
    case storage::ValueType::kString: v = Value(v.AsString() + "x"); break;
    case storage::ValueType::kNull: v = Value(int64_t{0}); break;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Per-run state shared by every workload: the tracer, the benchmark's own
// host time (excluded from host_s), the outcome, and the metric samples.

class Run {
  /// Runs `f` as one span of benchmark work, adding its host time to `acc`.
  template <typename F>
  auto Timed(int64_t* acc, uint32_t span, SimTime now, F&& f) {
    struct Charge {
      int64_t* acc;
      int64_t t0;
      ~Charge() { *acc += HostNs() - t0; }
    } charge{acc, HostNs()};
    ScopedSpan s(&tracer, span, -1, now);
    return f();
  }

 public:
  explicit Run(const Args& a)
      : args(a),
        tracer(!a.trace_path.empty()),
        gen_span(tracer.Intern("bench.gen")),
        check_span(tracer.Intern("bench.check")),
        call_span(tracer.Intern("client.call")),
        parse_span(tracer.Intern("sql.parse")),
        plan_span(tracer.Intern("optimizer.plan")),
        kill_span(tracer.Intern("deploy.kill")),
        restart_span(tracer.Intern("deploy.restart")),
        probe_span(tracer.Intern("bench.probe")),
        publish_op(tracer.Intern("op.publish")),
        query_op(tracer.Intern("op.query")),
        restart_op(tracer.Intern("op.restart")) {}

  /// Benchmark input generation: timed, and traced as a bench.gen span.
  template <typename F>
  auto Gen(SimTime now, F&& f) {
    return Timed(&gen_ns, gen_span, now, std::forward<F>(f));
  }
  /// Benchmark checking (model updates, reference results): timed, and
  /// traced as a bench.check span so handler self time excludes it.
  template <typename F>
  auto Check(SimTime now, F&& f) {
    return Timed(&check_ns, check_span, now, std::forward<F>(f));
  }
  /// Times one call into the deployment layer (kill, restart).
  template <typename F>
  void Deploy(int64_t* acc, uint32_t span, SimTime now, F&& f) {
    Timed(acc, span, now, std::forward<F>(f));
  }

  /// Steps `dep` until `done()` or until `max_wait` of simulated time
  /// passes; false on timeout. Inside a timed phase it also runs the
  /// host-speed probe.
  bool Drive(deploy::Deployment& dep, const std::function<bool()>& done,
             SimTime max_wait) {
    return dep.RunUntil(
        [&] {
          if (probing && HostNs() >= next_probe_ns) {
            Timed(&probe_ns, probe_span, dep.sim().now(), [this] { probe.Work(); });
            probes += 1;
            next_probe_ns = HostNs() + kProbeEveryNs;
          }
          return done();
        },
        max_wait);
  }
  /// Host speed relative to the reference machine (1 when never probed).
  double HostSpeed() const {
    return probes > 0 ? kProbeReferenceNs * static_cast<double>(probes) /
                            static_cast<double>(probe_ns)
                      : 1.0;
  }

  void Fail(const std::string& why) {
    if (correct) failure = why;
    correct = false;
  }

  const Args& args;
  Tracer tracer;
  SpeedProbe probe;
  const uint32_t gen_span, check_span, call_span, parse_span, plan_span, kill_span,
      restart_span, probe_span, publish_op, query_op, restart_op;

  bool correct = true;
  std::string failure;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> setup_s;

  // Timed-phase accumulators.
  bool probing = false;
  int64_t next_probe_ns = 0;
  int64_t probe_ns = 0;
  int64_t probes = 0;
  int64_t gen_ns = 0;
  int64_t check_ns = 0;
  int64_t kill_ns = 0;
  int64_t restart_ns = 0;
  std::vector<double> publish_ms;   // sim latency, due -> commit, per batch
  std::vector<double> query_ms;     // sim latency per query (all queries)
  std::vector<double> failover_ms;  // sim latency of queries that lost a node
  std::vector<double> query_host_ms;
  double memo_entries = 0;
  double published_tuples = 0;
  uint64_t recoveries = 0;
  size_t backlog_max = 0;
};

// ---------------------------------------------------------------------------
// Layer counters, read through each service's public accessors and summed
// over nodes. The timed phase reports end-minus-start deltas.

using Counts = std::map<std::string, double>;

Counts ReadCounters(deploy::Deployment& dep) {
  Counts c;
  auto add = [&c](const char* name, uint64_t v) { c[name] += static_cast<double>(v); };
  for (size_t i = 0; i < dep.size(); ++i) {
    const auto& ss = dep.session(i).stats();
    add("client.submitted", ss.submitted);
    add("client.ticket_failures", ss.failed);
    add("client.commits", ss.committed);
    const auto& ps = dep.publisher(i).pipeline_stats();
    add("publisher.publishes", ps.publishes);
    add("publisher.chained", ps.chained);
    add("publisher.epoch_conflicts", ps.epoch_conflicts);
    add("publisher.rebases", ps.rebases);
    storage::StorageService& st = dep.storage(i);
    const auto& sc = st.counters();
    add("storage.tuples_stored", sc.tuples_stored);
    add("storage.pages_stored", sc.pages_stored);
    add("storage.tuples_served", sc.tuples_served);
    add("storage.claims_refused", sc.claims_refused);
    const auto& gc = st.gc_stats();
    add("gc.slices", gc.slices);
    add("gc.retired", gc.retired_data + gc.retired_pages + gc.retired_coords +
                          gc.retired_tombstones + gc.retired_claims);
    const auto& ls = st.store().stats();
    add("localstore.puts", ls.puts);
    add("localstore.gets", ls.gets.load());
    add("localstore.log_bytes", ls.log_bytes);
    add("localstore.compactions", ls.compactions);
    if (const wal::Wal* w = st.store().wal(); w != nullptr) {
      const auto& ws = w->stats();
      add("wal.records", ws.records_appended);
      add("wal.bytes", ws.bytes_appended);
      add("wal.syncs", ws.syncs);
      add("wal.checkpoints", ws.checkpoints);
      add("wal.replayed_records", ws.replayed_records);
    }
    const auto& rc = st.rpc_counters();
    add("rpc.started", rc.started);
    add("rpc.timed_out", rc.timed_out);
    add("rpc.reaped", rc.reaped);
    const auto& qc = dep.query(i).counters();
    add("query.blocks_sent", qc.blocks_sent);
    add("query.rows_routed", qc.rows_routed);
    add("query.rows_shipped", qc.rows_shipped);
    add("query.scans_restarted", qc.scans_restarted);
    add("query.cache_rows_resent", qc.cache_rows_resent);
  }
  add("net.messages", dep.network().total_messages());
  add("net.bytes", dep.network().total_bytes());
  add("sim.events", dep.sim().events_fired());
  add("hash.tuple_key_hashes", storage::TupleKeyHashCount());
  return c;
}

/// Totals over every timed phase of a run (multi_writer has one per deployment).
struct Phase {
  Counts delta;              // counter deltas
  double max_inbox = 0;      // inbox high-water mark, messages
  double sim_s = 0;          // simulated time until the last operation finished
  double ops = 0;            // operations completed
  int64_t wall_ns = 0;       // host time, including the post-op drain
  double wal_bytes = 0;      // deployment lifetime, setup included
  double user_bytes = 0;     // encoded tuples published over the same lifetime
  double arena_bytes = 0;    // record arenas at the end, garbage included
  double stored_bytes = 0;   // live store entries (keys + values) at the end
  double live_bytes = 0;     // encoded live rows, one copy, at the end
  uint64_t digest = 0xcbf29ce484222325ull;

  /// Runs one timed phase on `dep`: `drive` issues the operations and steps
  /// the simulator until they finish (returning the sim time the last one
  /// finished, or -1 on a hang); then the background work is drained.
  void Measure(Run& run, deploy::Deployment& dep, const std::function<SimTime()>& drive) {
    dep.network().ResetTraffic();
    Counts start = ReadCounters(dep);
    SimTime sim0 = dep.sim().now();
    run.probing = true;
    run.next_probe_ns = 0;
    int64_t t0 = HostNs();
    SimTime last = drive();
    if (last < 0) {
      run.Fail("operations did not finish within the simulated time budget");
      last = dep.sim().now();
    }
    run.Drive(dep, [&dep] { return dep.sim().pending_events() == 0; }, 600 * kSec);
    wall_ns += HostNs() - t0;
    run.probing = false;
    Counts end = ReadCounters(dep);
    for (const auto& [k, v] : end) delta[k] += v - start[k];
    max_inbox = std::max(max_inbox, static_cast<double>(dep.network().MaxInboxMessages()));
    sim_s += static_cast<double>(last - sim0) / 1e6;
    wal_bytes += end["wal.bytes"];
    for (size_t i = 0; i < dep.size(); ++i) {
      const localstore::LocalStore& store = dep.storage(i).store();
      arena_bytes += static_cast<double>(store.arena_bytes());
      for (auto it = store.Seek(""); it.Valid(); it.Next()) {
        stored_bytes += static_cast<double>(it.key().size() + it.value().size());
      }
    }
    digest = (digest ^ dep.sim().trace_digest()) * 0x100000001b3ull;
  }
};

/// Installs a TracingHandler in front of every node's NodeHost. The returned
/// wrappers must outlive the deployment's last simulator step.
std::vector<std::unique_ptr<TracingHandler>> InstallTracing(Run& run,
                                                            deploy::Deployment& dep) {
  std::vector<std::unique_ptr<TracingHandler>> out;
  if (!run.tracer.enabled()) return out;
  for (size_t i = 0; i < dep.size(); ++i) {
    auto node = static_cast<net::NodeId>(i);
    out.push_back(std::make_unique<TracingHandler>(&run.tracer, &dep.host(i), node,
                                                   &dep.sim()));
    dep.network().SetHandler(node, out.back().get());
  }
  return out;
}

/// Runs `setup` kSetups times and keeps the last result. Each setup's host
/// time is scaled to the reference speed by probes just before and after it.
template <typename F>
auto TimedSetups(Run& run, F&& setup) {
  using Kept = decltype(setup());
  Kept kept{};
  for (int i = 0; i < kSetups; ++i) {
    kept = Kept{};  // release the previous deployment before building the next
    double before = run.probe.Ns(kProbesPerSetupSide);
    int64_t t0 = HostNs();
    kept = setup();
    auto took = static_cast<double>(HostNs() - t0);
    double probe = (before + run.probe.Ns(kProbesPerSetupSide)) / 2;
    run.setup_s.push_back(took / 1e9 * kProbeReferenceNs / probe);
  }
  return kept;
}

std::unique_ptr<deploy::Deployment> MakeDeployment(size_t nodes, uint64_t seed,
                                                   uint64_t gc_keep_epochs,
                                                   SimTime fence_after_us = 0) {
  deploy::DeploymentOptions opts;
  opts.num_nodes = nodes;
  opts.replication = 3;
  opts.seed = seed;
  opts.gc_keep_epochs = gc_keep_epochs;
  opts.fence_after_us = fence_after_us;
  return std::make_unique<deploy::Deployment>(opts);
}

/// Retrieves `rel` at `epoch` via `node` and compares it with `model` as bags.
void CheckRetrieve(Run& run, deploy::Deployment& dep, size_t node, const std::string& rel,
                   Epoch epoch, storage::KeyFilter filter, const std::vector<Tuple>& model,
                   const std::string& what) {
  auto got = dep.Retrieve(node, rel, epoch, std::move(filter));
  if (!got.ok()) {
    run.Fail(what + ": retrieve failed: " + got.status().ToString());
  } else if (!query::SameBag(*got, model)) {
    run.Fail(what + ": retrieved " + std::to_string(got->size()) +
             " rows that differ from the model's " + std::to_string(model.size()));
  }
}

// ---------------------------------------------------------------------------
// WriteStream: one participant's batches, committed strictly in order through
// its node's client::Session. A failed ticket fails the session's in-flight
// suffix; once that suffix has resolved, the failed batches are re-submitted
// in their original order (the session's retry contract), ahead of anything
// that fell due meanwhile. Latency runs from a batch's due time to its
// commit, so a retried batch pays for its failure.

class WriteStream {
 public:
  using MakeBatch = std::function<storage::UpdateBatch(size_t i)>;
  using OnCommit = std::function<void(size_t i, const storage::UpdateBatch& b)>;

  WriteStream(Run* run, deploy::Deployment* dep, size_t node, size_t count,
              MakeBatch make, OnCommit on_commit)
      : run_(run), dep_(dep), node_(node), items_(count), make_(std::move(make)),
        on_commit_(std::move(on_commit)) {}

  WriteStream(const WriteStream&) = delete;
  WriteStream& operator=(const WriteStream&) = delete;

  /// Closed loop: `window` batches outstanding; after each commit the next
  /// batch falls due `think()` later.
  void StartClosed(size_t window, std::function<SimTime()> think) {
    think_ = std::move(think);
    for (size_t i = 0; i < window && next_ < items_.size(); ++i) ScheduleNext();
  }
  /// Open loop: batch i falls due at dues[i] whatever the system's progress.
  void StartOpen(const std::vector<SimTime>& dues) {
    for (size_t i = 0; i < items_.size(); ++i) {
      dep_->sim().Schedule(dues[i], [this, i] { Due(i); });
    }
    next_ = items_.size();
  }
  /// Ignores resolutions from here on (deployment teardown aborts tickets).
  void Stop() { stopped_ = true; }

  bool done() const { return committed_ == items_.size(); }
  size_t count() const { return items_.size(); }
  size_t committed() const { return committed_; }
  int commits(size_t i) const { return items_[i].commits; }
  Epoch last_epoch() const { return last_epoch_; }
  SimTime last_commit_at() const { return last_commit_at_; }

 private:
  struct Item {
    storage::UpdateBatch batch;
    SimTime due = 0;
    uint64_t op = 0;
    int commits = 0;
  };

  void ScheduleNext() {
    size_t i = next_++;
    dep_->sim().ScheduleAfter(think_(), [this, i] { Due(i); });
  }

  void Due(size_t i) {
    SimTime now = dep_->sim().now();
    Item& it = items_[i];
    it.due = now;
    it.batch = run_->Gen(now, [&] { return make_(i); });
    for (const auto& [rel, ups] : it.batch) {
      run_->published_tuples += static_cast<double>(ups.size());
    }
    it.op = run_->tracer.OpBegin(run_->publish_op, now);
    if (recovering_) {
      backlog_.push_back(i);
    } else {
      Submit(i);
    }
  }

  void Submit(size_t i) {
    client::Session& session = dep_->session(node_);
    Pending<Epoch> p;
    {
      ScopedSpan span(&run_->tracer, run_->call_span, static_cast<int32_t>(node_),
                      dep_->sim().now());
      p = session.Submit(items_[i].batch).epoch;
    }
    inflight_.insert(i);
    run_->backlog_max =
        std::max(run_->backlog_max, session.in_flight() + session.queued());
    p.OnReady([this, i, p] { Resolved(i, p); });
  }

  void Resolved(size_t i, const Pending<Epoch>& p) {
    if (stopped_) return;
    inflight_.erase(i);
    SimTime now = dep_->sim().now();
    if (p.ok()) {
      Item& it = items_[i];
      it.commits += 1;
      committed_ += 1;
      last_epoch_ = std::max(last_epoch_, p.value());
      last_commit_at_ = now;
      run_->publish_ms.push_back(SimMs(now - it.due));
      run_->tracer.OpEnd(it.op, now);
      run_->Check(now, [&] { on_commit_(i, it.batch); });
      if (think_ && next_ < items_.size()) ScheduleNext();
    } else {
      recovering_ = true;
      failed_.push_back(i);
    }
    if (recovering_ && inflight_.empty()) {
      recovering_ = false;
      std::vector<size_t> order = std::move(failed_);
      failed_.clear();
      std::sort(order.begin(), order.end());
      order.insert(order.end(), backlog_.begin(), backlog_.end());
      backlog_.clear();
      for (size_t j : order) Submit(j);
    }
  }

  Run* run_;
  deploy::Deployment* dep_;
  size_t node_;
  std::vector<Item> items_;
  MakeBatch make_;
  OnCommit on_commit_;
  std::function<SimTime()> think_;
  size_t next_ = 0;
  size_t committed_ = 0;
  Epoch last_epoch_ = 0;
  SimTime last_commit_at_ = 0;
  std::set<size_t> inflight_;
  bool recovering_ = false;
  std::vector<size_t> failed_;
  std::vector<size_t> backlog_;
  bool stopped_ = false;
};

// ---------------------------------------------------------------------------
// Queries: every query is parsed and planned the way a participant submits
// SQL, then executed through the initiator's client::Session.

/// Parses and plans `sql` at node `via`; with `timed`, each stage is a span
/// and the optimizer's memo size is counted.
Result<query::PhysicalPlan> PlanSql(deploy::Deployment& dep, const optimizer::StatsCatalog& stats,
                                    const std::string& sql, size_t via, Run* timed) {
  auto catalog = [&dep, via](const std::string& name) {
    return dep.storage(via).Relation(name);
  };
  std::optional<ScopedSpan> span;
  auto stage = [&](uint32_t name) {
    span.reset();
    if (timed != nullptr) {
      span.emplace(&timed->tracer, name, static_cast<int32_t>(via), dep.sim().now());
    }
  };
  stage(timed != nullptr ? timed->parse_span : 0);
  auto q = sql::ParseAndAnalyze(sql, catalog);
  if (!q.ok()) return q.status();
  optimizer::CostParams params;
  params.num_nodes = dep.size();
  params.bandwidth_bytes_per_sec = dep.options().link.bandwidth_bytes_per_sec;
  stage(timed != nullptr ? timed->plan_span : 0);
  optimizer::Optimizer opt(stats, params);
  auto planned = opt.Plan(*q);
  if (!planned.ok()) return planned.status();
  if (timed != nullptr) timed->memo_entries += static_cast<double>(opt.search_stats().memo_entries);
  return planned->plan;
}

Pending<query::QueryResult> ExecuteQuery(Run& run, deploy::Deployment& dep,
                                         const query::PhysicalPlan& plan, size_t via,
                                         Epoch epoch) {
  ScopedSpan span(&run.tracer, run.call_span, static_cast<int32_t>(via), dep.sim().now());
  return dep.session(via).Query(plan, epoch);
}

/// TPC-H at SF 0.008 (69.5k rows, 32 partitions) loaded through node 0.
struct TpchCluster {
  std::unique_ptr<deploy::Deployment> dep;
  std::vector<workload::GeneratedRelation> rels;
  optimizer::StatsCatalog stats;
  Epoch epoch = 0;
};

TpchCluster MakeTpchCluster(Run& run, uint64_t gc_keep_epochs) {
  TpchCluster c;
  c.dep = MakeDeployment(8, run.args.seed, gc_keep_epochs);
  workload::TpchConfig cfg;
  cfg.scale_factor = 0.008;
  cfg.seed = run.args.seed;
  cfg.num_partitions = 32;
  c.rels = workload::TpchGenerate(cfg);
  auto e = workload::Load(c.dep.get(), 0, c.rels);
  if (!e.ok()) {
    run.Fail("TPC-H load failed: " + e.status().ToString());
  } else {
    c.epoch = *e;
  }
  c.stats = workload::StatsFor(c.rels);
  return c;
}

double AllRowsBytes(const std::vector<workload::GeneratedRelation>& rels) {
  double b = 0;
  for (const auto& r : rels) b += RowsBytes(r.rows);
  return b;
}

// ---------------------------------------------------------------------------
// publish_incremental: the write path alone. One session overwrites 64 keys
// per batch of a 40,000-tuple relation, four batches outstanding.

class PublishIncremental {
 public:
  static constexpr size_t kTuples = 40000;
  static constexpr size_t kBatchRows = 64;

  explicit PublishIncremental(Run& run) : run_(run) {}
  ~PublishIncremental() {
    if (stream_) stream_->Stop();
    dep_.reset();
  }

  void Setup() {
    struct State {
      std::unique_ptr<deploy::Deployment> dep;
      std::vector<workload::GeneratedRelation> rels;
    };
    State s = TimedSetups(run_, [this] {
      State st;
      st.dep = MakeDeployment(4, run_.args.seed, /*gc_keep_epochs=*/8);
      workload::StbConfig cfg;
      cfg.tuples_per_relation = kTuples;
      cfg.seed = run_.args.seed;
      cfg.num_partitions = 32;
      st.rels = workload::StbGenerate(workload::StbScenario::kCopy, cfg);
      auto e = workload::Load(st.dep.get(), 0, st.rels);
      if (!e.ok()) run_.Fail("preload failed: " + e.status().ToString());
      return st;
    });
    dep_ = std::move(s.dep);
    rel_ = s.rels[0].def.name;
    model_ = std::move(s.rels[0].rows);
    phase_.user_bytes = RowsBytes(model_);
  }

  void Measure() {
    tracing_ = InstallTracing(run_, *dep_);
    const size_t batches = Scaled(kPublishBatchesPerSec, run_.args.seconds, 4);
    rows_of_.resize(batches);
    stream_ = std::make_unique<WriteStream>(
        &run_, dep_.get(), 0, batches,
        [this](size_t i) {
          std::set<size_t> keys;
          while (keys.size() < kBatchRows) keys.insert(rng_.Uniform(kTuples));
          storage::UpdateBatch b;
          auto& ups = b[rel_];
          for (size_t k : keys) {
            Tuple t = model_[k];
            t.back() = Value(rng_.AlphaString(20 + rng_.Uniform(11)));
            phase_.user_bytes += static_cast<double>(TupleBytes(t));
            ups.push_back(storage::Update::Insert(std::move(t)));
          }
          rows_of_[i].assign(keys.begin(), keys.end());
          return b;
        },
        [this](size_t i, const storage::UpdateBatch& b) {
          const auto& ups = b.at(rel_);
          for (size_t j = 0; j < ups.size(); ++j) model_[rows_of_[i][j]] = ups[j].tuple;
        });
    run_.tracer.Clear();
    phase_.Measure(run_, *dep_, [this] {
      stream_->StartClosed(4, [] { return SimTime{0}; });
      bool ok = run_.Drive(*dep_, [this] { return stream_->done(); }, 3600 * kSec);
      return ok ? stream_->last_commit_at() : SimTime{-1};
    });
    phase_.ops = static_cast<double>(stream_->count());
    phase_.live_bytes = RowsBytes(model_);
    run_.attempted += stream_->count();
    run_.failed += stream_->count() - stream_->committed();
  }

  /// Oracle: a final Retrieve from a node other than the writer's equals the
  /// model of every committed batch.
  void Verify() {
    if (run_.args.perturb) PerturbRows(&model_);
    CheckRetrieve(run_, *dep_, 1, rel_, stream_->last_epoch(), {}, model_,
                  "final retrieve of " + rel_);
  }

  Phase& phase() { return phase_; }

 private:
  Run& run_;
  std::unique_ptr<deploy::Deployment> dep_;
  std::string rel_;
  std::vector<Tuple> model_;
  std::vector<std::vector<size_t>> rows_of_;
  Rng rng_ = Rng(run_.args.seed).Fork(1);
  std::unique_ptr<WriteStream> stream_;
  std::vector<std::unique_ptr<TracingHandler>> tracing_;
  Phase phase_;
};

// ---------------------------------------------------------------------------
// query_failover: the read path alone over cache-resident data, plus the
// paper's incremental recovery (§V-C/D). Every 8th query loses a node.

class QueryFailover {
 public:
  static constexpr size_t kFailEvery = 8;

  explicit QueryFailover(Run& run) : run_(run) {}
  ~QueryFailover() { c_.dep.reset(); }

  void Setup() {
    c_ = TimedSetups(run_, [this] { return MakeTpchCluster(run_, 0); });
    phase_.user_bytes = AllRowsBytes(c_.rels);
    phase_.live_bytes = phase_.user_bytes;
    query::ReferenceDatabase db = workload::AsReferenceDb(c_.rels);
    for (const std::string& q : workload::TpchQueryNames()) {
      auto plan = PlanSql(*c_.dep, c_.stats, workload::TpchQuerySql(q), 0, nullptr);
      if (!plan.ok()) {
        run_.Fail(q + " does not plan: " + plan.status().ToString());
        continue;
      }
      auto ref = query::ReferenceExecute(*plan, db);
      if (!ref.ok()) {
        run_.Fail(q + " reference failed: " + ref.status().ToString());
        continue;
      }
      expected_[q] = std::move(*ref);
    }
    if (run_.args.perturb) PerturbRows(&expected_["Q1"]);
  }

  void Measure() {
    deploy::Deployment& dep = *c_.dep;
    const std::vector<std::string> names = workload::TpchQueryNames();
    Rng rng = Rng(run_.args.seed).Fork(2);
    // Untimed warm-up round: also gives each query its healthy latency, which
    // places the first kill.
    std::map<std::string, SimTime> healthy_us;
    for (const std::string& q : names) {
      auto plan = PlanSql(dep, c_.stats, workload::TpchQuerySql(q), 0, nullptr);
      if (!plan.ok()) return;
      Pending<query::QueryResult> p = dep.session(0).Query(*plan, c_.epoch);
      if (!dep.RunUntil([&p] { return p.done(); }, 600 * kSec) || !p.ok()) {
        run_.Fail("warm-up " + q + " failed");
        return;
      }
      healthy_us[q] = p.value().execution_us;
    }
    dep.RunUntil([&dep] { return dep.sim().pending_events() == 0; }, 600 * kSec);

    tracing_ = InstallTracing(run_, dep);
    const size_t queries = Scaled(kFailoverQueriesPerSec, run_.args.seconds, kFailEvery);
    run_.tracer.Clear();
    phase_.Measure(run_, dep, [&] {
      for (size_t i = 0; i < queries; ++i) {
        if (!RunOne(names[i % names.size()], (i + 1) % kFailEvery == 0, &rng,
                    &healthy_us)) {
          return SimTime{-1};
        }
      }
      return dep.sim().now();
    });
    phase_.ops = static_cast<double>(run_.query_ms.size());
  }

  /// The oracle runs per query (SameBagApprox against ReferenceExecute);
  /// nothing is left to check at the end.
  void Verify() {}

  Phase& phase() { return phase_; }

 private:
  /// One closed-loop query; with `failover`, a seeded non-initiator dies at
  /// half the query's last healthy latency and restarts once it resolves.
  bool RunOne(const std::string& q, bool failover, Rng* rng,
              std::map<std::string, SimTime>* healthy_us) {
    deploy::Deployment& dep = *c_.dep;
    const size_t n = dep.size();
    size_t initiator = rng->Uniform(n);
    auto victim = static_cast<net::NodeId>((initiator + 1 + rng->Uniform(n - 1)) % n);
    SimTime due = dep.sim().now();
    int64_t host0 = HostNs();
    uint64_t op = run_.tracer.OpBegin(run_.query_op, due);
    run_.attempted += 1;
    auto plan = PlanSql(dep, c_.stats, workload::TpchQuerySql(q), initiator, &run_);
    if (!plan.ok()) {
      run_.failed += 1;
      run_.Fail(q + " does not plan: " + plan.status().ToString());
      return true;
    }
    Pending<query::QueryResult> p = ExecuteQuery(run_, dep, *plan, initiator, c_.epoch);
    bool killed = false;
    sim::Simulator::EventId kill_event = 0;
    if (failover) {
      kill_event = dep.sim().Schedule(due + (*healthy_us)[q] / 2, [&] {
        if (p.done()) return;
        killed = true;
        run_.Deploy(&run_.kill_ns, run_.kill_span, dep.sim().now(),
                    [&] { dep.KillNode(victim, /*update_routing=*/false); });
      });
    }
    bool resolved = run_.Drive(dep, [&p] { return p.done(); }, 600 * kSec);
    if (kill_event != 0) dep.sim().Cancel(kill_event);  // it captures this frame
    if (!resolved) {
      run_.failed += 1;
      return false;
    }
    SimTime latency = dep.sim().now() - due;
    run_.query_host_ms.push_back(Millis(HostNs() - host0));
    run_.tracer.OpEnd(op, dep.sim().now());
    run_.query_ms.push_back(SimMs(latency));
    if (killed) {
      run_.failover_ms.push_back(SimMs(latency));
      uint64_t rop = run_.tracer.OpBegin(run_.restart_op, dep.sim().now());
      run_.Deploy(&run_.restart_ns, run_.restart_span, dep.sim().now(),
                  [&] { dep.RestartNode(victim); });
      run_.Drive(dep, [&dep] { return dep.sim().pending_events() == 0; }, 600 * kSec);
      run_.tracer.OpEnd(rop, dep.sim().now());
    } else {
      (*healthy_us)[q] = latency;
    }
    if (!p.ok()) {
      run_.failed += 1;
      run_.Fail(q + " failed: " + p.status().ToString());
      return true;
    }
    run_.recoveries += p.value().recoveries;
    bool same = run_.Check(dep.sim().now(), [&] {
      return query::SameBagApprox(p.value().rows, expected_[q]);
    });
    if (!same) run_.Fail(q + " returned rows that differ from ReferenceExecute");
    return true;
  }

  Run& run_;
  TpchCluster c_;
  std::map<std::string, std::vector<Tuple>> expected_;
  std::vector<std::unique_ptr<TracingHandler>> tracing_;
  Phase phase_;
};

// ---------------------------------------------------------------------------
// multi_writer: 32 participants race one epoch chain, each overwriting its own
// 64-key stripe. Deployments with derived seeds run one after another and pool
// their samples; each is checked and torn down before the next one runs.

class MultiWriter {
 public:
  static constexpr size_t kWriters = 32;
  static constexpr size_t kNodes = kWriters + 2;
  static constexpr size_t kStripe = 64;
  static constexpr size_t kBatchRows = 8;
  static constexpr size_t kBatchesPerWriter = 32;
  static constexpr SimTime kThinkMeanUs = 200 * kMs;
  static constexpr const char* kRel = "hot";

  explicit MultiWriter(Run& run) : run_(run) {}
  ~MultiWriter() {
    for (Dep& d : deps_) Teardown(&d);
  }

  static storage::RelationDef Relation() {
    storage::RelationDef def;
    def.name = kRel;
    def.schema = storage::Schema(
        {{"k", storage::ValueType::kInt64}, {"v", storage::ValueType::kString}}, 1);
    def.num_partitions = 16;
    return def;
  }

  void Setup() {
    const size_t n = Scaled(kDeploymentsPerSec, run_.args.seconds, 1);
    auto built = TimedSetups(run_, [this, n] {
      std::vector<std::unique_ptr<deploy::Deployment>> deps;
      for (size_t d = 0; d < n; ++d) {
        deps.push_back(MakeDeployment(kNodes, SubSeed(d), 0, 8 * kSec));
        Status st = deps.back()->CreateRelation(0, Relation());
        if (!st.ok()) run_.Fail("create relation failed: " + st.ToString());
      }
      return deps;
    });
    deps_.resize(n);
    for (size_t d = 0; d < n; ++d) {
      deps_[d].dep = std::move(built[d]);
      deps_[d].base_epoch = deps_[d].dep->MaxKnownEpoch();
      deps_[d].model.resize(kWriters);
    }
  }

  void Measure() {
    run_.tracer.Clear();
    for (size_t di = 0; di < deps_.size(); ++di) {
      RunDeployment(di);
      Check(di);
      Teardown(&deps_[di]);
    }
  }

  /// Each deployment was checked right after its phase (Check).
  void Verify() {}

  Phase& phase() { return phase_; }

 private:
  struct Dep {
    std::unique_ptr<deploy::Deployment> dep;
    Epoch base_epoch = 0;
    std::vector<std::map<int64_t, std::string>> model;  // per writer: key -> value
    Rng rng{0};  // batch contents and think times
    std::vector<std::unique_ptr<WriteStream>> streams;
    std::vector<std::unique_ptr<TracingHandler>> tracing;
  };

  void RunDeployment(size_t di) {
    Dep& d = deps_[di];
    d.tracing = InstallTracing(run_, *d.dep);
    d.rng = Rng(SubSeed(di)).Fork(3);
    Rng& rng = d.rng;
    for (size_t w = 0; w < kWriters; ++w) {
      d.streams.push_back(std::make_unique<WriteStream>(
          &run_, d.dep.get(), w, kBatchesPerWriter,
          [this, &rng, w](size_t) {
            std::set<int64_t> keys;
            while (keys.size() < kBatchRows) {
              keys.insert(static_cast<int64_t>(w * kStripe + rng.Uniform(kStripe)));
            }
            storage::UpdateBatch b;
            auto& ups = b[kRel];
            for (int64_t k : keys) {
              Tuple t{Value(k), Value(rng.AlphaString(32))};
              phase_.user_bytes += static_cast<double>(TupleBytes(t));
              ups.push_back(storage::Update::Insert(std::move(t)));
            }
            return b;
          },
          [&d, w](size_t, const storage::UpdateBatch& b) {
            for (const auto& u : b.at(kRel)) {
              d.model[w][u.tuple[0].AsInt64()] = u.tuple[1].AsString();
            }
          }));
    }
    phase_.Measure(run_, *d.dep, [&] {
      for (auto& s : d.streams) {
        s->StartClosed(1, [&rng] { return Exponential(&rng, kThinkMeanUs); });
      }
      bool ok = run_.Drive(
          *d.dep,
          [&d] {
            for (const auto& s : d.streams) {
              if (!s->done()) return false;
            }
            return true;
          },
          3600 * kSec);
      SimTime last = 0;
      for (const auto& s : d.streams) last = std::max(last, s->last_commit_at());
      return ok ? last : SimTime{-1};
    });
    for (const auto& s : d.streams) {
      phase_.ops += static_cast<double>(s->count());
      run_.attempted += s->count();
      run_.failed += s->count() - s->committed();
    }
    for (const auto& stripe : d.model) {
      for (const auto& [k, v] : stripe) {
        phase_.live_bytes += static_cast<double>(TupleBytes({Value(k), Value(v)}));
      }
    }
  }

  /// Oracle: every batch committed exactly once, the chain is dense (chain
  /// epoch - base == commits), and each stripe reads back as the model. Runs
  /// with the plain NodeHosts back in place, so it is never traced.
  void Check(size_t di) {
    Dep& d = deps_[di];
    for (size_t i = 0; i < d.dep->size(); ++i) {
      d.dep->network().SetHandler(static_cast<net::NodeId>(i), &d.dep->host(i));
    }
    if (run_.args.perturb && di == 0 && !d.model[0].empty()) {
      d.model[0].begin()->second += "x";
    }
    std::string where = "deployment " + std::to_string(di);
    uint64_t commits = 0;
    Epoch chain = 0;
    for (const auto& s : d.streams) {
      for (size_t i = 0; i < s->count(); ++i) {
        if (s->commits(i) != 1) {
          run_.Fail(where + ": a batch committed " + std::to_string(s->commits(i)) +
                    " times");
        }
        commits += static_cast<uint64_t>(s->commits(i));
      }
      chain = std::max(chain, s->last_epoch());
    }
    if (chain - d.base_epoch != commits) {
      run_.Fail(where + ": chain epoch " + std::to_string(chain) + " from base " +
                std::to_string(d.base_epoch) + " but " + std::to_string(commits) +
                " commits");
    }
    storage::Schema schema = Relation().schema;
    auto key = [&schema](size_t k) {
      return storage::EncodeTupleKey(
          schema, {Value(static_cast<int64_t>(k)), Value(std::string())});
    };
    for (size_t w = 0; w < kWriters; ++w) {
      storage::KeyFilter f;
      f.all = false;
      f.lo = key(w * kStripe);
      f.hi = key((w + 1) * kStripe - 1);
      std::vector<Tuple> want;
      for (const auto& [k, v] : d.model[w]) want.push_back({Value(k), Value(v)});
      CheckRetrieve(run_, *d.dep, (w + 1) % kNodes, kRel, chain, f, want,
                    where + " stripe " + std::to_string(w));
    }
  }

  /// Releases a deployment; its streams ignore the aborts teardown resolves.
  static void Teardown(Dep* d) {
    for (auto& s : d->streams) s->Stop();
    d->dep.reset();
    d->streams.clear();
    d->tracing.clear();
  }

  uint64_t SubSeed(size_t d) const { return Rng(run_.args.seed).Fork(100 + d).NextU64(); }

  Run& run_;
  std::vector<Dep> deps_;
  Phase phase_;
};

// ---------------------------------------------------------------------------
// mixed_read_write: an open-loop writer overwrites lineitem rows while a
// closed-loop querier reads at the writer's last committed epoch.

/// lineitem under the writer's committed batches, with per-epoch before/after
/// images so a query can be checked at the epoch it read.
class LineitemModel {
 public:
  explicit LineitemModel(query::ReferenceDatabase db) : db_(std::move(db)) {}

  std::vector<Tuple>& rows() { return db_["lineitem"]; }

  double LiveBytes() const {
    double b = 0;
    for (const auto& [name, rows] : db_) b += RowsBytes(rows);
    return b;
  }

  void Commit(Epoch e, const std::vector<size_t>& idx, const std::vector<Tuple>& after) {
    auto& changes = log_[e];
    for (size_t j = 0; j < idx.size(); ++j) {
      changes.push_back({idx[j], rows()[idx[j]], after[j]});
      rows()[idx[j]] = after[j];
    }
    while (!log_.empty() && log_.begin()->first + kKeepEpochs < e) log_.erase(log_.begin());
  }

  /// Runs `fn` on the database as of epoch `e`, then restores the present.
  template <typename F>
  auto At(Epoch e, F&& fn) {
    for (auto it = log_.rbegin(); it != log_.rend() && it->first > e; ++it) {
      for (const Change& c : it->second) rows()[c.row] = c.before;
    }
    auto out = fn(static_cast<const query::ReferenceDatabase&>(db_));
    for (auto it = log_.upper_bound(e); it != log_.end(); ++it) {
      for (const Change& c : it->second) rows()[c.row] = c.after;
    }
    return out;
  }

 private:
  static constexpr Epoch kKeepEpochs = 256;
  struct Change {
    size_t row;
    Tuple before, after;
  };
  query::ReferenceDatabase db_;
  std::map<Epoch, std::vector<Change>> log_;
};

class MixedReadWrite {
 public:
  static constexpr size_t kBatchRows = 64;
  static constexpr SimTime kArrivalMeanUs = 100 * kMs;
  static constexpr uint64_t kArrivalTraceSeed = 99;
  static constexpr SimTime kThinkUs = 80 * kMs;
  static constexpr size_t kQuantityCol = 4;  // l_quantity
  static constexpr size_t kPriceCol = 5;     // l_extendedprice

  explicit MixedReadWrite(Run& run) : run_(run) {}
  ~MixedReadWrite() {
    if (writer_) writer_->Stop();
    stopped_ = true;
    c_.dep.reset();
  }

  void Setup() {
    c_ = TimedSetups(run_, [this] { return MakeTpchCluster(run_, /*gc_keep_epochs=*/16); });
    phase_.user_bytes = AllRowsBytes(c_.rels);
    model_ = std::make_unique<LineitemModel>(workload::AsReferenceDb(c_.rels));
    names_ = {"Q1", "Q3", "Q6", "Q10"};
  }

  void Measure() {
    deploy::Deployment& dep = *c_.dep;
    tracing_ = InstallTracing(run_, dep);
    const size_t publishes = Scaled(kMixedPublishesPerSec, run_.args.seconds, 2);
    min_queries_ = publishes;
    initiator_ = 1 + rng_.Uniform(dep.size() - 1);
    std::vector<SimTime> dues(publishes);
    SimTime t = dep.sim().now();
    // The arrival trace is the same for every seed: the seed picks the data,
    // the rows each batch rewrites and the query initiator, not the load
    // shape, whose Poisson sampling noise would otherwise swamp the latency
    // quantiles at 200 samples.
    Rng arrivals(kArrivalTraceSeed);
    for (SimTime& d : dues) d = t += Exponential(&arrivals, kArrivalMeanUs);
    rows_of_.resize(publishes);

    writer_ = std::make_unique<WriteStream>(
        &run_, &dep, 0, publishes,
        [this](size_t i) {
          std::vector<Tuple>& rows = model_->rows();
          std::set<size_t> pick;
          while (pick.size() < kBatchRows) pick.insert(rng_.Uniform(rows.size()));
          storage::UpdateBatch b;
          auto& ups = b["lineitem"];
          for (size_t r : pick) {
            Tuple row = rows[r];
            double qty = 1 + static_cast<double>(rng_.Uniform(50));
            double price = 900.0 + static_cast<double>(rng_.Uniform(104000)) / 1.04;
            row[kQuantityCol] = Value(qty);
            row[kPriceCol] = Value(qty * price / 100.0);
            phase_.user_bytes += static_cast<double>(TupleBytes(row));
            ups.push_back(storage::Update::Insert(std::move(row)));
          }
          rows_of_[i].assign(pick.begin(), pick.end());
          return b;
        },
        [this](size_t i, const storage::UpdateBatch& b) {
          std::vector<Tuple> after;
          for (const auto& u : b.at("lineitem")) after.push_back(u.tuple);
          model_->Commit(c_.dep->session(0).last_epoch(), rows_of_[i], after);
        });

    run_.tracer.Clear();
    phase_.Measure(run_, dep, [&] {
      writer_->StartOpen(dues);
      dep.sim().ScheduleAfter(kThinkUs, [this] { IssueQuery(); });
      bool ok = run_.Drive(dep, [this] { return Finished() && !query_in_flight_; },
                           3600 * kSec);
      return ok ? std::max(writer_->last_commit_at(), last_query_at_) : SimTime{-1};
    });
    phase_.ops = static_cast<double>(writer_->count() + run_.query_ms.size());
    phase_.live_bytes = model_->LiveBytes();
    run_.attempted += writer_->count();
    run_.failed += writer_->count() - writer_->committed();
  }

  /// The oracle runs per query (SameBagApprox against ReferenceExecute at the
  /// query's epoch); nothing is left to check at the end.
  void Verify() {}

  Phase& phase() { return phase_; }

 private:
  bool Finished() const { return writer_->done() && queries_done_ >= min_queries_; }

  void IssueQuery() {
    if (stopped_ || Finished()) return;
    deploy::Deployment& dep = *c_.dep;
    const std::string& q = names_[queries_issued_++ % names_.size()];
    Epoch epoch = dep.session(0).last_epoch();
    SimTime due = dep.sim().now();
    int64_t host0 = HostNs();
    uint64_t op = run_.tracer.OpBegin(run_.query_op, due);
    run_.attempted += 1;
    auto plan = PlanSql(dep, c_.stats, workload::TpchQuerySql(q), initiator_, &run_);
    if (!plan.ok()) {
      run_.failed += 1;
      run_.Fail(q + " does not plan: " + plan.status().ToString());
      return;
    }
    query_in_flight_ = true;
    Pending<query::QueryResult> p = ExecuteQuery(run_, dep, *plan, initiator_, epoch);
    p.OnReady([this, p, q, epoch, due, host0, op, plan = *plan] {
      if (stopped_) return;
      deploy::Deployment& d = *c_.dep;
      SimTime now = d.sim().now();
      query_in_flight_ = false;
      queries_done_ += 1;
      last_query_at_ = now;
      run_.query_ms.push_back(SimMs(now - due));
      run_.query_host_ms.push_back(Millis(HostNs() - host0));
      run_.tracer.OpEnd(op, now);
      if (!p.ok()) {
        run_.failed += 1;
        run_.Fail(q + " failed at epoch " + std::to_string(epoch) + ": " +
                  p.status().ToString());
      } else {
        std::string why = run_.Check(now, [&] { return Compare(q, plan, epoch, p.value()); });
        if (!why.empty()) run_.Fail(why);
      }
      d.sim().ScheduleAfter(kThinkUs, [this] { IssueQuery(); });
    });
  }

  /// Empty when the result matches ReferenceExecute at `epoch`.
  std::string Compare(const std::string& q, const query::PhysicalPlan& plan, Epoch epoch,
                      const query::QueryResult& got) {
    auto ref = model_->At(epoch, [&](const query::ReferenceDatabase& db) {
      return query::ReferenceExecute(plan, db);
    });
    if (!ref.ok()) return q + " reference failed: " + ref.status().ToString();
    if (run_.args.perturb && !perturbed_) perturbed_ = PerturbRows(&*ref);
    if (!query::SameBagApprox(got.rows, *ref)) {
      return q + " at epoch " + std::to_string(epoch) + " differs from ReferenceExecute";
    }
    return "";
  }

  Run& run_;
  TpchCluster c_;
  std::unique_ptr<LineitemModel> model_;
  std::vector<std::string> names_;
  std::vector<std::vector<size_t>> rows_of_;
  Rng rng_ = Rng(run_.args.seed).Fork(4);
  std::unique_ptr<WriteStream> writer_;
  std::vector<std::unique_ptr<TracingHandler>> tracing_;
  size_t initiator_ = 1;
  size_t min_queries_ = 0;
  size_t queries_issued_ = 0;
  size_t queries_done_ = 0;
  bool query_in_flight_ = false;
  SimTime last_query_at_ = 0;
  bool perturbed_ = false;
  bool stopped_ = false;
  Phase phase_;
};

// ---------------------------------------------------------------------------
// Metrics. Names and units here must match BENCHMARK.json; run.py --smoke
// checks that they do.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The tail percentile a sample of `n` supports: the highest of p95 and p99
/// with at least ten samples beyond it (p95 for small samples too).
double TailQ(size_t n) { return static_cast<double>(n) * 0.01 >= 10 ? 0.99 : 0.95; }

/// Latency over the run's operations: the median (tail = false) or the tail
/// percentile. A workload with both publishes and queries reports the
/// geometric mean of the two classes' values, so a change to either class
/// moves it; the client.* per-layer metrics split them.
double OpLatencyMs(const Run& run, bool tail) {
  auto stat = [tail](const std::vector<double>& v) {
    return Quantile(v, tail ? TailQ(v.size()) : 0.5);
  };
  if (run.publish_ms.empty()) return stat(run.query_ms);
  if (run.query_ms.empty()) return stat(run.publish_ms);
  return std::sqrt(stat(run.publish_ms) * stat(run.query_ms));
}

std::vector<Metric> EndToEnd(const Run& run, const Phase& ph) {
  double own_ns = static_cast<double>(run.gen_ns + run.check_ns + run.probe_ns);
  return {
      {"setup_s", Quantile(run.setup_s, 0.5), "s"},
      {"host_s", (static_cast<double>(ph.wall_ns) - own_ns) / 1e9 * run.HostSpeed(), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"wire_mb", ph.delta.count("net.bytes") ? ph.delta.at("net.bytes") / 1e6 : 0, "MB"},
      {"op_sim_ms_p50", OpLatencyMs(run, false), "ms"},
      {"op_sim_ms_tail", OpLatencyMs(run, true), "ms"},
      {"ops_per_sim_s", Ratio(ph.ops, ph.sim_s), "1/s"},
      {"write_amp", Ratio(ph.wal_bytes, ph.user_bytes), "ratio"},
      {"space_amp", Ratio(ph.stored_bytes, ph.live_bytes), "ratio"},
  };
}

constexpr const char* kStorageSpans[] = {
    "put_tuples",   "put_page",     "reply",      "get_page",
    "scan_page",    "fetch_tuples", "tuple_data", "replica_push",
    "claim_epoch",  "get_epoch_claim", "confirm_epoch"};
constexpr const char* kQuerySpans[] = {"plan",        "data_block",  "eos_marker",
                                       "scan_part_done", "query_fetch", "ship_block",
                                       "ship_eos",    "recover",     "abort"};

/// Spans the benchmark records around its own calls; every other span name is a
/// message handler's.
bool IsBenchmarkSpan(const std::string& name) {
  for (const char* p : {"bench.", "client.", "sql.", "optimizer.", "deploy.", "op."}) {
    if (name.rfind(p, 0) == 0) return true;
  }
  return false;
}

std::vector<Metric> PerLayer(const Run& run, const Phase& ph) {
  const Tracer& tr = run.tracer;
  auto delta = [&ph](const char* name) {
    auto it = ph.delta.find(name);
    return it == ph.delta.end() ? 0.0 : it->second;
  };
  auto self_ms = [&tr](const std::string& name) { return Millis(tr.Get(name).self_ns); };
  auto p99_us = [&tr](const std::string& name) {
    const auto& s = tr.Get(name).self_samples_ns;
    return Quantile(std::vector<double>(s.begin(), s.end()), 0.99) / 1e3;
  };
  std::vector<Metric> m;
  auto add = [&m](std::string name, double v, const char* unit) {
    m.push_back({std::move(name), v, unit});
  };

  add("client.submitted", delta("client.submitted"), "count");
  add("client.ticket_failures", delta("client.ticket_failures"), "count");
  add("client.backlog_max", static_cast<double>(run.backlog_max), "count");
  add("client.call_host_ms", self_ms("client.call"), "ms");
  add("client.publish_sim_ms_p50", Quantile(run.publish_ms, 0.5), "ms");
  add("client.publish_sim_ms_p95", Quantile(run.publish_ms, 0.95), "ms");
  add("client.query_sim_ms_p50", Quantile(run.query_ms, 0.5), "ms");
  add("client.query_sim_ms_p95", Quantile(run.query_ms, 0.95), "ms");
  add("client.failover_sim_ms_p50", Quantile(run.failover_ms, 0.5), "ms");
  add("client.query_host_ms_p50", Quantile(run.query_host_ms, 0.5), "ms");

  add("publisher.publishes", delta("publisher.publishes"), "count");
  add("publisher.chained", delta("publisher.chained"), "count");
  add("publisher.epoch_conflicts", delta("publisher.epoch_conflicts"), "count");
  add("publisher.rebases", delta("publisher.rebases"), "count");
  add("publisher.useful_ratio", Ratio(delta("client.commits"), delta("publisher.publishes")),
      "ratio");

  double named_handler_ms = 0;
  for (const char* h : kStorageSpans) {
    std::string name = std::string("storage.") + h;
    add(name + ".calls", static_cast<double>(tr.Get(name).calls), "count");
    add(name + ".host_ms", self_ms(name), "ms");
    named_handler_ms += self_ms(name);
  }
  add("storage.put_tuples.host_us_p99", p99_us("storage.put_tuples"), "us");
  add("storage.put_page.host_us_p99", p99_us("storage.put_page"), "us");
  add("storage.tuples_stored", delta("storage.tuples_stored"), "count");
  add("storage.pages_stored", delta("storage.pages_stored"), "count");
  add("storage.tuples_served", delta("storage.tuples_served"), "count");
  add("storage.claims_refused", delta("storage.claims_refused"), "count");
  add("gc.slices", delta("gc.slices"), "count");
  add("gc.retired", delta("gc.retired"), "count");

  add("localstore.puts", delta("localstore.puts"), "count");
  add("localstore.gets", delta("localstore.gets"), "count");
  add("localstore.log_mb", delta("localstore.log_bytes") / 1e6, "MB");
  add("localstore.compactions", delta("localstore.compactions"), "count");
  add("localstore.arena_mb", ph.arena_bytes / 1e6, "MB");

  add("wal.records", delta("wal.records"), "count");
  add("wal.mb", delta("wal.bytes") / 1e6, "MB");
  add("wal.syncs", delta("wal.syncs"), "count");
  add("wal.checkpoints", delta("wal.checkpoints"), "count");
  add("wal.replayed_records", delta("wal.replayed_records"), "count");

  add("hash.tuple_key_hashes", delta("hash.tuple_key_hashes"), "count");
  add("hash.per_tuple", Ratio(delta("hash.tuple_key_hashes"), run.published_tuples), "ratio");

  add("net.messages", delta("net.messages"), "count");
  add("net.max_inbox_msgs", ph.max_inbox, "count");
  add("rpc.started", delta("rpc.started"), "count");
  add("rpc.timed_out", delta("rpc.timed_out"), "count");
  add("rpc.reaped", delta("rpc.reaped"), "count");

  for (const char* h : kQuerySpans) {
    std::string name = std::string("query.") + h;
    add(name + ".calls", static_cast<double>(tr.Get(name).calls), "count");
    add(name + ".host_ms", self_ms(name), "ms");
    named_handler_ms += self_ms(name);
  }
  add("query.blocks_sent", delta("query.blocks_sent"), "count");
  add("query.rows_routed", delta("query.rows_routed"), "count");
  add("query.rows_shipped", delta("query.rows_shipped"), "count");
  add("query.scans_restarted", delta("query.scans_restarted"), "count");
  add("query.cache_rows_resent", delta("query.cache_rows_resent"), "count");
  add("query.recoveries", static_cast<double>(run.recoveries), "count");

  double handler_ms = 0;
  for (const std::string& name : tr.names()) {
    if (!IsBenchmarkSpan(name)) handler_ms += self_ms(name);
  }
  add("net.other_handler_host_ms", handler_ms - named_handler_ms, "ms");

  add("sql.parse_host_ms", self_ms("sql.parse"), "ms");
  add("optimizer.plan_host_ms", self_ms("optimizer.plan"), "ms");
  add("optimizer.memo_entries", run.memo_entries, "count");
  add("deploy.restart_host_ms", Millis(run.restart_ns), "ms");
  add("deploy.kill_host_ms", Millis(run.kill_ns), "ms");

  add("sim.events", delta("sim.events"), "count");
  add("sim.loop_host_ms", Millis(ph.wall_ns), "ms");
  add("sim.unattributed_host_ms", Millis(ph.wall_ns - tr.top_level_ns()), "ms");
  add("bench.check_host_ms", Millis(run.check_ns), "ms");
  add("bench.gen_host_ms", Millis(run.gen_ns), "ms");
  add("bench.probe_host_ms", Millis(run.probe_ns), "ms");
  add("bench.host_speed", run.HostSpeed(), "ratio");
  add("trace.overhead_pct",
      Ratio(static_cast<double>(tr.span_count()) * Tracer::CalibrateSpanCostNs(),
            static_cast<double>(ph.wall_ns)) * 100,
      "%");
  return m;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

bool WriteResult(const Args& a, const Run& run, const Phase& ph,
                 const std::vector<Metric>& metrics) {
  std::FILE* f = std::fopen(a.out.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
               "\"traced\": %s, \"correct\": %s, \"failure\": \"%s\", "
               "\"attempted\": %llu, \"failed\": %llu, \"trace_digest\": \"%016llx\", "
               "\"host_speed\": %.6g, "
               "\"samples\": {\"publish\": %zu, \"query\": %zu, \"failover\": %zu},\n"
               " \"metrics\": {",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
               a.trace_path.empty() ? "false" : "true", run.correct ? "true" : "false",
               JsonEscape(run.failure).c_str(), static_cast<unsigned long long>(run.attempted),
               static_cast<unsigned long long>(run.failed),
               static_cast<unsigned long long>(ph.digest), run.HostSpeed(), run.publish_ms.size(),
               run.query_ms.size(), run.failover_ms.size());
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::fprintf(f, "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? "," : "",
                 metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::fputs("}}\n", f);
  return std::fclose(f) == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: orchestra_bench --workload "
               "publish_incremental|query_failover|multi_writer|mixed_read_write\n"
               "       --seed N --out FILE [--seconds S] [--trace TRACE_FILE] [--perturb]\n");
  return 2;
}

template <typename W>
void Execute(Run& run, std::vector<Metric>* metrics, Phase* phase) {
  W w(run);
  w.Setup();
  if (run.correct) w.Measure();
  *metrics = run.tracer.enabled() ? PerLayer(run, w.phase()) : EndToEnd(run, w.phase());
  *phase = w.phase();
  if (run.tracer.enabled() && !run.tracer.WriteChromeTrace(run.args.trace_path)) {
    std::fprintf(stderr, "orchestra_bench: cannot write %s\n", run.args.trace_path.c_str());
  }
  if (run.correct) w.Verify();
}

int Main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--perturb") {
      a.perturb = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace_path = v;
    } else {
      return Usage();
    }
  }
  if (a.out.empty() || !(a.seconds > 0)) return Usage();

  Run run(a);
  std::vector<Metric> metrics;
  Phase phase;
  if (a.workload == "publish_incremental") {
    Execute<PublishIncremental>(run, &metrics, &phase);
  } else if (a.workload == "query_failover") {
    Execute<QueryFailover>(run, &metrics, &phase);
  } else if (a.workload == "multi_writer") {
    Execute<MultiWriter>(run, &metrics, &phase);
  } else if (a.workload == "mixed_read_write") {
    Execute<MixedReadWrite>(run, &metrics, &phase);
  } else {
    return Usage();
  }
  if (!WriteResult(a, run, phase, metrics)) {
    std::fprintf(stderr, "orchestra_bench: cannot write %s\n", a.out.c_str());
    return 1;
  }
  if (!run.correct) {
    std::fprintf(stderr, "orchestra_bench: %s seed %llu: check failed: %s\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                 run.failure.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace orchestra::benchmark

int main(int argc, char** argv) { return orchestra::benchmark::Main(argc, argv); }
