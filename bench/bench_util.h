// Shared harness plumbing for the benchmarks. bench_figures regenerates the
// publish-and-query experiments of §VI (Figs. 7-20); the other binaries in
// this directory cover failure detection, recovery and the substrate. Each
// prints the rows/series of its plot in CSV form.
//
// ORCHESTRA_BENCH_SCALE=small|paper selects data sizes. `small` (default)
// keeps the whole suite to minutes while preserving every trend; `paper`
// uses the paper's sizes (hours of wall time — the simulator processes every
// tuple).
#ifndef ORCHESTRA_BENCH_BENCH_UTIL_H_
#define ORCHESTRA_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "deploy/deployment.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"
#include "workload/stbench.h"
#include "workload/tpch.h"

namespace orchestra::bench {

inline bool PaperScale() {
  const char* env = std::getenv("ORCHESTRA_BENCH_SCALE");
  return env != nullptr && std::string(env) == "paper";
}

// --------------------------------------------------------------------------
// JSON result emission. Every bench writes BENCH_<name>.json next to its CSV
// output so the perf trajectory of the hot paths is machine-trackable across
// PRs. Each entry carries the same four required fields:
//   ops_per_sec      throughput of whatever the entry counts as an op
//   wall_clock_s     real (host) time spent
//   sim_makespan_s   simulated time consumed (0 for pure micro benches)
//   wire_bytes       bytes put on the simulated wire (0 for micro benches)
// plus optional free-form extra numeric fields.

inline double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class JsonReport {
 public:
  struct Entry {
    std::string name;
    double ops = 0;
    double ops_per_sec = 0;
    double wall_clock_s = 0;
    double sim_makespan_s = 0;
    double wire_bytes = 0;
    std::vector<std::pair<std::string, double>> extra;
  };

  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}
  ~JsonReport() { Write(); }
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  const std::string& bench() const { return bench_; }

  /// Convenience: derive ops_per_sec from ops + wall clock.
  void AddTimed(const std::string& name, double ops, double wall_s,
                double sim_s = 0, double wire_bytes = 0,
                std::vector<std::pair<std::string, double>> extra = {}) {
    Entry e;
    e.name = name;
    e.ops = ops;
    e.wall_clock_s = wall_s;
    e.ops_per_sec = wall_s > 0 ? ops / wall_s : 0;
    e.sim_makespan_s = sim_s;
    e.wire_bytes = wire_bytes;
    e.extra = std::move(extra);
    entries_.push_back(std::move(e));
  }

  std::string Path() const {
    const char* dir = std::getenv("ORCHESTRA_BENCH_JSON_DIR");
    std::string base = dir != nullptr ? std::string(dir) + "/" : std::string();
    return base + "BENCH_" + bench_ + ".json";
  }

  void Write() const {
    FILE* f = std::fopen(Path().c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"scale\": \"%s\",\n",
                 bench_.c_str(), PaperScale() ? "paper" : "small");
    std::fprintf(f, "  \"entries\": [\n");
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"ops\": %.6g, \"ops_per_sec\": "
                   "%.6g, \"wall_clock_s\": %.6g, \"sim_makespan_s\": %.6g, "
                   "\"wire_bytes\": %.6g",
                   e.name.c_str(), e.ops, e.ops_per_sec, e.wall_clock_s,
                   e.sim_makespan_s, e.wire_bytes);
      for (const auto& [k, v] : e.extra) {
        std::fprintf(f, ", \"%s\": %.6g", k.c_str(), v);
      }
      std::fprintf(f, "}%s\n", i + 1 == entries_.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

 private:
  std::string bench_;
  std::vector<Entry> entries_;
};

/// STBenchmark tuples per relation: paper 800K; small keeps the shape.
inline uint64_t StbTuples(double relative = 1.0) {
  return static_cast<uint64_t>((PaperScale() ? 800000.0 : 4000.0) * relative);
}

/// TPC-H scale factor: `relative` is in units of the paper's SF (e.g. pass
/// 0.5 for the paper's SF 0.5 runs).
inline double TpchSf(double relative) {
  return (PaperScale() ? 1.0 : 0.008) * relative;
}

struct Cluster {
  std::unique_ptr<deploy::Deployment> dep;
  std::vector<workload::GeneratedRelation> rels;
  storage::Epoch epoch = 0;
  optimizer::StatsCatalog stats;
  // Publish-phase (workload::Load) metrics for the bench JSON.
  double load_wall_s = 0;
  double load_sim_s = 0;
  uint64_t load_wire_bytes = 0;
  uint64_t load_rows = 0;
};

inline Cluster MakeCluster(std::vector<workload::GeneratedRelation> rels,
                           size_t nodes, net::LinkParams link = {}) {
  Cluster c;
  deploy::DeploymentOptions opts;
  opts.num_nodes = nodes;
  opts.replication = 3;
  opts.link = link;
  c.dep = std::make_unique<deploy::Deployment>(opts);
  c.rels = std::move(rels);
  for (const auto& rel : c.rels) c.load_rows += rel.rows.size();
  double wall0 = WallSeconds();
  double sim0 = static_cast<double>(c.dep->sim().now()) / 1e6;
  uint64_t wire0 = c.dep->network().total_bytes();
  auto epoch = workload::Load(c.dep.get(), 0, c.rels);
  if (!epoch.ok()) {
    std::fprintf(stderr, "load failed: %s\n", epoch.status().ToString().c_str());
    std::exit(1);
  }
  c.load_wall_s = WallSeconds() - wall0;
  c.load_sim_s = static_cast<double>(c.dep->sim().now()) / 1e6 - sim0;
  c.load_wire_bytes = c.dep->network().total_bytes() - wire0;
  c.epoch = *epoch;
  c.stats = workload::StatsFor(c.rels);
  return c;
}

/// Adds the cluster's publish/load phase to `report` under `name`.
inline void ReportLoad(JsonReport& report, const std::string& name,
                       const Cluster& c) {
  report.AddTimed(name, static_cast<double>(c.load_rows), c.load_wall_s,
                  c.load_sim_s, static_cast<double>(c.load_wire_bytes));
}

inline query::PhysicalPlan PlanSql(Cluster& c, const std::string& sql_text) {
  auto catalog = [&c](const std::string& name) {
    return c.dep->storage(0).Relation(name);
  };
  auto q = sql::ParseAndAnalyze(sql_text, catalog);
  if (!q.ok()) {
    std::fprintf(stderr, "parse failed: %s\n", q.status().ToString().c_str());
    std::exit(1);
  }
  optimizer::CostParams params;
  params.num_nodes = c.dep->size();
  params.bandwidth_bytes_per_sec = c.dep->options().link.bandwidth_bytes_per_sec;
  optimizer::Optimizer opt(c.stats, params);
  auto planned = opt.Plan(*q);
  if (!planned.ok()) {
    std::fprintf(stderr, "plan failed: %s\n", planned.status().ToString().c_str());
    std::exit(1);
  }
  return planned->plan;
}

struct RunMetrics {
  double time_s = 0;
  double wall_s = 0;
  double total_mb = 0;
  double per_node_mb = 0;
  size_t rows = 0;
};

/// Runs a query from node 0 with fresh traffic counters.
inline RunMetrics RunQuery(Cluster& c, const query::PhysicalPlan& plan,
                           query::QueryOptions options = {}) {
  c.dep->network().ResetTraffic();
  double wall0 = WallSeconds();
  auto result = c.dep->ExecuteQuery(0, plan, c.epoch, options);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  RunMetrics m;
  m.time_s = static_cast<double>(result->execution_us) / 1e6;
  m.wall_s = WallSeconds() - wall0;
  m.total_mb = static_cast<double>(c.dep->network().total_bytes()) / 1e6;
  m.per_node_mb = m.total_mb / static_cast<double>(c.dep->size());
  m.rows = result->rows.size();
  return m;
}

/// Adds one query run to `report`: ops = result rows, makespan = simulated
/// execution time, wire_bytes = bytes the run put on the network.
inline void ReportRun(JsonReport& report, const std::string& name,
                      const RunMetrics& m,
                      std::vector<std::pair<std::string, double>> extra = {}) {
  report.AddTimed(name, static_cast<double>(m.rows), m.wall_s, m.time_s,
                  m.total_mb * 1e6, std::move(extra));
}

inline void Header(const std::string& what) {
  std::printf("\n=== %s ===\n", what.c_str());
}

}  // namespace orchestra::bench

#endif  // ORCHESTRA_BENCH_BENCH_UTIL_H_
