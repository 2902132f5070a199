// Figures 7-20 of §VI: the publish-and-query experiments. Each figure is a
// sweep over one cluster parameter (node count, data size, link bandwidth or
// latency); at every point the figure loads a cluster, runs its queries on it
// and reports each run. All figures print one CSV schema and each writes
// BENCH_<figure>.json.
//
//   bench_figures [figure]   # e.g. fig17_bandwidth; no argument runs them all
#include <cstring>

#include "bench/bench_util.h"
#include "common/strings.h"

using namespace orchestra;
using namespace orchestra::bench;

namespace {

/// Runs `sql` on `c`, records the run as query_<series>_<point> and prints
/// its CSV row.
void Query(JsonReport& report, Cluster& c, const std::string& series,
           const std::string& point, const std::string& sql) {
  RunMetrics m = RunQuery(c, PlanSql(c, sql));
  ReportRun(report, "query_" + series + "_" + point, m);
  std::printf("%s,%s,%s,%.3f,%.2f,%.2f,%zu\n", report.bench().c_str(),
              series.c_str(), point.c_str(), m.time_s, m.total_mb, m.per_node_mb,
              m.rows);
  std::fflush(stdout);
}

void TpchQueries(JsonReport& report, Cluster& c, const std::string& point) {
  for (const std::string& q : workload::TpchQueryNames()) {
    Query(report, c, q, point, workload::TpchQuerySql(q));
  }
}

/// Loads one STBench scenario on `nodes` nodes and runs its query.
void StbPoint(JsonReport& report, workload::StbScenario scenario, uint64_t tuples,
              size_t partitions, size_t nodes, const std::string& point) {
  workload::StbConfig cfg;
  cfg.tuples_per_relation = tuples;
  cfg.num_partitions = static_cast<uint32_t>(partitions);
  Cluster c = MakeCluster(workload::StbGenerate(scenario, cfg), nodes);
  std::string series = workload::StbScenarioName(scenario);
  ReportLoad(report, "publish_" + series + "_" + point, c);
  Query(report, c, series, point, workload::StbQuerySql(scenario));
}

/// TPC-H at `relative` times the paper's scale factor.
std::vector<workload::GeneratedRelation> Tpch(double relative, size_t partitions) {
  workload::TpchConfig cfg;
  cfg.scale_factor = TpchSf(relative);
  cfg.num_partitions = static_cast<uint32_t>(partitions);
  return workload::TpchGenerate(cfg);
}

/// Loads `data` on `nodes` nodes and runs every TPC-H query.
void TpchPoint(JsonReport& report, std::vector<workload::GeneratedRelation> data,
               size_t nodes, const std::string& point, net::LinkParams link = {}) {
  Cluster c = MakeCluster(std::move(data), nodes, link);
  ReportLoad(report, "publish_" + point, c);
  TpchQueries(report, c, point);
}

// Figs. 7/8/9: STBenchmark vs node count (paper: 800K tuples/relation).
void Fig07_09(JsonReport& report) {
  for (workload::StbScenario scenario : workload::kAllStbScenarios) {
    for (size_t nodes : {1, 2, 4, 8, 16}) {
      StbPoint(report, scenario, StbTuples(), 4 * std::max<size_t>(nodes, 4), nodes,
               Tag("n", nodes));
    }
  }
}

// Figs. 10/11/12: TPC-H vs node count (paper: SF 0.5).
void Fig10_12(JsonReport& report) {
  for (size_t nodes : {1, 2, 4, 8, 16}) {
    TpchPoint(report, Tpch(0.5, 4 * std::max<size_t>(nodes, 4)), nodes,
              Tag("n", nodes));
  }
}

// Figs. 13/15: STBenchmark vs tuples per relation, 8 nodes (paper: 100K-1.6M).
void Fig13_15(JsonReport& report) {
  for (workload::StbScenario scenario : workload::kAllStbScenarios) {
    for (double relative : {0.125, 0.25, 0.5, 1.0, 2.0}) {
      uint64_t tuples = StbTuples(relative);
      StbPoint(report, scenario, tuples, 32, 8, Tag("t", tuples));
    }
  }
}

// Figs. 14/16: TPC-H vs scale factor, 8 nodes (paper: SF 0.25-4).
void Fig14_16(JsonReport& report) {
  for (double relative : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    TpchPoint(report, Tpch(relative, 32), 8,
              "sf" + std::to_string(relative).substr(0, 4));
  }
}

// Fig. 17: TPC-H vs per-node bandwidth, 8 nodes (paper: SF 4), then the
// latency points behind the paper's text-only claim that latencies up to
// 200 ms had little impact. Loads once at full speed (the paper shapes
// traffic only for queries), then re-shapes every link per point; queries
// are read-only.
void Fig17(JsonReport& report) {
  Cluster c = MakeCluster(Tpch(4.0, 32), 8);
  ReportLoad(report, "publish_sf4", c);
  for (double kbps : {100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0}) {
    c.dep->network().SetAllLinkParams({kbps * 1000.0, 100});
    TpchQueries(report, c, Tag("kbps", static_cast<uint64_t>(kbps)));
  }
  for (double ms : {0.1, 20.0, 50.0, 100.0, 200.0}) {
    auto latency_us = static_cast<sim::SimTime>(ms * 1000.0);
    c.dep->network().SetAllLinkParams({125.0e6, latency_us});
    TpchQueries(report, c, Tag("lat", latency_us) + "us");
  }
}

// Figs. 18/19/20: TPC-H on 10-100 nodes (paper: SF 10 on EC2 "large"
// instances, a fat datacenter network with sub-ms latency).
void Fig18_20(JsonReport& report) {
  auto data = Tpch(10.0, 200);
  for (size_t nodes : {10, 20, 40, 70, 100}) {
    TpchPoint(report, data, nodes, Tag("n", nodes), {100.0e6, 300});
  }
}

struct Figure {
  const char* name;
  void (*run)(JsonReport&);
};

constexpr Figure kFigures[] = {
    {"fig07_09_stb_nodes", Fig07_09},  {"fig10_12_tpch_nodes", Fig10_12},
    {"fig13_15_stb_scale", Fig13_15},  {"fig14_16_tpch_scale", Fig14_16},
    {"fig17_bandwidth", Fig17},        {"fig18_20_scaleout", Fig18_20},
};

}  // namespace

int main(int argc, char** argv) {
  const char* only = argc > 1 ? argv[1] : nullptr;
  std::printf("# %s scale: %llu STBench tuples/relation, TPC-H SF = paper SF x %.4f\n",
              PaperScale() ? "paper" : "small",
              static_cast<unsigned long long>(StbTuples()), TpchSf(1.0));
  std::printf("figure,series,point,time_s,total_traffic_MB,per_node_traffic_MB,rows\n");
  bool ran = false;
  for (const Figure& f : kFigures) {
    if (only != nullptr && std::strcmp(only, f.name) != 0) continue;
    JsonReport report(f.name);
    f.run(report);
    ran = true;
  }
  if (!ran) {
    std::fprintf(stderr, "unknown figure '%s'; one of:", only);
    for (const Figure& f : kFigures) std::fprintf(stderr, " %s", f.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  return 0;
}
