// Failure-detection methods (§V-C, validated per the abstract): TCP
// connection drop detects a crashed node almost immediately, while a "hung"
// machine is only caught by background pings after ~interval * threshold.
// Reports detection latency (failure -> initiator reacts) for both methods.
#include "bench/bench_util.h"

using namespace orchestra;
using namespace orchestra::bench;

namespace {

struct Detection {
  double detect_s = 0;  // failure -> recovery triggered
  double total_s = 0;
};

Detection Measure(bench::Cluster& cluster, const query::PhysicalPlan& plan,
                  bool hang, sim::SimTime ping_interval_us,
                  sim::SimTime base_us) {
  bool done = false;
  query::QueryResult result;
  query::QueryOptions opts;
  opts.ping_interval_us = ping_interval_us;
  cluster.dep->query(0).Execute(plan, cluster.epoch, opts,
                                [&](Status st, query::QueryResult r) {
                                  if (!st.ok()) {
                                    std::fprintf(stderr, "query failed: %s\n",
                                                 st.ToString().c_str());
                                    std::exit(1);
                                  }
                                  result = std::move(r);
                                  done = true;
                                });
  // Fail 30% into the calibrated runtime.
  sim::SimTime start = cluster.dep->sim().now();
  cluster.dep->RunFor(base_us * 3 / 10);
  sim::SimTime fail_time = cluster.dep->sim().now();
  if (hang) {
    cluster.dep->network().HangNode(4);
  } else {
    cluster.dep->KillNode(4, false);
  }
  cluster.dep->RunUntil([&] { return done; }, 3600 * sim::kMicrosPerSec);
  Detection d;
  d.total_s = static_cast<double>(cluster.dep->sim().now() - start) / 1e6;
  // Time-to-done measured from the failure instant: for a crash this is
  // recovery work plus ~one link latency of detection; for a hang it is
  // dominated by ping_interval * (threshold + 1) of waiting.
  d.detect_s = static_cast<double>(cluster.dep->sim().now() - fail_time) / 1e6;
  (void)result;
  return d;
}

}  // namespace

int main() {
  Header("Failure detection: TCP connection drop vs background pings");
  std::printf("# crash: TCP reset notifies peers within one link latency\n");
  std::printf("# hang:  only pings notice (interval * (threshold+1))\n");
  std::printf("method,failure,ping_interval_ms,time_from_failure_to_done_s\n");

  workload::TpchConfig cfg;
  cfg.scale_factor = TpchSf(0.5);
  cfg.num_partitions = 32;

  auto data = workload::TpchGenerate(cfg);
  JsonReport report("failure_detection");
  sim::SimTime base_us;
  {
    auto cluster = MakeCluster(data, 8);
    ReportLoad(report, "publish_sf05", cluster);
    auto plan = PlanSql(cluster, workload::TpchQuerySql("Q10"));
    base_us = static_cast<sim::SimTime>(RunQuery(cluster, plan).time_s * 1e6);
    std::printf("# failure-free Q10: %.3f s\n", base_us / 1e6);
  }
  {
    auto cluster = MakeCluster(data, 8);
    auto plan = PlanSql(cluster, workload::TpchQuerySql("Q10"));
    Detection d = Measure(cluster, plan, /*hang=*/false, 0, base_us);
    report.AddTimed("tcp_drop_crash", 1, 0, d.detect_s);
    std::printf("tcp_drop,crash,0,%.3f\n", d.detect_s);
  }
  for (double interval_ms : {200.0, 500.0, 1000.0, 2000.0}) {
    auto cluster = MakeCluster(data, 8);
    auto plan = PlanSql(cluster, workload::TpchQuerySql("Q10"));
    Detection d = Measure(cluster, plan, /*hang=*/true,
                          static_cast<sim::SimTime>(interval_ms * 1000), base_us);
    report.AddTimed("ping_hang_" + std::to_string(static_cast<int>(interval_ms)) + "ms",
                    1, 0, d.detect_s);
    std::printf("ping,hang,%.0f,%.3f\n", interval_ms, d.detect_s);
    std::fflush(stdout);
  }
  return 0;
}
