// Figure 21: running times for Q1 and Q10 when a node fails mid-query,
// comparing full restart against incremental recomputation (8 nodes, TPC-H
// SF 2 at paper scale). The failure time sweeps over the query's lifetime;
// the paper found incremental recovery ~20% faster than restart.
//
// Part two measures the other recovery axis this repo adds on top of the
// paper: NODE restart cost. A LocalStore is loaded through a real on-disk
// WAL (wal::FileBackend) at 1x/10x/100x store sizes, once with distinct
// keys (insert: no record is dead, so no checkpoint is worth its copy) and
// once overwriting every key twice (overwrite: the log is mostly dead, so
// the store checkpoints), and a fresh store recovers from the files.
// benchdiff checks the deterministic record counters: an insert load
// replays its whole log from no manifest, and an overwrite load reads at
// most max(4096, 2 x live + 1) records (docs/DURABILITY.md).
//
// ORCHESTRA_BENCH_SMOKE=1 shrinks both parts for the CI benchdiff stage;
// the committed baseline in bench/results/ is generated in smoke mode.
#include <unistd.h>

#include "bench/bench_util.h"
#include "localstore/local_store.h"
#include "wal/backend.h"
#include "wal/wal.h"

using namespace orchestra;
using namespace orchestra::bench;

namespace {

bool Smoke() {
  const char* env = std::getenv("ORCHESTRA_BENCH_SMOKE");
  return env != nullptr && std::string(env)[0] == '1';
}

double RunWithFailure(bench::Cluster& cluster, const query::PhysicalPlan& plan,
                      query::QueryOptions::RecoveryMode mode,
                      sim::SimTime fail_at_us, net::NodeId victim) {
  bool done = false;
  Status status;
  query::QueryResult result;
  query::QueryOptions opts;
  opts.recovery = mode;
  cluster.dep->query(0).Execute(plan, cluster.epoch, opts,
                                [&](Status st, query::QueryResult r) {
                                  status = st;
                                  result = std::move(r);
                                  done = true;
                                });
  cluster.dep->RunFor(fail_at_us);
  if (!done) cluster.dep->KillNode(victim, /*update_routing=*/false);
  cluster.dep->RunUntil([&] { return done; }, 3600 * sim::kMicrosPerSec);
  if (!status.ok()) {
    std::fprintf(stderr, "failure run error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  return static_cast<double>(result.execution_us) / 1e6;
}

void QueryRecoveryPart(JsonReport& report) {
  // Run 4x larger than the other small-scale benches: the restart/recovery
  // gap is about re-paying elapsed work, which a too-tiny query hides behind
  // fixed recovery costs (the paper's SF-2 queries run for many seconds).
  // Smoke keeps the default small sizing and a single failure point.
  double sf = TpchSf(2.0) * (PaperScale() || Smoke() ? 1.0 : 4.0);
  std::printf("# paper: SF 2, failure at varying times; recovery beat restart ~20%%\n");
  std::printf("# this run: SF %.4f\n", sf);
  std::printf("query,failure_frac,failure_time_s,restart_time_s,recovery_time_s,no_failure_time_s\n");

  std::vector<double> fracs = Smoke() ? std::vector<double>{0.5}
                                      : std::vector<double>{0.2, 0.5, 0.8};
  for (const std::string& q : {std::string("Q1"), std::string("Q10")}) {
    workload::TpchConfig cfg;
    cfg.scale_factor = sf;
    cfg.num_partitions = 32;
    auto data = workload::TpchGenerate(cfg);
    double base_s;
    {
      auto cluster = MakeCluster(data, 8);
      ReportLoad(report, "publish_" + q, cluster);
      auto plan = PlanSql(cluster, workload::TpchQuerySql(q));
      RunMetrics base = RunQuery(cluster, plan);
      ReportRun(report, "query_" + q + "_no_failure", base);
      base_s = base.time_s;
    }

    for (double frac : fracs) {
      auto fail_at = static_cast<sim::SimTime>(frac * base_s * 1e6);
      // Each trial kills a node on a *healthy* cluster (the paper reruns the
      // experiment per failure point), so rebuild between modes.
      double restart, recovery;
      {
        auto cluster = MakeCluster(data, 8);
        auto plan = PlanSql(cluster, workload::TpchQuerySql(q));
        restart = RunWithFailure(cluster, plan,
                                 query::QueryOptions::RecoveryMode::kRestart,
                                 fail_at, 5);
      }
      {
        auto cluster = MakeCluster(data, 8);
        auto plan = PlanSql(cluster, workload::TpchQuerySql(q));
        recovery = RunWithFailure(cluster, plan,
                                  query::QueryOptions::RecoveryMode::kIncremental,
                                  fail_at, 5);
      }
      std::printf("%s,%.1f,%.3f,%.3f,%.3f,%.3f\n", q.c_str(), frac,
                  static_cast<double>(fail_at) / 1e6, restart, recovery, base_s);
      std::string tag = q + "_f" + std::to_string(frac).substr(0, 3);
      report.AddTimed("restart_" + tag, 1, 0, restart);
      report.AddTimed("recovery_" + tag, 1, 0, recovery);
      std::fflush(stdout);
    }
  }
}

// --------------------------------------------------------------------------
// Part two: LocalStore restart recovery through a real on-disk WAL.

/// Loads `records` distinct keys through a FileBackend-backed store,
/// `writes` times each (1 = insert only), makes the tail durable, then times
/// a cold Recover() on a fresh store sharing the same files. Returns through
/// `report` under `name`.
void MeasureStoreRecovery(JsonReport& report, const std::string& name,
                          const std::string& dir, size_t records, int writes) {
  auto backend = std::make_shared<wal::FileBackend>(dir);
  localstore::StoreOptions o;
  o.wal_backend = backend;
  // The load phase is not what this bench measures: sync only on
  // checkpoint, then once explicitly at the end, so durability is real but
  // the fill loop is not fsync-bound.
  o.wal.sync_every_records = 0;

  double load_wall;
  uint64_t checkpoint_bytes;
  {
    localstore::LocalStore store(o);
    double w0 = WallSeconds();
    char key[32];
    for (int w = 0; w < writes; ++w) {
      const std::string value(96, static_cast<char>('a' + w));
      for (size_t i = 0; i < records; ++i) {
        std::snprintf(key, sizeof(key), "rec-%010zu", i);
        if (!store.Put(key, value).ok()) {
          std::fprintf(stderr, "load put failed\n");
          std::exit(1);
        }
      }
    }
    store.wal()->Sync();
    load_wall = WallSeconds() - w0;
    checkpoint_bytes = store.wal()->stats().checkpoint_bytes;
  }  // close the loading store before recovering into a new one

  localstore::LocalStore fresh(o);
  double w0 = WallSeconds();
  Status rec = fresh.Recover();
  double recover_wall = WallSeconds() - w0;
  if (!rec.ok() || fresh.entry_count() != records) {
    std::fprintf(stderr, "recovery failed: %s (entries %zu/%zu)\n",
                 rec.ToString().c_str(), fresh.entry_count(), records);
    std::exit(1);
  }
  const wal::WalStats& ws = fresh.wal()->stats();
  const size_t ops = records * static_cast<size_t>(writes);
  std::printf("%s,%zu,%zu,%.4f,%.4f,%llu,%llu,%llu\n", name.c_str(), records,
              ops, load_wall, recover_wall,
              static_cast<unsigned long long>(ws.replayed_records),
              static_cast<unsigned long long>(ws.snapshot_records),
              static_cast<unsigned long long>(checkpoint_bytes));
  report.AddTimed(
      name, static_cast<double>(ops), recover_wall, 0, 0,
      {{"records", static_cast<double>(records)},
       {"replayed_records", static_cast<double>(ws.replayed_records)},
       {"snapshot_records", static_cast<double>(ws.snapshot_records)},
       {"checkpoint_bytes", static_cast<double>(checkpoint_bytes)},
       {"load_wall_s", load_wall}});

  // Reset the directory for the next configuration.
  for (const std::string& f : backend->List()) backend->Remove(f).ok();
}

void StoreRecoveryPart(JsonReport& report) {
  std::printf("# node restart: recovery cost vs store size, distinct keys vs every key overwritten twice\n");
  std::printf("config,records,ops,load_wall_s,recover_wall_s,replayed_records,snapshot_records,checkpoint_bytes\n");
  char tmpl[] = "/tmp/orchestra-recovery-XXXXXX";
  if (mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::exit(1);
  }
  const size_t base = Smoke() ? 1500 : 4000;
  for (size_t mult : {size_t{1}, size_t{10}, size_t{100}}) {
    std::string scale = std::to_string(mult) + "x";
    MeasureStoreRecovery(report, "recover_" + scale + "_insert", tmpl,
                         base * mult, /*writes=*/1);
    MeasureStoreRecovery(report, "recover_" + scale + "_overwrite", tmpl,
                         base * mult, /*writes=*/3);
  }
  rmdir(tmpl);
}

}  // namespace

int main() {
  Header("Figure 21: restart vs incremental recovery (8 nodes)");
  JsonReport report("fig21_recovery");
  QueryRecoveryPart(report);
  Header("Node restart recovery: checkpoint + WAL tail replay");
  StoreRecoveryPart(report);
  return 0;
}
