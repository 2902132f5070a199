// §VI-E "Overhead of Incremental Recomputation": provenance tagging and
// output caching make queries 2-7% slower with <=2% extra traffic in the
// paper. This harness measures the same ablation: every TPC-H query with
// recovery support on vs off.
//
// Part two measures the durability ablation this repo adds: the LocalStore
// write path with no WAL, the deterministic in-memory WAL the simulator
// uses, and the on-disk WAL the recovery bench uses — with and without
// batched sync — so the cost of crash safety is tracked per layer, manifest
// bytes included (docs/DURABILITY.md).
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

void QueryOverheadPart(JsonReport& report) {
  double sf = TpchSf(0.5) * (Smoke() ? 0.5 : 1.0);
  std::printf("# paper: 2-7%% slower, <=2%% extra traffic\n");
  std::printf("query,time_off_s,time_on_s,time_overhead_pct,traffic_off_MB,traffic_on_MB,traffic_overhead_pct\n");

  workload::TpchConfig cfg;
  cfg.scale_factor = sf;
  cfg.num_partitions = 32;
  auto cluster = MakeCluster(workload::TpchGenerate(cfg), 8);
  ReportLoad(report, "publish_sf05", cluster);

  std::vector<std::string> queries =
      Smoke() ? std::vector<std::string>{"Q1", "Q3", "Q10"}
              : workload::TpchQueryNames();
  for (const std::string& q : queries) {
    auto plan = PlanSql(cluster, workload::TpchQuerySql(q));
    query::QueryOptions off;
    off.provenance = false;
    off.recovery = query::QueryOptions::RecoveryMode::kNone;
    RunMetrics m_off = RunQuery(cluster, plan, off);
    query::QueryOptions on;  // defaults: provenance + incremental recovery
    RunMetrics m_on = RunQuery(cluster, plan, on);
    ReportRun(report, "query_" + q + "_recovery_off", m_off);
    ReportRun(report, "query_" + q + "_recovery_on", m_on);
    std::printf("%s,%.3f,%.3f,%.1f,%.2f,%.2f,%.1f\n", q.c_str(), m_off.time_s,
                m_on.time_s, 100.0 * (m_on.time_s / m_off.time_s - 1.0),
                m_off.total_mb, m_on.total_mb,
                100.0 * (m_on.total_mb / m_off.total_mb - 1.0));
    std::fflush(stdout);
  }
}

// --------------------------------------------------------------------------
// Part two: durability write-path ablation.

/// Runs the same put workload (fresh keys then one overwrite round) through
/// a store configured by `o` and reports wall-clock throughput plus WAL
/// counters.
void RunWritePath(JsonReport& report, const std::string& name,
                  const localstore::StoreOptions& o, size_t records) {
  localstore::LocalStore store(o);
  std::string value(96, 'v');
  char key[32];
  double w0 = WallSeconds();
  for (size_t i = 0; i < 2 * records; ++i) {
    std::snprintf(key, sizeof(key), "rec-%010zu", i % records);
    if (!store.Put(key, value).ok()) {
      std::fprintf(stderr, "put failed\n");
      std::exit(1);
    }
  }
  if (store.wal() != nullptr) store.wal()->Sync();
  double wall = WallSeconds() - w0;
  double checkpoints = 0, checkpoint_bytes = 0, bytes = 0, syncs = 0;
  if (store.wal() != nullptr) {
    const wal::WalStats& ws = store.wal()->stats();
    checkpoints = static_cast<double>(ws.checkpoints);
    checkpoint_bytes = static_cast<double>(ws.checkpoint_bytes);
    bytes = static_cast<double>(ws.bytes_appended);
    syncs = static_cast<double>(ws.syncs);
  }
  std::printf("%s,%zu,%.4f,%.0f\n", name.c_str(), 2 * records, wall,
              2 * records / wall);
  report.AddTimed(name, static_cast<double>(2 * records), wall, 0, 0,
                  {{"wal_bytes", bytes},
                   {"wal_syncs", syncs},
                   {"checkpoints", checkpoints},
                   {"checkpoint_bytes", checkpoint_bytes}});
}

void WritePathPart(JsonReport& report) {
  std::printf("# durability write path: puts/sec by WAL configuration\n");
  std::printf("config,ops,wall_s,ops_per_sec\n");
  const size_t records = Smoke() ? 20000 : 200000;

  localstore::StoreOptions off;
  RunWritePath(report, "writepath_wal_off", off, records);

  localstore::StoreOptions mem;
  mem.wal_backend = std::make_shared<wal::MemoryBackend>();
  RunWritePath(report, "writepath_wal_mem", mem, records);

  char tmpl[] = "/tmp/orchestra-writepath-XXXXXX";
  if (mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::exit(1);
  }
  {
    localstore::StoreOptions file;
    auto backend = std::make_shared<wal::FileBackend>(tmpl);
    file.wal_backend = backend;
    file.wal.sync_every_records = 0;  // sync once at the end
    RunWritePath(report, "writepath_wal_file", file, records);
    for (const std::string& f : backend->List()) backend->Remove(f).ok();
  }
  {
    localstore::StoreOptions file_sync;
    auto backend = std::make_shared<wal::FileBackend>(tmpl);
    file_sync.wal_backend = backend;
    file_sync.wal.sync_every_records = 32;  // fsync batches of 32 records
    RunWritePath(report, "writepath_wal_file_sync32", file_sync, records);
    for (const std::string& f : backend->List()) backend->Remove(f).ok();
  }
  rmdir(tmpl);
}

}  // namespace

int main() {
  Header("Recovery-support overhead (provenance tagging + output caches)");
  JsonReport report("recovery_overhead");
  QueryOverheadPart(report);
  Header("Durability write-path overhead (WAL ablation)");
  WritePathPart(report);
  return 0;
}
