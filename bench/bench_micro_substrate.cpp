// Micro-benchmarks for the substrate primitives: the embedded local store
// (put/get/scan hot paths of the publish and retrieve pipelines), SHA-1,
// ring arithmetic, routing-table lookup, and tuple block marshalling with
// compression. Self-contained timing harness; emits both a CSV to stdout and
// BENCH_micro_substrate.json (see bench_util.h) so the perf trajectory of
// the storage substrate is tracked across PRs.
//
// ORCHESTRA_BENCH_SMOKE=1 shrinks op counts ~50x for CI smoke runs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/compress.h"
#include "common/rng.h"
#include "common/strings.h"
#include "hash/hash_id.h"
#include "localstore/local_store.h"
#include "overlay/ring.h"
#include "query/block.h"
#include "storage/keys.h"
#include "storage/value.h"

namespace orchestra {
namespace {

bench::JsonReport* g_report = nullptr;
uint64_t g_sink = 0;  // defeats dead-code elimination; reported in the JSON

bool Smoke() {
  const char* env = std::getenv("ORCHESTRA_BENCH_SMOKE");
  return env != nullptr && std::string(env) == "1";
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Report(const std::string& name, double ops, double wall_s,
            double bytes = 0) {
  std::vector<std::pair<std::string, double>> extra;
  if (bytes > 0 && wall_s > 0) extra.emplace_back("bytes_per_sec", bytes / wall_s);
  g_report->AddTimed(name, ops, wall_s, 0, 0, std::move(extra));
  std::printf("%s,%.0f,%.4f,%.3g\n", name.c_str(), ops, wall_s,
              wall_s > 0 ? ops / wall_s : 0);
  std::fflush(stdout);
}

/// Keys shaped like the real data-record keys the storage service writes:
/// 'D' <rel> <hash:20B> <key bytes> <epoch> — ~50-60 bytes each.
std::vector<std::string> MakeDataKeys(size_t n, Rng& rng) {
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    HashId h = HashId::OfBytes(Tag("bench-key-", i));
    out.push_back(storage::keys::Data("stb_r", h,
                                      Tag("k", rng.NextU64() % n),
                                      1 + (i & 7)));
  }
  return out;
}

void BenchLocalStore() {
  const size_t n_put = Smoke() ? 4000 : 200000;
  const size_t n_ops = Smoke() ? 20000 : 1000000;
  Rng rng(3);
  std::vector<std::string> keys = MakeDataKeys(n_put, rng);
  std::vector<std::string> values;
  values.reserve(256);
  for (int i = 0; i < 256; ++i) values.push_back(rng.AlphaString(64));

  // Fresh-key put throughput (the kPutTuples receive path).
  localstore::LocalStore store;
  double t0 = Now();
  for (size_t i = 0; i < keys.size(); ++i) {
    store.Put(keys[i], values[i & 255]).ok();
  }
  Report("localstore_put", static_cast<double>(keys.size()), Now() - t0);

  // Overwrite put throughput (hot keys republished across epochs).
  t0 = Now();
  for (size_t i = 0; i < n_ops; ++i) {
    store.Put(keys[i % keys.size()], values[i & 255]).ok();
  }
  Report("localstore_overwrite", static_cast<double>(n_ops), Now() - t0);

  // Point-lookup throughput with a copying Get (kGetTuple path).
  t0 = Now();
  for (size_t i = 0; i < n_ops; ++i) {
    auto v = store.Get(keys[(i * 7) % keys.size()]);
    g_sink += v.ok() ? v.value().size() : 0;
  }
  Report("localstore_get", static_cast<double>(n_ops), Now() - t0);

  // Zero-copy lookup (the kGetTuple/kQueryFetch read path).
  t0 = Now();
  for (size_t i = 0; i < n_ops; ++i) {
    auto v = store.GetView(keys[(i * 7) % keys.size()]);
    g_sink += v.ok() ? v.value().size() : 0;
  }
  Report("localstore_get_view", static_cast<double>(n_ops), Now() - t0);

  // Membership probes, half missing (kReplicaPush dedup path).
  t0 = Now();
  for (size_t i = 0; i < n_ops; ++i) {
    g_sink += store.Contains(keys[i % keys.size()]) ? 1 : 0;
    g_sink += store.Contains("absent-key") ? 1 : 0;
  }
  Report("localstore_contains", static_cast<double>(2 * n_ops), Now() - t0);

  // Ordered range scan (the single-pass page scan of §V-B).
  const size_t scan_rounds = Smoke() ? 20 : 500;
  t0 = Now();
  size_t scanned = 0;
  for (size_t round = 0; round < scan_rounds; ++round) {
    for (auto it = store.Seek(""); it.Valid(); it.Next()) {
      g_sink += it.value().size();
      ++scanned;
    }
  }
  Report("localstore_scan", static_cast<double>(scanned), Now() - t0);

  // Prefix-bounded scan (per-relation sweeps, e.g. RebalanceTo).
  std::string prefix = storage::keys::DataPrefix("stb_r");
  t0 = Now();
  scanned = 0;
  for (size_t round = 0; round < scan_rounds; ++round) {
    for (auto it = store.SeekPrefix(prefix); it.Valid(); it.Next()) {
      g_sink += it.key().size();
      ++scanned;
    }
  }
  Report("localstore_prefix_scan", static_cast<double>(scanned), Now() - t0);

  // Churn: put/delete mix with compaction in the loop (epoch GC pressure).
  localstore::StoreOptions churn_opts;
  churn_opts.compaction_garbage_ratio = 0.4;
  churn_opts.compaction_min_records = 4096;
  localstore::LocalStore churn(churn_opts);
  t0 = Now();
  for (size_t i = 0; i < n_ops; ++i) {
    const std::string& k = keys[i % keys.size()];
    if ((i & 3) == 3) {
      churn.Delete(k).ok();
    } else {
      churn.Put(k, values[i & 255]).ok();
    }
  }
  Report("localstore_churn", static_cast<double>(n_ops), Now() - t0);
  g_sink += churn.stats().compactions;

  // A combined put/get/scan mix approximating one publish + retrieve cycle.
  localstore::LocalStore mixed;
  const size_t mix_rounds = Smoke() ? 2 : 10;
  double mixed_ops = 0;
  t0 = Now();
  for (size_t round = 0; round < mix_rounds; ++round) {
    for (size_t i = 0; i < keys.size(); ++i) {
      mixed.Put(keys[i], values[i & 255]).ok();
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      auto v = mixed.Get(keys[(i * 13) % keys.size()]);
      g_sink += v.ok() ? v.value().size() : 0;
    }
    size_t m = 0;
    for (auto it = mixed.Seek(""); it.Valid(); it.Next()) {
      g_sink += it.value().size();
      ++m;
    }
    mixed_ops += static_cast<double>(2 * keys.size() + m);
  }
  Report("localstore_mixed", mixed_ops, Now() - t0);
}

void BenchSha1() {
  const size_t reps = Smoke() ? 20000 : 400000;
  std::string small(64, 'x');
  double t0 = Now();
  for (size_t i = 0; i < reps; ++i) {
    small[i & 63] = static_cast<char>('a' + (i & 15));
    g_sink += Sha1(small)[0];
  }
  Report("sha1_64b", static_cast<double>(reps), Now() - t0,
         static_cast<double>(reps * small.size()));

  std::string big(65536, 'y');
  const size_t big_reps = Smoke() ? 50 : 2000;
  t0 = Now();
  for (size_t i = 0; i < big_reps; ++i) g_sink += Sha1(big)[0];
  Report("sha1_64k", static_cast<double>(big_reps), Now() - t0,
         static_cast<double>(big_reps * big.size()));
}

void BenchRouting() {
  std::vector<overlay::Member> members;
  for (int i = 0; i < 100; ++i) {
    members.push_back({static_cast<net::NodeId>(i),
                       HashId::OfBytes(Tag("node", i))});
  }
  auto snap = overlay::RoutingSnapshot::Build(
      1, overlay::AllocationScheme::kBalanced, members);
  Rng rng(1);
  std::vector<HashId> hkeys;
  for (int i = 0; i < 256; ++i) {
    hkeys.push_back(HashId::OfBytes(Tag("k", rng.NextU64())));
  }
  const size_t reps = Smoke() ? 40000 : 2000000;
  double t0 = Now();
  for (size_t i = 0; i < reps; ++i) {
    g_sink += snap.OwnerOf(hkeys[i & 255]);
  }
  Report("routing_lookup_100", static_cast<double>(reps), Now() - t0);
}

void BenchBlockCodec() {
  Rng rng(7);
  query::TupleBlock block;
  for (int i = 0; i < 1024; ++i) {
    query::BlockRow row;
    row.tuple = {storage::Value(static_cast<int64_t>(i)),
                 storage::Value(rng.AlphaString(25)),
                 storage::Value(rng.AlphaString(25)),
                 storage::Value(rng.NextDouble())};
    row.taint = DynamicBitset(16);
    row.taint.Set(static_cast<size_t>(i % 16));
    block.rows.push_back(std::move(row));
  }
  const size_t reps = Smoke() ? 20 : 500;
  double encoded_bytes = static_cast<double>(block.Encode().size());
  double t0 = Now();
  for (size_t i = 0; i < reps; ++i) {
    std::string bytes = block.Encode();
    query::TupleBlock out;
    query::TupleBlock::Decode(bytes, &out).ok();
    g_sink += out.rows.size();
  }
  Report("block_codec_1k_rows", static_cast<double>(reps * 1024), Now() - t0,
         static_cast<double>(reps) * encoded_bytes);
}

void BenchCompress() {
  Rng rng(5);
  std::string payload;
  for (int i = 0; i < 1024; ++i) payload += rng.AlphaString(25);
  const size_t reps = Smoke() ? 100 : 2000;
  double t0 = Now();
  for (size_t i = 0; i < reps; ++i) {
    g_sink += CompressBlock(payload).size();
  }
  Report("compress_25k", static_cast<double>(reps), Now() - t0,
         static_cast<double>(reps * payload.size()));
}

}  // namespace
}  // namespace orchestra

int main() {
  orchestra::bench::JsonReport report("micro_substrate");
  orchestra::g_report = &report;
  std::printf("name,ops,wall_s,ops_per_sec\n");
  orchestra::BenchLocalStore();
  orchestra::BenchSha1();
  orchestra::BenchRouting();
  orchestra::BenchBlockCodec();
  orchestra::BenchCompress();
  report.AddTimed("sink_checksum", static_cast<double>(orchestra::g_sink), 1.0);
  report.Write();
  std::printf("# wrote %s\n", report.Path().c_str());
  return 0;
}
