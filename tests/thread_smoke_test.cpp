// Real-thread smoke suite — the ThreadSanitizer gate (ci/check.sh tsan).
//
// Everything else in the repo runs single-threaded under the deterministic
// simulator. This suite exercises the few components whose contracts already
// span real threads — Pending<T> hand-off, LocalStore's concurrent read-only
// path, RpcStats' atomic counters — so the TSan stage has genuine
// cross-thread paths to check today, and so the ROADMAP's real-thread
// concurrency work (parallel reads, sharded writes) lands against a gate
// that already runs instead of having to build one first.
//
// Ground rules for adding cases here:
//   * A case must be correct under the components' documented thread
//     contracts (Pending is single-owner per thread with hand-off via
//     thread creation/join; LocalStore writes are exclusive). TSan verifies
//     the implementation keeps those contracts race-free — a failing case
//     means the component broke, not that the test is optimistic.
//   * Keep cases small and fast; this runs in every tier-1 ctest pass too.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/pending.h"
#include "common/rng.h"
#include "common/strings.h"
#include "localstore/local_store.h"
#include "net/rpc.h"

namespace orchestra {
namespace {

constexpr int kThreads = 8;

// --- Pending<T> ------------------------------------------------------------

// Hand-off: the main thread creates handles, a worker resolves them
// (thread-creation establishes the happens-before into the worker, join
// establishes it back), the main thread then reads values and registers
// post-resolution continuations.
TEST(ThreadSmoke, PendingResolveHandoff) {
  std::vector<Pending<int>> handles(64);
  std::thread resolver([&handles] {
    for (size_t i = 0; i < handles.size(); ++i) {
      EXPECT_TRUE(handles[i].Resolve(Status::OK(), static_cast<int>(i)));
    }
  });
  resolver.join();
  int fired = 0;
  for (size_t i = 0; i < handles.size(); ++i) {
    ASSERT_TRUE(handles[i].ok());
    EXPECT_EQ(handles[i].value(), static_cast<int>(i));
    handles[i].OnReady([&fired] { ++fired; });  // already resolved: runs now
  }
  EXPECT_EQ(fired, 64);
}

// Per-thread churn: each thread drives its own Pending lifecycles
// (create, chain OnReady, resolve, copy) in parallel. Confirms the shared
// completion state and Status machinery have no hidden cross-thread
// mutable globals.
TEST(ThreadSmoke, PendingPerThreadChurn) {
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &total] {
      uint64_t local = 0;
      for (int i = 0; i < 500; ++i) {
        Pending<std::string> p;
        Pending<std::string> copy = p;  // copies share one state
        p.OnReady([&local] { ++local; });
        copy.OnReady([&local] { ++local; });
        EXPECT_TRUE(p.Resolve(Status::OK(), Tag("v", t)));
        EXPECT_FALSE(copy.Resolve(Status::OK(), "second"));  // exactly once
        EXPECT_EQ(copy.value(), Tag("v", t));
      }
      total.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(total.load(), static_cast<uint64_t>(kThreads) * 500 * 2);
}

// --- LocalStore ------------------------------------------------------------

// Concurrent read-only access: one writer populates the store up front;
// N reader threads then hammer Get/GetView/Contains and ordered scans
// concurrently. The read path's stats counter is atomic — the exact final
// count proves no increments were lost (and TSan proves none raced).
TEST(ThreadSmoke, LocalStoreConcurrentReaders) {
  localstore::LocalStore store;
  constexpr int kKeys = 512;
  for (int i = 0; i < kKeys; ++i) {
    std::string key = Tag("key", 1000 + i);
    ASSERT_TRUE(store.Put(key, Tag("value", i)).ok());
  }

  constexpr int kGetsPerThread = 2000;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &store, &mismatches] {
      Rng rng(0x5EED0 + static_cast<uint64_t>(t));
      for (int i = 0; i < kGetsPerThread; ++i) {
        int k = static_cast<int>(rng.Uniform(kKeys));
        std::string key = Tag("key", 1000 + k);
        if (i % 2 == 0) {
          auto v = store.Get(key);
          if (!v.ok() || v.value() != Tag("value", k)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          auto v = store.GetView(key);
          if (!v.ok() || v.value() != Tag("value", k)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (!store.Contains(key)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // Ordered scan across the whole store, concurrent with other readers.
      uint64_t seen = 0;
      for (auto it = store.SeekPrefix("key"); it.Valid(); it.Next()) ++seen;
      if (seen != kKeys) mismatches.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(store.stats().gets.load(),
            static_cast<uint64_t>(kThreads) * kGetsPerThread);
  EXPECT_EQ(store.stats().live_records, static_cast<uint64_t>(kKeys));
}

// --- RpcStats --------------------------------------------------------------

// The lifecycle counters are process-wide atomics read by leak-regression
// tests; concurrent readers must see them tear-free. No RPC runs here, so
// the values are stable — the point is tear-free concurrent loads.
TEST(ThreadSmoke, RpcStatsConcurrentReads) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 20000; ++i) {
        EXPECT_GE(net::RpcStats::calls_started(), net::RpcStats::calls_resolved());
        EXPECT_GE(net::RpcStats::callbacks_alive(), 0);
      }
    });
  }
  for (auto& th : threads) th.join();
}

}  // namespace
}  // namespace orchestra
