// The micro harness itself: the default registry spans every layer and
// every kernel in it runs, stats are ordered (p10 <= median <= p90),
// pinned reps are honored, and the threaded path produces per-thread
// closures.
#include "perf/bench.h"

#include <atomic>
#include <cmath>
#include <set>
#include <string>

#include <gtest/gtest.h>

namespace rbx {
namespace perf {
namespace {

BenchOptions tiny() {
  BenchOptions o;
  o.reps = 8;
  o.intervals = 3;
  o.warmup_intervals = 1;
  return o;
}

TEST(BenchTest, DefaultRegistrySpansLayers) {
  KernelRegistry registry;
  register_default_kernels(registry);
  EXPECT_GE(registry.kernels().size(), 8u);
  std::set<std::string> layers;
  std::set<std::string> names;
  for (const Kernel& k : registry.kernels()) {
    layers.insert(k.layer);
    EXPECT_TRUE(names.insert(k.name).second) << "duplicate " << k.name;
  }
  // One harness times every layer of the stack.
  for (const char* layer : {"numerics", "markov", "core", "des", "trace",
                            "runtime", "wire", "fleet"}) {
    EXPECT_TRUE(layers.count(layer)) << layer;
  }
  EXPECT_NE(registry.find("sparse_spmv_left"), nullptr);
  EXPECT_NE(registry.find("fleet_resolve_fair_share"), nullptr);
  EXPECT_NE(registry.find("markov_expected_visits_n7"), nullptr);
  EXPECT_NE(registry.find("runtime_recovery_block"), nullptr);
  EXPECT_NE(registry.find("trace_rollback_n6"), nullptr);
  EXPECT_EQ(registry.find("no_such_kernel"), nullptr);
}

TEST(BenchTest, EveryDefaultKernelRuns) {
  // One rep of one interval, no warm-up: each kernel's setup and closure
  // run, and each reports a finite time.
  KernelRegistry registry;
  register_default_kernels(registry);
  BenchOptions once;
  once.reps = 1;
  once.intervals = 1;
  once.warmup_intervals = 0;
  for (const Kernel& k : registry.kernels()) {
    const KernelStats s = run_kernel(k, once);
    EXPECT_TRUE(std::isfinite(s.ns_median)) << k.name;
    EXPECT_GT(s.ns_median, 0.0) << k.name;
    EXPECT_EQ(s.reps, 1u) << k.name;
  }
}

TEST(BenchTest, RunKernelProducesOrderedStats) {
  Kernel k;
  k.name = "busy";
  k.layer = "test";
  k.make = [] {
    return [] {
      double acc = 0.0;
      for (int i = 0; i < 100; ++i) {
        acc += static_cast<double>(i) * 1.0000001;
      }
      return acc;
    };
  };
  const KernelStats s = run_kernel(k, tiny());
  EXPECT_EQ(s.name, "busy");
  EXPECT_EQ(s.layer, "test");
  EXPECT_EQ(s.reps, 8u);
  EXPECT_EQ(s.intervals, 3u);
  EXPECT_GT(s.ns_median, 0.0);
  EXPECT_LE(s.ns_p10, s.ns_median);
  EXPECT_LE(s.ns_median, s.ns_p90);
}

TEST(BenchTest, CalibrationPicksNonZeroReps) {
  Kernel k;
  k.name = "tiny_op";
  k.layer = "test";
  k.make = [] {
    return [] { return 1.0; };
  };
  BenchOptions o;
  o.reps = 0;  // calibrate
  o.intervals = 2;
  o.interval_ms = 1.0;
  o.warmup_intervals = 0;
  const KernelStats s = run_kernel(k, o);
  // A near-free op needs many reps to fill 1 ms.
  EXPECT_GT(s.reps, 100u);
}

TEST(BenchTest, ThreadsGetTheirOwnClosure) {
  std::atomic<int> makes{0};
  Kernel k;
  k.name = "counted";
  k.layer = "test";
  k.make = [&makes] {
    ++makes;
    return [] { return 1.0; };
  };
  BenchOptions o = tiny();
  o.threads = 3;
  const KernelStats s = run_kernel(k, o);
  EXPECT_EQ(makes.load(), 3);
  EXPECT_EQ(s.threads, 3u);
  EXPECT_GT(s.ns_median, 0.0);
}

TEST(BenchTest, KernelPinnedThreadsOverrideOptions) {
  // Contention kernels pin their own concurrency (e.g. the _t4/_t8
  // variants); the per-kernel value must beat the harness-wide default.
  std::atomic<int> makes{0};
  Kernel k;
  k.name = "pinned";
  k.layer = "test";
  k.threads = 2;
  k.make = [&makes] {
    ++makes;
    return [] { return 1.0; };
  };
  BenchOptions o = tiny();
  o.threads = 1;  // kernel override must win
  const KernelStats s = run_kernel(k, o);
  EXPECT_EQ(makes.load(), 2);
  EXPECT_EQ(s.threads, 2u);
}

TEST(BenchTest, KernelWithoutPinInheritsOptionThreads) {
  Kernel k;
  k.name = "unpinned";
  k.layer = "test";
  ASSERT_EQ(k.threads, 0u);
  k.make = [] {
    return [] { return 1.0; };
  };
  BenchOptions o = tiny();
  o.threads = 2;
  const KernelStats s = run_kernel(k, o);
  EXPECT_EQ(s.threads, 2u);
}

}  // namespace
}  // namespace perf
}  // namespace rbx
