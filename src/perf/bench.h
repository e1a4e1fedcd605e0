// Micro-benchmark harness: named kernels, calibrated repetition counts,
// and robust ns/op statistics.
//
// A Kernel is a named factory: `make()` runs the setup (building matrices,
// scenarios, simulators - excluded from timing) and returns the timed
// closure.  The closure returns a double that the harness folds into a
// volatile sink, so the optimizer cannot delete the work.
//
// Measurement protocol (the shape of Montage's GlobalTestConfig interval
// runs, adapted to ns/op statistics):
//
//   1. calibrate: double the per-interval repetition count until one
//      interval takes at least ~interval_ms, then scale to the target
//      (skipped when reps is pinned explicitly);
//   2. run `warmup_intervals` untimed intervals (caches, branch
//      predictors, lazy allocations);
//   3. run `intervals` timed intervals, each yielding one ns/op sample =
//      interval wall time / reps;
//   4. report the median, p10 and p90 of those samples - the median is
//      robust against a descheduled interval, and the p10/p90 spread is
//      the noise bar a regression check needs.
//
// With threads > 1 every thread runs its own closure instance (from its
// own make() call) for the same reps; the interval sample is the wall
// time from the start barrier to the last finisher, so ns/op measures
// *concurrent* per-op latency - flat scaling keeps it constant, contention
// shows up as growth.  The registry is the names --kernels= selects from;
// layers group kernels for reporting ("numerics", "markov", "core",
// "rng", "des", "trace", "runtime", "wire", "recov", "fleet").
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace rbx {
namespace perf {

struct BenchOptions {
  std::uint64_t reps = 0;         // per interval; 0 = calibrate
  std::size_t intervals = 12;     // timed intervals (ns/op samples)
  double interval_ms = 20.0;      // calibration target per interval
  std::size_t threads = 1;        // concurrent closure instances
  std::size_t warmup_intervals = 1;
};

struct KernelStats {
  std::string name;
  std::string layer;
  double ns_median = 0.0;
  double ns_p10 = 0.0;
  double ns_p90 = 0.0;
  std::uint64_t reps = 0;      // per interval (per thread)
  std::size_t intervals = 0;
  std::size_t threads = 1;
};

struct Kernel {
  std::string name;
  std::string layer;
  // Setup (untimed) returning the timed closure.  Called once per thread.
  std::function<std::function<double()>()> make;
  // Pinned concurrency: 0 runs at BenchOptions.threads; a non-zero value
  // overrides it for this kernel only.  How the registry carries
  // contention kernels (e.g. analytic_cache_hits_t8, des_*_t4) whose
  // whole point is a specific thread count, regardless of the harness's
  // --threads flag.
  std::size_t threads = 0;
};

class KernelRegistry {
 public:
  void add(Kernel kernel);

  const std::vector<Kernel>& kernels() const { return kernels_; }
  // nullptr when unknown.
  const Kernel* find(const std::string& name) const;

 private:
  std::vector<Kernel> kernels_;
};

// Registers the default kernel set spanning every layer (perf/kernels.cc).
void register_default_kernels(KernelRegistry& registry);

// Runs one kernel under the protocol above.
KernelStats run_kernel(const Kernel& kernel, const BenchOptions& options);

}  // namespace perf
}  // namespace rbx
