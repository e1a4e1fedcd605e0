// Shared scaffolding for the paper benches.
//
// Every bench that rides the distribution stack has the same opening
// movement: parse the strict flags, print the banner, expand a grid of
// seeded Scenario cells, hand them to SweepRunner with a serializable
// EvalPlan, and - when this process is a --shard worker that just wrote
// its journal - exit 0 without rendering.  This header is that movement
// in two sizes:
//
//  * run_sweep() - the one-grid case (most benches):
//
//      int main(int argc, char** argv) {
//        bench::SweepOutcome sweep = bench::run_sweep(
//            argc, argv, {"FIG6", "Figure 6: ...", /*samples=*/200000,
//                         /*nmax=*/0},
//            build_cells, plan_fn_or_plan);
//        if (!sweep.results) return 0;   // --shard: journal written
//        render(sweep);
//      }
//
//  * bench::Bench - the multi-sweep case (sec3/sec4-style benches whose
//    output assembles several tables from separate grids).  One Bench
//    holds one SweepRunner across every run() call, so the composed lanes
//    (and a --connect lane's worker sessions) persist across sweeps and
//    section s of every --shard journal lines up with the bench's s-th
//    grid:
//
//      bench::Bench bench(argc, argv, {"SEC3-CL", "...", 30000, 10});
//      const auto a = bench.run(cells_a, plan_a);
//      const auto b = bench.run(cells_b, analytic_backend());
//      if (!a) return 0;                 // --shard: journal written
//      ... print tables from *a and *b ...
//
// lambda_for_rho() is the shared n/rho grid arithmetic of the fig5 and
// ABL-LINE sweeps, and time_ns() the timing loop of the micro_* benches.
// Keeping this header in bench/ (not src/) is deliberate: it is
// presentation scaffolding over the library's public surface, not library
// code.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "core/api.h"

namespace rbx {
namespace bench {

// The per-bench constants run_sweep needs before the grid exists.
struct BenchSpec {
  const char* tag;    // banner tag, e.g. "FIG6"
  const char* title;  // banner title line
  std::size_t default_samples;  // --samples default
  std::size_t default_nmax;     // --nmax default (0 = flag refused)
};

// The interaction rate that holds rho = C(n,2) lambda / (n mu) at a given
// level for n homogeneous processes: lambda = 2 rho mu / (n - 1).
inline double lambda_for_rho(std::size_t n, double rho, double mu = 1.0) {
  return 2.0 * rho * mu / (static_cast<double>(n) - 1.0);
}

// Where time_ns() folds every kernel result, so the optimizer cannot
// elide the kernel.
inline volatile double timing_sink = 0.0;

// ns/op of fn over `reps` timed calls, after one untimed warm-up call.
// Wall-clock, so not deterministic: a bench evaluating through it runs a
// local backend, never a registered one.
inline double time_ns(std::size_t reps, const std::function<double()>& fn) {
  timing_sink = timing_sink + fn();
  const auto t0 = std::chrono::steady_clock::now();
  double acc = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    acc += fn();
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  timing_sink = timing_sink + acc;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         static_cast<double>(reps);
}

using BuildCellsFn =
    std::function<std::vector<Scenario>(const ExperimentOptions&)>;

// Parse + banner + a SweepRunner that persists across sweeps.  Benches
// with one grid use the run_sweep() wrappers below; benches that assemble
// tables from several grids call run() once per grid in a fixed order.
class Bench {
 public:
  Bench(int argc, char** argv, const BenchSpec& spec,
        std::size_t default_threads = 0)
      : opts_(ExperimentOptions::parse(argc, argv, spec.default_samples,
                                       spec.default_nmax)),
        runner_(opts_, default_threads) {
    print_banner(spec.tag, spec.title);
  }

  const ExperimentOptions& opts() const { return opts_; }

  // One sweep: nullopt when this process is a --shard worker (the bench
  // skips its printing; every remaining run() call must still happen so
  // all journal sections get written).
  std::optional<std::vector<ResultSet>> run(
      const std::vector<Scenario>& cells, const PlanFn& plan_fn) {
    return runner_.run(cells, plan_fn);
  }
  std::optional<std::vector<ResultSet>> run(
      const std::vector<Scenario>& cells, const EvalPlan& plan) {
    return runner_.run(cells,
                       [&plan](const Scenario&, std::size_t) { return plan; });
  }
  std::optional<std::vector<ResultSet>> run(
      const std::vector<Scenario>& cells, const EvalBackend& backend) {
    return runner_.run(cells, backend);
  }

 private:
  ExperimentOptions opts_;
  SweepRunner runner_;
};

// What a one-grid bench gets back: the parsed options, the expanded grid
// and - unless this process was a shard that wrote its journal and should
// exit 0 - one ResultSet per cell, index-aligned with the grid.
struct SweepOutcome {
  ExperimentOptions opts;
  std::vector<Scenario> cells;
  std::optional<std::vector<ResultSet>> results;
};

// Parse + banner + expand + run.  The plan function makes the cells
// cluster-capable (--workers/--connect/--fleet evaluate the same
// registered backends remotely); default_threads is forwarded to
// SweepRunner for benches whose cells spawn their own threads.
inline SweepOutcome run_sweep(int argc, char** argv, const BenchSpec& spec,
                              const BuildCellsFn& build_cells,
                              const PlanFn& plan_fn,
                              std::size_t default_threads = 0) {
  Bench bench(argc, argv, spec, default_threads);
  SweepOutcome out{bench.opts(), build_cells(bench.opts()), std::nullopt};
  out.results = bench.run(out.cells, plan_fn);
  return out;
}

// The common one-plan-for-every-cell case.
inline SweepOutcome run_sweep(int argc, char** argv, const BenchSpec& spec,
                              const BuildCellsFn& build_cells,
                              const EvalPlan& plan,
                              std::size_t default_threads = 0) {
  return run_sweep(
      argc, argv, spec, build_cells,
      [&plan](const Scenario&, std::size_t) { return plan; },
      default_threads);
}

}  // namespace bench
}  // namespace rbx
