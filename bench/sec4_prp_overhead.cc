// SEC4-PRP - reproduces Section 4's overhead and rollback analysis of
// pseudo recovery points:
//
//  * n states saved per recovery point (1 RP + n-1 PRPs), purged down to
//    the newest pseudo recovery lines;
//  * (n-1) t_r additional recording time per RP;
//  * rollback distance bounded by sup{y_1..y_n}, y_i ~ Exp(mu_i);
//  * and the paper's qualitative claim: PRPs give "the shortest rollback
//    distance ... without synchronization" - validated by a paired
//    Monte-Carlo comparison of PRP vs plain asynchronous rollback on
//    identical failure histories.
//
// The Monte-Carlo cases run concurrently with the seeds of the original
// sequential loop; printed values are invariant under --threads,
// --workers and --shard splits.  Two grids, one bench::Bench: its
// SweepRunner persists across both sweeps so --shard journals one
// sweep section per grid.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <vector>

#include "bench_main.h"

int main(int argc, char** argv) {
  using namespace rbx;
  bench::Bench bench(
      argc, argv,
      {"SEC4-PRP", "Section 4: pseudo recovery point overheads",
       /*samples=*/2000, /*nmax=*/8});
  const ExperimentOptions& opts = bench.opts();

  // --- analytic overhead vs process count ---
  constexpr double kRecordTime = 0.01;
  std::vector<Scenario> overhead_cells;
  for (std::size_t n = 2; n <= opts.nmax; ++n) {
    overhead_cells.push_back(Scenario::symmetric(n, 1.0, 1.0)
                                 .scheme(SchemeKind::kPseudoRecoveryPoints)
                                 .t_record(kRecordTime));
  }
  const auto overhead_sweep = bench.run(overhead_cells, analytic_backend());

  // --- paired rollback-distance comparison on the Table 1 cases ---
  struct Case {
    const char* label;
    double mu1, mu2, mu3, l12, l23, l13;
  };
  const Case cases[] = {
      {"tab1-1", 1.0, 1.0, 1.0, 1.0, 1.0, 1.0},
      {"tab1-2", 1.5, 1.0, 0.5, 1.0, 1.0, 1.0},
      {"tab1-5", 1.5, 1.0, 0.5, 0.5, 1.5, 1.0},
      {"hot", 0.5, 0.5, 0.5, 3.0, 3.0, 3.0},
  };
  std::vector<Scenario> mc_cells;
  for (const Case& c : cases) {
    mc_cells.push_back(
        Scenario(ProcessSetParams::three(c.mu1, c.mu2, c.mu3, c.l12, c.l23,
                                         c.l13))
            .scheme(SchemeKind::kPseudoRecoveryPoints)
            .t_record(1e-4)
            .error_rate(0.25)
            .seed(opts.seed)
            .samples(opts.samples));
  }
  // The storage-accounting run rides in the same batch (last cell).
  mc_cells.push_back(Scenario(ProcessSetParams::three(1.0, 1.0, 1.0, 1, 1, 1))
                         .scheme(SchemeKind::kPseudoRecoveryPoints)
                         .t_record(1e-4)
                         .error_rate(0.1)
                         .seed(opts.seed + 1)
                         .samples(std::max<std::size_t>(1, opts.samples / 2)));
  const auto mc_sweep =
      bench.run(mc_cells, [&cases](const Scenario&, std::size_t i) {
        // Only the comparison cases read exact_* metrics; the trailing
        // storage cell needs none.  The plan varies along the grid, which
        // is why plans are per-cell.
        EvalPlan plan{{EvalStep{"monte-carlo", ""}}};
        if (i < std::size(cases)) {
          plan.steps.push_back(EvalStep{"analytic", "exact_"});
        }
        return plan;
      });
  if (!overhead_sweep) {
    return 0;  // --shard: journals for both sweeps written
  }
  const std::vector<ResultSet>& overhead_results = *overhead_sweep;
  const std::vector<ResultSet>& mc_results = *mc_sweep;

  TextTable overhead({"n", "states/RP", "time/RP ((n-1)t_r)",
                      "snapshot rate/proc", "E[sup y] bound",
                      "recording fraction"});
  for (std::size_t k = 0; k < overhead_cells.size(); ++k) {
    const ResultSet& res = overhead_results[k];
    overhead.add_row(
        {TextTable::fmt_int(static_cast<long long>(k + 2)),
         TextTable::fmt_int(
             static_cast<long long>(res.value("prp_snapshots_per_rp"))),
         TextTable::fmt(res.value("prp_time_overhead_per_rp"), 3),
         TextTable::fmt(res.value("prp_snapshot_rate"), 2),
         TextTable::fmt(res.value("prp_mean_rollback_bound"), 4),
         TextTable::fmt(res.value("prp_recording_fraction_1"), 4)});
  }
  std::printf("%s\n",
              overhead
                  .render("Overheads (mu = lambda = 1, t_r = 0.01; paper "
                          "Section 4)")
                  .c_str());

  TextTable cmp({"case", "E[sup y] bound", "PRP dist (mc)", "PRP p95",
                 "async dist (mc)", "async p95", "async domino",
                 "PRP iter max"});
  for (std::size_t k = 0; k < std::size(cases); ++k) {
    const ResultSet& res = mc_results[k];
    const Metric& prp_d = res.metric("prp_distance");
    const Metric& async_d = res.metric("async_distance");
    char domino[32];
    std::snprintf(domino, sizeof(domino), "%zu/%zu",
                  static_cast<std::size_t>(res.value("async_domino_count")),
                  static_cast<std::size_t>(res.value("failures")));
    cmp.add_row({cases[k].label,
                 TextTable::fmt(res.value("exact_prp_mean_rollback_bound"),
                                3),
                 fmt_ci(prp_d.value, prp_d.half_width, 3),
                 TextTable::fmt(res.value("prp_distance_p95"), 3),
                 fmt_ci(async_d.value, async_d.half_width, 3),
                 TextTable::fmt(res.value("async_distance_p95"), 3), domino,
                 TextTable::fmt(res.value("prp_iterations_max"), 0)});
  }
  std::printf(
      "%s\n",
      cmp.render("Rollback distance: PRP scheme vs asynchronous RBs "
                 "(paired failures)")
          .c_str());

  // --- storage accounting from the simulator ---
  const ResultSet& storage = mc_results.back();
  std::printf("Storage (n = 3, mu = 1): snapshots/time = %.3f "
              "(model n*sum(mu) = %.1f reduced by failed ATs), RP rate = "
              "%.3f, recording fraction = %.5f, clean restarts verified: "
              "%zu contaminated of %zu failures\n",
              storage.value("snapshots_per_unit_time"), 9.0,
              storage.value("rp_per_unit_time"),
              storage.value("recording_time_fraction"),
              static_cast<std::size_t>(
                  storage.value("contaminated_restarts")),
              static_cast<std::size_t>(storage.value("failures")));
  std::printf(
      "\nShape check: PRP mean distance tracks E[sup y] and stays bounded\n"
      "while the asynchronous distance grows with interaction density and\n"
      "regularly dominoes - the paper's Section 4 trade-off.\n");
  return 0;
}
