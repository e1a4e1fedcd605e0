// FIG5 - reproduces the paper's Figure 5: mean of X (the interval between
// successive recovery lines) as a function of the number of processes n.
//
// Setup per the figure caption: mu_i = 1.0 for every process, lambda_ij =
// lambda for every pair, and rho = (sum lambda_ij) / (sum mu_k) held at a
// chosen level.  The paper draws a single curve rising "drastically" over
// n = 2..5; we print the curve at several rho levels and cross-check the
// simplified R1'-R4' chain against the full 2^n + 1 state model and a
// Monte-Carlo run.
//
// Grid cells are evaluated concurrently (--threads=N in-process,
// --workers=N forked processes, --connect=host:port,... on remote worker
// daemons, --shard=i/k across hosts + --merge); the per-cell seeds
// reproduce the original sequential loop, so the printed values are
// identical under every execution mode.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <vector>

#include "bench_main.h"

int main(int argc, char** argv) {
  using namespace rbx;

  static const double rho_levels[] = {0.5, 1.0, 2.0};
  // An evaluation plan instead of a closure, so the cells can also run on
  // remote sweep_workerd daemons (--connect / --fleet).
  bench::SweepOutcome sweep = bench::run_sweep(
      argc, argv,
      {"FIG5", "Figure 5: E[X] vs number of processes n",
       /*samples=*/20000, /*nmax=*/9},
      [](const ExperimentOptions& opts) {
        std::vector<Scenario> cells;
        for (double rho : rho_levels) {
          for (std::size_t n = 2; n <= opts.nmax; ++n) {
            // rho = C(n,2) lambda / n  =>  lambda = 2 rho / (n - 1).
            const double lambda = bench::lambda_for_rho(n, rho);
            cells.push_back(Scenario::symmetric(n, 1.0, lambda)
                                .seed(opts.seed + n)
                                .samples(std::max<std::size_t>(
                                    1, opts.samples / (n >= 5 ? 4 : 1))));
          }
        }
        return cells;
      },
      [](const Scenario& s, std::size_t) {
        EvalPlan plan{{EvalStep{"analytic", ""}}};
        if (s.n() <= 6) {
          plan.steps.push_back(EvalStep{"monte-carlo", "mc_"});
        }
        return plan;
      });
  if (!sweep.results) {
    return 0;  // --shard: journal written
  }
  const std::vector<Scenario>& cells = sweep.cells;
  const std::vector<ResultSet>& results = *sweep.results;

  const std::size_t per_rho = cells.size() / std::size(rho_levels);
  for (std::size_t r = 0; r < std::size(rho_levels); ++r) {
    TextTable table({"n", "lambda", "E[X] (lumped)", "E[X] (full model)",
                     "E[X] (monte-carlo)", "sd[X]"});
    for (std::size_t k = 0; k < per_rho; ++k) {
      const Scenario& s = cells[r * per_rho + k];
      const ResultSet& res = results[r * per_rho + k];
      const std::size_t n = s.n();

      std::string full = "-";
      if (res.value_or("async_full_chain", 0.0) != 0.0) {
        full = TextTable::fmt(res.value("mean_interval_x"), 4);
      }
      std::string mc = "-";
      if (res.has("mc_mean_interval_x")) {
        const Metric& m = res.metric("mc_mean_interval_x");
        mc = fmt_ci(m.value, m.half_width);
      }
      table.add_row({TextTable::fmt_int(static_cast<long long>(n)),
                     TextTable::fmt(s.params().lambda(0, 1), 3),
                     TextTable::fmt(res.value("mean_interval_x_lumped"), 4),
                     full, mc,
                     TextTable::fmt(res.value("stddev_interval_x_lumped"),
                                    3)});
    }
    char title[96];
    std::snprintf(title, sizeof(title),
                  "Figure 5 reproduction at rho = %.2f (mu = 1.0)",
                  rho_levels[r]);
    std::printf("%s\n", table.render(title).c_str());
  }
  std::printf(
      "Shape check: at fixed rho the mean interval grows sharply with n\n"
      "(the paper: 'X increases drastically when there is an increase in\n"
      "the number of processes involved').\n");
  return 0;
}
