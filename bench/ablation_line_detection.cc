// ABL-LINE - ablation of the paper's recovery-line criterion.
//
// The Section 2 Markov model declares a new recovery line only when every
// process's most recent action is a recovery point (return to the all-ones
// state).  Under the paper's own pairwise definition, lines can also form
// from mixtures of old and new RPs (an interaction between P_i and P_j
// does not invalidate combinations avoiding that pair), so the model is
// conservative for n >= 3 and exact for n = 2 (DESIGN.md decision #6).
//
// This bench quantifies the gap on a shared event stream:
//   model        E[X] of the all-ones criterion (analytic + simulated)
//   any-advance  mean interval between advancements of the true maximal
//                line (any component moves)
//   full-refresh mean interval until every component is strictly newer
//
// Each (n, rho) point is one sweep cell evaluated through the registered
// "line-exact" backend (core/ablation_backend.h), seeded exactly as the
// original sequential loop, so the table is byte-identical under every
// execution mode.
#include <cstdint>
#include <cstdio>
#include <iterator>

#include "bench_main.h"

int main(int argc, char** argv) {
  using namespace rbx;

  static const double rho_levels[] = {0.5, 1.0, 2.0};
  bench::SweepOutcome sweep = bench::run_sweep(
      argc, argv,
      {"ABL-LINE",
       "Model's all-ones criterion vs exact pairwise recovery lines",
       /*samples=*/60000, /*nmax=*/4},
      [](const ExperimentOptions& opts) {
        std::vector<Scenario> cells;
        for (std::size_t n = 2; n <= opts.nmax; ++n) {
          for (double rho : rho_levels) {
            cells.push_back(
                Scenario::symmetric(n, 1.0, bench::lambda_for_rho(n, rho))
                    .seed(opts.seed + n * 31 +
                          static_cast<std::uint64_t>(rho * 8))
                    .samples(opts.samples));
          }
        }
        return cells;
      },
      EvalPlan{{EvalStep{"line-exact", ""}}});
  if (!sweep.results) {
    return 0;  // --shard: journal written
  }
  const std::vector<ResultSet>& results = *sweep.results;

  TextTable table({"n", "rho", "E[X] model (analytic)", "model (mc)",
                   "exact any-advance", "conservatism", "full-refresh"});
  for (std::size_t k = 0; k < results.size(); ++k) {
    const Scenario& s = sweep.cells[k];
    const ResultSet& res = results[k];
    const Metric& model_mc = res.metric("model_interval");
    const Metric& any = res.metric("any_advance");
    const Metric& refresh = res.metric("full_refresh");
    table.add_row(
        {TextTable::fmt_int(static_cast<long long>(s.n())),
         TextTable::fmt(rho_levels[k % std::size(rho_levels)], 2),
         TextTable::fmt(res.value("model_interval_analytic"), 4),
         fmt_ci(model_mc.value, model_mc.half_width),
         fmt_ci(any.value, any.half_width),
         TextTable::fmt(res.value("line_conservatism"), 3),
         fmt_ci(refresh.value, refresh.half_width)});
  }
  std::printf("%s\n",
              table.render("Recovery-line criteria on shared event streams")
                  .c_str());
  std::printf(
      "Reading: conservatism = model / any-advance. 1.0 at n = 2 (the\n"
      "criteria coincide); grows with n and rho as mixed old/new-RP lines\n"
      "become common. The model's X is an upper bound on the real interval\n"
      "between usable recovery lines - consistent with the paper's use of\n"
      "X as 'an upper bound for the real rollback distance'.\n");
  return 0;
}
