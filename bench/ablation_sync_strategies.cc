// ABL-SYNC - ablation of Section 3's three synchronization-request
// strategies:
//   (1) constant wall-clock interval (blind timer);
//   (2) elapsed time since the previous recovery line;
//   (3) number of states saved since the previous line.
//
// The paper argues strategy 1 is the simplest but "may become very
// inefficient since it is possible to make synchronization requests
// immediately after the formation of recovery lines", while 2 and 3 bound
// the rollback distance and the saved-state volume respectively.  The
// bench matches the three strategies on mean line spacing, then compares
// loss rate, rollback distance (errors injected at a fixed rate) and
// states saved per line.
//
// Each strategy is one sweep cell: a synchronized-scheme Scenario whose
// SyncPolicy selects the strategy, evaluated through the registered
// "monte-carlo" backend, so the comparison runs under every execution
// mode with byte-identical output.
#include <cstdio>

#include "bench_main.h"

int main(int argc, char** argv) {
  using namespace rbx;

  static const char* labels[] = {"1: constant interval", "2: elapsed time",
                                 "3: saved states"};
  bench::SweepOutcome sweep = bench::run_sweep(
      argc, argv,
      {"ABL-SYNC", "Section 3 synchronization strategies compared",
       /*samples=*/30000, /*nmax=*/0},
      [](const ExperimentOptions& opts) {
        const std::vector<double> mu = {1.5, 1.0, 0.5};
        // E[Z], the commit wait every strategy pays per line; exact
        // inclusion-exclusion (model/sync_model.h).
        const double ez = expected_max_exponential(mu);
        // Target mean spacing between lines.
        const double target = 4.0;

        const Scenario base = Scenario::from_mu(mu)
                                  .scheme(SchemeKind::kSynchronized)
                                  .error_rate(0.5)
                                  .seed(opts.seed)
                                  .samples(opts.samples);
        SyncPolicy p;
        std::vector<Scenario> cells;
        p.strategy = SyncStrategy::kConstantInterval;
        p.interval = target;  // grid period == target spacing
        cells.push_back(Scenario(base).sync_policy(p));
        p.strategy = SyncStrategy::kElapsedTime;
        p.elapsed_threshold = target - ez;  // spacing = threshold + E[Z]
        cells.push_back(Scenario(base).sync_policy(p));
        p.strategy = SyncStrategy::kSavedStates;
        // Spacing = threshold/total_mu + E[Z]; total_mu = 3.
        p.saved_threshold =
            static_cast<std::size_t>((target - ez) * 3.0 + 0.5);
        cells.push_back(Scenario(base).sync_policy(p));
        return cells;
      },
      EvalPlan{{EvalStep{"monte-carlo", ""}}});
  if (!sweep.results) {
    return 0;  // --shard: journal written
  }
  const std::vector<ResultSet>& results = *sweep.results;

  TextTable table({"strategy", "line spacing", "loss rate", "loss/sync",
                   "rollback dist", "rollback p95", "states/line",
                   "states/line sd"});
  for (std::size_t k = 0; k < results.size(); ++k) {
    const ResultSet& res = results[k];
    const Metric& spacing = res.metric("sync_line_spacing");
    const Metric& rollback = res.metric("sync_rollback_distance");
    table.add_row({labels[k], fmt_ci(spacing.value, spacing.half_width, 3),
                   TextTable::fmt(res.value("sync_loss_rate"), 4),
                   TextTable::fmt(res.value("sync_mean_loss"), 4),
                   fmt_ci(rollback.value, rollback.half_width, 3),
                   TextTable::fmt(res.value("sync_rollback_distance_p95"),
                                  3),
                   TextTable::fmt(res.value("sync_states_per_line"), 2),
                   TextTable::fmt(res.value("sync_states_per_line_sd"),
                                  2)});
  }
  std::printf("%s\n",
              table
                  .render("Strategies matched to ~equal mean line spacing "
                          "(mu = {1.5, 1.0, 0.5}, target 4.0)")
                  .c_str());
  std::printf(
      "Reading: per-sync loss is strategy-independent (the commit cost\n"
      "depends only on mu), so at matched spacing the loss rates agree;\n"
      "strategy 2 tightens the rollback-distance tail (it caps line age),\n"
      "strategy 3 tightens the saved-state count (zero variance), and the\n"
      "blind timer controls neither - the paper's trade-off.\n");
  return 0;
}
