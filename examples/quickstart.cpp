// Quickstart: analyze a set of cooperating processes under the three
// backward-error-recovery schemes of Shin & Lee (ICPP 1983).
//
//   $ ./quickstart
//
// Three processes, recovery points at rates (1.5, 1.0, 0.5), every pair
// interacting at rate 1.0 - Table 1 case 2 of the paper.  One Scenario is
// evaluated by all three registered backends (analytic, Monte-Carlo,
// thread runtime) through the common EvalBackend interface, then a small
// sweep grid varies rho (scaling flags work here too: --threads=N,
// --workers=N, --shard=i/k + --merge).
#include <cstdio>

#include "core/api.h"

int main(int argc, char** argv) {
  using namespace rbx;
  const ExperimentOptions opts =
      ExperimentOptions::parse(argc, argv, /*samples=*/4000, /*nmax=*/0);

  // 1. Describe the experiment once: rates (Section 2.1 assumptions),
  //    PRP recording time, Monte-Carlo budget, runtime workload, seed.
  RuntimeWorkload workload;
  workload.steps = 500;
  const Scenario scenario =
      Scenario(ProcessSetParams::three(/*mu=*/1.5, 1.0, 0.5,
                                       /*lambda12/23/13=*/1.0, 1.0, 1.0))
          .t_record(0.01)
          .samples(20000)
          .seed(2026)
          .at_failure_probability(0.05)
          .workload(workload);
  std::printf("process set: %s\n\n", scenario.params().describe().c_str());

  // 2. Closed-form / chain-based analysis of all three schemes: the same
  //    scenario with the scheme knob turned, on the analytic backend.
  const ResultSet async_exact = analytic_backend().evaluate(
      Scenario(scenario).scheme(SchemeKind::kAsynchronous));
  const ResultSet sync_exact = analytic_backend().evaluate(
      Scenario(scenario).scheme(SchemeKind::kSynchronized));
  const ResultSet prp_exact = analytic_backend().evaluate(
      Scenario(scenario).scheme(SchemeKind::kPseudoRecoveryPoints));

  std::printf("%s\n\n",
              scheme_summary(async_exact, sync_exact, prp_exact).c_str());

  // 3. Validate the asynchronous-scheme numbers by simulation: identical
  //    scenario, Monte-Carlo backend, same metric name.
  const ResultSet mc = monte_carlo_backend().evaluate(
      Scenario(scenario).scheme(SchemeKind::kAsynchronous));
  const Metric& mc_x = mc.metric("mean_interval_x");
  std::printf("monte-carlo: E[X] = %s (analytic %.4f)\n",
              fmt_ci(mc_x.value, mc_x.half_width).c_str(),
              async_exact.value("mean_interval_x"));

  // 4. And run the real thing: three threads with checkpoints, messages
  //    and fault injection under the PRP scheme.
  const ResultSet rt = runtime_backend().evaluate(
      Scenario(scenario).scheme(SchemeKind::kPseudoRecoveryPoints));
  std::printf("runtime    : %zu RPs, %zu PRPs, %zu recoveries, "
              "restores verified: %s\n\n",
              static_cast<std::size_t>(rt.value("rps")),
              static_cast<std::size_t>(rt.value("prps")),
              static_cast<std::size_t>(rt.value("recoveries")),
              rt.value("restore_verified") != 0.0 ? "yes" : "NO");

  // 5. Sweeps replace hand-written loops: E[X] vs rho on a homogeneous
  //    3-process system, analytic and Monte-Carlo side by side.  Cells
  //    run concurrently; seeds derive from the master seed and the cell
  //    index, so the numbers never depend on the thread count.
  const auto apply_rho = [](Scenario& s, double rho) {
    const double nd = static_cast<double>(s.n());
    s.params(ProcessSetParams::symmetric(s.n(), 1.0,
                                         2.0 * rho / (nd - 1.0)));
  };
  const auto cells =
      SweepGrid(Scenario::symmetric(3, 1.0, 1.0).samples(opts.samples))
          .axis({0.5, 1.0, 2.0}, apply_rho)
          .expand(/*master_seed=*/2026);
  SweepRunner runner(opts);
  const auto sweep = runner.run(cells, [](const Scenario& s, std::size_t) {
    ResultSet out = analytic_backend().evaluate(s);
    out.merge(monte_carlo_backend().evaluate(s), "mc_");
    return out;
  });
  if (!sweep) {
    return 0;  // --shard: journal written
  }
  const std::vector<ResultSet>& rows = *sweep;
  TextTable table({"rho", "E[X] analytic", "E[X] monte-carlo"});
  for (std::size_t k = 0; k < rows.size(); ++k) {
    // Read rho back out of the cell (rho = lambda (n-1) / 2 for mu = 1)
    // rather than repeating the axis values.
    const Scenario& cell = cells[k];
    const double rho = cell.params().lambda(0, 1) *
                       (static_cast<double>(cell.n()) - 1.0) / 2.0;
    const Metric& m = rows[k].metric("mc_mean_interval_x");
    table.add_row({TextTable::fmt(rho, 2),
                   TextTable::fmt(rows[k].value("mean_interval_x"), 4),
                   fmt_ci(m.value, m.half_width)});
  }
  std::printf("%s", table.render("Sweep: E[X] vs rho (n = 3)").c_str());
  return 0;
}
