// SEC3-CL - reproduces Section 3's analysis of synchronized recovery
// blocks: the mean loss in computation power per synchronization,
//
//   CL = n * Int_0^inf (1 - G(t)) dt - sum_i 1/mu_i,
//   G(t) = prod_i (1 - e^{-mu_i t}).
//
// The paper gives the formula without a numbered table; this bench prints
// the curve for homogeneous systems (CL = n (H_n - 1) / mu), heterogeneous
// rate sets, and a Monte-Carlo validation through the commit simulator.
//
// Rows are sweep cells (analytic + Monte-Carlo backends per cell); the
// per-row seeds match the original loop so --threads/--workers/--shard
// only change the wall-clock, not the printed values.  Two grids, one
// bench::Bench: its SweepRunner persists across both sweeps so --shard
// journals one sweep section per grid.
#include <cstddef>
#include <cstdio>
#include <vector>

#include "bench_main.h"

int main(int argc, char** argv) {
  using namespace rbx;
  bench::Bench bench(
      argc, argv,
      {"SEC3-CL", "Section 3: computation-power loss of synchronized RBs",
       /*samples=*/30000, /*nmax=*/10});
  const ExperimentOptions& opts = bench.opts();

  std::vector<Scenario> cells;
  for (std::size_t n = 1; n <= opts.nmax; ++n) {
    cells.push_back(Scenario::from_mu(std::vector<double>(n, 1.0))
                        .scheme(SchemeKind::kSynchronized)
                        .seed(opts.seed + n)
                        .samples(opts.samples));
  }

  const auto homo_sweep =
      bench.run(cells, [](const Scenario& s, std::size_t) {
        // n = 1 never synchronizes, so there is nothing to simulate.
        EvalPlan plan{{EvalStep{"analytic", ""}}};
        if (s.n() >= 2) {
          plan.steps.push_back(EvalStep{"monte-carlo", "mc_"});
        }
        return plan;
      });

  // Heterogeneous sets: the slowest process dominates everyone's wait.
  struct HeteroCase {
    const char* label;
    std::vector<double> mu;
  };
  const HeteroCase hetero[] = {
      {"table-1 rates", {1.5, 1.0, 0.5}},
      {"fig-6 rates", {0.6, 0.45, 0.45}},
      {"one straggler", {2.0, 2.0, 2.0, 0.2}},
      {"two classes", {1.0, 1.0, 0.25, 0.25}},
  };
  std::vector<Scenario> het_cells;
  for (const HeteroCase& c : hetero) {
    het_cells.push_back(
        Scenario::from_mu(c.mu).scheme(SchemeKind::kSynchronized));
  }
  const auto het_sweep = bench.run(het_cells, analytic_backend());
  if (!homo_sweep) {
    return 0;  // --shard: journals for both sweeps written
  }
  const std::vector<ResultSet>& results = *homo_sweep;
  const std::vector<ResultSet>& het_results = *het_sweep;

  TextTable homo({"n", "E[Z] = H_n/mu", "CL closed form", "CL quadrature",
                  "CL monte-carlo", "mc-dev"});
  for (std::size_t k = 0; k < results.size(); ++k) {
    const std::size_t n = k + 1;
    const ResultSet& res = results[k];
    const double cl = res.value("sync_mean_loss");
    const double cl_quad =
        static_cast<double>(n) * res.value("sync_mean_max_wait_quadrature") -
        static_cast<double>(n);

    std::string mc = "-";
    std::string dev = "-";
    if (n >= 2) {
      const Metric& loss = res.metric("mc_sync_mean_loss");
      mc = fmt_ci(loss.value, loss.half_width);
      dev = fmt_dev(loss.value, cl);
    }
    homo.add_row({TextTable::fmt_int(static_cast<long long>(n)),
                  TextTable::fmt(res.value("sync_mean_max_wait"), 4),
                  TextTable::fmt(cl, 4), TextTable::fmt(cl_quad, 4), mc,
                  dev});
  }
  std::printf("%s\n",
              homo.render("Homogeneous processes (mu = 1.0)").c_str());

  TextTable het({"rates", "E[Z]", "CL", "wait of fastest",
                 "wait of slowest"});
  for (std::size_t k = 0; k < het_cells.size(); ++k) {
    const HeteroCase& c = hetero[k];
    const ResultSet& res = het_results[k];
    std::size_t fastest = 0, slowest = 0;
    for (std::size_t i = 0; i < c.mu.size(); ++i) {
      if (c.mu[i] > c.mu[fastest]) {
        fastest = i;
      }
      if (c.mu[i] < c.mu[slowest]) {
        slowest = i;
      }
    }
    het.add_row(
        {c.label, TextTable::fmt(res.value("sync_mean_max_wait"), 4),
         TextTable::fmt(res.value("sync_mean_loss"), 4),
         TextTable::fmt(
             res.value("sync_mean_wait_" + std::to_string(fastest + 1)), 4),
         TextTable::fmt(
             res.value("sync_mean_wait_" + std::to_string(slowest + 1)),
             4)});
  }
  std::printf("%s\n", het.render("Heterogeneous rate sets").c_str());
  std::printf(
      "Shape check: loss grows superlinearly in n (n(H_n - 1)) and is\n"
      "dominated by the slowest process - the paper's motivation for not\n"
      "synchronizing time-critical tasks too frequently.\n");
  return 0;
}
