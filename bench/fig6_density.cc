// FIG6 - reproduces the paper's Figure 6: the probability density f_X(t)
// of the interval between successive recovery lines for three parameter
// cases (three processes), over normalized time t in [0, 2].
//
// Case parameters (OCR-recovered from the figure caption; DESIGN.md
// interpretation decision #5):
//   case 1: mu = (1.0, 1.0, 1.0),    lambda = (1.0, 1.0, 1.0)
//   case 2: mu = (0.6, 0.45, 0.45),  lambda = (0.5, 0.5, 0.5)
//   case 3: mu = (0.6, 0.45, 0.45),  lambda = (0.75, 0.75, 0.75)
//
// The paper highlights a "sharp impulse near t = 0" caused by the direct
// S_r -> S_{r+1} transition (rule R4): f_X(0) = sum mu.  The analytic
// column is the phase-type density of the R1-R4 chain; the histogram
// column is a Monte-Carlo check on the same grid.
//
// Each case is one sweep cell evaluated through the registered density
// backends (core/density_backend.h), so the grid runs under every
// execution mode - --threads, --workers, --connect, --fleet, --shard +
// --merge - with byte-identical output.
#include <cstdio>

#include "bench_main.h"
#include "core/density_backend.h"

int main(int argc, char** argv) {
  using namespace rbx;

  struct Case {
    const char* label;
    double mu1, mu2, mu3, l;
  };
  static const Case cases[] = {
      {"case1", 1.0, 1.0, 1.0, 1.0},
      {"case2", 0.6, 0.45, 0.45, 0.5},
      {"case3", 0.6, 0.45, 0.45, 0.75},
  };

  bench::SweepOutcome sweep = bench::run_sweep(
      argc, argv,
      {"FIG6", "Figure 6: density f_X(t) for three cases",
       /*samples=*/200000, /*nmax=*/0},
      [](const ExperimentOptions& opts) {
        std::vector<Scenario> cells;
        for (const Case& c : cases) {
          cells.push_back(
              Scenario::symmetric(3, 1.0, 1.0)
                  .params(ProcessSetParams::three(c.mu1, c.mu2, c.mu3, c.l,
                                                  c.l, c.l))
                  .seed(opts.seed)
                  .samples(opts.samples));
        }
        return cells;
      },
      EvalPlan{{EvalStep{"density-analytic", ""},
                EvalStep{"density-mc", "mc_"}}});
  if (!sweep.results) {
    return 0;  // --shard: journal written
  }
  const std::vector<ResultSet>& results = *sweep.results;

  TextTable table({"t", "f(t) case1", "mc case1", "f(t) case2", "mc case2",
                   "f(t) case3", "mc case3"});
  for (std::size_t i = 0; i < kDensityPoints; ++i) {
    std::vector<std::string> row;
    row.push_back(TextTable::fmt(density_grid_t(i), 2));
    for (std::size_t c = 0; c < 3; ++c) {
      row.push_back(TextTable::fmt(
          results[c].value("density_f_" + std::to_string(i)), 4));
      // The histogram estimates the density at bin centers; map the grid
      // point to the nearest bin (edges use the adjacent bin).
      const std::size_t bin = i == 0 ? 0 : (i - 1);
      row.push_back(TextTable::fmt(
          results[c].value("mc_density_bin_" + std::to_string(bin)), 4));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render("Figure 6 reproduction").c_str());

  for (std::size_t c = 0; c < 3; ++c) {
    const Scenario& s = sweep.cells[c];
    std::printf("%s: f(0) = %.4f (= sum mu = %.4f, the paper's impulse); "
                "E[X] = %.4f\n",
                cases[c].label, results[c].value("density_f0"),
                s.params().total_mu(), results[c].value("mean_interval_x"));
  }
  return 0;
}
