// TAB1 - reproduces the paper's Table 1: mean values of X and L_i for the
// five (mu, lambda) cases at constant rho = 1.
//
// Columns:
//   paper        the value printed in the 1983 table (their simulation)
//   analytic     exact value from the rule R1-R4 chain (this library)
//   monte-carlo  this library's simulation of the Section 2.1 process
//
// Findings reproduced (see EXPERIMENTS.md):
//  * the paper's E(L_i) rows equal mu_i * E[X] exactly, confirming the
//    counting convention and the chain;
//  * the paper's E(X) row is its (noisier) simulation estimate, ~4% above
//    the exact mean;
//  * case 5's printed E(L2) = 3.111 is a typo for 3.311 (the column sum
//    9.933 only works with 3.311 = mu_2 * E[X]).
//
// The five cases run concurrently with the per-case seeds of the original
// sequential loop (opts.seed + k * 0x9e3779b9), keeping the Monte-Carlo
// columns identical at any --threads/--workers/--shard split.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_main.h"

namespace {

struct Table1Case {
  const char* label;
  double mu1, mu2, mu3;
  double l12, l23, l13;
  double paper_ex;
  double paper_l1, paper_l2, paper_l3;
};

// Values transcribed from the paper's Table 1.
const Table1Case kCases[] = {
    {"1", 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.598, 2.500, 2.500, 2.500},
    {"2", 1.5, 1.0, 0.5, 1.0, 1.0, 1.0, 3.357, 4.847, 3.231, 1.616},
    {"3", 1.0, 1.0, 1.0, 1.5, 0.5, 1.0, 2.600, 2.453, 2.453, 2.453},
    {"4", 1.5, 1.0, 0.5, 1.5, 0.5, 1.0, 3.203, 4.533, 3.022, 1.511},
    // E(L2) printed as 3.111 in the paper; 3.311 restores the row sum.
    {"5", 1.5, 1.0, 0.5, 0.5, 1.5, 1.0, 3.354, 4.967, 3.311, 1.656},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rbx;
  // Plan instead of closure: every case evaluates the exact chain, then
  // merges the Monte-Carlo run - locally or on --connect workers.
  bench::SweepOutcome sweep = bench::run_sweep(
      argc, argv,
      {"TAB1", "Table 1: E[X] and E[L_i] for five rate cases at rho = 1",
       /*samples=*/150000, /*nmax=*/0},
      [](const ExperimentOptions& opts) {
        // A distinct stream per case keeps the Monte-Carlo columns
        // statistically independent across rows.
        std::vector<Scenario> cells;
        std::uint64_t case_seed = opts.seed;
        for (const Table1Case& c : kCases) {
          cells.push_back(
              Scenario(ProcessSetParams::three(c.mu1, c.mu2, c.mu3, c.l12,
                                               c.l23, c.l13))
                  .seed(case_seed += 0x9e3779b9)
                  .samples(opts.samples));
        }
        return cells;
      },
      EvalPlan{{EvalStep{"analytic", ""}, EvalStep{"monte-carlo", "mc_"}}});
  if (!sweep.results) {
    return 0;  // --shard: journal written
  }
  const std::vector<ResultSet>& results = *sweep.results;

  TextTable table({"case", "quantity", "paper", "analytic", "monte-carlo",
                   "mc-dev"});
  for (std::size_t k = 0; k < results.size(); ++k) {
    const Table1Case& c = kCases[k];
    const ResultSet& res = results[k];
    const Metric& mc_x = res.metric("mc_mean_interval_x");
    table.add_row({c.label, "E[X]", TextTable::fmt(c.paper_ex, 3),
                   TextTable::fmt(res.value("mean_interval_x"), 4),
                   fmt_ci(mc_x.value, mc_x.half_width),
                   fmt_dev(mc_x.value, res.value("mean_interval_x"))});
    const double paper_l[3] = {c.paper_l1, c.paper_l2, c.paper_l3};
    for (std::size_t i = 0; i < 3; ++i) {
      const double wald = res.value(indexed_metric("rp_count_", i));
      const Metric& mc_l = res.metric(indexed_metric("mc_rp_count_", i));
      char q[16];
      std::snprintf(q, sizeof(q), "E[L%zu]", i + 1);
      table.add_row({c.label, q, TextTable::fmt(paper_l[i], 3),
                     TextTable::fmt(wald, 4),
                     fmt_ci(mc_l.value, mc_l.half_width),
                     fmt_dev(mc_l.value, wald)});
    }
    double sum_wald = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      sum_wald += res.value(indexed_metric("rp_count_", i));
    }
    table.add_row({c.label, "sum E[L]",
                   TextTable::fmt(c.paper_l1 + c.paper_l2 + c.paper_l3, 3),
                   TextTable::fmt(sum_wald, 4), "-", "-"});
  }
  std::printf("%s\n", table.render("Table 1 reproduction").c_str());

  // Secondary table: the three L_i counting conventions (DESIGN.md
  // interpretation decision #4) for case 2, illustrating why the Wald
  // convention is the paper's.
  TextTable conv({"case-2 process", "incl. final (a)", "excl. final (b)",
                  "state-changing (c)", "paper"});
  const ResultSet& case2 = results[1];
  const double paper2[3] = {4.847, 3.231, 1.616};
  for (std::size_t i = 0; i < 3; ++i) {
    char p[8];
    std::snprintf(p, sizeof(p), "P%zu", i + 1);
    conv.add_row(
        {p, TextTable::fmt(case2.value(indexed_metric("rp_count_", i)), 4),
         TextTable::fmt(case2.value(indexed_metric("rp_count_excl_", i)), 4),
         TextTable::fmt(case2.value(indexed_metric("rp_count_statechg_", i)),
                        4),
         TextTable::fmt(paper2[i], 3)});
  }
  std::printf("%s\n",
              conv.render("L_i counting conventions (case 2)").c_str());
  std::printf("Convention (a) matches the paper's E(L_i) to all printed "
              "digits.\n");
  return 0;
}
