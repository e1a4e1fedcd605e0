// FIG2/3 - regenerates the structure of the paper's Figure 2 (the full
// Markov model for three processes) and Figure 3 (the simplified lumped
// chain), as state/transition inventories plus GraphViz DOT dumps.
//
// The full chain for n processes has 2^n + 1 states (paper Section 2.3's
// numbering, OCR-garbled in the source; DESIGN.md decision #1); the lumped
// chain has n + 2.  Lumping exactness is a test invariant; here the
// structures themselves are printed for inspection.
//
// Each n is one sweep cell evaluated through the registered
// "markov-structure" backend (core/structure_backend.h); the DOT dumps
// come from the same header's emitters (which also write torn-proof .dot
// files via wire::write_file_atomic when asked).  Purely analytic, so
// every execution mode prints identical bytes.
#include <cstdio>

#include "bench_main.h"
#include "core/structure_backend.h"

int main(int argc, char** argv) {
  using namespace rbx;

  bench::SweepOutcome sweep = bench::run_sweep(
      argc, argv,
      {"FIG2/3", "Markov chain structure regeneration", /*samples=*/0,
       /*nmax=*/8},
      [](const ExperimentOptions& opts) {
        std::vector<Scenario> cells;
        for (std::size_t n = 2; n <= opts.nmax && n <= 7; ++n) {
          cells.push_back(Scenario::symmetric(n, 1.0, 1.0).seed(opts.seed));
        }
        return cells;
      },
      EvalPlan{{EvalStep{"markov-structure", ""}}});
  if (!sweep.results) {
    return 0;  // --shard: journal written
  }
  const std::vector<ResultSet>& results = *sweep.results;

  TextTable table({"n", "full states (2^n+1)", "full transitions",
                   "lumped states (n+2)", "lumped transitions",
                   "E[X] full", "E[X] lumped"});
  for (std::size_t k = 0; k < results.size(); ++k) {
    const ResultSet& res = results[k];
    table.add_row(
        {TextTable::fmt_int(static_cast<long long>(sweep.cells[k].n())),
         TextTable::fmt_int(
             static_cast<long long>(res.value("full_states"))),
         TextTable::fmt_int(
             static_cast<long long>(res.value("full_transitions"))),
         TextTable::fmt_int(
             static_cast<long long>(res.value("lumped_states"))),
         TextTable::fmt_int(
             static_cast<long long>(res.value("lumped_transitions"))),
         TextTable::fmt(res.value("mean_interval_full"), 6),
         TextTable::fmt(res.value("mean_interval_lumped"), 6)});
  }
  std::printf("%s\n", table.render("Chain inventories (mu = lambda = 1)")
                           .c_str());

  // Figure 3: the simplified chain for n = 3, printed in full (small).
  std::printf("Figure 3 (simplified chain, n = 3) as DOT:\n%s\n",
              simplified_chain_dot(3, 1.0, 1.0).c_str());

  // Figure 2: the full chain for n = 3 - states named by their bit vector.
  std::printf("Figure 2 (full chain, n = 3) as DOT:\n%s\n",
              full_chain_dot(3, 1.0, 1.0).c_str());
  return 0;
}
