// MICRO - microbenchmarks of the Markov engine: chain construction, dense
// hitting-time solves, uniformization vs RK4 transient solutions, and the
// phase-type density evaluation that drives Figure 6.
//
// Each process count n is one sweep cell, the kernels are timed inside a
// bench-local EvalBackend, and the numbers come back as ResultSet metrics
// (value = ns/op, count = repetitions timed).  The timings are wall-clock,
// so the backend stays out of the registry (whose backends measure the
// scenario, not the host) and the sweep is local-only (--connect/--fleet
// exit 2).  --nmax picks the largest n, --samples scales the repetition
// budget, --threads times cells concurrently (wall-clock numbers per cell
// are still serial within the cell).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_main.h"
#include "support/check.h"

namespace {

using namespace rbx;

class MarkovKernelBackend final : public EvalBackend {
 public:
  std::string name() const override { return "markov-kernels"; }

  // The full model holds 2^n + 1 states; past 9 the dense solves stop
  // being "micro".
  bool supports(const Scenario& scenario) const override {
    return scenario.n() >= 2 && scenario.n() <= 9;
  }

  ResultSet evaluate(const Scenario& scenario) const override {
    RBX_CHECK_MSG(supports(scenario), "markov kernels need 2 <= n <= 9");
    const std::size_t n = scenario.n();
    ResultSet out(name(), scenario.label());
    const auto set_ns = [&out](const char* metric, std::size_t reps,
                               const std::function<double()>& fn) {
      out.set(metric, bench::time_ns(reps, fn), 0.0, reps);
    };
    // Budgets shrink with the state count so every n finishes promptly.
    const std::size_t budget = scenario.samples();
    const std::size_t heavy =
        std::max<std::size_t>(1, budget >> std::min<std::size_t>(n, 12));

    set_ns("build_full_ns", heavy, [n] {
      AsyncRbModel model(ProcessSetParams::symmetric(n, 1.0, 0.5));
      return model.mean_interval();
    });
    {
      // Hold rho at 0.05 so E[X] stays well-conditioned at every size.
      const double lambda = 2.0 * 0.05 / (static_cast<double>(n) - 1.0);
      set_ns("build_lumped_ns", std::max<std::size_t>(1, budget / 4),
             [n, lambda] {
               SymmetricAsyncModel model(n, 1.0, lambda);
               return model.mean_interval();
             });
    }
    if (n <= 8) {
      AsyncRbModel model(ProcessSetParams::symmetric(n, 1.0, 1.0));
      std::vector<double> pi0(model.num_states(), 0.0);
      pi0[0] = 1.0;
      set_ns("transient_uniformization_ns", heavy,
             [&model, &pi0] { return model.chain().transient(pi0, 1.0)[0]; });
      set_ns("transient_rk4_ns", heavy, [&model, &pi0] {
        return model.chain().transient_rk4(pi0, 1.0, 500)[0];
      });
    }
    if (n <= 7) {
      AsyncRbModel model(ProcessSetParams::symmetric(n, 1.0, 1.0));
      double t = 0.1;
      set_ns("phase_pdf_ns", heavy, [&model, &t] {
        const double v = model.interval_pdf(t);
        t = t < 2.0 ? t + 0.1 : 0.1;
        return v;
      });
      set_ns("expected_visits_ns", heavy, [&model] {
        return model.expected_rp_count_split_chain(0);
      });
    }
    {
      AsyncRbSimulator sim(ProcessSetParams::symmetric(n, 1.0, 1.0),
                           scenario.seed());
      set_ns("mc_lines_ns", std::max<std::size_t>(1, budget / 256),
             [&sim] { return sim.run_lines(100).interval.mean(); });
    }
    return out;
  }
};

std::string fmt_cell(const ResultSet& res, const char* metric) {
  if (!res.has(metric)) {
    return "-";
  }
  return TextTable::fmt(res.value(metric) / 1000.0, 1);  // ns -> us
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rbx;
  bench::Bench bench(argc, argv,
                     {"MICRO-MARKOV",
                      "Microbenchmarks: Markov chain build/solve kernels "
                      "(us/op)",
                      /*samples=*/4096, /*nmax=*/7},
                     /*default_threads=*/1);
  const std::size_t nmax = std::min<std::size_t>(bench.opts().nmax, 9);
  std::vector<Scenario> cells;
  for (std::size_t n = 2; n <= nmax; ++n) {
    cells.push_back(Scenario::symmetric(n, 1.0, 1.0)
                        .seed(bench.opts().seed + n)
                        .samples(bench.opts().samples));
  }
  const MarkovKernelBackend backend;
  const auto results = bench.run(cells, backend);
  if (!results) {
    return 0;  // --shard: partial written
  }

  TextTable table({"n", "build full", "build lumped", "transient unif",
                   "transient rk4", "phase pdf", "exp visits", "mc lines"});
  for (std::size_t k = 0; k < cells.size(); ++k) {
    const ResultSet& res = (*results)[k];
    table.add_row(
        {TextTable::fmt_int(static_cast<long long>(cells[k].n())),
         fmt_cell(res, "build_full_ns"), fmt_cell(res, "build_lumped_ns"),
         fmt_cell(res, "transient_uniformization_ns"),
         fmt_cell(res, "transient_rk4_ns"), fmt_cell(res, "phase_pdf_ns"),
         fmt_cell(res, "expected_visits_ns"), fmt_cell(res, "mc_lines_ns")});
  }
  std::printf("%s\n", table.render("Markov engine kernels (us/op)").c_str());
  return 0;
}
