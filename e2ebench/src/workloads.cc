#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/rng.h"

namespace e2e {

using rbx::EvalPlan;
using rbx::EvalStep;
using rbx::Scenario;
using rbx::SchemeKind;

namespace {

// lambda that holds rho = C(n,2) lambda / (n mu) for n homogeneous
// processes (the fig5 bench's grid arithmetic).
double lambda_for_rho(std::size_t n, double rho, double mu = 1.0) {
  return 2.0 * rho * mu / (static_cast<double>(n) - 1.0);
}

std::size_t scaled(std::size_t samples, double scale) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(static_cast<double>(samples) *
                                               scale)));
}

// The analytic chain, cross-checked by the simulator under "mc_" (the
// plan shape of the fig5/sec3/sec4 benches).
EvalPlan analytic_plus_mc() {
  return EvalPlan{{EvalStep{"analytic", ""}, EvalStep{"monte-carlo", "mc_"}}};
}

Workload fig5_grid(std::uint64_t seed, double scale) {
  Workload w;
  w.name = "fig5_grid";
  w.lane = LaneKind::kThread;
  std::vector<Scenario> cells;
  const std::size_t samples = scaled(20000, scale);
  for (double rho : {0.5, 1.0, 2.0}) {
    for (std::size_t n = 2; n <= 9; ++n) {
      cells.push_back(
          Scenario::symmetric(n, 1.0, lambda_for_rho(n, rho))
              .seed(seed + n)
              .samples(std::max<std::size_t>(1, samples / (n >= 5 ? 4 : 1))));
    }
  }
  w.sweeps.push_back(std::move(cells));
  w.plan_fn = [](const Scenario& s, std::size_t) {
    EvalPlan plan{{EvalStep{"analytic", ""}}};
    if (s.n() <= 6) {
      plan.steps.push_back(EvalStep{"monte-carlo", "mc_"});
    }
    return plan;
  };
  return w;
}

Workload mc_streams(std::uint64_t seed, double scale) {
  Workload w;
  w.name = "mc_streams";
  w.lane = LaneKind::kThread;
  rbx::SplitMix64 seeds(seed);
  const auto add = [&](Scenario s, std::size_t samples) {
    w.sweeps.push_back(
        {s.seed(seeds.next()).samples(scaled(samples, scale)).streams(4)});
  };
  // Sequential costs of ~10 ms (spawn/join + merge dominate) and
  // ~0.2-0.4 s (pool scaling dominates) per cell, ~0.8 s per pass.
  const Scenario async4 = Scenario::symmetric(4, 1.0, lambda_for_rho(4, 1.0));
  const Scenario async6 = Scenario::symmetric(6, 1.0, lambda_for_rho(6, 2.0));
  const Scenario sync4 = Scenario::from_mu(std::vector<double>(4, 1.0))
                             .scheme(SchemeKind::kSynchronized);
  const Scenario sync8 = Scenario::from_mu(std::vector<double>(8, 1.0))
                             .scheme(SchemeKind::kSynchronized);
  const Scenario prp3 = Scenario::symmetric(3, 1.0, 1.0)
                            .scheme(SchemeKind::kPseudoRecoveryPoints)
                            .t_record(1e-4)
                            .error_rate(0.25);
  add(async4, 5000);
  add(async6, 1800);
  add(sync4, 45000);
  add(sync8, 500000);
  add(prp3, 3000);
  add(prp3, 50000);
  w.plan_fn = [](const Scenario&, std::size_t) { return analytic_plus_mc(); };
  return w;
}

Workload analytic_fanout(std::uint64_t seed, double scale) {
  Workload w;
  w.name = "analytic_fanout";
  w.lane = LaneKind::kFork;
  w.journal = true;
  // A dozen rate points per scheme; n cycles through 2..5 so every pass
  // has the same mix of chain sizes whatever the seed.
  rbx::Rng rng(seed);
  std::vector<Scenario> points;
  for (std::size_t k = 0; k < 12; ++k) {
    const std::size_t n = 2 + k % 4;
    const double mu = rng.uniform(0.5, 2.0);
    const double rho = rng.uniform(0.25, 2.0);
    points.push_back(Scenario::symmetric(n, mu, lambda_for_rho(n, rho, mu)));
  }
  for (std::size_t k = 0; k < 12; ++k) {
    std::vector<double> mu(2 + k % 4);
    for (double& m : mu) {
      m = rng.uniform(0.5, 2.0);
    }
    points.push_back(
        Scenario::from_mu(std::move(mu)).scheme(SchemeKind::kSynchronized));
  }
  for (std::size_t k = 0; k < 12; ++k) {
    const std::size_t n = 2 + k % 4;
    const double mu = rng.uniform(0.5, 2.0);
    const double rho = rng.uniform(0.25, 2.0);
    points.push_back(Scenario::symmetric(n, mu, lambda_for_rho(n, rho, mu))
                         .scheme(SchemeKind::kPseudoRecoveryPoints)
                         .t_record(rng.uniform(1e-3, 1e-2)));
  }
  const std::size_t count =
      std::max(points.size(), scaled(20000, scale));
  std::vector<Scenario> cells;
  cells.reserve(count);
  rbx::SplitMix64 seeds(seed);
  for (std::size_t i = 0; i < count; ++i) {
    cells.push_back(Scenario(points[i % points.size()]).seed(seeds.next()));
  }
  w.sweeps.push_back(std::move(cells));
  w.plan_fn = [](const Scenario&, std::size_t) {
    return EvalPlan{{EvalStep{"analytic", ""}}};
  };
  return w;
}

}  // namespace

std::size_t Workload::cells_per_pass() const {
  std::size_t total = 0;
  for (const auto& sweep : sweeps) {
    total += sweep.size();
  }
  return total;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig5_grid", "mc_streams",
                                                 "analytic_fanout"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       double scale) {
  if (name == "fig5_grid") {
    return fig5_grid(seed, scale);
  }
  if (name == "mc_streams") {
    return mc_streams(seed, scale);
  }
  if (name == "analytic_fanout") {
    return analytic_fanout(seed, scale);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace e2e
