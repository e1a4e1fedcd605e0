#include "core/backend.h"

#include <stdexcept>

#include "core/ablation_backend.h"
#include "core/analytic_backend.h"
#include "core/density_backend.h"
#include "core/monte_carlo_backend.h"
#include "core/runtime_backend.h"
#include "core/structure_backend.h"

namespace rbx {

bool EvalBackend::supports(const Scenario& scenario) const {
  (void)scenario;
  return true;
}

const EvalBackend& analytic_backend() {
  static const AnalyticBackend backend;
  // ForkLane respawns children while thread-lane workers may hold a cache
  // stripe; the atfork handlers keep the children from inheriting it.
  [[maybe_unused]] static const bool held =
      (backend.hold_cache_across_fork(), true);
  return backend;
}

const EvalBackend& monte_carlo_backend() {
  static const MonteCarloBackend backend;
  return backend;
}

const EvalBackend& runtime_backend() {
  static const RuntimeBackend backend;
  return backend;
}

const EvalBackend& density_analytic_backend() {
  static const DensityAnalyticBackend backend;
  return backend;
}

const EvalBackend& density_monte_carlo_backend() {
  static const DensityMonteCarloBackend backend;
  return backend;
}

const EvalBackend& exact_line_backend() {
  static const ExactLineBackend backend;
  return backend;
}

const EvalBackend& hybrid_scheme_backend() {
  static const HybridSchemeBackend backend;
  return backend;
}

const EvalBackend& markov_structure_backend() {
  static const MarkovStructureBackend backend;
  return backend;
}

std::vector<const EvalBackend*> all_backends() {
  return {&analytic_backend(),         &monte_carlo_backend(),
          &runtime_backend(),          &density_analytic_backend(),
          &density_monte_carlo_backend(), &exact_line_backend(),
          &hybrid_scheme_backend(),    &markov_structure_backend()};
}

const EvalBackend* find_backend(const std::string& name) {
  for (const EvalBackend* b : all_backends()) {
    if (b->name() == name) {
      return b;
    }
  }
  return nullptr;
}

// Far above any real plan (plans are 1-3 steps); a corrupt count field
// fails here instead of as a huge allocation.
static constexpr std::uint32_t kMaxPlanSteps = 64;

void EvalPlan::encode(wire::Writer& w) const {
  if (steps.empty() || steps.size() > kMaxPlanSteps) {
    throw wire::Error("eval plan: " + std::to_string(steps.size()) +
                      " steps is not encodable (want 1.." +
                      std::to_string(kMaxPlanSteps) + ")");
  }
  w.u32(static_cast<std::uint32_t>(steps.size()));
  for (const EvalStep& step : steps) {
    w.str(step.backend);
    w.str(step.prefix);
  }
}

EvalPlan EvalPlan::decode(wire::Reader& r) {
  const std::uint32_t count = r.u32();
  if (count == 0 || count > kMaxPlanSteps) {
    throw wire::Error("eval plan: invalid step count " +
                      std::to_string(count));
  }
  EvalPlan plan;
  plan.steps.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    EvalStep step;
    step.backend = r.str();
    step.prefix = r.str();
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

EvalPlan plan_for(const EvalBackend& backend) {
  return EvalPlan{{EvalStep{backend.name(), ""}}};
}

ResultSet evaluate_plan(const EvalPlan& plan, const Scenario& scenario) {
  if (plan.steps.empty()) {
    throw std::runtime_error("eval plan: no steps");
  }
  ResultSet out;
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    const EvalStep& step = plan.steps[i];
    const EvalBackend* backend = find_backend(step.backend);
    if (backend == nullptr) {
      throw std::runtime_error("eval plan: unknown backend '" +
                               step.backend + "'");
    }
    if (i == 0) {
      out = backend->evaluate(scenario);
    } else {
      out.merge(backend->evaluate(scenario), step.prefix);
    }
  }
  return out;
}

}  // namespace rbx
