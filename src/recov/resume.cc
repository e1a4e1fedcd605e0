#include "recov/resume.h"

#include <string>
#include <utility>

namespace rbx {
namespace recov {

std::vector<ResultSet> ResumePlan::take_results() {
  if (!lost.empty()) {
    throw wire::Error("cell " + std::to_string(lost.front()) +
                      " is missing from every source");
  }
  return std::move(results);
}

void check_grid(const SweepState& state, std::size_t total_cells,
                std::uint64_t fingerprint) {
  if (state.fingerprint != fingerprint) {
    throw wire::Error(
        "the journal was written by a different sweep (grid "
        "fingerprint mismatch - different --samples/--seed/--nmax, or a "
        "different bench; journal options were '" +
        state.options + "')");
  }
  if (state.total_cells != total_cells) {
    throw wire::Error("the journal's sweep has " +
                      std::to_string(state.total_cells) +
                      " cells, this sweep has " +
                      std::to_string(total_cells));
  }
}

ResumePlan plan_resume(const std::vector<const SweepState*>& states,
                       std::size_t total_cells, std::uint64_t fingerprint) {
  for (const SweepState* state : states) {
    check_grid(*state, total_cells, fingerprint);
  }
  ResumePlan plan;
  plan.committed.assign(total_cells, 0);
  plan.results.assign(total_cells, ResultSet());
  for (const SweepState* state : states) {
    for (const auto& [cell, result] : state->committed) {
      if (plan.committed[cell] == 0) {
        plan.committed[cell] = 1;
        plan.results[cell] = result;
      }
    }
  }
  for (std::size_t i = 0; i < total_cells; ++i) {
    if (plan.committed[i] == 0) {
      plan.lost.push_back(i);
    }
  }
  return plan;
}

}  // namespace recov
}  // namespace rbx
