// Resume planning: turn recovered journals into "done" and "lost" cells.
//
// Given the SweepStates the analysis pass (recov/journal.h) recovered for
// one sweep - one journal's for --resume, one per source for --merge -
// plan_resume() partitions the grid: committed cells carry their
// journaled ResultSets (the winners), everything else is a loser to
// re-evaluate.  The plan feeds HybridExecutor's pre-committed seam
// (core/dispatch.h): the scheduler seeds its committed mask and result
// vector from the plan and enqueues only the losers, so a resumed run
// evaluates exactly the uncommitted cells yet merges into a result vector
// bitwise identical to an uninterrupted run - per-cell seeds make a
// journaled result and a fresh evaluation of the same cell the same
// bytes, so where a cell's result came from cannot show in a table.
//
// A --merge evaluates nothing, so its plan must have no losers;
// take_results() names the first cell no source committed.
//
// Safety: a journal only ever resumes the grid that wrote it.  The
// caller passes the *current* invocation's cell count and fingerprint;
// a mismatch (different --samples/--seed/--nmax, or a different bench)
// throws instead of mixing two experiments into silently wrong tables -
// SweepRunner turns that into the exit-2 refusal the flag matrix
// promises.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/result.h"
#include "recov/journal.h"

namespace rbx {
namespace recov {

struct ResumePlan {
  // committed[i] != 0  =>  results[i] holds cell i's journaled result.
  std::vector<std::uint8_t> committed;
  std::vector<ResultSet> results;
  // Cell indices still to evaluate, ascending.
  std::vector<std::size_t> lost;

  std::size_t committed_cells() const {
    return committed.size() - lost.size();
  }
  bool complete() const { return lost.empty(); }

  // Moves out the full result vector of a complete plan (a --merge's
  // tables); throws wire::Error naming the first lost cell otherwise.
  std::vector<ResultSet> take_results();
};

// Throws wire::Error unless `state` was recovered from a sweep of this
// grid: `total_cells` cells with grid fingerprint `fingerprint`.
void check_grid(const SweepState& state, std::size_t total_cells,
                std::uint64_t fingerprint);

// Builds the done/lost partition for a sweep of `total_cells` cells with
// grid fingerprint `fingerprint` from the union of the recovered states.
// A cell committed by several states keeps the first copy, in `states`
// order (per-cell seeds make the copies bitwise identical anyway).
// Throws as check_grid() when any state belongs to a different grid.
ResumePlan plan_resume(const std::vector<const SweepState*>& states,
                       std::size_t total_cells, std::uint64_t fingerprint);

}  // namespace recov
}  // namespace rbx
