// The benchmark's workloads: seeded generators of the cells one pass
// evaluates, plus the lane each workload runs on.
//
//   fig5_grid        the paper's Figure 5 exactly as the fig5 bench ships
//                    it (24 cells, analytic + Monte-Carlo for n <= 6) on a
//                    thread lane.  Cost is very uneven: one Monte-Carlo
//                    straggler and des/ speed set the pass time.
//   mc_streams       a fixed sequence of one-cell sweeps of streamed
//                    (streams=4) async, sync and PRP Monte-Carlo cells on
//                    a thread lane; the only parallelism is each cell's
//                    stream pool.
//   analytic_fanout  ~20,000 microsecond analytic cells over three dozen
//                    rate points on a fork lane with a sweep journal:
//                    dispatch, batch framing, merge and journal appends
//                    make up the pass while des/ is idle.
//
// The seed is the only input: the same seed gives the same cells.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/scenario.h"

namespace e2e {

enum class LaneKind { kThread, kFork };

struct Workload {
  std::string name;
  LaneKind lane = LaneKind::kThread;
  bool journal = false;  // commit every cell to a sweep journal
  // One pass runs these sweeps in order: a single sweep, or (mc_streams)
  // a sequence of one-cell sweeps.
  std::vector<std::vector<rbx::Scenario>> sweeps;
  rbx::PlanFn plan_fn;

  std::size_t cells_per_pass() const;
};

// Workload names in the order the benchmark lists them.
const std::vector<std::string>& workload_names();

// Generates a workload from its seed.  `scale` multiplies the Monte-Carlo
// budgets and the analytic cell count (1 = the benchmark's size; the
// self-test runs a tiny scale).  Throws std::invalid_argument for an
// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double scale);

}  // namespace e2e
