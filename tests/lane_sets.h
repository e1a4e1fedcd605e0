// Test-only lane sets: the single-lane sweeps tests evaluate on, each one
// HybridExecutor over explicit lanes.
//
//   lane_sets::threads(4, cells, fn)        // 4 worker threads
//   lane_sets::forks(2, 1, cells, fn)       // 2 forked workers, batch 1
//   lane_sets::RemoteSweep sweep(lane_sets::connect({a, b}), plan);
//   sweep.run(cells);                       // a --connect lane
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "core/dispatch.h"
#include "core/lane.h"
#include "fleet/lane.h"
#include "net/socket.h"

namespace rbx {
namespace lane_sets {

// One sweep on a HybridExecutor over `lanes`.
inline std::vector<CellOutcome> run(std::vector<std::unique_ptr<Lane>> lanes,
                                    const std::vector<Scenario>& cells,
                                    const CellFn& fn,
                                    DispatchOptions options = {}) {
  HybridExecutor executor(std::move(lanes), options);
  return executor.run(cells, fn);
}

// `count` worker threads (0 = hardware concurrency).
inline std::vector<CellOutcome> threads(std::size_t count,
                                        const std::vector<Scenario>& cells,
                                        const CellFn& fn) {
  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.push_back(std::make_unique<ThreadLane>(count));
  return run(std::move(lanes), cells, fn);
}

// `count` forked workers dealt `batch_size` cells per frame (0 =
// adaptive).
inline std::vector<CellOutcome> forks(std::size_t count,
                                      std::size_t batch_size,
                                      const std::vector<Scenario>& cells,
                                      const CellFn& fn) {
  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.push_back(std::make_unique<ForkLane>(count));
  DispatchOptions options;
  options.batch_size = batch_size;
  return run(std::move(lanes), cells, fn, options);
}

// The remote lane as --connect configures it: a static member list, with
// the stderr notes silenced.
inline fleet::FleetLaneOptions connect(std::vector<net::Endpoint> members) {
  fleet::FleetLaneOptions options;
  options.members = std::move(members);
  options.quiet = true;
  return options;
}

// A quiet HybridExecutor over one remote lane that evaluates through
// `plan`, keeping a view of the lane for its live() and backfills()
// counters (the executor owns it).
struct RemoteSweep {
  RemoteSweep(fleet::FleetLaneOptions lane_options, PlanFn plan,
              DispatchOptions options = {})
      : executor(own(std::move(lane_options), &lane), quiet(options)) {
    executor.set_plan_fn(std::move(plan));
  }

  std::vector<CellOutcome> run(const std::vector<Scenario>& cells) {
    return executor.run(cells, CellFn());
  }

  // Declared before executor: own() sets it while executor is built.
  fleet::FleetLane* lane = nullptr;
  HybridExecutor executor;

 private:
  static std::vector<std::unique_ptr<Lane>> own(
      fleet::FleetLaneOptions lane_options, fleet::FleetLane** view) {
    auto remote = std::make_unique<fleet::FleetLane>(std::move(lane_options));
    *view = remote.get();
    std::vector<std::unique_ptr<Lane>> lanes;
    lanes.push_back(std::move(remote));
    return lanes;
  }
  static DispatchOptions quiet(DispatchOptions options) {
    options.quiet = true;
    return options;
  }
};

}  // namespace lane_sets
}  // namespace rbx
