// The dispatch contract: any mix of lanes produces bitwise the same
// outcomes as evaluating the cells directly in a serial loop, worker
// crashes are recovered by respawn + re-admission instead of shrinking
// the pool, a respawned fork child never inherits a lock a thread-lane
// worker held, and the scheduler's counters expose what recovery did.
#include "core/dispatch.h"

#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/executor.h"
#include "core/lane.h"
#include "core/sweep.h"
#include "lane_sets.h"

namespace rbx {
namespace {

std::vector<Scenario> mc_grid(std::uint64_t master_seed) {
  const auto apply_n = [](Scenario& s, double n) {
    s.params(ProcessSetParams::symmetric(static_cast<std::size_t>(n), 1.0,
                                         1.0));
  };
  return SweepGrid(Scenario::symmetric(2, 1.0, 1.0).samples(300))
      .axis({2, 3, 4}, apply_n)
      .schemes({SchemeKind::kAsynchronous, SchemeKind::kSynchronized})
      .expand(master_seed);
}

CellFn backend_fn() {
  return [](const Scenario& s, std::size_t) {
    return monte_carlo_backend().evaluate(s);
  };
}

// The ground truth no scheduler may deviate from: the cells evaluated one
// by one on the calling thread, no wire round-trip, no batching.
std::vector<ResultSet> direct_reference(const std::vector<Scenario>& cells,
                                        const CellFn& fn) {
  std::vector<ResultSet> out;
  out.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out.push_back(fn(cells[i], i));
  }
  return out;
}

TEST(DispatchTest, ThreadAndForkLanesTogetherMatchDirectEvaluation) {
  const std::vector<Scenario> cells = mc_grid(17);
  const CellFn fn = backend_fn();
  const std::vector<ResultSet> reference = direct_reference(cells, fn);

  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.push_back(std::make_unique<ForkLane>(2));
  lanes.push_back(std::make_unique<ThreadLane>(2));
  DispatchOptions options;
  options.batch_size = 1;
  options.steal = true;  // legal on any multi-worker run now
  options.quiet = true;
  HybridExecutor hybrid(std::move(lanes), options);

  const auto outcomes = hybrid.run(cells, fn);
  ASSERT_EQ(outcomes.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << "cell " << i << ": "
                                  << outcomes[i].error;
    EXPECT_EQ(outcomes[i].result, reference[i]) << "cell " << i;
  }
}

TEST(DispatchTest, SingleThreadLaneMatchesDirectEvaluation) {
  // The executor every sweep defaults to must reproduce the direct loop
  // bit for bit even though cells now round-trip the wire format.
  const std::vector<Scenario> cells = mc_grid(29);
  const CellFn fn = backend_fn();
  const std::vector<ResultSet> reference = direct_reference(cells, fn);

  const auto outcomes = lane_sets::threads(1, cells, fn);
  ASSERT_EQ(outcomes.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].result, reference[i]) << "cell " << i;
  }
}

TEST(DispatchTest, ForkWorkerRespawnCountsAsReadmission) {
  // One fork worker, one poisonous cell: the crash kills the whole pool,
  // the respawn (a revival, counted as re-admission) restores it, the
  // rerun kills it again, and only then is the cell failed.  Everything
  // else still evaluates on the respawned workers.
  const std::vector<Scenario> cells(6, Scenario::symmetric(2, 1.0, 1.0));
  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.push_back(std::make_unique<ForkLane>(1));
  DispatchOptions options;
  options.batch_size = 1;
  options.quiet = true;
  HybridExecutor hybrid(std::move(lanes), options);

  const auto outcomes =
      hybrid.run(cells, [](const Scenario& s, std::size_t i) {
        if (i == 2) {
          ::_exit(77);
        }
        ResultSet out("test", s.label());
        out.set("index", static_cast<double>(i));
        return out;
      });
  ASSERT_EQ(outcomes.size(), 6u);
  EXPECT_FALSE(outcomes[2].ok());
  EXPECT_NE(outcomes[2].error.find("two lost workers"), std::string::npos)
      << outcomes[2].error;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 2) {
      continue;
    }
    EXPECT_TRUE(outcomes[i].ok()) << "cell " << i << ": "
                                  << outcomes[i].error;
  }
  // The pool was revived at least twice (once per kill).
  EXPECT_GE(hybrid.readmitted_workers(), 2u);
  EXPECT_EQ(hybrid.readmitted_workers_last_run(),
            hybrid.readmitted_workers());
}

TEST(DispatchTest, QuietRunWithoutFailuresLeavesCountersAtZero) {
  const std::vector<Scenario> cells = mc_grid(31);
  const CellFn fn = backend_fn();
  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.push_back(std::make_unique<ThreadLane>(4));
  HybridExecutor hybrid(std::move(lanes), DispatchOptions());
  const auto outcomes = hybrid.run(cells, fn);
  for (const CellOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok()) << outcome.error;
  }
  EXPECT_EQ(hybrid.stolen_cells(), 0u);
  EXPECT_EQ(hybrid.readmitted_workers(), 0u);
}

TEST(DispatchTest, NoLanesIsAnInfrastructureError) {
  const std::vector<Scenario> cells(2, Scenario::symmetric(2, 1.0, 1.0));
  HybridExecutor hybrid({}, DispatchOptions());
  EXPECT_THROW(hybrid.run(cells, backend_fn()), std::runtime_error);
  // Empty input short-circuits before the lanes matter.
  EXPECT_TRUE(hybrid.run({}, backend_fn()).empty());
}

TEST(DispatchTest, ForkRespawnWhileThreadsHoldTheAnalyticCacheNeverHangs) {
  // Thread-lane workers hammer one analytic cache stripe (every cell
  // shares one cache key) while fork children crash on their first cell
  // and the dispatch thread respawns them mid-sweep.  A child forked
  // while a worker held the stripe would inherit it locked and block on
  // its first analytic cell; at batch size 1 with no batch deadline the
  // sweep would then hang, so a watchdog turns that hang into a failure.
#if defined(__SANITIZE_ADDRESS__)
  // glibc's malloc is fork-safe; ASan's allocator (GCC 12) is not, and a
  // child forked while a worker is inside malloc blocks on its lock.
  GTEST_SKIP() << "ASan's allocator lock is not held across fork()";
#endif
  constexpr std::size_t kCells = 20000;
  constexpr int kMaxKills = 40;

  // Shared with the fork children: how many crashed on purpose, and
  // which cells already killed one (so no cell dies twice and becomes a
  // poisonous-cell error).
  struct Shared {
    std::atomic<int> kills{0};
    std::atomic<unsigned char> killed[kCells]{};
  };
  void* mem = ::mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  Shared* shared = new (mem) Shared();

  const pid_t parent = ::getpid();
  const CellFn fn = [shared, parent](const Scenario& s, std::size_t i) {
    static bool served = false;  // set in fork children only
    if (::getpid() != parent && !served) {
      served = true;
      // A hung child must not outlive a test the watchdog killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (shared->kills.load() < kMaxKills &&
          shared->killed[i].exchange(1) == 0) {
        shared->kills.fetch_add(1);
        ::_exit(3);
      }
    }
    return analytic_backend().evaluate(s);
  };

  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.push_back(std::make_unique<ForkLane>(2));
  lanes.push_back(std::make_unique<ThreadLane>(4));
  DispatchOptions options;
  options.batch_size = 1;
  options.quiet = true;
  HybridExecutor hybrid(std::move(lanes), options);
  const std::vector<Scenario> cells(kCells,
                                    Scenario::symmetric(3, 1.0, 1.0));
  ::alarm(30);  // the watchdog: SIGALRM fails the test if the sweep hangs
  const auto outcomes = hybrid.run(cells, fn);
  ::alarm(0);

  ASSERT_EQ(outcomes.size(), kCells);
  std::size_t failed = 0;
  for (const CellOutcome& outcome : outcomes) {
    failed += outcome.ok() ? 0 : 1;
  }
  EXPECT_EQ(failed, 0u);
  EXPECT_GE(shared->kills.load(), 1);  // the respawn path actually ran
  EXPECT_GE(hybrid.readmitted_workers(), 1u);
  ::munmap(mem, sizeof(Shared));
}

}  // namespace
}  // namespace rbx
