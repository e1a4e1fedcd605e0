// Resume planning and the dispatch pre-committed seam: a journal's
// recovered state partitions the grid into winners and losers, the
// scheduler evaluates only the losers, and the merged output is bitwise
// identical to an uninterrupted run; a journal from a different grid
// refuses instead of mixing experiments.  A --merge is the same plan over
// several journals that must end complete: any --journal file is a merge
// source, and a shard journal cut at any byte either merges bitwise or
// names a missing cell.
#include "recov/resume.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/dispatch.h"
#include "core/executor.h"
#include "core/experiment.h"
#include "core/lane.h"
#include "core/result.h"
#include "core/scenario.h"
#include "core/sweep.h"
#include "recov/journal.h"
#include "support/wire.h"

namespace rbx {
namespace recov {
namespace {

ResultSet make_result(std::size_t cell) {
  ResultSet r("test", "cell-" + std::to_string(cell));
  r.set("value", 10.0 * static_cast<double>(cell), 0.0, 1);
  return r;
}

SweepState make_state(std::uint64_t fingerprint, std::uint64_t total,
                      const std::vector<std::size_t>& committed) {
  SweepState s;
  s.fingerprint = fingerprint;
  s.total_cells = total;
  s.options = "samples=100 nmax=4 seed=1";
  for (std::size_t c : committed) {
    s.committed.emplace_back(c, make_result(c));
  }
  return s;
}

TEST(ResumePlanTest, PartitionsDoneAndLostCells) {
  const SweepState state = make_state(0xfeedu, 5, {0, 3});
  const ResumePlan plan = plan_resume({&state}, 5, 0xfeedu);
  ASSERT_EQ(plan.committed.size(), 5u);
  ASSERT_EQ(plan.results.size(), 5u);
  EXPECT_EQ(plan.committed_cells(), 2u);
  EXPECT_FALSE(plan.complete());
  EXPECT_EQ(plan.lost, (std::vector<std::size_t>{1, 2, 4}));
  EXPECT_TRUE(plan.committed[0]);
  EXPECT_FALSE(plan.committed[1]);
  EXPECT_TRUE(plan.committed[3]);
  EXPECT_EQ(plan.results[0], make_result(0));
  EXPECT_EQ(plan.results[3], make_result(3));
}

TEST(ResumePlanTest, CompleteSweepHasNoLosers) {
  const SweepState state = make_state(0xfeedu, 3, {0, 1, 2});
  const ResumePlan plan = plan_resume({&state}, 3, 0xfeedu);
  EXPECT_TRUE(plan.complete());
  EXPECT_EQ(plan.committed_cells(), 3u);
}

TEST(ResumePlanTest, FingerprintMismatchRefuses) {
  // A journal written by a different grid (--samples, --seed, --nmax or a
  // different bench changed) must throw, and the message must carry the
  // journal's own options digest so the user can see what it was.
  const SweepState state = make_state(0xfeedu, 5, {0});
  try {
    plan_resume({&state}, 5, 0xbad0u);
    FAIL() << "fingerprint mismatch did not throw";
  } catch (const wire::Error& e) {
    EXPECT_NE(std::string(e.what()).find("samples=100 nmax=4 seed=1"),
              std::string::npos)
        << e.what();
  }
}

TEST(ResumePlanTest, CellCountMismatchRefuses) {
  const SweepState state = make_state(0xfeedu, 5, {0});
  EXPECT_THROW(plan_resume({&state}, 7, 0xfeedu), wire::Error);
}

// --- the dispatch seam ---------------------------------------------------

// Records each evaluated cell in *evaluated (when non-null).  A thread
// lane's workers call the function concurrently, so every copy of it
// serializes the push through one shared mutex.
CellFn indexed_fn(std::vector<std::size_t>* evaluated) {
  auto mu = std::make_shared<std::mutex>();
  return [evaluated, mu](const Scenario& s, std::size_t i) {
    if (evaluated != nullptr) {
      const std::lock_guard<std::mutex> lock(*mu);
      evaluated->push_back(i);
    }
    ResultSet out("test", s.label());
    out.set("value", 10.0 * static_cast<double>(i), 0.0, 1);
    return out;
  };
}

TEST(DispatchResumeTest, PrecommittedCellsAreNotReEvaluated) {
  // Simulate a crash-resume: run a full sweep journaling through the
  // commit hook, seed a second run with half the outcomes pre-committed,
  // and require (a) only the losers were evaluated, (b) the merged
  // outcomes are identical to the uninterrupted run, (c) the hook fired
  // only for the losers.
  const std::vector<Scenario> cells(6, Scenario::symmetric(2, 1.0, 1.0));

  std::vector<std::unique_ptr<Lane>> lanes1;
  lanes1.push_back(std::make_unique<ThreadLane>(2));
  DispatchOptions opts;
  opts.quiet = true;
  HybridExecutor full(std::move(lanes1), opts);
  std::vector<std::size_t> full_commits;
  full.set_commit_hook([&full_commits](std::size_t i, const CellOutcome&) {
    full_commits.push_back(i);
  });
  const auto reference = full.run(cells, indexed_fn(nullptr));
  ASSERT_EQ(reference.size(), cells.size());
  EXPECT_EQ(full_commits.size(), cells.size());

  // The "journal": cells 0, 2, 4 survived the crash.
  std::vector<std::uint8_t> mask(cells.size(), 0);
  std::vector<CellOutcome> seed(cells.size());
  for (std::size_t i : {0u, 2u, 4u}) {
    mask[i] = 1;
    seed[i] = reference[i];
  }

  std::vector<std::unique_ptr<Lane>> lanes2;
  lanes2.push_back(std::make_unique<ThreadLane>(2));
  HybridExecutor resumed(std::move(lanes2), opts);
  resumed.set_precommitted(mask, seed);
  std::vector<std::size_t> resumed_commits;
  resumed.set_commit_hook(
      [&resumed_commits](std::size_t i, const CellOutcome&) {
        resumed_commits.push_back(i);
      });
  std::vector<std::size_t> evaluated;
  const auto outcomes = resumed.run(cells, indexed_fn(&evaluated));

  ASSERT_EQ(outcomes.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].result, reference[i].result) << "cell " << i;
  }
  // Only the losers were evaluated and only they fired the hook.
  std::sort(evaluated.begin(), evaluated.end());
  EXPECT_EQ(evaluated, (std::vector<std::size_t>{1, 3, 5}));
  std::sort(resumed_commits.begin(), resumed_commits.end());
  EXPECT_EQ(resumed_commits, (std::vector<std::size_t>{1, 3, 5}));

  // The seam is one-shot: a further run starts clean and evaluates all.
  std::vector<std::size_t> again;
  const auto rerun = resumed.run(cells, indexed_fn(&again));
  ASSERT_EQ(rerun.size(), cells.size());
  EXPECT_EQ(again.size(), cells.size());
}

TEST(DispatchResumeTest, FullyPrecommittedSweepTouchesNoWorker) {
  const std::vector<Scenario> cells(3, Scenario::symmetric(2, 1.0, 1.0));
  std::vector<std::uint8_t> mask(cells.size(), 1);
  std::vector<CellOutcome> seed(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    seed[i].result = make_result(i);
  }
  // No lanes at all: with every cell pre-committed nothing needs a worker,
  // so the usual "no lanes" infrastructure error must not fire.
  HybridExecutor hybrid({}, DispatchOptions());
  hybrid.set_precommitted(mask, seed);
  std::vector<std::size_t> evaluated;
  const auto outcomes = hybrid.run(cells, indexed_fn(&evaluated));
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(evaluated.empty());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(outcomes[i].result, make_result(i));
  }
}

TEST(DispatchResumeTest, MismatchedPrecommitSizesThrow) {
  const std::vector<Scenario> cells(4, Scenario::symmetric(2, 1.0, 1.0));
  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.push_back(std::make_unique<ThreadLane>(1));
  DispatchOptions opts;
  opts.quiet = true;
  HybridExecutor hybrid(std::move(lanes), opts);
  hybrid.set_precommitted(std::vector<std::uint8_t>(3, 0),
                          std::vector<CellOutcome>(3));
  EXPECT_THROW(hybrid.run(cells, indexed_fn(nullptr)), std::runtime_error);
}

// --- merge: a resume over several journals ------------------------------

// The two grids of a small two-sweep "bench": 6 Monte-Carlo cells, then 2.
std::vector<std::vector<Scenario>> bench_grids() {
  const auto apply_n = [](Scenario& s, double n) {
    s.params(ProcessSetParams::symmetric(static_cast<std::size_t>(n), 1.0,
                                         1.0));
  };
  const Scenario base = Scenario::symmetric(2, 1.0, 1.0).samples(200);
  return {SweepGrid(base)
              .axis({2, 3, 4}, apply_n)
              .schemes({SchemeKind::kAsynchronous,
                        SchemeKind::kSynchronized})
              .expand(11),
          SweepGrid(base).axis({2, 3}, apply_n).expand(12)};
}

// Runs the bench's sweeps through one SweepRunner under `flags`, the way a
// bench binary does; a --shard run returns empty result vectors.
std::vector<std::vector<ResultSet>> run_bench(
    const std::vector<std::string>& flags) {
  std::vector<std::string> args = {"bench"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  SweepRunner runner(ExperimentOptions::parse(static_cast<int>(argv.size()),
                                              argv.data(), 200, 4));
  std::vector<std::vector<ResultSet>> out;
  for (const std::vector<Scenario>& cells : bench_grids()) {
    auto results = runner.run(cells, monte_carlo_backend());
    out.push_back(results ? std::move(*results) : std::vector<ResultSet>());
  }
  return out;
}

TEST(MergeTest, UnshardedJournalIsAOneSourceMerge) {
  // A shard file is the journal of the cells it owns, so the --journal
  // file of an unsharded run - one source owning every cell - is itself a
  // valid --merge input, and it reproduces the reference bytes.
  const std::string path = ::testing::TempDir() + "merge_unsharded.rbxj";
  const auto reference = run_bench({"--threads=1"});
  EXPECT_EQ(run_bench({"--threads=2", "--journal=" + path}), reference);
  EXPECT_EQ(run_bench({"--merge=" + path}), reference);
  std::remove(path.c_str());
}

TEST(MergeTest, ShardJournalCutAtEveryByteMergesOrNamesAMissingCell) {
  const std::string dir = ::testing::TempDir();
  const std::string shard0 = dir + "merge_cut_shard0.rbxw";
  const std::string shard1 = dir + "merge_cut_shard1.rbxw";
  const std::string cut_path = dir + "merge_cut_shard1_cut.rbxw";
  const auto reference = run_bench({"--threads=1"});
  run_bench({"--threads=2", "--shard=0/2", "--shard-out=" + shard0});
  run_bench({"--threads=2", "--shard=1/2", "--shard-out=" + shard1});
  EXPECT_EQ(run_bench({"--merge=" + shard0 + "," + shard1}), reference);

  // Cut shard 1's journal at every byte boundary and merge it with shard
  // 0's: a cut either merges bitwise, when every cell survived it, or
  // fails naming a cell no source committed - never garbage, never a
  // crash.  Only cuts inside the final sweep-end record keep every cell.
  const std::vector<std::vector<Scenario>> grids = bench_grids();
  const JournalAnalysis first = analyze_journal(shard0);
  ASSERT_EQ(first.sweeps.size(), grids.size());
  const std::vector<std::byte> bytes = read_file_bytes(shard1, "shard 1");
  std::size_t merged_cuts = 0;
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const JournalAnalysis second = analyze_journal_bytes(bytes.data(), cut);
    bool merged = true;
    for (std::size_t s = 0; s < grids.size(); ++s) {
      std::vector<const SweepState*> states = {&first.sweeps[s]};
      if (s < second.sweeps.size()) {
        states.push_back(&second.sweeps[s]);
      }
      ResumePlan plan =
          plan_resume(states, grids[s].size(), grid_fingerprint(grids[s]));
      try {
        EXPECT_EQ(plan.take_results(), reference[s])
            << "cut " << cut << " sweep " << s;
      } catch (const wire::Error& e) {
        merged = false;
        const std::string missing =
            "cell " + std::to_string(plan.lost.front()) + " is missing";
        EXPECT_NE(std::string(e.what()).find(missing), std::string::npos)
            << "cut " << cut << ": " << e.what();
      }
    }
    merged_cuts += merged ? 1 : 0;
  }
  const std::size_t end_record =
      seal_record(kRecordSweepEnd, sweep_end_record(1, {}).payload).size();
  EXPECT_EQ(merged_cuts, end_record + 1);

  // The bench refuses the same way: cut the last cell record one byte
  // short and the merge exits 1 naming the lost cell (shard 1's only cell
  // of sweep 1).
  wire::write_file(cut_path, std::vector<std::byte>(
                                 bytes.begin(),
                                 bytes.end() - static_cast<std::ptrdiff_t>(
                                                   end_record + 1)));
  EXPECT_EXIT(run_bench({"--merge=" + shard0 + "," + cut_path}),
              ::testing::ExitedWithCode(1),
              "merge: sweep 1: cell 1 is missing from every source");
  std::remove(shard0.c_str());
  std::remove(shard1.c_str());
  std::remove(cut_path.c_str());
}

}  // namespace
}  // namespace recov
}  // namespace rbx
