// The sample-parallel stream axis (Scenario::streams) and its
// determinism contract: for a fixed stream count the Monte-Carlo
// backends must produce bitwise identical ResultSets under any intra-cell
// thread budget and on any lane, because work is partitioned by RNG
// sub-stream - never by thread - and partials merge in fixed stream
// order.  The adaptive lane budget (each lane's Lane::start) is pinned
// here too: a lane clamped to fewer workers than its configured
// parallelism hands the freed threads to the survivors' stream pools,
// and a ThreadLane's idle workers lend their threads to the cells still
// running.
#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/eval_context.h"
#include "core/executor.h"
#include "core/scenario.h"
#include "lane_sets.h"
#include "support/stats.h"
#include "support/thread_loan.h"
#include "support/wire.h"

namespace rbx {
namespace {

std::vector<std::byte> encode_result(const ResultSet& r) {
  wire::Writer w;
  r.encode(w);
  return w.data();
}

ResultSet evaluate_with_budget(const EvalBackend& backend, const Scenario& s,
                               std::size_t budget) {
  EvalContextScope scope(EvalContext{budget});
  return backend.evaluate(s);
}

// One streamed cell per scheme, small budgets (the contract is bitwise,
// not statistical - sample counts only need to exercise every stream).
std::vector<Scenario> streamed_cells() {
  return {
      Scenario::symmetric(3, 1.0, 0.5)
          .scheme(SchemeKind::kAsynchronous)
          .error_rate(0.25)
          .seed(0x5eed)
          .samples(40)
          .streams(4),
      Scenario::symmetric(3, 1.0, 0.0)
          .scheme(SchemeKind::kSynchronized)
          .error_rate(0.5)
          .seed(0x5eed)
          .samples(40)
          .streams(4),
      Scenario::symmetric(3, 1.0, 0.5)
          .scheme(SchemeKind::kPseudoRecoveryPoints)
          .error_rate(0.5)
          .t_record(1e-3)
          .seed(0x5eed)
          .samples(12)
          .streams(4),
  };
}

TEST(StreamDeterminism, ThreadBudgetNeverChangesTheBytes) {
  for (const Scenario& cell : streamed_cells()) {
    const std::vector<std::byte> sequential =
        encode_result(evaluate_with_budget(monte_carlo_backend(), cell, 1));
    for (std::size_t budget : {3u, 8u}) {
      EXPECT_EQ(encode_result(evaluate_with_budget(monte_carlo_backend(),
                                                   cell, budget)),
                sequential)
          << cell.label() << " budget=" << budget;
    }
  }
}

TEST(StreamDeterminism, DensityBackendIsThreadBudgetInvariant) {
  const Scenario cell = Scenario::symmetric(3, 1.0, 0.5)
                            .scheme(SchemeKind::kAsynchronous)
                            .seed(0x5eed)
                            .samples(60)
                            .streams(5);
  const std::vector<std::byte> sequential = encode_result(
      evaluate_with_budget(density_monte_carlo_backend(), cell, 1));
  for (std::size_t budget : {2u, 7u}) {
    EXPECT_EQ(encode_result(evaluate_with_budget(
                  density_monte_carlo_backend(), cell, budget)),
              sequential);
  }
}

TEST(StreamDeterminism, MoreStreamsThanSamplesStillDeterministic) {
  // Empty stream chunks (K > samples) must merge harmlessly and stay
  // budget-invariant.
  const Scenario cell = Scenario::symmetric(3, 1.0, 0.5)
                            .scheme(SchemeKind::kAsynchronous)
                            .error_rate(0.25)
                            .seed(0x5eed)
                            .samples(3)
                            .streams(8);
  EXPECT_EQ(encode_result(evaluate_with_budget(monte_carlo_backend(), cell, 6)),
            encode_result(evaluate_with_budget(monte_carlo_backend(), cell, 1)));
}

TEST(StreamDeterminism, StreamsOneIgnoresTheThreadBudget) {
  // K=1 is the historical sequential path; a thread budget must not be
  // able to touch it.
  const Scenario cell = Scenario::symmetric(3, 1.0, 0.5)
                            .scheme(SchemeKind::kAsynchronous)
                            .error_rate(0.25)
                            .seed(0x5eed)
                            .samples(40);
  ASSERT_EQ(cell.streams(), 1u);
  EXPECT_EQ(encode_result(evaluate_with_budget(monte_carlo_backend(), cell, 8)),
            encode_result(monte_carlo_backend().evaluate(cell)));
}

TEST(StreamAccuracy, StreamedMeanAgreesWithSequentialMean) {
  // Different K are different (equally valid) partitions of the sample
  // budget: the estimates must agree statistically even though the bytes
  // legitimately differ.
  const Scenario sequential = Scenario::symmetric(3, 1.0, 0.5)
                                  .scheme(SchemeKind::kAsynchronous)
                                  .seed(0x5eed)
                                  .samples(20000);
  const Scenario streamed = Scenario(sequential).streams(8);
  const double seq_mean =
      monte_carlo_backend().evaluate(sequential).value("mean_interval_x");
  const double str_mean =
      monte_carlo_backend().evaluate(streamed).value("mean_interval_x");
  EXPECT_LT(relative_error(seq_mean, str_mean), 0.05);
}

TEST(StreamLanes, ForkLaneMatchesThreadLaneBitwise) {
  // The stream axis must survive the Scenario wire codec: forked workers
  // decode their cells from frames, so byte-equality across lanes
  // proves the stream seed derivation happens after the codec, not
  // before it.
  const std::vector<Scenario> cells = streamed_cells();
  const CellFn fn = [](const Scenario& s, std::size_t) {
    return monte_carlo_backend().evaluate(s);
  };
  const auto reference = lane_sets::threads(1, cells, fn);
  const auto forked = lane_sets::forks(2, 1, cells, fn);
  ASSERT_EQ(reference.size(), forked.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_TRUE(reference[i].ok()) << reference[i].error;
    ASSERT_TRUE(forked[i].ok()) << forked[i].error;
    EXPECT_EQ(encode_result(reference[i].result),
              encode_result(forked[i].result))
        << cells[i].label();
  }
}

TEST(StreamLanes, AdaptiveBudgetGivesClampedLanesThreadsBack) {
  // A CellFn that reports the ambient budget it ran under.
  const CellFn probe = [](const Scenario& s, std::size_t) {
    ResultSet out("probe", s.label());
    out.set("budget",
            static_cast<double>(current_eval_context().thread_budget));
    return out;
  };
  const Scenario cell = Scenario::symmetric(2, 1.0, 0.5).seed(1);

  // 4 configured threads, 1 cell: the lane raises one worker and the
  // adaptive budget hands it all 4 threads.
  {
    const auto outcomes = lane_sets::threads(4, {cell}, probe);
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].error;
    EXPECT_EQ(outcomes[0].result.value("budget"), 4.0);
  }

  // 4 configured threads, 8 cells: four workers, budget 1 each.
  {
    std::vector<Scenario> cells;
    for (std::size_t i = 0; i < 8; ++i) {
      cells.push_back(Scenario(cell).seed(i + 1));
    }
    const auto outcomes = lane_sets::threads(4, cells, probe);
    for (const CellOutcome& outcome : outcomes) {
      ASSERT_TRUE(outcome.ok()) << outcome.error;
      EXPECT_EQ(outcome.result.value("budget"), 1.0);
    }
  }
}

TEST(StreamLanes, IdleWorkersLendTheirThreads) {
  // A CellFn that reports whether it ran with a lane loan and how many
  // threads the lane was lending.  Cell 0 first waits until the other
  // three cells have finished and the lane lends 3 threads: one per
  // worker left waiting for a batch (budget 1 each at 4 cells).  The wait
  // reads the lane's count, never a clock, so it cannot flake; its 10 s
  // timeout only turns a broken lane into a failure instead of a hang.
  std::atomic<std::size_t> finished{0};
  const CellFn probe = [&finished](const Scenario& s, std::size_t index) {
    ResultSet out("probe", s.label());
    const ThreadLoan* loan = current_eval_context().loan;
    out.set("has_loan", loan != nullptr ? 1.0 : 0.0);
    bool timed_out = false;
    if (loan != nullptr && index == 0 && s.n() == 3) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (finished.load() < 3 || loan->lendable() < 3) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out = true;
          break;
        }
        std::this_thread::yield();
      }
    }
    out.set("timed_out", timed_out ? 1.0 : 0.0);
    out.set("lendable",
            loan != nullptr ? static_cast<double>(loan->lendable()) : -1.0);
    ++finished;
    return out;
  };

  // ThreadLane(4), four cells: three instant cells finish, their workers
  // wait for a batch that never comes and lend their threads.
  {
    std::vector<Scenario> cells;
    for (std::size_t i = 0; i < 4; ++i) {
      cells.push_back(Scenario::symmetric(3, 1.0, 0.5).seed(i + 1));
    }
    const auto outcomes = lane_sets::threads(4, cells, probe);
    ASSERT_EQ(outcomes.size(), 4u);
    for (const CellOutcome& outcome : outcomes) {
      ASSERT_TRUE(outcome.ok()) << outcome.error;
      EXPECT_EQ(outcome.result.value("has_loan"), 1.0);
    }
    EXPECT_EQ(outcomes[0].result.value("timed_out"), 0.0);
    EXPECT_EQ(outcomes[0].result.value("lendable"), 3.0);
  }

  // ThreadLane(1): its only worker is busy with the cell, so nothing is
  // lent while a cell runs.
  {
    const std::vector<Scenario> cells = {
        Scenario::symmetric(2, 1.0, 0.5).seed(1),
        Scenario::symmetric(2, 1.0, 0.5).seed(2)};
    for (const CellOutcome& outcome : lane_sets::threads(1, cells, probe)) {
      ASSERT_TRUE(outcome.ok()) << outcome.error;
      EXPECT_EQ(outcome.result.value("has_loan"), 1.0);
      EXPECT_EQ(outcome.result.value("lendable"), 0.0);
    }
  }

  // A ForkLane child has no lane loan: no count is shared across
  // processes.
  {
    const std::vector<Scenario> cells = {
        Scenario::symmetric(2, 1.0, 0.5).seed(1),
        Scenario::symmetric(2, 1.0, 0.5).seed(2)};
    for (const CellOutcome& outcome : lane_sets::forks(2, 1, cells, probe)) {
      ASSERT_TRUE(outcome.ok()) << outcome.error;
      EXPECT_EQ(outcome.result.value("has_loan"), 0.0);
    }
  }
}

}  // namespace
}  // namespace rbx
