// Byte pins for the simulators' event draws.  Every Monte-Carlo draw path
// (async with and without an error process, async streams, sync, PRP with
// one and with four streams, and the exact recovery-line observer) is run
// on a fixed cell and digested; the constants were recorded before the
// draws moved to CategoricalTable and the inlined generator, so a changed
// constant means a changed output byte, not a new expectation.  The
// asynchronous event pipeline (des/async_sim.h) is pinned the same way:
// at several thread budgets, with helpers and with a loan revoked mid-run,
// back to back on one simulator, and on a cell that ends inside its first
// block - those constants were recorded with the sequential per-event
// loop before the pipeline existed.  The sync and PRP simulators and the
// asynchronous error path draw through a DrawBlock (support/rng.h); the
// cases for sync's other two strategies, back-to-back sync and PRP runs
// on one simulator, and an error-process run of zero lines between two
// others were recorded with scalar Rng draws before the block existed.
// The PRP cases that are scoped, five-process hybrid and mc_streams'
// 50,000-failure cell were recorded while the PRP simulator still wrote
// each pseudo recovery line as n-1 single PRPs and quantiles sorted.
//
// The ResultSet digest is FNV-1a-64 over ResultSet::encode, the same
// function e2ebench's correctness gate (result_digest) applies to every
// cell of a benchmark pass.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/eval_context.h"
#include "core/result.h"
#include "core/scenario.h"
#include "des/async_sim.h"
#include "des/prp_sim.h"
#include "des/sync_sim.h"
#include "model/params.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/thread_loan.h"
#include "support/wire.h"

namespace rbx {
namespace {

class Fnv1a64 {
 public:
  void add(const std::byte* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      h_ = (h_ ^ static_cast<std::uint64_t>(data[i])) * 0x100000001b3ULL;
    }
  }
  void add(const std::vector<double>& values) {
    add(reinterpret_cast<const std::byte*>(values.data()),
        values.size() * sizeof(double));
  }
  void add(double value) { add(std::vector<double>{value}); }
  void add(const RunningStats& s) {
    add(static_cast<double>(s.count()));
    add(s.mean());
    add(s.variance());
    if (s.count() > 0) {  // a zero-line run's are empty
      add(s.min());
      add(s.max());
    }
  }
  void add(const AsyncSimResult& r) {
    add(r.interval.samples());
    for (std::size_t i = 0; i < r.rp_incl_final.size(); ++i) {
      add(r.rp_incl_final[i]);
      add(r.rp_excl_final[i]);
      add(r.rp_state_changing[i]);
    }
    add(r.line_age.samples());
  }
  void add(const SyncSimResult& r) {
    add(r.max_wait);
    add(r.loss);
    add(r.line_spacing);
    add(r.states_per_line);
    add(r.rollback_distance.samples());
    add(r.loss_rate);
    add(r.total_loss);
    add(r.total_time);
  }
  void add(const PrpSimResult& r) {
    add(r.prp_distance.samples());
    add(r.prp_affected);
    add(r.prp_iterations);
    add(r.async_distance.samples());
    add(r.async_affected);
    add(static_cast<double>(r.async_domino_count));
    add(static_cast<double>(r.failures));
    add(static_cast<double>(r.contaminated_restarts));
    add(r.snapshots_per_unit_time);
    add(r.rp_per_unit_time);
    add(r.recording_time_fraction);
    add(r.horizon);
    add(r.hybrid_distance.samples());
    add(static_cast<double>(r.hybrid_sync_restores));
    add(static_cast<double>(r.sync_lines_established));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t result_digest(const ResultSet& r) {
  wire::Writer w;
  r.encode(w);
  Fnv1a64 h;
  h.add(w.data().data(), w.data().size());
  return h.value();
}

std::uint64_t mc_digest(const Scenario& s, std::size_t thread_budget = 1) {
  EvalContextScope scope(EvalContext{thread_budget});
  return result_digest(monte_carlo_backend().evaluate(s));
}

// `runs` back-to-back run_lines(lines) calls on one simulator (no
// reseed), every result digested in order.
std::uint64_t runs_digest(AsyncRbSimulator& sim, std::size_t lines,
                          std::size_t runs, std::size_t helpers,
                          ThreadLoan* loan = nullptr) {
  Fnv1a64 h;
  for (std::size_t r = 0; r < runs; ++r) {
    h.add(sim.run_lines(lines, 0.0, helpers, loan));
  }
  return h.value();
}

TEST(ResultDigest, AsyncStraggler) {
  // fig5's n=6, rho=2 cell shape: ~3,700 events per line, 21 categories.
  // A streams=1 cell gives thread_budget - 1 helpers to its pipeline:
  // none, one (helpers work ahead of the observer, which computes the
  // blocks nearest it), two and three.
  for (std::size_t budget : {1u, 2u, 3u, 4u}) {
    EXPECT_EQ(
        mc_digest(Scenario::symmetric(6, 1.0, 0.8).seed(7).samples(5000),
                  budget),
        0x950233284e44d06eULL)
        << "budget " << budget;
  }
}

TEST(ResultDigest, AsyncWithErrorProcess) {
  // Error draws interleave with the events, so these draw on demand.
  for (std::size_t budget : {1u, 4u}) {
    EXPECT_EQ(mc_digest(Scenario::symmetric(4, 1.0, 0.7)
                            .error_rate(0.3)
                            .seed(77)
                            .samples(20000),
                        budget),
              0xc26644545c57c5a7ULL)
        << "budget " << budget;
  }
}

TEST(ResultDigest, AsyncBackToBackRunsContinueTheStream) {
  // Three run_lines(200) on one simulator, as des_async_lines_n6 calls
  // it: each run must leave the engine right after its last event, not
  // after the blocks it read ahead.
  for (std::size_t helpers : {0u, 3u}) {
    AsyncRbSimulator sim(ProcessSetParams::symmetric(6, 1.0, 0.8), 7);
    EXPECT_EQ(runs_digest(sim, 200, 3, helpers), 0xb5655a7eb5364b39ULL)
        << "helpers " << helpers;
  }
}

TEST(ResultDigest, AsyncLoanRevokedMidRun) {
  // A lender grants three threads, takes them back while the run holds
  // them and grants them again, every few milliseconds; the run must give
  // them back at its next block boundary, mid-run, and the bytes stay the
  // sequential ones.
  //
  // A reclaim that finds the run holding threads leaves the count
  // negative, and the lender waits for it to recover before lending
  // again.  A second such reclaim therefore proves the first debt was
  // repaid mid-run: a run that kept its threads until the end would
  // leave the lender waiting through the rest of it.
  ThreadLoan loan;
  std::atomic<bool> done{false};
  std::atomic<int> debts{0};
  std::thread lender([&] {
    loan.lend(3);
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      loan.reclaim(3);
      if (loan.lendable() < 0) {
        ++debts;
        while (loan.lendable() < 0 && !done.load()) {
          std::this_thread::yield();
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      loan.lend(3);
    }
    loan.reclaim(3);
  });
  AsyncRbSimulator sim(ProcessSetParams::symmetric(6, 1.0, 0.8), 8);
  const std::uint64_t digest = runs_digest(sim, 2000, 1, 0, &loan);
  done.store(true);
  lender.join();
  EXPECT_EQ(digest, 0xdce1e72c7ec1a9f4ULL);
  EXPECT_GE(debts.load(), 2) << "a reclaimed loan was not given back mid-run";
  EXPECT_EQ(loan.lendable(), 0) << "the run kept borrowed threads";
}

TEST(ResultDigest, AsyncEarlyFinishInsideTheFirstBlock) {
  // n=2, 3 lines: every line forms within a few events, far inside the
  // first block, three times over.
  for (std::size_t helpers : {0u, 3u}) {
    AsyncRbSimulator sim(ProcessSetParams::symmetric(2, 1.0, 0.5), 9);
    EXPECT_EQ(runs_digest(sim, 3, 3, helpers), 0xe932616f3c784333ULL)
        << "helpers " << helpers;
  }
}

TEST(ResultDigest, AsyncWithErrorsZeroLineRunStillDraws) {
  // run_lines(0, rate) draws the first error delay before it finds no
  // line to simulate, so the run after it starts one draw later.
  AsyncRbSimulator sim(ProcessSetParams::symmetric(4, 1.0, 0.7), 86);
  Fnv1a64 h;
  h.add(sim.run_lines(50, 0.3));
  h.add(sim.run_lines(0, 0.3));
  h.add(sim.run_lines(40, 0.3));
  EXPECT_EQ(h.value(), 0x5084a83c2a4074e9ULL);
}

TEST(ResultDigest, AsyncStreams) {
  EXPECT_EQ(mc_digest(Scenario::symmetric(3, 1.0, 0.5)
                          .error_rate(0.1)
                          .seed(78)
                          .samples(20000)
                          .streams(3),
                      /*thread_budget=*/4),
            0x214498b0ee3d76cbULL);
}

TEST(ResultDigest, Sync) {
  EXPECT_EQ(mc_digest(Scenario::from_mu({1.0, 1.2, 0.8, 1.1})
                          .scheme(SchemeKind::kSynchronized)
                          .error_rate(0.5)
                          .seed(79)
                          .samples(20000)),
            0x0744d4a000c3414cULL);
}

TEST(ResultDigest, SyncConstantIntervalAndSavedStatesWithErrors) {
  // The default strategy is pinned above; these two draw their requests
  // differently (a timer, a fixed count of RPs).
  SyncPolicy timer;
  timer.strategy = SyncStrategy::kConstantInterval;
  timer.interval = 0.7;
  SyncPolicy saved;
  saved.strategy = SyncStrategy::kSavedStates;
  saved.saved_threshold = 5;
  const Scenario cell = Scenario::from_mu({1.0, 1.2, 0.8, 1.1})
                            .scheme(SchemeKind::kSynchronized)
                            .error_rate(0.5)
                            .seed(83)
                            .samples(20000);
  EXPECT_EQ(mc_digest(Scenario(cell).sync_policy(timer)),
            0xfa4d0e14f813392aULL);
  EXPECT_EQ(mc_digest(Scenario(cell).sync_policy(saved)),
            0x68cb1b8f02db4e9aULL);
}

TEST(ResultDigest, SyncBackToBackRunsContinueTheStream) {
  // Runs of 37, 0, 500 and 1 lines on one simulator: each must leave the
  // engine right after its last draw.
  SyncSimParams params;
  params.mu = {1.0, 1.2, 0.8, 1.1, 0.9};
  params.error_rate = 0.4;
  const struct {
    SyncStrategy strategy;
    std::uint64_t digest;
  } cases[] = {{SyncStrategy::kConstantInterval, 0x90bdd5bba6b0411fULL},
               {SyncStrategy::kElapsedTime, 0x78bd7837dc0a7380ULL},
               {SyncStrategy::kSavedStates, 0xeed9b918c654e8a7ULL}};
  for (const auto& c : cases) {
    params.strategy = c.strategy;
    SyncRbSimulator sim(params, 84);
    Fnv1a64 h;
    for (std::size_t lines : {37u, 0u, 500u, 1u}) {
      h.add(sim.run(lines));
    }
    EXPECT_EQ(h.value(), c.digest)
        << "strategy " << static_cast<int>(c.strategy);
  }
}

TEST(ResultDigest, PrpBackToBackRunsContinueTheStream) {
  // Runs of 300, 0, 1 and 700 failures on one simulator, plain and
  // hybrid: each must leave the engine right after its last draw.
  const struct {
    double sync_period;
    std::uint64_t digest;
  } cases[] = {{0.0, 0x6875826049ee7b36ULL}, {2.0, 0x29ebd0cd9cde702fULL}};
  for (const auto& c : cases) {
    PrpSimParams sim_params;
    sim_params.t_record = 1e-3;
    sim_params.error_rate = 0.25;
    sim_params.sync_period = c.sync_period;
    PrpSimulator sim(ProcessSetParams::symmetric(3, 1.0, 1.0), sim_params, 85);
    Fnv1a64 h;
    for (std::size_t failures : {300u, 0u, 1u, 700u}) {
      h.add(sim.run(failures));
    }
    EXPECT_EQ(h.value(), c.digest) << "sync period " << c.sync_period;
  }
}

TEST(ResultDigest, PrpOneStream) {
  EXPECT_EQ(mc_digest(Scenario::symmetric(4, 1.0, 0.5)
                          .scheme(SchemeKind::kPseudoRecoveryPoints)
                          .t_record(1e-3)
                          .error_rate(0.5)
                          .seed(80)
                          .samples(3000)),
            0xc45cb3e52eb96d0eULL);
}

TEST(ResultDigest, PrpFourStreams) {
  for (std::size_t budget : {1u, 2u, 4u}) {
    EXPECT_EQ(mc_digest(Scenario::symmetric(3, 1.0, 1.0)
                            .scheme(SchemeKind::kPseudoRecoveryPoints)
                            .t_record(1e-4)
                            .error_rate(0.25)
                            .prp_sync_period(2.0)
                            .seed(81)
                            .samples(3000)
                            .streams(4),
                        budget),
              0xc0069390f29c3b40ULL)
        << "budget " << budget;
  }
}

TEST(ResultDigest, PrpScoped) {
  // affects_everyone = false: a restore pulls in only the processes that
  // interacted with the rollback pointer since its restored RP.
  EXPECT_EQ(mc_digest(Scenario::symmetric(4, 1.0, 0.5)
                          .scheme(SchemeKind::kPseudoRecoveryPoints)
                          .t_record(1e-3)
                          .error_rate(0.5)
                          .scoped_prp(true)
                          .seed(87)
                          .samples(3000)),
            0xb18bf86882e828e3ULL);
}

TEST(ResultDigest, PrpFiveProcessesHybrid) {
  // Four PRPs per pseudo recovery line, and a synchronized line every 1.5.
  EXPECT_EQ(mc_digest(Scenario::symmetric(5, 1.0, 0.4)
                          .scheme(SchemeKind::kPseudoRecoveryPoints)
                          .t_record(1e-3)
                          .error_rate(0.4)
                          .prp_sync_period(1.5)
                          .seed(88)
                          .samples(3000)),
            0x3b25523e67df200aULL);
}

TEST(ResultDigest, PrpMcStreamsCell) {
  // e2ebench's mc_streams 50,000-failure PRP cell at --seed 1: the
  // workload seeds its six cells from one SplitMix64, this cell last.
  SplitMix64 seeds(1);
  for (int i = 0; i < 5; ++i) {
    seeds.next();
  }
  const Scenario cell = Scenario::symmetric(3, 1.0, 1.0)
                            .scheme(SchemeKind::kPseudoRecoveryPoints)
                            .t_record(1e-4)
                            .error_rate(0.25)
                            .seed(seeds.next())
                            .samples(50000)
                            .streams(4);
  for (std::size_t budget : {1u, 4u}) {
    EXPECT_EQ(mc_digest(cell, budget), 0x94cce6cc83cfd879ULL) << "budget " << budget;
  }
}

TEST(ResultDigest, ExactObserver) {
  // run_exact directly: every sample of the three observers, in order.
  AsyncRbSimulator sim(ProcessSetParams::symmetric(4, 1.0, 1.0), 82);
  const ExactLineResult r = sim.run_exact(50000);
  Fnv1a64 h;
  h.add(r.any_advance.samples());
  h.add(r.full_refresh.samples());
  h.add(r.model_interval.samples());
  EXPECT_EQ(r.model_interval.count(), 413u);
  EXPECT_EQ(h.value(), 0x63b680ebd50ec68cULL);
}

}  // namespace
}  // namespace rbx
