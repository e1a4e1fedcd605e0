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
// loop before the pipeline existed.
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
#include "model/params.h"
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
    add(s.min());
    add(s.max());
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
  // A streams=1 cell gives thread_budget - 1 helpers to its pipeline.
  for (std::size_t budget : {1u, 2u, 4u}) {
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
  EXPECT_EQ(mc_digest(Scenario::symmetric(3, 1.0, 1.0)
                          .scheme(SchemeKind::kPseudoRecoveryPoints)
                          .t_record(1e-4)
                          .error_rate(0.25)
                          .prp_sync_period(2.0)
                          .seed(81)
                          .samples(3000)
                          .streams(4),
                      /*thread_budget=*/2),
            0xc0069390f29c3b40ULL);
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
