// Monte-Carlo simulation of asynchronous recovery blocks.
//
// Replays the stochastic process of paper Section 2.1 exactly: recovery
// points of P_i form a Poisson process with rate mu_i and each pair (i, j)
// interacts after Exp(lambda_ij) intervals.  Two observers run on the event
// stream:
//
//  * the *model observer* tracks the paper's Markov state (the last-action
//    bit per process) and samples the interval X between returns to the
//    all-ones state plus the per-process state-saving counts L_i - this is
//    the "computer simulation" behind the paper's Table 1 and validates the
//    analytic chain;
//  * the *exact observer* maintains the full history and the maximal
//    recovery line under the paper's pairwise definition, sampling how
//    often the true line advances - the model is conservative (it misses
//    lines whose combinations mix old and new RPs), and this observer
//    quantifies the gap (ablation ABL-LINE in DESIGN.md).
//
// Each event is two draws: its Exp(total rate) delay, then its category
// from a CategoricalTable (k < n: an RP of process k; k >= n: an
// interaction of pairs_[k - n]) - the same generator steps, and so the
// same trajectory, as Rng::categorical over the rates.  The model
// observer keeps one bit mask x of the last-action bits and a bit mask
// per category: an interaction clears its pair's bits, and an RP of a
// process whose bit is clear sets it.  The entry state (all ones with
// rule R4 active: the next RP re-forms a line at once) is exactly
// x == all ones, because an interaction always clears bits and an RP
// that fills the mask forms the line.
//
// run_lines without an error process reads the event stream in fixed
// blocks, each in three stages:
//
//   1. raw draws - the engine's two next() per event, serial (~1 ns per
//      event);
//   2. delay and category - Rng::exponential(total), whose log1p is
//      ~24 of these ns, and CategoricalTable::sample on the event's two
//      draws: a pure function of them (~27 ns per event on a 4-core
//      Xeon);
//   3. the observer - t += delay in event order, then the mask and the
//      line statistics, serial (~7 ns per event).
//
// Helper threads may run stage 2 for blocks ahead of the observer: the
// observer steps the engine past a block (stage 1) and publishes the
// engine state at its start, and a helper replays the block's draws from
// that state.  Why the bytes cannot move: without an error process no
// draw depends on the simulator's state, so event i always takes draws
// 2i and 2i+1 of the stream - reading ahead changes when they are drawn,
// never which.  Stage 2 is the per-event loop's arithmetic on those two
// draws and reads nothing else, so whichever thread computes a block
// produces the same delays and categories, bit for bit; stage 3 adds
// them to t in event order on one thread, exactly as the per-event loop
// did.  The observer never waits on a helper: a block that no helper
// has finished when the observer reaches it is computed by the observer
// itself (a duplicate result is harmless).  When the last line forms,
// the engine is rewound to the state right after the last event
// consumed, so back-to-back run_lines calls continue the stream as if no
// block were read ahead.  With no helpers the same loop runs the three
// stages in turn on one thread, in blocks of 256 events (the draws past
// the last line are wasted work, so the solo block stays small).  With
// an error process the error draws interleave with the events by time,
// so those streams draw each event on demand and feed it through the
// same observer step.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "model/params.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/thread_loan.h"

namespace rbx {

struct AsyncSimResult {
  SampleSet interval;                        // X samples (model semantics)
  // L_i under the three counting conventions of AsyncRbModel::RpCounts.
  std::vector<RunningStats> rp_incl_final;   // convention (a)
  std::vector<RunningStats> rp_excl_final;   // convention (b)
  std::vector<RunningStats> rp_state_changing;  // convention (c)
  // Age of the newest recovery line at Poisson-sampled error instants
  // (only populated by run_lines(lines, error_rate) with a positive rate);
  // its mean converges to E[X^2] / (2 E[X]) - the stationary rollback
  // distance to the model's last line.
  SampleSet line_age;

  // Merges another run's result into this one (sample-parallel streams,
  // core/monte_carlo_backend.cc): every accumulator is a SampleSet or
  // RunningStats, so the merge is the Chan et al. combine throughout.
  // Both results must come from the same process count (RBX_CHECKed).
  void merge(const AsyncSimResult& other);
};

struct ExactLineResult {
  // Interval between successive advancements of the maximal recovery line
  // (any component moves).
  SampleSet any_advance;
  // Interval between "full refreshes": every component strictly newer than
  // at the previous full refresh.
  SampleSet full_refresh;
  // Model-semantics X measured on the same trajectory (paired comparison).
  SampleSet model_interval;
};

class AsyncRbSimulator {
 public:
  AsyncRbSimulator(ProcessSetParams params, std::uint64_t seed);

  // Resets the RNG to a fresh seed while keeping the event tables and
  // per-line scratch: a stream pool reuses one simulator instance per
  // worker thread across streams.  reseed(s) followed by run_lines is
  // bitwise identical to constructing a new simulator with seed s.
  void reseed(std::uint64_t seed) { rng_ = Rng(seed); }

  // Simulates until `lines` recovery lines have formed (model semantics).
  // With error_rate > 0, errors arrive as an independent Poisson process
  // and the age of the newest line is sampled at each arrival.
  //
  // Threads are a resource, never semantics: without an error process the
  // event pipeline (above) runs stage 2 on `helpers` threads of the
  // caller's own budget plus whatever `loan` lends, settled at every
  // block boundary, and the result and the engine state after the call
  // are bitwise those of helpers = 0 with no loan.  Helper threads start
  // when threads are granted and are joined before the call returns; the
  // loan is given back in full.
  AsyncSimResult run_lines(std::size_t lines, double error_rate = 0.0,
                           std::size_t helpers = 0,
                           ThreadLoan* loan = nullptr);

  // Simulates `events` RP/interaction events, tracking both observers.
  ExactLineResult run_exact(std::size_t events);

 private:
  // Advances t to the next event and returns its category.
  std::size_t next_event(double& t) {
    t += rng_.exponential(table_.total());
    return table_.sample(rng_);
  }

  ProcessSetParams params_;
  Rng rng_;
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;  // rate > 0
  CategoricalTable table_;         // mu_0..mu_{n-1}, then each pair's rate
  std::vector<std::size_t> bits_;  // the processes category k touches
  // Per-line RP counters, reused across run_lines calls (reset at every
  // line) instead of allocating per run.
  std::vector<std::size_t> incl_scratch_;
  std::vector<std::size_t> state_changing_scratch_;
};

}  // namespace rbx
