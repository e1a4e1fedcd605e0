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
// observer keeps one bit mask x of the last-action bits and steps it with
// two masks per category, x = (x & keep[k]) | set[k]: an interaction
// keeps all but its pair's bits and sets none, an RP of process k keeps
// every bit and sets bit k.  The entry state (all ones with rule R4
// active: the next RP re-forms a line at once) is exactly x == all ones,
// because an interaction always clears bits and an RP that fills the
// mask forms the line.  So the step needs no test of the event's kind:
// it counts the RP into per-category counters (an interaction's are
// dummies that no line reads), with "state-changing" computed from x
// before the step (at the entry state or with bit k clear), and its one
// branch is x == all ones, a formed line (about once per 3,700 events at
// fig5's n=6, rho=2).
//
// run_lines without an error process reads the event stream in fixed
// blocks, each in three stages:
//
//   1. raw draws - serial: the engine jumps past a block a helper will
//      compute (Xoshiro256StarStar::jump_2048: its 2 * 1,024 draws in
//      ~0.9 us, against ~3.2 us for 2,048 next() calls), and steps
//      through a block the observer computes itself;
//   2. delay and category - each event's uniform() and
//      CategoricalTable::sample draws, then one exponential_block call
//      turns the block's uniforms into Rng::exponential(total)'s delays,
//      bit for bit, four lanes at a time where AVX2 and FMA are usable
//      (support/rng.h): a pure function of the events' draws (~12 ns per
//      event on a 4-core Xeon, against ~32 ns with one Rng::exponential
//      per event, whose log1p was most of them);
//   3. the observer - t += delay in event order, then the mask and the
//      line statistics, serial (~4 ns per event).
//
// Helper threads may run stage 2 for blocks ahead of the observer: the
// observer jumps the engine past a block (stage 1) and publishes the
// engine state at its start, and a helper replays the block's draws from
// that state.  Why the bytes cannot move: without an error process no
// draw depends on the simulator's state, so event i always takes draws 2i
// and 2i+1 of the stream - reading ahead changes when they are drawn,
// never which.  Stage 2 computes, bit for bit, what the per-event loop
// computes from those two draws and reads nothing else, so whichever
// thread computes a block produces the same delays and categories; stage
// 3 adds them to t in event order on one thread, exactly as the per-event
// loop did.  The observer never waits on a helper: a block that no helper
// has finished when the observer reaches it is computed by the observer
// itself (a duplicate result is harmless).  When the last line forms, the
// engine is rewound to the state right after the last event consumed, so
// back-to-back run_lines calls continue the stream as if no block were
// read ahead.  With no helpers the same loop runs the three stages in
// turn on one thread, in blocks of 256 events (the draws past the last
// line are wasted work, so the solo block stays small).  With an error
// process the error draws interleave with the events by time, so those
// streams draw each event on demand, through a DrawBlock (support/rng.h)
// that computes the delays' log1p a block at a time, and feed it through
// the same observer step.
//
// Which block a helper takes: the newest announced one, the block the
// observer reaches last.  Helpers then work ahead of the observer, and
// the observer computes the unclaimed blocks nearest to it.  Taking the
// oldest block instead handed a helper the very block the observer was
// about to reach; the observer then found it half done and computed it
// again (with one helper, about half of the ~18,000 blocks of fig5's
// straggler), so a second thread bought only ~1.2x.
//
// The floor at fig5's straggler shape (n=6, rho=2; the mc_straggler_cell
// kernels, ~740,000 events): one thread spends ~17 ns per event on the
// three stages, and three helpers bring the cell to ~7 ns per event.
// Stage 2's ~12 ns per event spread over three helpers is ~4 ns per
// event, less than what the observer spends itself (stage 3, the jumps,
// reading blocks other cores wrote), so the observer sets the pace;
// stepping 2,048 next() calls per announced block instead of jumping
// kept it observer-bound at a lower speed.
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

// The model observer's step for one event category:
// mask = (mask & keep) | set.  An RP of process k keeps every bit and sets
// bit k; an interaction clears its pair's bits and sets none.
struct CategoryStep {
  std::size_t keep;
  std::size_t set;
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
  ProcessSetParams params_;
  Rng rng_;
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;  // rate > 0
  CategoricalTable table_;         // mu_0..mu_{n-1}, then each pair's rate
  std::vector<CategoryStep> steps_;  // the model observer's, per category
  // Per-category RP counters, reused across run_lines calls (reset at
  // every line) instead of allocating per run.
  std::vector<std::size_t> incl_scratch_;
  std::vector<std::size_t> state_changing_scratch_;
};

}  // namespace rbx
