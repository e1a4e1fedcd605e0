// Monte-Carlo simulation of synchronized recovery blocks (paper Section 3).
//
// Synchronization requests are issued under one of the paper's three
// strategies:
//   1. kConstantInterval - on a fixed wall-clock timer, oblivious to the
//      execution state (simple but can fire right after a line formed);
//   2. kElapsedTime     - when the time since the previous recovery line
//      exceeds a threshold;
//   3. kSavedStates     - when the number of states saved since the
//      previous line exceeds a threshold.
//
// On a request every process runs to its next acceptance test (time
// y_i ~ Exp(mu_i) by memorylessness), broadcasts ready, and waits; the line
// forms at Z = max y_i and the computation power lost is sum_i (Z - y_i).
// Between lines processes keep establishing ordinary RPs at rate mu_i
// (these are the "states saved" counted by strategy 3).  Optionally errors
// are injected at a Poisson rate; under synchronized RBs recovery is always
// to the last line, so the rollback distance is the age of that line.
//
// Every draw of a run is an exponential delay: the RP delays before a
// request, each process's y_i and the error delays.  They come through one
// DrawBlock (support/rng.h), which computes a block's log1p four lanes at
// a time; each delay, and the generator state the run leaves, are bit for
// bit those of Rng::exponential called draw by draw.
#pragma once

#include <cstdint>
#include <vector>

#include "support/rng.h"
#include "support/stats.h"

namespace rbx {

enum class SyncStrategy { kConstantInterval, kElapsedTime, kSavedStates };

struct SyncSimParams {
  std::vector<double> mu;          // acceptance-test rates per process
  SyncStrategy strategy = SyncStrategy::kElapsedTime;
  double interval = 1.0;           // strategy 1: timer period
  double elapsed_threshold = 1.0;  // strategy 2: max line age before request
  std::size_t saved_threshold = 8; // strategy 3: states saved before request
  double error_rate = 0.0;         // total Poisson error rate (0 = off)
};

struct SyncSimResult {
  RunningStats max_wait;         // Z per synchronization
  RunningStats loss;             // sum_i (Z - y_i) per synchronization
  RunningStats line_spacing;     // time between successive recovery lines
  RunningStats states_per_line;  // RPs recorded between lines (+ n at line)
  SampleSet rollback_distance;   // per injected error (empty if rate 0)

  // Loss per unit time: total loss / total simulated time.
  double loss_rate = 0.0;
  // The raw totals behind loss_rate, kept so partial results can merge
  // exactly: the combined rate is sum(loss) / sum(time), not an average
  // of the per-partial rates.
  double total_loss = 0.0;
  double total_time = 0.0;

  // Merges another run's result into this one (sample-parallel streams):
  // sample accumulators combine via Chan et al., and loss_rate is
  // recomputed from the summed raw totals.
  void merge(const SyncSimResult& other);
};

class SyncRbSimulator {
 public:
  SyncRbSimulator(SyncSimParams params, std::uint64_t seed);

  // Resets the RNG to a fresh seed, keeping the commit scratch: a stream
  // pool reuses one simulator per worker thread.  reseed(s) + run is
  // bitwise identical to a new simulator constructed with seed s.
  void reseed(std::uint64_t seed) { rng_ = Rng(seed); }

  SyncSimResult run(std::size_t lines);

 private:
  SyncSimParams params_;
  Rng rng_;
  // Per-commit scratch (one slot per process), reused across lines and
  // runs instead of allocating inside the commit loop; every element is
  // overwritten before use, so reuse cannot change a sampled value.
  std::vector<double> y_scratch_;
};

}  // namespace rbx
