// Deterministic pseudo-random number generation for simulations.
//
// All stochastic components of the library take explicit 64-bit seeds so that
// every experiment in the paper reproduction is replayable bit-for-bit.  The
// core generator is xoshiro256** (Blackman & Vigna), seeded through
// splitmix64; both are tiny, fast and of far higher quality than
// std::minstd_rand while avoiding the platform-dependent behaviour of
// std::default_random_engine.  Distribution sampling is implemented here by
// inverse transform, again to be bit-reproducible across standard libraries
// (std::exponential_distribution is not guaranteed to produce identical
// streams on different implementations).
//
// The per-event draws of the simulators (next, uniform, exponential) are
// defined inline here so the event loops in des/ can inline them, and a
// CategoricalTable replaces the O(weights) categorical scan with an O(1)
// lookup that returns the same index for every generator state.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/check.h"

namespace rbx {

// splitmix64: used to expand a single 64-bit seed into generator state.
// Passes through every 64-bit value exactly once over its period.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// Counter-based split of a cell seed into per-stream seeds: stream k of a
// Monte-Carlo cell simulates with derive_stream_seed(cell_seed, k).  The
// stream index is folded in through an odd multiplier before a full
// splitmix64 round, so streams of one cell - and equal stream indices of
// different cells - land in unrelated regions of the seed space.  A pure
// function of (cell_seed, stream): no shared RNG state, which is what
// keeps a streamed evaluation independent of how many threads ran it.
inline std::uint64_t derive_stream_seed(std::uint64_t cell_seed,
                                        std::uint64_t stream) {
  return SplitMix64(cell_seed ^
                    (0xa0761d6478bd642fULL * (stream + 1)))
      .next();
}

// xoshiro256**: general-purpose 64-bit generator, period 2^256 - 1.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256StarStar(std::uint64_t seed);

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface so the engine can also feed
  // std::shuffle and friends.
  std::uint64_t operator()() { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  // Advances the stream by 2^128 steps; used to derive independent
  // per-process streams from one master seed.
  void long_jump();

  // Equal states generate equal streams.
  bool operator==(const Xoshiro256StarStar&) const = default;

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
};

// Convenience façade bundling the engine with the distribution samplers the
// library needs.  Copyable; copies continue independent deterministic
// streams only if the caller re-seeds, so prefer passing by reference.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9b174a7c15ULL) : engine_(seed) {}

  std::uint64_t next_u64() { return engine_.next(); }

  // Uniform double in [0, 1).  53-bit mantissa construction.
  double uniform() {
    return static_cast<double>(engine_.next() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  // Uniform integer in [0, n).  n must be positive.  Uses rejection to avoid
  // modulo bias.
  std::uint64_t uniform_index(std::uint64_t n);

  // Exponential with given rate (mean 1/rate).  rate must be positive.
  double exponential(double rate) {
    RBX_CHECK(rate > 0.0);
    // Inverse transform on (0, 1]; 1 - uniform() is in (0, 1] so log() is
    // finite.
    return -std::log1p(-uniform()) / rate;
  }

  // Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  // Samples an index in [0, weights.size()) proportionally to weights.
  // Weights must be non-negative with a positive sum.  The reference
  // definition, categorical_index(uniform(), weights, count); hot loops
  // over fixed weights draw through a CategoricalTable instead.
  std::size_t categorical(const double* weights, std::size_t count);

  // Derives an independent generator for a sub-component (e.g. a per-process
  // stream) without disturbing this stream's reproducibility contract.
  Rng split();

  Xoshiro256StarStar& engine() { return engine_; }

 private:
  Xoshiro256StarStar engine_;
};

// Rng::categorical's selection rule as a pure function of its draw: the
// index categorical(weights, count) returns when uniform() yields `unit`.
// Subtracts the weights one by one from u = unit * total and returns the
// first index that takes u below zero (the last positive weight if
// rounding leaves u >= 0 throughout).
std::size_t categorical_index(double unit, const double* weights,
                              std::size_t count);

// Rng::categorical over fixed weights in O(1) per draw, bit for bit.
//
// Exactness contract: for every generator state, sample(rng) returns the
// index rng.categorical(weights.data(), weights.size()) would return and
// advances the engine exactly as it would, by one next().  The draw is
// k = next() >> 11 (uniform() is k * 2^-53), and categorical_index is
// monotone in k: every step of it is a correctly rounded, hence monotone,
// operation, and a zero weight never ends the scan.  So the chosen index
// is #{i : K_i <= k}, where K_i is the least k whose index exceeds i.
// The constructor finds each K_i exactly by bisecting over the 2^53 draws
// with categorical_index itself; there is no tolerance anywhere.
//
// Speed: a guide table of ~8 buckets per weight maps the top bits of k
// to the index at the bucket's first draw, and a draw steps past the few
// thresholds inside its bucket (under one on average), bounded by a
// sentinel above every draw.  Construction costs ~54 * weights
// evaluations of categorical_index - about 3 us for n=3's 6 event
// categories and 20 us for n=6's 21 on a 4-core Xeon - so a simulator
// builds its table once and keeps it across reseed().
class CategoricalTable {
 public:
  // Weights must be non-negative with a positive sum.
  explicit CategoricalTable(const std::vector<double>& weights);

  std::size_t sample(Rng& rng) const { return index_at(rng.next_u64() >> 11); }

  // The index for the 53-bit draw k: categorical_index(k * 2^-53, ...).
  std::size_t index_at(std::uint64_t k) const {
    std::size_t i = guide_[k >> shift_];
    while (thresholds_[i] <= k) {
      ++i;
    }
    return i;
  }

  // The weights' sum, accumulated in order exactly as categorical does.
  double total() const { return total_; }

  // K_0 <= ... <= K_{size-2}, then the sentinel: one entry per weight.  A
  // threshold of 2^53 or more is never reached.
  const std::vector<std::uint64_t>& thresholds() const { return thresholds_; }

 private:
  std::vector<std::uint64_t> thresholds_;
  std::vector<std::size_t> guide_;  // guide_[b]: the index at b << shift_
  unsigned shift_ = 0;
  double total_ = 0.0;
};

}  // namespace rbx
