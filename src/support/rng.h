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
// lookup that returns the same index for every generator state.  Three more
// pieces serve loops that read the stream in blocks: exponential_block
// turns a block of uniform() draws into Rng::exponential's delays, four
// lanes at a time where the CPU allows, bit for bit;
// Xoshiro256StarStar::jump_2048 skips a block's 2048 steps in one jump
// (both for des/async_sim.h's event pipeline); and a DrawBlock serves a
// loop's mixed draws from a block whose delays exponential_block computed
// up front, leaving the generator where the scalar draws would.
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

  // Advances the stream by 2^192 steps (Vigna's LONG_JUMP); used to
  // derive independent per-process streams from one master seed.
  void long_jump();

  // Advances the stream by 2048 steps, as 2048 next() calls would, in one
  // jump: about a third of their cost.
  void jump_2048();

  // Equal states generate equal streams.
  bool operator==(const Xoshiro256StarStar&) const = default;

 private:
  // A jump of N steps: `poly` holds the coefficients of x^N mod P(x), P
  // the engine's degree-256 characteristic polynomial (bit b of word w is
  // the coefficient of x^(64w+b)), and the new state is the sum over GF(2)
  // of the states after b steps for every set bit b.  The constants come
  // from Berlekamp-Massey on one state bit (Blackman & Vigna, "Scrambled
  // linear pseudorandom number generators", ACM TOMS 2021); the same
  // derivation gives x^(2^128) = Vigna's JUMP and x^(2^192) = LONG_JUMP.
  void jump(const std::array<std::uint64_t, 4>& poly);

  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
};

// The uniform index in [0, n) for raw 64-bit draws from next(): Lemire's
// rejection rule, which accepts x when the low half of the 128-bit
// product x * n lies outside the biased region and then returns its high
// half.  Each attempt takes one draw.  n must be positive.
template <typename Next>
std::uint64_t bounded_index(std::uint64_t n, Next&& next) {
  RBX_CHECK(n > 0);
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t x = next();
    const unsigned __int128 m =
        static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(n);
    if (static_cast<std::uint64_t>(m) >= threshold) {
      return static_cast<std::uint64_t>(m >> 64);
    }
  }
}

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
  // modulo bias (bounded_index above).
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
  // stream) without disturbing this stream's reproducibility contract: the
  // child starts 2^192 steps ahead (long_jump), and this stream advances
  // by one step.
  Rng split();

  Xoshiro256StarStar& engine() { return engine_; }

 private:
  Xoshiro256StarStar engine_;
};

// Rng::exponential over a block of its draws, bit for bit: replaces every
// values[i] with -std::log1p(-values[i]) / rate, the delay
// Rng::exponential(rate) returns when uniform() yields values[i].  rate
// must be positive.
//
// Exactness contract.  Built by GCC for x86-64 glibc, and where AVX2 and FMA
// are usable (the condition glibc's resolver tests, checked on every call
// rather than cached in a function-local static, whose guard a fork child
// could inherit held), four lanes at a time run a branch-free port of the
// FMA variant of glibc's log1p, the one its resolver picks on such a CPU
// (s_log1p.c; read from glibc 2.36's libm), operation for operation: the
// same IEEE operations in the same order, with the same 8 fused
// multiply-adds of its main paths and no other, and its branches turned into
// lane selects.  The compiler is told not to contract any other multiply and
// add into an FMA (contraction moved about one draw in a hundred).  A lane
// that would take one of log1p's rare paths (a draw below 2^-29, one outside
// [0, 1), or |f| < 2^-20 after normalising) and the block's last count % 4
// draws go through std::log1p itself, as does every draw elsewhere.  So the
// contract holds for every double in `values`, not only for uniform() draws.
// It is pinned draw for draw against Rng::exponential by
// tests/support/exponential_block_test.cc, whose cases run where
// exponential_block_vectorized(); a libm whose FMA log1p computes
// differently (another build of it, or GLIBC_TUNABLES hiding FMA from its
// resolver) fails that test.
void exponential_block(double* values, std::size_t count, double rate);

// True when exponential_block runs its four-lane port on this CPU.
bool exponential_block_vectorized();

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

  // One draw from `rng`, an Rng or a DrawBlock (below).
  template <typename Source>
  std::size_t sample(Source& rng) const {
    return index_at(rng.next_u64() >> 11);
  }

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

// Serves an Rng's draws from a block of kSize raw next() outputs whose
// exponential transforms are computed up front by exponential_block, four
// lanes at a time where the CPU allows: the per-event loops of des/ that
// mix delays with other draws read through one.
//
// Exactness contract: every draw takes exactly one next(), in stream
// order, and returns what the same call on the Rng would.
//   * exponential(rate) is unit / rate, where unit is -log1p(-u) for the
//     draw's u = (raw >> 11) * 2^-53, transformed at rate 1.0; dividing by
//     1.0 is exact, so this is Rng::exponential's -log1p(-u) / rate bit for
//     bit, on both of exponential_block's paths.
//   * next_u64() is the raw draw, so CategoricalTable::sample(block) picks
//     the index sample(rng) would;
//   * uniform_index(n) is bounded_index over the block's raw draws, one per
//     attempt, as Rng::uniform_index is over the engine's.
// A draw that ends up raw or an index wastes its transform (~3.5 ns).
//
// The block reads up to kSize - 1 draws ahead of the last one served.
// settle(), and the destructor (so an early return is covered), leave the
// Rng's engine exactly where the scalar draws would: the engine saved at
// the block's start is restored and stepped once per draw served.  The Rng
// must not be drawn from directly while draws are read ahead.
class DrawBlock {
 public:
  static constexpr std::size_t kSize = 128;

  explicit DrawBlock(Rng& rng) : rng_(rng), start_(rng.engine()) {}
  DrawBlock(const DrawBlock&) = delete;
  DrawBlock& operator=(const DrawBlock&) = delete;
  ~DrawBlock() { settle(); }

  double exponential(double rate) {
    RBX_CHECK(rate > 0.0);
    return unit_[take()] / rate;
  }

  std::uint64_t next_u64() { return raw_[take()]; }

  std::uint64_t uniform_index(std::uint64_t n) {
    return bounded_index(n, [this] { return next_u64(); });
  }

  // Puts the draws read ahead back into the stream (see above).
  void settle();

 private:
  std::size_t take() {
    if (pos_ == kSize) {
      refill();
    }
    return pos_++;
  }
  void refill();

  Rng& rng_;
  Xoshiro256StarStar start_;  // the engine at the block's first draw
  std::size_t pos_ = kSize;   // the next draw served; kSize: none left
  std::array<std::uint64_t, kSize> raw_{};
  std::array<double, kSize> unit_{};
};

}  // namespace rbx
