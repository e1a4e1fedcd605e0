// exponential_block against Rng::exponential, draw for draw and bit for
// bit (support/rng.h: the exactness contract).  uniform() is k * 2^-53
// for a 53-bit k, so each input set is a range of k: both ends of the
// draw range, the powers of two, windows around every split of glibc's
// log1p that the four-lane port turns into a lane select, and around its
// rare paths, then seeded streams, rare lanes at every lane position and
// short unaligned blocks.  Every result's bits must equal the delay
// Rng::exponential gives for the same draw, at two rates: 1.0, which
// exposes every bit of log1p, and 18.0, fig5's straggler's total rate.
//
// The cases run where the port runs (exponential_block_vectorized()).
// Elsewhere exponential_block is std::log1p in a loop, the reference
// itself, and the fixture skips; CI fails if it skips on x86-64.
//
// The DrawBlock cases at the end check the block that serves des/'s
// per-event loops against an Rng with the same seed: mixed sequences of
// delays at several rates, raw draws, categoricals and high-rejection
// uniform indices over several blocks, each draw bit for bit, and the
// engine left where the scalar draws leave it after settle() mid-block
// and at block ends, and after the destructor on an early return.  Their
// contract holds on both of exponential_block's paths, so they run
// everywhere.
#include "support/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace rbx {
namespace {

constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
constexpr double kRates[] = {1.0, 18.0};
// The event pipeline's block (des/async_sim.cc).
constexpr std::size_t kBlock = 1024;

double draw(std::uint64_t k) { return static_cast<double>(k) * 0x1.0p-53; }

// Rng::exponential(rate) when uniform() yields u.
double reference(double u, double rate) { return -std::log1p(-u) / rate; }

std::string hex(double x) {
  char text[32];
  std::snprintf(
      text, sizeof text, "0x%016llx",
      static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(x)));
  return text;
}

// Transforms draws in blocks of kBlock at one rate and checks each result.
class Checker {
 public:
  explicit Checker(double rate) : rate_(rate) {}

  void add(double u) {
    drawn_.push_back(u);
    if (drawn_.size() == kBlock) {
      flush();
    }
  }

  // Draws k in [lo, hi), clamped to the draw range.
  void add_range(std::int64_t lo, std::int64_t hi) {
    lo = std::max<std::int64_t>(lo, 0);
    hi = std::min<std::int64_t>(hi, static_cast<std::int64_t>(kDraws));
    for (std::int64_t k = lo; k < hi; ++k) {
      add(draw(static_cast<std::uint64_t>(k)));
    }
  }

  // Checks what is buffered; returns the draws checked so far.
  std::size_t finish() {
    flush();
    return checked_;
  }

 private:
  void flush() {
    std::vector<double> delay = drawn_;
    exponential_block(delay.data(), delay.size(), rate_);
    for (std::size_t i = 0; i < drawn_.size(); ++i) {
      const double want = reference(drawn_[i], rate_);
      if (std::bit_cast<std::uint64_t>(delay[i]) !=
          std::bit_cast<std::uint64_t>(want)) {
        ADD_FAILURE() << "uniform " << hex(drawn_[i]) << " at rate " << rate_
                      << ": block " << hex(delay[i]) << ", Rng::exponential "
                      << hex(want);
      }
    }
    checked_ += drawn_.size();
    drawn_.clear();
  }

  const double rate_;
  std::vector<double> drawn_;
  std::size_t checked_ = 0;
};

class ExponentialBlockPort : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!exponential_block_vectorized()) {
      GTEST_SKIP() << "AVX2 and FMA are not usable here: exponential_block "
                      "is std::log1p in a loop";
    }
  }

  // Runs `feed` on a Checker at each rate; returns the draws per rate.
  template <typename Feed>
  std::size_t expect_exact(Feed feed) {
    std::size_t checked = 0;
    for (double rate : kRates) {
      Checker checker(rate);
      feed(checker);
      checked = checker.finish();
      if (HasFailure()) {
        break;  // one rate's report is enough
      }
    }
    return checked;
  }
};

TEST_F(ExponentialBlockPort, EveryDrawAtBothEndsOfTheRange) {
  // The first 2^22 draws are below 2^-29 (the tiny-x rare path); the last
  // 2^22 leave 1 - u <= 2^-31, deep in the k != 0 path with its rare
  // |f| < 2^-20 lanes.
  constexpr std::int64_t kEnd = 1 << 22;
  constexpr auto kAll = static_cast<std::int64_t>(kDraws);
  EXPECT_EQ(expect_exact([](Checker& c) {
              c.add_range(0, kEnd);
              c.add_range(kAll - kEnd, kAll);
            }),
            2u * kEnd);
}

TEST_F(ExponentialBlockPort, PowersOfTwoPlusMinus64) {
  expect_exact([](Checker& c) {
    for (int e = 0; e < 53; ++e) {
      const auto p = std::int64_t{1} << e;
      c.add_range(p - 64, p + 65);
    }
  });
}

TEST_F(ExponentialBlockPort, AroundEverySplit) {
  // Each window is +-2 * 10^4 draws around a split of glibc's log1p at
  // x = -u: the tiny-x path at u = 2^-29; the k != 0 boundary at the high
  // word 0xbfd2bec4; and for each e = -1..-52 the normalisation split at
  // hu > 0x6a09d, 1 - u = 2^e (1 + 0x6a09e * 2^-20) (about 2^e sqrt 2),
  // and 1 - u = 2^e, where the mantissa of 1 - u is zero (rare) or all
  // ones (rare after normalising).
  constexpr std::int64_t kHalf = 20000;
  constexpr auto kAll = static_cast<std::int64_t>(kDraws);
  std::vector<std::int64_t> centers = {
      std::int64_t{1} << 24,
      static_cast<std::int64_t>(
          std::bit_cast<double>(std::uint64_t{0x3fd2bec400000000}) * 0x1p53)};
  for (int e = -1; e >= -52; --e) {
    const std::int64_t one_minus_u = std::int64_t{1} << (53 + e);
    centers.push_back(kAll - one_minus_u);
    // 2^(53+e) * 0x6a09e * 2^-20, rounded down once it is fractional.
    const int shift = 33 + e;
    const std::int64_t mantissa =
        shift >= 0 ? std::int64_t{0x6a09e} << shift : 0x6a09e >> -shift;
    centers.push_back(kAll - one_minus_u - mantissa);
  }
  // Windows within 2 * 10^4 draws of the top of the range are clipped.
  const std::size_t checked = expect_exact([&centers](Checker& c) {
    for (std::int64_t center : centers) {
      c.add_range(center - kHalf, center + kHalf + 1);
    }
  });
  EXPECT_GT(checked, 3700000u);
}

TEST_F(ExponentialBlockPort, SeededDrawsMatchRngExponential) {
  // The real reference: Rng::exponential on one generator, uniform() plus
  // the block transform on a twin, 3 * 10^7 draws per rate.
  constexpr std::size_t kDrawsPerRate = 30000000;
  std::uint64_t seed = 11;
  for (double rate : kRates) {
    Rng reference_rng(seed);
    Rng block_rng(seed);
    ++seed;
    std::vector<double> delay(kBlock);
    std::size_t mismatches = 0;
    for (std::size_t done = 0; done < kDrawsPerRate; done += kBlock) {
      for (double& d : delay) {
        d = block_rng.uniform();
      }
      exponential_block(delay.data(), delay.size(), rate);
      for (double d : delay) {
        const double want = reference_rng.exponential(rate);
        if (std::bit_cast<std::uint64_t>(d) !=
            std::bit_cast<std::uint64_t>(want)) {
          if (++mismatches <= 5) {
            ADD_FAILURE() << "seed " << seed - 1 << " rate " << rate
                          << ": block " << hex(d) << ", Rng::exponential "
                          << hex(want);
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << "rate " << rate;
  }
}

TEST_F(ExponentialBlockPort, RareLaneAtEachLanePosition) {
  // One rare draw among three ordinary ones (u = 0.1, 0.5, 0.9 - both
  // paths), at each of the four positions, for each kind of rare lane;
  // then each kind in all four lanes.  The two tiny draws are ones whose
  // lane arithmetic differs from std::log1p, so a lane the fallback
  // missed or misplaced fails here.
  const std::vector<double> rare = {
      0.0,      // u = 0: log1p(-0) = -0
      draw(2),  // u = 2^-52 < 2^-29
      std::bit_cast<double>(std::uint64_t{0x3dfff91280000000}),  // < 2^-29
      draw(kDraws - kDraws / 8),      // 1 - u = 2^-3: hu = 0
      draw(kDraws - kDraws / 8 + 1),  // 1 - u = 2^-3 - 2^-53: hu = 0 after
                                      // normalising
  };
  const double ordinary[] = {0.1, 0.5, 0.9};
  expect_exact([&](Checker& c) {
    for (double r : rare) {
      for (int position = 0; position < 4; ++position) {
        for (int lane = 0, o = 0; lane < 4; ++lane) {
          c.add(lane == position ? r : ordinary[o++]);
        }
      }
    }
    for (double r : rare) {
      for (int lane = 0; lane < 4; ++lane) {
        c.add(r);
      }
    }
  });
}

TEST_F(ExponentialBlockPort, ShortBlocksFromUnalignedStarts) {
  // Counts 0-8 from each start offset 0-3 of a buffer: the vector part,
  // its std::log1p tail, and no write outside [start, start + count).
  Rng rng(25);
  for (double rate : kRates) {
    for (std::size_t start = 0; start < 4; ++start) {
      for (std::size_t count = 0; count <= 8; ++count) {
        std::vector<double> values(16);
        for (double& v : values) {
          v = rng.uniform();
        }
        values[start + count / 2] = draw(2);  // one rare lane in most
        const std::vector<double> drawn = values;
        exponential_block(values.data() + start, count, rate);
        for (std::size_t i = 0; i < values.size(); ++i) {
          const bool inside = i >= start && i < start + count;
          const double want = inside ? reference(drawn[i], rate) : drawn[i];
          EXPECT_EQ(std::bit_cast<std::uint64_t>(values[i]),
                    std::bit_cast<std::uint64_t>(want))
              << "start " << start << " count " << count << " index " << i
              << " rate " << rate;
        }
      }
    }
  }
}

// --- DrawBlock -------------------------------------------------------------

constexpr std::size_t kDrawBlock = DrawBlock::kSize;

// One draw of every kind the simulators make, chosen by `kind`, taken
// through `source` (an Rng or a DrawBlock); returns its bits.
template <typename Source>
std::uint64_t mixed_draw(Source& source, const CategoricalTable& table,
                         std::uint64_t kind) {
  constexpr double kRates[] = {1.0, 18.0, 0.3, 1e-3, 7.5};
  constexpr std::uint64_t kIndexBounds[] = {
      1, 3, 1000, (std::uint64_t{1} << 63) + 1, ~std::uint64_t{0}};
  switch (kind % 4) {
    case 0:
      return std::bit_cast<std::uint64_t>(
          source.exponential(kRates[(kind / 4) % 5]));
    case 1:
      return source.next_u64();
    case 2:
      return table.sample(source);
    default:
      // 2^63 + 1 rejects about half its attempts.
      return source.uniform_index(kIndexBounds[(kind / 4) % 5]);
  }
}

CategoricalTable event_table() {
  return CategoricalTable({1.0, 0.4, 2.5, 0.0, 0.7, 0.05});
}

TEST(DrawBlock, MixedDrawsEqualTheRngsDrawForDraw) {
  const CategoricalTable table = event_table();
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    Rng scalar(seed);
    Rng blocked(seed);
    Rng chooser(seed + 100);
    {
      DrawBlock draws(blocked);
      // Over ten blocks, and more with the index draws' rejections.
      for (std::size_t i = 0; i < 10 * kDrawBlock; ++i) {
        const std::uint64_t kind = chooser.next_u64() >> 40;
        ASSERT_EQ(mixed_draw(draws, table, kind),
                  mixed_draw(scalar, table, kind))
            << "seed " << seed << " draw " << i << " kind " << kind % 4;
      }
    }
    EXPECT_TRUE(blocked.engine() == scalar.engine()) << "seed " << seed;
  }
}

TEST(DrawBlock, EveryDrawKindAloneOverSeveralBlocks) {
  // Runs of one kind cross every block end: an index of 2^63 + 1 then
  // rejects across a refill, and each rate's delays span whole blocks.
  const CategoricalTable table = event_table();
  for (std::uint64_t kind = 0; kind < 20; ++kind) {
    Rng scalar(40 + kind);
    Rng blocked(40 + kind);
    {
      DrawBlock draws(blocked);
      for (std::size_t i = 0; i < 3 * kDrawBlock + 5; ++i) {
        ASSERT_EQ(mixed_draw(draws, table, kind),
                  mixed_draw(scalar, table, kind))
            << "kind " << kind << " draw " << i;
      }
    }
    EXPECT_TRUE(blocked.engine() == scalar.engine()) << "kind " << kind;
  }
}

TEST(DrawBlock, SettleLeavesTheScalarEngine) {
  // settle() after c draws, mid-block and at block ends; then the block
  // keeps serving from the settled engine, and settles again.
  for (std::size_t c : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                        kDrawBlock - 1, kDrawBlock, kDrawBlock + 1,
                        2 * kDrawBlock - 1, 2 * kDrawBlock,
                        2 * kDrawBlock + 1, 3 * kDrawBlock + 7}) {
    Rng scalar(50);
    Rng blocked(50);
    DrawBlock draws(blocked);
    for (std::size_t i = 0; i < c; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(draws.exponential(2.0)),
                std::bit_cast<std::uint64_t>(scalar.exponential(2.0)));
    }
    draws.settle();
    EXPECT_TRUE(blocked.engine() == scalar.engine()) << "after " << c;
    // Settling twice changes nothing.
    draws.settle();
    EXPECT_TRUE(blocked.engine() == scalar.engine()) << "after " << c;
    for (std::size_t i = 0; i < c + 3; ++i) {
      ASSERT_EQ(draws.next_u64(), scalar.next_u64())
          << "after " << c << ", draw " << i << " past the settle";
    }
    draws.settle();
    EXPECT_TRUE(blocked.engine() == scalar.engine())
        << "second settle after " << 2 * c + 3;
    // The Rng itself continues the stream once settled.
    EXPECT_EQ(blocked.next_u64(), scalar.next_u64());
  }
}

// The draws before the first delay above `stop`, counted through a
// DrawBlock that the return from inside the loop leaves to its destructor.
std::size_t blocked_count_until(Rng& rng, double stop) {
  DrawBlock draws(rng);
  for (std::size_t i = 0;; ++i) {
    if (draws.exponential(1.5) > stop) {
      return i;
    }
  }
}

std::size_t scalar_count_until(Rng& rng, double stop) {
  for (std::size_t i = 0;; ++i) {
    if (rng.exponential(1.5) > stop) {
      return i;
    }
  }
}

TEST(DrawBlock, DestructorSettlesOnAnEarlyReturn) {
  // Returns after ~1, ~90 and ~8,000 draws: mid-block, and blocks later.
  for (double stop : {0.5, 3.0, 6.0}) {
    Rng scalar(60);
    Rng blocked(60);
    for (int run = 0; run < 5; ++run) {
      EXPECT_EQ(blocked_count_until(blocked, stop),
                scalar_count_until(scalar, stop))
          << "stop " << stop << " run " << run;
      EXPECT_TRUE(blocked.engine() == scalar.engine())
          << "stop " << stop << " run " << run;
    }
  }
}

}  // namespace
}  // namespace rbx
