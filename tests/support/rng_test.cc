#include "support/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "support/stats.h"

namespace rbx {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, DeterministicAndSeedSensitive) {
  Xoshiro256StarStar a(7);
  Xoshiro256StarStar b(7);
  Xoshiro256StarStar c(8);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(Xoshiro, LongJumpChangesStream) {
  Xoshiro256StarStar a(7);
  Xoshiro256StarStar b(7);
  b.long_jump();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, LongJumpOutputIsPinned) {
  // Recorded before long_jump and jump_2048 shared one loop: a changed
  // value means a moved stream for every Rng::split child.
  Xoshiro256StarStar e(7);
  e.long_jump();
  EXPECT_EQ(e.next(), 0x15a4ddfb90a82407ULL);
  EXPECT_EQ(e.next(), 0x3a98ff3dc03a1ed8ULL);
  EXPECT_EQ(e.next(), 0x6e147244fa7a2bddULL);
  EXPECT_EQ(e.next(), 0xa2f7948237254c72ULL);
}

TEST(Xoshiro, Jump2048EqualsSteppingFromRandomStates) {
  SplitMix64 seeds(0x2048);
  for (int trial = 0; trial < 10000; ++trial) {
    Xoshiro256StarStar stepped(seeds.next());
    // Start mid-stream too, not only at a freshly seeded state.
    for (std::uint64_t i = trial % 7; i > 0; --i) {
      stepped.next();
    }
    Xoshiro256StarStar jumped = stepped;
    for (int i = 0; i < 2048; ++i) {
      stepped.next();
    }
    jumped.jump_2048();
    ASSERT_TRUE(jumped == stepped) << "trial " << trial;
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(123);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.add(rng.uniform());
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 7.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(11);
  std::vector<int> counts(7, 0);
  const int trials = 70000;
  for (int i = 0; i < trials; ++i) {
    ++counts[rng.uniform_index(7)];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), trials / 7.0, 500.0);
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(77);
  for (double rate : {0.25, 1.0, 4.0}) {
    RunningStats stats;
    for (int i = 0; i < 100000; ++i) {
      stats.add(rng.exponential(rate));
    }
    EXPECT_NEAR(stats.mean(), 1.0 / rate, 3.0 * stats.ci_half_width() + 0.01);
    // Exponential: stddev == mean.
    EXPECT_NEAR(stats.stddev(), 1.0 / rate, 0.05 / rate);
  }
}

TEST(Rng, ExponentialIsPositive) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.exponential(2.0), 0.0);
  }
}

TEST(Rng, ExponentialMemorylessProperty) {
  // P(X > s + t | X > s) == P(X > t): compare tail frequencies.
  Rng rng(101);
  const double rate = 1.3, s = 0.5, t = 0.7;
  int beyond_s = 0, beyond_st = 0, beyond_t = 0;
  const int trials = 400000;
  for (int i = 0; i < trials; ++i) {
    const double x = rng.exponential(rate);
    if (x > s) {
      ++beyond_s;
      if (x > s + t) {
        ++beyond_st;
      }
    }
    if (x > t) {
      ++beyond_t;
    }
  }
  const double conditional =
      static_cast<double>(beyond_st) / static_cast<double>(beyond_s);
  const double unconditional =
      static_cast<double>(beyond_t) / static_cast<double>(trials);
  EXPECT_NEAR(conditional, unconditional, 0.01);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(21);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(0.3)) {
      ++hits;
    }
  }
  EXPECT_NEAR(hits / static_cast<double>(trials), 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerateCases) {
  Rng rng(22);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, CategoricalMatchesWeights) {
  Rng rng(31);
  const std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    ++counts[rng.categorical(w.data(), w.size())];
  }
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(trials), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(trials), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(trials), 0.6, 0.01);
}

// --- CategoricalTable: Rng::categorical, bit for bit ----------------------

// Weight vectors that stress the exact draw: zero weights leading, in the
// middle and trailing; 1e-9 weights next to unit ones; a single weight;
// fig5's straggler (6 RPs at 1.0, 15 pairs at 0.8) and a PRP-shaped
// vector; then random vectors mixing all of these with spreads of six
// decades.
std::vector<std::vector<double>> categorical_cases() {
  std::vector<std::vector<double>> cases = {
      {1.0},
      {5.0},
      {0.0, 0.0, 1.0},
      {1.0, 0.0, 0.0},
      {0.0, 1.0, 0.0, 2.0, 0.0},
      {1e-9, 1.0, 1e-9},
      {1e-9, 1e-9, 1e-9},
      {1.0, 3.0, 0.0, 6.0},
      {0.1, 0.2, 0.3, 0.4},
  };
  std::vector<double> fig5(6, 1.0);
  fig5.resize(21, 0.8);
  cases.push_back(fig5);
  cases.push_back({1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.25});

  Rng gen(0xca7e);
  while (cases.size() < 60) {
    std::vector<double> w(1 + gen.uniform_index(24));
    for (double& x : w) {
      const double pick = gen.uniform();
      x = pick < 0.15   ? 0.0
          : pick < 0.25 ? 1e-9
                        : gen.uniform() * std::pow(10.0, gen.uniform(-3, 3));
    }
    double total = 0.0;
    for (double x : w) {
      total += x;
    }
    if (total > 0.0) {
      cases.push_back(w);
    }
  }
  return cases;
}

TEST(CategoricalTable, SampleMatchesCategoricalDrawForDraw) {
  // >= 10^6 draws: every index and every engine state after each draw
  // must equal the reference's.
  const std::vector<std::vector<double>> cases = categorical_cases();
  std::uint64_t seed = 1;
  std::size_t draws = 0;
  for (const std::vector<double>& w : cases) {
    const CategoricalTable table(w);
    Rng reference(seed);
    Rng fast(seed);
    ++seed;
    for (int d = 0; d < 20000; ++d, ++draws) {
      const std::size_t want = reference.categorical(w.data(), w.size());
      const std::size_t got = table.sample(fast);
      if (got != want || !(fast.engine() == reference.engine())) {
        FAIL() << "case of " << w.size() << " weights, draw " << d
               << ": table " << got << ", categorical " << want;
      }
    }
  }
  EXPECT_GE(draws, 1000000u);
}

TEST(CategoricalTable, ExactAtEveryThresholdAndOneUlpBelow) {
  // uniform() is k * 2^-53, so one ulp of the draw is one step of k.  K_i
  // must be the first draw whose index exceeds i: index <= i one ulp
  // below it, > i at it, and the table agrees with the reference at both.
  constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
  const auto reference = [](const std::vector<double>& w, std::uint64_t k) {
    return categorical_index(static_cast<double>(k) * 0x1.0p-53, w.data(),
                             w.size());
  };
  for (const std::vector<double>& w : categorical_cases()) {
    const CategoricalTable table(w);
    const std::vector<std::uint64_t>& thresholds = table.thresholds();
    ASSERT_EQ(thresholds.size(), w.size());
    EXPECT_EQ(table.index_at(0), reference(w, 0));
    EXPECT_EQ(table.index_at(kDraws - 1), reference(w, kDraws - 1));
    for (std::size_t i = 0; i + 1 < thresholds.size(); ++i) {
      const std::uint64_t k = thresholds[i];
      if (i > 0) {
        ASSERT_GE(k, thresholds[i - 1]);
      }
      if (k >= kDraws) {
        // Never reached: even the last draw keeps the index <= i.
        EXPECT_LE(reference(w, kDraws - 1), i);
        continue;
      }
      EXPECT_GT(reference(w, k), i);
      EXPECT_EQ(table.index_at(k), reference(w, k));
      if (k > 0) {
        EXPECT_LE(reference(w, k - 1), i);
        EXPECT_EQ(table.index_at(k - 1), reference(w, k - 1));
      }
    }
  }
}

TEST(CategoricalTable, TotalIsCategoricalsSum) {
  const std::vector<double> w = {0.1, 0.2, 0.3, 1e-9, 0.0, 7.5};
  double total = 0.0;
  for (double x : w) {
    total += x;
  }
  EXPECT_EQ(CategoricalTable(w).total(), total);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(55);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

// The exponential race property underlies every simulator in this repo:
// min of Exp(a), Exp(b) is Exp(a+b) and the first to fire is i w.p.
// rate_i / total.
TEST(Rng, ExponentialRaceWinnerDistribution) {
  Rng rng(202);
  const double a = 2.0, b = 0.5;
  int a_wins = 0;
  const int trials = 200000;
  RunningStats min_stats;
  for (int i = 0; i < trials; ++i) {
    const double xa = rng.exponential(a);
    const double xb = rng.exponential(b);
    min_stats.add(std::min(xa, xb));
    if (xa < xb) {
      ++a_wins;
    }
  }
  EXPECT_NEAR(a_wins / static_cast<double>(trials), a / (a + b), 0.005);
  EXPECT_NEAR(min_stats.mean(), 1.0 / (a + b), 0.01);
}

}  // namespace
}  // namespace rbx
