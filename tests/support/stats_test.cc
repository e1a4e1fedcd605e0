#include "support/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "support/rng.h"

namespace rbx {
namespace {

TEST(RunningStats, MeanAndVarianceOfKnownData) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic data set is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci_half_width(), 0.0);
}

TEST(RunningStats, EmptyMeanIsZero) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.count(), 0u);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i * 0.7) * 10.0 + i * 0.01;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, b;
  a.add(1.0);
  a.add(2.0);
  RunningStats a_copy = a;
  a.merge(b);  // empty rhs: no change
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), a_copy.mean());
  b.merge(a);  // empty lhs adopts rhs
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(RunningStats, CiShrinksWithSamples) {
  RunningStats small, large;
  for (int i = 0; i < 100; ++i) {
    small.add(i % 7);
  }
  for (int i = 0; i < 10000; ++i) {
    large.add(i % 7);
  }
  EXPECT_LT(large.ci_half_width(), small.ci_half_width());
}

TEST(SampleSet, QuantilesOfUniformGrid) {
  SampleSet s;
  for (int i = 100; i >= 0; --i) {  // inserted unsorted on purpose
    s.add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.quantile(0.5), 50.0, 1e-12);
  EXPECT_NEAR(s.quantile(0.25), 25.0, 1e-12);
  EXPECT_NEAR(s.quantile(0.95), 95.0, 1e-12);
}

TEST(SampleSet, QuantileInterpolates) {
  SampleSet s;
  s.add(0.0);
  s.add(1.0);
  EXPECT_NEAR(s.quantile(0.5), 0.5, 1e-12);
  EXPECT_NEAR(s.quantile(0.75), 0.75, 1e-12);
}

TEST(SampleSet, StatsMatchRunningStats) {
  SampleSet s;
  RunningStats r;
  for (int i = 0; i < 1000; ++i) {
    const double x = (i * 37 % 101) * 0.13;
    s.add(x);
    r.add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), r.mean());
  EXPECT_DOUBLE_EQ(s.variance(), r.variance());
}

TEST(SampleSet, MergeMatchesOneShotAccumulation) {
  // The sample-parallel contract: K partial SampleSets merged in order
  // must agree with one accumulator fed the same values in the same
  // concatenated order - counts and extrema exactly, moments to the Chan
  // et al. combine's tight error.
  SampleSet all, a, b, c;
  for (int i = 0; i < 3000; ++i) {
    const double x = std::sin(i * 0.37) * 25.0 + 1e6 + i * 0.001;
    (i < 1000 ? a : i < 2000 ? b : c).add(x);
  }
  for (const SampleSet* part : {&a, &b, &c}) {
    for (double x : part->samples()) {
      all.add(x);
    }
  }
  SampleSet merged = a;
  merged.merge(b);
  merged.merge(c);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_DOUBLE_EQ(merged.min(), all.min());
  EXPECT_DOUBLE_EQ(merged.max(), all.max());
  EXPECT_LT(relative_error(merged.mean(), all.mean()), 1e-13);
  EXPECT_LT(relative_error(merged.variance(), all.variance()), 1e-10);
  // The raw samples concatenate in merge order, so order statistics (the
  // quantile path) see the identical multiset.
  ASSERT_EQ(merged.samples().size(), all.samples().size());
  EXPECT_DOUBLE_EQ(merged.quantile(0.5), all.quantile(0.5));
  EXPECT_DOUBLE_EQ(merged.quantile(0.95), all.quantile(0.95));
}

TEST(SampleSet, MergeWithEmptySides) {
  SampleSet a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // empty rhs: no change
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a);  // empty lhs adopts rhs
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.quantile(0.5), 2.0);
}

TEST(SampleSet, MergeAfterQuantileSortKeepsMomentsExact) {
  // quantile() reorders the sample buffer; a merge after that must
  // still produce moments identical to a merge before it (the stats
  // accumulator is add-time state, not recomputed from the buffer).
  SampleSet sorted_first, untouched, rhs;
  for (int i = 0; i < 100; ++i) {
    const double x = std::cos(i * 0.9) * 5.0;
    sorted_first.add(x);
    untouched.add(x);
    rhs.add(x * 0.5 + 1.0);
  }
  (void)sorted_first.quantile(0.5);  // forces the sort
  sorted_first.merge(rhs);
  untouched.merge(rhs);
  EXPECT_DOUBLE_EQ(sorted_first.mean(), untouched.mean());
  EXPECT_DOUBLE_EQ(sorted_first.variance(), untouched.variance());
  EXPECT_DOUBLE_EQ(sorted_first.quantile(0.25), untouched.quantile(0.25));
}

// The quantile rule over a sorted copy: linear interpolation between the
// order statistics at floor(q (N - 1)) and the one after it.
double sorted_copy_quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) {
    return samples[0];
  }
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  if (idx + 1 >= samples.size()) {
    return samples.back();
  }
  const double frac = pos - static_cast<double>(idx);
  return samples[idx] * (1.0 - frac) + samples[idx + 1] * frac;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Five values, so a set of any size is mostly ties.
double tied_value(Rng& rng) {
  static constexpr double kValues[] = {0.0, 0.125, 1.0, 3.75, 1e6};
  return kValues[rng.uniform_index(5)];
}

// quantile() selects its two order statistics in place; every call must
// return the bits interpolation over a sorted copy returns, whatever order
// earlier calls, adds and merges left the samples in.
TEST(SampleSet, QuantileSelectionEqualsSortedCopyBitwise) {
  const std::vector<double> qs = {0.0,  1e-12, 0.25,          0.5,
                                  0.95, 1.0 - 1e-12, 1.0};
  Rng rng(0x9a7e);
  for (const std::size_t size : {1u, 2u, 3u, 4u, 1001u}) {
    for (int trial = 0; trial < 20; ++trial) {
      SampleSet s;
      std::vector<double> added;
      for (std::size_t i = 0; i < size; ++i) {
        added.push_back(tied_value(rng));
        s.add(added.back());
      }
      std::vector<double> order = qs;
      for (int round = 0; round < 3; ++round) {
        for (std::size_t i = order.size() - 1; i > 0; --i) {
          std::swap(order[i], order[rng.uniform_index(i + 1)]);
        }
        for (const double q : order) {
          EXPECT_EQ(bits(s.quantile(q)), bits(sorted_copy_quantile(added, q)))
              << "size " << size << " q " << q;
        }
      }

      // Adds and a merge after quantiles: the next calls see the union.
      for (int i = 0; i < 3; ++i) {
        added.push_back(tied_value(rng));
        s.add(added.back());
      }
      SampleSet other;
      for (std::size_t i = 0; i < size; ++i) {
        other.add(tied_value(rng));
      }
      (void)other.quantile(0.5);
      added.insert(added.end(), other.samples().begin(),
                   other.samples().end());
      s.merge(other);
      ASSERT_EQ(s.count(), added.size());
      for (const double q : qs) {
        EXPECT_EQ(bits(s.quantile(q)), bits(sorted_copy_quantile(added, q)))
            << "size " << size << " q " << q << " after add and merge";
      }
    }
  }
}

TEST(Histogram, MergeSumsBinsAndTails) {
  Histogram a(0.0, 1.0, 4), b(0.0, 1.0, 4);
  a.add(-0.5);
  a.add(0.1);
  a.add(0.6);
  b.add(0.15);
  b.add(0.9);
  b.add(2.0);
  a.merge(b);
  EXPECT_EQ(a.total(), 6u);
  EXPECT_EQ(a.underflow(), 1u);
  EXPECT_EQ(a.overflow(), 1u);
  EXPECT_EQ(a.bin_count(0), 2u);  // 0.1 and 0.15
  EXPECT_EQ(a.bin_count(2), 1u);  // 0.6
  EXPECT_EQ(a.bin_count(3), 1u);  // 0.9
}

TEST(HistogramDeathTest, MergeRefusesMismatchedRanges) {
  Histogram a(0.0, 1.0, 4), wider(0.0, 2.0, 4), finer(0.0, 1.0, 8);
  EXPECT_DEATH(a.merge(wider), "identical ranges");
  EXPECT_DEATH(a.merge(finer), "identical ranges");
}

TEST(Histogram, BinningAndDensity) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 1000; ++i) {
    h.add(static_cast<double>(i % 10) + 0.5);
  }
  EXPECT_EQ(h.total(), 1000u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  double density_integral = 0.0;
  for (std::size_t i = 0; i < h.bins(); ++i) {
    EXPECT_EQ(h.bin_count(i), 100u);
    density_integral += h.density(i) * h.bin_width();
  }
  EXPECT_NEAR(density_integral, 1.0, 1e-12);
}

TEST(Histogram, OverflowAndUnderflowCounted) {
  Histogram h(0.0, 1.0, 4);
  h.add(-0.1);
  h.add(1.0);   // hi is exclusive
  h.add(2.0);
  h.add(0.5);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, BinCenters) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_NEAR(h.bin_center(0), 0.125, 1e-12);
  EXPECT_NEAR(h.bin_center(3), 0.875, 1e-12);
}

TEST(RelativeError, BasicBehaviour) {
  EXPECT_NEAR(relative_error(10.0, 11.0), 1.0 / 11.0, 1e-12);
  EXPECT_DOUBLE_EQ(relative_error(0.0, 0.0), 0.0);
  EXPECT_GT(relative_error(1e-15, 2e-15), 0.0);
}

}  // namespace
}  // namespace rbx
