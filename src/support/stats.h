// Statistics accumulators used by the simulators and benches.
//
// RunningStats uses Welford's algorithm (numerically stable single-pass mean
// and variance).  SampleSet retains all samples for exact quantiles and
// two-sided confidence intervals; the reproduction experiments use sample
// counts small enough (<= 10^7 doubles) that retention is the simplest
// correct choice.  Histogram supports both the density plot of Figure 6
// (fixed-width bins) and diagnostics.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace rbx {

// Single-pass mean / variance / min / max accumulator.
class RunningStats {
 public:
  void add(double x);

  // Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double mean() const;
  // Unbiased sample variance; zero for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  // Half-width of the normal-approximation confidence interval at the given
  // z value (1.96 ~ 95%).  Zero for fewer than two samples.
  double ci_half_width(double z = 1.96) const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Retains samples; supports exact order statistics.
class SampleSet {
 public:
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }

  // Merges another set into this one (parallel reduction): samples are
  // appended in the other set's order and the moment accumulators combine
  // via the pairwise Chan et al. update (RunningStats::merge), so the
  // merged mean/variance are numerically stable regardless of how the
  // samples were partitioned.  Order statistics are exact either way -
  // quantile() selects from the union.
  void merge(const SampleSet& other);

  std::size_t count() const { return samples_.size(); }
  double mean() const { return stats_.mean(); }
  double variance() const { return stats_.variance(); }
  double stddev() const { return stats_.stddev(); }
  double min() const { return stats_.min(); }
  double max() const { return stats_.max(); }
  double ci_half_width(double z = 1.96) const {
    return stats_.ci_half_width(z);
  }

  // Exact sample quantile (linear interpolation between order statistics);
  // q in [0, 1].  Requires at least one sample.  Selects the two order
  // statistics it reads (std::nth_element, O(N) per call) instead of
  // sorting, and returns bit for bit what interpolating over a sorted
  // copy would, wherever equal samples have equal bits (0.0 and -0.0 do
  // not).  It reorders the samples in place.
  double quantile(double q) const;

  // The samples in insertion order, until a quantile() call reorders them.
  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  RunningStats stats_;
};

// Fixed-width histogram over [lo, hi); samples outside the range land in the
// two overflow counters.  density(i) integrates to ~1 when overflow is empty.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  // Merges another histogram into this one; both must have been built
  // with the same [lo, hi) range and bin count (RBX_CHECKed).  Counts are
  // pure sums, so merging K partial histograms in any order equals
  // filling one histogram with all the samples.
  void merge(const Histogram& other);

  std::size_t bins() const { return counts_.size(); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double bin_width() const { return width_; }
  double bin_center(std::size_t i) const;
  std::size_t bin_count(std::size_t i) const { return counts_[i]; }
  std::size_t total() const { return total_; }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }

  // Empirical density estimate at bin i: count / (total * width).
  double density(std::size_t i) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

// Relative-error comparison helper used by tests and EXPERIMENTS reporting.
// Returns |a - b| / max(|a|, |b|, floor).
double relative_error(double a, double b, double floor = 1e-12);

}  // namespace rbx
