#include "support/stats.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"

namespace rbx {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  RBX_CHECK(count_ > 0);
  return min_;
}

double RunningStats::max() const {
  RBX_CHECK(count_ > 0);
  return max_;
}

double RunningStats::ci_half_width(double z) const {
  if (count_ < 2) {
    return 0.0;
  }
  return z * stddev() / std::sqrt(static_cast<double>(count_));
}

void SampleSet::add(double x) {
  samples_.push_back(x);
  stats_.add(x);
}

void SampleSet::merge(const SampleSet& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  stats_.merge(other.stats_);
}

double SampleSet::quantile(double q) const {
  RBX_CHECK(!samples_.empty());
  RBX_CHECK(q >= 0.0 && q <= 1.0);
  if (samples_.size() == 1) {
    return samples_[0];
  }
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  // Order statistics idx and idx + 1, the two a sorted copy would hold at
  // those positions: nth_element leaves every later sample no smaller than
  // the idx-th, so the next is their minimum.
  const auto nth = samples_.begin() + static_cast<std::ptrdiff_t>(idx);
  std::nth_element(samples_.begin(), nth, samples_.end());
  if (idx + 1 >= samples_.size()) {
    return *nth;
  }
  const double next = *std::min_element(nth + 1, samples_.end());
  const double frac = pos - static_cast<double>(idx);
  return *nth * (1.0 - frac) + next * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  RBX_CHECK(hi > lo);
  RBX_CHECK(bins > 0);
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / width_);
  if (idx >= counts_.size()) {  // numeric edge at hi_
    idx = counts_.size() - 1;
  }
  ++counts_[idx];
}

void Histogram::merge(const Histogram& other) {
  RBX_CHECK_MSG(lo_ == other.lo_ && hi_ == other.hi_ &&
                    counts_.size() == other.counts_.size(),
                "Histogram::merge needs identical ranges and bin counts");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

double Histogram::bin_center(std::size_t i) const {
  RBX_CHECK(i < counts_.size());
  return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

double Histogram::density(std::size_t i) const {
  RBX_CHECK(i < counts_.size());
  if (total_ == 0) {
    return 0.0;
  }
  return static_cast<double>(counts_[i]) /
         (static_cast<double>(total_) * width_);
}

double relative_error(double a, double b, double floor) {
  const double scale = std::max({std::fabs(a), std::fabs(b), floor});
  return std::fabs(a - b) / scale;
}

}  // namespace rbx
