// Order statistics and the result digests behind the correctness gate.
// Header-only so the self-test exercises exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/executor.h"
#include "core/result.h"
#include "support/wire.h"

namespace e2e {

// p-th percentile (0..100) by linear interpolation between closest ranks
// (numpy's default).  Throws on an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    throw std::invalid_argument("percentile of an empty sample");
  }
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return percentile(v, 50.0); }

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

// The cut points of Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is how run-to-run spread is judged.  A single
// sample is its own quartiles; an empty one throws.
inline Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) {
    throw std::invalid_argument("quartiles of an empty sample");
  }
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    return {v[0], v[0], v[0]};
  }
  const long long n = static_cast<long long>(v.size());
  const long long m = n + 1;
  double cut[3];
  for (long long i = 1; i <= 3; ++i) {
    // Python clamps j to 1..n-1 before computing delta, so tiny samples
    // extrapolate past the end points instead of clamping to them.
    const long long j = std::clamp(i * m / 4, 1LL, n - 1);
    const long long delta = i * m - j * 4;
    cut[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                  v[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

// FNV-1a over the wire encoding of a ResultSet, the bytes a worker ships
// and a journal stores.  Every step is a bijection of the running state,
// so two encodings of equal length that differ in a single byte always
// digest differently.
inline std::uint64_t result_digest(const rbx::ResultSet& r) {
  rbx::wire::Writer w;
  r.encode(w);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::byte b : w.data()) {
    h = (h ^ static_cast<std::uint64_t>(b)) * 0x100000001b3ULL;
  }
  return h;
}

// One digest per cell of a pass; an error outcome digests to 0.
inline std::vector<std::uint64_t> digest_all(
    const std::vector<rbx::CellOutcome>& outcomes) {
  std::vector<std::uint64_t> digests;
  digests.reserve(outcomes.size());
  for (const rbx::CellOutcome& o : outcomes) {
    digests.push_back(o.ok() ? result_digest(o.result) : 0);
  }
  return digests;
}

// How many cells of a pass fail the correctness gate against the width-1
// reference's digests: an error outcome, or bytes that differ from the
// reference's.  A pass of the wrong length fails every cell.
inline std::size_t count_failed_cells(
    const std::vector<std::uint64_t>& reference,
    const std::vector<rbx::CellOutcome>& outcomes) {
  if (outcomes.size() != reference.size()) {
    return std::max(outcomes.size(), reference.size());
  }
  std::size_t failed = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok() || result_digest(outcomes[i].result) != reference[i]) {
      ++failed;
    }
  }
  return failed;
}

}  // namespace e2e
