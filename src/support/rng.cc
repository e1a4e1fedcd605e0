#include "support/rng.h"

#include "support/check.h"

namespace rbx {

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) {
    word = sm.next();
  }
  // All-zero state is the one invalid state; splitmix64 cannot produce four
  // consecutive zero outputs, but keep the guard for clarity.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) {
    s_[0] = 0x853c49e6748fea9bULL;
  }
}

void Xoshiro256StarStar::long_jump() {
  static constexpr std::uint64_t kLongJump[] = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};

  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t jump : kLongJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (1ULL << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      next();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

double Rng::uniform(double lo, double hi) {
  RBX_DCHECK(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  RBX_CHECK(n > 0);
  // Lemire-style rejection: accept when the 128-bit product's low half is
  // outside the biased region.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t x = engine_.next();
    const unsigned __int128 m =
        static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(n);
    const auto low = static_cast<std::uint64_t>(m);
    if (low >= threshold) {
      return static_cast<std::uint64_t>(m >> 64);
    }
  }
}

bool Rng::bernoulli(double p) {
  RBX_DCHECK(p >= 0.0 && p <= 1.0);
  return uniform() < p;
}

std::size_t Rng::categorical(const double* weights, std::size_t count) {
  return categorical_index(uniform(), weights, count);
}

Rng Rng::split() {
  Rng child = *this;
  child.engine_.long_jump();
  // Advance the parent as well so successive split() calls differ.
  engine_.next();
  return child;
}

std::size_t categorical_index(double unit, const double* weights,
                              std::size_t count) {
  RBX_CHECK(count > 0);
  double total = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    RBX_DCHECK(weights[i] >= 0.0);
    total += weights[i];
  }
  RBX_CHECK(total > 0.0);
  double u = unit * total;
  for (std::size_t i = 0; i < count; ++i) {
    u -= weights[i];
    if (u < 0.0) {
      return i;
    }
  }
  // Floating-point slack: fall back to the last positive weight.
  for (std::size_t i = count; i-- > 0;) {
    if (weights[i] > 0.0) {
      return i;
    }
  }
  return count - 1;
}

CategoricalTable::CategoricalTable(const std::vector<double>& weights) {
  const std::size_t count = weights.size();
  RBX_CHECK(count > 0);
  for (double w : weights) {
    RBX_CHECK(w >= 0.0);
    total_ += w;
  }
  RBX_CHECK(total_ > 0.0);

  // K_i by bisection: the least draw whose index exceeds i, or 2^53 when
  // none does.  Thresholds never decrease, so K_{i-1} bounds the search.
  constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
  const auto index = [&weights](std::uint64_t k) {
    return categorical_index(static_cast<double>(k) * 0x1.0p-53,
                             weights.data(), weights.size());
  };
  std::uint64_t lo = 0;
  for (std::size_t i = 0; i + 1 < count; ++i) {
    std::uint64_t hi = kDraws;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (index(mid) > i) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    thresholds_.push_back(lo);
  }
  thresholds_.push_back(UINT64_MAX);

  // At least 8 buckets per weight, indexed by the draw's top bits.
  unsigned bits = 0;
  while ((std::size_t{1} << bits) < 8 * count) {
    ++bits;
  }
  shift_ = 53 - bits;
  guide_.resize(std::size_t{1} << bits);
  std::size_t i = 0;
  for (std::size_t b = 0; b < guide_.size(); ++b) {
    const std::uint64_t first = static_cast<std::uint64_t>(b) << shift_;
    while (thresholds_[i] <= first) {
      ++i;
    }
    guide_[b] = i;
  }
}

}  // namespace rbx
