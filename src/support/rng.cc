#include "support/rng.h"

#include "support/check.h"

// The port replays glibc's x86-64 log1p and relies on GCC's target and
// optimize pragmas; other toolchains and libms take the std::log1p loop.
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__GNUC__) && \
    !defined(__clang__)
#define RBX_LOG1P_PORT 1
#include <immintrin.h>
#else
#define RBX_LOG1P_PORT 0
#endif

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

void Xoshiro256StarStar::jump(const std::array<std::uint64_t, 4>& poly) {
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t word : poly) {
    for (int b = 0; b < 64; ++b) {
      const std::uint64_t take = 0 - ((word >> b) & 1);  // all ones or none
      s0 ^= s_[0] & take;
      s1 ^= s_[1] & take;
      s2 ^= s_[2] & take;
      s3 ^= s_[3] & take;
      next();
    }
  }
  s_ = {s0, s1, s2, s3};
}

void Xoshiro256StarStar::long_jump() {
  jump({0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
        0x39109bb02acbe635ULL});
}

void Xoshiro256StarStar::jump_2048() {
  jump({0x876c2301125a85c0ULL, 0x15fe822628b16f04ULL, 0x3c8ca36ec9a74fa7ULL,
        0x51edef31819e01ffULL});
}

double Rng::uniform(double lo, double hi) {
  RBX_DCHECK(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  return bounded_index(n, [this] { return engine_.next(); });
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

// --- exponential_block -----------------------------------------------------

#if RBX_LOG1P_PORT
// The four-lane port (rng.h: the exactness contract).  The pragmas reach
// to the pop below: AVX2 and FMA for this code only, and no contraction,
// so every multiply and add stays the separate operation glibc performs.
#pragma GCC push_options
#pragma GCC target("avx2,fma")
#pragma GCC optimize("fp-contract=off")

namespace {

// s_log1p.c's constants: ln2 split in two, and the polynomial's Lp1..Lp7.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kLp1 = 6.666666666666735130e-01;
constexpr double kLp2 = 3.999999999940941908e-01;
constexpr double kLp3 = 2.857142874366239149e-01;
constexpr double kLp4 = 2.222219843214978396e-01;
constexpr double kLp5 = 1.818357216161805012e-01;
constexpr double kLp6 = 1.531383769920937332e-01;
constexpr double kLp7 = 1.479819860511658591e-01;

__m256d splat(double x) { return _mm256_set1_pd(x); }
__m256i splat_bits(std::uint64_t x) {
  return _mm256_set1_epi64x(static_cast<long long>(x));
}
__m256d as_pd(__m256i x) { return _mm256_castsi256_pd(x); }

// glibc's log1p (s_log1p.c, fdlibm's algorithm) at x = -v in four lanes:
// log1p(x) = k ln2 + log(1 + f) with 1 + f in [sqrt(2)/2, sqrt(2)), and
// log(1 + f) = f - (hfsq - s (hfsq + R(s^2))) for s = f / (2 + f).  Sets
// `rare` to the lanes that must go through std::log1p instead; their
// results here are meaningless.
__m256d log1p_of_negated(__m256d v, __m256d& rare) {
  const __m256d one = splat(1.0);
  const __m256d x = _mm256_xor_pd(v, splat(-0.0));
  // The main paths need 2^-29 <= |x| < 1: v in [2^-29, 1), which NaN
  // fails too.
  const __m256d in_range =
      _mm256_and_pd(_mm256_cmp_pd(v, splat(0x1p-29), _CMP_GE_OQ),
                    _mm256_cmp_pd(v, one, _CMP_LT_OQ));
  // glibc takes k != 0 where (uint32)(hx + 0x402d413c) <= 0x402d413c; for
  // x in (-1, -2^-29] that is v >= the double 0x3fd2bec4'00000000.
  const __m256d k_path = _mm256_cmp_pd(
      v, as_pd(splat_bits(0x3fd2bec400000000)), _CMP_GE_OQ);

  // The k != 0 path: u = 1 + x with exponent k and rounding correction
  // c = (x - (u - 1)) / u (u < 1, so glibc's k > 0 arm never runs here),
  // then u normalised into [sqrt(2)/2, sqrt(2)).
  const __m256d u = _mm256_add_pd(x, one);
  const __m256i u_bits = _mm256_castpd_si256(u);
  const __m256i hu = _mm256_srli_epi64(u_bits, 32);
  const __m256d c = _mm256_div_pd(_mm256_sub_pd(x, _mm256_sub_pd(u, one)), u);
  const __m256i mantissa = _mm256_and_si256(hu, splat_bits(0xfffff));
  // Where hu > 0x6a09d, u/2 is normalised and k grows by one (`halve` is
  // all ones there, so subtracting it adds one).
  const __m256i halve = _mm256_cmpgt_epi64(mantissa, splat_bits(0x6a09d));
  const __m256i k = _mm256_sub_epi64(
      _mm256_sub_epi64(_mm256_srli_epi64(hu, 20), splat_bits(1023)), halve);
  const __m256i high = _mm256_or_si256(
      mantissa, _mm256_blendv_epi8(splat_bits(0x3ff00000),
                                   splat_bits(0x3fe00000), halve));
  const __m256d normal = as_pd(
      _mm256_or_si256(_mm256_slli_epi64(high, 32),
                      _mm256_and_si256(u_bits, splat_bits(0xffffffff))));
  // glibc's hu after normalising; 0 (|f| < 2^-20) is a rare path.
  const __m256i hu_after = _mm256_blendv_epi8(
      mantissa,
      _mm256_srli_epi64(_mm256_sub_epi64(splat_bits(0x100000), mantissa), 2),
      halve);
  const __m256i zero = _mm256_setzero_si256();
  rare = _mm256_or_pd(
      _mm256_andnot_pd(in_range, as_pd(_mm256_cmpeq_epi64(zero, zero))),
      _mm256_and_pd(k_path, as_pd(_mm256_cmpeq_epi64(hu_after, zero))));

  // Both paths: f (x itself where k = 0), then R with glibc's FMA tree.
  const __m256d f = _mm256_blendv_pd(x, _mm256_sub_pd(normal, one), k_path);
  const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(f, splat(0.5)), f);
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(f, splat(2.0)));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d r2 = _mm256_fmadd_pd(z, splat(kLp3), splat(kLp2));
  const __m256d r3 = _mm256_fmadd_pd(z, splat(kLp5), splat(kLp4));
  const __m256d r4 = _mm256_fmadd_pd(z, splat(kLp7), splat(kLp6));
  const __m256d z2 = _mm256_mul_pd(z, z);
  const __m256d z4 = _mm256_mul_pd(z2, z2);
  const __m256d z6 = _mm256_mul_pd(z2, z4);
  __m256d r = _mm256_fmadd_pd(z, splat(kLp1), _mm256_mul_pd(z2, r2));
  r = _mm256_fmadd_pd(z4, r3, r);
  r = _mm256_fmadd_pd(z6, r4, r);
  const __m256d w = _mm256_mul_pd(_mm256_add_pd(r, hfsq), s);

  // k = 0 (x > -0.2929, or k + 1 = 0 after normalising; c is unused).
  const __m256d y0 = _mm256_sub_pd(f, _mm256_sub_pd(hfsq, w));
  // k != 0: k ln2_hi - ((hfsq - ((k ln2_lo + c) + w)) - f).  k is small,
  // so adding it to the bits of 1.5 * 2^52 and subtracting 1.5 * 2^52
  // converts it to double exactly.
  const __m256d kd = _mm256_sub_pd(
      as_pd(_mm256_add_epi64(k, splat_bits(0x4338000000000000))),
      splat(0x1.8p52));
  __m256d t = _mm256_fmadd_pd(kd, splat(kLn2Lo), c);
  t = _mm256_sub_pd(_mm256_sub_pd(hfsq, _mm256_add_pd(t, w)), f);
  const __m256d yk = _mm256_fmsub_pd(kd, splat(kLn2Hi), t);
  const __m256d k_nonzero =
      _mm256_andnot_pd(as_pd(_mm256_cmpeq_epi64(k, zero)), k_path);
  return _mm256_blendv_pd(y0, yk, k_nonzero);
}

// Transforms values[0, count - count % 4) and returns how many it did.
std::size_t exponential_block_avx2(double* values, std::size_t count,
                                   double rate) {
  const std::size_t end = count - count % 4;
  for (std::size_t i = 0; i < end; i += 4) {
    const __m256d v = _mm256_loadu_pd(values + i);
    __m256d rare;
    const __m256d y = log1p_of_negated(v, rare);
    _mm256_storeu_pd(values + i, _mm256_div_pd(_mm256_xor_pd(y, splat(-0.0)),
                                               splat(rate)));
    if (const int lanes = _mm256_movemask_pd(rare); lanes != 0) {
      alignas(32) double drawn[4];
      _mm256_store_pd(drawn, v);
      for (int lane = 0; lane < 4; ++lane) {
        if ((lanes >> lane) & 1) {
          values[i + lane] = -std::log1p(-drawn[lane]) / rate;
        }
      }
    }
  }
  return end;
}

}  // namespace

#pragma GCC pop_options
#endif  // RBX_LOG1P_PORT

bool exponential_block_vectorized() {
#if RBX_LOG1P_PORT
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

void exponential_block(double* values, std::size_t count, double rate) {
  RBX_CHECK(rate > 0.0);
  std::size_t done = 0;
#if RBX_LOG1P_PORT
  if (exponential_block_vectorized()) {
    done = exponential_block_avx2(values, count, rate);
  }
#endif
  for (std::size_t i = done; i < count; ++i) {
    values[i] = -std::log1p(-values[i]) / rate;
  }
}

// --- DrawBlock -------------------------------------------------------------

void DrawBlock::refill() {
  Xoshiro256StarStar& engine = rng_.engine();
  start_ = engine;
  for (std::size_t i = 0; i < kSize; ++i) {
    raw_[i] = engine.next();
    unit_[i] = static_cast<double>(raw_[i] >> 11) * 0x1.0p-53;
  }
  exponential_block(unit_.data(), kSize, 1.0);
  pos_ = 0;
}

void DrawBlock::settle() {
  if (pos_ == kSize) {
    return;  // no block, or every draw of it served: nothing read ahead
  }
  Xoshiro256StarStar& engine = rng_.engine();
  engine = start_;
  for (std::size_t i = 0; i < pos_; ++i) {
    engine.next();
  }
  pos_ = kSize;
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
