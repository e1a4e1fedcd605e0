#include "model/async_model.h"

#include <cmath>

#include <gtest/gtest.h>

#include "model/async_symmetric.h"
#include "numerics/quadrature.h"
#include "support/stats.h"

namespace rbx {
namespace {

// Closed form for n = 2 derived by first-step analysis (see the comment in
// DESIGN.md "Interpretation decisions"):
//   tau(00)  = (3 mu + lambda) / (2 mu^2)
//   E[X]     = 1/(2mu + lambda) + lambda * tau(00) / (2mu + lambda).
double two_process_mean(double mu, double lambda) {
  const double tau00 = (3.0 * mu + lambda) / (2.0 * mu * mu);
  return (1.0 + lambda * tau00) / (2.0 * mu + lambda);
}

TEST(AsyncModel, TwoProcessClosedForm) {
  for (double mu : {0.5, 1.0, 2.0}) {
    for (double lambda : {0.0, 0.5, 1.0, 3.0}) {
      AsyncRbModel model(ProcessSetParams::symmetric(2, mu, lambda));
      EXPECT_NEAR(model.mean_interval(), two_process_mean(mu, lambda), 1e-10)
          << "mu=" << mu << " lambda=" << lambda;
    }
  }
}

TEST(AsyncModel, UnitRatesTwoProcessesGiveMeanOne) {
  AsyncRbModel model(ProcessSetParams::symmetric(2, 1.0, 1.0));
  EXPECT_NEAR(model.mean_interval(), 1.0, 1e-12);
}

TEST(AsyncModel, StateNumberingFollowsPaper) {
  AsyncRbModel model(ProcessSetParams::symmetric(3, 1.0, 1.0));
  EXPECT_EQ(model.num_states(), 9u);
  EXPECT_EQ(model.entry_state(), 0u);
  EXPECT_EQ(model.absorbing_state(), 8u);
  // (x1, x2, x3) -> sum x_i 2^{i-1} + 1.
  EXPECT_EQ(model.state_of_mask(0b000), 1u);
  EXPECT_EQ(model.state_of_mask(0b101), 6u);
  // All-ones maps to the absorbing state m.
  EXPECT_EQ(model.state_of_mask(0b111), 8u);
  EXPECT_EQ(model.mask_of_state(6), 0b101u);
}

TEST(AsyncModel, NoInteractionsDegenerateToImmediateLines)
{
  // With lambda = 0 rule R4 always fires first: X ~ Exp(sum mu).
  AsyncRbModel model(ProcessSetParams::three(1.0, 2.0, 3.0, 0, 0, 0));
  EXPECT_NEAR(model.mean_interval(), 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(model.variance_interval(), 1.0 / 36.0, 1e-10);
  // The line-forming RP is P_i's with probability mu_i / sum mu.
  EXPECT_NEAR(model.absorbing_rp_probability(0), 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(model.absorbing_rp_probability(2), 0.5, 1e-12);
}

TEST(AsyncModel, GeneratorRowsSumToZero) {
  AsyncRbModel model(ProcessSetParams::three(1.5, 1.0, 0.5, 1.5, 0.5, 1.0));
  const auto& gen = model.chain().generator();
  for (std::size_t s = 0; s < model.num_states() - 1; ++s) {
    EXPECT_NEAR(gen.row_sum(s), 0.0, 1e-12) << "state " << s;
  }
  EXPECT_DOUBLE_EQ(gen.row_sum(model.absorbing_state()), 0.0);
}

TEST(AsyncModel, AbsorbingRpProbabilitiesSumToOne) {
  AsyncRbModel model(ProcessSetParams::three(1.5, 1.0, 0.5, 0.5, 1.5, 1.0));
  double total = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    total += model.absorbing_rp_probability(i);
  }
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(AsyncModel, MeanEqualsTotalSojourn) {
  AsyncRbModel model(ProcessSetParams::three(1.0, 1.0, 1.0, 1.5, 0.5, 1.0));
  double total = 0.0;
  for (double nu : model.sojourn()) {
    total += nu;
  }
  EXPECT_NEAR(total, model.mean_interval(), 1e-10);
}

TEST(AsyncModel, DensityIntegratesToOne) {
  AsyncRbModel model(ProcessSetParams::symmetric(3, 1.0, 1.0));
  const auto r = integrate_to_infinity(
      [&model](double t) { return model.interval_pdf(t); }, 0.0, 1.0, 1e-9);
  EXPECT_NEAR(r.value, 1.0, 1e-6);
}

TEST(AsyncModel, DensityHasAtomAtZeroFromDirectTransition) {
  // f_X(0) = rate of R4 = sum mu (the paper's "sharp impulse near t = 0").
  AsyncRbModel model(ProcessSetParams::three(1.0, 1.0, 1.0, 1.0, 1.0, 1.0));
  EXPECT_NEAR(model.interval_pdf(0.0), 3.0, 1e-9);
}

TEST(AsyncModel, MeanMatchesNumericIntegralOfTailDistribution) {
  AsyncRbModel model(ProcessSetParams::three(0.6, 0.45, 0.45, 0.5, 0.5, 0.5));
  const auto r = integrate_to_infinity(
      [&model](double t) { return 1.0 - model.interval_cdf(t); }, 0.0, 2.0,
      1e-9);
  EXPECT_NEAR(r.value, model.mean_interval(), 1e-5);
}

TEST(AsyncModel, RpCountConventionsAreOrderedAndConsistent) {
  AsyncRbModel model(ProcessSetParams::three(1.5, 1.0, 0.5, 1.0, 1.0, 1.0));
  for (std::size_t i = 0; i < 3; ++i) {
    const auto counts = model.expected_rp_count(i);
    EXPECT_NEAR(counts.wald, model.params().mu(i) * model.mean_interval(),
                1e-10);
    EXPECT_LT(counts.excluding_final, counts.wald);
    EXPECT_GT(counts.excluding_final,
              counts.wald - 1.0);  // at most one final RP
    EXPECT_LE(counts.state_changing, counts.wald + 1e-12);
    EXPECT_GT(counts.state_changing, 0.0);
  }
}

TEST(AsyncModel, SplitChainMatchesExcludingFinalConvention) {
  // The literal reconstruction of the paper's Y_d split chain must agree
  // with the sojourn-based formula mu_i E[X] - P(final by i).
  const ProcessSetParams cases[] = {
      ProcessSetParams::three(1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
      ProcessSetParams::three(1.5, 1.0, 0.5, 1.0, 1.0, 1.0),
      ProcessSetParams::three(1.5, 1.0, 0.5, 0.5, 1.5, 1.0),
  };
  for (const auto& params : cases) {
    AsyncRbModel model(params);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(model.expected_rp_count_split_chain(i),
                  model.expected_rp_count(i).excluding_final, 1e-8)
          << params.describe() << " i=" << i;
    }
  }
}

TEST(AsyncModel, MoreInteractionsLengthenTheInterval) {
  double prev = 0.0;
  for (double lambda : {0.0, 0.5, 1.0, 2.0, 4.0}) {
    AsyncRbModel model(ProcessSetParams::symmetric(3, 1.0, lambda));
    EXPECT_GT(model.mean_interval(), prev);
    prev = model.mean_interval();
  }
}

TEST(AsyncModel, FourAndFiveProcessChainsAreWellFormed) {
  for (std::size_t n : {4u, 5u}) {
    AsyncRbModel model(ProcessSetParams::symmetric(n, 1.0, 1.0));
    EXPECT_EQ(model.num_states(), (std::size_t{1} << n) + 1);
    EXPECT_GT(model.mean_interval(), 0.0);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += model.absorbing_rp_probability(i);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

// Lumping check: the full model under homogeneous rates must agree exactly
// with the simplified R1'-R4' chain (this pins down the OCR-damaged R2'
// rate u(u-1)lambda/2).  The inputs cover fig5's whole grid: n = 2..7 at
// its own points lambda = 2 rho / (n - 1), rho in {0.5, 1, 2}.
TEST(AsyncModel, FullModelMatchesSymmetricLumping) {
  for (std::size_t n : {2u, 3u, 4u, 5u, 6u, 7u}) {
    const double nd = static_cast<double>(n);
    // The last three are fig5's rho = 0.5, 1 and 2.
    for (double lambda : {0.25, 1.0, 2.0, 1.0 / (nd - 1.0), 2.0 / (nd - 1.0),
                          4.0 / (nd - 1.0)}) {
      AsyncRbModel full(ProcessSetParams::symmetric(n, 1.0, lambda));
      SymmetricAsyncModel lumped(n, 1.0, lambda);
      // Relative tolerances: at high rho the mean interval reaches 1e4+.
      EXPECT_LT(relative_error(full.mean_interval(), lumped.mean_interval()),
                1e-9)
          << "n=" << n << " lambda=" << lambda;
      EXPECT_LT(relative_error(full.variance_interval(),
                               lumped.variance_interval()),
                1e-8);
      for (double t : {0.1, 0.5, 1.5}) {
        EXPECT_NEAR(full.interval_pdf(t), lumped.interval_pdf(t), 1e-8);
      }
    }
  }
}

struct RateCase {
  double mu1, mu2, mu3;
  double l12, l23, l13;
};

class AsyncModelPropertyTest : public ::testing::TestWithParam<RateCase> {};

TEST_P(AsyncModelPropertyTest, StructuralInvariants) {
  const RateCase& c = GetParam();
  AsyncRbModel model(
      ProcessSetParams::three(c.mu1, c.mu2, c.mu3, c.l12, c.l23, c.l13));

  // Mean is positive and at least the no-interaction lower bound
  // 1/(sum mu) (interactions can only delay the next line).
  const double lower = 1.0 / model.params().total_mu();
  EXPECT_GE(model.mean_interval(), lower - 1e-12);

  // Variance positive.
  EXPECT_GT(model.variance_interval(), 0.0);

  // Absorbing-RP probabilities form a distribution.
  double total = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    const double p = model.absorbing_rp_probability(i);
    EXPECT_GT(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);

  // Wald counts sum to total_mu * E[X].
  double wald_sum = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    wald_sum += model.expected_rp_count(i).wald;
  }
  EXPECT_NEAR(wald_sum, model.params().total_mu() * model.mean_interval(),
              1e-9);

  // cdf is a proper distribution function.
  EXPECT_NEAR(model.interval_cdf(0.0), 0.0, 1e-12);
  EXPECT_GT(model.interval_cdf(5.0 * model.mean_interval()), 0.9);
}

// Ported from the retired Analyzer shim's density test: the uniform grid
// of the phase-type density equals pointwise interval_pdf evaluation
// (fig6's analytic column).
TEST(AsyncModel, DensityGridMatchesPointwisePdf) {
  const auto params = ProcessSetParams::symmetric(3, 1.0, 1.0);
  AsyncRbModel model(params);
  const std::vector<double> grid = model.interval().pdf_grid(2.0, 5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_NEAR(grid[0], model.interval_pdf(0.0), 1e-9);
  EXPECT_NEAR(grid[2], model.interval_pdf(1.0), 1e-9);
  EXPECT_NEAR(grid[4], model.interval_pdf(2.0), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RateSweep, AsyncModelPropertyTest,
    ::testing::Values(RateCase{1.0, 1.0, 1.0, 1.0, 1.0, 1.0},
                      RateCase{1.5, 1.0, 0.5, 1.0, 1.0, 1.0},
                      RateCase{1.0, 1.0, 1.0, 1.5, 0.5, 1.0},
                      RateCase{1.5, 1.0, 0.5, 1.5, 0.5, 1.0},
                      RateCase{1.5, 1.0, 0.5, 0.5, 1.5, 1.0},
                      RateCase{0.6, 0.45, 0.45, 0.5, 0.5, 0.5},
                      RateCase{0.6, 0.45, 0.45, 0.75, 0.75, 0.75},
                      RateCase{2.0, 0.1, 0.1, 3.0, 0.2, 0.1},
                      RateCase{0.2, 0.3, 0.4, 0.0, 2.0, 0.0}));

}  // namespace
}  // namespace rbx
