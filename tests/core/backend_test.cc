#include "core/backend.h"

#include <cmath>

#include <gtest/gtest.h>

#include "model/async_model.h"
#include "model/prp_model.h"
#include "model/sync_model.h"
#include "support/stats.h"

namespace rbx {
namespace {

TEST(BackendRegistry, NamesAndLookup) {
  EXPECT_EQ(analytic_backend().name(), "analytic");
  EXPECT_EQ(monte_carlo_backend().name(), "monte-carlo");
  EXPECT_EQ(runtime_backend().name(), "runtime");
  EXPECT_EQ(all_backends().size(), 8u);
  EXPECT_EQ(find_backend("analytic"), &analytic_backend());
  EXPECT_EQ(find_backend("monte-carlo"), &monte_carlo_backend());
  EXPECT_EQ(find_backend("runtime"), &runtime_backend());
  EXPECT_EQ(find_backend("density-analytic"), &density_analytic_backend());
  EXPECT_EQ(find_backend("density-mc"), &density_monte_carlo_backend());
  EXPECT_EQ(find_backend("line-exact"), &exact_line_backend());
  EXPECT_EQ(find_backend("hybrid"), &hybrid_scheme_backend());
  EXPECT_EQ(find_backend("markov-structure"), &markov_structure_backend());
  EXPECT_EQ(find_backend("no-such-backend"), nullptr);
  // Every registered name round-trips through the lookup.
  for (const EvalBackend* b : all_backends()) {
    EXPECT_EQ(find_backend(b->name()), b);
  }
}

TEST(AnalyticBackendTest, AsyncMatchesUnderlyingModel) {
  const auto params = ProcessSetParams::three(1.5, 1.0, 0.5, 1, 1, 1);
  const ResultSet r = analytic_backend().evaluate(Scenario(params));

  AsyncRbModel model(params);
  EXPECT_DOUBLE_EQ(r.value("mean_interval_x"), model.mean_interval());
  EXPECT_DOUBLE_EQ(r.value("stddev_interval_x"),
                   std::sqrt(model.variance_interval()));
  EXPECT_DOUBLE_EQ(r.value("mean_line_age"), model.mean_line_age());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(r.value("rp_count_" + std::to_string(i + 1)),
                     model.expected_rp_count(i).wald);
  }
  // Analytic results carry no statistical uncertainty.
  EXPECT_TRUE(r.metric("mean_interval_x").exact());
}

// Ported from the retired Analyzer shim's test: the sync and PRP schemes
// report exactly the underlying Section 3 / Section 4 model quantities
// (the async scheme is pinned against AsyncRbModel above).
TEST(AnalyticBackendTest, SyncAndPrpMatchUnderlyingModels) {
  const auto params = ProcessSetParams::three(1.5, 1.0, 0.5, 1, 1, 1);
  const Scenario base = Scenario(params).t_record(0.01);
  const ResultSet s = analytic_backend().evaluate(
      Scenario(base).scheme(SchemeKind::kSynchronized));
  const ResultSet p = analytic_backend().evaluate(
      Scenario(base).scheme(SchemeKind::kPseudoRecoveryPoints));

  SyncRbModel sync(params.mu());
  EXPECT_DOUBLE_EQ(s.value("sync_mean_max_wait"), sync.mean_max_wait());
  EXPECT_DOUBLE_EQ(s.value("sync_mean_loss"), sync.mean_loss());

  PrpModel prp(params, 0.01);
  EXPECT_DOUBLE_EQ(p.value("prp_snapshots_per_rp"), 3.0);
  EXPECT_DOUBLE_EQ(p.value("prp_time_overhead_per_rp"),
                   prp.time_overhead_per_rp());
  EXPECT_DOUBLE_EQ(p.value("prp_mean_rollback_bound"),
                   prp.mean_rollback_bound());
}

TEST(AnalyticBackendTest, LumpedChainCoversLargeHomogeneousSystems) {
  // n = 20 is far beyond the 2^n + 1 state full chain; the lumped R1'-R4'
  // model covers it and promotes its numbers to the shared metric names.
  const Scenario s = Scenario::symmetric(20, 1.0, 0.1);
  EXPECT_TRUE(analytic_backend().supports(s));
  const ResultSet r = analytic_backend().evaluate(s);
  EXPECT_GT(r.value("mean_interval_x"), 0.0);
  EXPECT_DOUBLE_EQ(r.value("mean_interval_x"),
                   r.value("mean_interval_x_lumped"));

  // Homogeneous n in (7, 12] takes the same lumped-only path (the exact
  // lumping makes the O(8^n) full chain redundant there).
  const ResultSet mid =
      analytic_backend().evaluate(Scenario::symmetric(10, 1.0, 0.5));
  EXPECT_DOUBLE_EQ(mid.value("mean_interval_x"),
                   mid.value("mean_interval_x_lumped"));
  EXPECT_GT(mid.value("rp_count_10"), 0.0);

  // Heterogeneous rates at that size have no analytic representation.
  std::vector<double> mu(20, 1.0);
  mu[0] = 2.0;
  EXPECT_FALSE(analytic_backend().supports(Scenario::from_mu(mu)));
}

TEST(MonteCarloBackendTest, DeterministicForFixedSeed) {
  const Scenario s = Scenario::symmetric(3, 1.0, 1.0).samples(500).seed(7);
  const ResultSet a = monte_carlo_backend().evaluate(s);
  const ResultSet b = monte_carlo_backend().evaluate(s);
  EXPECT_EQ(a, b);
  const ResultSet c =
      monte_carlo_backend().evaluate(Scenario(s).seed(8));
  EXPECT_NE(a.value("mean_interval_x"), c.value("mean_interval_x"));
}

TEST(MonteCarloBackendTest, AgreesWithAnalyticOnSharedMetrics) {
  const Scenario s = Scenario::symmetric(3, 1.0, 1.0).samples(20000).seed(3);
  const ResultSet exact = analytic_backend().evaluate(s);
  const ResultSet mc = monte_carlo_backend().evaluate(s);
  EXPECT_LT(relative_error(mc.value("mean_interval_x"),
                           exact.value("mean_interval_x")),
            0.05);
  const Metric& m = mc.metric("mean_interval_x");
  EXPECT_EQ(m.count, 20000u);
  EXPECT_GT(m.half_width, 0.0);
}

TEST(MonteCarloBackendTest, SyncSchemeAgreesWithClosedForm) {
  const Scenario s = Scenario::from_mu({1.5, 1.0, 0.5})
                         .scheme(SchemeKind::kSynchronized)
                         .samples(20000)
                         .seed(5);
  const ResultSet exact = analytic_backend().evaluate(s);
  const ResultSet mc = monte_carlo_backend().evaluate(s);
  EXPECT_LT(relative_error(mc.value("sync_mean_max_wait"),
                           exact.value("sync_mean_max_wait")),
            0.05);
  EXPECT_LT(relative_error(mc.value("sync_mean_loss"),
                           exact.value("sync_mean_loss")),
            0.05);
}

TEST(MonteCarloBackendTest, PrpSchemeReportsPairedComparison) {
  const Scenario s = Scenario::symmetric(3, 1.0, 1.0)
                         .scheme(SchemeKind::kPseudoRecoveryPoints)
                         .t_record(1e-4)
                         .error_rate(0.25)
                         .samples(200)
                         .seed(5);
  EXPECT_TRUE(monte_carlo_backend().supports(s));
  EXPECT_FALSE(monte_carlo_backend().supports(Scenario(s).error_rate(0.0)));
  const ResultSet r = monte_carlo_backend().evaluate(s);
  EXPECT_EQ(r.value("failures"), 200.0);
  EXPECT_EQ(r.value("contaminated_restarts"), 0.0);
  EXPECT_GT(r.value("prp_distance"), 0.0);
  // PRPs bound rollback; plain asynchronous RBs pay at least as much on
  // the same failure histories.
  EXPECT_LE(r.value("prp_distance"), r.value("async_distance"));
}

TEST(RuntimeBackendTest, RunsAllSchemesWithVerifiedInvariants) {
  RuntimeWorkload w;
  w.steps = 120;
  for (SchemeKind scheme :
       {SchemeKind::kAsynchronous, SchemeKind::kSynchronized,
        SchemeKind::kPseudoRecoveryPoints}) {
    const ResultSet r = runtime_backend().evaluate(
        Scenario::symmetric(3, 1.0, 1.0)
            .scheme(scheme)
            .seed(9)
            .at_failure_probability(0.05)
            .workload(w));
    EXPECT_EQ(r.value("completed"), 1.0) << r.scenario();
    EXPECT_EQ(r.value("restore_verified"), 1.0) << r.scenario();
    EXPECT_EQ(r.value("line_consistency_verified"), 1.0) << r.scenario();
    EXPECT_EQ(r.value("fifo_violations"), 0.0) << r.scenario();
    EXPECT_GT(r.value("messages_sent"), 0.0) << r.scenario();
  }
}

TEST(ResultSetTest, MergeAndAccessors) {
  ResultSet a("analytic", "s");
  a.set("x", 1.0);
  ResultSet b("monte-carlo", "s");
  b.set("x", 1.1, 0.05, 100);
  a.merge(b, "mc_");
  EXPECT_TRUE(a.has("mc_x"));
  EXPECT_DOUBLE_EQ(a.value("mc_x"), 1.1);
  EXPECT_DOUBLE_EQ(a.value_or("missing", -1.0), -1.0);
  EXPECT_EQ(a.metric("mc_x").count, 100u);
  EXPECT_NE(a.to_string().find("mc_x"), std::string::npos);
}

}  // namespace
}  // namespace rbx
