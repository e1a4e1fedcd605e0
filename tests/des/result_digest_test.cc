// Byte pins for the simulators' event draws.  Every Monte-Carlo draw path
// (async with and without an error process, async streams, sync, PRP with
// one and with four streams, and the exact recovery-line observer) is run
// on a fixed cell and digested; the constants were recorded before the
// draws moved to CategoricalTable and the inlined generator, so a changed
// constant means a changed output byte, not a new expectation.
//
// The ResultSet digest is FNV-1a-64 over ResultSet::encode, the same
// function e2ebench's correctness gate (result_digest) applies to every
// cell of a benchmark pass.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/eval_context.h"
#include "core/result.h"
#include "core/scenario.h"
#include "des/async_sim.h"
#include "model/params.h"
#include "support/wire.h"

namespace rbx {
namespace {

class Fnv1a64 {
 public:
  void add(const std::byte* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      h_ = (h_ ^ static_cast<std::uint64_t>(data[i])) * 0x100000001b3ULL;
    }
  }
  void add(const std::vector<double>& values) {
    add(reinterpret_cast<const std::byte*>(values.data()),
        values.size() * sizeof(double));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t result_digest(const ResultSet& r) {
  wire::Writer w;
  r.encode(w);
  Fnv1a64 h;
  h.add(w.data().data(), w.data().size());
  return h.value();
}

std::uint64_t mc_digest(const Scenario& s, std::size_t thread_budget = 1) {
  EvalContextScope scope(EvalContext{thread_budget});
  return result_digest(monte_carlo_backend().evaluate(s));
}

TEST(ResultDigest, AsyncStraggler) {
  // fig5's n=6, rho=2 cell shape: ~3,700 events per line, 21 categories.
  EXPECT_EQ(mc_digest(Scenario::symmetric(6, 1.0, 0.8).seed(7).samples(5000)),
            0x950233284e44d06eULL);
}

TEST(ResultDigest, AsyncWithErrorProcess) {
  EXPECT_EQ(mc_digest(Scenario::symmetric(4, 1.0, 0.7)
                          .error_rate(0.3)
                          .seed(77)
                          .samples(20000)),
            0xc26644545c57c5a7ULL);
}

TEST(ResultDigest, AsyncStreams) {
  EXPECT_EQ(mc_digest(Scenario::symmetric(3, 1.0, 0.5)
                          .error_rate(0.1)
                          .seed(78)
                          .samples(20000)
                          .streams(3),
                      /*thread_budget=*/4),
            0x214498b0ee3d76cbULL);
}

TEST(ResultDigest, Sync) {
  EXPECT_EQ(mc_digest(Scenario::from_mu({1.0, 1.2, 0.8, 1.1})
                          .scheme(SchemeKind::kSynchronized)
                          .error_rate(0.5)
                          .seed(79)
                          .samples(20000)),
            0x0744d4a000c3414cULL);
}

TEST(ResultDigest, PrpOneStream) {
  EXPECT_EQ(mc_digest(Scenario::symmetric(4, 1.0, 0.5)
                          .scheme(SchemeKind::kPseudoRecoveryPoints)
                          .t_record(1e-3)
                          .error_rate(0.5)
                          .seed(80)
                          .samples(3000)),
            0xc45cb3e52eb96d0eULL);
}

TEST(ResultDigest, PrpFourStreams) {
  EXPECT_EQ(mc_digest(Scenario::symmetric(3, 1.0, 1.0)
                          .scheme(SchemeKind::kPseudoRecoveryPoints)
                          .t_record(1e-4)
                          .error_rate(0.25)
                          .prp_sync_period(2.0)
                          .seed(81)
                          .samples(3000)
                          .streams(4),
                      /*thread_budget=*/2),
            0xc0069390f29c3b40ULL);
}

TEST(ResultDigest, ExactObserver) {
  // run_exact directly: every sample of the three observers, in order.
  AsyncRbSimulator sim(ProcessSetParams::symmetric(4, 1.0, 1.0), 82);
  const ExactLineResult r = sim.run_exact(50000);
  Fnv1a64 h;
  h.add(r.any_advance.samples());
  h.add(r.full_refresh.samples());
  h.add(r.model_interval.samples());
  EXPECT_EQ(r.model_interval.count(), 413u);
  EXPECT_EQ(h.value(), 0x63b680ebd50ec68cULL);
}

}  // namespace
}  // namespace rbx
