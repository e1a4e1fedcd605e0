#include "trace/dot.h"

#include <gtest/gtest.h>

#include "model/async_symmetric.h"

namespace rbx {
namespace {

TEST(Dot, HistoryExportContainsAllEvents) {
  History h(2);
  h.add_recovery_point(0, 1.0);
  h.add_pseudo_recovery_point(1, 1.01, 0, 1);
  h.add_interaction(0, 1, 2.0);

  const std::string dot = history_to_dot(h, "fig1");
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("fig1"), std::string::npos);
  EXPECT_NE(dot.find("rp_0_1"), std::string::npos);
  EXPECT_NE(dot.find("prp_1_0_1"), std::string::npos);
  EXPECT_NE(dot.find("ix_0"), std::string::npos);
  EXPECT_NE(dot.find("P1"), std::string::npos);
  EXPECT_NE(dot.find("P2"), std::string::npos);
}

// The full bytes of a 3-process export, recorded when History still
// stored its events in append order; two interactions are added with the
// higher party first.
TEST(Dot, HistoryExportBytesAreStable) {
  History h(3);
  h.add_recovery_point(0, 1.0);
  h.add_pseudo_recovery_point(1, 1.25, 0, 1);
  h.add_pseudo_recovery_point(2, 1.5, 0, 1);
  h.add_interaction(2, 0, 2.0);
  h.add_recovery_point(1, 2.5);
  h.add_interaction(0, 1, 3.0);
  h.add_pseudo_recovery_point(0, 3.125, 1, 1);
  h.add_interaction(2, 1, 3.5);
  h.add_recovery_point(2, 4.0);
  h.add_recovery_point(0, 4.5);

  EXPECT_EQ(history_to_dot(h, "fig1"), R"(digraph "fig1" {
  rankdir=TB;
  node [shape=circle, fontsize=10];
  rp_0_1 [label="RP1^1\nt=1.000"];
  prp_1_0_1 [shape=doublecircle, label="PRP1^1,2\nt=1.250"];
  prp_2_0_1 [shape=doublecircle, label="PRP1^1,3\nt=1.500"];
  ix_0 [shape=point, label=""];
  rp_1_1 [label="RP1^2\nt=2.500"];
  ix_1 [shape=point, label=""];
  prp_0_1_1 [shape=doublecircle, label="PRP1^2,1\nt=3.125"];
  ix_2 [shape=point, label=""];
  rp_2_1 [label="RP1^3\nt=4.000"];
  rp_0_2 [label="RP2^1\nt=4.500"];
  p0 [shape=box, label="P1"];
  p0 -> rp_0_1;
  rp_0_1 -> ix_0;
  ix_0 -> ix_1;
  ix_1 -> prp_0_1_1;
  prp_0_1_1 -> rp_0_2;
  p1 [shape=box, label="P2"];
  p1 -> prp_1_0_1;
  prp_1_0_1 -> rp_1_1;
  rp_1_1 -> ix_1;
  ix_1 -> ix_2;
  p2 [shape=box, label="P3"];
  p2 -> prp_2_0_1;
  prp_2_0_1 -> ix_0;
  ix_0 -> ix_2;
  ix_2 -> rp_2_1;
}
)");
}

TEST(Dot, CtmcExportHasStatesAndRates) {
  SymmetricAsyncModel m(3, 1.0, 1.0);
  const std::string dot = ctmc_to_dot(
      m.chain(),
      [&m](std::size_t s) {
        if (s == m.entry_state()) return std::string("Sr");
        if (s == m.absorbing_state()) return std::string("Sr+1");
        return "S~" + std::to_string(s - 1);
      },
      "fig3");
  EXPECT_NE(dot.find("Sr"), std::string::npos);
  EXPECT_NE(dot.find("S~0"), std::string::npos);
  // R4' rate n*mu = 3.
  EXPECT_NE(dot.find("label=\"3\""), std::string::npos);
  // No self-loop edges.
  EXPECT_EQ(dot.find("s0 -> s0"), std::string::npos);
}

TEST(Dot, DeterministicOutput) {
  History h(2);
  h.add_recovery_point(0, 1.0);
  h.add_interaction(0, 1, 2.0);
  EXPECT_EQ(history_to_dot(h), history_to_dot(h));
}

}  // namespace
}  // namespace rbx
