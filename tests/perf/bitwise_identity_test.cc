// Bitwise pins for the hot-path optimizations that must be invisible in
// the output: scratch-buffer SpMV, the DES simulators' reused per-run
// buffers, and the in-place wire framing behind CellBatch/ResultBatch
// seal().  (Cross-mode ResultSet identity - 1 vs N threads, --workers,
// --connect - is pinned by the sweep/dispatch/cluster tests; these cover
// the buffer-reuse seams directly.)
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "core/executor.h"
#include "core/scenario.h"
#include "des/async_sim.h"
#include "des/prp_sim.h"
#include "des/sync_sim.h"
#include "model/params.h"
#include "numerics/sparse.h"
#include "support/wire.h"

namespace rbx {
namespace {

SparseMatrix test_matrix() {
  SparseMatrixBuilder b(8, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    b.add(i, i, 2.0 + static_cast<double>(i));
    if (i + 1 < 8) {
      b.add(i, i + 1, -0.5);
      b.add(i + 1, i, -0.25);
    }
  }
  // Duplicates must still sum after the in-place build.
  b.add(3, 3, 0.125);
  return b.build();
}

TEST(BitwiseIdentityTest, SpmvIntoDirtyBufferMatchesFresh) {
  const SparseMatrix m = test_matrix();
  std::vector<double> x(8);
  for (std::size_t i = 0; i < 8; ++i) {
    x[i] = 0.1 * static_cast<double>(i) - 0.3;
  }

  std::vector<double> fresh_left, fresh_right;
  m.left_multiply(x, fresh_left);
  m.right_multiply(x, fresh_right);

  // A caller-owned buffer full of garbage (wrong size, poison values)
  // must produce the same bytes: left_multiply owns the zero-fill,
  // right_multiply overwrites every row.
  std::vector<double> dirty(17, 1e300);
  m.left_multiply(x, dirty);
  EXPECT_EQ(dirty, fresh_left);
  dirty.assign(3, -1e300);
  m.right_multiply(x, dirty);
  EXPECT_EQ(dirty, fresh_right);
}

TEST(BitwiseIdentityTest, BuilderBuildSumsDuplicates) {
  const SparseMatrix m = test_matrix();
  EXPECT_EQ(m.rows(), 8u);
  EXPECT_EQ(m.at(3, 3), 2.0 + 3.0 + 0.125);
  EXPECT_EQ(m.at(4, 3), -0.25);
  EXPECT_EQ(m.at(0, 5), 0.0);
}

TEST(BitwiseIdentityTest, AsyncSimulatorScratchReuseAcrossRuns) {
  // One simulator running twice must retrace two fresh simulators whose
  // RNG streams are advanced identically: the reused per-line counters
  // carry no state between runs.
  ProcessSetParams p = ProcessSetParams::symmetric(4, 1.0, 0.5);
  AsyncRbSimulator reused(p, 0x5eed);
  const AsyncSimResult first = reused.run_lines(24, 0.25);
  const AsyncSimResult second = reused.run_lines(24, 0.25);

  AsyncRbSimulator paired(p, 0x5eed);
  const AsyncSimResult paired_first = paired.run_lines(24, 0.25);
  const AsyncSimResult paired_second = paired.run_lines(24, 0.25);

  EXPECT_EQ(first.interval.samples(), paired_first.interval.samples());
  EXPECT_EQ(second.interval.samples(), paired_second.interval.samples());
  EXPECT_EQ(first.line_age.samples(), paired_first.line_age.samples());
  ASSERT_EQ(second.rp_incl_final.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(second.rp_incl_final[i].mean(),
              paired_second.rp_incl_final[i].mean());
    EXPECT_EQ(second.rp_state_changing[i].mean(),
              paired_second.rp_state_changing[i].mean());
  }
}

TEST(BitwiseIdentityTest, SyncSimulatorScratchReuseAcrossRuns) {
  SyncSimParams params;
  params.mu = {1.0, 1.2, 0.8, 1.1};
  params.strategy = SyncStrategy::kElapsedTime;
  params.error_rate = 0.5;
  SyncRbSimulator reused(params, 42);
  const SyncSimResult first = reused.run(32);
  const SyncSimResult second = reused.run(32);

  SyncRbSimulator paired(params, 42);
  const SyncSimResult paired_first = paired.run(32);
  const SyncSimResult paired_second = paired.run(32);

  // max_wait and loss keep only their moments; rollback_distance keeps
  // its samples.
  const auto same_moments = [](const RunningStats& x, const RunningStats& y) {
    return x.count() == y.count() && x.mean() == y.mean() &&
           x.variance() == y.variance() && x.min() == y.min() &&
           x.max() == y.max();
  };
  EXPECT_TRUE(same_moments(first.max_wait, paired_first.max_wait));
  EXPECT_TRUE(same_moments(second.max_wait, paired_second.max_wait));
  EXPECT_TRUE(same_moments(second.loss, paired_second.loss));
  EXPECT_GT(second.rollback_distance.count(), 0u);
  EXPECT_EQ(first.rollback_distance.samples(),
            paired_first.rollback_distance.samples());
  EXPECT_EQ(second.rollback_distance.samples(),
            paired_second.rollback_distance.samples());
  EXPECT_EQ(second.loss_rate, paired_second.loss_rate);
}

TEST(BitwiseIdentityTest, PrpSimulatorPrebuiltTablesAcrossRuns) {
  ProcessSetParams p = ProcessSetParams::symmetric(4, 1.0, 0.5);
  PrpSimParams sim;
  sim.t_record = 1e-3;
  sim.error_rate = 0.5;
  PrpSimulator reused(p, sim, 7);
  const PrpSimResult first = reused.run(6);
  const PrpSimResult second = reused.run(6);

  PrpSimulator paired(p, sim, 7);
  const PrpSimResult paired_first = paired.run(6);
  const PrpSimResult paired_second = paired.run(6);

  EXPECT_EQ(first.horizon, paired_first.horizon);
  EXPECT_EQ(second.horizon, paired_second.horizon);
  EXPECT_EQ(second.prp_distance.samples(),
            paired_second.prp_distance.samples());
  EXPECT_EQ(second.async_distance.samples(),
            paired_second.async_distance.samples());
}

TEST(BitwiseIdentityTest, SealMatchesSealFrameBytes) {
  // CellBatch::seal() now frames in place (Writer::begin_frame/end_frame)
  // instead of encoding to a payload and copying through seal_frame; the
  // bytes on the wire must not change.
  Scenario base = Scenario::symmetric(3, 1.0, 0.5).samples(100);
  EvalPlan plan;
  plan.steps.push_back({"analytic", ""});
  CellBatch batch;
  for (std::size_t i = 0; i < 5; ++i) {
    batch.cells.push_back(
        BatchCell{i, Scenario(base).seed(100 + i), true, plan});
  }

  wire::Writer payload;
  batch.encode(payload);
  const std::vector<std::byte> expected =
      wire::seal_frame(kFrameCellBatch, payload.data());
  EXPECT_EQ(batch.seal(), expected);
}

}  // namespace
}  // namespace rbx
