// The execution determinism contract: the same expanded grid produces
// bitwise-identical results on 1 thread, N threads, M forked worker
// processes, and a split whose shard journals are merged - plus the
// failure semantics (throwing cell_fn -> per-cell error; crashed worker ->
// per-cell error, not a hung sweep).
#include "core/executor.h"

#include <unistd.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/sweep.h"
#include "lane_sets.h"
#include "recov/journal.h"
#include "recov/resume.h"

namespace rbx {
namespace {

std::vector<Scenario> mc_grid(std::uint64_t master_seed) {
  const auto apply_n = [](Scenario& s, double n) {
    s.params(ProcessSetParams::symmetric(static_cast<std::size_t>(n), 1.0,
                                         1.0));
  };
  return SweepGrid(Scenario::symmetric(2, 1.0, 1.0).samples(300))
      .axis({2, 3, 4}, apply_n)
      .schemes({SchemeKind::kAsynchronous, SchemeKind::kSynchronized})
      .expand(master_seed);
}

CellFn backend_fn() {
  return [](const Scenario& s, std::size_t) {
    return monte_carlo_backend().evaluate(s);
  };
}

std::vector<ResultSet> results_of(const std::vector<CellOutcome>& outcomes) {
  std::vector<ResultSet> out;
  for (const CellOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok()) << outcome.error;
    out.push_back(outcome.result);
  }
  return out;
}

// Journals one shard's cells the way a --shard run does - a sweep begin
// carrying the full grid's fingerprint and cell total, each owned cell at
// its full-grid index, a sweep end - and reads the file back through the
// analysis pass.
recov::JournalAnalysis shard_journal(
    const std::string& name, const std::vector<Scenario>& cells,
    const std::vector<std::pair<std::size_t, ResultSet>>& owned) {
  const std::string path = ::testing::TempDir() + name;
  {
    recov::JournalWriter::Options options;
    options.truncate = true;
    recov::JournalWriter journal(path, options);
    journal.sweep_begin(0, grid_fingerprint(cells), cells.size(), name);
    for (const auto& [index, result] : owned) {
      journal.cell_committed(0, index, result);
    }
    journal.sweep_end(0, recov::SweepEndStats{});
  }
  recov::JournalAnalysis analysis = recov::analyze_journal(path);
  std::remove(path.c_str());
  return analysis;
}

TEST(ExecutorDeterminism, AllExecutionModesAreBitwiseIdentical) {
  const std::vector<Scenario> cells = mc_grid(17);
  const CellFn fn = backend_fn();

  const auto serial = results_of(lane_sets::threads(1, cells, fn));
  const auto threaded = results_of(lane_sets::threads(8, cells, fn));
  const auto forked = results_of(lane_sets::forks(4, 1, cells, fn));

  // Sharded: evaluate and journal each half independently, then merge the
  // two journals.
  std::vector<recov::JournalAnalysis> journals;
  for (std::size_t shard_index = 0; shard_index < 2; ++shard_index) {
    const ShardSpec spec{shard_index, 2};
    const std::vector<std::size_t> owned =
        shard_cell_indices(cells.size(), spec);
    std::vector<Scenario> owned_cells;
    for (std::size_t index : owned) {
      owned_cells.push_back(cells[index]);
    }
    const auto outcomes = lane_sets::threads(
        2, owned_cells, [&](const Scenario& cell, std::size_t local) {
          return fn(cell, owned[local]);
        });
    std::vector<std::pair<std::size_t, ResultSet>> committed;
    for (std::size_t k = 0; k < owned.size(); ++k) {
      EXPECT_TRUE(outcomes[k].ok());
      committed.emplace_back(owned[k], outcomes[k].result);
    }
    journals.push_back(shard_journal(
        "executor_shard" + std::to_string(shard_index) + ".rbxw", cells,
        committed));
  }
  const std::vector<ResultSet> merged =
      recov::plan_resume({&journals[0].sweeps[0], &journals[1].sweeps[0]},
                         cells.size(), grid_fingerprint(cells))
          .take_results();

  ASSERT_EQ(serial.size(), cells.size());
  ASSERT_EQ(threaded.size(), cells.size());
  ASSERT_EQ(forked.size(), cells.size());
  ASSERT_EQ(merged.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "threaded cell " << i;
    EXPECT_EQ(serial[i], forked[i]) << "forked cell " << i;
    EXPECT_EQ(serial[i], merged[i]) << "merged cell " << i;
  }
}

TEST(ExecutorDeterminism, ShardJournalSurvivesTheWire) {
  // What a shard actually hands to a merge goes through JournalWriter ->
  // file -> analysis pass; pin that path, in any source order, not just
  // the in-memory union.
  const std::vector<Scenario> cells = mc_grid(23);
  const CellFn fn = backend_fn();
  const auto reference = results_of(lane_sets::threads(1, cells, fn));

  std::vector<recov::JournalAnalysis> journals;
  for (std::size_t shard_index = 0; shard_index < 3; ++shard_index) {
    std::vector<std::pair<std::size_t, ResultSet>> owned;
    for (std::size_t index :
         shard_cell_indices(cells.size(), ShardSpec{shard_index, 3})) {
      owned.emplace_back(index, reference[index]);
    }
    journals.push_back(shard_journal(
        "executor_wire" + std::to_string(shard_index) + ".rbxw", cells,
        owned));
    ASSERT_EQ(journals.back().sweeps.size(), 1u);
    EXPECT_TRUE(journals.back().sweeps[0].ended);
  }
  const std::vector<ResultSet> merged =
      recov::plan_resume({&journals[2].sweeps[0], &journals[0].sweeps[0],
                          &journals[1].sweeps[0]},
                         cells.size(), grid_fingerprint(cells))
          .take_results();
  ASSERT_EQ(merged.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(merged[i], reference[i]) << "cell " << i;
  }
}

TEST(ThreadLaneTest, EmptyCellsAndThreadsExceedingCells) {
  const CellFn fn = [](const Scenario& s, std::size_t i) {
    ResultSet out("test", s.label());
    out.set("index", static_cast<double>(i));
    return out;
  };
  EXPECT_TRUE(lane_sets::threads(4, {}, fn).empty());

  // Far more threads than cells: must not spawn idle threads or lose
  // cells; outcomes stay in input order.
  const std::vector<Scenario> cells(3, Scenario::symmetric(2, 1.0, 1.0));
  const auto outcomes = lane_sets::threads(64, cells, fn);
  ASSERT_EQ(outcomes.size(), 3u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok());
    EXPECT_DOUBLE_EQ(outcomes[i].result.value("index"),
                     static_cast<double>(i));
  }
}

TEST(ThreadLaneTest, ThrowingCellBecomesPerCellError) {
  const std::vector<Scenario> cells(4, Scenario::symmetric(2, 1.0, 1.0));
  const auto outcomes = lane_sets::threads(
      2, cells, [](const Scenario& s, std::size_t i) {
        if (i == 2) {
          throw std::runtime_error("synthetic cell failure");
        }
        ResultSet out("test", s.label());
        out.set("ok", 1.0);
        return out;
      });
  ASSERT_EQ(outcomes.size(), 4u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 2) {
      EXPECT_FALSE(outcomes[i].ok());
      EXPECT_EQ(outcomes[i].error, "synthetic cell failure");
    } else {
      EXPECT_TRUE(outcomes[i].ok());
    }
  }
}

TEST(ForkLaneTest, ThrowingCellBecomesPerCellError) {
  const std::vector<Scenario> cells(4, Scenario::symmetric(2, 1.0, 1.0));
  const auto outcomes = lane_sets::forks(
      2, 1, cells, [](const Scenario& s, std::size_t i) {
        if (i == 1) {
          throw std::runtime_error("worker-side failure");
        }
        ResultSet out("test", s.label());
        out.set("index", static_cast<double>(i));
        return out;
      });
  ASSERT_EQ(outcomes.size(), 4u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 1) {
      EXPECT_FALSE(outcomes[i].ok());
      EXPECT_EQ(outcomes[i].error, "worker-side failure");
    } else {
      EXPECT_TRUE(outcomes[i].ok()) << outcomes[i].error;
      EXPECT_DOUBLE_EQ(outcomes[i].result.value("index"),
                       static_cast<double>(i));
    }
  }
}

TEST(ForkLaneTest, PoisonousCellFailsAfterKillingTwoWorkers) {
  // A cell that kills its worker process outright (not an exception).
  // The dispatch core respawns the crashed worker and re-runs the cell
  // once; when the rerun kills a worker too, the cell is declared
  // poisonous and becomes a per-cell error.  Every other cell still
  // evaluates - the sweep never hangs, never dies, and the pool never
  // shrinks.
  const std::vector<Scenario> cells(8, Scenario::symmetric(2, 1.0, 1.0));
  const auto outcomes = lane_sets::forks(
      2, 1, cells, [](const Scenario& s, std::size_t i) {
        if (i == 3) {
          ::_exit(42);  // simulated crash (e.g. a fatal RBX_CHECK)
        }
        ResultSet out("test", s.label());
        out.set("index", static_cast<double>(i));
        return out;
      });
  ASSERT_EQ(outcomes.size(), 8u);
  EXPECT_FALSE(outcomes[3].ok());
  EXPECT_NE(outcomes[3].error.find("two lost workers"), std::string::npos)
      << outcomes[3].error;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 3) {
      continue;
    }
    EXPECT_TRUE(outcomes[i].ok()) << "cell " << i << ": "
                                  << outcomes[i].error;
    EXPECT_DOUBLE_EQ(outcomes[i].result.value("index"),
                     static_cast<double>(i));
  }
}

TEST(ForkLaneTest, EmptyCellsAndWorkerClamp) {
  const CellFn fn = backend_fn();
  EXPECT_TRUE(lane_sets::forks(4, 2, {}, fn).empty());
  // One cell, many workers: clamps to one batch/one worker.
  const std::vector<Scenario> cells(1, Scenario::symmetric(2, 1.0, 1.0));
  const auto outcomes = lane_sets::forks(
      8, 0, cells, [](const Scenario& s, std::size_t) {
        ResultSet out("test", s.label());
        out.set("x", 1.0);
        return out;
      });
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].ok());
}

TEST(ApplyResultBatchTest, CommittedMaskIgnoresLateDuplicates) {
  // Work stealing can put one cell in flight on two workers; the first
  // answer must win and the loser's duplicate must be ignored without
  // tripping the strict batch checks.
  const auto entry = [](std::uint64_t index, double value) {
    ResultSet r("test", "cell");
    r.set("x", value);
    CellOutcome outcome;
    outcome.result = std::move(r);
    return ResultBatch::Entry{index, std::move(outcome)};
  };

  std::vector<CellOutcome> outcomes(3);
  std::vector<std::uint8_t> committed(3, 0);

  ResultBatch first;  // the thief answers cells 1 and 2
  first.entries.push_back(entry(1, 10.0));
  first.entries.push_back(entry(2, 20.0));
  EXPECT_EQ(apply_result_batch(first, {1, 2}, outcomes, &committed), 2u);
  EXPECT_EQ(outcomes[1].result.value("x"), 10.0);

  ResultBatch late;  // the straggler answers its whole batch {0, 1} later
  late.entries.push_back(entry(0, 5.0));
  late.entries.push_back(entry(1, 99.0));  // duplicate of a stolen cell
  EXPECT_EQ(apply_result_batch(late, {0, 1}, outcomes, &committed), 1u);
  EXPECT_EQ(outcomes[0].result.value("x"), 5.0);
  // The first answer stuck (in reality both are bitwise identical; the
  // sentinel value just proves the duplicate was dropped, not applied).
  EXPECT_EQ(outcomes[1].result.value("x"), 10.0);

  // The strict contract still holds under the mask: a short or foreign
  // answer is a protocol violation even when some cells are committed.
  ResultBatch shorting;
  shorting.entries.push_back(entry(1, 1.0));
  EXPECT_THROW(apply_result_batch(shorting, {1, 2}, outcomes, &committed),
               wire::Error);
  ResultBatch foreign;
  foreign.entries.push_back(entry(7, 1.0));
  EXPECT_THROW(apply_result_batch(foreign, {1}, outcomes, &committed),
               wire::Error);
}

TEST(ShardSpecTest, PartitionIsDisjointAndComplete) {
  const std::size_t total = 23;
  for (std::size_t count : {1u, 2u, 3u, 5u, 23u, 31u}) {
    std::vector<bool> seen(total, false);
    for (std::size_t index = 0; index < count; ++index) {
      for (std::size_t cell :
           shard_cell_indices(total, ShardSpec{index, count})) {
        ASSERT_LT(cell, total);
        EXPECT_FALSE(seen[cell]) << "cell " << cell << " owned twice";
        seen[cell] = true;
        EXPECT_TRUE((ShardSpec{index, count}.owns(cell)));
      }
    }
    for (std::size_t cell = 0; cell < total; ++cell) {
      EXPECT_TRUE(seen[cell]) << "cell " << cell << " unowned at k = "
                              << count;
    }
  }
}

TEST(ShardMergeTest, RejectsInconsistentPartials) {
  // A merge is plan_resume over the shards' recovered sweeps, and it must
  // end complete.
  ResultSet r("test", "cell");
  r.set("x", 1.0);
  const std::uint64_t fingerprint = 0x5eedu;
  // Shard `index` of `count` over `total` cells, as the analysis pass
  // recovers it from that shard's journal.
  const auto shard_state = [&](std::size_t index, std::size_t count,
                               std::size_t total) {
    recov::SweepState s;
    s.fingerprint = fingerprint;
    s.total_cells = total;
    for (std::size_t cell :
         shard_cell_indices(total, ShardSpec{index, count})) {
      s.committed.emplace_back(cell, r);
    }
    return s;
  };
  const auto merge = [&](const std::vector<const recov::SweepState*>& states) {
    return recov::plan_resume(states, 4, fingerprint).take_results();
  };
  const recov::SweepState s0 = shard_state(0, 2, 4);
  const recov::SweepState s1 = shard_state(1, 2, 4);

  // Missing shard.
  EXPECT_THROW(merge({&s0}), wire::Error);
  // Repeated source: shard 1's cells stay uncovered.
  EXPECT_THROW(merge({&s0, &s0}), wire::Error);
  // Disagreeing grid sizes.
  const recov::SweepState s1_of_6 = shard_state(1, 2, 6);
  EXPECT_THROW(merge({&s0, &s1_of_6}), wire::Error);
  // Missing cell inside an otherwise consistent split: the error names it.
  recov::SweepState incomplete = s1;
  incomplete.committed.pop_back();
  try {
    merge({&s0, &incomplete});
    FAIL() << "expected wire::Error";
  } catch (const wire::Error& e) {
    EXPECT_NE(std::string(e.what()).find("cell 3"), std::string::npos)
        << e.what();
  }
  // Journals from differently-parameterized runs (e.g. mismatched
  // --samples or --seed) carry different grid fingerprints and must not
  // merge into silently wrong tables.
  recov::SweepState foreign = s1;
  foreign.fingerprint = 0xdeadbeefULL;
  try {
    merge({&s0, &foreign});
    FAIL() << "expected wire::Error";
  } catch (const wire::Error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
  // The happy path for contrast, in either source order.
  const auto merged = merge({&s0, &s1});
  EXPECT_EQ(merged.size(), 4u);
  EXPECT_EQ(merge({&s1, &s0}), merged);
}

TEST(StreamedMergeTest, StreamsShardsInAnyOrderAndRejectsStragglers) {
  // Three --shard-serve streams of one 7-cell sweep whose records arrive
  // interleaved, folded in record by record through the analysis pass's
  // per-record step; the union then merges in any source order.
  ResultSet r("test", "cell");
  r.set("x", 2.0);
  const auto records_of = [&](std::size_t index, std::size_t count,
                              std::uint64_t fingerprint) {
    std::vector<wire::Frame> records;
    records.push_back(recov::sweep_begin_record(0, fingerprint, 7, "shard"));
    for (std::size_t cell : shard_cell_indices(7, ShardSpec{index, count})) {
      records.push_back(recov::cell_committed_record(0, cell, r));
    }
    records.push_back(recov::sweep_end_record(0, recov::SweepEndStats{}));
    return records;
  };
  const auto stream = [](const std::vector<wire::Frame>& records) {
    recov::JournalAnalysis analysis;
    for (const wire::Frame& record : records) {
      recov::analyze_record(analysis, record);
    }
    return analysis;
  };

  // Arrival order is whatever the network gives us, not shard order.
  const std::vector<std::vector<wire::Frame>> pending = {
      records_of(0, 3, 99), records_of(1, 3, 99), records_of(2, 3, 99)};
  std::vector<recov::JournalAnalysis> streams(3);
  for (std::size_t step = 0; step < pending[0].size(); ++step) {
    for (std::size_t k = 3; k-- > 0;) {
      if (step < pending[k].size()) {
        recov::analyze_record(streams[k], pending[k][step]);
      }
    }
  }
  for (const recov::JournalAnalysis& analysis : streams) {
    ASSERT_EQ(analysis.sweeps.size(), 1u);
    EXPECT_TRUE(analysis.sweeps[0].ended);
  }
  const recov::SweepState& s0 = streams[0].sweeps[0];
  const recov::SweepState& s1 = streams[1].sweeps[0];
  const recov::SweepState& s2 = streams[2].sweeps[0];
  const auto merge = [](const std::vector<const recov::SweepState*>& states) {
    return recov::plan_resume(states, 7, 99).take_results();
  };

  // Cells stay missing until every shard has arrived; a repeated source or
  // a shard of a different split leaves some uncovered.
  EXPECT_THROW(merge({&s2}), wire::Error);
  EXPECT_THROW(merge({&s2, &s0}), wire::Error);
  EXPECT_THROW(merge({&s2, &s0, &s0}), wire::Error);
  const recov::JournalAnalysis other_split = stream(records_of(1, 2, 99));
  EXPECT_THROW(merge({&s2, &s0, &other_split.sweeps[0]}), wire::Error);
  // A straggler from another grid is refused, and so is a stream whose
  // first record is not its sweep's begin.
  const recov::JournalAnalysis foreign = stream(records_of(1, 3, 100));
  EXPECT_THROW(merge({&s2, &s0, &foreign.sweeps[0]}), wire::Error);
  recov::JournalAnalysis headless;
  EXPECT_THROW(recov::analyze_record(headless, pending[1][1]), wire::Error);

  // Every source order merges to the same full vector.
  const std::vector<const recov::SweepState*> orders[] = {
      {&s0, &s1, &s2}, {&s0, &s2, &s1}, {&s1, &s0, &s2},
      {&s1, &s2, &s0}, {&s2, &s0, &s1}, {&s2, &s1, &s0}};
  for (const auto& order : orders) {
    const std::vector<ResultSet> merged = merge(order);
    ASSERT_EQ(merged.size(), 7u);
    for (const ResultSet& cell : merged) {
      EXPECT_EQ(cell, r);
    }
  }
  // A cell two sources commit keeps the first copy, as --resume does.
  ResultSet other("test", "cell");
  other.set("x", 3.0);
  recov::SweepState late = s1;
  late.committed.emplace_back(0, other);
  EXPECT_EQ(merge({&s0, &late, &s2})[0], r);
  EXPECT_EQ(merge({&late, &s0, &s2})[0], other);
}

TEST(GridFingerprintTest, SensitiveToEveryExperimentKnob) {
  const std::vector<Scenario> base = mc_grid(17);
  const std::uint64_t reference = grid_fingerprint(base);
  EXPECT_EQ(grid_fingerprint(mc_grid(17)), reference);  // deterministic
  // A different master seed, sample budget or grid size must all change
  // the fingerprint - that is what stops mismatched shards merging.
  EXPECT_NE(grid_fingerprint(mc_grid(18)), reference);
  std::vector<Scenario> fewer_samples = mc_grid(17);
  for (Scenario& cell : fewer_samples) {
    cell.samples(cell.samples() / 2);
  }
  EXPECT_NE(grid_fingerprint(fewer_samples), reference);
  std::vector<Scenario> shorter(base.begin(), base.end() - 1);
  EXPECT_NE(grid_fingerprint(shorter), reference);
}

}  // namespace
}  // namespace rbx
