// BenchReport: the BENCH_*.json schema round-trips, journal sweep-end
// records import as synthetic kernels, and compare_reports flags exactly
// the kernels that slowed past the threshold.
#include "perf/report.h"

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/result.h"
#include "perf/json.h"
#include "recov/journal.h"

namespace rbx {
namespace perf {
namespace {

KernelStats stats(const std::string& name, double ns) {
  KernelStats s;
  s.name = name;
  s.layer = "test";
  s.ns_median = ns;
  s.ns_p10 = ns * 0.9;
  s.ns_p90 = ns * 1.1;
  s.reps = 100;
  s.intervals = 5;
  s.threads = 1;
  return s;
}

TEST(BenchReportTest, JsonRoundTrip) {
  BenchReport r;
  r.label = "pr7";
  r.timestamp = "2026-08-08T00:00:00Z";
  r.build_flags = build_flags_description();
  r.threads = 2;
  r.kernels.push_back(stats("sparse_spmv_left", 6225.8437));
  r.kernels.push_back(stats("wire_encode_scenario", 208.5));
  SweepRecord sweep;
  sweep.source = "fig5.rbxj";
  sweep.sweep = 1;
  sweep.committed_cells = 96;
  sweep.evaluated_cells = 96;
  sweep.wall_ms = 1200;
  sweep.cells_per_sec = 80.0;
  r.sweeps.push_back(sweep);

  const BenchReport back = BenchReport::from_json(r.to_json());
  EXPECT_EQ(back.label, r.label);
  EXPECT_EQ(back.timestamp, r.timestamp);
  EXPECT_EQ(back.build_flags, r.build_flags);
  EXPECT_EQ(back.threads, r.threads);
  ASSERT_EQ(back.kernels.size(), 2u);
  EXPECT_EQ(back.kernels[0].name, "sparse_spmv_left");
  EXPECT_EQ(back.kernels[0].ns_median, 6225.8437);  // bitwise via %.17g
  EXPECT_EQ(back.kernels[0].reps, 100u);
  ASSERT_EQ(back.sweeps.size(), 1u);
  EXPECT_EQ(back.sweeps[0].source, "fig5.rbxj");
  EXPECT_EQ(back.sweeps[0].wall_ms, 1200u);
  EXPECT_EQ(back.sweeps[0].cells_per_sec, 80.0);
}

TEST(BenchReportTest, WrongSchemaRejected) {
  EXPECT_THROW(BenchReport::from_json("{\"schema\": \"other\"}"),
               json::Error);
  EXPECT_THROW(BenchReport::from_json("[]"), json::Error);
  EXPECT_THROW(BenchReport::from_json("not json"), json::Error);
}

// `text` with the value of its first "key": field replaced by `value`.
std::string with_field(std::string text, const std::string& key,
                       const std::string& value) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = text.find(tag);
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t begin = at + tag.size();
  const std::size_t end = text.find_first_of(",\n", begin);
  return text.replace(begin, end - begin, value);
}

std::string one_kernel_report() {
  BenchReport r;
  r.label = "base";
  r.kernels.push_back(stats("k", 100.0));
  SweepRecord sweep;
  sweep.source = "fig5.rbxj";
  sweep.committed_cells = 4;
  sweep.evaluated_cells = 4;
  sweep.wall_ms = 20;
  sweep.cells_per_sec = 200.0;
  r.sweeps.push_back(sweep);
  return r.to_json();
}

TEST(BenchReportTest, TimesThatWouldDisableTheGateAreRefused) {
  // compare_reports divides by the old median; a baseline of 0, -1 or
  // NaN used to load and let a 100x slowdown through the gate.
  const std::string base = one_kernel_report();
  ASSERT_NO_THROW(BenchReport::from_json(base));
  for (const char* key : {"ns_median", "ns_p10", "ns_p90"}) {
    for (const char* value : {"0", "-0", "-1", "NaN", "null", "1e400"}) {
      EXPECT_THROW(BenchReport::from_json(with_field(base, key, value)),
                   json::Error)
          << key << " = " << value;
    }
  }
}

TEST(BenchReportTest, CountsMustBeIntegersUpTo2To53) {
  const std::string base = one_kernel_report();
  for (const char* key : {"reps", "intervals", "committed_cells",
                          "evaluated_cells", "wall_ms", "sweep"}) {
    for (const char* value : {"-1", "1.5", "9007199254740994"}) {
      EXPECT_THROW(BenchReport::from_json(with_field(base, key, value)),
                   json::Error)
          << key << " = " << value;
    }
  }
  // "threads" comes first at the report level, then in the kernel.
  EXPECT_THROW(BenchReport::from_json(with_field(base, "threads", "-1")),
               json::Error);
  const std::string kernel_threads =
      base.substr(0, base.find("\"kernels\"")) +
      with_field(base.substr(base.find("\"kernels\"")), "threads", "-1");
  EXPECT_THROW(BenchReport::from_json(kernel_threads), json::Error);
  // Both ends of the range load.
  EXPECT_EQ(BenchReport::from_json(with_field(base, "reps", "0"))
                .kernels[0]
                .reps,
            0u);
  EXPECT_EQ(
      BenchReport::from_json(with_field(base, "reps", "9007199254740992"))
          .kernels[0]
          .reps,
      std::uint64_t{1} << 53);
}

TEST(BenchReportTest, SaveLoad) {
  const std::string path = testing::TempDir() + "bench_report_test.json";
  BenchReport r;
  r.label = "disk";
  r.kernels.push_back(stats("k", 10.0));
  r.save(path);
  const BenchReport back = BenchReport::load(path);
  EXPECT_EQ(back.label, "disk");
  ASSERT_EQ(back.kernels.size(), 1u);
  EXPECT_EQ(back.kernels[0].ns_median, 10.0);
  std::remove(path.c_str());
}

TEST(BenchReportTest, ImportJournalSweepEnds) {
  const std::string path = testing::TempDir() + "bench_import_test.rbxj";
  std::remove(path.c_str());
  {
    recov::JournalWriter::Options jopts;
    jopts.truncate = true;
    recov::JournalWriter w(path, jopts);
    w.sweep_begin(0, 0xabc, 4, "test sweep");
    ResultSet cell("analytic", "cell");
    cell.set("m", 1.0);
    for (std::uint64_t i = 0; i < 4; ++i) {
      w.cell_committed(0, i, cell);
    }
    recov::SweepEndStats stats;
    stats.committed_cells = 4;
    stats.evaluated_cells = 4;
    stats.wall_ms = 20;
    stats.cells_per_sec = 200.0;
    w.sweep_end(0, stats);
    // A second sweep that never ends must not import (its counters were
    // lost with the crash).
    w.sweep_begin(1, 0xdef, 8, "unfinished");
  }

  BenchReport r;
  import_journal(&r, path, "trial");
  ASSERT_EQ(r.sweeps.size(), 1u);
  EXPECT_EQ(r.sweeps[0].source, "trial");
  EXPECT_EQ(r.sweeps[0].sweep, 0u);
  EXPECT_EQ(r.sweeps[0].evaluated_cells, 4u);
  EXPECT_EQ(r.sweeps[0].wall_ms, 20u);
  // The synthetic kernel rides the compare machinery: per-evaluated-cell
  // wall time in ns.
  ASSERT_EQ(r.kernels.size(), 1u);
  EXPECT_EQ(r.kernels[0].name, "journal:trial:sweep0");
  EXPECT_EQ(r.kernels[0].layer, "sweep");
  EXPECT_EQ(r.kernels[0].ns_median, 20.0 * 1e6 / 4.0);
  std::remove(path.c_str());
}

TEST(BenchReportTest, ImportedSubMillisecondSweepTimesAsOneMillisecond) {
  // A journal records wall_ms = 0 for a sweep under 1 ms; the synthetic
  // kernel must still carry a median the report can load back.
  const std::string path = testing::TempDir() + "bench_import_fast.rbxj";
  std::remove(path.c_str());
  {
    recov::JournalWriter::Options jopts;
    jopts.truncate = true;
    recov::JournalWriter w(path, jopts);
    w.sweep_begin(0, 0xabc, 4, "fast sweep");
    ResultSet cell("analytic", "cell");
    cell.set("m", 1.0);
    for (std::uint64_t i = 0; i < 4; ++i) {
      w.cell_committed(0, i, cell);
    }
    recov::SweepEndStats stats;
    stats.committed_cells = 4;
    stats.evaluated_cells = 4;
    stats.wall_ms = 0;
    stats.cells_per_sec = 4000.0;
    w.sweep_end(0, stats);
  }
  BenchReport r;
  import_journal(&r, path, "fast");
  ASSERT_EQ(r.kernels.size(), 1u);
  EXPECT_EQ(r.sweeps[0].wall_ms, 0u);  // the record stays as journaled
  EXPECT_EQ(r.kernels[0].ns_median, 1e6 / 4.0);
  const BenchReport back = BenchReport::from_json(r.to_json());
  EXPECT_EQ(back.kernels[0].ns_median, 1e6 / 4.0);
  std::remove(path.c_str());
}

TEST(CompareReportsTest, FlagsOnlyPastThreshold) {
  BenchReport old_report;
  old_report.kernels.push_back(stats("steady", 100.0));
  old_report.kernels.push_back(stats("slower", 100.0));
  old_report.kernels.push_back(stats("faster", 100.0));
  old_report.kernels.push_back(stats("dropped", 100.0));
  BenchReport new_report;
  new_report.kernels.push_back(stats("steady", 104.0));
  new_report.kernels.push_back(stats("slower", 140.0));
  new_report.kernels.push_back(stats("faster", 40.0));
  new_report.kernels.push_back(stats("added", 1.0));

  const CompareOutcome outcome =
      compare_reports(old_report, new_report, 25.0);
  EXPECT_TRUE(outcome.regressed);
  ASSERT_EQ(outcome.rows.size(), 3u);
  // Worst ratio first.
  EXPECT_EQ(outcome.rows[0].name, "slower");
  EXPECT_TRUE(outcome.rows[0].regression);
  EXPECT_NEAR(outcome.rows[0].ratio, 1.4, 1e-12);
  EXPECT_EQ(outcome.rows[1].name, "steady");
  EXPECT_FALSE(outcome.rows[1].regression);
  EXPECT_EQ(outcome.rows[2].name, "faster");
  EXPECT_FALSE(outcome.rows[2].regression);
  ASSERT_EQ(outcome.only_old.size(), 1u);
  EXPECT_EQ(outcome.only_old[0], "dropped");
  ASSERT_EQ(outcome.only_new.size(), 1u);
  EXPECT_EQ(outcome.only_new[0], "added");
  EXPECT_NE(outcome.render().find("REGRESSION"), std::string::npos);

  // Within threshold: no regression flag, exit stays clean.
  const CompareOutcome ok = compare_reports(old_report, old_report, 25.0);
  EXPECT_FALSE(ok.regressed);
}

}  // namespace
}  // namespace perf
}  // namespace rbx
