// BENCH_*.json: the repo's machine-readable perf trajectory.
//
// Every harness run serializes a BenchReport to `BENCH_<label>.json` at
// the repo root.  The schema ("rbx-bench-v1"):
//
//   {
//     "schema": "rbx-bench-v1",
//     "label": "...",            // git rev or a human label (passed in)
//     "timestamp": "...",        // passed in by the caller; "" if not
//     "build_flags": "...",      // compiler + build type of the binary
//     "threads": 1,
//     "kernels": [ { "name", "layer", "ns_median", "ns_p10", "ns_p90",
//                    "reps", "intervals", "threads" }, ... ],
//     "sweeps":  [ { "source", "sweep", "committed_cells",
//                    "evaluated_cells", "wall_ms", "cells_per_sec" }, ... ]
//   }
//
// `kernels` comes from the micro harness (perf/bench.h); `sweeps` imports
// the kRecordSweepEnd perf counters of real sweep journals
// (--from-journal=LOG), so macro sweep throughput rides the same
// trajectory as micro ns/op.  Each imported sweep also appears as a
// synthetic kernel "journal:<source>:sweep<k>" whose ns/op is the
// per-evaluated-cell wall time - which is exactly what makes
// compare_reports() track sweep regressions with no extra machinery.
//
// compare_reports() joins two reports by kernel name and flags any kernel
// whose median slowed beyond the threshold; the harness exits non-zero on
// a regression, which is what CI's bench-smoke job drives.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perf/bench.h"

namespace rbx {
namespace perf {

// One imported sweep-end record (recov/journal.h SweepEndStats + origin).
struct SweepRecord {
  std::string source;  // journal basename the record came from
  std::uint64_t sweep = 0;
  std::uint64_t committed_cells = 0;
  std::uint64_t evaluated_cells = 0;
  std::uint64_t wall_ms = 0;
  double cells_per_sec = 0.0;
};

struct BenchReport {
  std::string label;
  std::string timestamp;
  std::string build_flags;
  std::size_t threads = 1;
  std::vector<KernelStats> kernels;
  std::vector<SweepRecord> sweeps;

  std::string to_json() const;
  // Throws json::Error on malformed or wrong-schema input, a kernel time
  // (ns_median, ns_p10, ns_p90) that is not finite and > 0, or a count
  // (reps, intervals, threads, the sweep records' counts) that is not an
  // integer in [0, 2^53].
  static BenchReport from_json(const std::string& text);

  void save(const std::string& path) const;
  static BenchReport load(const std::string& path);
};

// Compiler and build-type description baked into the report.
std::string build_flags_description();

// Imports every ended sweep of a journal into report->sweeps and the
// synthetic "journal:..." kernels.  `source` names the journal in the
// records (defaults to the path's basename when empty).  Throws
// wire::Error when the journal cannot be read.
void import_journal(BenchReport* report, const std::string& journal_path,
                    const std::string& source = "");

struct CompareRow {
  std::string name;
  double old_ns = 0.0;
  double new_ns = 0.0;
  double ratio = 0.0;  // new / old; < 1 is a speedup
  bool regression = false;
};

struct CompareOutcome {
  std::vector<CompareRow> rows;        // kernels present in both reports
  std::vector<std::string> only_old;   // dropped kernels (informational)
  std::vector<std::string> only_new;   // added kernels (informational)
  bool regressed = false;

  // Human-readable delta table, worst ratio first.
  std::string render() const;
};

// Joins by kernel name; a row regresses when new/old exceeds
// 1 + threshold_pct/100.
CompareOutcome compare_reports(const BenchReport& old_report,
                               const BenchReport& new_report,
                               double threshold_pct);

}  // namespace perf
}  // namespace rbx
