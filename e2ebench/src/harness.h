// The benchmark's closed loop: one client issues a pass, waits for it to
// finish, then issues the next.
//
// An end-to-end run (trace = false) times passes on a lane of nproc
// workers, alternating with the same pass on a width-1 lane, and reports
// setup_s, pass_s, cells_per_s, speedup_vs_1t and peak_rss_mb.  A traced
// run alternates untraced and traced passes on the wide lane, replays each
// traced pass's cells and results through the wire codecs and the sweep
// journal, and reports the per-layer metrics.  Every pass of either run is
// compared cell by cell, byte for byte, with the width-1 reference pass.
// README.md in this directory maps every metric to its layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;       // how long the timed loop runs
  bool trace = false;          // per-layer run instead of end-to-end
  double scale = 1.0;          // workload size (see make_workload)
  std::string work_dir = ".";  // journals and the trace file go here
};

struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::size_t attempted = 0;  // cells compared with the reference
  std::size_t failed = 0;     // of those, errors or byte mismatches
  std::vector<MetricValue> metrics;
  std::vector<std::string> lines;  // human-readable summary
};

// Throws std::exception for infrastructure failures (no lanes, journal
// I/O); cell failures are counted in the report instead.
RunReport run_benchmark(const RunConfig& config);

// The report as the one-line JSON object the benchmark prints last.
std::string report_json(const RunReport& report);

}  // namespace e2e
