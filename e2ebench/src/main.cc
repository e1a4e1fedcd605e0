// e2e_bench: runs one workload of the end-to-end benchmark and prints
// its summary, then the result as one JSON line (the last line of
// stdout).  Usually started through run.py, which builds it first:
//
//   e2e_bench --workload=fig5_grid --seed=1 --seconds=10 --trace=0
//              [--commit=SHA] [--work-dir=DIR]
//
// Exit status: 0 when every cell matched the width-1 reference, 1 when a
// cell failed or the run could not complete, 2 on a usage error or a
// build that is not Release.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "core/experiment.h"
#include "core/lane.h"
#include "harness.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\n"
               "usage: e2e_bench --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 [--commit=SHA] [--work-dir=DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunConfig cfg;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return usage(("malformed argument '" + arg + "'").c_str());
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      cfg.workload = value;
    } else if (key == "commit") {
      commit = value;
    } else if (key == "work-dir") {
      cfg.work_dir = value;
    } else if (key == "trace") {
      if (value != "0" && value != "1") {
        return usage("--trace takes 0 or 1");
      }
      cfg.trace = value == "1";
    } else if (key == "seed") {
      if (!rbx::parse_strict_u64(value.c_str(), &cfg.seed)) {
        return usage(("bad value in '" + arg + "'").c_str());
      }
    } else if (key == "seconds") {
      char* end = nullptr;
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(cfg.seconds >= 0.0)) {
        return usage(("bad value in '" + arg + "'").c_str());
      }
    } else {
      return usage(("unknown flag '" + arg + "'").c_str());
    }
  }
  bool known = false;
  for (const std::string& name : e2e::workload_names()) {
    known = known || name == cfg.workload;
  }
  if (!known) {
    return usage(("unknown workload '" + cfg.workload + "'").c_str());
  }
#ifndef NDEBUG
  return usage("refusing to measure a build with assertions enabled");
#endif
  if (std::strcmp(E2E_BUILD_TYPE, "Release") != 0) {
    return usage("refusing to measure a non-Release build (" E2E_BUILD_TYPE
                 ")");
  }

  std::printf("e2ebench: workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("stamp: nproc=%zu compiler=\"%s\" build=%s commit=%s\n",
              rbx::default_parallelism(), E2E_CXX_ID, E2E_BUILD_TYPE,
              commit.c_str());
  std::printf("note: thread-lane passes share the process-wide analytic "
              "solution cache, so passes after the first reuse solved rate "
              "points (a few ms of fig5); fork-lane workers start each pass "
              "from the coordinator's cold cache\n");
  std::fflush(stdout);
  try {
    const e2e::RunReport report = e2e::run_benchmark(cfg);
    for (const std::string& line : report.lines) {
      std::printf("%s\n", line.c_str());
    }
    for (const e2e::MetricValue& m : report.metrics) {
      std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("%s\n", e2e::report_json(report).c_str());
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
