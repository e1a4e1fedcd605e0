// perf_bench: the repo's performance trajectory harness.
//
// Runs the registered micro kernels (src/perf/kernels.cc) and writes a
// machine-readable BENCH_<label>.json report; optionally imports the
// sweep-end perf records of real sweep journals (--from-journal) and
// checks the fresh report against an older one (--compare), exiting
// non-zero past the regression threshold.
//
//   perf_bench --label=$(git rev-parse --short HEAD)
//              --timestamp="$(date -u +%FT%TZ)"
//   perf_bench --compare=BENCH_main.json --threshold=25
//   perf_bench --input=BENCH_new.json --compare=BENCH_old.json
//
// Exit codes: 0 ok, 1 regression past threshold, 2 usage error.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "perf/bench.h"
#include "perf/report.h"

namespace {

using rbx::perf::BenchOptions;
using rbx::perf::BenchReport;
using rbx::perf::CompareOutcome;
using rbx::perf::Kernel;
using rbx::perf::KernelRegistry;
using rbx::perf::KernelStats;

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: perf_bench [options]\n"
      "  --list                 print kernel names and exit\n"
      "  --kernels=a,b,c        run only these kernels (default: all)\n"
      "  --reps=N               reps per interval (default: calibrate)\n"
      "  --intervals=N          timed intervals per kernel (default 12)\n"
      "  --interval-ms=F        calibration target per interval (default "
      "20)\n"
      "  --threads=N            concurrent closure instances (default 1)\n"
      "  --warmup=N             untimed warmup intervals (default 1)\n"
      "  --label=STR            report label (default \"dev\")\n"
      "  --timestamp=STR        stored verbatim in the report\n"
      "  --out=FILE             output path (default BENCH_<label>.json)\n"
      "  --from-journal=FILE    import sweep-end perf records (repeatable)\n"
      "  --input=FILE           load a report instead of running kernels\n"
      "  --compare=OLD.json     print deltas vs OLD; exit 1 past threshold\n"
      "  --threshold=PCT        regression threshold in percent (default "
      "25)\n");
}

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr, "perf_bench: %s\n", what.c_str());
  usage(stderr);
  std::exit(2);
}

bool consume(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  *value = arg.substr(prefix.size());
  return true;
}

// The benches' and daemons' strict rule: no sign, no whitespace, no
// suffix, no wrap-around.
std::uint64_t parse_count(const std::string& value, const char* flag) {
  std::uint64_t v = 0;
  if (!rbx::parse_strict_u64(value.c_str(), &v)) {
    usage_error(std::string(flag) + " wants a non-negative integer, got '" +
                value + "'");
  }
  return v;
}

// Finite and > 0: a NaN threshold compares false against every delta and
// would switch the regression gate off.
double parse_positive(const std::string& value, const char* flag) {
  try {
    std::size_t end = 0;
    const double v = std::stod(value, &end);
    if (end != value.size() || !std::isfinite(v) || v <= 0.0) {
      throw std::invalid_argument(value);
    }
    return v;
  } catch (const std::exception&) {
    usage_error(std::string(flag) + " wants a positive number, got '" +
                value + "'");
  }
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) {
      out.push_back(csv.substr(start, end - start));
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options;
  bool list = false;
  std::string label = "dev";
  std::string timestamp;
  std::string out_path;
  std::string input_path;
  std::string compare_path;
  double threshold_pct = 25.0;
  std::vector<std::string> kernel_names;
  std::vector<std::string> journals;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--list") {
      list = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (consume(arg, "--kernels", &value)) {
      kernel_names = split_csv(value);
      if (kernel_names.empty()) {
        usage_error("--kernels wants a comma-separated kernel list");
      }
    } else if (consume(arg, "--reps", &value)) {
      options.reps = parse_count(value, "--reps");
    } else if (consume(arg, "--intervals", &value)) {
      options.intervals =
          static_cast<std::size_t>(parse_count(value, "--intervals"));
      if (options.intervals == 0) {
        usage_error("--intervals must be at least 1");
      }
    } else if (consume(arg, "--interval-ms", &value)) {
      options.interval_ms = parse_positive(value, "--interval-ms");
    } else if (consume(arg, "--threads", &value)) {
      options.threads =
          static_cast<std::size_t>(parse_count(value, "--threads"));
      if (options.threads == 0) {
        usage_error("--threads must be at least 1");
      }
    } else if (consume(arg, "--warmup", &value)) {
      options.warmup_intervals =
          static_cast<std::size_t>(parse_count(value, "--warmup"));
    } else if (consume(arg, "--label", &value)) {
      label = value;
    } else if (consume(arg, "--timestamp", &value)) {
      timestamp = value;
    } else if (consume(arg, "--out", &value)) {
      out_path = value;
    } else if (consume(arg, "--from-journal", &value)) {
      journals.push_back(value);
    } else if (consume(arg, "--input", &value)) {
      input_path = value;
    } else if (consume(arg, "--compare", &value)) {
      compare_path = value;
    } else if (consume(arg, "--threshold", &value)) {
      threshold_pct = parse_positive(value, "--threshold");
    } else {
      usage_error("unknown flag '" + arg + "'");
    }
  }

  KernelRegistry registry;
  rbx::perf::register_default_kernels(registry);

  if (list) {
    for (const Kernel& k : registry.kernels()) {
      std::printf("%-26s %s\n", k.name.c_str(), k.layer.c_str());
    }
    return 0;
  }

  try {
    BenchReport report;
    if (!input_path.empty()) {
      report = BenchReport::load(input_path);
      std::printf("loaded %zu kernels from %s\n", report.kernels.size(),
                  input_path.c_str());
    } else {
      std::vector<const Kernel*> selected;
      if (kernel_names.empty()) {
        for (const Kernel& k : registry.kernels()) {
          selected.push_back(&k);
        }
      } else {
        for (const std::string& name : kernel_names) {
          const Kernel* k = registry.find(name);
          if (k == nullptr) {
            usage_error("unknown kernel '" + name +
                        "' (--list shows the registry)");
          }
          selected.push_back(k);
        }
      }

      report.label = label;
      report.timestamp = timestamp;
      report.build_flags = rbx::perf::build_flags_description();
      report.threads = options.threads;
      for (const Kernel* k : selected) {
        const KernelStats stats = rbx::perf::run_kernel(*k, options);
        std::printf("%-26s %10.1f ns/op  [p10 %.1f, p90 %.1f]  x%llu\n",
                    stats.name.c_str(), stats.ns_median, stats.ns_p10,
                    stats.ns_p90,
                    static_cast<unsigned long long>(stats.reps));
        std::fflush(stdout);
        report.kernels.push_back(stats);
      }
    }

    for (const std::string& journal : journals) {
      rbx::perf::import_journal(&report, journal);
    }

    if (input_path.empty()) {
      const std::string path =
          out_path.empty() ? "BENCH_" + label + ".json" : out_path;
      report.save(path);
      std::printf("wrote %s (%zu kernels, %zu sweeps)\n", path.c_str(),
                  report.kernels.size(), report.sweeps.size());
    }

    if (!compare_path.empty()) {
      const BenchReport old_report = BenchReport::load(compare_path);
      const CompareOutcome outcome =
          rbx::perf::compare_reports(old_report, report, threshold_pct);
      std::printf("\ncompare vs %s (threshold +%.0f%%):\n%s",
                  compare_path.c_str(), threshold_pct,
                  outcome.render().c_str());
      if (outcome.regressed) {
        std::fprintf(stderr, "perf_bench: regression past threshold\n");
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_bench: %s\n", e.what());
    return 2;
  }
  return 0;
}
