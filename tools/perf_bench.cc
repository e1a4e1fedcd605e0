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
// Flags (strict; anything malformed exits 2, like the bench flags):
//   --list              print kernel names and exit
//   --help, -h          print the usage synopsis and exit
//   --kernels=a,b,c     run only these kernels (default: all)
//   --reps=N            reps per interval (default: calibrate)
//   --intervals=N       timed intervals per kernel (default 12)
//   --interval-ms=F     calibration target per interval (default 20)
//   --threads=N         concurrent closure instances (default 1)
//   --warmup=N          untimed warmup intervals (default 1)
//   --label=STR         report label (default "dev")
//   --timestamp=STR     stored verbatim in the report
//   --out=FILE          output path (default BENCH_<label>.json)
//   --from-journal=FILE import sweep-end perf records (repeatable)
//   --input=FILE        load a report instead of running kernels
//   --compare=OLD.json  print deltas vs OLD; exit 1 past threshold
//   --threshold=PCT     regression threshold in percent (default 25)
//
// Exit codes: 0 ok, 1 regression past threshold, 2 usage error.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "perf/bench.h"
#include "perf/report.h"
#include "support/flags.h"

namespace flags = rbx::flags;
using rbx::perf::BenchOptions;
using rbx::perf::BenchReport;
using rbx::perf::CompareOutcome;
using rbx::perf::Kernel;
using rbx::perf::KernelRegistry;
using rbx::perf::KernelStats;

int main(int argc, char** argv) {
  const std::string prog = argc > 0 ? argv[0] : "perf_bench";
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

  flags::Table table;
  // --help answers at its place in argv: a bad flag before it still
  // refuses, anything after it is never read.
  const flags::Setter help = [&](const std::string&) -> std::string {
    std::fputs(flags::usage(prog, table).c_str(), stdout);
    std::exit(0);
  };
  const flags::Setter kernel_list =
      flags::list("empty kernel name in list", flags::append(&kernel_names));
  table.flags = {
      {"--list", "", flags::on(&list)},
      {"--help", "", help},
      {"-h", "", help},
      {"--kernels", "a,b,c",
       [&](const std::string& value) {
         kernel_names.clear();  // the last --kernels wins
         return kernel_list(value);
       }},
      {"--reps", "N", flags::count(&options.reps)},
      {"--intervals", "N",
       flags::count(&options.intervals, 1, UINT64_MAX,
                    "expected a positive interval count")},
      {"--interval-ms", "F", flags::positive(&options.interval_ms)},
      {"--threads", "N",
       flags::count(&options.threads, 1, UINT64_MAX,
                    "expected a positive thread count")},
      {"--warmup", "N", flags::count(&options.warmup_intervals)},
      {"--label", "STR", flags::text(&label)},
      {"--timestamp", "STR", flags::text(&timestamp)},
      {"--out", "FILE", flags::text(&out_path)},
      {"--from-journal", "FILE", flags::append(&journals)},
      {"--input", "FILE", flags::text(&input_path)},
      {"--compare", "OLD.json", flags::text(&compare_path)},
      {"--threshold", "PCT", flags::positive(&threshold_pct)},
  };
  flags::parse(argc, argv, table);

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
            flags::refuse(prog, "--kernels",
                          "unknown kernel '" + name +
                              "'; --list shows the registry",
                          table);
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
