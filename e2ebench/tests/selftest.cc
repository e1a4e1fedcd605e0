// Tests of the benchmark's own code: the order statistics, the digest
// comparison behind the correctness gate, the span self-time arithmetic,
// seeded generation, and a tiny-size smoke of every workload in both the
// end-to-end and the traced run.
//
//   cmake --build .bench_build/e2ebench --target e2e_selftest
//   .bench_build/e2ebench/e2e_selftest        (or: python3 e2ebench/run.py --selftest)
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                 \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                           \
      ++failures;                                                    \
    }                                                                \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

void test_percentiles() {
  EXPECT(near(e2e::median({3.0, 1.0, 2.0}), 2.0));
  EXPECT(near(e2e::median({4.0, 1.0, 3.0, 2.0}), 2.5));
  EXPECT(near(e2e::percentile({10.0}, 90.0), 10.0));
  EXPECT(near(e2e::percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0), 1.0));
  EXPECT(near(e2e::percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 100.0), 5.0));
  EXPECT(near(e2e::percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 90.0), 4.6));
  bool threw = false;
  try {
    (void)e2e::median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  EXPECT(threw);
}

void test_quartiles() {
  // Reference values from Python: statistics.quantiles(v, n=4).
  const e2e::Quartiles a = e2e::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT(near(a.q1, 2.75) && near(a.q2, 5.5) && near(a.q3, 8.25));
  const e2e::Quartiles b = e2e::quartiles({5.0, 1.0, 3.0});
  EXPECT(near(b.q1, 1.0) && near(b.q2, 3.0) && near(b.q3, 5.0));
  // Two samples extrapolate past the ends.
  const e2e::Quartiles c = e2e::quartiles({1.0, 2.0});
  EXPECT(near(c.q1, 0.75) && near(c.q2, 1.5) && near(c.q3, 2.25));
  const e2e::Quartiles d = e2e::quartiles({7.0});
  EXPECT(near(d.q1, 7.0) && near(d.q3, 7.0));
}

void test_digest_compare() {
  rbx::ResultSet r("analytic", "cell");
  r.set("x", 1.0);
  const std::vector<std::uint64_t> reference = {e2e::result_digest(r),
                                                e2e::result_digest(r)};
  std::vector<rbx::CellOutcome> outcomes(2);
  outcomes[0].result = r;
  outcomes[1].result = r;
  EXPECT(e2e::count_failed_cells(reference, outcomes) == 0);
  // One ulp in one metric is a mismatch.
  outcomes[1].result.set("x", std::nextafter(1.0, 2.0));
  EXPECT(e2e::count_failed_cells(reference, outcomes) == 1);
  outcomes[1].result = r;
  outcomes[1].error = "worker lost";
  EXPECT(e2e::count_failed_cells(reference, outcomes) == 1);
  EXPECT(e2e::digest_all(outcomes) ==
         (std::vector<std::uint64_t>{reference[0], 0}));
  outcomes.pop_back();
  EXPECT(e2e::count_failed_cells(reference, outcomes) == 2);
}

void test_self_time() {
  e2e::Tracer tracer(true);
  tracer.add("core.sweep", 0, 100, 0, 1, 1);
  // Two concurrent children covering [10, 60] together, one outside.
  tracer.add("core.evaluate", 10, 50, 1, 1, 2);
  tracer.add("core.evaluate", 30, 60, 1, 1, 3);
  tracer.add("wire.cellbatch.seal", 200, 210, 0, 1, 1);
  tracer.add("core.sweep", 0, 50, 0, 2, 1);  // another pass
  const auto self = tracer.self_seconds(1);
  EXPECT(near(self.at("core.sweep"), 50e-9));
  EXPECT(near(self.at("core.evaluate"), 70e-9));
  EXPECT(near(self.at("wire.cellbatch.seal"), 10e-9));
  e2e::Tracer off(false);
  EXPECT(off.open("x", 0, 0) == 0);
  EXPECT(off.spans().empty());
}

void test_seeded_generation() {
  for (const std::string& name : e2e::workload_names()) {
    const e2e::Workload a = e2e::make_workload(name, 7, 1.0);
    const e2e::Workload b = e2e::make_workload(name, 7, 1.0);
    const e2e::Workload c = e2e::make_workload(name, 8, 1.0);
    EXPECT(a.cells_per_pass() == b.cells_per_pass());
    bool same = true, differs = false;
    for (std::size_t s = 0; s < a.sweeps.size(); ++s) {
      for (std::size_t i = 0; i < a.sweeps[s].size(); ++i) {
        rbx::wire::Writer wa, wb, wc;
        a.sweeps[s][i].encode(wa);
        b.sweeps[s][i].encode(wb);
        c.sweeps[s][i].encode(wc);
        same = same && wa.data() == wb.data();
        differs = differs || wa.data() != wc.data();
      }
    }
    EXPECT(same);
    EXPECT(differs);
  }
  EXPECT(e2e::make_workload("fig5_grid", 1, 1.0).cells_per_pass() == 24);
  EXPECT(e2e::make_workload("analytic_fanout", 1, 1.0).cells_per_pass() ==
         20000);
}

const e2e::MetricValue* find_metric(const e2e::RunReport& r,
                                    const std::string& name) {
  for (const e2e::MetricValue& m : r.metrics) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

void test_workload_smoke(const std::string& dir) {
  const std::vector<std::string> end_to_end = {
      "setup_s", "pass_s", "cells_per_s", "speedup_vs_1t", "peak_rss_mb"};
  const std::vector<std::string> per_layer = {
      "core.dispatch.worker_busy_frac", "core.mc.stream_speedup",
      "wire.bytes_per_cell", "recov.analyze_ms", "trace.overhead_frac",
      "self.core.evaluate_s"};
  for (const std::string& name : e2e::workload_names()) {
    for (const bool trace : {false, true}) {
      e2e::RunConfig cfg;
      cfg.workload = name;
      cfg.seed = 3;
      cfg.seconds = 0.0;
      cfg.trace = trace;
      cfg.scale = 0.01;
      cfg.work_dir = dir;
      const e2e::RunReport r = e2e::run_benchmark(cfg);
      EXPECT(r.correct);
      EXPECT(r.failed == 0);
      EXPECT(r.attempted > 0);
      for (const std::string& m : trace ? per_layer : end_to_end) {
        const e2e::MetricValue* v = find_metric(r, m);
        EXPECT(v != nullptr && std::isfinite(v->value));
      }
      const std::string json = e2e::report_json(r);
      EXPECT(json.rfind("{\"correct\": true", 0) == 0);
    }
  }
}

}  // namespace

int main() {
  test_percentiles();
  test_quartiles();
  test_digest_compare();
  test_self_time();
  test_seeded_generation();
  char dir[] = "e2e_selftest_XXXXXX";
  if (::mkdtemp(dir) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  test_workload_smoke(dir);
  std::filesystem::remove_all(dir);
  if (failures != 0) {
    std::fprintf(stderr, "e2e_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("e2e_selftest: all checks passed\n");
  return 0;
}
