// RT - runtime validation: the three schemes executed by real threads.
//
// The analytic models and the DES assume instantaneous protocol actions;
// this bench runs the thread-based runtime (src/runtime) under fault
// injection and reports the protocol-level counters: recoveries, rollback
// depth (in global event tickets), affected-set sizes, snapshot storage,
// orphan messages dropped and the verified invariants (restart-line
// consistency, bit-exact restores).
//
// The scheme x n grid is evaluated on the RuntimeBackend.  Each cell
// spawns its own process threads, so this bench defaults to one sweep
// worker (pass --threads=N to oversubscribe on purpose, or --workers=N
// for forked worker processes); counters vary run to run regardless
// (real scheduling).
#include <cstdio>
#include <vector>

#include "core/api.h"

namespace {

const char* scheme_name(rbx::SchemeKind scheme) {
  switch (scheme) {
    case rbx::SchemeKind::kAsynchronous:
      return "asynchronous";
    case rbx::SchemeKind::kSynchronized:
      return "synchronized";
    case rbx::SchemeKind::kPseudoRecoveryPoints:
      return "pseudo-RP";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rbx;
  const ExperimentOptions opts =
      ExperimentOptions::parse(argc, argv, /*samples=*/1500, /*nmax=*/4);
  print_banner("RT", "Thread runtime: protocol counters under faults");

  RuntimeWorkload workload;
  workload.steps = opts.samples;
  workload.message_probability = 0.4;
  workload.rp_probability = 0.06;
  workload.sync_period_steps = 60;

  std::vector<Scenario> cells;
  for (SchemeKind scheme :
       {SchemeKind::kAsynchronous, SchemeKind::kSynchronized,
        SchemeKind::kPseudoRecoveryPoints}) {
    for (std::size_t n = 3; n <= opts.nmax; ++n) {
      cells.push_back(Scenario::symmetric(n, 1.0, 1.0)
                          .scheme(scheme)
                          .seed(opts.seed + n)
                          .at_failure_probability(0.1)
                          .workload(workload));
    }
  }

  // Default of 1 sweep worker: each cell already runs n threads.
  SweepRunner runner(opts, /*default_threads=*/1);
  const auto sweep = runner.run(cells, runtime_backend());
  if (!sweep) {
    return 0;  // --shard: journal written
  }
  const std::vector<ResultSet>& results = *sweep;

  TextTable table({"scheme", "n", "recoveries", "rollback depth (mean)",
                   "affected (mean)", "orphans", "snapshots", "bytes",
                   "verified"});
  for (std::size_t k = 0; k < cells.size(); ++k) {
    const ResultSet& r = results[k];
    const bool ok = r.value("completed") != 0.0 &&
                    r.value("restore_verified") != 0.0 &&
                    r.value("line_consistency_verified") != 0.0 &&
                    r.value("fifo_violations") == 0.0;
    const auto as_int = [&r](const char* name) {
      return TextTable::fmt_int(static_cast<long long>(r.value(name)));
    };
    table.add_row(
        {scheme_name(cells[k].scheme()),
         TextTable::fmt_int(static_cast<long long>(cells[k].n())),
         as_int("recoveries"),
         r.metric("rollback_depth").count > 0
             ? TextTable::fmt(r.value("rollback_depth"), 1)
             : std::string("-"),
         r.metric("affected_processes").count > 0
             ? TextTable::fmt(r.value("affected_processes"), 2)
             : std::string("-"),
         as_int("orphan_messages_dropped"), as_int("snapshots_retained"),
         as_int("snapshot_bytes"), ok ? "yes" : "NO"});
  }
  std::printf("%s\n",
              table.render("Runtime schemes (5% AT failure injection)")
                  .c_str());

  // Protocol cost detail for the synchronized scheme.
  RuntimeWorkload sync_workload;
  sync_workload.steps = opts.samples;
  sync_workload.sync_period_steps = 50;
  const Scenario sync_scenario = Scenario::symmetric(3, 1.0, 1.0)
                                     .scheme(SchemeKind::kSynchronized)
                                     .seed(opts.seed)
                                     .workload(sync_workload);
  const ResultSet r = runtime_backend().evaluate(sync_scenario);
  const Metric& polls = r.metric("sync_wait_polls");
  std::printf("Synchronized detail: %zu lines, %zu aborts, mean commit wait "
              "%.1f polls (max %.0f), %zu RPs (= 3 per line)\n",
              static_cast<std::size_t>(r.value("sync_lines")),
              static_cast<std::size_t>(r.value("sync_aborts")),
              polls.count > 0 ? polls.value : 0.0,
              r.value("sync_wait_polls_max"),
              static_cast<std::size_t>(r.value("rps")));
  std::printf(
      "\nReading: asynchronous rollback depth varies wildly (isolated\n"
      "failures are cheap, propagated ones spike and can domino) and the\n"
      "store accumulates every RP ever taken; PRP rollbacks are bounded\n"
      "(roughly one pseudo recovery line for everyone) with storage purged\n"
      "to a constant; the synchronized scheme replaces rollback depth by\n"
      "commit waiting (polls) and minimal storage - the paper's three-way\n"
      "trade-off, observed on real threads with verified restores.\n");
  return 0;
}
