// MICRO - microbenchmarks of the runtime substrate: mailbox throughput,
// checkpoint save/restore cost, recovery-block execution, and the exact
// recovery-line fixpoint on synthetic histories.
//
// Ported off google-benchmark onto the repo's own Scenario/EvalBackend
// sweep harness: each process count n is one sweep cell, the kernels are
// timed inside a custom EvalBackend, and the numbers come back as
// ResultSet metrics (value = ns/op, count = repetitions timed).  --nmax
// picks the largest n, --samples scales the repetition budget.
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "bench_main.h"
#include "runtime/channel.h"
#include "runtime/checkpoint.h"
#include "runtime/recovery_block.h"
#include "runtime/serializable.h"
#include "support/rng.h"

namespace {

using namespace rbx;

// A synthetic interaction/recovery-point history of n processes, the input
// of the fixpoint and rollback kernels (same construction the old
// google-benchmark bodies used).
History synthetic_history(std::size_t n, std::uint64_t seed, double* t_end) {
  Rng rng(seed);
  History h(n);
  double t = 0.0;
  for (int e = 0; e < 2000; ++e) {
    t += rng.exponential(1.0);
    if (rng.bernoulli(0.5)) {
      h.add_recovery_point(rng.uniform_index(n), t);
    } else {
      const ProcessId a = rng.uniform_index(n);
      ProcessId b = rng.uniform_index(n - 1);
      if (b >= a) {
        ++b;
      }
      h.add_interaction(a, b, t);
    }
  }
  *t_end = t;
  return h;
}

class RuntimeMicroBackend final : public EvalBackend {
 public:
  std::string name() const override { return "micro-runtime"; }

  bool supports(const Scenario& scenario) const override {
    return scenario.n() >= 2;
  }

  ResultSet evaluate(const Scenario& scenario) const override {
    const std::size_t n = scenario.n();
    ResultSet out(name(), scenario.label());
    const auto set_ns = [&out](const char* metric, std::size_t reps,
                               const std::function<double()>& fn) {
      out.set(metric, bench::time_ns(reps, fn), 0.0, reps);
    };
    const std::size_t budget = scenario.samples();

    {
      Mailbox box;
      Message m;
      m.type = MessageType::kApp;
      m.seq = 1;
      set_ns("mailbox_push_pop_ns", budget, [&box, &m] {
        box.push(m);
        return box.try_pop() ? 1.0 : 0.0;
      });
    }
    {
      const std::size_t count = 1024;
      set_ns("mailbox_filter_ns", std::max<std::size_t>(1, budget / 512),
             [count] {
               Mailbox box;
               for (std::size_t i = 0; i < count; ++i) {
                 Message m;
                 m.type = MessageType::kApp;
                 m.send_ticket = i;
                 box.push(m);
               }
               return static_cast<double>(box.filter(
                   [count](const Message& m) {
                     return m.send_ticket > count / 2;
                   }));
             });
    }
    {
      WorkState ws;
      for (int i = 0; i < 100; ++i) {
        ws.step(1);
      }
      set_ns("workstate_serialize_ns", budget,
             [&ws] { return static_cast<double>(ws.serialize().size()); });
      std::uint64_t ticket = 0;
      set_ns("checkpoint_save_purge_ns",
             std::max<std::size_t>(1, budget / 64), [&ws, &ticket] {
               CheckpointStore store(0);
               for (int i = 0; i < 16; ++i) {
                 Snapshot s;
                 s.kind = i % 4 == 0 ? SnapshotKind::kRecoveryPoint
                                     : SnapshotKind::kPseudoRecoveryPoint;
                 s.rp_owner = static_cast<ProcessId>(i % 4);
                 s.rp_seq = static_cast<std::uint64_t>(i);
                 s.ticket = ++ticket;
                 s.state = ws.serialize();
                 store.save(std::move(s));
               }
               return static_cast<double>(store.purge());
             });
      RecoveryBlock rb([](const Serializable&) { return true; });
      rb.add_alternative(
          [](Serializable& s) { static_cast<WorkState&>(s).step(7); });
      set_ns("recovery_block_execute_ns", budget,
             [&rb, &ws] { return rb.execute(ws) ? 1.0 : 0.0; });
    }
    {
      double t_end = 0.0;
      const History h = synthetic_history(n, scenario.seed(), &t_end);
      RecoveryLineFinder finder(h);
      set_ns("exact_line_fixpoint_ns", std::max<std::size_t>(1, budget / 64),
             [&finder] {
               return finder.latest_line().max_time();
             });
      RollbackAnalyzer analyzer(h);
      set_ns("rollback_analysis_ns", std::max<std::size_t>(1, budget / 64),
             [&analyzer, t_end] {
               return analyzer.analyze_failure(0, t_end + 1.0)
                   .rollback_distance;
             });
    }
    return out;
  }
};

std::string fmt_cell(const ResultSet& res, const char* metric) {
  if (!res.has(metric)) {
    return "-";
  }
  return TextTable::fmt(res.value(metric) / 1000.0, 2);  // ns -> us
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rbx;
  const ExperimentOptions opts =
      ExperimentOptions::parse(argc, argv, /*samples=*/8192, /*nmax=*/6);
  print_banner("MICRO-RUNTIME",
               "Microbenchmarks: runtime substrate kernels (us/op)");

  std::vector<Scenario> cells;
  for (std::size_t n = 2; n <= opts.nmax; ++n) {
    cells.push_back(Scenario::symmetric(n, 1.0, 1.0)
                        .seed(opts.seed + n)
                        .samples(opts.samples));
  }

  const RuntimeMicroBackend backend;
  SweepRunner runner(opts, /*default_threads=*/1);
  const auto sweep = runner.run(cells, backend);
  if (!sweep) {
    return 0;  // --shard: journal written
  }

  TextTable table({"n", "mbox push/pop", "mbox filter", "serialize",
                   "ckpt save+purge", "rb execute", "line fixpoint",
                   "rollback"});
  for (std::size_t k = 0; k < cells.size(); ++k) {
    const ResultSet& res = (*sweep)[k];
    table.add_row({TextTable::fmt_int(static_cast<long long>(cells[k].n())),
                   fmt_cell(res, "mailbox_push_pop_ns"),
                   fmt_cell(res, "mailbox_filter_ns"),
                   fmt_cell(res, "workstate_serialize_ns"),
                   fmt_cell(res, "checkpoint_save_purge_ns"),
                   fmt_cell(res, "recovery_block_execute_ns"),
                   fmt_cell(res, "exact_line_fixpoint_ns"),
                   fmt_cell(res, "rollback_analysis_ns")});
  }
  std::printf("%s\n",
              table.render("Runtime substrate kernels (us/op)").c_str());
  return 0;
}
