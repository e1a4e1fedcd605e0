// The default kernel set: one named kernel per hot loop the evaluation
// stack actually runs, spanning every layer.
//
//   numerics  sparse builder freeze, CSR SpMV (both directions), dense LU
//             factor+solve, RK4 transient integration
//   markov    uniformization transient, first-passage moment solves, and
//             the n=7 asynchronous-RB chain: full and lumped builds, the
//             interval density and the expected-visits solve
//   core      one full analytic cell evaluation (async and sync schemes)
//             and one hybrid PRP+sync cell through the registered
//             "hybrid" backend - the units every sweep, shard and
//             cluster run multiplies - and streamed Monte-Carlo cells
//             (async, fig5's straggler, a long-history PRP cell) at
//             thread budgets 4 and 1, the straggler also at 2
//   rng       the event pipeline's delay transform over one block:
//             exponential_block against Rng::exponential per draw
//   des       the three simulators' inner event loops, plus the exact
//             pairwise recovery-line observer behind ABL-LINE
//   trace     the exact recovery-line fixpoint and the rollback analysis
//             over a recorded 2000-event history of 6 processes
//   runtime   the recovery-block substrate: mailbox push/pop and filter,
//             state serialization, checkpoint save+purge, and one
//             recovery-block execution
//   wire      encode/decode of Scenario and ResultSet, seal/parse of a
//             plan-carrying CellBatch frame - the bytes every worker
//             round-trip moves
//   recov     the journal's CRC-32 over one sealed cell record of an
//             analytic cell, and one cell commit through JournalWriter
//             into a temp file - the sweep journal's per-cell cost
//   fleet     the registry conversation: Join/Grant codecs, the
//             fair-share resolve over a populated member table, and the
//             HMAC lease signature every keyed handshake computes
//
// Setup (matrix assembly, scenario construction) happens in make() and is
// excluded from timing; closures reuse their captured state across reps
// exactly like the production call sites do (e.g. one simulator instance
// across replications, one scratch vector across SpMV calls).
#include <stdlib.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/analytic_backend.h"
#include "core/backend.h"
#include "core/eval_context.h"
#include "core/executor.h"
#include "core/result.h"
#include "core/scenario.h"
#include "des/async_sim.h"
#include "des/prp_sim.h"
#include "des/sync_sim.h"
#include "fleet/auth.h"
#include "fleet/proto.h"
#include "fleet/registry.h"
#include "markov/ctmc.h"
#include "model/async_model.h"
#include "model/async_symmetric.h"
#include "numerics/lu.h"
#include "numerics/matrix.h"
#include "numerics/sparse.h"
#include "perf/bench.h"
#include "recov/journal.h"
#include "runtime/channel.h"
#include "runtime/checkpoint.h"
#include "runtime/recovery_block.h"
#include "runtime/serializable.h"
#include "support/rng.h"
#include "support/wire.h"
#include "trace/history.h"
#include "trace/recovery_line.h"
#include "trace/rollback.h"

namespace rbx {
namespace perf {

namespace {

// Deterministic sparse test pattern: a banded "generator-shaped" matrix
// (short and long couplings plus a diagonal), the same shape class as the
// asynchronous-RB chain the production solvers run on.
struct TripletPattern {
  std::size_t n = 0;
  std::vector<std::size_t> rows;
  std::vector<std::size_t> cols;
  std::vector<double> values;
};

TripletPattern banded_pattern(std::size_t n) {
  TripletPattern p;
  p.n = n;
  const std::ptrdiff_t offsets[] = {-49, -7, -1, 1, 7, 49};
  for (std::size_t r = 0; r < n; ++r) {
    double out_rate = 0.0;
    for (std::ptrdiff_t d : offsets) {
      const std::ptrdiff_t c = static_cast<std::ptrdiff_t>(r) + d;
      if (c < 0 || c >= static_cast<std::ptrdiff_t>(n)) {
        continue;
      }
      const double v = 0.25 + static_cast<double>((r * 7 + d + 49) % 13) / 13.0;
      p.rows.push_back(r);
      p.cols.push_back(static_cast<std::size_t>(c));
      p.values.push_back(v);
      out_rate += v;
    }
    p.rows.push_back(r);
    p.cols.push_back(r);
    p.values.push_back(-out_rate);
  }
  return p;
}

SparseMatrix build_banded(std::size_t n) {
  const TripletPattern p = banded_pattern(n);
  SparseMatrixBuilder b(n, n);
  for (std::size_t i = 0; i < p.rows.size(); ++i) {
    b.add(p.rows[i], p.cols[i], p.values[i]);
  }
  return b.build();
}

// A deterministic CTMC of the same shape (off-diagonal rates only; the
// engine derives the diagonal).
Ctmc banded_chain(std::size_t n) {
  Ctmc chain(n);
  const std::ptrdiff_t offsets[] = {-49, -7, -1, 1, 7, 49};
  for (std::size_t r = 0; r < n; ++r) {
    for (std::ptrdiff_t d : offsets) {
      const std::ptrdiff_t c = static_cast<std::ptrdiff_t>(r) + d;
      if (c < 0 || c >= static_cast<std::ptrdiff_t>(n) ||
          c == static_cast<std::ptrdiff_t>(r)) {
        continue;
      }
      chain.add_rate(r, static_cast<std::size_t>(c),
                     0.25 + static_cast<double>((r * 7 + d + 49) % 13) / 13.0);
    }
  }
  chain.finalize();
  return chain;
}

std::vector<double> uniform_distribution(std::size_t n) {
  return std::vector<double>(n, 1.0 / static_cast<double>(n));
}

// Diagonally dominant dense system (always non-singular).
Matrix dense_system(std::size_t n) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t d = i > j ? i - j : j - i;
      a(i, j) = 1.0 / static_cast<double>(1 + d);
    }
    a(i, i) += static_cast<double>(n);
  }
  return a;
}

Scenario wire_scenario() {
  return Scenario::symmetric(6, 1.0, 0.5)
      .scheme(SchemeKind::kAsynchronous)
      .samples(20000)
      .seed(0x5eed);
}

ResultSet wire_result_set() {
  ResultSet r("bench", "wire kernel payload");
  for (std::size_t i = 0; i < 40; ++i) {
    r.set(indexed_metric("metric_", i), 1.0 / static_cast<double>(i + 1),
          1e-3, 1000 + i);
  }
  return r;
}

// A realistic fleet population: spread hosts, mixed weights.
fleet::JoinInfo fleet_member(std::size_t i) {
  fleet::JoinInfo info;
  info.host = "10.0.0." + std::to_string(i % 250 + 1);
  info.port = static_cast<std::uint16_t>(9000 + i);
  info.weight = static_cast<std::uint32_t>(i % 3 + 1);
  return info;
}

fleet::GrantResponse fleet_grant(std::size_t members) {
  fleet::GrantResponse g;
  g.live_members = static_cast<std::uint32_t>(members);
  for (std::size_t i = 0; i < members; ++i) {
    const fleet::JoinInfo info = fleet_member(i);
    fleet::GrantedMember m;
    m.host = info.host;
    m.port = info.port;
    m.lease_token = i + 1;
    m.lease_sig = fleet::lease_sig("bench-key", i + 1);
    g.members.push_back(m);
  }
  return g;
}

std::shared_ptr<fleet::MemberTable> fleet_table(std::size_t members) {
  fleet::MemberTableOptions opt;
  opt.auth_key = "bench-key";
  auto table = std::make_shared<fleet::MemberTable>(opt);
  for (std::size_t i = 0; i < members; ++i) {
    table->join(fleet_member(i), 0);
  }
  return table;
}

CellBatch wire_cell_batch() {
  CellBatch batch;
  const Scenario base = wire_scenario();
  const EvalPlan plan = plan_for(analytic_backend());
  for (std::size_t i = 0; i < 32; ++i) {
    batch.cells.push_back(
        BatchCell{i, Scenario(base).seed(1000 + i), true, plan});
  }
  return batch;
}

// A synthetic interaction/recovery-point history of n processes: 2000
// events at unit rate, each a recovery point of one process or an
// interaction between two distinct ones with equal odds.
History synthetic_history(std::size_t n) {
  Rng rng(0x5eed);
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
  return h;
}

// mc_streams' large PRP cell (n=3, mu=lambda=1) at 5,000 failures.
Scenario prp_cell() {
  return Scenario::symmetric(3, 1.0, 1.0)
      .scheme(SchemeKind::kPseudoRecoveryPoints)
      .t_record(1e-4)
      .error_rate(0.25)
      .seed(0x5eed)
      .samples(5000)
      .streams(4);
}

// One analytic cell's result: its sealed commit record is 826 B, near
// the ~750 B mean of analytic_fanout's cells.
ResultSet journal_cell_result() {
  return analytic_backend().evaluate(Scenario::symmetric(2, 1.0, 0.5));
}

// A new empty file in the temp directory; its path.
std::string temp_file() {
  std::string path =
      (std::filesystem::temp_directory_path() / "rbx_append_XXXXXX").string();
  const int fd = ::mkstemp(path.data());
  if (fd >= 0) {
    ::close(fd);
  }
  return path;
}

// The append kernel's journal: a temp file, cut back to empty every 1024
// appends so it stays small, and removed with the kernel.
struct TempJournal {
  std::string path = temp_file();
  recov::JournalWriter writer{path, {.truncate = true}};
  std::uint64_t cell = 0;

  ~TempJournal() { std::remove(path.c_str()); }

  void append(const ResultSet& result) {
    writer.cell_committed(0, cell, result);
    if (++cell % 1024 == 0 && ::truncate(path.c_str(), 0) != 0) {
      std::perror("recov_journal_append: truncate");
    }
  }
};

// The runtime's synthetic workload state after 100 work steps.
WorkState stepped_work_state() {
  WorkState ws;
  for (int i = 0; i < 100; ++i) {
    ws.step(1);
  }
  return ws;
}

}  // namespace

void register_default_kernels(KernelRegistry& registry) {
  // --- numerics ---------------------------------------------------------
  registry.add({"sparse_build", "numerics", [] {
                  const TripletPattern p = banded_pattern(512);
                  return [p]() -> double {
                    SparseMatrixBuilder b(p.n, p.n);
                    for (std::size_t i = 0; i < p.rows.size(); ++i) {
                      b.add(p.rows[i], p.cols[i], p.values[i]);
                    }
                    const SparseMatrix m = b.build();
                    return static_cast<double>(m.nonzeros());
                  };
                }});

  registry.add({"sparse_spmv_left", "numerics", [] {
                  const SparseMatrix m = build_banded(1024);
                  const std::vector<double> x = uniform_distribution(1024);
                  std::vector<double> y;
                  return [m, x, y]() mutable -> double {
                    m.left_multiply(x, y);
                    return y[0];
                  };
                }});

  registry.add({"sparse_spmv_right", "numerics", [] {
                  const SparseMatrix m = build_banded(1024);
                  const std::vector<double> x = uniform_distribution(1024);
                  std::vector<double> y;
                  return [m, x, y]() mutable -> double {
                    m.right_multiply(x, y);
                    return y[0];
                  };
                }});

  registry.add({"lu_factor_solve", "numerics", [] {
                  const Matrix a = dense_system(96);
                  const std::vector<double> b(96, 1.0);
                  return [a, b]() -> double {
                    const LuDecomposition lu(a);
                    const std::vector<double> x = lu.solve(b);
                    return x[0];
                  };
                }});

  registry.add({"ode_rk4_transient", "numerics", [] {
                  const Ctmc chain = banded_chain(128);
                  const std::vector<double> pi0 = uniform_distribution(128);
                  return [chain, pi0]() -> double {
                    const std::vector<double> pi =
                        chain.transient_rk4(pi0, 0.5, 64);
                    return pi[0];
                  };
                }});

  // --- markov -----------------------------------------------------------
  registry.add({"markov_full_chain_n7", "markov", [] {
                  // The 2^7 + 1 state asynchronous-RB chain: build plus
                  // the absorption solve, the dominant cost of every
                  // full-chain analytic cell the structure and ablation
                  // sweeps evaluate at their size cap.
                  const ProcessSetParams p =
                      ProcessSetParams::symmetric(7, 1.0, 0.5);
                  return [p]() -> double {
                    AsyncRbModel model(p);
                    return model.mean_interval();
                  };
                }});

  registry.add({"ctmc_uniformization", "markov", [] {
                  const Ctmc chain = banded_chain(256);
                  const std::vector<double> pi0 = uniform_distribution(256);
                  return [chain, pi0]() -> double {
                    const std::vector<double> pi = chain.transient(pi0, 1.0);
                    return pi[0];
                  };
                }});

  registry.add({"ctmc_first_passage", "markov", [] {
                  const Ctmc chain = banded_chain(96);
                  const std::vector<double> alpha = uniform_distribution(96);
                  return [chain, alpha]() -> double {
                    const FirstPassage fp(chain, {0});
                    return fp.mean_hitting_time(alpha);
                  };
                }});

  registry.add({"markov_lumped_chain_n7", "markov", [] {
                  // The symmetric lumping of the n=7 chain (n + 1 states)
                  // and its E[X] solve; rho is held at 0.05 so E[X] stays
                  // well-conditioned.
                  const double lambda = 2.0 * 0.05 / (7.0 - 1.0);
                  return [lambda]() -> double {
                    SymmetricAsyncModel model(7, 1.0, lambda);
                    return model.mean_interval();
                  };
                }});

  registry.add({"markov_interval_pdf_n7", "markov", [] {
                  // The phase-type density f_X(t) of the n=7 chain (the
                  // evaluation behind Figure 6), stepping t across (0, 2]
                  // so consecutive reps ask for different points.
                  auto model = std::make_shared<AsyncRbModel>(
                      ProcessSetParams::symmetric(7, 1.0, 1.0));
                  return [model, t = 0.1]() mutable -> double {
                    const double v = model->interval_pdf(t);
                    t = t < 2.0 ? t + 0.1 : 0.1;
                    return v;
                  };
                }});

  registry.add({"markov_expected_visits_n7", "markov", [] {
                  // E[L_0], the expected recovery points of process 0 per
                  // interval (Table 1), by the split-chain visits solve.
                  auto model = std::make_shared<AsyncRbModel>(
                      ProcessSetParams::symmetric(7, 1.0, 1.0));
                  return [model]() -> double {
                    return model->expected_rp_count_split_chain(0);
                  };
                }});

  // --- core (one full analytic cell) ------------------------------------
  registry.add({"analytic_async_cell", "core", [] {
                  const Scenario s = Scenario::symmetric(6, 1.0, 0.5)
                                         .scheme(SchemeKind::kAsynchronous);
                  return [s]() -> double {
                    const ResultSet r = analytic_backend().evaluate(s);
                    return r.value("mean_interval_x");
                  };
                }});

  registry.add({"analytic_sync_cell", "core", [] {
                  const Scenario s = Scenario::symmetric(8, 1.0, 0.0)
                                         .scheme(SchemeKind::kSynchronized);
                  return [s]() -> double {
                    const ResultSet r = analytic_backend().evaluate(s);
                    return r.value("sync_mean_max_wait");
                  };
                }});

  registry.add({"analytic_cache_hits_t8", "core",
                [] {
                  // Pure cache-hit replay under contention: 64 distinct
                  // solved models (varying lambda), warmed here so the
                  // timed loop never solves.  All 8 threads hammer the
                  // shared backend singleton; before the cache was
                  // striped across shards one global mutex serialized
                  // every replay.  Distinct keys spread across shards,
                  // so flat ns/op vs a 1-thread run is the win.
                  auto cells = std::make_shared<std::vector<Scenario>>();
                  for (std::size_t i = 0; i < 64; ++i) {
                    cells->push_back(
                        Scenario::symmetric(5, 1.0,
                                            0.1 + 0.05 * static_cast<double>(i))
                            .scheme(SchemeKind::kAsynchronous));
                    analytic_backend().evaluate(cells->back());
                  }
                  return [cells, i = std::size_t{0}]() mutable -> double {
                    const ResultSet r =
                        analytic_backend().evaluate((*cells)[i]);
                    i = (i + 1) % cells->size();
                    return r.value("mean_interval_x");
                  };
                },
                /*threads=*/8});

  registry.add({"hybrid_cell", "core", [] {
                  // One ABL-HYBRID cell at a small failure budget: three
                  // analytic models plus a PRP simulation through the
                  // registered "hybrid" backend, exactly the unit a
                  // hybrid-scheme sweep ships per grid point.
                  const Scenario s =
                      Scenario::symmetric(3, 0.4, 3.0)
                          .scheme(SchemeKind::kPseudoRecoveryPoints)
                          .t_record(1e-4)
                          .error_rate(0.25)
                          .prp_sync_period(2.0)
                          .seed(0x5eed)
                          .samples(8);
                  const EvalPlan plan{{EvalStep{"hybrid", ""}}};
                  return [s, plan]() -> double {
                    const ResultSet r = evaluate_plan(plan, s);
                    return r.value("hybrid_distance");
                  };
                }});

  // --- rng --------------------------------------------------------------
  // Stage 2's delays for one 1,024-event block of the asynchronous event
  // pipeline (des/async_sim.h), at fig5's straggler's total rate: fresh
  // uniform() draws through exponential_block, against the same number
  // of Rng::exponential calls - bitwise the same delays.  Pinned to one
  // closure: the pair's ratio is a per-core speedup.
  registry.add({"rng_exponential_block", "rng",
                [] {
                  auto rng = std::make_shared<Rng>(0x5eed);
                  auto delay = std::make_shared<std::vector<double>>(1024);
                  return [rng, delay]() -> double {
                    for (double& d : *delay) {
                      d = rng->uniform();
                    }
                    exponential_block(delay->data(), delay->size(), 18.0);
                    return delay->back();
                  };
                },
                /*threads=*/1});

  registry.add({"rng_exponential", "rng",
                [] {
                  auto rng = std::make_shared<Rng>(0x5eed);
                  auto delay = std::make_shared<std::vector<double>>(1024);
                  return [rng, delay]() -> double {
                    for (double& d : *delay) {
                      d = rng->exponential(18.0);
                    }
                    return delay->back();
                  };
                },
                /*threads=*/1});

  // --- des --------------------------------------------------------------
  registry.add({"des_async_lines", "des", [] {
                  auto sim = std::make_shared<AsyncRbSimulator>(
                      ProcessSetParams::symmetric(4, 1.0, 0.5), 0x5eed);
                  return [sim]() -> double {
                    const AsyncSimResult r = sim->run_lines(32, 0.25);
                    return r.interval.mean();
                  };
                }});

  registry.add({"des_async_lines_n6", "des", [] {
                  // fig5's Monte-Carlo straggler, n=6 at rho=2: 21 event
                  // categories, the widest draw a paper bench makes, and
                  // ~3,700 events per line (~740,000 per op).
                  auto sim = std::make_shared<AsyncRbSimulator>(
                      ProcessSetParams::symmetric(6, 1.0, 0.8), 0x5eed);
                  return [sim]() -> double {
                    const AsyncSimResult r = sim->run_lines(200);
                    return r.interval.mean();
                  };
                }});

  registry.add({"des_sync_lines", "des", [] {
                  SyncSimParams params;
                  params.mu = {1.0, 1.2, 0.8, 1.1};
                  params.strategy = SyncStrategy::kElapsedTime;
                  params.elapsed_threshold = 1.0;
                  params.error_rate = 0.5;
                  auto sim =
                      std::make_shared<SyncRbSimulator>(params, 0x5eed);
                  return [sim]() -> double {
                    const SyncSimResult r = sim->run(64);
                    return r.loss_rate;
                  };
                }});

  registry.add({"des_exact_lines", "des", [] {
                  // The exact pairwise recovery-line observer (ABL-LINE's
                  // inner loop): per-event interaction tracking plus the
                  // any-advance / full-refresh line tests.
                  auto sim = std::make_shared<AsyncRbSimulator>(
                      ProcessSetParams::symmetric(4, 1.0, 1.0), 0x5eed);
                  return [sim]() -> double {
                    const ExactLineResult r = sim->run_exact(16);
                    return r.any_advance.mean();
                  };
                }});

  registry.add({"des_prp_failures", "des", [] {
                  PrpSimParams sim_params;
                  sim_params.t_record = 1e-3;
                  sim_params.error_rate = 0.5;
                  auto sim = std::make_shared<PrpSimulator>(
                      ProcessSetParams::symmetric(4, 1.0, 0.5), sim_params,
                      0x5eed);
                  return [sim]() -> double {
                    const PrpSimResult r = sim->run(8);
                    return r.prp_distance.mean();
                  };
                }});

  // Contention variants: the same three DES bodies at a pinned 4 threads.
  // The simulators share no state, so flat ns/op against the 1-thread
  // kernels is the pass condition - growth is scheduler or allocator
  // contention, exactly what CI's --compare gate should catch.
  registry.add({"des_async_lines_t4", "des",
                [] {
                  auto sim = std::make_shared<AsyncRbSimulator>(
                      ProcessSetParams::symmetric(4, 1.0, 0.5), 0x5eed);
                  return [sim]() -> double {
                    const AsyncSimResult r = sim->run_lines(32, 0.25);
                    return r.interval.mean();
                  };
                },
                /*threads=*/4});

  registry.add({"des_sync_lines_t4", "des",
                [] {
                  SyncSimParams params;
                  params.mu = {1.0, 1.2, 0.8, 1.1};
                  params.strategy = SyncStrategy::kElapsedTime;
                  params.elapsed_threshold = 1.0;
                  params.error_rate = 0.5;
                  auto sim =
                      std::make_shared<SyncRbSimulator>(params, 0x5eed);
                  return [sim]() -> double {
                    const SyncSimResult r = sim->run(64);
                    return r.loss_rate;
                  };
                },
                /*threads=*/4});

  registry.add({"des_prp_failures_t4", "des",
                [] {
                  PrpSimParams sim_params;
                  sim_params.t_record = 1e-3;
                  sim_params.error_rate = 0.5;
                  auto sim = std::make_shared<PrpSimulator>(
                      ProcessSetParams::symmetric(4, 1.0, 0.5), sim_params,
                      0x5eed);
                  return [sim]() -> double {
                    const PrpSimResult r = sim->run(8);
                    return r.prp_distance.mean();
                  };
                },
                /*threads=*/4});

  // --- sample-parallel Monte-Carlo cells --------------------------------
  // One representative async MC cell under the stream axis.  The _seq
  // twin runs the identical scenario on a thread budget of 1; the pair is
  // the honest intra-cell speedup measurement (mc_async_cell /
  // mc_async_cell_seq), and their ResultSets are bitwise identical by the
  // stream determinism contract.
  registry.add({"mc_async_cell", "core", [] {
                  const Scenario s = Scenario::symmetric(4, 1.0, 0.5)
                                         .scheme(SchemeKind::kAsynchronous)
                                         .error_rate(0.25)
                                         .seed(0x5eed)
                                         .samples(512)
                                         .streams(4);
                  return [s]() -> double {
                    EvalContextScope scope(EvalContext{4});
                    const ResultSet r = monte_carlo_backend().evaluate(s);
                    return r.value("mean_interval_x");
                  };
                },
                // Pinned to one closure: the cell spawns its own 4-thread
                // stream pool, so harness-level concurrency would only
                // oversubscribe and blur the _seq comparison.
                /*threads=*/1});

  registry.add({"mc_async_cell_seq", "core", [] {
                  const Scenario s = Scenario::symmetric(4, 1.0, 0.5)
                                         .scheme(SchemeKind::kAsynchronous)
                                         .error_rate(0.25)
                                         .seed(0x5eed)
                                         .samples(512)
                                         .streams(4);
                  return [s]() -> double {
                    EvalContextScope scope(EvalContext{1});
                    const ResultSet r = monte_carlo_backend().evaluate(s);
                    return r.value("mean_interval_x");
                  };
                },
                /*threads=*/1});

  // fig5's Monte-Carlo straggler as a cell (n=6 at rho=2, streams=1,
  // 200 lines): the pair is the event pipeline's speedup, three helpers
  // from a thread budget of 4 vs the one-thread block loop, bitwise the
  // same ResultSet.  Pinned to one closure like mc_async_cell.
  registry.add({"mc_straggler_cell", "core", [] {
                  const Scenario s = Scenario::symmetric(6, 1.0, 0.8)
                                         .seed(0x5eed)
                                         .samples(200);
                  return [s]() -> double {
                    EvalContextScope scope(EvalContext{4});
                    const ResultSet r = monte_carlo_backend().evaluate(s);
                    return r.value("mean_interval_x");
                  };
                },
                /*threads=*/1});

  // The same cell at a thread budget of 2: one helper, the pipeline's
  // state while the rest of a thread lane's workers still hold cells.
  registry.add({"mc_straggler_cell_b2", "core", [] {
                  const Scenario s = Scenario::symmetric(6, 1.0, 0.8)
                                         .seed(0x5eed)
                                         .samples(200);
                  return [s]() -> double {
                    EvalContextScope scope(EvalContext{2});
                    const ResultSet r = monte_carlo_backend().evaluate(s);
                    return r.value("mean_interval_x");
                  };
                },
                /*threads=*/1});

  registry.add({"mc_straggler_cell_seq", "core", [] {
                  const Scenario s = Scenario::symmetric(6, 1.0, 0.8)
                                         .seed(0x5eed)
                                         .samples(200);
                  return [s]() -> double {
                    EvalContextScope scope(EvalContext{1});
                    const ResultSet r = monte_carlo_backend().evaluate(s);
                    return r.value("mean_interval_x");
                  };
                },
                /*threads=*/1});

  // mc_streams' large PRP cell shape at 5,000 failures (n=3, streams=4):
  // each stream's planner and analyzer query a History that grows to
  // ~65k events, the one kernel pair whose histories run long.  Budget 4
  // vs 1, bitwise the same ResultSet.  Pinned to one closure like
  // mc_async_cell.
  registry.add({"mc_prp_cell", "core", [] {
                  const Scenario s = prp_cell();
                  return [s]() -> double {
                    EvalContextScope scope(EvalContext{4});
                    const ResultSet r = monte_carlo_backend().evaluate(s);
                    return r.value("prp_distance");
                  };
                },
                /*threads=*/1});

  registry.add({"mc_prp_cell_seq", "core", [] {
                  const Scenario s = prp_cell();
                  return [s]() -> double {
                    EvalContextScope scope(EvalContext{1});
                    const ResultSet r = monte_carlo_backend().evaluate(s);
                    return r.value("prp_distance");
                  };
                },
                /*threads=*/1});

  registry.add({"mc_stream_merge", "core", [] {
                  // The merge tax alone: combine 8 pre-simulated stream
                  // partials (Chan et al. on every accumulator) without
                  // any simulation in the timed loop.
                  auto parts = std::make_shared<std::vector<AsyncSimResult>>();
                  AsyncRbSimulator sim(
                      ProcessSetParams::symmetric(4, 1.0, 0.5), 0x5eed);
                  for (std::size_t k = 0; k < 8; ++k) {
                    sim.reseed(derive_stream_seed(0x5eed, k));
                    parts->push_back(sim.run_lines(64, 0.25));
                  }
                  return [parts]() -> double {
                    AsyncSimResult merged = (*parts)[0];
                    for (std::size_t k = 1; k < parts->size(); ++k) {
                      merged.merge((*parts)[k]);
                    }
                    return merged.interval.mean();
                  };
                }});

  // --- trace ------------------------------------------------------------
  registry.add({"trace_line_fixpoint_n6", "trace", [] {
                  auto h = std::make_shared<const History>(
                      synthetic_history(6));
                  return [h]() -> double {
                    return RecoveryLineFinder(*h).latest_line().max_time();
                  };
                }});

  registry.add({"trace_rollback_n6", "trace", [] {
                  // A failure of process 0 just after the last event.
                  auto h = std::make_shared<const History>(
                      synthetic_history(6));
                  return [h]() -> double {
                    return RollbackAnalyzer(*h)
                        .analyze_failure(0, h->last_time() + 1.0)
                        .rollback_distance;
                  };
                }});

  // --- runtime ----------------------------------------------------------
  registry.add({"runtime_mailbox_push_pop", "runtime", [] {
                  auto box = std::make_shared<Mailbox>();
                  Message m;
                  m.type = MessageType::kApp;
                  m.seq = 1;
                  return [box, m]() -> double {
                    box->push(m);
                    return box->try_pop() ? 1.0 : 0.0;
                  };
                }});

  registry.add({"runtime_mailbox_filter", "runtime", [] {
                  // Recovery's inbox purge: fill a fresh mailbox with 1024
                  // messages and drop the later half.
                  return []() -> double {
                    constexpr std::size_t kCount = 1024;
                    Mailbox box;
                    for (std::size_t i = 0; i < kCount; ++i) {
                      Message m;
                      m.type = MessageType::kApp;
                      m.send_ticket = i;
                      box.push(m);
                    }
                    return static_cast<double>(
                        box.filter([](const Message& m) {
                          return m.send_ticket > kCount / 2;
                        }));
                  };
                }});

  registry.add({"runtime_state_serialize", "runtime", [] {
                  const WorkState ws = stepped_work_state();
                  return [ws]() -> double {
                    return static_cast<double>(ws.serialize().size());
                  };
                }});

  registry.add({"runtime_checkpoint_purge", "runtime", [] {
                  // 16 snapshots into a fresh store, every fourth a
                  // recovery point and the rest PRPs, then the paper's
                  // purge rule.
                  const WorkState ws = stepped_work_state();
                  return [ws, ticket = std::uint64_t{0}]() mutable -> double {
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
                  };
                }});

  registry.add({"runtime_recovery_block", "runtime", [] {
                  // The primary alternative passes its acceptance test:
                  // state saving on entry, one work step, accept.
                  RecoveryBlock rb([](const Serializable&) { return true; });
                  rb.add_alternative([](Serializable& s) {
                    static_cast<WorkState&>(s).step(7);
                  });
                  return [rb, ws = stepped_work_state()]() mutable -> double {
                    return rb.execute(ws) ? 1.0 : 0.0;
                  };
                }});

  // --- wire -------------------------------------------------------------
  registry.add({"wire_encode_scenario", "wire", [] {
                  const Scenario s = wire_scenario();
                  return [s]() -> double {
                    wire::Writer w;
                    s.encode(w);
                    return static_cast<double>(w.size());
                  };
                }});

  registry.add({"wire_decode_scenario", "wire", [] {
                  wire::Writer w;
                  wire_scenario().encode(w);
                  const std::vector<std::byte> bytes = w.data();
                  return [bytes]() -> double {
                    wire::Reader r(bytes);
                    const Scenario s = Scenario::decode(r);
                    return static_cast<double>(s.n());
                  };
                }});

  registry.add({"wire_encode_resultset", "wire", [] {
                  const ResultSet rs = wire_result_set();
                  return [rs]() -> double {
                    wire::Writer w;
                    rs.encode(w);
                    return static_cast<double>(w.size());
                  };
                }});

  registry.add({"wire_decode_resultset", "wire", [] {
                  wire::Writer w;
                  wire_result_set().encode(w);
                  const std::vector<std::byte> bytes = w.data();
                  return [bytes]() -> double {
                    wire::Reader r(bytes);
                    const ResultSet rs = ResultSet::decode(r);
                    return static_cast<double>(rs.metrics().size());
                  };
                }});

  registry.add({"wire_seal_cellbatch", "wire", [] {
                  const CellBatch batch = wire_cell_batch();
                  return [batch]() -> double {
                    const std::vector<std::byte> frame = batch.seal();
                    return static_cast<double>(frame.size());
                  };
                }});

  registry.add({"wire_parse_cellbatch", "wire", [] {
                  const std::vector<std::byte> frame =
                      wire_cell_batch().seal();
                  return [frame]() -> double {
                    wire::Frame parsed;
                    std::size_t consumed = 0;
                    parse_frame(frame.data(), frame.size(), &parsed,
                                &consumed);
                    wire::Reader r(parsed.payload);
                    const CellBatch batch = CellBatch::decode(r);
                    return static_cast<double>(batch.cells.size());
                  };
                }});

  // --- recov ------------------------------------------------------------
  registry.add({"recov_crc32", "recov", [] {
                  const wire::Frame frame =
                      recov::cell_committed_record(0, 7, journal_cell_result());
                  const std::vector<std::byte> record =
                      recov::seal_record(frame.type, frame.payload);
                  return [record]() -> double {
                    return static_cast<double>(
                        recov::crc32(record.data(), record.size()));
                  };
                }});

  registry.add({"recov_journal_append", "recov", [] {
                  // Seal, write and the fsync policy's share: the whole
                  // cost of a commit on the dispatch thread.
                  auto journal = std::make_shared<TempJournal>();
                  const ResultSet result = journal_cell_result();
                  return [journal, result]() -> double {
                    journal->append(result);
                    return static_cast<double>(journal->cell);
                  };
                }});

  // --- fleet ------------------------------------------------------------
  registry.add({"fleet_encode_join", "fleet", [] {
                  const fleet::JoinInfo info = fleet_member(7);
                  return [info]() -> double {
                    wire::Writer w;
                    info.encode(w);
                    return static_cast<double>(w.size());
                  };
                }});

  registry.add({"fleet_decode_join", "fleet", [] {
                  wire::Writer w;
                  fleet_member(7).encode(w);
                  const std::vector<std::byte> bytes = w.data();
                  return [bytes]() -> double {
                    wire::Reader r(bytes);
                    const fleet::JoinInfo info = fleet::JoinInfo::decode(r);
                    return static_cast<double>(info.port);
                  };
                }});

  registry.add({"fleet_encode_grant", "fleet", [] {
                  const fleet::GrantResponse g = fleet_grant(16);
                  return [g]() -> double {
                    wire::Writer w;
                    g.encode(w);
                    return static_cast<double>(w.size());
                  };
                }});

  registry.add({"fleet_decode_grant", "fleet", [] {
                  wire::Writer w;
                  fleet_grant(16).encode(w);
                  const std::vector<std::byte> bytes = w.data();
                  return [bytes]() -> double {
                    wire::Reader r(bytes);
                    const fleet::GrantResponse g =
                        fleet::GrantResponse::decode(r);
                    return static_cast<double>(g.members.size());
                  };
                }});

  registry.add({"fleet_heartbeat_refresh", "fleet", [] {
                  auto table = fleet_table(32);
                  const fleet::JoinInfo info = fleet_member(5);
                  return [table, info]() -> double {
                    // Fixed now: every rep takes the register-or-refresh
                    // path, never the eviction cliff.
                    table->heartbeat(info, 1);
                    return static_cast<double>(table->live(1));
                  };
                }});

  registry.add({"fleet_resolve_fair_share", "fleet", [] {
                  auto table = fleet_table(32);
                  fleet::ResolveRequest req;
                  req.coordinator_id = 1;
                  return [table, req]() -> double {
                    // A re-resolve supersedes the previous leases, so each
                    // rep runs the full release + fair-share + HMAC-signed
                    // grant path over all 32 members.
                    const fleet::GrantResponse g = table->resolve(req, 1);
                    return static_cast<double>(g.members.size());
                  };
                }});

  registry.add({"fleet_lease_hmac", "fleet", [] {
                  std::uint64_t token = 1;
                  return [token]() mutable -> double {
                    return static_cast<double>(
                        fleet::lease_sig("bench-key", token++));
                  };
                }});
}

}  // namespace perf
}  // namespace rbx
