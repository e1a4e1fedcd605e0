// Shared plumbing for the bench binaries that regenerate the paper's
// tables and figures.
//
// Every bench runs with no arguments and prints the paper's rows to stdout;
// the flags below let a user trade precision for time and pick where the
// sweep cells execute.  Execution lanes *compose*: any mix of --threads,
// --workers and --connect (or --fleet) runs as one sweep on one
// HybridExecutor (core/dispatch.h), byte-identical to a single-threaded
// run.
//   --samples=N    Monte-Carlo sample count (lines / failures / commits)
//   --streams=K    partition every cell's Monte-Carlo budget into K
//                  deterministic RNG sub-streams (Scenario::streams),
//                  evaluated sample-parallel on each worker's intra-cell
//                  thread budget and merged in fixed stream order.  For a
//                  given K the output is bitwise identical on any lane and
//                  any thread count; K=1 (the default) is bitwise
//                  identical to earlier releases.  Different K are
//                  different (equally valid) sample partitions
//   --nmax=N       largest process count in sweeps
//   --seed=N       master RNG seed
//   --threads=N    a lane of N in-process worker threads (the default
//                  lane, at hardware concurrency, when no lane flag is
//                  given)
//   --workers=N    a lane of N forked worker processes (crashed workers
//                  are respawned and their cells re-run)
//   --connect=HOST:PORT,...
//                  a lane of remote sweep_workerd daemons over TCP - a
//                  fleet (fleet/lane.h) whose membership is this list; a
//                  lost daemon is re-admitted mid-sweep when it or an
//                  unused listed daemon answers (reconnect + re-handshake
//                  on a backoff timer)
//   --fleet=HOST:PORT
//                  like --connect, but the daemons are resolved from a
//                  fleet registry (tools/fleet_registryd) at sweep start:
//                  the coordinator is granted a fair share of the live
//                  members (heartbeat-expired daemons are never granted)
//                  and a daemon lost mid-sweep is backfilled by any other
//                  registry member - including one that joined after the
//                  sweep began.  Mutually exclusive with --connect; output
//                  is byte-identical to the equivalent --connect list
//   --fleet-workers=N
//                  with --fleet: cap the grant at N members, at most
//                  4294967295 (default: the registry's fair share)
//   --auth-key-file=PATH
//                  pre-shared key for authenticated fleets: the Hello
//                  handshake to every daemon (and the registry) carries an
//                  HMAC challenge/response proving key possession.  Works
//                  with --fleet and with plain --connect against daemons
//                  running --auth-key-file
//   --batch=N      cells per worker batch frame (0 = adaptive, the
//                  default); needs a --workers or --connect lane
//   --steal        once the queue is empty, re-dispatch a straggler's
//                  unanswered cells to idle workers (first answer wins,
//                  duplicates are deduped; output unchanged); needs a
//                  --workers or --connect lane - a pure --threads run
//                  has no stragglers worth stealing from
//   --handshake-timeout-ms=N
//                  with --connect: how long a worker's per-sweep Hello may
//                  go unanswered before it is demoted to "lost" (default
//                  10000; raise it when stolen-from stragglers need longer
//                  than that to flush a batch between sweeps)
//   --shard=i/k    evaluate only shard i of a k-way split of every sweep
//                  and journal the owned cells (recov/journal.h) instead
//                  of printing tables
//   --shard-out=F  where --shard writes its journal (default
//                  shard-<i>-of-<k>.rbxw)
//   --shard-serve=PORT
//                  with --shard: instead of a file, listen on PORT and
//                  stream each sweep's journal records to the one --merge
//                  peer that connects (0 = ephemeral, printed on stderr)
//   --merge=SRC1,SRC2,...
//                  print the tables from journals instead of evaluating; a
//                  source is a journal file (any --shard or --journal
//                  output) or a HOST:PORT of a --shard-serve run, merged
//                  as it streams in.  Byte-identical to an unsharded run;
//                  a foreign grid (fingerprint mismatch) or a cell no
//                  source committed is refused loudly
//   --journal=FILE start a fresh crash-durable sweep journal at FILE
//                  (recov/journal.h): every committed cell is logged the
//                  moment its outcome is final, so a killed run can be
//                  picked up with --resume
//   --resume=FILE  recover the committed cells from a journal a killed
//                  run left behind, evaluate only the losers, and keep
//                  appending to the same journal; output is bitwise
//                  identical to an uninterrupted run.  A journal written
//                  by a different sweep (grid fingerprint mismatch, e.g.
//                  other --samples/--seed) is refused loudly with exit 2
//   --no-cache     ask --connect daemons to bypass their --cache-dir
//                  result cache for this run's sessions (fresh
//                  evaluations; the answers are bitwise identical either
//                  way)
//
// Parsing is strict (support/flags.h): an unknown flag, a malformed
// number, a negative or out-of-range value (--threads=0, --streams=0,
// --shard=3/2, --connect=host with no port, ...) or a flag combination
// the rule table in ExperimentOptions::parse refuses prints a usage
// message to stderr and exits with status 2.  That table - which flag
// needs a lane or another flag, which flags exclude each other - is the
// complete list of refused combinations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/executor.h"
#include "core/result.h"
#include "net/socket.h"
#include "support/flags.h"  // parse_strict_u64

namespace rbx {

class HybridExecutor;  // core/dispatch.h; kept out of every bench TU
class FrameChannel;    // core/lane.h

namespace recov {
class JournalWriter;      // recov/journal.h; kept out of every bench TU
struct JournalAnalysis;
struct SweepEndStats;
}

struct ExperimentOptions {
  std::size_t samples = 20000;
  std::size_t streams = 1;   // RNG sub-streams per cell (--streams=K)
  std::size_t nmax = 0;      // 0 = bench default
  std::uint64_t seed = 20260610;
  std::size_t threads = 0;   // 0 = not named: hardware concurrency, and
                             // no thread lane beside --workers/--connect
  std::size_t workers = 0;   // forked-worker lane size; 0 = no fork lane
  std::size_t batch = 0;     // cells per worker batch; 0 = adaptive
  std::vector<net::Endpoint> connect;  // non-empty = TCP lane
  net::Endpoint fleet;       // --fleet registry; port 0 = not named
  std::size_t fleet_workers = 0;  // --fleet-workers: grant cap; 0 = share
  std::string auth_key_file;  // --auth-key-file: pre-shared key path
  bool steal = false;        // steal stragglers' tails (multi-lane runs)
  std::size_t handshake_timeout_ms = 10000;  // --connect: Hello deadline
  bool shard_mode = false;   // --shard given (covers the 0/1 degenerate)
  ShardSpec shard;           // {0, 1} = unsharded
  std::string shard_out;     // journal path; set for file-mode shards
  bool shard_serve = false;  // stream records to a --merge peer instead
  std::uint16_t shard_serve_port = 0;
  std::vector<std::string> merge_inputs;  // non-empty = merge mode; each a
                                          // file path or HOST:PORT source
  std::string journal;       // --journal: start a fresh sweep journal here
  std::string resume;        // --resume: recover + append to this journal
  bool no_cache = false;     // --no-cache: bypass worker result caches

  static ExperimentOptions parse(int argc, char** argv,
                                 std::size_t default_samples,
                                 std::size_t default_nmax);
};

// Drives every sweep of one bench invocation under the execution mode the
// flags selected:
//
//   normal      evaluate all cells on the composed lanes (threads by
//               default; forked workers with --workers; remote daemons
//               with --connect; any mix of the three at once) and hand
//               the results back;
//   --shard=i/k evaluate and journal only the owned cells of each sweep
//               (the other shards' cells are pre-committed), to the
//               --shard-out file or the --shard-serve peer, and return
//               std::nullopt - the bench skips its printing and exits
//               after its last sweep;
//   --merge     evaluate nothing; resume the sweep from every input
//               journal - a file, or a socket streaming shards as they
//               finish - and return the full result vector, which must
//               have no cell missing.
//
// Benches call run() once per grid, in a fixed order, so sweep s of every
// journal corresponds to the bench's s-th sweep.  A failed cell (a
// throwing cell_fn or a crashed worker) prints the per-cell errors and
// exits 1 - a bench table with silently missing rows would be worse.
//
// The PlanFn overload is the preferred one: a plan (core/backend.h) is the
// sweep's evaluation recipe as data, which is what lets --connect ship
// cells to sweep_workerd daemons that have no access to the bench binary.
// The CellFn overload stays for local-only sweeps (arbitrary closures) and
// exits 2 under --connect.
//
//   SweepRunner runner(opts);
//   const auto results = runner.run(cells, plan_fn);
//   if (!results) return 0;            // --shard: journal written
//   ... print tables from *results ...
class SweepRunner {
 public:
  // default_threads replaces opts.threads when that is 0 (e.g. the runtime
  // bench defaults to 1 in-process worker because each cell spawns its own
  // process threads); 0 keeps the hardware-concurrency default.
  explicit SweepRunner(const ExperimentOptions& opts,
                       std::size_t default_threads = 0);
  ~SweepRunner();  // out of line: HybridExecutor is forward-declared here

  // Local-only: cells evaluate through an arbitrary closure.
  std::optional<std::vector<ResultSet>> run(
      const std::vector<Scenario>& cells, const CellFn& cell_fn);
  // Cluster-capable: cells evaluate through serializable plans - locally
  // via evaluate_plan, remotely on sweep_workerd workers - with bitwise
  // identical results.
  std::optional<std::vector<ResultSet>> run(
      const std::vector<Scenario>& cells, const PlanFn& plan_fn);
  // Shorthand for the one-step plan "evaluate on this backend".  The plan
  // names the backend, so it must be registered (find_backend): an
  // unregistered backend fails every cell with "eval plan: unknown
  // backend" and the sweep exits 1.
  std::optional<std::vector<ResultSet>> run(
      const std::vector<Scenario>& cells, const EvalBackend& backend);

  // The port a --shard-serve run is listening on (0 when not serving);
  // useful with --shard-serve=0 (ephemeral).
  std::uint16_t shard_serve_port() const;

 private:
  struct MergeSource;  // a journal file, or a socket streaming records

  std::optional<std::vector<ResultSet>> run_impl(
      const std::vector<Scenario>& cells, const CellFn& cell_fn,
      const PlanFn* plan_fn);
  std::vector<CellOutcome> evaluate(const std::vector<Scenario>& cells,
                                    const CellFn& cell_fn,
                                    const PlanFn* plan_fn) const;
  // --shard-serve: sends a finished sweep's journal records to the peer.
  void stream_sweep(std::size_t section, std::uint64_t fingerprint,
                    const std::string& digest,
                    const std::vector<CellOutcome>& outcomes,
                    const recov::SweepEndStats& stats);

  ExperimentOptions opts_;
  std::size_t sweep_index_ = 0;
  std::unique_ptr<net::Listener> shard_listener_;  // --shard-serve
  std::unique_ptr<FrameChannel> shard_conn_;       // the one merge peer
  std::vector<std::unique_ptr<MergeSource>> merge_sources_;
  // One executor for the whole bench run: its lanes (and the remote
  // lane's worker connections) persist across sweeps.  Null in merge mode.
  std::unique_ptr<HybridExecutor> executor_;
  bool remote_lanes_ = false;  // a remote lane exists: plans required
  // Crash durability (--journal / --resume / --shard-out): the writer
  // appends a record per committed cell; the analysis seeds resumes.
  std::unique_ptr<recov::JournalWriter> journal_;
  std::unique_ptr<recov::JournalAnalysis> resume_state_;
};

// "value +- half_width" with sensible precision.
std::string fmt_ci(double value, double half_width, int precision = 4);

// Percentage-formatted relative deviation of measured from reference.
std::string fmt_dev(double measured, double reference);

// Standard header naming the paper and the experiment (keeps bench output
// self-describing when tee'd into logs).
void print_banner(const std::string& experiment_id,
                  const std::string& description);

// Three-line digest of one scenario's analytic evaluation under each scheme
// (async E[X]/sd/E[L], sync E[Z]/CL, PRP overheads/rollback bound); the
// shared opening block of quickstart and scheme_comparison.
std::string scheme_summary(const ResultSet& async_exact,
                           const ResultSet& sync_exact,
                           const ResultSet& prp_exact);

}  // namespace rbx
