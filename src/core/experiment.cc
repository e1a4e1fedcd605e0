#include "core/experiment.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "core/dispatch.h"
#include "core/lane.h"
#include "fleet/auth.h"
#include "fleet/lane.h"
#include "recov/journal.h"
#include "recov/resume.h"

namespace rbx {

namespace {

// "--shard=i/k": both parts strict non-negative integers, k >= 1, i < k.
std::string parse_shard(const std::string& text, ShardSpec* out) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) {
    return "expected i/k (e.g. --shard=0/4)";
  }
  std::uint64_t index = 0;
  std::uint64_t count = 0;
  if (!parse_strict_u64(text.substr(0, slash).c_str(), &index) ||
      !parse_strict_u64(text.c_str() + slash + 1, &count)) {
    return "expected i/k with non-negative integers";
  }
  if (count == 0) {
    return "shard count must be >= 1";
  }
  if (index >= count) {
    return "shard index must be < shard count";
  }
  out->index = static_cast<std::size_t>(index);
  out->count = static_cast<std::size_t>(count);
  return "";
}

// A HOST:PORT value; *out is written only when it parses.
std::string parse_endpoint_into(const std::string& text, net::Endpoint* out) {
  std::string why;
  net::parse_endpoint(text, out, &why);
  return why;
}

}  // namespace

ExperimentOptions ExperimentOptions::parse(int argc, char** argv,
                                           std::size_t default_samples,
                                           std::size_t default_nmax) {
  ExperimentOptions opts;
  opts.samples = default_samples;
  opts.nmax = default_nmax;
  constexpr std::uint64_t kAny = UINT64_MAX;
  flags::Table table;
  table.flags = {
      {"--samples", "N", flags::count(&opts.samples)},
      {"--streams", "K",
       flags::count(&opts.streams, 1, kAny, "stream count must be >= 1")},
      {"--nmax", "N", flags::count(&opts.nmax)},
      {"--seed", "N", flags::count(&opts.seed)},
      {"--threads", "N",
       flags::count(&opts.threads, 1, kAny, "thread count must be >= 1")},
      {"--workers", "N",
       flags::count(&opts.workers, 1, kAny, "worker count must be >= 1")},
      {"--connect", "HOST:PORT,...",
       flags::list("empty endpoint in list",
                   [&opts](const std::string& text) {
                     net::Endpoint endpoint;
                     std::string why = parse_endpoint_into(text, &endpoint);
                     if (why.empty()) {
                       opts.connect.push_back(std::move(endpoint));
                     }
                     return why;
                   })},
      {"--fleet", "HOST:PORT",
       [&opts](const std::string& text) {
         return parse_endpoint_into(text, &opts.fleet);
       }},
      // The grant cap travels as a u32 (fleet::FleetLaneOptions); a
      // larger value would wrap into a different cap, or into "no cap".
      {"--fleet-workers", "N",
       flags::count(&opts.fleet_workers, 1, 0xFFFFFFFFull,
                    "expected a positive worker count (at most "
                    "4294967295)")},
      {"--auth-key-file", "PATH",
       flags::text(&opts.auth_key_file, "expected a key file path")},
      {"--batch", "N", flags::count(&opts.batch)},
      {"--steal", "", flags::on(&opts.steal)},
      // Capped at INT_MAX: the value feeds poll()'s int timeout, and a
      // silently overflowed negative deadline would demote every worker.
      {"--handshake-timeout-ms", "N",
       flags::count(&opts.handshake_timeout_ms, 1, 2147483647,
                    "expected a positive millisecond count (at most "
                    "2147483647)")},
      {"--shard", "i/k",
       [&opts](const std::string& text) {
         return parse_shard(text, &opts.shard);
       }},
      {"--shard-out", "FILE",
       flags::text(&opts.shard_out, "expected a file path")},
      {"--shard-serve", "PORT",
       flags::count(&opts.shard_serve_port, 0, 65535,
                    "expected a port in 0..65535 (0 = ephemeral)")},
      {"--merge", "SRC,...",
       flags::list("empty file name in list",
                   flags::append(&opts.merge_inputs))},
      {"--journal", "FILE", flags::text(&opts.journal, "expected a file path")},
      {"--resume", "FILE",
       flags::text(&opts.resume, "expected a journal file path")},
      {"--no-cache", "", flags::on(&opts.no_cache)},
  };
  // The rule table, checked in order (the first refusal is reported).
  // --batch and --steal are properties of the shared dispatch core,
  // legal under any worker lane (forked or remote) and any hybrid mix
  // of them - but meaningless on a pure --threads run, where they
  // would silently do nothing (threads take single cells and cannot
  // usefully straggle).
  table.rules = {
      {"--merge", {}, {"--shard"}, "cannot combine --merge with --shard"},
      {"--connect", {}, {"--merge"},
       "--merge evaluates nothing, so --connect is meaningless"},
      {"--fleet", {}, {"--connect"},
       "--fleet resolves its daemons from the registry; naming them "
       "with --connect too is contradictory - pick one"},
      {"--fleet", {}, {"--merge"},
       "--merge evaluates nothing, so --fleet is meaningless"},
      {"--fleet-workers", {"--fleet"}, {},
       "--fleet-workers only applies to --fleet runs"},
      {"--auth-key-file", {"--connect", "--fleet"}, {},
       "--auth-key-file only applies to --connect or --fleet runs (only "
       "remote daemons authenticate)"},
      {"--batch", {"--workers", "--connect", "--fleet"}, {},
       "--batch only applies to runs with a --workers, --connect or "
       "--fleet lane"},
      {"--steal", {"--workers", "--connect", "--fleet"}, {},
       "--steal only applies to runs with a --workers, --connect or "
       "--fleet lane (a pure --threads run has no stragglers worth "
       "stealing from)"},
      {"--handshake-timeout-ms", {"--connect", "--fleet"}, {},
       "--handshake-timeout-ms only applies to --connect or --fleet runs"},
      {"--journal", {}, {"--resume"},
       "--journal starts a fresh journal and --resume continues one; "
       "pick one"},
      {"--merge", {}, {"--journal", "--resume"},
       "--merge evaluates nothing, so there is nothing to journal or "
       "resume"},
      {"--shard", {}, {"--journal", "--resume"},
       "the sweep journal covers whole sweeps and a --shard run "
       "already journals its own cells; journal the unsharded run (or "
       "re-run the lost shard) instead of combining it with --shard"},
      {"--no-cache", {"--connect", "--fleet"}, {},
       "--no-cache only applies to --connect or --fleet runs (only "
       "remote daemons keep a result cache)"},
      {"--shard-out", {"--shard"}, {}, "--shard-out requires --shard"},
      {"--shard-serve", {"--shard"}, {}, "--shard-serve requires --shard"},
      {"--shard-serve", {}, {"--shard-out"},
       "--shard-serve streams its journal records to a --merge peer "
       "and cannot combine with --shard-out"},
  };
  const flags::Given given = flags::parse(argc, argv, table);
  opts.shard_mode = given.count("--shard") != 0;
  opts.shard_serve = given.count("--shard-serve") != 0;
  if (opts.shard_mode && !opts.shard_serve && opts.shard_out.empty()) {
    opts.shard_out = "shard-" + std::to_string(opts.shard.index) + "-of-" +
                     std::to_string(opts.shard.count) + ".rbxw";
  }
  // 0 keeps the bench's default budget (documented escape hatch, and what
  // --nmax=0 has always meant).
  if (opts.samples == 0) {
    opts.samples = default_samples;
  }
  if (opts.nmax == 0) {
    opts.nmax = default_nmax;
  }
  return opts;
}

// One --merge source: a journal file, or a socket to a --shard-serve run
// that streams each sweep's journal records the moment the sweep ends.
struct SweepRunner::MergeSource {
  std::string name;
  std::unique_ptr<FrameChannel> conn;  // null for a file source
  recov::JournalAnalysis journal;      // the file, or what has streamed in

  // Sweep `section` of this source, checked against the merging grid.  A
  // socket feeds each record it receives through the analysis pass's
  // per-record step until that sweep's end record arrives.  Throws
  // wire::Error naming this source when it cannot supply the sweep.
  const recov::SweepState& sweep(std::size_t section, std::size_t total_cells,
                                 std::uint64_t fingerprint) {
    try {
      while (conn != nullptr && (section >= journal.sweeps.size() ||
                                 !journal.sweeps[section].ended)) {
        wire::Frame record;
        if (!conn->recv(&record)) {
          throw wire::Error("hung up before streaming sweep section " +
                            std::to_string(section) +
                            " (did the shard run fail?)");
        }
        recov::analyze_record(journal, record);
      }
      if (section >= journal.sweeps.size()) {
        throw wire::Error("has only " +
                          std::to_string(journal.sweeps.size()) +
                          " sweep sections (bench expected more - was it "
                          "written by this bench?)");
      }
      recov::check_grid(journal.sweeps[section], total_cells, fingerprint);
    } catch (const wire::Error& e) {
      throw wire::Error("'" + name + "': " + e.what());
    }
    return journal.sweeps[section];
  }
};

SweepRunner::SweepRunner(const ExperimentOptions& opts,
                         std::size_t default_threads)
    : opts_(opts) {
  const bool threads_named = opts_.threads != 0;  // before the default
  if (opts_.threads == 0) {
    opts_.threads = default_threads;
  }
  if (!opts_.merge_inputs.empty()) {
    // Merge mode evaluates nothing, so no lanes are raised.  Sources that
    // parse as HOST:PORT are sockets to --shard-serve runs; everything
    // else is a journal file, analyzed up front.
    for (const std::string& input : opts_.merge_inputs) {
      auto source = std::make_unique<MergeSource>();
      source->name = input;
      net::Endpoint endpoint;
      std::string why;
      try {
        if (net::parse_endpoint(input, &endpoint, &why)) {
          source->conn = std::make_unique<FrameChannel>(
              net::connect_to(endpoint, /*retries=*/10).release());
        } else {
          source->journal = recov::analyze_journal(input);
        }
      } catch (const std::runtime_error& e) {
        std::fprintf(stderr, "merge: '%s': %s\n", input.c_str(), e.what());
        std::exit(1);
      }
      merge_sources_.push_back(std::move(source));
    }
    return;
  }
  if (opts_.shard_serve) {
    try {
      shard_listener_ =
          std::make_unique<net::Listener>(opts_.shard_serve_port);
    } catch (const net::Error& e) {
      std::fprintf(stderr, "shard: %s\n", e.what());
      std::exit(1);
    }
    std::fprintf(stderr,
                 "shard: serving journal records on port %u (waiting for "
                 "a --merge peer)\n",
                 static_cast<unsigned>(shard_listener_->port()));
  }
  // Compose the execution lanes.  One executor serves the whole bench
  // run: its lanes (and the remote lane's worker connections, including
  // the knowledge of which workers died) persist across sweeps.
  // The pre-shared fleet key (--auth-key-file); an unreadable or empty
  // key file is an environment failure, reported before any lane dials.
  std::string auth_key;
  if (!opts_.auth_key_file.empty()) {
    try {
      auth_key = fleet::load_auth_key(opts_.auth_key_file);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sweep: %s\n", e.what());
      std::exit(1);
    }
  }
  std::vector<std::unique_ptr<Lane>> lanes;
  if (opts_.workers > 0) {
    // Fork lane first: raising children before the thread lane spawns
    // threads keeps each sweep's forks cheap and predictable.
    lanes.push_back(std::make_unique<ForkLane>(opts_.workers));
  }
  const bool remote_lane = !opts_.connect.empty() || opts_.fleet.port != 0;
  if (threads_named || (opts_.workers == 0 && !remote_lane)) {
    lanes.push_back(std::make_unique<ThreadLane>(opts_.threads));
  }
  if (remote_lane) {
    // One remote lane: --connect names a static member list, --fleet a
    // registry (parse() refuses both at once).
    fleet::FleetLaneOptions remote;
    remote.registry = opts_.fleet;
    remote.members = opts_.connect;
    remote.auth_key = auth_key;
    remote.max_workers = static_cast<std::uint32_t>(opts_.fleet_workers);
    // With local lanes present, an unreachable pool degrades the sweep
    // instead of killing it; a remote-only run still fails loudly.
    remote.required = lanes.empty();
    lanes.push_back(std::make_unique<fleet::FleetLane>(std::move(remote)));
    remote_lanes_ = true;
  }
  DispatchOptions dispatch;
  dispatch.batch_size = opts_.batch;
  dispatch.steal = opts_.steal;
  dispatch.handshake_timeout_ms =
      static_cast<int>(opts_.handshake_timeout_ms);
  dispatch.no_cache = opts_.no_cache;
  executor_ =
      std::make_unique<HybridExecutor>(std::move(lanes), dispatch);

  // Crash durability.  --resume runs the journal's analysis pass up front
  // (an unreadable or foreign journal is refused before any cell runs)
  // and keeps appending to the same file; --journal starts a fresh log,
  // and so does a --shard run at its --shard-out path (parse() sets it
  // for file shards only): a shard file is the journal of its cells.
  if (!opts_.resume.empty()) {
    try {
      resume_state_ = std::make_unique<recov::JournalAnalysis>(
          recov::analyze_journal(opts_.resume));
    } catch (const wire::Error& e) {
      std::fprintf(stderr, "resume: %s\n", e.what());
      std::exit(2);
    }
    if (resume_state_->torn_tail) {
      std::fprintf(stderr,
                   "resume: journal has a torn tail (%zu bytes dropped) - "
                   "expected after a crash; those cells re-evaluate\n",
                   resume_state_->dropped_bytes);
    }
    std::fprintf(stderr,
                 "resume: recovered %zu committed cell(s) across %zu "
                 "sweep(s) from %s\n",
                 resume_state_->committed_cells(),
                 resume_state_->sweeps.size(), opts_.resume.c_str());
  }
  const std::string& journal_path = !opts_.resume.empty()    ? opts_.resume
                                    : !opts_.journal.empty() ? opts_.journal
                                                             : opts_.shard_out;
  if (!journal_path.empty()) {
    recov::JournalWriter::Options jopts;
    jopts.truncate = opts_.resume.empty();  // --journal: fresh file
    if (resume_state_ != nullptr && resume_state_->torn_tail) {
      // Cut the file at the last valid record so this run's appends stay
      // reachable by the next analysis scan.
      jopts.truncate_at = resume_state_->valid_bytes;
    }
    try {
      journal_ = std::make_unique<recov::JournalWriter>(journal_path, jopts);
    } catch (const wire::Error& e) {
      std::fprintf(stderr, "journal: %s\n", e.what());
      std::exit(1);
    }
  }
}

SweepRunner::~SweepRunner() = default;

std::uint16_t SweepRunner::shard_serve_port() const {
  return shard_listener_ != nullptr ? shard_listener_->port() : 0;
}

std::vector<CellOutcome> SweepRunner::evaluate(
    const std::vector<Scenario>& cells, const CellFn& cell_fn,
    const PlanFn* plan_fn) const {
  try {
    if (remote_lanes_ && plan_fn == nullptr) {
      std::fprintf(stderr,
                   "--connect: this sweep evaluates through a local-only "
                   "cell function and cannot run on remote workers\n");
      std::exit(2);
    }
    executor_->set_plan_fn(plan_fn != nullptr ? *plan_fn : PlanFn());
    return executor_->run(cells, cell_fn);
  } catch (const std::exception& e) {
    // Infrastructure failures (no reachable workers, fork/poll failure)
    // are not per-cell errors; die loudly instead of unwinding through
    // bench code.
    std::fprintf(stderr, "sweep: %s\n", e.what());
    std::exit(1);
  }
}

std::optional<std::vector<ResultSet>> SweepRunner::run(
    const std::vector<Scenario>& cells, const CellFn& cell_fn) {
  return run_impl(cells, cell_fn, nullptr);
}

std::optional<std::vector<ResultSet>> SweepRunner::run(
    const std::vector<Scenario>& cells, const PlanFn& plan_fn) {
  // Local executors run the exact same plans through evaluate_plan, which
  // is what makes --threads/--workers/--connect byte-identical.
  const CellFn cell_fn = [&plan_fn](const Scenario& s, std::size_t i) {
    return evaluate_plan(plan_fn(s, i), s);
  };
  return run_impl(cells, cell_fn, &plan_fn);
}

std::optional<std::vector<ResultSet>> SweepRunner::run(
    const std::vector<Scenario>& cells, const EvalBackend& backend) {
  return run(cells, PlanFn([plan = plan_for(backend)](const Scenario&,
                                                      std::size_t) {
               return plan;
             }));
}

std::optional<std::vector<ResultSet>> SweepRunner::run_impl(
    const std::vector<Scenario>& cells_in, const CellFn& cell_fn,
    const PlanFn* plan_fn) {
  // --streams=K applies here, the one choke point every bench's sweeps
  // pass through, so the stream axis reaches the grid fingerprint, the
  // shard/merge/journal paths and the evaluated cells uniformly.  K=1
  // leaves the cells untouched (bitwise-identical grids to older runs).
  std::vector<Scenario> streamed;
  if (opts_.streams > 1) {
    streamed.reserve(cells_in.size());
    for (const Scenario& cell : cells_in) {
      streamed.push_back(Scenario(cell).streams(opts_.streams));
    }
  }
  const std::vector<Scenario>& cells =
      opts_.streams > 1 ? streamed : cells_in;
  const std::size_t section = sweep_index_++;
  if (!merge_sources_.empty()) {
    // Merge mode is a resume over the sources' journals that must end with
    // no cell missing.  The plan is pinned to THIS invocation's grid, so a
    // merge run with different --samples/--seed than the shard runs fails
    // instead of printing tables that belong to other options.
    try {
      const std::uint64_t fingerprint = grid_fingerprint(cells);
      std::vector<const recov::SweepState*> states;
      for (const auto& source : merge_sources_) {
        states.push_back(&source->sweep(section, cells.size(), fingerprint));
      }
      return recov::plan_resume(states, cells.size(), fingerprint)
          .take_results();
    } catch (const wire::Error& e) {
      std::fprintf(stderr, "merge: sweep %zu: %s\n", section, e.what());
      std::exit(1);
    }
  }

  // Cells this run does not evaluate are pre-committed - a resumed
  // journal's winners (the redo pass), or the cells other shards own - so
  // they never reach a worker or the commit hook, and a shard's journal
  // holds exactly its own cells at their full-grid indices.  (shard_mode
  // covers the degenerate --shard=0/1: one shard owning every cell still
  // journals instead of printing tables.)
  const bool journaled = journal_ != nullptr || opts_.shard_mode;
  const std::uint64_t fingerprint = journaled ? grid_fingerprint(cells) : 0;
  std::size_t skipped = 0;
  if (resume_state_ != nullptr && section < resume_state_->sweeps.size()) {
    // A journal written by a different sweep (fingerprint or cell-count
    // mismatch) is refused with exit 2 before anything evaluates.
    recov::ResumePlan plan;
    try {
      plan = recov::plan_resume({&resume_state_->sweeps[section]},
                                cells.size(), fingerprint);
    } catch (const wire::Error& e) {
      std::fprintf(stderr, "resume: %s\n", e.what());
      std::exit(2);
    }
    skipped = plan.committed_cells();
    std::vector<CellOutcome> seeded(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (plan.committed[i] != 0) {
        seeded[i].result = std::move(plan.results[i]);
      }
    }
    executor_->set_precommitted(std::move(plan.committed), std::move(seeded));
    std::fprintf(stderr,
                 "journal: sweep %zu: %zu/%zu cells already committed, "
                 "evaluating %zu\n",
                 section, skipped, cells.size(), cells.size() - skipped);
  } else if (opts_.shard_mode) {
    std::vector<std::uint8_t> others(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      others[i] = opts_.shard.owns(i) ? 0 : 1;
      skipped += others[i];
    }
    executor_->set_precommitted(std::move(others),
                                std::vector<CellOutcome>(cells.size()));
  }
  char digest[96];
  std::snprintf(digest, sizeof(digest),
                "samples=%zu nmax=%zu seed=%llu streams=%zu", opts_.samples,
                opts_.nmax, static_cast<unsigned long long>(opts_.seed),
                opts_.streams);
  if (journal_ != nullptr) {
    try {
      journal_->sweep_begin(section, fingerprint, cells.size(), digest);
    } catch (const wire::Error& e) {
      std::fprintf(stderr, "journal: %s\n", e.what());
      std::exit(1);
    }
    recov::JournalWriter* journal = journal_.get();
    executor_->set_commit_hook(
        [journal, section](std::size_t index, const CellOutcome& outcome) {
          // Only real results are journaled: an errored cell must be
          // re-evaluated by a resumed run, not replayed as an error.
          if (outcome.ok()) {
            journal->cell_committed(section, index, outcome.result);
          }
        });
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<CellOutcome> outcomes = evaluate(cells, cell_fn, plan_fn);
  if (journaled) {
    const long long wall_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    recov::SweepEndStats stats;
    stats.evaluated_cells = cells.size() - skipped;
    stats.committed_cells =
        opts_.shard_mode ? stats.evaluated_cells : cells.size();
    stats.wall_ms = static_cast<std::uint64_t>(wall_ms);
    stats.cells_per_sec =
        1000.0 * static_cast<double>(stats.evaluated_cells) /
        static_cast<double>(std::max<long long>(wall_ms, 1));
    if (journal_ != nullptr) {
      try {
        journal_->sweep_end(section, stats);
      } catch (const wire::Error& e) {
        std::fprintf(stderr, "journal: %s\n", e.what());
        std::exit(1);
      }
      std::fprintf(stderr,
                   "journal: sweep %zu done: %llu/%llu cell(s) evaluated in "
                   "%llu ms (%.1f cells/s)\n",
                   section,
                   static_cast<unsigned long long>(stats.evaluated_cells),
                   static_cast<unsigned long long>(stats.committed_cells),
                   static_cast<unsigned long long>(stats.wall_ms),
                   stats.cells_per_sec);
    } else {
      stream_sweep(section, fingerprint, digest, outcomes, stats);
    }
  }
  bool failed = false;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok()) {
      std::fprintf(stderr, "sweep cell %zu failed: %s\n", i,
                   outcomes[i].error.c_str());
      failed = true;
    }
  }
  if (failed) {
    std::exit(1);
  }
  if (opts_.shard_mode) {
    return std::nullopt;
  }
  std::vector<ResultSet> results;
  results.reserve(outcomes.size());
  for (CellOutcome& outcome : outcomes) {
    results.push_back(std::move(outcome.result));
  }
  return results;
}

void SweepRunner::stream_sweep(std::size_t section, std::uint64_t fingerprint,
                               const std::string& digest,
                               const std::vector<CellOutcome>& outcomes,
                               const recov::SweepEndStats& stats) {
  // --shard-serve: the sweep's journal records go to the one --merge peer
  // the moment the sweep ends, so the merge folds them in while later
  // sweeps are still computing.  The peer is accepted on the first sweep.
  if (shard_conn_ == nullptr) {
    try {
      shard_conn_ = std::make_unique<FrameChannel>(
          shard_listener_->accept_client().release());
    } catch (const net::Error& e) {
      std::fprintf(stderr, "shard: %s\n", e.what());
      std::exit(1);
    }
  }
  const auto send = [&](const wire::Frame& record) {
    if (!shard_conn_->send(record.type, record.payload)) {
      std::fprintf(stderr,
                   "shard: the --merge peer hung up before taking sweep "
                   "section %zu\n",
                   section);
      std::exit(1);
    }
  };
  send(recov::sweep_begin_record(section, fingerprint, outcomes.size(),
                                 digest));
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (opts_.shard.owns(i) && outcomes[i].ok()) {
      send(recov::cell_committed_record(section, i, outcomes[i].result));
    }
  }
  send(recov::sweep_end_record(section, stats));
}

std::string fmt_ci(double value, double half_width, int precision) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%.*f +- %.*f", precision, value, precision,
                half_width);
  return buf;
}

std::string fmt_dev(double measured, double reference) {
  if (reference == 0.0) {
    return "n/a";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.2f%%",
                100.0 * (measured - reference) / reference);
  return buf;
}

std::string scheme_summary(const ResultSet& async_exact,
                           const ResultSet& sync_exact,
                           const ResultSet& prp_exact) {
  std::ostringstream os;
  os << "asynchronous : E[X] = " << async_exact.value("mean_interval_x")
     << " (sd " << async_exact.value("stddev_interval_x") << "), E[L] =";
  for (std::size_t i = 0; async_exact.has(indexed_metric("rp_count_", i));
       ++i) {
    os << ' ' << async_exact.value(indexed_metric("rp_count_", i));
  }
  os << '\n';
  os << "synchronized : E[Z] = " << sync_exact.value("sync_mean_max_wait")
     << ", loss CL = " << sync_exact.value("sync_mean_loss") << '\n';
  os << "pseudo RPs   : " << prp_exact.value("prp_snapshots_per_rp")
     << " states/RP, +" << prp_exact.value("prp_time_overhead_per_rp")
     << " time/RP, rollback bound E[sup y] = "
     << prp_exact.value("prp_mean_rollback_bound");
  return os.str();
}

void print_banner(const std::string& experiment_id,
                  const std::string& description) {
  std::printf("================================================================\n");
  std::printf("%s - Shin & Lee, 'Analysis of Backward Error Recovery for\n",
              experiment_id.c_str());
  std::printf("Concurrent Processes with Recovery Blocks' (ICPP 1983)\n");
  std::printf("%s\n", description.c_str());
  std::printf("================================================================\n");
}

}  // namespace rbx
