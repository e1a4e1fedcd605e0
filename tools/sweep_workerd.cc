// sweep_workerd - the worker daemon of the cluster transport.
//
// Run one per host, point any bench at them, and one sweep spans the
// fleet:
//
//   host A$ sweep_workerd --serve=4701
//   host B$ sweep_workerd --serve=4701
//   head $ fig5_mean_interval --connect=hostA:4701,hostB:4701
//
// The daemon is bench-agnostic: cells arrive as wire frames carrying a
// Scenario plus an EvalPlan (which registered backends to evaluate and
// how to merge their metrics), so the same daemon serves every bench and
// needs no redeploy when a bench changes its tables.  Per-cell seeds ride
// in the scenarios, making the daemon's answers bitwise identical to a
// local run.
//
// The daemon is long-running and serves coordinators *concurrently* -
// each connection is an independent session on its own thread, so two
// sweeps (or two users) can share one worker fleet without the second
// coordinator wedging in the accept backlog behind the first.  It is
// also safe to kill and restart a daemon while sweeps are running:
// coordinators roll the lost cells back to the surviving workers, retry
// the endpoint on a backoff timer, and *re-admit* the restarted daemon
// mid-sweep once it passes the handshake again - with byte-identical
// output either way.
//
// Flags (strict; anything malformed exits 2, like the bench flags):
//   --serve=PORT     listen on PORT (required; 0 = ephemeral, printed)
//   --max-coordinators=N
//                    serve up to N concurrent coordinator sessions
//                    (default 4); one beyond the cap is refused with an
//                    error frame, never silently backlogged
//   --once           exit after the first coordinator disconnects
//   --fail-after=N   drop a session instead of serving its batch N+1 and
//                    exit 1 - a deterministic "worker killed mid-sweep"
//                    for recovery tests and CI chaos runs
//   --delay-ms=N     stall N ms before evaluating each batch - a
//                    deterministic straggler for work-stealing tests and
//                    CI throttle runs
//   --cache-dir=DIR  remember every evaluated cell in DIR/cache.rbxj and
//                    answer repeated cells from the cache (bitwise
//                    identical to evaluating; only faster).  DIR must
//                    exist.  Coordinators opt out with --no-cache.
//   --cache-max-bytes=N
//                    cap the cache file at N bytes: at startup the oldest
//                    entries are dropped until the rest fit and the file
//                    is compacted in place (0 = unlimited, the default)
//   --fleet=HOST:PORT
//                    join this fleet registry (tools/fleet_registryd) at
//                    startup and heartbeat it so coordinators can resolve
//                    this daemon with --fleet instead of naming it on a
//                    --connect list; leave on orderly shutdown.  A daemon
//                    that dies (or is killed) simply stops heartbeating
//                    and is evicted by the registry's timeout
//   --advertise=HOST the host coordinators should dial for this daemon
//                    (default 127.0.0.1; on a real fleet, this host's
//                    reachable name)
//   --weight=N       fair-share weight in the registry's scheduling
//                    (default 1; a daemon on a 2x machine advertises 2)
//   --heartbeat-ms=N heartbeat period (default 2000; keep it well under
//                    the registry's --evict-after-ms)
//   --auth-key-file=PATH
//                    pre-shared fleet key: every coordinator session must
//                    prove key possession in an HMAC challenge/response
//                    during the Hello handshake (a keyless or wrong-keyed
//                    coordinator is refused with an error frame), and the
//                    registry join authenticates with the same key
//   --eval-threads=N intra-cell thread budget per session: the
//                    Monte-Carlo stream pool of a --streams=K cell
//                    (core/eval_context.h; default 1); it bounds resources
//                    only and never changes a result
//   --quiet          no connection notes on stderr
#include <cstdio>
#include <cstring>
#include <memory>

#include "core/experiment.h"
#include "fleet/auth.h"
#include "fleet/client.h"
#include "net/worker.h"
#include "support/wire.h"

namespace {

[[noreturn]] void usage_error(const char* prog, const char* arg,
                              const char* why) {
  std::fprintf(stderr, "%s: bad argument '%s' (%s)\n", prog, arg, why);
  std::fprintf(stderr,
               "usage: %s --serve=PORT [--max-coordinators=N] [--once]\n"
               "       [--fail-after=N] [--delay-ms=N] [--cache-dir=DIR]\n"
               "       [--cache-max-bytes=N] [--fleet=HOST:PORT]\n"
               "       [--advertise=HOST] [--weight=N] [--heartbeat-ms=N]\n"
               "       [--auth-key-file=PATH] [--eval-threads=N] [--quiet]\n",
               prog);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rbx;
  net::WorkerOptions opts;
  const char* prog = argc > 0 ? argv[0] : "sweep_workerd";
  bool serve_given = false;
  bool fleet_given = false;
  net::Endpoint fleet_registry;
  std::string advertise = "127.0.0.1";
  std::uint32_t weight = 1;
  int heartbeat_ms = 2000;
  std::string auth_key_file;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--serve=", 8) == 0) {
      std::uint64_t port = 0;
      if (!parse_strict_u64(arg + 8, &port) || port > 65535) {
        usage_error(prog, arg, "expected a port in 0..65535");
      }
      opts.port = static_cast<std::uint16_t>(port);
      serve_given = true;
    } else if (std::strncmp(arg, "--fail-after=", 13) == 0) {
      std::uint64_t n = 0;
      if (!parse_strict_u64(arg + 13, &n)) {
        usage_error(prog, arg, "expected a non-negative integer");
      }
      opts.fail_after = static_cast<std::size_t>(n);
    } else if (std::strncmp(arg, "--max-coordinators=", 19) == 0) {
      std::uint64_t n = 0;
      if (!parse_strict_u64(arg + 19, &n) || n == 0) {
        usage_error(prog, arg, "expected a positive integer");
      }
      opts.max_coordinators = static_cast<std::size_t>(n);
    } else if (std::strncmp(arg, "--eval-threads=", 15) == 0) {
      std::uint64_t n = 0;
      if (!parse_strict_u64(arg + 15, &n) || n == 0) {
        usage_error(prog, arg, "expected a positive thread count");
      }
      opts.eval_threads = static_cast<std::size_t>(n);
    } else if (std::strncmp(arg, "--delay-ms=", 11) == 0) {
      std::uint64_t n = 0;
      if (!parse_strict_u64(arg + 11, &n)) {
        usage_error(prog, arg, "expected a non-negative integer");
      }
      opts.delay_ms = static_cast<std::size_t>(n);
    } else if (std::strncmp(arg, "--cache-dir=", 12) == 0) {
      if (arg[12] == '\0') {
        usage_error(prog, arg, "expected a directory path");
      }
      opts.cache_dir = arg + 12;
    } else if (std::strncmp(arg, "--cache-max-bytes=", 18) == 0) {
      std::uint64_t n = 0;
      if (!parse_strict_u64(arg + 18, &n)) {
        usage_error(prog, arg, "expected a non-negative byte count");
      }
      opts.cache_max_bytes = static_cast<std::size_t>(n);
    } else if (std::strncmp(arg, "--fleet=", 8) == 0) {
      std::string why;
      if (!net::parse_endpoint(arg + 8, &fleet_registry, &why)) {
        usage_error(prog, arg, why.c_str());
      }
      fleet_given = true;
    } else if (std::strncmp(arg, "--advertise=", 12) == 0) {
      if (arg[12] == '\0') {
        usage_error(prog, arg, "expected a host name");
      }
      advertise = arg + 12;
    } else if (std::strncmp(arg, "--weight=", 9) == 0) {
      std::uint64_t n = 0;
      if (!parse_strict_u64(arg + 9, &n) || n == 0 || n > 0xffffffffull) {
        usage_error(prog, arg, "expected a positive 32-bit weight");
      }
      weight = static_cast<std::uint32_t>(n);
    } else if (std::strncmp(arg, "--heartbeat-ms=", 15) == 0) {
      std::uint64_t n = 0;
      if (!parse_strict_u64(arg + 15, &n) || n == 0 || n > 2147483647ull) {
        usage_error(prog, arg, "expected a positive millisecond count");
      }
      heartbeat_ms = static_cast<int>(n);
    } else if (std::strncmp(arg, "--auth-key-file=", 16) == 0) {
      if (arg[16] == '\0') {
        usage_error(prog, arg, "expected a key file path");
      }
      auth_key_file = arg + 16;
    } else if (std::strcmp(arg, "--once") == 0) {
      opts.once = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      opts.quiet = true;
    } else {
      usage_error(prog, arg, "unknown flag");
    }
  }
  if (!serve_given) {
    usage_error(prog, "--serve", "required flag missing");
  }
  try {
    if (!auth_key_file.empty()) {
      opts.auth_key = fleet::load_auth_key(auth_key_file);
    }
    net::WorkerServer server(opts);
    std::printf("sweep_workerd: listening on port %u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    // Registry membership starts after the listener is up (the advertised
    // port must be dialable - and with --serve=0, known - before any
    // coordinator can be granted it).
    std::unique_ptr<fleet::FleetMembership> membership;
    if (fleet_given) {
      fleet::MembershipOptions mopts;
      mopts.registry = fleet_registry;
      mopts.self = fleet::JoinInfo{advertise, server.port(), weight};
      mopts.auth_key = opts.auth_key;
      mopts.heartbeat_ms = heartbeat_ms;
      mopts.quiet = opts.quiet;
      membership = std::make_unique<fleet::FleetMembership>(mopts);
      membership->start();  // throws if the registry is unreachable or
                            // refuses the key: fail loudly at startup
    }
    const bool ok = server.serve();
    if (membership != nullptr) {
      if (ok) {
        membership->stop();  // orderly departure: Leave the registry
      } else {
        // Simulated kill (--fail-after): no Leave, no heartbeats - the
        // registry must evict this daemon by timeout, exactly as after a
        // real SIGKILL.
        membership->abandon();
      }
    }
    return ok ? 0 : 1;
  } catch (const net::Error& e) {
    std::fprintf(stderr, "sweep_workerd: %s\n", e.what());
    return 1;
  } catch (const wire::Error& e) {
    // A bad --cache-dir (missing directory, unreadable cache file).
    std::fprintf(stderr, "sweep_workerd: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // An unreadable --auth-key-file, or a refused registry join.
    std::fprintf(stderr, "sweep_workerd: %s\n", e.what());
    return 1;
  }
}
