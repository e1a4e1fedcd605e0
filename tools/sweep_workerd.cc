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
//   --delay-ms=N     stall N ms (at most 2147483647) before evaluating
//                    each batch - a deterministic straggler for
//                    work-stealing tests and CI throttle runs
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
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "fleet/auth.h"
#include "fleet/client.h"
#include "net/worker.h"
#include "support/flags.h"
#include "support/wire.h"

int main(int argc, char** argv) {
  using namespace rbx;
  net::WorkerOptions opts;
  net::Endpoint fleet_registry;
  std::string advertise = "127.0.0.1";
  std::uint32_t weight = 1;
  int heartbeat_ms = 2000;
  std::string auth_key_file;
  flags::Table table;
  table.flags = {
      {"--serve", "PORT",
       flags::count(&opts.port, 0, 65535, "expected a port in 0..65535"),
       /*required=*/true},
      {"--max-coordinators", "N",
       flags::count(&opts.max_coordinators, 1, UINT64_MAX,
                    "expected a positive integer")},
      {"--once", "", flags::on(&opts.once)},
      {"--fail-after", "N", flags::count(&opts.fail_after)},
      // Capped like --heartbeat-ms: the stall is a std::chrono duration,
      // and a value past 2^63 would wrap negative and never stall.
      {"--delay-ms", "N",
       flags::count(&opts.delay_ms, 0, 2147483647,
                    "expected a millisecond count (at most 2147483647)")},
      {"--cache-dir", "DIR",
       flags::text(&opts.cache_dir, "expected a directory path")},
      {"--cache-max-bytes", "N", flags::count(&opts.cache_max_bytes)},
      {"--fleet", "HOST:PORT",
       [&fleet_registry](const std::string& text) {
         std::string why;
         net::parse_endpoint(text, &fleet_registry, &why);
         return why;
       }},
      {"--advertise", "HOST", flags::text(&advertise, "expected a host name")},
      {"--weight", "N",
       flags::count(&weight, 1, 0xffffffffull,
                    "expected a positive 32-bit weight")},
      {"--heartbeat-ms", "N",
       flags::count(&heartbeat_ms, 1, 2147483647,
                    "expected a positive millisecond count")},
      {"--auth-key-file", "PATH",
       flags::text(&auth_key_file, "expected a key file path")},
      {"--eval-threads", "N",
       flags::count(&opts.eval_threads, 1, UINT64_MAX,
                    "expected a positive thread count")},
      {"--quiet", "", flags::on(&opts.quiet)},
  };
  const bool fleet_given =
      flags::parse(argc, argv, table).count("--fleet") != 0;
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
