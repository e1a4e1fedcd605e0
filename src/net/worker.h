// The worker side of the cluster transport: a server that evaluates cell
// batches for remote coordinators.
//
// WorkerServer runs on the one session server both daemons share
// (net/session.h): each coordinator connection is a session on its own
// thread, capped at `max_coordinators`, opened by the versioned Hello
// handshake (with the HMAC challenge when `auth_key` is set) before any
// batch.  The worker adds only its batch handler.  Sessions are
// independent - each keeps its own cache opt-out and batch counter - and
// backends are stateless singletons (core/backend.h), so sessions
// evaluate concurrently without shared state.
//
// Cells arrive as kFrameCellBatch frames carrying EvalPlans - the worker
// has no access to bench code, so a cell without a plan is answered with
// a per-cell error - and every batch is answered with one
// kFrameResultBatch frame.  A Hello that carries a fleet lease is refused
// unless the lease is signed under `auth_key` (fleet/auth.h).
//
// The logic lives in the library (not in tools/sweep_workerd.cc) so tests
// can run a real worker on a loopback socket inside a thread, including
// the loss path: `fail_after` makes the worker drop a session with a
// batch in flight after serving N batches on it, which is how both
// tests/net/cluster_test.cc and the CI smoke job exercise the
// coordinator's re-queue recovery deterministically; `delay_ms` stalls
// every batch, the deterministic "straggler" for work-stealing tests.
//
// A daemon needs no special support for mid-sweep re-admission: a
// coordinator that lost this worker and reconnects is just a new session
// that must complete the same Hello handshake (the coordinator refuses
// its own reconnect if the fingerprint no longer matches its sweep) -
// which is why killing a daemon and restarting it, even mid-sweep, is an
// operation the fleet absorbs (tests/net/hybrid_test.cc and the CI
// re-admission smoke restart one deterministically).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "net/session.h"
#include "recov/cache.h"

namespace rbx {
namespace net {

struct WorkerOptions {
  std::uint16_t port = 0;      // 0 = ephemeral (tests); port() has the truth
  bool once = false;           // serve one connection, then return
  std::size_t fail_after = 0;  // drop the session instead of serving its
                               // batch N+1 (simulated worker loss); 0 = off
  bool quiet = false;          // no stderr notes
  std::size_t max_coordinators = 4;  // concurrent sessions; beyond this a
                                     // coordinator is refused, not queued
  std::size_t delay_ms = 0;    // artificial stall before each batch - a
                               // deterministic straggler for steal tests
  std::string cache_dir;       // non-empty: remember every evaluated cell
                               // in DIR/cache.rbxj and answer repeats from
                               // it (recov/cache.h); coordinators opt out
                               // per session with the no-cache Hello flag
  std::size_t cache_max_bytes = 0;  // startup size cap for the cache file
                                    // (oldest entries dropped, file
                                    // compacted); 0 = unlimited
  std::string auth_key;        // non-empty: every session must prove key
                               // possession in an HMAC challenge/response
                               // during the Hello handshake, and any lease
                               // it presents must carry a valid signature
                               // under the same key (fleet/auth.h); a
                               // keyless or wrong-keyed coordinator is
                               // refused with a kFrameError, never hung
  std::size_t eval_threads = 1;  // intra-cell thread budget per session
                                 // (the Monte-Carlo stream pool of
                                 // core/eval_context.h); results are
                                 // identical for any value - this daemon
                                 // owns the knob, --eval-threads=N
};

class WorkerServer {
 public:
  // Binds and listens immediately (throws net::Error on failure), so the
  // port is known - and connectable - before serve() is entered.
  explicit WorkerServer(const WorkerOptions& options);

  std::uint16_t port() const { return server_.port(); }

  // Accept-and-serve loop.  Returns false as soon as the fail_after hook
  // trips on any session (the daemon exits non-zero: this worker counts
  // as killed, and every other session is dropped with it); returns true
  // after one connection with options.once or after stop(); otherwise
  // loops forever, serving up to max_coordinators sessions at a time.
  bool serve() { return server_.serve(); }

  // Thread-safe shutdown: unblocks the accept loop and every session so
  // serve() returns.  Tests use this to stop a serve-forever daemon.
  void stop() { server_.stop(); }

 private:
  WorkerOptions options_;
  // The shared result cache (--cache-dir); sessions consult and fill it
  // concurrently (ResultCache is internally locked).  Null = no cache.
  std::unique_ptr<recov::ResultCache> cache_;
  SessionServer server_;  // last: its sessions use options_ and cache_
};

}  // namespace net
}  // namespace rbx
