// The one session server both daemons run: sweep_workerd (net/worker.h)
// and fleet_registryd (fleet/registry.h).
//
// A SessionServer owns one listening TCP port and serves each accepted
// connection as a *session* on its own thread, so a second peer never
// wedges in the accept backlog behind the first.  Sessions cap at
// `max_sessions`; a peer beyond the cap is refused with a kFrameError
// instead of being silently queued, which would look exactly like a
// wedged daemon.  `once` serves one connection through the same session
// path, then serve() returns.
//
// Every session opens with the versioned Hello handshake of core/lane.h,
// and when the daemon holds a pre-shared key, with the HMAC
// challenge/response of fleet/auth.h inside it.  Nothing is served
// before it: a frame sent first is refused with kFrameError and the
// session is hung up, because it would bypass the protocol and
// wire-version checks.  Past the handshake each frame goes to the
// daemon's SessionHandler - the worker's cell batches, the registry's
// membership frames - which is all a daemon implements.  Every refusal
// is a loud kFrameError followed by a hang-up, never a silent close.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "core/lane.h"
#include "net/socket.h"
#include "support/wire.h"

namespace rbx {
namespace net {

// What a handler made of one frame of an admitted session.
enum class Verdict {
  kServed,      // answered; read the next frame
  kHangUp,      // end the session (the peer went away mid-answer)
  kUnexpected,  // a frame type this daemon does not serve: refuse, hang up
  kFail,        // fail the server: every session is dropped and serve()
                // returns false (the worker's --fail-after kill)
};

// The daemon-specific half of one session.  Made on the session's own
// thread when the connection is accepted and destroyed there when the
// session ends, so per-session state and thread-local scopes live here.
class SessionHandler {
 public:
  virtual ~SessionHandler() = default;
  // Called for each Hello that passed the shared checks, before the ack:
  // "" admits it; anything else is sent as the refusal.
  virtual std::string admit(const Hello&) { return {}; }
  // One frame of an admitted session.  A wire::Error thrown here is
  // refused as a malformed payload.
  virtual Verdict serve(FrameChannel& conn, const wire::Frame& frame) = 0;
};

// How a daemon names itself in its refusals and stderr notes.
struct SessionNames {
  const char* program;  // "sweep_workerd"
  const char* self;     // "worker"
  const char* peer;     // "coordinator"
  const char* cap;      // the session cap's name, "--max-coordinators"
};

class SessionServer {
 public:
  using Opener = std::function<std::unique_ptr<SessionHandler>()>;

  // Binds and listens immediately (throws net::Error on failure), so the
  // port is known - and connectable - before serve() is entered.  A
  // non-empty `auth_key` makes every Hello pass the HMAC challenge.
  SessionServer(const SessionNames& names, std::uint16_t port,
                std::size_t max_sessions, bool once, bool quiet,
                std::string auth_key, Opener open);
  ~SessionServer();  // stops, then aborts and joins every session

  std::uint16_t port() const { return listener_.port(); }

  // Accept-and-serve loop.  Returns false as soon as a handler fails the
  // server; true after stop(), or after the one session of `once`.
  bool serve();

  // Thread-safe shutdown: unblocks the accept loop and every session so
  // serve() returns.
  void stop();

 private:
  struct Session {
    explicit Session(Socket sock) : conn(sock.release()) {}
    FrameChannel conn;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  // One session until it ends, then its hang-up and retirement.
  void run_session(Session& session);
  // The session's frame loop; false = its handler failed the server.
  bool serve_frames(FrameChannel& conn);
  // The handshake of one Hello; false = refused (the session ends).
  bool check_hello(FrameChannel& conn, const wire::Frame& frame,
                   SessionHandler& handler);
  // Refuses a peer beyond the cap on a detached thread.
  void refuse_full(FrameChannel conn, std::size_t active);
  // Joins sessions whose threads have finished; with `all`, aborts and
  // joins every session (shutdown).
  void reap_sessions(bool all);

  const SessionNames names_;
  const std::size_t max_sessions_;
  const bool once_;
  const bool quiet_;
  const std::string auth_key_;
  const Opener open_;
  Listener listener_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> failed_{false};
  std::mutex sessions_mutex_;
  std::list<std::unique_ptr<Session>> sessions_;
};

}  // namespace net
}  // namespace rbx
