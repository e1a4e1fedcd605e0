#include "net/session.h"

#include <sys/socket.h>

#include <cstdio>
#include <utility>
#include <vector>

#include "fleet/auth.h"
#include "support/io.h"

namespace rbx {
namespace net {

namespace {

bool send_error(FrameChannel& conn, const std::string& message) {
  wire::Writer w;
  w.str(message);
  return conn.send(kFrameError, w.data());
}

// Half-close, then drain until the peer hangs up (bounded).  Used when
// refusing a peer whose frames may still be unread - a coordinator or a
// registry client pipelines its Hello right after connect, and a close()
// with unread data makes the kernel send RST, which can destroy the
// refusal frame before the peer reads it; the "loud" refusal would
// arrive as a bare connection reset.
void linger_close(FrameChannel& conn) {
  if (!conn.open()) {
    return;
  }
  ::shutdown(conn.fd(), SHUT_WR);
  std::byte sink[1024];
  for (int i = 0; i < 20; ++i) {  // at most ~2 s for a wedged peer
    pollfd pfd{conn.fd(), POLLIN, 0};
    const int ready = io::poll_retry(&pfd, 1, 100);
    if (ready < 0) {
      break;
    }
    if (ready == 0) {
      continue;
    }
    if (io::read_some(conn.fd(), sink, sizeof(sink)) <= 0) {
      break;  // peer read the error and closed (or died)
    }
  }
}

}  // namespace

SessionServer::SessionServer(const SessionNames& names, std::uint16_t port,
                             std::size_t max_sessions, bool once, bool quiet,
                             std::string auth_key, Opener open)
    : names_(names),
      max_sessions_(max_sessions),
      once_(once),
      quiet_(quiet),
      auth_key_(std::move(auth_key)),
      open_(std::move(open)),
      listener_(port) {}

SessionServer::~SessionServer() {
  stop();
  reap_sessions(/*all=*/true);
}

void SessionServer::stop() {
  stopping_.store(true);
  listener_.abort();
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  for (auto& session : sessions_) {
    session->conn.abort();
  }
}

void SessionServer::reap_sessions(bool all) {
  std::vector<std::unique_ptr<Session>> taken;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (all || (*it)->done.load()) {
        taken.push_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join outside the lock: a failing session takes the lock to abort its
  // peers, and must never wait on a holder that is itself blocked joining
  // a thread.
  for (auto& session : taken) {
    if (all) {
      session->conn.abort();
    }
    if (session->thread.joinable()) {
      session->thread.join();
    }
  }
}

bool SessionServer::serve() {
  for (;;) {
    Socket client;
    try {
      client = listener_.accept_client();
    } catch (const Error&) {
      if (stopping_.load() || failed_.load()) {
        break;  // abort()ed listener, not an infrastructure failure
      }
      reap_sessions(/*all=*/true);
      throw;
    }
    reap_sessions(/*all=*/false);
    auto session = std::make_unique<Session>(std::move(client));
    Session* raw = session.get();
    std::size_t active = 0;
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      // Checked under the lock stop() aborts sessions under, so a session
      // admitted here is either seen by stop() or never started.
      if (stopping_.load() || failed_.load()) {
        break;
      }
      for (const auto& other : sessions_) {
        if (!other->done.load()) {
          ++active;
        }
      }
      if (active < max_sessions_) {
        sessions_.push_back(std::move(session));
      }
    }
    if (session != nullptr) {
      // Refuse loudly instead of queueing.  (A peer that connects in the
      // instant between a session's end and its thread retiring can be
      // refused spuriously - that window is a few instructions wide and
      // indistinguishable from connecting a moment earlier, while the
      // daemon really was full.)
      refuse_full(std::move(session->conn), active);
      continue;
    }
    if (once_) {
      run_session(*raw);  // the one session, on the caller's thread
      break;
    }
    raw->thread = std::thread([this, raw]() { run_session(*raw); });
  }
  reap_sessions(/*all=*/true);
  return !failed_.load();
}

void SessionServer::run_session(Session& session) {
  const bool ok = serve_frames(session.conn);
  // Hang up now - a refused peer waiting for EOF must see it when the
  // session ends, not when the next accept happens to reap it.  abort(),
  // which leaves the fd owned, is the call that is safe against a
  // concurrent stop(); the fd itself is released when the session is
  // reaped.
  session.conn.abort();
  // Retire from the session head count the moment the work is over
  // (reap_sessions join-blocks until the thread truly exits, so the early
  // store is safe).
  session.done.store(true);
  if (!ok) {
    // The handler failed the server: every session - and the accept loop
    // - goes down with it.
    failed_.store(true);
    stop();
  }
}

void SessionServer::refuse_full(FrameChannel conn, std::size_t active) {
  if (!quiet_) {
    std::fprintf(stderr, "%s: refused a %s (at the %s=%zu cap)\n",
                 names_.program, names_.peer, names_.cap, max_sessions_);
  }
  std::string why = std::string(names_.self) + " is already serving " +
                    std::to_string(active) + " " + names_.peer + "s (" +
                    names_.cap + "=" + std::to_string(max_sessions_) + ")";
  // On a detached thread: the peer pipelines its Hello right behind
  // connect(), and closing with it unread would RST the refusal frame
  // away, so the refusal must linger until the peer reads it - but that
  // drain (bounded at ~2 s against a wedged peer) must never stall the
  // accept loop, or refusals would re-create the very backlog they exist
  // to avoid.  The thread owns nothing but the socket, so it may safely
  // outlive the server.
  std::thread([conn = std::move(conn), why = std::move(why)]() mutable {
    send_error(conn, why);
    linger_close(conn);
  }).detach();
}

bool SessionServer::serve_frames(FrameChannel& conn) {
  const std::unique_ptr<SessionHandler> handler = open_();
  const std::string self = names_.self;
  bool admitted = false;
  for (;;) {
    wire::Frame frame;
    bool got = false;
    try {
      got = conn.recv(&frame);
    } catch (const wire::Error& e) {
      // Corrupt framing: tell the peer why, then hang up.  A coordinator
      // re-queues whatever it had in flight here.
      send_error(conn, self + ": corrupt request stream: " + e.what());
      return true;
    }
    if (!got) {
      return true;  // the peer closed the connection
    }
    try {
      if (frame.type == kFrameHello) {
        if (!check_hello(conn, frame, *handler)) {
          return true;
        }
        admitted = true;
        continue;
      }
      if (!admitted) {
        send_error(conn, self +
                             ": frame before the Hello handshake (refusing "
                             "unversioned traffic)");
        return true;
      }
      switch (handler->serve(conn, frame)) {
        case Verdict::kServed:
          break;
        case Verdict::kHangUp:
          return true;
        case Verdict::kUnexpected:
          send_error(conn, self + ": unexpected frame type " +
                               std::to_string(frame.type));
          return true;
        case Verdict::kFail:
          return false;
      }
    } catch (const wire::Error& e) {
      send_error(conn, self + ": malformed payload: " + e.what());
      return true;
    }
  }
}

bool SessionServer::check_hello(FrameChannel& conn, const wire::Frame& frame,
                                SessionHandler& handler) {
  wire::Reader r(frame.payload);
  const Hello hello = Hello::decode(r);
  r.expect_done();
  const std::string self = names_.self;
  const std::string peer = names_.peer;
  if (hello.protocol != kProtocolVersion) {
    send_error(conn, self + " speaks cluster protocol " +
                         std::to_string(kProtocolVersion) + ", " + peer +
                         " sent " + std::to_string(hello.protocol));
    return false;
  }
  if (hello.wire_version != wire::kVersion) {
    send_error(conn, self + " encodes wire version " +
                         std::to_string(wire::kVersion) + ", " + peer +
                         " sent " + std::to_string(hello.wire_version));
    return false;
  }
  if (!auth_key_.empty()) {
    // Key possession first: the refusal must be a loud error frame (the
    // peer prints it and gives up), never a hang.
    if ((hello.flags & kHelloFlagAuth) == 0) {
      send_error(conn, self +
                           " requires authentication (--auth-key-file); " +
                           peer + " presented no key");
      return false;
    }
    const std::string challenge = fleet::make_challenge();
    wire::Writer cw;
    cw.str(challenge);
    if (!conn.send(kFrameAuthChallenge, cw.data())) {
      return false;
    }
    wire::Frame reply;
    if (!conn.recv(&reply) || reply.type != kFrameAuthResponse) {
      send_error(conn, self + ": expected an auth response");
      return false;
    }
    wire::Reader rr(reply.payload);
    const std::string mac = rr.str();
    rr.expect_done();
    if (!fleet::mac_equal(mac, fleet::auth_mac(auth_key_, challenge))) {
      send_error(conn,
                 self + ": authentication failed (wrong --auth-key-file?)");
      return false;
    }
  }
  const std::string refusal = handler.admit(hello);
  if (!refusal.empty()) {
    send_error(conn, refusal);
    return false;
  }
  wire::Writer w;
  hello.encode(w);  // echo, fingerprint and flags included
  return conn.send(kFrameHelloAck, w.data());
}

}  // namespace net
}  // namespace rbx
