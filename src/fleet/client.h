// Client sides of the fleet registry conversation.
//
// RegistryClient is the blocking request/reply client both roles share:
// it opens a framed connection, runs the versioned Hello handshake through
// the coordinator's handshake codec (core/lane.h: the HMAC challenge
// answered when a key is set, the ack's echo checked), and then speaks
// Join/Heartbeat/Leave/Resolve.  Refusals arrive as kFrameError frames
// and are rethrown as net::Error with the registry's message - a
// mis-keyed peer fails loudly and immediately, never hangs.
//
// FleetMembership is what a sweep_workerd daemon runs alongside its
// serve() loop: join the registry at startup, heartbeat on a timer from
// a background thread, leave on orderly shutdown.  A lost registry is
// retried on the heartbeat cadence (re-join on reconnect), so a
// restarted registry re-learns the fleet within one heartbeat interval
// without any daemon restarts.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "core/lane.h"
#include "fleet/proto.h"
#include "net/socket.h"

namespace rbx {
namespace fleet {

struct RegistryClientOptions {
  net::Endpoint registry;
  std::string auth_key;     // empty = unauthenticated
  int connect_retries = 10;  // 200 ms apart, riding out a starting registry
};

class RegistryClient {
 public:
  explicit RegistryClient(RegistryClientOptions options);
  ~RegistryClient();

  // Connects and handshakes; throws net::Error on an unreachable registry
  // or a refused handshake (wrong key, version skew).  Reconnecting an
  // already-connected client is a no-op.
  void connect();
  bool connected() const { return conn_ != nullptr && conn_->open(); }
  void close();

  // Membership verbs; each connects on demand and throws net::Error on
  // refusal or a lost registry.
  void join(const JoinInfo& info);
  void heartbeat(const JoinInfo& info);
  void leave(const JoinInfo& info);
  GrantResponse resolve(const ResolveRequest& req);

 private:
  // One request/reply exchange; drops the connection on any error so the
  // next verb reconnects cleanly.
  wire::Frame roundtrip(std::uint16_t type,
                        const std::vector<std::byte>& payload,
                        std::uint16_t expect);

  RegistryClientOptions options_;
  std::unique_ptr<FrameChannel> conn_;
};

struct MembershipOptions {
  net::Endpoint registry;
  JoinInfo self;            // the endpoint this daemon advertises
  std::string auth_key;
  int heartbeat_ms = 2000;  // must be well under the registry's
                            // evict_after_ms or the daemon flaps
  bool quiet = false;
};

// The daemon's registry presence: join now, heartbeat forever, leave on
// stop().  Heartbeats run on their own thread so the serve() loop never
// blocks on registry I/O.
class FleetMembership {
 public:
  explicit FleetMembership(MembershipOptions options);
  ~FleetMembership();

  // Joins the registry (throws net::Error if it is unreachable or
  // refuses - a daemon that cannot join should fail loudly at startup,
  // not serve invisibly) and starts the heartbeat thread.
  void start();

  // Best-effort Leave, then stops the heartbeat thread.  Idempotent.
  void stop();

  // Stops heartbeating WITHOUT leaving - crash semantics: the daemon's
  // entry lingers in the registry until its heartbeats expire, exactly as
  // if the process had been SIGKILLed.  The fail-after test hook uses
  // this so a simulated kill exercises the same eviction path a real one
  // does.
  void abandon();

 private:
  void heartbeat_loop();

  MembershipOptions options_;
  RegistryClient client_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
};

}  // namespace fleet
}  // namespace rbx
