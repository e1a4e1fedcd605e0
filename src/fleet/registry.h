// The fleet registry: membership, liveness and fair-share leasing.
//
// MemberTable is the pure membership state machine - every operation
// takes an explicit `now_ms`, so unit tests drive heartbeat expiry and
// lease ageing deterministically without sleeping.  Liveness is soft
// state in the failure-detector style: a member that has not heartbeated
// within `evict_after_ms` is evicted lazily (checked on every resolve and
// join), so an expired member is *never* handed to a coordinator even if
// no maintenance tick ran.
//
// Fair scheduling: each resolve() is a coordinator asking for workers.
// Coordinators whose leases have not yet expired (lease_ttl_ms) count as
// contenders; the live weighted capacity is split evenly among them and
// each coordinator is granted the least-leased members first, so two
// sweeps arriving together get disjoint halves of the fleet while a lone
// sweep gets all of it.  A re-resolve from the same coordinator releases
// its old leases first - re-resolving (e.g. to find a backfill candidate
// mid-sweep) never double-counts a coordinator.
//
// Every granted member carries a lease token signed with the pre-shared
// key (fleet/auth.h); workers verify the signature in the Hello
// handshake without talking to the registry.
//
// RegistryServer serves the table over TCP on the session server both
// daemons share (net/session.h): versioned Hello handshake first (HMAC
// challenge/response when a key is set), then Join/Heartbeat/Leave/
// Resolve frames until EOF.  Those four frames are all it adds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "fleet/proto.h"
#include "net/session.h"

namespace rbx {
namespace fleet {

struct MemberTableOptions {
  std::int64_t evict_after_ms = 10000;  // heartbeat silence before eviction
  std::int64_t lease_ttl_ms = 60000;    // how long a coordinator counts as
                                        // a contender after its last resolve
  std::string auth_key;                 // signs lease tokens; empty = open
};

class MemberTable {
 public:
  explicit MemberTable(const MemberTableOptions& options) : opt_(options) {}

  // Join and heartbeat are the same transition (register-or-refresh),
  // keyed by the advertised endpoint: a restarted daemon re-joining its
  // old endpoint refreshes the entry instead of duplicating it.
  void join(const JoinInfo& info, std::int64_t now_ms);
  void heartbeat(const JoinInfo& info, std::int64_t now_ms) {
    join(info, now_ms);
  }
  // Orderly departure; unknown endpoints are ignored.
  void leave(const std::string& endpoint);

  // Lease a fair share of the live members to this coordinator.  Expired
  // members are evicted first and never granted.  Returns an empty grant
  // when no member is live.
  GrantResponse resolve(const ResolveRequest& req, std::int64_t now_ms);

  // Live member count after lazy eviction at `now_ms`.
  std::size_t live(std::int64_t now_ms);

 private:
  struct Member {
    JoinInfo info;
    std::int64_t last_seen_ms = 0;
    std::size_t leases = 0;  // active leases held on this member
    std::uint64_t joined_seq = 0;  // stable grant ordering
  };
  struct CoordinatorLeases {
    std::int64_t issued_ms = 0;
    std::vector<std::string> endpoints;
  };

  void evict_expired(std::int64_t now_ms);
  void release_leases(std::uint64_t coordinator_id);

  MemberTableOptions opt_;
  std::mutex mutex_;
  std::map<std::string, Member> members_;  // by endpoint
  std::map<std::uint64_t, CoordinatorLeases> coordinators_;
  std::uint64_t next_token_ = 1;
  std::uint64_t next_seq_ = 1;
};

struct RegistryOptions {
  std::uint16_t port = 0;  // 0 = ephemeral; port() has the truth
  bool quiet = false;
  std::size_t max_sessions = 16;
  MemberTableOptions table;
};

class RegistryServer {
 public:
  // Binds and listens immediately (throws net::Error on failure).
  explicit RegistryServer(const RegistryOptions& options);

  std::uint16_t port() const { return server_.port(); }

  // Accept-and-serve loop until stop().  Always returns true: no
  // membership frame fails the server.
  bool serve() { return server_.serve(); }
  void stop() { server_.stop(); }

 private:
  MemberTable table_;
  net::SessionServer server_;  // last: its sessions use table_
};

// Milliseconds on the monotonic clock - the `now_ms` feed for the live
// daemons (tests feed MemberTable explicit values instead).
std::int64_t steady_now_ms();

}  // namespace fleet
}  // namespace rbx
