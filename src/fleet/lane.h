// FleetLane: the one remote lane of the dispatch layer, behind both
// --connect=host:port,... and --fleet=host:port.
//
// The lane draws its workers from a member source.  With --fleet the
// source is the registry: at sweep start it resolves the live member set
// (a fair-share grant when other coordinators contend) and raises one
// worker per granted member, each carrying its signed lease into the
// Hello handshake.  With --connect the source is the static member list
// in the options - a fleet whose membership never changes, read in place
// of a registry grant, with no lease on the Hello.  Either way every
// worker speaks the same framed protocol and authenticates the same way,
// so the sweep's bytes are identical.
//
// The lane generalizes the dispatch loop's re-admission seam from "the
// same endpoint reconnects" to "any member backfills the loss": when a
// worker dies mid-sweep, its revive() re-reads the member source and
// prefers a member this sweep is not already using - for a registry, a
// daemon that joined *after* the sweep started is a perfectly good
// replacement.  Only if no fresh member exists does it retry its old
// endpoint (the daemon may simply have restarted).  Heartbeat-expired
// members are evicted registry-side before every grant, so a dead daemon
// is never handed out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/lane.h"
#include "fleet/client.h"
#include "fleet/proto.h"
#include "net/socket.h"

namespace rbx {
namespace fleet {

struct FleetLaneOptions {
  net::Endpoint registry;
  // Static member source (--connect): when non-empty, these endpoints are
  // the membership start() and every revive read instead of asking the
  // registry, and the Hello carries no lease.
  std::vector<net::Endpoint> members;
  std::string auth_key;          // pre-shared key (daemons + registry)
  std::uint64_t coordinator_id = 0;  // 0 = derived from the pid; tests pin
                                     // it to make fair-share grants exact
  std::uint32_t max_workers = 0;     // cap on granted members; 0 = share
  // Extra connect attempts (200 ms apart) per member on the first sweep,
  // riding out daemons that are still starting up.
  int connect_retries = 10;
  bool quiet = false;
  // Whether an empty or wholly unreachable membership at sweep start is
  // fatal (a remote-only run must fail loudly) or survivable (hybrid runs
  // fall back to local lanes).
  bool required = true;
  // Base backoff before a lost worker hunts for a replacement; doubled
  // per consecutive failure by the dispatch loop.
  int readmit_delay_ms = 500;
};

class FleetLane final : public Lane {
 public:
  explicit FleetLane(FleetLaneOptions options);
  ~FleetLane() override;

  std::string name() const override { return "fleet"; }

  // Workers with an open connection right now.
  std::size_t live() const;
  // Mid-sweep losses replaced by a *different* member (the fresh-joiner
  // backfill path; same-endpoint re-admissions count in HybridExecutor's
  // readmitted counters instead).
  std::size_t backfills() const { return backfills_; }

  // First call: reads the member source (throws net::Error if the
  // registry is unreachable, refuses the key, or - with options.required -
  // grants nothing) and connects every member.  Later calls reuse the
  // persistent connections.
  void start(std::size_t cell_count, const CellFn& cell_fn,
             std::size_t eval_threads,
             std::vector<LaneWorker*>* out) override;
  void finish() override;  // keeps connections (persistent lane)

 private:
  struct FleetWorker;

  bool static_members() const { return !options_.members.empty(); }

  // The membership as it stands now: the static list (no leases), or a
  // fresh registry grant.  Throws net::Error if the registry cannot be
  // asked.
  GrantResponse resolve_members();

  // Re-reads the members for a lost worker and retargets it: a member no
  // other worker of this lane is using, preferring one that is not the
  // lost endpoint.  False = nothing suitable right now (retry on the next
  // revive tick).
  bool retarget(FleetWorker* worker);

  FleetLaneOptions options_;
  RegistryClient client_;
  std::uint64_t coordinator_id_ = 0;
  bool resolved_ = false;
  std::size_t backfills_ = 0;
  std::vector<std::unique_ptr<FleetWorker>> workers_;
};

}  // namespace fleet
}  // namespace rbx
