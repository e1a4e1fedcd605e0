#include "fleet/lane.h"

#include <unistd.h>

#include <cstdio>
#include <utility>

namespace rbx {
namespace fleet {

struct FleetLane::FleetWorker final : LaneWorker {
  FleetWorker(FleetLane* lane, const GrantedMember& grant) : lane_(lane) {
    key_.auth_key = lane_->options_.auth_key;
    set_grant(grant);
  }

  void set_grant(const GrantedMember& grant) {
    endpoint_.host = grant.host;
    endpoint_.port = grant.port;
    // Only a registry grant carries a lease; a static member's Hello goes
    // out unleased, and a keyed daemon still authenticates it.
    key_.leased = !lane_->static_members();
    key_.lease_token = grant.lease_token;
    key_.lease_sig = grant.lease_sig;
  }

  std::string describe() const override { return endpoint_.to_string(); }
  FrameChannel* channel() override { return &channel_; }
  bool needs_plan() const override { return true; }
  const HelloKey* hello_key() const override { return &key_; }
  void retire() override { channel_.close(); }

  // A fleet worker is always worth reviving: even if *this* daemon is
  // gone for good (or was never reachable), another member may take its
  // place, or the daemon may come back.
  bool can_revive() const override { return true; }
  int revive_delay_ms() const override {
    return lane_->options_.readmit_delay_ms;
  }

  Revive revive() override {
    if (!lane_->retarget(this)) {
      return Revive::kFailed;
    }
    bool in_progress = false;
    std::string err;
    net::Socket sock = net::start_connect(endpoint_, &in_progress, &err);
    if (!sock.valid()) {
      return Revive::kFailed;
    }
    channel_ = FrameChannel(sock.release());
    return in_progress ? Revive::kPending : Revive::kReady;
  }

  bool revive_finish() override {
    std::string err;
    if (!net::finish_connect(channel_.fd(), &err) ||
        !net::set_blocking(channel_.fd(), true)) {
      channel_.close();
      return false;
    }
    return true;
  }

  FleetLane* lane_;
  net::Endpoint endpoint_;
  HelloKey key_;
  FrameChannel channel_;
};

FleetLane::FleetLane(FleetLaneOptions options)
    : options_(std::move(options)),
      client_(RegistryClientOptions{options_.registry, options_.auth_key,
                                    options_.connect_retries}) {
  coordinator_id_ = options_.coordinator_id != 0
                        ? options_.coordinator_id
                        : static_cast<std::uint64_t>(::getpid());
}

FleetLane::~FleetLane() = default;

std::size_t FleetLane::live() const {
  std::size_t n = 0;
  for (const auto& worker : workers_) {
    if (worker->channel_.open()) {
      ++n;
    }
  }
  return n;
}

void FleetLane::start(std::size_t cell_count, const CellFn& cell_fn,
                      std::vector<LaneWorker*>* out) {
  (void)cell_count;
  (void)cell_fn;  // fleet daemons evaluate plans, never local closures
  if (!resolved_) {
    resolved_ = true;
    GrantResponse grant;
    try {
      grant = resolve_members();
    } catch (const net::Error& e) {
      // A --fleet-only run must fail loudly; a hybrid run degrades to its
      // local lanes (the registry stays out of reach for this process).
      if (options_.required) {
        throw;
      }
      if (!options_.quiet) {
        std::fprintf(stderr, "fleet: %s (continuing without the fleet)\n",
                     e.what());
      }
      return;
    }
    if (!options_.quiet && !static_members()) {
      std::fprintf(stderr,
                   "fleet: registry %s granted %zu of %u live member(s)\n",
                   options_.registry.to_string().c_str(),
                   grant.members.size(),
                   static_cast<unsigned>(grant.live_members));
    }
    if (grant.members.empty() && options_.required) {
      throw net::Error("fleet: registry " +
                       options_.registry.to_string() +
                       " has no live members to grant (no daemon joined, "
                       "or all heartbeats expired)");
    }
    for (const GrantedMember& member : grant.members) {
      auto worker = std::make_unique<FleetWorker>(this, member);
      try {
        net::Socket sock =
            net::connect_to(worker->endpoint_, options_.connect_retries);
        worker->channel_ = FrameChannel(sock.release());
      } catch (const net::Error& e) {
        if (!options_.quiet) {
          std::fprintf(stderr,
                       "fleet: %s (leaving this member to the backfill "
                       "timer)\n",
                       e.what());
        }
      }
      workers_.push_back(std::move(worker));
    }
    if (live() == 0 && options_.required) {
      throw net::Error("fleet: none of the " +
                       std::to_string(workers_.size()) +
                       " members are reachable");
    }
  }
  for (const auto& worker : workers_) {
    out->push_back(worker.get());
  }
}

void FleetLane::finish() {
  // Persistent lane: connections and leases survive into the next sweep.
}

GrantResponse FleetLane::resolve_members() {
  GrantResponse grant;
  if (static_members()) {
    for (const net::Endpoint& member : options_.members) {
      grant.members.push_back(GrantedMember{member.host, member.port, 0, 0});
    }
    return grant;
  }
  ResolveRequest req;
  req.coordinator_id = coordinator_id_;
  req.max_workers = options_.max_workers;
  return client_.resolve(req);
}

bool FleetLane::retarget(FleetWorker* worker) {
  // Read the pool as it stands *now* - a registry has already evicted
  // anything heartbeat-expired, and a member that joined after the sweep
  // started is in the grant like any other.
  GrantResponse grant;
  try {
    grant = resolve_members();
  } catch (const net::Error& e) {
    if (!options_.quiet) {
      std::fprintf(stderr, "fleet: re-resolve failed (%s); will retry\n",
                   e.what());
    }
    return false;
  }
  const auto in_use = [&](const std::string& host, std::uint16_t port) {
    for (const auto& other : workers_) {
      if (other.get() == worker) {
        continue;
      }
      if (other->channel_.open() && other->endpoint_.host == host &&
          other->endpoint_.port == port) {
        return true;
      }
    }
    return false;
  };
  // Prefer a member this sweep is not already using and that is not the
  // endpoint we just lost (a fresh joiner backfilling the loss); fall
  // back to the lost endpoint itself if the membership still lists it -
  // the daemon may simply have restarted.
  const GrantedMember* fresh = nullptr;
  const GrantedMember* same = nullptr;
  for (const GrantedMember& member : grant.members) {
    if (in_use(member.host, member.port)) {
      continue;
    }
    const bool is_old = member.host == worker->endpoint_.host &&
                        member.port == worker->endpoint_.port;
    if (is_old) {
      same = &member;
    } else if (fresh == nullptr) {
      fresh = &member;
    }
  }
  const GrantedMember* pick = fresh != nullptr ? fresh : same;
  if (pick == nullptr) {
    return false;
  }
  if (fresh != nullptr) {
    ++backfills_;
    if (!options_.quiet) {
      std::fprintf(stderr,
                   "fleet: backfilling lost worker %s with member %s\n",
                   worker->endpoint_.to_string().c_str(),
                   pick->endpoint().c_str());
    }
  }
  worker->set_grant(*pick);
  return true;
}

}  // namespace fleet
}  // namespace rbx
