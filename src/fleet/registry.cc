#include "fleet/registry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "fleet/auth.h"

namespace rbx {
namespace fleet {

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- MemberTable -----------------------------------------------------------

void MemberTable::evict_expired(std::int64_t now_ms) {
  // Lazy eviction on every query: an expired member must be invisible to
  // the very next resolve, not to the one after a maintenance tick.
  for (auto it = members_.begin(); it != members_.end();) {
    if (now_ms - it->second.last_seen_ms >= opt_.evict_after_ms) {
      it = members_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = coordinators_.begin(); it != coordinators_.end();) {
    if (now_ms - it->second.issued_ms >= opt_.lease_ttl_ms) {
      for (const std::string& ep : it->second.endpoints) {
        auto m = members_.find(ep);
        if (m != members_.end() && m->second.leases > 0) {
          --m->second.leases;
        }
      }
      it = coordinators_.erase(it);
    } else {
      ++it;
    }
  }
}

void MemberTable::join(const JoinInfo& info, std::int64_t now_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  evict_expired(now_ms);
  auto it = members_.find(info.endpoint());
  if (it == members_.end()) {
    Member m;
    m.info = info;
    m.last_seen_ms = now_ms;
    m.joined_seq = next_seq_++;
    members_.emplace(info.endpoint(), std::move(m));
  } else {
    // Register-or-refresh: a restarted daemon re-joining its endpoint
    // refreshes the entry (and may change its weight) instead of
    // duplicating it; leases held on it stay attached.
    it->second.info = info;
    it->second.last_seen_ms = now_ms;
  }
}

void MemberTable::leave(const std::string& endpoint) {
  std::lock_guard<std::mutex> lock(mutex_);
  members_.erase(endpoint);
}

void MemberTable::release_leases(std::uint64_t coordinator_id) {
  auto it = coordinators_.find(coordinator_id);
  if (it == coordinators_.end()) {
    return;
  }
  for (const std::string& ep : it->second.endpoints) {
    auto m = members_.find(ep);
    if (m != members_.end() && m->second.leases > 0) {
      --m->second.leases;
    }
  }
  coordinators_.erase(it);
}

std::size_t MemberTable::live(std::int64_t now_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  evict_expired(now_ms);
  return members_.size();
}

GrantResponse MemberTable::resolve(const ResolveRequest& req,
                                   std::int64_t now_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  evict_expired(now_ms);
  // A re-resolve supersedes this coordinator's previous leases - the
  // coordinator is asking for the pool as it stands now (e.g. hunting a
  // backfill candidate), not for more of it.
  release_leases(req.coordinator_id);

  GrantResponse resp;
  resp.live_members = static_cast<std::uint32_t>(members_.size());
  if (members_.empty()) {
    return resp;
  }

  // Fair share: the live weighted capacity split evenly among the
  // coordinators holding unexpired leases, this one included.  Every
  // coordinator gets at least one member - a fleet smaller than its
  // audience is shared, not rationed to zero.
  std::uint64_t total_weight = 0;
  for (const auto& entry : members_) {
    total_weight += entry.second.info.weight;
  }
  const std::uint64_t contenders = coordinators_.size() + 1;
  const std::uint64_t share_weight =
      std::max<std::uint64_t>(1, total_weight / contenders);

  // Least-leased members first, join order breaking ties, so contending
  // coordinators spread across the fleet before anyone doubles up.
  std::vector<Member*> order;
  order.reserve(members_.size());
  for (auto& entry : members_) {
    order.push_back(&entry.second);
  }
  std::sort(order.begin(), order.end(), [](const Member* a, const Member* b) {
    if (a->leases != b->leases) {
      return a->leases < b->leases;
    }
    return a->joined_seq < b->joined_seq;
  });

  CoordinatorLeases leases;
  leases.issued_ms = now_ms;
  std::uint64_t granted_weight = 0;
  for (Member* m : order) {
    if (!resp.members.empty() && granted_weight >= share_weight) {
      break;
    }
    if (req.max_workers != 0 && resp.members.size() >= req.max_workers) {
      break;
    }
    GrantedMember g;
    g.host = m->info.host;
    g.port = m->info.port;
    g.lease_token = next_token_++;
    g.lease_sig = fleet::lease_sig(opt_.auth_key, g.lease_token);
    resp.members.push_back(std::move(g));
    leases.endpoints.push_back(m->info.endpoint());
    ++m->leases;
    granted_weight += m->info.weight;
  }
  coordinators_.emplace(req.coordinator_id, std::move(leases));
  return resp;
}

// --- RegistryServer --------------------------------------------------------

namespace {

constexpr net::SessionNames kRegistryNames{"fleet_registryd", "registry",
                                           "peer", "max_sessions"};

// A registry session keeps no state of its own: membership lives in the
// shared MemberTable and soft state ages out via heartbeats, so a peer
// that closes needs no cleanup.
class MembershipSession : public net::SessionHandler {
 public:
  MembershipSession(MemberTable& table, bool quiet)
      : table_(table), quiet_(quiet) {}

  net::Verdict serve(FrameChannel& conn,
                     const wire::Frame& frame) override {
    if (frame.type == kFrameFleetJoin || frame.type == kFrameFleetHeartbeat) {
      wire::Reader r(frame.payload);
      const JoinInfo info = JoinInfo::decode(r);
      r.expect_done();
      table_.join(info, steady_now_ms());
      if (frame.type == kFrameFleetJoin && !quiet_) {
        std::fprintf(stderr, "fleet_registryd: member %s joined (weight %u)\n",
                     info.endpoint().c_str(),
                     static_cast<unsigned>(info.weight));
      }
      return answer(conn, kFrameFleetOk, {});
    }
    if (frame.type == kFrameFleetLeave) {
      wire::Reader r(frame.payload);
      const JoinInfo info = JoinInfo::decode(r);
      r.expect_done();
      table_.leave(info.endpoint());
      if (!quiet_) {
        std::fprintf(stderr, "fleet_registryd: member %s left\n",
                     info.endpoint().c_str());
      }
      return answer(conn, kFrameFleetOk, {});
    }
    if (frame.type == kFrameFleetResolve) {
      wire::Reader r(frame.payload);
      const ResolveRequest req = ResolveRequest::decode(r);
      r.expect_done();
      const GrantResponse resp = table_.resolve(req, steady_now_ms());
      if (!quiet_) {
        std::fprintf(stderr,
                     "fleet_registryd: granted %zu of %u live member(s) "
                     "to coordinator %llu\n",
                     resp.members.size(),
                     static_cast<unsigned>(resp.live_members),
                     static_cast<unsigned long long>(req.coordinator_id));
      }
      wire::Writer w;
      resp.encode(w);
      return answer(conn, kFrameFleetGrant, w.data());
    }
    return net::Verdict::kUnexpected;
  }

 private:
  static net::Verdict answer(FrameChannel& conn, std::uint16_t type,
                             const std::vector<std::byte>& payload) {
    return conn.send(type, payload) ? net::Verdict::kServed
                                    : net::Verdict::kHangUp;
  }

  MemberTable& table_;
  const bool quiet_;
};

}  // namespace

RegistryServer::RegistryServer(const RegistryOptions& options)
    : table_(options.table),
      server_(kRegistryNames, options.port, options.max_sessions,
              /*once=*/false, options.quiet, options.table.auth_key,
              [this, quiet = options.quiet]() {
                return std::make_unique<MembershipSession>(table_, quiet);
              }) {}

}  // namespace fleet
}  // namespace rbx
