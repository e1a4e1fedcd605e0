// The registry contract: membership is soft state (heartbeat or be
// evicted; an expired member is never granted), fair-share leasing splits
// a contended fleet without double-counting re-resolves, and the wire
// server refuses mis-keyed peers loudly.  MemberTable takes explicit
// now_ms everywhere, so expiry and lease ageing run deterministically -
// no sleeps in the unit half of this file.
#include "fleet/registry.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/lane.h"
#include "fleet/auth.h"
#include "fleet/client.h"
#include "fleet/proto.h"
#include "net/socket.h"

namespace rbx {
namespace fleet {
namespace {

JoinInfo daemon(const std::string& host, std::uint16_t port,
                std::uint32_t weight = 1) {
  return JoinInfo{host, port, weight};
}

ResolveRequest ask(std::uint64_t coordinator_id,
                   std::uint32_t max_workers = 0) {
  return ResolveRequest{coordinator_id, max_workers};
}

std::set<std::string> endpoints(const GrantResponse& grant) {
  std::set<std::string> out;
  for (const GrantedMember& m : grant.members) {
    out.insert(m.endpoint());
  }
  return out;
}

MemberTableOptions fast_table() {
  MemberTableOptions opt;
  opt.evict_after_ms = 1000;
  opt.lease_ttl_ms = 5000;
  return opt;
}

TEST(MemberTableTest, JoinThenResolveGrantsTheMember) {
  MemberTable table(fast_table());
  table.join(daemon("hostA", 4701), /*now_ms=*/0);
  const GrantResponse grant = table.resolve(ask(1), /*now_ms=*/10);
  ASSERT_EQ(grant.members.size(), 1u);
  EXPECT_EQ(grant.members[0].endpoint(), "hostA:4701");
  EXPECT_EQ(grant.live_members, 1u);
  EXPECT_NE(grant.members[0].lease_token, 0u);
}

TEST(MemberTableTest, SilentMemberIsEvictedAndNeverGranted) {
  MemberTable table(fast_table());
  table.join(daemon("hostA", 4701), /*now_ms=*/0);
  // One heartbeat inside the window keeps it alive...
  table.heartbeat(daemon("hostA", 4701), /*now_ms=*/900);
  EXPECT_EQ(table.live(/*now_ms=*/1800), 1u);
  // ...then silence past evict_after_ms: gone, and a resolve at that
  // instant must not hand it out (lazy eviction runs before granting).
  const GrantResponse grant = table.resolve(ask(1), /*now_ms=*/1901);
  EXPECT_TRUE(grant.members.empty());
  EXPECT_EQ(grant.live_members, 0u);
  EXPECT_EQ(table.live(/*now_ms=*/1901), 0u);
}

TEST(MemberTableTest, LeaveRemovesImmediately) {
  MemberTable table(fast_table());
  table.join(daemon("hostA", 4701), 0);
  table.join(daemon("hostB", 4701), 0);
  table.leave("hostA:4701");
  const GrantResponse grant = table.resolve(ask(1), 1);
  EXPECT_EQ(endpoints(grant), std::set<std::string>{"hostB:4701"});
  table.leave("no-such:1");  // unknown endpoints are ignored
}

TEST(MemberTableTest, RejoinRefreshesInsteadOfDuplicating) {
  MemberTable table(fast_table());
  table.join(daemon("hostA", 4701), 0);
  // A restarted daemon re-joins its old endpoint: same entry, fresh
  // liveness - not a phantom second worker.
  table.join(daemon("hostA", 4701), 800);
  EXPECT_EQ(table.live(900), 1u);
  const GrantResponse grant = table.resolve(ask(1), 1700);
  ASSERT_EQ(grant.members.size(), 1u);  // refreshed at 800, alive at 1700
}

TEST(MemberTableTest, ContendingCoordinatorsGetDisjointFairShares) {
  MemberTable table(fast_table());
  table.join(daemon("hostA", 1), 0);
  table.join(daemon("hostB", 1), 0);
  table.join(daemon("hostC", 1), 0);
  table.join(daemon("hostD", 1), 0);

  // Work-conserving: a lone sweep gets the whole fleet...
  const GrantResponse first = table.resolve(ask(1), 10);
  EXPECT_EQ(first.members.size(), 4u);
  // ...a second contender gets its half (least-leased first)...
  const GrantResponse second = table.resolve(ask(2), 20);
  EXPECT_EQ(second.members.size(), 2u);
  EXPECT_EQ(second.live_members, 4u);
  // ...and when coordinator 1 re-resolves under contention, its fresh
  // half must be exactly the members coordinator 2 does not hold: the
  // least-leased-first policy spreads the fleet before anyone doubles up.
  const GrantResponse readjusted = table.resolve(ask(1), 30);
  EXPECT_EQ(readjusted.members.size(), 2u);
  std::set<std::string> overlap;
  const std::set<std::string> a = endpoints(readjusted);
  const std::set<std::string> b = endpoints(second);
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::inserter(overlap, overlap.begin()));
  EXPECT_TRUE(overlap.empty());
}

TEST(MemberTableTest, ReResolveSupersedesOldLeases) {
  MemberTable table(fast_table());
  table.join(daemon("hostA", 1), 0);
  table.join(daemon("hostB", 1), 0);

  // The same coordinator resolving twice is one contender, not two: its
  // second grant is a full single-contender share again.
  const GrantResponse first = table.resolve(ask(7), 10);
  EXPECT_EQ(first.members.size(), 2u);
  const GrantResponse again = table.resolve(ask(7), 20);
  EXPECT_EQ(again.members.size(), 2u);

  // And a genuinely new contender still gets a clean half - coordinator
  // 7's stale first grant must not count against the split.
  const GrantResponse other = table.resolve(ask(8), 30);
  EXPECT_EQ(other.members.size(), 1u);
}

TEST(MemberTableTest, ExpiredCoordinatorLeasesStopContending) {
  MemberTable table(fast_table());  // lease_ttl_ms = 5000
  table.join(daemon("hostA", 1), 0);
  table.join(daemon("hostB", 1), 0);

  EXPECT_EQ(table.resolve(ask(1), 10).members.size(), 2u);
  table.join(daemon("hostA", 1), 4000);  // keep members alive
  table.join(daemon("hostB", 1), 4000);
  // Within the lease TTL coordinator 1 still contends: half each.
  EXPECT_EQ(table.resolve(ask(2), 4100).members.size(), 1u);
  table.join(daemon("hostA", 1), 9000);
  table.join(daemon("hostB", 1), 9000);
  // Past the TTL both old grants have aged out; a fresh coordinator is
  // alone again and gets the whole fleet.
  EXPECT_EQ(table.resolve(ask(3), 9500).members.size(), 2u);
}

TEST(MemberTableTest, WeightBiasesTheShareSplit) {
  MemberTable table(fast_table());
  table.join(daemon("big", 1, /*weight=*/3), 0);
  table.join(daemon("small", 1, /*weight=*/1), 0);
  // Total weight 4 over two contenders = share 2: the grant fills it
  // with the single weight-3 member (least-leased first, then capacity).
  const GrantResponse first = table.resolve(ask(1), 10);
  EXPECT_EQ(first.members.size(), 2u);  // lone: everything
  // The second contender's share of 2 weight-units is filled by the
  // weight-3 member alone - weight counts toward capacity, not headcount.
  const GrantResponse second = table.resolve(ask(2), 20);
  ASSERT_EQ(second.members.size(), 1u);
  EXPECT_EQ(second.members[0].host, "big");
}

TEST(MemberTableTest, MaxWorkersCapsTheGrant) {
  MemberTable table(fast_table());
  table.join(daemon("hostA", 1), 0);
  table.join(daemon("hostB", 1), 0);
  table.join(daemon("hostC", 1), 0);
  const GrantResponse grant = table.resolve(ask(1, /*max_workers=*/2), 10);
  EXPECT_EQ(grant.members.size(), 2u);
  EXPECT_EQ(grant.live_members, 3u);
}

TEST(MemberTableTest, LeasesAreSignedUnderTheFleetKey) {
  MemberTableOptions opt = fast_table();
  opt.auth_key = "fleet-key";
  MemberTable table(opt);
  table.join(daemon("hostA", 4701), 0);
  const GrantResponse grant = table.resolve(ask(1), 10);
  ASSERT_EQ(grant.members.size(), 1u);
  // The signature a worker recomputes offline must match the grant's.
  EXPECT_EQ(grant.members[0].lease_sig,
            lease_sig("fleet-key", grant.members[0].lease_token));
  EXPECT_NE(grant.members[0].lease_sig, 0u);
}

TEST(MemberTableTest, OpenFleetGrantsUnsignedLeases) {
  MemberTable table(fast_table());  // no auth_key
  table.join(daemon("hostA", 4701), 0);
  const GrantResponse grant = table.resolve(ask(1), 10);
  ASSERT_EQ(grant.members.size(), 1u);
  EXPECT_EQ(grant.members[0].lease_sig, 0u);  // = lease_sig("", token)
}

// --- RegistryServer over loopback ------------------------------------------

struct TestRegistry {
  explicit TestRegistry(MemberTableOptions table = {}) {
    RegistryOptions opts;
    opts.port = 0;
    opts.quiet = true;
    opts.table = table;
    server = std::make_unique<RegistryServer>(opts);
    thread = std::thread([this]() { server->serve(); });
  }
  ~TestRegistry() {
    server->stop();
    thread.join();
  }

  net::Endpoint endpoint() const { return {"127.0.0.1", server->port()}; }

  std::unique_ptr<RegistryServer> server;
  std::thread thread;
};

RegistryClientOptions client_options(const net::Endpoint& registry,
                                     std::string auth_key = {}) {
  RegistryClientOptions opts;
  opts.registry = registry;
  opts.auth_key = std::move(auth_key);
  opts.connect_retries = 5;
  return opts;
}

TEST(RegistryServerTest, JoinHeartbeatResolveLeaveOverTheWire) {
  TestRegistry registry;
  RegistryClient worker(client_options(registry.endpoint()));
  RegistryClient coordinator(client_options(registry.endpoint()));

  worker.join(daemon("127.0.0.1", 4701));
  worker.heartbeat(daemon("127.0.0.1", 4701));
  GrantResponse grant = coordinator.resolve(ask(1));
  ASSERT_EQ(grant.members.size(), 1u);
  EXPECT_EQ(grant.members[0].endpoint(), "127.0.0.1:4701");

  worker.leave(daemon("127.0.0.1", 4701));
  grant = coordinator.resolve(ask(1));
  EXPECT_TRUE(grant.members.empty());
}

TEST(RegistryServerTest, KeyedRegistryAdmitsTheRightKey) {
  MemberTableOptions table;
  table.auth_key = "fleet-key";
  TestRegistry registry(table);
  RegistryClient client(client_options(registry.endpoint(), "fleet-key"));
  client.join(daemon("127.0.0.1", 4701));
  const GrantResponse grant = client.resolve(ask(1));
  ASSERT_EQ(grant.members.size(), 1u);
  EXPECT_EQ(grant.members[0].lease_sig,
            lease_sig("fleet-key", grant.members[0].lease_token));
}

TEST(RegistryServerTest, WrongKeyIsRefusedLoudly) {
  MemberTableOptions table;
  table.auth_key = "fleet-key";
  TestRegistry registry(table);
  RegistryClient client(client_options(registry.endpoint(), "wrong-key"));
  try {
    client.join(daemon("127.0.0.1", 4701));
    FAIL() << "a wrong-keyed join must throw";
  } catch (const net::Error& e) {
    EXPECT_NE(std::string(e.what()).find("authentication"),
              std::string::npos)
        << e.what();
  }
}

TEST(RegistryServerTest, KeylessPeerAgainstKeyedRegistryIsRefused) {
  MemberTableOptions table;
  table.auth_key = "fleet-key";
  TestRegistry registry(table);
  RegistryClient client(client_options(registry.endpoint()));  // no key
  try {
    client.join(daemon("127.0.0.1", 4701));
    FAIL() << "a keyless join against a keyed registry must throw";
  } catch (const net::Error& e) {
    EXPECT_NE(std::string(e.what()).find("auth"), std::string::npos)
        << e.what();
  }
}

TEST(RegistryServerTest, AckThatDoesNotEchoTheHelloIsRefused) {
  // A listener standing in for a registry acks the Hello wrongly: with
  // another protocol number, then cut short.  The client must refuse
  // both with a net::Error, not speak membership.
  const auto connect_against = [](bool cut) {
    net::Listener listener(0);
    std::thread fake([&]() {
      FrameChannel conn(listener.accept_client().release());
      wire::Frame frame;
      if (!conn.recv(&frame) || frame.type != kFrameHello) {
        return;
      }
      wire::Reader r(frame.payload);
      Hello echo = Hello::decode(r);
      echo.protocol += 1;
      wire::Writer w;
      echo.encode(w);
      std::vector<std::byte> ack = w.data();
      if (cut) {
        ack = frame.payload;
        ack.pop_back();
      }
      conn.send(kFrameHelloAck, ack);
      conn.recv(&frame);  // wait for the client to hang up
    });
    RegistryClient client(
        client_options(net::Endpoint{"127.0.0.1", listener.port()}));
    std::string what;
    try {
      client.connect();
    } catch (const net::Error& e) {
      what = e.what();
    }
    EXPECT_FALSE(client.connected());
    client.close();
    fake.join();
    return what;
  };
  EXPECT_NE(connect_against(false).find("fleet: registry refused the "
                                        "handshake: ack does not echo"),
            std::string::npos);
  EXPECT_NE(connect_against(true).find("fleet: corrupt registry reply"),
            std::string::npos);
}

TEST(RegistryServerTest, MembershipJoinsHeartbeatsAndLeaves) {
  // The daemon-side loop end to end: start() joins, stop() leaves; with a
  // fast heartbeat the registry sees refreshes in between.
  TestRegistry registry;
  MembershipOptions mopts;
  mopts.registry = registry.endpoint();
  mopts.self = daemon("127.0.0.1", 4777);
  mopts.heartbeat_ms = 20;
  mopts.quiet = true;
  RegistryClient coordinator(client_options(registry.endpoint()));
  {
    FleetMembership membership(mopts);
    membership.start();
    EXPECT_EQ(coordinator.resolve(ask(1)).live_members, 1u);
    membership.stop();  // orderly: Leave, not eviction
  }
  EXPECT_EQ(coordinator.resolve(ask(2)).live_members, 0u);
}

TEST(RegistryServerTest, AbandonedMembershipAgesOutByEviction) {
  // abandon() is the crash path: no Leave, so the entry lingers until the
  // eviction timer fires - exactly what a SIGKILLed daemon looks like.
  MemberTableOptions table;
  table.evict_after_ms = 400;
  TestRegistry registry(table);
  MembershipOptions mopts;
  mopts.registry = registry.endpoint();
  mopts.self = daemon("127.0.0.1", 4778);
  mopts.heartbeat_ms = 50;
  mopts.quiet = true;
  RegistryClient coordinator(client_options(registry.endpoint()));
  FleetMembership membership(mopts);
  membership.start();
  EXPECT_EQ(coordinator.resolve(ask(1)).live_members, 1u);
  membership.abandon();
  // Gone once the heartbeat silence crosses evict_after_ms - the same
  // eviction a real SIGKILL earns.
  std::this_thread::sleep_for(std::chrono::milliseconds(900));
  EXPECT_EQ(coordinator.resolve(ask(1)).live_members, 0u);
}

}  // namespace
}  // namespace fleet
}  // namespace rbx
