#include "runtime/checkpoint.h"

#include <gtest/gtest.h>

#include "runtime/serializable.h"

namespace rbx {
namespace {

Snapshot rp(std::uint64_t ticket, std::uint64_t seq, ProcessId owner = 0) {
  Snapshot s;
  s.kind = SnapshotKind::kRecoveryPoint;
  s.rp_owner = owner;
  s.rp_seq = seq;
  s.ticket = ticket;
  s.state = {std::byte{1}, std::byte{2}};
  return s;
}

Snapshot prp(std::uint64_t ticket, ProcessId owner, std::uint64_t seq) {
  Snapshot s;
  s.kind = SnapshotKind::kPseudoRecoveryPoint;
  s.rp_owner = owner;
  s.rp_seq = seq;
  s.ticket = ticket;
  s.state = {std::byte{3}};
  return s;
}

TEST(CheckpointStore, LatestRpAndRpBefore) {
  CheckpointStore store(0);
  store.save(rp(10, 1));
  store.save(prp(15, 1, 1));
  store.save(rp(20, 2));

  ASSERT_NE(store.latest_rp(), nullptr);
  EXPECT_EQ(store.latest_rp()->ticket, 20u);
  ASSERT_NE(store.rp_before(20), nullptr);
  EXPECT_EQ(store.rp_before(20)->ticket, 10u);
  EXPECT_EQ(store.rp_before(10), nullptr);
}

TEST(CheckpointStore, PrpLookupFindsNewestMatching) {
  CheckpointStore store(0);
  store.save(prp(5, 2, 1));
  store.save(prp(9, 2, 2));
  store.save(prp(12, 1, 2));

  ASSERT_NE(store.prp_for(2, 2), nullptr);
  EXPECT_EQ(store.prp_for(2, 2)->ticket, 9u);
  EXPECT_EQ(store.prp_for(2, 3), nullptr);
  EXPECT_EQ(store.prp_for(0, 1), nullptr);
}

TEST(CheckpointStore, ByTicket) {
  CheckpointStore store(0);
  store.save(rp(7, 1));
  store.save(prp(8, 1, 1));
  EXPECT_EQ(store.by_ticket(7)->rp_seq, 1u);
  EXPECT_EQ(store.by_ticket(8)->kind, SnapshotKind::kPseudoRecoveryPoint);
  EXPECT_EQ(store.by_ticket(99), nullptr);
}

TEST(CheckpointStore, PurgeKeepsTwoGenerations) {
  CheckpointStore store(0);
  store.save(rp(10, 1));
  store.save(prp(11, 1, 1));
  store.save(prp(12, 2, 1));
  store.save(rp(20, 2));
  store.save(prp(21, 1, 2));
  store.save(rp(30, 3));
  store.save(prp(31, 1, 3));
  store.save(prp(32, 2, 3));

  const std::size_t purged = store.purge();
  // RPs: keep tickets 30 and 20 (newest two); drop 10.
  EXPECT_EQ(store.by_ticket(10), nullptr);
  ASSERT_NE(store.by_ticket(20), nullptr);
  ASSERT_NE(store.by_ticket(30), nullptr);
  // PRPs from owner 1: keep seq 3 and 2, drop seq 1.
  EXPECT_NE(store.prp_for(1, 3), nullptr);
  EXPECT_NE(store.prp_for(1, 2), nullptr);
  EXPECT_EQ(store.prp_for(1, 1), nullptr);
  // PRPs from owner 2: both kept (only two exist).
  EXPECT_NE(store.prp_for(2, 3), nullptr);
  EXPECT_NE(store.prp_for(2, 1), nullptr);
  EXPECT_EQ(purged, 2u);
}

TEST(CheckpointStore, PurgeKeepsOneSnapshotPerReplayedImplant) {
  // A rollback restored an inbox that still held owner 1's implant
  // requests for RPs 2 and 3, so both were implanted again after the first
  // copies.  Per owner, purge keeps the PRPs of its two newest RPs, one
  // snapshot each - the newest copy, the one the rollback planner reaches.
  CheckpointStore store(0);
  store.save(rp(10, 1));
  store.save(prp(11, 1, 2));
  store.save(prp(12, 1, 3));
  store.save(prp(13, 1, 2));
  store.save(prp(14, 1, 3));

  EXPECT_EQ(store.purge(), 2u);
  EXPECT_EQ(store.count(), 3u);
  EXPECT_EQ(store.by_ticket(11), nullptr);
  EXPECT_EQ(store.by_ticket(12), nullptr);
  ASSERT_NE(store.prp_for(1, 2), nullptr);
  EXPECT_EQ(store.prp_for(1, 2)->ticket, 13u);
  ASSERT_NE(store.prp_for(1, 3), nullptr);
  EXPECT_EQ(store.prp_for(1, 3)->ticket, 14u);
}

TEST(CheckpointStore, PurgeIdempotent) {
  CheckpointStore store(0);
  store.save(rp(10, 1));
  store.save(rp(20, 2));
  EXPECT_EQ(store.purge(), 0u);
  EXPECT_EQ(store.purge(), 0u);
  EXPECT_EQ(store.count(), 2u);
}

TEST(CheckpointStore, TotalBytesAccountsStateAndRetainedMessages) {
  CheckpointStore store(0);
  Snapshot s = rp(5, 1);
  s.retained_inbox.resize(3);
  const std::size_t state_bytes = s.state.size();
  store.save(std::move(s));
  EXPECT_EQ(store.total_bytes(), state_bytes + 3 * sizeof(Message));
}

TEST(CheckpointStoreDeathTest, RejectsOutOfOrderTickets) {
  CheckpointStore store(0);
  store.save(rp(10, 1));
  EXPECT_DEATH(store.save(rp(5, 2)), "ticket order");
}

TEST(WorkState, SerializationRoundTrip) {
  WorkState a;
  a.step(3);
  a.step(3);
  a.apply_message(12345);
  WorkState b;
  b.deserialize(a.serialize());
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(WorkState, DeterministicEvolution) {
  WorkState a, b;
  for (int i = 0; i < 10; ++i) {
    a.step(1);
    b.step(1);
  }
  EXPECT_TRUE(a == b);
  b.step(1);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace rbx
