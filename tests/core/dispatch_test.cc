// The dispatch contract: any mix of lanes produces bitwise the same
// outcomes as evaluating the cells directly in a serial loop, worker
// crashes are recovered by respawn + re-admission instead of shrinking
// the pool, a respawned fork child never inherits a lock a thread-lane
// worker held, and the scheduler's counters expose what recovery did.
// A commit hook's exception leaves run() instead of losing the worker
// whose batch it was committing.  The coordinator's handshake reader
// (core/lane.h), which the dispatch loop drives for every keyed worker,
// is checked frame type by frame type at the end.
#include "core/dispatch.h"

#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/executor.h"
#include "core/lane.h"
#include "core/sweep.h"
#include "fleet/auth.h"
#include "lane_sets.h"

namespace rbx {
namespace {

std::vector<Scenario> mc_grid(std::uint64_t master_seed) {
  const auto apply_n = [](Scenario& s, double n) {
    s.params(ProcessSetParams::symmetric(static_cast<std::size_t>(n), 1.0,
                                         1.0));
  };
  return SweepGrid(Scenario::symmetric(2, 1.0, 1.0).samples(300))
      .axis({2, 3, 4}, apply_n)
      .schemes({SchemeKind::kAsynchronous, SchemeKind::kSynchronized})
      .expand(master_seed);
}

CellFn backend_fn() {
  return [](const Scenario& s, std::size_t) {
    return monte_carlo_backend().evaluate(s);
  };
}

// The ground truth no scheduler may deviate from: the cells evaluated one
// by one on the calling thread, no wire round-trip, no batching.
std::vector<ResultSet> direct_reference(const std::vector<Scenario>& cells,
                                        const CellFn& fn) {
  std::vector<ResultSet> out;
  out.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out.push_back(fn(cells[i], i));
  }
  return out;
}

TEST(DispatchTest, ThreadAndForkLanesTogetherMatchDirectEvaluation) {
  const std::vector<Scenario> cells = mc_grid(17);
  const CellFn fn = backend_fn();
  const std::vector<ResultSet> reference = direct_reference(cells, fn);

  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.push_back(std::make_unique<ForkLane>(2));
  lanes.push_back(std::make_unique<ThreadLane>(2));
  DispatchOptions options;
  options.batch_size = 1;
  options.steal = true;  // legal on any multi-worker run now
  options.quiet = true;
  HybridExecutor hybrid(std::move(lanes), options);

  const auto outcomes = hybrid.run(cells, fn);
  ASSERT_EQ(outcomes.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << "cell " << i << ": "
                                  << outcomes[i].error;
    EXPECT_EQ(outcomes[i].result, reference[i]) << "cell " << i;
  }
}

TEST(DispatchTest, SingleThreadLaneMatchesDirectEvaluation) {
  // The executor every sweep defaults to must reproduce the direct loop
  // bit for bit even though cells now round-trip the wire format.
  const std::vector<Scenario> cells = mc_grid(29);
  const CellFn fn = backend_fn();
  const std::vector<ResultSet> reference = direct_reference(cells, fn);

  const auto outcomes = lane_sets::threads(1, cells, fn);
  ASSERT_EQ(outcomes.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].result, reference[i]) << "cell " << i;
  }
}

TEST(DispatchTest, ForkWorkerRespawnCountsAsReadmission) {
  // One fork worker, one poisonous cell: the crash kills the whole pool,
  // the respawn (a revival, counted as re-admission) restores it, the
  // rerun kills it again, and only then is the cell failed.  Everything
  // else still evaluates on the respawned workers.
  const std::vector<Scenario> cells(6, Scenario::symmetric(2, 1.0, 1.0));
  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.push_back(std::make_unique<ForkLane>(1));
  DispatchOptions options;
  options.batch_size = 1;
  options.quiet = true;
  HybridExecutor hybrid(std::move(lanes), options);

  const auto outcomes =
      hybrid.run(cells, [](const Scenario& s, std::size_t i) {
        if (i == 2) {
          ::_exit(77);
        }
        ResultSet out("test", s.label());
        out.set("index", static_cast<double>(i));
        return out;
      });
  ASSERT_EQ(outcomes.size(), 6u);
  EXPECT_FALSE(outcomes[2].ok());
  EXPECT_NE(outcomes[2].error.find("two lost workers"), std::string::npos)
      << outcomes[2].error;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 2) {
      continue;
    }
    EXPECT_TRUE(outcomes[i].ok()) << "cell " << i << ": "
                                  << outcomes[i].error;
  }
  // The pool was revived at least twice (once per kill).
  EXPECT_GE(hybrid.readmitted_workers(), 2u);
  EXPECT_EQ(hybrid.readmitted_workers_last_run(),
            hybrid.readmitted_workers());
}

TEST(DispatchTest, QuietRunWithoutFailuresLeavesCountersAtZero) {
  const std::vector<Scenario> cells = mc_grid(31);
  const CellFn fn = backend_fn();
  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.push_back(std::make_unique<ThreadLane>(4));
  HybridExecutor hybrid(std::move(lanes), DispatchOptions());
  const auto outcomes = hybrid.run(cells, fn);
  for (const CellOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok()) << outcome.error;
  }
  EXPECT_EQ(hybrid.stolen_cells(), 0u);
  EXPECT_EQ(hybrid.readmitted_workers(), 0u);
}

TEST(DispatchTest, NoLanesIsAnInfrastructureError) {
  const std::vector<Scenario> cells(2, Scenario::symmetric(2, 1.0, 1.0));
  HybridExecutor hybrid({}, DispatchOptions());
  EXPECT_THROW(hybrid.run(cells, backend_fn()), std::runtime_error);
  // Empty input short-circuits before the lanes matter.
  EXPECT_TRUE(hybrid.run({}, backend_fn()).empty());
}

TEST(DispatchTest, ForkRespawnWhileThreadsHoldTheAnalyticCacheNeverHangs) {
  // Thread-lane workers hammer one analytic cache stripe (every cell
  // shares one cache key) while fork children crash on their first cell
  // and the dispatch thread respawns them mid-sweep.  A child forked
  // while a worker held the stripe would inherit it locked and block on
  // its first analytic cell; at batch size 1 with no batch deadline the
  // sweep would then hang, so a watchdog turns that hang into a failure.
#if defined(__SANITIZE_ADDRESS__)
  // glibc's malloc is fork-safe; ASan's allocator (GCC 12) is not, and a
  // child forked while a worker is inside malloc blocks on its lock.
  GTEST_SKIP() << "ASan's allocator lock is not held across fork()";
#endif
  constexpr std::size_t kCells = 20000;
  constexpr int kMaxKills = 40;

  // Shared with the fork children: how many crashed on purpose, and
  // which cells already killed one (so no cell dies twice and becomes a
  // poisonous-cell error).
  struct Shared {
    std::atomic<int> kills{0};
    std::atomic<unsigned char> killed[kCells]{};
  };
  void* mem = ::mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  Shared* shared = new (mem) Shared();

  const pid_t parent = ::getpid();
  const CellFn fn = [shared, parent](const Scenario& s, std::size_t i) {
    static bool served = false;  // set in fork children only
    if (::getpid() != parent && !served) {
      served = true;
      // A hung child must not outlive a test the watchdog killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (shared->kills.load() < kMaxKills &&
          shared->killed[i].exchange(1) == 0) {
        shared->kills.fetch_add(1);
        ::_exit(3);
      }
    }
    return analytic_backend().evaluate(s);
  };

  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.push_back(std::make_unique<ForkLane>(2));
  lanes.push_back(std::make_unique<ThreadLane>(4));
  DispatchOptions options;
  options.batch_size = 1;
  options.quiet = true;
  HybridExecutor hybrid(std::move(lanes), options);
  const std::vector<Scenario> cells(kCells,
                                    Scenario::symmetric(3, 1.0, 1.0));
  ::alarm(30);  // the watchdog: SIGALRM fails the test if the sweep hangs
  const auto outcomes = hybrid.run(cells, fn);
  ::alarm(0);

  ASSERT_EQ(outcomes.size(), kCells);
  std::size_t failed = 0;
  for (const CellOutcome& outcome : outcomes) {
    failed += outcome.ok() ? 0 : 1;
  }
  EXPECT_EQ(failed, 0u);
  EXPECT_GE(shared->kills.load(), 1);  // the respawn path actually ran
  EXPECT_GE(hybrid.readmitted_workers(), 1u);
  ::munmap(mem, sizeof(Shared));
}

// A commit hook that throws - a journal append that failed - must leave
// run() with its exception, not pass for a malformed batch from the
// worker that answered: no worker is lost or re-admitted, and no later
// cell commits.
void expect_hook_error_leaves_run(std::unique_ptr<Lane> lane) {
  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.push_back(std::move(lane));
  DispatchOptions options;
  options.batch_size = 4;
  HybridExecutor hybrid(std::move(lanes), options);
  int calls = 0;
  hybrid.set_commit_hook([&calls](std::size_t, const CellOutcome&) {
    if (++calls == 3) {
      throw wire::Error("append to 'journal' failed");
    }
  });
  const std::vector<Scenario> cells(12, Scenario::symmetric(2, 1.0, 1.0));
  const CellFn fn = [](const Scenario& s, std::size_t i) {
    ResultSet out("test", s.label());
    out.set("index", static_cast<double>(i));
    return out;
  };

  testing::internal::CaptureStderr();
  try {
    hybrid.run(cells, fn);
    ADD_FAILURE() << "run() returned after its commit hook threw";
  } catch (const wire::Error& e) {
    EXPECT_STREQ(e.what(), "append to 'journal' failed");
  }
  const std::string stderr_text = testing::internal::GetCapturedStderr();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stderr_text.find("lost worker"), std::string::npos)
      << stderr_text;
  EXPECT_EQ(hybrid.readmitted_workers(), 0u);
}

TEST(DispatchTest, CommitHookErrorLeavesRunOnAThreadLane) {
  expect_hook_error_leaves_run(std::make_unique<ThreadLane>(2));
}

TEST(DispatchTest, CommitHookErrorLeavesRunOnAForkLane) {
  expect_hook_error_leaves_run(std::make_unique<ForkLane>(2));
}

// --- the coordinator's handshake reader ------------------------------------

Hello sweep_hello() {
  Hello hello;
  hello.fingerprint = 0x5eed5eed12345678ULL;
  hello.total_cells = 24;
  return hello;
}

HelloKey fleet_key() {
  HelloKey key;
  key.auth_key = "fleet-key";
  return key;
}

wire::Frame frame_of(std::uint16_t type, const wire::Writer& w) {
  return wire::Frame{type, w.data()};
}

wire::Frame str_frame(std::uint16_t type, const std::string& text) {
  wire::Writer w;
  w.str(text);
  return frame_of(type, w);
}

wire::Frame ack_of(const Hello& echo) {
  wire::Writer w;
  echo.encode(w);
  return frame_of(kFrameHelloAck, w);
}

TEST(HelloReaderTest, StaleResultBatchKeepsWaiting) {
  ResultBatch stale;
  stale.entries.push_back({3, CellOutcome{}});
  wire::Writer w;
  stale.encode(w);
  const HelloStep step = read_hello_frame(
      sweep_hello(), fleet_key(), frame_of(kFrameResultBatch, w));
  EXPECT_EQ(step.kind, HelloStep::kWait);
  EXPECT_TRUE(step.answer.empty());
  EXPECT_TRUE(step.refusal.empty());
}

TEST(HelloReaderTest, ChallengeIsAnsweredUnderTheKey) {
  const HelloStep step =
      read_hello_frame(sweep_hello(), fleet_key(),
                       str_frame(kFrameAuthChallenge, "nonce-0123456789"));
  ASSERT_EQ(step.kind, HelloStep::kAnswer);
  wire::Frame answer;
  std::size_t consumed = 0;
  ASSERT_TRUE(wire::parse_frame(step.answer.data(), step.answer.size(),
                                &answer, &consumed));
  EXPECT_EQ(consumed, step.answer.size());
  EXPECT_EQ(answer.type, kFrameAuthResponse);
  wire::Reader r(answer.payload);
  EXPECT_EQ(r.str(), fleet::auth_mac("fleet-key", "nonce-0123456789"));
  r.expect_done();
}

TEST(HelloReaderTest, ChallengeWithoutAKeyIsRefused) {
  const HelloStep step =
      read_hello_frame(sweep_hello(), HelloKey{},
                       str_frame(kFrameAuthChallenge, "nonce-0123456789"));
  EXPECT_EQ(step.kind, HelloStep::kRefuse);
  EXPECT_TRUE(step.answer.empty());
  EXPECT_EQ(step.refusal,
            "worker demands authentication but this coordinator holds no "
            "key (--auth-key-file)");
}

TEST(HelloReaderTest, ErrorFrameRefusesWithThePeersMessage) {
  const HelloStep step = read_hello_frame(
      sweep_hello(), fleet_key(),
      str_frame(kFrameError, "worker: authentication failed"));
  EXPECT_EQ(step.kind, HelloStep::kRefuse);
  EXPECT_EQ(step.refusal, "worker: authentication failed");
}

TEST(HelloReaderTest, OnlyAnAckThatEchoesTheHelloAdmits) {
  const Hello sent = sweep_hello();
  // The worker may echo the flags and lease of the keyed Hello it got;
  // only the versions and the fingerprint must come back unchanged.
  HelloKey leased = fleet_key();
  leased.leased = true;
  leased.lease_token = 9;
  leased.lease_sig = 77;
  EXPECT_EQ(read_hello_frame(sent, leased, ack_of(keyed_hello(sent, leased)))
                .kind,
            HelloStep::kAdmit);

  Hello protocol = sent;
  protocol.protocol += 1;
  Hello wire_version = sent;
  wire_version.wire_version += 1;
  Hello fingerprint = sent;
  fingerprint.fingerprint ^= 1;
  for (const Hello& echo : {protocol, wire_version, fingerprint}) {
    const HelloStep step = read_hello_frame(sent, leased, ack_of(echo));
    EXPECT_EQ(step.kind, HelloStep::kRefuse);
    EXPECT_EQ(step.refusal, "ack does not echo this sweep's handshake");
  }
}

TEST(HelloReaderTest, UnknownFrameTypeIsRefused) {
  for (const std::uint16_t type : {kFrameCellBatch, kFrameHello,
                                   kFrameAuthResponse,
                                   static_cast<std::uint16_t>(999)}) {
    const HelloStep step =
        read_hello_frame(sweep_hello(), fleet_key(), wire::Frame{type, {}});
    EXPECT_EQ(step.kind, HelloStep::kRefuse);
    EXPECT_EQ(step.refusal, "unexpected frame type " + std::to_string(type));
  }
}

TEST(HelloReaderTest, MalformedPayloadsThrowWireError) {
  wire::Writer w;
  sweep_hello().encode(w);
  w.u8(0);  // one byte past the Hello
  EXPECT_THROW(read_hello_frame(sweep_hello(), fleet_key(),
                                frame_of(kFrameHelloAck, w)),
               wire::Error);
  EXPECT_THROW(read_hello_frame(sweep_hello(), fleet_key(),
                                wire::Frame{kFrameAuthChallenge, {}}),
               wire::Error);
  EXPECT_THROW(read_hello_frame(sweep_hello(), fleet_key(),
                                wire::Frame{kFrameError, {}}),
               wire::Error);
}

TEST(HelloReaderTest, KeyedHelloCarriesTheAuthFlagAndAGrantedLease) {
  const Hello sent = sweep_hello();
  const Hello keyless = keyed_hello(sent, HelloKey{});
  EXPECT_EQ(keyless.flags, sent.flags);
  EXPECT_EQ(keyless.lease_token, 0u);

  HelloKey key = fleet_key();
  key.lease_token = 5;  // not granted: the lease stays off the Hello
  const Hello connect = keyed_hello(sent, key);
  EXPECT_EQ(connect.flags, kHelloFlagAuth);
  EXPECT_EQ(connect.lease_token, 0u);

  key.leased = true;
  key.lease_sig = 6;
  const Hello fleet = keyed_hello(sent, key);
  EXPECT_EQ(fleet.flags, kHelloFlagAuth | kHelloFlagLease);
  EXPECT_EQ(fleet.lease_token, 5u);
  EXPECT_EQ(fleet.lease_sig, 6u);
  EXPECT_EQ(fleet.fingerprint, sent.fingerprint);
  EXPECT_EQ(fleet.total_cells, sent.total_cells);
}

}  // namespace
}  // namespace rbx
