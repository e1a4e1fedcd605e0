// The cluster transport contract: a --connect sweep (a FleetLane over a
// static member list) spanning TCP workers is bitwise identical to an
// in-process run of the same plans - including a run where a worker dies
// mid-sweep and its in-flight cells roll back to the survivors (the
// distributed analogue of backward error recovery).  Workers here are
// real WorkerServer instances on loopback sockets inside threads - the
// same code tools/sweep_workerd.cc runs.
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/dispatch.h"
#include "core/executor.h"
#include "core/lane.h"
#include "core/sweep.h"
#include "fleet/lane.h"
#include "lane_sets.h"
#include "net/socket.h"
#include "net/worker.h"

namespace rbx {
namespace {

std::vector<Scenario> mc_grid(std::uint64_t master_seed) {
  const auto apply_n = [](Scenario& s, double n) {
    s.params(ProcessSetParams::symmetric(static_cast<std::size_t>(n), 1.0,
                                         1.0));
  };
  return SweepGrid(Scenario::symmetric(2, 1.0, 1.0).samples(200))
      .axis({2, 3, 4}, apply_n)
      .schemes({SchemeKind::kAsynchronous, SchemeKind::kSynchronized})
      .expand(master_seed);
}

PlanFn mc_plan() {
  return [](const Scenario&, std::size_t) {
    return EvalPlan{{EvalStep{"monte-carlo", ""}}};
  };
}

CellFn local_fn_for(const PlanFn& plan) {
  return [&plan](const Scenario& s, std::size_t i) {
    return evaluate_plan(plan(s, i), s);
  };
}

// A worker on an ephemeral loopback port, serving one connection on its
// own thread (joined on destruction - destroy the sweep, which closes its
// connections, before the worker leaves scope).
struct TestWorker {
  explicit TestWorker(std::size_t fail_after = 0, std::size_t delay_ms = 0)
      : server(net::WorkerOptions{.port = 0, .once = true,
                                  .fail_after = fail_after, .quiet = true,
                                  .max_coordinators = 4, .delay_ms = delay_ms,
                                  .cache_dir = {}, .auth_key = {}}),
        thread([this]() { server.serve(); }) {}
  ~TestWorker() { thread.join(); }

  net::Endpoint endpoint() const { return {"127.0.0.1", server.port()}; }

  net::WorkerServer server;
  std::thread thread;
};

// A long-running daemon serving up to `max_coordinators` concurrent
// sessions - the tools/sweep_workerd --serve mode.  stop() unblocks the
// serve loop; the destructor joins it.
struct PoolWorker {
  explicit PoolWorker(std::size_t max_coordinators, std::size_t delay_ms = 0)
      : server(net::WorkerOptions{.port = 0, .once = false,
                                  .fail_after = 0, .quiet = true,
                                  .max_coordinators = max_coordinators,
                                  .delay_ms = delay_ms, .cache_dir = {},
                                  .auth_key = {}}),
        thread([this]() { server.serve(); }) {}
  ~PoolWorker() {
    server.stop();
    thread.join();
  }

  net::Endpoint endpoint() const { return {"127.0.0.1", server.port()}; }

  net::WorkerServer server;
  std::thread thread;
};

// A frame relay in front of one worker, so a test can order two workers'
// traffic: it accepts one coordinator connection, connects it to `target`
// and forwards every frame both ways, each direction on its own thread.
// `on_request` sees each coordinator -> worker frame before it is
// forwarded, `on_answer` each worker -> coordinator frame.  Either side
// hanging up (or a worker that cannot be reached, or corrupt framing)
// ends both directions, which the sweep sees as a lost worker.
class Relay {
 public:
  using Hook = std::function<void(const wire::Frame&)>;

  Relay(net::Endpoint target, Hook on_request, Hook on_answer)
      : thread_([this, target = std::move(target),
                 on_request = std::move(on_request),
                 on_answer = std::move(on_answer)]() {
          FrameChannel coordinator(listener_.accept_client().release());
          net::Socket sock;
          try {
            sock = net::connect_to(target);
          } catch (const net::Error&) {
            return;  // closes the coordinator's connection
          }
          FrameChannel worker(sock.release());
          std::thread answers(
              [&]() { forward(worker, coordinator, on_answer); });
          forward(coordinator, worker, on_request);
          answers.join();
        }) {}
  ~Relay() { thread_.join(); }

  net::Endpoint endpoint() const { return {"127.0.0.1", listener_.port()}; }

 private:
  static void forward(FrameChannel& from, FrameChannel& to, const Hook& hook) {
    wire::Frame frame;
    try {
      while (from.recv(&frame)) {
        hook(frame);
        if (!to.send(frame.type, frame.payload)) {
          break;
        }
      }
    } catch (const wire::Error&) {
      // Corrupt framing: hang up both ways, as a worker would.
    }
    from.abort();
    to.abort();
  }

  net::Listener listener_{0};
  std::thread thread_;  // last: runs on the listener
};

DispatchOptions batch_of(std::size_t batch) {
  DispatchOptions options;
  options.batch_size = batch;
  return options;
}

TEST(ConnectLaneTest, MatchesInProcessBitwise) {
  const std::vector<Scenario> cells = mc_grid(17);
  const PlanFn plan = mc_plan();
  const auto reference = lane_sets::threads(1, cells, local_fn_for(plan));

  TestWorker w1;
  TestWorker w2;
  {
    lane_sets::RemoteSweep cluster(
        lane_sets::connect({w1.endpoint(), w2.endpoint()}), plan);
    const auto remote = cluster.run(cells);
    ASSERT_EQ(remote.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_TRUE(remote[i].ok()) << "cell " << i << ": " << remote[i].error;
      EXPECT_EQ(remote[i].result, reference[i].result) << "cell " << i;
    }
  }
}

TEST(ConnectLaneTest, WorkerLossMidSweepRequeuesAndStaysBitwise) {
  const std::vector<Scenario> cells = mc_grid(23);
  const PlanFn plan = mc_plan();
  const auto reference = lane_sets::threads(1, cells, local_fn_for(plan));

  // The healthy worker is throttled slightly so it cannot drain the whole
  // queue before the dying worker's handshake settles - without the
  // barrier of the old per-sweep handshake phase, an unthrottled survivor
  // could finish everything first and the kill below would never trigger.
  TestWorker healthy(/*fail_after=*/0, /*delay_ms=*/25);
  // Answers one single-cell batch, then drops the connection with its
  // next batch in flight: a deterministic mid-sweep kill.
  TestWorker dying(/*fail_after=*/1);
  {
    lane_sets::RemoteSweep cluster(
        lane_sets::connect({healthy.endpoint(), dying.endpoint()}), plan,
        batch_of(1));
    const auto remote = cluster.run(cells);
    ASSERT_EQ(remote.size(), cells.size());
    // Every cell completed (the lost worker's cells re-ran on the
    // survivor) and the rerun is bitwise identical: per-cell seeds make
    // rollback recovery invisible in the output.
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_TRUE(remote[i].ok()) << "cell " << i << ": " << remote[i].error;
      EXPECT_EQ(remote[i].result, reference[i].result) << "cell " << i;
    }
    EXPECT_EQ(cluster.lane->live(), 1u);
  }
}

TEST(ConnectLaneTest, AllWorkersLostFailsRemainingCellsWithoutHanging) {
  const std::vector<Scenario> cells = mc_grid(31);
  const PlanFn plan = mc_plan();

  TestWorker dying(/*fail_after=*/1);
  {
    DispatchOptions options = batch_of(1);
    // Without re-admission: the dead worker's listener is still bound (the
    // test object is in scope), so each revival attempt would connect and
    // then burn a full handshake timeout - the semantics of "everyone is
    // gone" are what this test pins.
    options.readmit = false;
    lane_sets::RemoteSweep cluster(lane_sets::connect({dying.endpoint()}),
                                   plan, options);
    const auto remote = cluster.run(cells);
    ASSERT_EQ(remote.size(), cells.size());
    std::size_t completed = 0;
    std::size_t failed = 0;
    for (const CellOutcome& outcome : remote) {
      if (outcome.ok()) {
        ++completed;
      } else {
        EXPECT_FALSE(outcome.error.empty());
        ++failed;
      }
    }
    // One batch was answered before the worker died; everything else
    // must come back as per-cell errors, never a hang.
    EXPECT_EQ(completed, 1u);
    EXPECT_EQ(failed, cells.size() - 1);
    EXPECT_EQ(cluster.lane->live(), 0u);
  }
}

TEST(ConnectLaneTest, SkipsUnreachableEndpointAndStillCompletes) {
  const std::vector<Scenario> cells = mc_grid(41);
  const PlanFn plan = mc_plan();
  const auto reference = lane_sets::threads(1, cells, local_fn_for(plan));

  // Find a dead port by binding an ephemeral listener and closing it.
  std::uint16_t dead_port = 0;
  {
    net::Listener probe(0);
    dead_port = probe.port();
  }

  TestWorker alive;
  {
    auto options = lane_sets::connect(
        {net::Endpoint{"127.0.0.1", dead_port}, alive.endpoint()});
    options.connect_retries = 0;  // fail the dead endpoint fast
    lane_sets::RemoteSweep cluster(std::move(options), plan);
    const auto remote = cluster.run(cells);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_TRUE(remote[i].ok()) << remote[i].error;
      EXPECT_EQ(remote[i].result, reference[i].result);
    }
    EXPECT_EQ(cluster.lane->live(), 1u);
  }
}

TEST(ConnectLaneTest, TwoCoordinatorsShareOneDaemonPoolConcurrently) {
  // The accept-backlog fix: a daemon pool serves two sweeps at once, each
  // coordinator on its own session, and both print the reference bytes.
  PoolWorker w1(/*max_coordinators=*/2);
  PoolWorker w2(/*max_coordinators=*/2);

  const auto sweep_matches_reference = [&](std::uint64_t master_seed) {
    const std::vector<Scenario> cells = mc_grid(master_seed);
    const PlanFn plan = mc_plan();
    const auto reference = lane_sets::threads(1, cells, local_fn_for(plan));
    lane_sets::RemoteSweep cluster(
        lane_sets::connect({w1.endpoint(), w2.endpoint()}), plan);
    const auto remote = cluster.run(cells);
    if (remote.size() != cells.size()) {
      return false;
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!remote[i].ok() || remote[i].result != reference[i].result) {
        return false;
      }
    }
    return true;
  };

  bool first_ok = false;
  bool second_ok = false;
  std::thread first([&]() { first_ok = sweep_matches_reference(61); });
  std::thread second([&]() { second_ok = sweep_matches_reference(67); });
  first.join();
  second.join();
  EXPECT_TRUE(first_ok);
  EXPECT_TRUE(second_ok);
}

TEST(ConnectLaneTest, StealsStragglerTailAndStaysBitwise) {
  const std::vector<Scenario> cells = mc_grid(53);
  const PlanFn plan = mc_plan();
  const auto reference = lane_sets::threads(1, cells, local_fn_for(plan));

  TestWorker fast;
  // Holds every batch for 800 ms - far longer than the rest of the grid
  // takes - so its cells are still in flight when the queue drains and
  // the fast worker must steal them to finish.
  TestWorker slow(/*fail_after=*/0, /*delay_ms=*/800);
  // A latch on the relays: the fast worker's answers wait until the
  // straggler has its first batch.  Without it a loaded machine could let
  // the fast worker drain the grid before the straggler answered its
  // Hello, leaving nothing to steal.  The wait is bounded so a broken
  // sweep fails the assertions below instead of hanging.
  std::mutex latch_mutex;
  std::condition_variable latch_cv;
  bool straggler_has_work = false;
  const Relay::Hook pass = [](const wire::Frame&) {};
  Relay slow_relay(slow.endpoint(), [&](const wire::Frame& frame) {
    if (frame.type == kFrameCellBatch) {
      const std::lock_guard<std::mutex> lock(latch_mutex);
      straggler_has_work = true;
      latch_cv.notify_all();
    }
  }, pass);
  Relay fast_relay(fast.endpoint(), pass, [&](const wire::Frame& frame) {
    if (frame.type == kFrameResultBatch) {
      std::unique_lock<std::mutex> lock(latch_mutex);
      latch_cv.wait_for(lock, std::chrono::seconds(30),
                        [&]() { return straggler_has_work; });
    }
  });
  {
    DispatchOptions options = batch_of(1);
    options.steal = true;
    lane_sets::RemoteSweep sweep(
        lane_sets::connect({fast_relay.endpoint(), slow_relay.endpoint()}),
        plan, options);
    const HybridExecutor& cluster = sweep.executor;

    // Sweep 1: the straggler holds its batch, the fast worker drains the
    // queue and must steal the tail to finish.
    const auto first = sweep.run(cells);
    ASSERT_EQ(first.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_TRUE(first[i].ok()) << "cell " << i << ": " << first[i].error;
      EXPECT_EQ(first[i].result, reference[i].result) << "cell " << i;
    }
    EXPECT_GE(cluster.stolen_cells_last_run(), 1u);
    EXPECT_EQ(cluster.stolen_cells_last_run(), cluster.stolen_cells());
    const std::size_t after_first = cluster.stolen_cells();

    // Sweep 2 over the same connections: the straggler still owes its
    // stolen-from batch, so its stale answer must be flushed ahead of the
    // new HelloAck (and if it is still asleep when the fast worker
    // finishes everything, it is simply not waited on - there is no
    // handshake barrier).  Either way the bytes cannot change, and the
    // per-run counter reports this sweep alone - asserting the lifetime
    // counter across runs was the accumulation bug the split fixed.
    const auto second = sweep.run(cells);
    ASSERT_EQ(second.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_TRUE(second[i].ok()) << "cell " << i << ": " << second[i].error;
      EXPECT_EQ(second[i].result, reference[i].result) << "cell " << i;
    }
    EXPECT_GE(cluster.stolen_cells(), after_first);  // lifetime: monotone
    EXPECT_LE(cluster.stolen_cells_last_run(), cluster.stolen_cells());
  }
}

TEST(ConnectLaneTest, HungHandshakeWorkerIsDemotedNotWaitedOn) {
  const std::vector<Scenario> cells = mc_grid(59);
  const PlanFn plan = mc_plan();
  const auto reference = lane_sets::threads(1, cells, local_fn_for(plan));

  // A listener that is never accepted: TCP connects fine (backlog), but
  // no Hello is ever answered - the "accepts TCP, never speaks" stall.
  net::Listener hung(0);

  TestWorker alive;
  {
    DispatchOptions options;
    options.handshake_timeout_ms = 300;
    lane_sets::RemoteSweep cluster(
        lane_sets::connect(
            {net::Endpoint{"127.0.0.1", hung.port()}, alive.endpoint()}),
        plan, options);
    const auto remote = cluster.run(cells);
    ASSERT_EQ(remote.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_TRUE(remote[i].ok()) << remote[i].error;
      EXPECT_EQ(remote[i].result, reference[i].result);
    }
    EXPECT_EQ(cluster.lane->live(), 1u);
  }
}

TEST(WorkerTest, CellWithoutPlanBecomesPerCellError) {
  // A coordinator bug (local-only cell_fn leaking into a cluster run)
  // must surface as a clear per-cell error, not garbage results.
  TestWorker worker;
  {
    FrameChannel conn(
        net::connect_to(worker.endpoint(), /*retries=*/5).release());
    Hello hello;
    wire::Writer hw;
    hello.encode(hw);
    ASSERT_TRUE(conn.send(kFrameHello, hw.data()));
    wire::Frame ack;
    ASSERT_TRUE(conn.recv(&ack));
    ASSERT_EQ(ack.type, kFrameHelloAck);

    CellBatch batch;
    batch.cells.push_back(
        BatchCell{0, Scenario::symmetric(2, 1.0, 1.0), false, EvalPlan{}});
    wire::Writer bw;
    batch.encode(bw);
    ASSERT_TRUE(conn.send(kFrameCellBatch, bw.data()));
    wire::Frame reply;
    ASSERT_TRUE(conn.recv(&reply));
    ASSERT_EQ(reply.type, kFrameResultBatch);
    wire::Reader r(reply.payload);
    const ResultBatch results = ResultBatch::decode(r);
    ASSERT_EQ(results.entries.size(), 1u);
    EXPECT_FALSE(results.entries[0].outcome.ok());
    EXPECT_NE(results.entries[0].outcome.error.find("no evaluation plan"),
              std::string::npos);
  }
}

TEST(EndpointParseTest, StrictHostPortParsing) {
  net::Endpoint endpoint;
  std::string why;
  EXPECT_TRUE(net::parse_endpoint("host-a:4701", &endpoint, &why));
  EXPECT_EQ(endpoint.host, "host-a");
  EXPECT_EQ(endpoint.port, 4701);
  EXPECT_TRUE(net::parse_endpoint("127.0.0.1:1", &endpoint, &why));

  EXPECT_FALSE(net::parse_endpoint("hostonly", &endpoint, &why));
  EXPECT_FALSE(net::parse_endpoint(":4701", &endpoint, &why));
  EXPECT_FALSE(net::parse_endpoint("host:", &endpoint, &why));
  EXPECT_FALSE(net::parse_endpoint("host:0", &endpoint, &why));
  EXPECT_FALSE(net::parse_endpoint("host:65536", &endpoint, &why));
  EXPECT_FALSE(net::parse_endpoint("host:47x1", &endpoint, &why));
  EXPECT_FALSE(net::parse_endpoint("host:-1", &endpoint, &why));
}

TEST(EvalPlanTest, RoundTripsAndMatchesHandComposedEvaluation) {
  EvalPlan plan{{EvalStep{"analytic", ""},
                 EvalStep{"monte-carlo", "mc_"}}};
  wire::Writer w;
  plan.encode(w);
  wire::Reader r(w.data());
  const EvalPlan decoded = EvalPlan::decode(r);
  r.expect_done();
  ASSERT_EQ(decoded.steps.size(), 2u);
  EXPECT_EQ(decoded.steps[0].backend, "analytic");
  EXPECT_EQ(decoded.steps[1].prefix, "mc_");

  const Scenario s = Scenario::symmetric(3, 1.0, 1.0).samples(100).seed(7);
  ResultSet by_hand = analytic_backend().evaluate(s);
  by_hand.merge(monte_carlo_backend().evaluate(s), "mc_");
  EXPECT_EQ(evaluate_plan(decoded, s), by_hand);
}

TEST(EvalPlanTest, RejectsEmptyAndUnknown) {
  wire::Writer empty;
  empty.u32(0);
  wire::Reader r(empty.data());
  EXPECT_THROW(EvalPlan::decode(r), wire::Error);

  const Scenario s = Scenario::symmetric(2, 1.0, 1.0);
  EXPECT_THROW(evaluate_plan(EvalPlan{}, s), std::runtime_error);
  EXPECT_THROW(
      evaluate_plan(EvalPlan{{EvalStep{"no-such-backend", ""}}}, s),
      std::runtime_error);
}

}  // namespace
}  // namespace rbx
