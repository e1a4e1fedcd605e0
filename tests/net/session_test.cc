// Both daemons run one session server (net/session.h), so both refuse the
// same way: a wire-version or protocol mismatch, a frame sent before the
// Hello, a peer beyond the session cap and - on a keyed daemon - a keyless
// peer or a wrong HMAC response each get a kFrameError that names the
// reason, never a silent close or a hang.  Every case runs against a real
// WorkerServer and a real RegistryServer on loopback sockets.
#include "net/session.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "core/executor.h"
#include "core/lane.h"
#include "fleet/auth.h"
#include "fleet/registry.h"
#include "net/socket.h"
#include "net/worker.h"

namespace rbx {
namespace {

// A daemon serving on its own thread until destroyed.
class Daemon {
 public:
  virtual ~Daemon() = default;
  virtual std::uint16_t port() const = 0;
  net::Endpoint endpoint() const { return {"127.0.0.1", port()}; }
};

template <typename Server, typename Options>
class Serving : public Daemon {
 public:
  explicit Serving(const Options& options)
      : server_(options), thread_([this]() { server_.serve(); }) {}
  ~Serving() override {
    server_.stop();
    thread_.join();
  }
  std::uint16_t port() const override { return server_.port(); }

 private:
  Server server_;
  std::thread thread_;
};

std::unique_ptr<Daemon> start_worker(std::size_t max_sessions,
                                     const std::string& auth_key) {
  net::WorkerOptions options;
  options.quiet = true;
  options.max_coordinators = max_sessions;
  options.auth_key = auth_key;
  return std::make_unique<Serving<net::WorkerServer, net::WorkerOptions>>(
      options);
}

std::unique_ptr<Daemon> start_registry(std::size_t max_sessions,
                                       const std::string& auth_key) {
  fleet::RegistryOptions options;
  options.quiet = true;
  options.max_sessions = max_sessions;
  options.table.auth_key = auth_key;
  return std::make_unique<
      Serving<fleet::RegistryServer, fleet::RegistryOptions>>(options);
}

struct DaemonKind {
  const char* name;
  const char* cap;  // what its refusal of a peer beyond the cap names
  std::unique_ptr<Daemon> (*start)(std::size_t max_sessions,
                                   const std::string& auth_key);
};

void PrintTo(const DaemonKind& kind, std::ostream* os) { *os << kind.name; }

class SessionRefusalTest : public ::testing::TestWithParam<DaemonKind> {
 protected:
  std::unique_ptr<Daemon> start(std::size_t max_sessions = 4,
                                const std::string& auth_key = {}) {
    return GetParam().start(max_sessions, auth_key);
  }
};

bool send_hello(FrameChannel& conn, const Hello& hello) {
  wire::Writer w;
  hello.encode(w);
  return conn.send(kFrameHello, w.data());
}

// The daemon's next frame, which must be a refusal; returns its message.
std::string read_refusal(FrameChannel& conn) {
  wire::Frame reply;
  if (!conn.recv(&reply) || reply.type != kFrameError) {
    ADD_FAILURE() << "expected a kFrameError refusal, got frame type "
                  << reply.type;
    return {};
  }
  wire::Reader r(reply.payload);
  return r.str();
}

TEST_P(SessionRefusalTest, RefusesWireVersionMismatch) {
  const auto daemon = start();
  FrameChannel conn(
      net::connect_to(daemon->endpoint(), /*retries=*/5).release());
  Hello hello;
  hello.wire_version = wire::kVersion + 1;
  ASSERT_TRUE(send_hello(conn, hello));
  EXPECT_NE(read_refusal(conn).find("wire version"), std::string::npos);
}

TEST_P(SessionRefusalTest, RefusesProtocolMismatch) {
  const auto daemon = start();
  FrameChannel conn(
      net::connect_to(daemon->endpoint(), /*retries=*/5).release());
  Hello hello;
  hello.protocol = kProtocolVersion + 7;
  ASSERT_TRUE(send_hello(conn, hello));
  EXPECT_NE(read_refusal(conn).find("protocol"), std::string::npos);
}

TEST_P(SessionRefusalTest, RejectsFrameBeforeHandshake) {
  // Traffic sent before the Hello would bypass the protocol/wire-version/
  // fingerprint checks entirely; the daemon must refuse and hang up - and
  // the hang-up must come from the session ending, not from daemon
  // teardown.
  const auto daemon = start(/*max_sessions=*/2);
  FrameChannel conn(
      net::connect_to(daemon->endpoint(), /*retries=*/5).release());
  CellBatch batch;
  batch.cells.push_back(BatchCell{0, Scenario::symmetric(2, 1.0, 1.0), true,
                                  EvalPlan{{EvalStep{"analytic", ""}}}});
  wire::Writer bw;
  batch.encode(bw);
  ASSERT_TRUE(conn.send(kFrameCellBatch, bw.data()));
  EXPECT_NE(read_refusal(conn).find("handshake"), std::string::npos);
  // The daemon hung up: the next recv sees EOF, not an answer.
  wire::Frame extra;
  EXPECT_FALSE(conn.recv(&extra));
}

TEST_P(SessionRefusalTest, RefusesPeerBeyondTheCapNotBacklogged) {
  const auto daemon = start(/*max_sessions=*/1);
  FrameChannel first(
      net::connect_to(daemon->endpoint(), /*retries=*/5).release());
  ASSERT_TRUE(send_hello(first, Hello{}));
  wire::Frame ack;
  ASSERT_TRUE(first.recv(&ack));
  ASSERT_EQ(ack.type, kFrameHelloAck);

  // The session above is still open, so a second peer must get a loud
  // refusal instead of sitting in the accept backlog forever - even with
  // its Hello pipelined right behind connect(), as both the coordinator
  // and RegistryClient::connect send it, left unread by the daemon.
  FrameChannel second(
      net::connect_to(daemon->endpoint(), /*retries=*/5).release());
  ASSERT_TRUE(send_hello(second, Hello{}));
  EXPECT_NE(read_refusal(second).find(GetParam().cap), std::string::npos);
}

TEST_P(SessionRefusalTest, KeylessPeerIsRefusedWithAnErrorFrame) {
  const auto daemon = start(/*max_sessions=*/4, "fleet-key");
  FrameChannel conn(
      net::connect_to(daemon->endpoint(), /*retries=*/5).release());
  ASSERT_TRUE(send_hello(conn, Hello{}));
  EXPECT_NE(read_refusal(conn).find("authentication"), std::string::npos);
}

TEST_P(SessionRefusalTest, WrongKeyFailsTheChallenge) {
  const auto daemon = start(/*max_sessions=*/4, "fleet-key");
  FrameChannel conn(
      net::connect_to(daemon->endpoint(), /*retries=*/5).release());
  Hello hello;
  hello.flags |= kHelloFlagAuth;
  ASSERT_TRUE(send_hello(conn, hello));
  wire::Frame challenge;
  ASSERT_TRUE(conn.recv(&challenge));
  ASSERT_EQ(challenge.type, kFrameAuthChallenge);
  wire::Reader cr(challenge.payload);
  wire::Writer response;
  response.str(fleet::auth_mac("wrong-key", cr.str()));
  ASSERT_TRUE(conn.send(kFrameAuthResponse, response.data()));
  EXPECT_NE(read_refusal(conn).find("authentication failed"),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    BothDaemons, SessionRefusalTest,
    ::testing::Values(DaemonKind{"worker", "max-coordinators", start_worker},
                      DaemonKind{"registry", "max_sessions", start_registry}),
    [](const ::testing::TestParamInfo<DaemonKind>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace rbx
