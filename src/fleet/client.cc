#include "fleet/client.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace rbx {
namespace fleet {

// --- RegistryClient --------------------------------------------------------

RegistryClient::RegistryClient(RegistryClientOptions options)
    : options_(std::move(options)) {}

RegistryClient::~RegistryClient() { close(); }

void RegistryClient::close() { conn_.reset(); }

void RegistryClient::connect() {
  if (connected()) {
    return;
  }
  conn_.reset();
  auto conn = std::make_unique<FrameChannel>(
      net::connect_to(options_.registry, options_.connect_retries)
          .release());

  const Hello hello;  // fingerprint/total_cells stay 0: no grid
  HelloKey key;       // and no lease, just membership
  key.auth_key = options_.auth_key;
  wire::Writer w;
  keyed_hello(hello, key).encode(w);
  if (!conn->send(kFrameHello, w.data())) {
    throw net::Error("fleet: registry " + options_.registry.to_string() +
                     " hung up during the handshake");
  }
  for (;;) {
    wire::Frame frame;
    HelloStep step;
    try {
      if (!conn->recv(&frame)) {
        throw net::Error("fleet: registry " + options_.registry.to_string() +
                         " closed the connection before acking the "
                         "handshake");
      }
      step = read_hello_frame(hello, key, frame);
    } catch (const wire::Error& e) {
      throw net::Error(std::string("fleet: corrupt registry reply: ") +
                       e.what());
    }
    switch (step.kind) {
      case HelloStep::kWait:
        continue;
      case HelloStep::kAnswer:
        if (!conn->send_frame(step.answer)) {
          throw net::Error("fleet: registry hung up during authentication");
        }
        continue;
      case HelloStep::kRefuse:
        throw net::Error("fleet: registry refused the handshake: " +
                         step.refusal);
      case HelloStep::kAdmit:
        conn_ = std::move(conn);
        return;
    }
  }
}

wire::Frame RegistryClient::roundtrip(std::uint16_t type,
                                      const std::vector<std::byte>& payload,
                                      std::uint16_t expect) {
  connect();
  if (!conn_->send(type, payload)) {
    conn_.reset();
    throw net::Error("fleet: lost the registry connection mid-request");
  }
  wire::Frame frame;
  bool got = false;
  try {
    got = conn_->recv(&frame);
  } catch (const wire::Error& e) {
    conn_.reset();
    throw net::Error(std::string("fleet: corrupt registry reply: ") +
                     e.what());
  }
  if (!got) {
    conn_.reset();
    throw net::Error("fleet: registry closed the connection mid-request");
  }
  if (frame.type == kFrameError) {
    conn_.reset();
    wire::Reader r(frame.payload);
    throw net::Error("fleet: registry refused the request: " + r.str());
  }
  if (frame.type != expect) {
    conn_.reset();
    throw net::Error("fleet: registry answered with unexpected frame type " +
                     std::to_string(frame.type));
  }
  return frame;
}

void RegistryClient::join(const JoinInfo& info) {
  wire::Writer w;
  info.encode(w);
  roundtrip(kFrameFleetJoin, w.data(), kFrameFleetOk);
}

void RegistryClient::heartbeat(const JoinInfo& info) {
  wire::Writer w;
  info.encode(w);
  roundtrip(kFrameFleetHeartbeat, w.data(), kFrameFleetOk);
}

void RegistryClient::leave(const JoinInfo& info) {
  wire::Writer w;
  info.encode(w);
  roundtrip(kFrameFleetLeave, w.data(), kFrameFleetOk);
}

GrantResponse RegistryClient::resolve(const ResolveRequest& req) {
  wire::Writer w;
  req.encode(w);
  const wire::Frame frame =
      roundtrip(kFrameFleetResolve, w.data(), kFrameFleetGrant);
  wire::Reader r(frame.payload);
  GrantResponse resp = GrantResponse::decode(r);
  r.expect_done();
  return resp;
}

// --- FleetMembership -------------------------------------------------------

FleetMembership::FleetMembership(MembershipOptions options)
    : options_(options),
      client_(RegistryClientOptions{options.registry, options.auth_key,
                                    /*connect_retries=*/10}) {}

FleetMembership::~FleetMembership() { stop(); }

void FleetMembership::start() {
  client_.join(options_.self);
  if (!options_.quiet) {
    std::fprintf(stderr,
                 "sweep_workerd: joined fleet registry %s as %s "
                 "(heartbeat every %d ms)\n",
                 options_.registry.to_string().c_str(),
                 options_.self.endpoint().c_str(), options_.heartbeat_ms);
  }
  started_ = true;
  stopping_.store(false);
  thread_ = std::thread([this]() { heartbeat_loop(); });
}

void FleetMembership::heartbeat_loop() {
  // Sleep in short slices so stop() never waits a full heartbeat; a lost
  // registry turns the next heartbeat into a reconnect + re-join (the
  // Join/Heartbeat transition is the same register-or-refresh).
  const auto slice = std::chrono::milliseconds(50);
  auto remaining = std::chrono::milliseconds(options_.heartbeat_ms);
  while (!stopping_.load()) {
    if (remaining.count() > 0) {
      std::this_thread::sleep_for(std::min(slice, remaining));
      remaining -= slice;
      continue;
    }
    remaining = std::chrono::milliseconds(options_.heartbeat_ms);
    try {
      client_.heartbeat(options_.self);
    } catch (const net::Error& e) {
      if (!options_.quiet) {
        std::fprintf(stderr,
                     "sweep_workerd: fleet heartbeat failed (%s); will "
                     "retry\n",
                     e.what());
      }
      client_.close();
    }
  }
}

void FleetMembership::stop() {
  if (!started_) {
    return;
  }
  abandon();
  try {
    client_.leave(options_.self);
  } catch (const net::Error&) {
    // The registry is gone; our entry ages out via the eviction timer.
  }
  client_.close();
}

void FleetMembership::abandon() {
  if (!started_) {
    return;
  }
  started_ = false;
  stopping_.store(true);
  if (thread_.joinable()) {
    thread_.join();
  }
}

}  // namespace fleet
}  // namespace rbx
