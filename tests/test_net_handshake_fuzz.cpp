// Seeded mutations of the session handshake, fed to the one session host
// and the one session endpoint of src/net: HELLO payloads through
// ServeDaemon and the dist coordinator's NetTransport, WELCOME payloads in
// both tail layouts through ServeClient and NetWorker. A host answers every
// HELLO with a kRefuse or with the WELCOME the input earned, and keeps
// stepping; no WELCOME, so no session, goes to an id it does not admit. An
// endpoint ends every WELCOME in a ProtocolError unless the WELCOME is
// valid; nothing else escapes.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "dist/island.hpp"
#include "dist/net_transport.hpp"
#include "dist/worker.hpp"
#include "net/client.hpp"
#include "net/fake_socket.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/session.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace {

using namespace hadas;

constexpr int kInputs = 400;

/// Scripted stand-in for the supervisor bridge: handshakes never reach it.
class IdleService : public runtime::serve::ServeService {
 public:
  std::size_t sample_count() const override { return 7; }
  const std::string& fingerprint() const override { return fingerprint_; }
  std::string run_trace(
      const std::vector<runtime::serve::RemoteRequest>&) const override {
    return "{}";
  }

 private:
  std::string fingerprint_ = "idle-service-fp";
};

dist::DistSpec small_spec() {
  dist::DistSpec spec;
  spec.device = "tx2-gpu";
  spec.space = "attentive";
  spec.outer_population = 4;
  spec.outer_generations = 2;
  spec.ioe_backbones_per_generation = 1;
  spec.ioe_population = 4;
  spec.ioe_generations = 2;
  spec.train_size = 100;
  spec.epochs = 1;
  spec.islands = 2;
  spec.migration_every = 1;
  spec.migrants = 1;
  return spec;
}

std::string hello_payload(std::uint32_t version, std::uint64_t read_seq,
                          const std::string& id) {
  std::string payload;
  net::put_u32(payload, version);
  net::put_u64(payload, read_seq);
  return payload + id;
}

/// One seeded mutation of `base`: a bit flip, a truncation, an oversized
/// id (over the 64-byte limit, sometimes far over) or a bad protocol
/// version; one input in ten is left intact as a control.
std::string mutate_hello(const std::string& base, util::Rng& rng) {
  std::string payload = base;
  if (rng.bernoulli(0.1)) return payload;
  switch (rng.uniform_index(4)) {
    case 0: {
      const std::size_t bit = rng.uniform_index(8 * payload.size());
      payload[bit / 8] = static_cast<char>(payload[bit / 8] ^ (1 << (bit % 8)));
      break;
    }
    case 1:
      payload.resize(rng.uniform_index(payload.size()));
      break;
    case 2:
      payload.append(65 + rng.uniform_index(rng.bernoulli(0.1) ? 8000 : 100),
                     'x');
      break;
    default: {
      std::uint32_t version = net::kProtocolVersion;
      while (version == net::kProtocolVersion)
        version = static_cast<std::uint32_t>(rng.next_u64());
      std::string bytes;
      net::put_u32(bytes, version);
      payload.replace(0, 4, bytes);
      break;
    }
  }
  return payload;
}

struct Hello {
  bool well_formed = false;  ///< current version and a valid session id
  std::uint64_t read_seq = 0;
  std::string id;
};

Hello parse_hello(const std::string& payload) {
  Hello hello;
  if (payload.size() < 12) return hello;
  hello.read_seq = net::get_u64(payload, 4);
  hello.id = payload.substr(12);
  hello.well_formed = net::get_u32(payload, 0) == net::kProtocolVersion &&
                      net::valid_session_id(hello.id);
  return hello;
}

/// Send one HELLO on a fresh connection and step the host until it answers
/// with a frame. The host must not throw.
net::Frame handshake(net::FakeSocketHandler& handler,
                     const util::HostPort& host, const std::string& payload,
                     const std::function<void()>& step_host) {
  std::unique_ptr<net::Socket> socket = handler.connect(host);
  const std::string hello = net::encode_frame(net::FrameType::kHello, payload);
  EXPECT_EQ(socket->write(hello.data(), hello.size()), hello.size());
  net::FrameDecoder decoder;
  std::optional<net::Frame> frame;
  char buf[4096];
  for (int i = 0; i < 20 && !frame; ++i) {
    EXPECT_NO_THROW(step_host());
    try {
      while (const std::size_t got = socket->read(buf, sizeof(buf)))
        decoder.feed(buf, got);
    } catch (const net::SocketClosedError&) {
    }
    frame = decoder.next();
  }
  EXPECT_TRUE(frame.has_value()) << "no answer to a HELLO";
  socket->close();
  step_host();  // reap the connection
  return frame.value_or(net::Frame{});
}

TEST(NetHandshakeFuzz, ServeDaemonRefusesOrEarnsEveryMutatedHello) {
  const test::ScratchDir scratch;
  auto network = std::make_shared<net::FakeNetwork>();
  net::FakeSocketHandler handler(network);
  const IdleService service;
  net::DaemonConfig config;
  config.listen = {"daemon", 9000};
  config.state_dir = scratch.file("");
  net::ServeDaemon daemon(handler, service, config);
  daemon.start();

  util::Rng rng(0x4E110);
  std::set<std::string> live;  // ids welcomed afresh: sessions in memory
  std::size_t refused = 0, welcomed = 0;
  for (int input = 0; input < kInputs; ++input) {
    const std::string base = hello_payload(
        net::kProtocolVersion, rng.bernoulli(0.3) ? rng.next_u64() : 0,
        "fuzz-" + std::to_string(rng.uniform_index(8)));
    const std::string payload = mutate_hello(base, rng);
    const Hello hello = parse_hello(payload);
    const net::Frame answer = handshake(handler, config.listen, payload,
                                        [&] { daemon.step(); });
    SCOPED_TRACE("input " + std::to_string(input));
    // A valid id is served: afresh at read_seq 0, as a completed session
    // when it has no live session, refused when outside a live one's
    // replay window. Everything else is refused.
    const bool fresh = hello.well_formed && hello.read_seq == 0;
    const bool completed =
        hello.well_formed && hello.read_seq > 0 && live.count(hello.id) == 0;
    if (fresh || completed) {
      ASSERT_EQ(answer.type, net::FrameType::kWelcome);
      EXPECT_EQ(net::get_u64(answer.payload, 0),
                fresh ? 0 : net::kSessionCompleted);
      if (fresh) live.insert(hello.id);
      ++welcomed;
    } else {
      ASSERT_EQ(answer.type, net::FrameType::kRefuse);
      ++refused;
    }
    EXPECT_EQ(daemon.active_sessions(), live.size());
  }
  EXPECT_EQ(daemon.active_connections(), 0u);
  EXPECT_GT(refused, std::size_t{kInputs} / 2);
  EXPECT_GT(welcomed, 0u);
}

TEST(NetHandshakeFuzz, CoordinatorRefusesOrEarnsEveryMutatedHello) {
  const test::ScratchDir scratch;
  auto network = std::make_shared<net::FakeNetwork>();
  net::FakeSocketHandler handler(network);
  dist::DistOptions options;
  options.listen = util::HostPort{"coord", 7314};
  options.socket_handler = &handler;
  options.heartbeat_ms = 600000;
  dist::NetTransport coordinator(small_spec(), scratch.file("coord"), options,
                                 [](const std::string&) {});
  coordinator.start();
  dist::DistReport report;

  util::Rng rng(0xD157);
  std::size_t refused = 0, welcomed = 0;
  for (int input = 0; input < kInputs; ++input) {
    const std::string base = hello_payload(
        net::kProtocolVersion, rng.bernoulli(0.3) ? rng.next_u64() : 0,
        dist::dist_session_id(rng.uniform_index(2)));
    const std::string payload = mutate_hello(base, rng);
    const Hello hello = parse_hello(payload);
    const net::Frame answer =
        handshake(handler, *options.listen, payload,
                  [&] { coordinator.step(report); });
    SCOPED_TRACE("input " + std::to_string(input));
    // Only island-0 and island-1, spelt canonically, at read_seq 0 are
    // served: no island has a journal or a result.
    const std::optional<std::size_t> island =
        dist::parse_dist_session_id(hello.id);
    if (hello.well_formed && island.has_value() && *island < 2 &&
        hello.read_seq == 0) {
      ASSERT_EQ(answer.type, net::FrameType::kWelcome);
      EXPECT_EQ(net::get_u64(answer.payload, 0), 0u);
      ++welcomed;
    } else {
      ASSERT_EQ(answer.type, net::FrameType::kRefuse);
      ++refused;
    }
  }
  // One spelling per island: an alias of island 1 is refused, not served
  // as a second session of it.
  const auto step = [&] { coordinator.step(report); };
  EXPECT_EQ(handshake(handler, *options.listen,
                      hello_payload(net::kProtocolVersion, 0, "island-01"), step)
                .type,
            net::FrameType::kRefuse);
  EXPECT_EQ(handshake(handler, *options.listen,
                      hello_payload(net::kProtocolVersion, 0, "island-1"), step)
                .type,
            net::FrameType::kWelcome);
  EXPECT_EQ(coordinator.connection_count(), 0u);
  EXPECT_EQ(report.workers_quarantined, 0u);
  EXPECT_GT(refused, std::size_t{kInputs} / 2);
  EXPECT_GT(welcomed, 0u);
}

/// One seeded mutation of a WELCOME payload that always changes it: a bit
/// flip, a truncation, trailing garbage or an arbitrary read_seq.
std::string mutate_welcome(const std::string& base, util::Rng& rng) {
  std::string payload = base;
  switch (rng.uniform_index(4)) {
    case 0: {
      const std::size_t bit = rng.uniform_index(8 * payload.size());
      payload[bit / 8] = static_cast<char>(payload[bit / 8] ^ (1 << (bit % 8)));
      break;
    }
    case 1:
      payload.resize(rng.uniform_index(payload.size()));
      break;
    case 2:
      payload.append(1 + rng.uniform_index(300), '\x7f');
      break;
    default: {
      std::string bytes;
      net::put_u64(bytes, rng.bernoulli(0.3) ? net::kSessionCompleted
                                             : 1 + rng.uniform_index(1 << 20));
      payload.replace(0, 8, bytes);
      break;
    }
  }
  return payload;
}

/// Answer the endpoint's next HELLO on `listener` with `welcome`, then let
/// it step. Returns the ProtocolError text, or nullopt when the endpoint
/// took the WELCOME (or dropped the connection) without one.
std::optional<std::string> answer_hello(net::FakeSocketHandler& handler,
                                        int listener,
                                        const std::string& welcome,
                                        const std::function<bool()>& step) {
  try {
    step();  // dial + HELLO
    std::unique_ptr<net::Socket> socket = handler.accept(listener);
    EXPECT_NE(socket, nullptr);
    if (socket == nullptr) return std::nullopt;
    const std::string frame =
        net::encode_frame(net::FrameType::kWelcome, welcome);
    EXPECT_EQ(socket->write(frame.data(), frame.size()), frame.size());
    step();
    step();
  } catch (const net::ProtocolError& error) {
    return std::string(error.what());
  }
  return std::nullopt;
}

TEST(NetHandshakeFuzz, ServeClientEndsEveryMutatedWelcome) {
  const test::ScratchDir scratch;
  auto network = std::make_shared<net::FakeNetwork>();
  net::FakeSocketHandler handler(network);
  const util::HostPort host{"daemon", 9000};
  const int listener = handler.listen(host);
  std::string base;
  net::put_u64(base, 0);
  net::put_u64(base, 40);
  base += "serve-fp";

  util::Rng rng(0xC11E);
  std::size_t errors = 0;
  for (int input = 0; input < kInputs; ++input) {
    net::ClientConfig config;
    config.connect = host;
    config.session_id = "fuzz";
    config.state_path = scratch.file("client-" + std::to_string(input));
    config.traffic.requests = 10;
    net::ServeClient client(handler, config);
    const std::string welcome = mutate_welcome(base, rng);
    const std::optional<std::string> error =
        answer_hello(handler, listener, welcome, [&] { return client.step(); });
    SCOPED_TRACE("input " + std::to_string(input));
    if (error) {
      ++errors;
      continue;
    }
    // Taken: it carried a read_seq inside the client's replay window, and
    // the fingerprint the client journaled is the one it carried.
    ASSERT_GE(welcome.size(), 16u);
    EXPECT_EQ(client.server_fingerprint(), welcome.substr(16));
    while (handler.accept(listener) != nullptr) {
    }
  }
  EXPECT_GT(errors, std::size_t{kInputs} / 4);
  handler.close_listener(listener);
}

TEST(NetHandshakeFuzz, NetWorkerEndsEveryMutatedWelcome) {
  const test::ScratchDir scratch;
  auto network = std::make_shared<net::FakeNetwork>();
  net::FakeSocketHandler handler(network);
  const util::HostPort host{"coord", 7314};
  const int listener = handler.listen(host);
  const dist::DistSpec spec = small_spec();
  const std::string fingerprint = dist::spec_fingerprint(spec);
  std::string base;
  net::put_u64(base, 0);
  net::put_u32(base, static_cast<std::uint32_t>(fingerprint.size()));
  base += fingerprint;
  base += dist::spec_to_json(spec).dump(0);

  util::Rng rng(0xD0CC);
  const std::atomic<bool> cancel{true};  // no island round runs here
  std::size_t errors = 0, taken = 0;
  for (int input = 0; input < kInputs; ++input) {
    dist::NetWorkerConfig config;
    config.connect = host;
    config.island = 0;
    config.state_dir = scratch.file("worker-" + std::to_string(input));
    config.cancel = &cancel;
    dist::NetWorker worker(&handler, config);
    const std::string welcome = mutate_welcome(base, rng);
    const std::optional<std::string> error =
        answer_hello(handler, listener, welcome, [&] { return worker.step(); });
    SCOPED_TRACE("input " + std::to_string(input));
    const std::string spec_file = dist::spec_path(config.state_dir);
    if (error) {
      ++errors;
      // Refused before anything was persisted.
      EXPECT_FALSE(worker.spec_received());
      EXPECT_FALSE(std::filesystem::exists(spec_file));
    } else {
      // Taken only when the mutation left the coordinator's own spec (the
      // case of a hex digit, say): that is the spec persisted.
      ++taken;
      ASSERT_TRUE(worker.spec_received());
      EXPECT_EQ(dist::spec_fingerprint(dist::load_spec(spec_file)),
                fingerprint);
    }
    while (handler.accept(listener) != nullptr) {
    }
  }
  EXPECT_GT(errors, std::size_t{kInputs} * 9 / 10);
  EXPECT_LT(taken, std::size_t{kInputs} / 10);
  handler.close_listener(listener);
}

}  // namespace
