// The in-process loopback transport and the daemon/client session protocol
// over it: fake-pipe socket semantics, happy-path serving with a scripted
// ServeService, multi-client multiplexing, the flaky wrapper's seeded sever
// schedule, the daemon's final ack arriving together with its close, net
// metrics registration, and a two-thread run()/run() exercise (the TSan
// target for this subsystem).

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/fake_socket.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

#include <cmath>

namespace {

using namespace hadas;
using net::ClientConfig;
using net::DaemonConfig;
using net::FakeNetwork;
using net::FakeSocketHandler;
using net::FlakyConfig;
using net::FlakySocketHandler;
using net::ServeClient;
using net::ServeDaemon;

/// Deterministic stand-in for the supervisor bridge: echoes a digest of the
/// received trace, padded well past one report chunk so the report spans
/// multiple app frames and DATA frames.
class FakeService : public runtime::serve::ServeService {
 public:
  std::size_t sample_count() const override { return 40; }
  const std::string& fingerprint() const override { return fingerprint_; }
  std::string run_trace(
      const std::vector<runtime::serve::RemoteRequest>& requests)
      const override {
    std::uint64_t id_sum = 0, pos_sum = 0;
    double last_arrival = 0.0;
    for (const auto& r : requests) {
      id_sum += r.id;
      pos_sum += r.sample_pos;
      last_arrival = r.arrival_s;
    }
    std::string digest = "{\n  \"requests\": " +
                         std::to_string(requests.size()) +
                         ",\n  \"id_sum\": " + std::to_string(id_sum) +
                         ",\n  \"pos_sum\": " + std::to_string(pos_sum) +
                         ",\n  \"last_arrival\": " +
                         std::to_string(last_arrival) + "\n}\n";
    std::string padded;
    while (padded.size() < 90 * 1024) padded += digest;
    return padded;
  }

 private:
  std::string fingerprint_ = "fake-service-fp-1";
};

struct Loopback {
  explicit Loopback(const std::string& name) {
    dir = "/tmp/hadas_net_loop_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~Loopback() { std::filesystem::remove_all(dir); }

  ClientConfig client_config(const std::string& session,
                             std::size_t requests = 200) const {
    ClientConfig config;
    config.connect = {"daemon", 9000};
    config.session_id = session;
    config.state_path = dir + "/client-" + session + ".json";
    config.traffic.requests = requests;
    config.traffic.arrival_rate_hz = 150.0;
    config.traffic.seed = 0x5E21;
    return config;
  }

  DaemonConfig daemon_config(std::size_t once = 0) const {
    DaemonConfig config;
    config.listen = {"daemon", 9000};
    config.state_dir = dir;
    config.once = once;
    return config;
  }

  std::shared_ptr<FakeNetwork> network = std::make_shared<FakeNetwork>();
  FakeSocketHandler handler{network};
  FakeService service;
  std::string dir;
};

/// What the client's deterministic trace should produce: rebuild the same
/// requests (arrival process mirrors poisson_trace, sample position = index)
/// and run them through the service directly.
std::string expected_report(const runtime::serve::ServeService& service,
                            const ClientConfig& config) {
  util::Rng rng(config.traffic.seed);
  std::vector<runtime::serve::RemoteRequest> requests;
  double arrival = 0.0;
  for (std::size_t i = 0; i < config.traffic.requests; ++i) {
    if (config.traffic.arrival_rate_hz > 0.0)
      arrival += -std::log(1.0 - rng.uniform()) / config.traffic.arrival_rate_hz;
    requests.push_back({i, arrival, i});
  }
  return service.run_trace(requests);
}

/// Cooperative pump until the client finishes (or the step budget runs out).
bool drive(ServeDaemon& daemon, ServeClient& client, int max_steps = 20000) {
  for (int i = 0; i < max_steps && !client.done(); ++i) {
    client.step();
    daemon.step();
  }
  return client.done();
}

TEST(NetLoopback, FakePipeDeliversBytesAndBackpressures) {
  auto network = std::make_shared<FakeNetwork>();
  FakeSocketHandler handler(network);
  EXPECT_THROW(handler.connect({"nobody", 1}), net::ConnectError);

  const int listener = handler.listen({"srv", 1});
  EXPECT_EQ(handler.accept(listener), nullptr);  // nothing pending

  auto client_end = handler.connect({"srv", 1});
  auto server_end = handler.accept(listener);
  ASSERT_NE(server_end, nullptr);

  // Deliver a small message.
  EXPECT_EQ(client_end->write("ping", 4), 4u);
  char buf[16];
  EXPECT_EQ(server_end->read(buf, sizeof(buf)), 4u);
  EXPECT_EQ(std::string(buf, 4), "ping");
  EXPECT_EQ(server_end->read(buf, sizeof(buf)), 0u);  // would block

  // Backpressure: the pipe accepts at most kPipeCapacity unread bytes.
  const std::string big(FakeNetwork::kPipeCapacity + 500, 'x');
  const std::size_t accepted = client_end->write(big.data(), big.size());
  EXPECT_EQ(accepted, FakeNetwork::kPipeCapacity);
  EXPECT_EQ(client_end->write("y", 1), 0u);  // full: would block

  // Peer close: buffered bytes still drain, then reads throw.
  client_end->close();
  std::size_t drained = 0;
  for (;;) {
    try {
      const std::size_t got = server_end->read(buf, sizeof(buf));
      ASSERT_GT(got, 0u);
      drained += got;
    } catch (const net::SocketClosedError&) {
      break;
    }
  }
  EXPECT_EQ(drained, FakeNetwork::kPipeCapacity);
  EXPECT_THROW(server_end->write("z", 1), net::SocketClosedError);
  handler.close_listener(listener);
}

TEST(NetLoopback, HappyPathServesOneSession) {
  Loopback loop("happy");
  ServeDaemon daemon(loop.handler, loop.service, loop.daemon_config());
  daemon.start();
  ServeClient client(loop.handler, loop.client_config("alice"));

  ASSERT_TRUE(drive(daemon, client));
  EXPECT_EQ(client.report(),
            expected_report(loop.service, loop.client_config("x")));
  EXPECT_EQ(client.reconnects(), 0u);
  EXPECT_EQ(daemon.sessions_completed(), 1u);
  EXPECT_EQ(daemon.active_sessions(), 0u);  // BYE garbage-collected it
  EXPECT_EQ(client.server_fingerprint(), loop.service.fingerprint());
  // Both journals were deleted on completion.
  EXPECT_FALSE(std::filesystem::exists(loop.dir + "/client-alice.json"));
  EXPECT_FALSE(std::filesystem::exists(loop.dir + "/session-alice.json"));
}

/// Client-side sockets that let the daemon take a step after every write:
/// the interleaving of a daemon thread that answers the client's BYE and
/// closes while the client is still inside the pump that sent it.
class EagerPeerHandler : public net::SocketHandler {
 public:
  EagerPeerHandler(net::SocketHandler& inner, std::function<void()> peer_step)
      : inner_(inner), peer_step_(std::move(peer_step)) {}

  int listen(const util::HostPort& addr) override { return inner_.listen(addr); }
  std::unique_ptr<net::Socket> accept(int listener) override {
    return inner_.accept(listener);
  }
  void close_listener(int listener) override { inner_.close_listener(listener); }
  std::unique_ptr<net::Socket> connect(const util::HostPort& addr) override {
    return std::make_unique<Eager>(inner_.connect(addr), peer_step_);
  }
  void wait(int timeout_ms) override { inner_.wait(timeout_ms); }

 private:
  class Eager : public net::Socket {
   public:
    Eager(std::unique_ptr<net::Socket> inner, std::function<void()> peer_step)
        : inner_(std::move(inner)), peer_step_(std::move(peer_step)) {}
    std::size_t read(char* buf, std::size_t n) override {
      return inner_->read(buf, n);
    }
    std::size_t write(const char* buf, std::size_t n) override {
      const std::size_t put = inner_->write(buf, n);
      if (put > 0) peer_step_();
      return put;
    }
    void close() override { inner_->close(); }
    bool open() const override { return inner_->open(); }

   private:
    std::unique_ptr<net::Socket> inner_;
    std::function<void()> peer_step_;
  };

  net::SocketHandler& inner_;
  std::function<void()> peer_step_;
};

// The daemon's ack of BYE and its close can both land in the client's last
// pump of a step. The client must act on that ack rather than reconnect: a
// `once` daemon has already exited and would never accept the reconnect.
TEST(NetLoopback, FinalAckArrivingWithTheCloseFinishesTheClient) {
  Loopback loop("final_ack");
  ServeDaemon daemon(loop.handler, loop.service, loop.daemon_config());
  daemon.start();
  EagerPeerHandler eager(loop.handler, [&] { daemon.step(); });
  ServeClient client(eager, loop.client_config("final_ack", 120));

  ASSERT_TRUE(drive(daemon, client));
  EXPECT_EQ(client.reconnects(), 0u);
  EXPECT_EQ(daemon.sessions_completed(), 1u);
  EXPECT_EQ(client.report(),
            expected_report(loop.service, loop.client_config("x", 120)));
}

TEST(NetLoopback, ManyClientsMultiplexOnOneDaemon) {
  Loopback loop("multi");
  ServeDaemon daemon(loop.handler, loop.service, loop.daemon_config());
  daemon.start();

  std::vector<std::unique_ptr<ServeClient>> clients;
  for (int i = 0; i < 5; ++i)
    clients.push_back(std::make_unique<ServeClient>(
        loop.handler,
        loop.client_config("client-" + std::to_string(i), 100 + 13 * i)));

  bool all_done = false;
  for (int step = 0; step < 40000 && !all_done; ++step) {
    all_done = true;
    for (auto& client : clients) {
      client->step();
      all_done &= client->done();
    }
    daemon.step();
  }
  ASSERT_TRUE(all_done);
  EXPECT_EQ(daemon.sessions_completed(), 5u);
  // Different traces produce different reports; equal configs equal ones.
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(clients[i]->report(),
              expected_report(loop.service,
                              loop.client_config("x", 100 + 13 * i)))
        << "client " << i;
}

TEST(NetLoopback, FlakySeverScheduleIsSeededAndSurvivable) {
  Loopback loop("flaky");
  ServeDaemon daemon(loop.handler, loop.service, loop.daemon_config());
  daemon.start();

  FlakyConfig flaky;
  flaky.seed = 0xC4A05;
  flaky.severs = 3;
  flaky.min_bytes = 200;
  flaky.max_bytes = 3000;
  FlakySocketHandler chaos(loop.handler, flaky);
  ServeClient client(chaos, loop.client_config("flaky-client"));

  ASSERT_TRUE(drive(daemon, client, 60000));
  EXPECT_EQ(chaos.severed(), 3u);
  EXPECT_EQ(client.reconnects(), 3u);
  EXPECT_EQ(client.report(),
            expected_report(loop.service, loop.client_config("x")));
  EXPECT_EQ(daemon.sessions_completed(), 1u);
}

/// Raw HELLO bytes as a real client would send them.
std::string hello_bytes(const std::string& id, std::uint64_t read_seq) {
  std::string payload;
  net::put_u32(payload, net::kProtocolVersion);
  net::put_u64(payload, read_seq);
  payload += id;
  return net::encode_frame(net::FrameType::kHello, payload);
}

// A client that reboots while its old socket is still half-open reconnects
// under the same session id. The daemon must hand the session to the new
// connection and drop the stale one — leaving it attached used to let its
// flush cursor fall behind writer.acked(), and the resulting ProtocolError
// out of pump() killed the whole daemon.
TEST(NetLoopback, NewerConnectionStealsSessionFromStaleOne) {
  Loopback loop("steal");
  ServeDaemon daemon(loop.handler, loop.service, loop.daemon_config());
  daemon.start();

  auto stale = loop.handler.connect({"daemon", 9000});
  const std::string hello = hello_bytes("dup", 0);
  ASSERT_EQ(stale->write(hello.data(), hello.size()), hello.size());
  daemon.step();  // accept + handshake the soon-to-be-stale connection
  EXPECT_EQ(daemon.active_connections(), 1u);
  EXPECT_EQ(daemon.active_sessions(), 1u);

  auto fresh = loop.handler.connect({"daemon", 9000});
  ASSERT_EQ(fresh->write(hello.data(), hello.size()), hello.size());
  daemon.step();  // handshake the fresh connection: steals the session
  daemon.step();  // reap the stolen (now socket-less) connection
  EXPECT_EQ(daemon.active_connections(), 1u);
  EXPECT_EQ(daemon.active_sessions(), 1u);

  // The stale end was closed server-side: its buffered WELCOME drains,
  // then reads throw.
  char buf[1024];
  bool closed = false;
  try {
    for (int i = 0; i < 100 && !closed; ++i) (void)stale->read(buf, sizeof(buf));
  } catch (const net::SocketClosedError&) {
    closed = true;
  }
  EXPECT_TRUE(closed);

  // The fresh connection owns the session and got a WELCOME.
  net::FrameDecoder decoder;
  std::optional<net::Frame> frame;
  for (int i = 0; i < 100 && !frame; ++i) {
    const std::size_t got = fresh->read(buf, sizeof(buf));
    if (got > 0) decoder.feed(buf, got);
    frame = decoder.next();
    daemon.step();
  }
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, net::FrameType::kWelcome);
}

// A client whose durable journal was lost mid-session reconnects with
// read_seq 0, below the server's acked offset. The server must answer with
// a kRefuse naming the problem (and survive), and the client must fail
// loudly instead of silently reconnect-looping forever.
TEST(NetLoopback, LostClientJournalIsRefusedLoudly) {
  Loopback loop("refuse");
  ServeDaemon daemon(loop.handler, loop.service, loop.daemon_config());
  daemon.start();
  auto client = std::make_unique<ServeClient>(loop.handler,
                                              loop.client_config("lost"));
  // Drive until the client durably consumed (and acked) report bytes.
  for (int i = 0; i < 20000 && client->report().empty(); ++i) {
    client->step();
    daemon.step();
  }
  ASSERT_FALSE(client->report().empty());
  ASSERT_FALSE(client->done());
  client.reset();  // kill -9; the in-flight ack still drains
  daemon.step();
  std::filesystem::remove(loop.dir + "/client-lost.json");  // journal lost

  ServeClient amnesiac(loop.handler, loop.client_config("lost"));
  try {
    for (int i = 0; i < 20000 && !amnesiac.done(); ++i) {
      amnesiac.step();
      daemon.step();
    }
    FAIL() << "a regressed read_seq must be refused, not served";
  } catch (const net::ProtocolError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("refused"), std::string::npos) << what;
    EXPECT_NE(what.find("journal lost"), std::string::npos) << what;
  }
  // Connection-fatal, daemon-survivable: the session is still resumable.
  EXPECT_NO_THROW(daemon.step());
  EXPECT_EQ(daemon.active_sessions(), 1u);
}

// A server that accepts and hangs up without ever completing a handshake
// (no WELCOME, no kRefuse — e.g. a pre-refusal build) must not look like an
// endless stream of clean reconnects.
TEST(NetLoopback, SilentHandshakeDropsGiveUpLoudly) {
  Loopback loop("silent");
  const int listener = loop.handler.listen({"daemon", 9000});
  ClientConfig config = loop.client_config("quiet");
  config.max_handshake_failures = 5;
  ServeClient client(loop.handler, config);
  std::size_t dropped = 0;
  EXPECT_THROW(
      {
        for (int i = 0; i < 10000 && !client.done(); ++i) {
          client.step();
          while (auto socket = loop.handler.accept(listener)) {
            socket->close();
            ++dropped;
          }
        }
      },
      net::ProtocolError);
  EXPECT_GE(dropped, 5u);
  EXPECT_GE(client.handshake_failures(), 5u);
  loop.handler.close_listener(listener);
}

// One kRequestBatch frame must fit the wire's payload cap; a batch that
// cannot is rejected up front with a message naming the limit, not deep in
// generate_requests() with an opaque encode_frame error.
TEST(NetLoopback, OversizedBatchIsRejectedAtConstruction) {
  Loopback loop("batch");
  ClientConfig config = loop.client_config("batchy");
  config.batch = net::kMaxRequestBatch + 1;
  EXPECT_THROW(ServeClient(loop.handler, config), std::invalid_argument);
  config.batch = net::kMaxRequestBatch;  // the boundary itself fits
  EXPECT_NO_THROW(ServeClient(loop.handler, config));
}

TEST(NetLoopback, NetMetricsAreRegisteredGlobally) {
  Loopback loop("metrics");
  ServeDaemon daemon(loop.handler, loop.service, loop.daemon_config());
  daemon.start();
  ServeClient client(loop.handler, loop.client_config("metered"));
  ASSERT_TRUE(drive(daemon, client));

  const net::NetMetrics& metrics = net::net_metrics();
  EXPECT_GE(metrics.connections_accepted.value(), 1u);
  EXPECT_GE(metrics.sessions_created.value(), 1u);
  EXPECT_GE(metrics.sessions_completed.value(), 1u);
  EXPECT_GE(metrics.frames_sent.value(), 4u);
  EXPECT_GE(metrics.frames_received.value(), 4u);
  EXPECT_GE(metrics.requests_streamed.value(), 200u);
  EXPECT_GE(metrics.journal_saves.value(), 2u);
  EXPECT_GE(metrics.bytes_journaled.value(), 100u);
  EXPECT_GE(metrics.reports_sent.value(), 1u);

  // The instruments live in the global registry, so metrics-dump and the
  // Prometheus exposition pick them up with zero extra wiring.
  const util::Json snapshot = obs::MetricsRegistry::global().to_json();
  const auto& counters = snapshot.at("counters").as_object();
  for (const char* name :
       {"net.connections_accepted_total", "net.connections_dropped_total",
        "net.sessions_created_total", "net.sessions_resumed_total",
        "net.sessions_completed_total", "net.client_reconnects_total",
        "net.journal_saves_total", "net.bytes_journaled_total",
        "net.bytes_replayed_total", "net.frames_sent_total",
        "net.frames_received_total", "net.requests_streamed_total",
        "net.reports_sent_total"}) {
    EXPECT_EQ(counters.count(name), 1u) << name;
  }
  EXPECT_EQ(snapshot.at("histograms").as_object().count("net.replay_bytes"),
            1u);
  const std::string prom = obs::MetricsRegistry::global().to_prometheus();
  EXPECT_NE(prom.find("net_connections_accepted_total"), std::string::npos);
}

TEST(NetThreadedLoopback, DaemonAndClientRunOnSeparateThreads) {
  Loopback loop("threaded");
  ServeDaemon daemon(loop.handler, loop.service, loop.daemon_config(1));
  ServeClient client(loop.handler, loop.client_config("threaded", 120));

  std::thread daemon_thread([&] { daemon.run(); });  // exits via once=1
  client.run();
  daemon_thread.join();

  EXPECT_TRUE(client.done());
  EXPECT_EQ(daemon.sessions_completed(), 1u);
  EXPECT_EQ(client.report(),
            expected_report(loop.service, loop.client_config("x", 120)));
}

}  // namespace
