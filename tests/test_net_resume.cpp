// The zero-request-loss invariant, end to end: a networked serve run whose
// client or daemon is chaos-killed (process-style: object destroyed, only
// durable journals survive) or whose connections are severed mid-frame by
// the seeded flaky wrapper must produce a ServeReport byte-identical to an
// uninterrupted in-process `hadas serve` run — at 1, 2 and 4 exec threads.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "data/sample_stream.hpp"
#include "net/client.hpp"
#include "net/fake_socket.hpp"
#include "net/server.hpp"
#include "runtime/serve/bridge.hpp"
#include "supernet/baselines.hpp"
#include "test_helpers.hpp"

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
using runtime::serve::ServeConfig;
using runtime::serve::ServeLane;
using runtime::serve::ServeSupervisor;
using runtime::serve::SupervisorBridge;

/// One real serving stack (trained exit bank + supervisor) shared by every
/// test in this file; built once because bank training dominates the cost.
struct NetServeFixture {
  data::SyntheticTask task{hadas::test::small_data()};
  supernet::CostModel cm{supernet::SearchSpace::attentive_nas()};
  supernet::NetworkCost cost = cm.analyze(supernet::baseline_a0());
  dynn::ExitBank bank{task, cost, 6.5, hadas::test::small_bank()};
  hw::HardwareEvaluator evaluator{hw::make_device(hw::Target::kTx2PascalGpu)};
  dynn::MultiExitCostTable table{cost, evaluator};
  hw::DvfsSetting def = hw::default_setting(evaluator.device());
  data::SampleStream stream{task, task.split_size(data::Split::kTest), 7};
  dynn::ExitPlacement placement{cost.num_mbconv_layers(), {5, 9}};
  runtime::EntropyPolicy policy{0.5};

  runtime::serve::TrafficConfig traffic() const {
    runtime::serve::TrafficConfig config;
    config.requests = 150;
    config.arrival_rate_hz = 120.0;
    config.seed = 0x5E21;
    return config;
  }

  ServeConfig serve_config(std::size_t threads) const {
    ServeConfig config;
    config.slo.deadline_s = 0.05;
    config.watchdog.overrun_factor = 4.0;
    config.exec.threads = threads;
    return config;
  }
};

NetServeFixture& fx() {
  static NetServeFixture f;
  return f;
}

/// The ground truth: the report an uninterrupted in-process run produces,
/// rendered exactly as `hadas serve` writes it.
std::string direct_report(std::size_t threads) {
  const ServeSupervisor supervisor(
      fx().bank, {ServeLane{&fx().table, fx().def, hw::FaultConfig{}}},
      fx().serve_config(threads));
  const auto trace = runtime::serve::poisson_trace(fx().stream, fx().traffic());
  return supervisor.run(fx().placement, {&fx().policy}, trace)
             .to_json()
             .dump(2) +
         "\n";
}

/// A full networked stack over one fake network.
struct NetStack {
  NetStack(const std::string& name, std::size_t threads)
      : dir(scratch.file("net_resume_" + name)),
        supervisor(fx().bank,
                   {ServeLane{&fx().table, fx().def, hw::FaultConfig{}}},
                   fx().serve_config(threads)),
        bridge(supervisor, fx().placement, {&fx().policy}, fx().stream,
               "net-serve-fp-t" + std::to_string(threads)) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~NetStack() { std::filesystem::remove_all(dir); }

  DaemonConfig daemon_config() const {
    DaemonConfig config;
    config.listen = {"hadasd", 4242};
    config.state_dir = dir;
    return config;
  }

  ClientConfig client_config() const {
    ClientConfig config;
    config.connect = {"hadasd", 4242};
    config.session_id = "resume-test";
    config.state_path = dir + "/client.json";
    config.traffic = fx().traffic();
    return config;
  }

  const test::ScratchDir scratch;
  std::string dir;
  ServeSupervisor supervisor;
  SupervisorBridge bridge;
  std::shared_ptr<FakeNetwork> network = std::make_shared<FakeNetwork>();
  FakeSocketHandler handler{network};
};

bool drive(ServeDaemon& daemon, ServeClient& client, int steps) {
  for (int i = 0; i < steps && !client.done(); ++i) {
    client.step();
    daemon.step();
  }
  return client.done();
}

TEST(NetResume, UninterruptedDaemonRunMatchesInProcessServeByteForByte) {
  NetStack stack("clean", 1);
  ServeDaemon daemon(stack.handler, stack.bridge, stack.daemon_config());
  daemon.start();
  ServeClient client(stack.handler, stack.client_config());
  ASSERT_TRUE(drive(daemon, client, 50000));
  EXPECT_EQ(client.report(), direct_report(1));
}

TEST(NetResume, FlakySeversMidStreamStillByteIdentical) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    NetStack stack("flaky_t" + std::to_string(threads), threads);
    ServeDaemon daemon(stack.handler, stack.bridge, stack.daemon_config());
    daemon.start();
    FlakyConfig flaky;
    flaky.seed = 0xBADCAB + threads;
    flaky.severs = 4;
    // The request upload alone is ~3.7 KiB, so no flaky connection can
    // finish inside its budget: all four severs must fire.
    flaky.min_bytes = 100;
    flaky.max_bytes = 600;
    FlakySocketHandler chaos(stack.handler, flaky);
    ServeClient client(chaos, stack.client_config());
    ASSERT_TRUE(drive(daemon, client, 100000)) << "threads=" << threads;
    EXPECT_EQ(chaos.severed(), 4u);
    EXPECT_EQ(client.reconnects(), 4u) << "threads=" << threads;
    EXPECT_EQ(client.report(), direct_report(threads))
        << "threads=" << threads;
  }
}

/// Steps a clean (chaos-free) run needs, so the kill sweeps below can place
/// a kill at every step of a real run. The loopback is fully deterministic:
/// equal configs always take the same number of steps.
int clean_step_count() {
  NetStack stack("count_clean", 2);
  ServeDaemon daemon(stack.handler, stack.bridge, stack.daemon_config());
  daemon.start();
  ServeClient client(stack.handler, stack.client_config());
  for (int i = 0; i < 50000; ++i) {
    client.step();
    daemon.step();
    if (client.done()) return i + 1;
  }
  ADD_FAILURE() << "clean loopback run never completed";
  return 0;
}

TEST(NetResume, ClientKilledAtEveryStepResumesWithZeroLoss) {
  const std::string want = direct_report(2);
  const int steps = clean_step_count();
  ASSERT_GT(steps, 0);
  for (int kill_at = 0; kill_at < steps; ++kill_at) {
    NetStack stack("ck" + std::to_string(kill_at), 2);
    ServeDaemon daemon(stack.handler, stack.bridge, stack.daemon_config());
    daemon.start();
    auto client = std::make_unique<ServeClient>(stack.handler,
                                                stack.client_config());
    drive(daemon, *client, kill_at);
    ASSERT_FALSE(client->done()) << "kill point " << kill_at;
    // SIGKILL equivalent: destroy the object with no goodbye — only the
    // durable journal survives — then restart from it.
    client.reset();
    daemon.step();
    client = std::make_unique<ServeClient>(stack.handler,
                                           stack.client_config());
    ASSERT_TRUE(drive(daemon, *client, 50000)) << "kill point " << kill_at;
    EXPECT_EQ(client->report(), want) << "kill point " << kill_at;
    EXPECT_FALSE(std::filesystem::exists(stack.dir + "/client.json"));
  }
}

TEST(NetResume, ServerKilledAtEveryStepResumesWithZeroLoss) {
  const std::string want = direct_report(2);
  const int steps = clean_step_count();
  ASSERT_GT(steps, 0);
  const std::uint64_t resumed_before =
      net::net_metrics().sessions_resumed.value();
  for (int kill_at = 0; kill_at < steps; ++kill_at) {
    NetStack stack("sk" + std::to_string(kill_at), 2);
    auto make_daemon = [&] {
      auto daemon = std::make_unique<ServeDaemon>(stack.handler, stack.bridge,
                                                  stack.daemon_config());
      daemon->start();
      return daemon;
    };
    auto daemon = make_daemon();
    ServeClient client(stack.handler, stack.client_config());
    for (int i = 0; i < kill_at && !client.done(); ++i) {
      client.step();
      daemon->step();
    }
    ASSERT_FALSE(client.done()) << "kill point " << kill_at;
    daemon.reset();  // kill -9: in-memory sessions gone, journals survive
    client.step();   // client notices the dead socket / refused connect
    daemon = make_daemon();
    ASSERT_TRUE(drive(*daemon, client, 50000)) << "kill point " << kill_at;
    EXPECT_EQ(client.report(), want) << "kill point " << kill_at;
    EXPECT_FALSE(
        std::filesystem::exists(stack.dir + "/session-resume-test.json"));
  }
  // At least one kill point lands after the daemon's first journal save, so
  // the sweep must have exercised the resume-from-disk path.
  EXPECT_GT(net::net_metrics().sessions_resumed.value(), resumed_before);
}

TEST(NetResume, BothSidesChaosAtEveryThreadCount) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    NetStack stack("both_t" + std::to_string(threads), threads);
    auto make_daemon = [&] {
      auto daemon = std::make_unique<ServeDaemon>(stack.handler, stack.bridge,
                                                  stack.daemon_config());
      daemon->start();
      return daemon;
    };
    FlakyConfig flaky;
    flaky.seed = 0xD00F + threads;
    flaky.severs = 2;
    flaky.min_bytes = 300;
    flaky.max_bytes = 4000;
    FlakySocketHandler chaos(stack.handler, flaky);
    auto make_client = [&] {
      return std::make_unique<ServeClient>(chaos, stack.client_config());
    };

    auto daemon = make_daemon();
    auto client = make_client();
    std::size_t kills = 0;
    for (int round = 0; round < 600 && !client->done(); ++round) {
      drive(*daemon, *client, 10);
      if (client->done()) break;
      if (kills % 2 == 0 && kills < 4) {
        client.reset();
        daemon->step();
        client = make_client();
        ++kills;
      } else if (kills < 4) {
        daemon.reset();
        client->step();
        daemon = make_daemon();
        ++kills;
      }
    }
    ASSERT_TRUE(drive(*daemon, *client, 100000)) << "threads=" << threads;
    EXPECT_EQ(client->report(), direct_report(threads))
        << "threads=" << threads;
  }
}

}  // namespace
