// hadasd — the networked serving daemon. `hadasd help` prints its flags
// (the command table at the bottom of this file).
//
// The daemon builds the same serve stack `hadas serve` would (same flags,
// same deterministic report) and serves it to any number of concurrent
// `hadas client` sessions over the resumable wire protocol: clients can be
// killed, reconnected or severed mid-frame and still receive a report
// byte-identical to an uninterrupted local run.
//
// --loopback runs a daemon and one client in-process over the deterministic
// fake network (no TCP, optionally with --flaky N seeded severs) — the
// quickest way to see the protocol end to end, and what CI drives.

#include <csignal>
#include <filesystem>
#include <iostream>
#include <string>

#include "cli.hpp"
#include "exec/chaos.hpp"
#include "net/client.hpp"
#include "net/fake_socket.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "runtime/serve/bridge.hpp"

using namespace hadas;
using tools::Args;

namespace {

net::ServeDaemon* g_daemon = nullptr;

void handle_signal(int) {
  if (g_daemon != nullptr) g_daemon->request_stop();
}

int run_loopback(const Args& args,
                 const runtime::serve::SupervisorBridge& bridge,
                 const std::string& state_dir) {
  auto network = std::make_shared<net::FakeNetwork>();
  net::FakeSocketHandler handler(network);

  net::DaemonConfig daemon_config;
  daemon_config.listen = {"loopback", 1};
  daemon_config.state_dir = state_dir;
  daemon_config.once = 1;
  net::ServeDaemon daemon(handler, bridge, daemon_config);
  daemon.start();

  net::ClientConfig client_config;
  client_config.connect = {"loopback", 1};
  client_config.session_id = args.get_or("session", std::string("loopback"));
  client_config.state_path =
      state_dir + "/client-" + client_config.session_id + ".json";
  client_config.traffic = tools::traffic(args);

  net::FlakyConfig flaky;
  flaky.severs = args.get_or("flaky", std::size_t{0});
  flaky.seed = args.get_or("flaky-seed", std::size_t{0x5EFEED});
  net::FlakySocketHandler chaos(handler, flaky);
  net::ServeClient client(flaky.severs > 0
                              ? static_cast<net::SocketHandler&>(chaos)
                              : static_cast<net::SocketHandler&>(handler),
                          client_config);

  std::cout << "loopback session '" << client_config.session_id << "': "
            << client_config.traffic.requests << " requests"
            << (flaky.severs > 0
                    ? " with " + std::to_string(flaky.severs) + " severs"
                    : "")
            << "...\n";
  // Deterministic cooperative interleaving — the same schedule every run.
  while (!client.done()) {
    client.step();
    daemon.step();
  }
  std::cout << "session complete (" << client.reconnects()
            << " reconnects, " << chaos.severed() << " severs)\n";

  if (const auto out = args.get("out"))
    tools::save_report(*out, client.report());
  return 0;
}

int run_daemon(const Args& args);

/// hadasd's command table, one entry: `hadasd help`, flag validation and
/// dispatch all read it.
const tools::Command& daemon_command() {
  static const tools::Command command = {
      "hadasd", "(--listen HOST:PORT | --loopback on) [options]",
      "serve the `hadas serve` stack to hadas client sessions",
      tools::join(
          {{{"listen", "HOST:PORT", "accept client sessions over TCP"},
            {"state-dir", "DIR", "session journal directory (default .)"},
            {"once", "N", "exit after N completed sessions"},
            {"loopback", "on|off",
             "serve one in-process client over the fake network instead"},
            {"session", "ID", "loopback client's session id"},
            {"flaky", "N", "sever the loopback's first N connections"},
            {"flaky-seed", "S", "seed of those severs"},
            {"out", "F", "write the loopback client's report"}},
           tools::kTrafficFlags, tools::kServeStackFlags, tools::kObsFlags}),
      run_daemon};
  return command;
}

void print_usage() {
  std::cout << "usage:\n";
  tools::print_command(std::cout, daemon_command());
}

int run_daemon(const Args& args) {
  const bool loopback = args.get_or("loopback", std::string("off")) != "off";
  if (!loopback && !args.get("listen")) {
    print_usage();
    return 2;
  }

  // Validate the endpoint before the (expensive) stack build, so a
  // malformed --listen fails in milliseconds with an error naming it.
  std::optional<util::HostPort> listen;
  if (!loopback) listen = args.get_hostport("listen");

  const std::string state_dir = args.get_or("state-dir", std::string("."));
  std::filesystem::create_directories(state_dir);

  const tools::ObsOutputs obs_out = tools::obs_setup(args);
  const tools::ServeStack stack(args);
  const runtime::serve::SupervisorBridge bridge(
      *stack.supervisor, *stack.design.placement, stack.ladder_view(),
      *stack.stream, stack.fingerprint);

  int rc = 0;
  if (loopback) {
    rc = run_loopback(args, bridge, state_dir);
  } else {
    net::DaemonConfig daemon_config;
    daemon_config.listen = *listen;
    daemon_config.state_dir = state_dir;
    daemon_config.once = args.get_or("once", std::size_t{0});
    net::TcpSocketHandler handler;
    net::ServeDaemon daemon(handler, bridge, daemon_config);
    daemon.start();
    g_daemon = &daemon;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    // Flushed immediately: the banner is a readiness signal supervisors
    // and tests wait on, and stdout is fully buffered when redirected.
    std::cout << "hadasd listening on " << listen->host << ":" << listen->port
              << " (state in " << state_dir << ")\n"
              << "serving " << stack.fingerprint << std::endl;
    daemon.run();
    g_daemon = nullptr;
    std::cout << "hadasd: " << daemon.sessions_completed()
              << " sessions completed\n";
  }
  tools::obs_write(obs_out);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    exec::ChaosEngine::install_from_env();
    if (argc >= 2 && (std::string(argv[1]) == "help" ||
                      std::string(argv[1]) == "--help")) {
      print_usage();
      return 0;
    }
    return daemon_command().run(
        Args(argc, argv, 1, "hadasd", daemon_command()));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
