#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/session_host.hpp"
#include "net/socket.hpp"
#include "runtime/serve/bridge.hpp"

namespace hadas::net {

/// hadasd daemon configuration.
struct DaemonConfig {
  util::HostPort listen;
  /// Directory for session journals (session-<id>.json). Must exist.
  std::string state_dir;
  /// Exit run() once this many sessions completed (0 = serve forever).
  std::size_t once = 0;
};

/// The hadasd serving daemon: the serving application on a SessionHost,
/// which speaks the resumable session protocol to any number of clients.
/// Requests stream in as kRequestBatch frames; kFinish runs the trace
/// through the ServeService and queues the report as kReportChunk frames;
/// BYE completes the session. Every mutation is journaled before the
/// covering ACK leaves, so a kill -9 at any instruction loses nothing the
/// client does not replay, and the report stays byte-identical.
///
/// Single-threaded and non-blocking: step() performs one multiplexing round
/// and returns whether anything moved; run() loops step() with waits in
/// between. Tests drive step() directly for deterministic interleaving.
class ServeDaemon : private SessionHost::App {
 public:
  ServeDaemon(SocketHandler& handler,
              const runtime::serve::ServeService& service,
              DaemonConfig config);
  ~ServeDaemon() = default;

  /// Open the listening socket. Called by run() if not already started.
  void start();

  /// One non-blocking round: accept pending connections, pump every live
  /// connection, process frames, journal + ack. Returns true when any
  /// byte or frame moved (so callers know whether to wait).
  bool step();

  /// step() until request_stop(), or until `once` sessions completed.
  void run();

  /// Ask run() to return (safe from another thread or a signal handler).
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  std::size_t sessions_completed() const { return completed_; }
  std::size_t active_connections() const { return host_.connection_count(); }
  std::size_t active_sessions() const { return sessions_.size(); }

 private:
  /// What one session journals beside its stream offsets.
  struct Session {
    /// The requests received, as their 24-byte wire records; emptied once
    /// the report is queued.
    std::string requests;
    bool finished = false;  ///< kFinish consumed; report queued in writer
  };

  // SessionHost::App: any valid id is admitted; a peer that consumed report
  // bytes of a session with no journal was served to the end.
  bool completed(const std::string& id, std::uint64_t peer_read_seq) override;
  void welcome_tail(std::string& payload) override;
  void open(const std::string& id, const util::Json* journaled) override;
  util::Json journal(const std::string& id) override;
  bool apply(const std::string& id, const Frame& frame,
             BackedWriter& out) override;
  void close(const std::string& id) override;

  const runtime::serve::ServeService& service_;
  DaemonConfig config_;
  std::atomic<bool> stop_{false};
  std::map<std::string, Session> sessions_;
  std::size_t completed_ = 0;
  SessionHost host_;
};

}  // namespace hadas::net
