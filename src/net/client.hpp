#pragma once

#include <cstdint>
#include <string>

#include "net/session_endpoint.hpp"
#include "net/socket.hpp"
#include "runtime/serve/traffic.hpp"

namespace hadas::net {

/// Largest request batch whose kRequestBatch frame (4-byte count + 24 bytes
/// per request) still fits kMaxFramePayload.
inline constexpr std::size_t kMaxRequestBatch = (kMaxFramePayload - 4) / 24;

/// hadas client configuration. The client generates the same deterministic
/// Poisson trace `hadas serve` would build locally (same TrafficConfig ->
/// same arrivals, request i carries sample position i) and streams it to a
/// hadasd daemon, so the returned ServeReport is byte-identical to an
/// in-process run.
struct ClientConfig {
  util::HostPort connect;
  /// Session identity ([A-Za-z0-9._-]{1,64}); reconnects under the same id
  /// resume rather than restart.
  std::string session_id;
  /// Journal path for this client's durable session state.
  std::string state_path;
  runtime::serve::TrafficConfig traffic;
  /// Requests per kRequestBatch app frame (at most kMaxRequestBatch).
  std::size_t batch = 64;
  /// Consecutive failed connect() attempts before run() gives up.
  std::size_t max_connect_attempts = 200;
  /// Consecutive connections that die before completing a handshake before
  /// step() gives up — a server that drops our HELLO without a kRefuse
  /// would otherwise reconnect-loop forever with no diagnostic.
  std::size_t max_handshake_failures = 50;
  /// wait() between reconnect attempts in run().
  int reconnect_backoff_ms = 20;
};

/// The resumable client endpoint: connects (and reconnects, forever
/// picking up where the durable journal says it left off), streams the
/// request trace, and accumulates the report. Kill the process at any
/// instruction and a new ServeClient with the same config resumes with
/// zero request loss and zero duplicated bytes.
///
/// Like the daemon it is non-blocking: step() performs one round, run()
/// loops until done() with handler.wait() in between.
class ServeClient : private SessionEndpoint::App {
 public:
  ServeClient(SocketHandler& handler, ClientConfig config);

  /// One non-blocking round (connect attempt, pump, frame processing).
  /// Returns true when anything moved. Throws ConnectError only out of
  /// run() (step() counts failed attempts silently); throws ProtocolError
  /// on a server kRefuse or after max_handshake_failures consecutive
  /// connections died before completing a handshake.
  bool step() { return endpoint_.step(); }

  /// step() until done(). Throws ConnectError after max_connect_attempts
  /// consecutive failures.
  void run();

  bool done() const { return endpoint_.done(); }
  /// The complete ServeReport JSON text (valid once done()).
  const std::string& report() const { return report_; }
  /// The server's config fingerprint (valid after the first handshake).
  const std::string& server_fingerprint() const {
    return endpoint_.fingerprint();
  }
  std::size_t reconnects() const { return endpoint_.reconnects(); }
  std::size_t connect_failures() const { return endpoint_.connect_failures(); }
  std::size_t handshake_failures() const {
    return endpoint_.handshake_failures();
  }

 private:
  /// Queue the whole request trace + kFinish into the backed writer (at the
  /// first WELCOME).
  void generate_requests();

  // SessionEndpoint::App: the WELCOME tail is u64 sample_count + the
  // fingerprint; report frames accumulate the report, whose end queues BYE.
  std::string welcome_fingerprint(const std::string& payload,
                                  std::size_t at) override;
  void welcomed(const std::string& payload, std::size_t at) override;
  void apply(const Frame& frame) override;
  util::Json journal() override;
  bool last_sent() const override { return report_complete_; }

  ClientConfig config_;
  SessionEndpoint endpoint_;

  // Durable app state (journaled alongside the stream offsets).
  bool report_complete_ = false;  ///< and BYE queued
  std::string report_;
  std::uint64_t sample_count_ = 0;
};

}  // namespace hadas::net
