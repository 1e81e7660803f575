#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/connection.hpp"
#include "net/session.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace hadas::net {

/// Where a SessionEndpoint dials and journals, how it names itself and its
/// host, and what it counts (a null counter is not counted).
struct EndpointConfig {
  std::string label;  ///< prefix of the endpoint's messages ("ServeClient")
  std::string peer;   ///< what it calls its host ("server")
  util::HostPort connect;
  std::string session_id;
  std::string state_path;  ///< the session journal
  const char* format_tag = kSessionFormatTag;
  /// Connections in a row that die before a WELCOME before step() throws.
  std::size_t max_handshake_failures = 50;
  obs::Counter* reconnects = nullptr;
  bool count_replay = false;  ///< into net.bytes_replayed / net.replay_bytes
};

/// The client half of the resumable session protocol, written once for
/// every application that rides it (`hadas client`, the dist worker).
///
/// It dials and redials with HELLO at its durable read_seq, checks the
/// WELCOME (completed session, fingerprint, replay window), routes
/// DATA/ACK into its BackedReader/BackedWriter, applies app frames under
/// save-before-ack, handles the frames a dying connection decoded before
/// attach() discards them, counts connections that die before a WELCOME,
/// and finishes once the host acked everything up to its last message.
class SessionEndpoint {
 public:
  /// The application the endpoint carries.
  class App {
   public:
    /// The host's fingerprint, from the WELCOME tail at byte `at` of
    /// `payload`. Throws ProtocolError when the tail is malformed.
    virtual std::string welcome_fingerprint(const std::string& payload,
                                            std::size_t at) = 0;
    /// Adopt the rest of the tail once the fingerprint matches the
    /// journal's and the read_seq is in the replay window. Throws
    /// ProtocolError on a disagreement.
    virtual void welcomed(const std::string& payload, std::size_t at) = 0;
    /// Apply one complete app frame (it may append to writer()). Throws
    /// ProtocolError on a frame it does not accept.
    virtual void apply(const Frame& frame) = 0;
    virtual util::Json journal() = 0;
    /// This end's last message is queued.
    virtual bool last_sent() const = 0;
    /// Local work between receiving and the flush; true on progress.
    virtual bool work() { return false; }
    virtual ~App() = default;
  };

  SessionEndpoint(SocketHandler& handler, EndpointConfig config, App& app);
  SessionEndpoint(const SessionEndpoint&) = delete;
  SessionEndpoint& operator=(const SessionEndpoint&) = delete;

  /// Restore from the journal, handing its `app` document to `decode_app`
  /// (an exception marks the journal corrupt). False when there is none;
  /// throws std::invalid_argument for a journal of another session.
  bool restore(const std::function<void(const util::Json&)>& decode_app);
  void save();

  /// One round: take a dead connection's last frames, dial if needed, pump,
  /// handle frames, App::work(), finish or flush. Returns true when
  /// anything moved. Throws ProtocolError on a kRefuse, on a WELCOME this
  /// end cannot accept and after max_handshake_failures.
  bool step();

  /// A duplicate ack, flushed at once: proves this end alive while it is
  /// busy elsewhere. A no-op when not connected.
  void heartbeat();
  void wait(int timeout_ms) { handler_.wait(timeout_ms); }

  BackedWriter& writer() { return writer_; }
  bool done() const { return done_; }
  /// Connected and past the WELCOME.
  bool live() const { return handshaken_ && transport_.attached(); }
  /// The host's fingerprint (journaled; empty before the first WELCOME).
  const std::string& fingerprint() const { return fingerprint_; }
  std::size_t reconnects() const { return reconnects_; }
  std::size_t connect_failures() const { return connect_failures_; }
  std::size_t handshake_failures() const { return handshake_failures_; }

 private:
  bool try_connect();
  void handle_welcome(const Frame& frame);
  /// Handle every decoded frame, then apply complete app frames. True when
  /// any frame arrived.
  bool receive();
  /// Complete once the host acked everything up to our last message.
  bool finish_if_acked();
  void complete();

  SocketHandler& handler_;
  EndpointConfig config_;
  App& app_;
  Transport transport_;
  BackedWriter writer_;
  BackedReader reader_;
  std::string fingerprint_;
  bool handshaken_ = false;
  bool connected_once_ = false;
  bool done_ = false;
  std::size_t reconnects_ = 0;
  std::size_t connect_failures_ = 0;
  std::size_t handshake_failures_ = 0;
};

}  // namespace hadas::net
