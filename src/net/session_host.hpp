#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/connection.hpp"
#include "net/session.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace hadas::net {

/// How a SessionHost names itself in refusals, where it journals and what
/// it counts (a null counter is not counted).
struct HostConfig {
  std::string label;  ///< prefix of the host's own messages ("ServeDaemon")
  std::string self;   ///< what the host calls itself to a peer ("server")
  std::string peer;   ///< what it calls a peer ("client")
  std::string state_dir;  ///< holds the session journals; must exist
  const char* format_tag = kSessionFormatTag;
  /// Carried by every journal and WELCOME; a journal of another is refused.
  std::string fingerprint;
  obs::Counter* accepted = nullptr;   ///< connections accepted
  obs::Counter* dropped = nullptr;    ///< connections that died
  obs::Counter* refused = nullptr;    ///< kRefuse answers
  bool count_replay = false;  ///< into net.bytes_replayed / net.replay_bytes
  /// Told why a connection was dropped for a protocol violation.
  std::function<void(const std::string&)> log = nullptr;
};

/// The server half of the resumable session protocol, written once for
/// every application that rides it (hadasd serving, the dist coordinator).
///
/// Per connection it runs the HELLO/WELCOME handshake (version and id
/// admission, session steal, journal restore with fingerprint check, the
/// replay-window check, kSessionCompleted for a garbage-collected session,
/// kRefuse for anything unservable), routes DATA/ACK into the session's
/// BackedReader/BackedWriter, applies app frames under save-before-ack,
/// garbage-collects completed sessions and reaps dead connections. A
/// protocol violation, a corrupt frame or an unreadable journal is fatal to
/// its connection only, never to the host. Single-threaded and
/// non-blocking: its owner's step() calls step().
class SessionHost {
 public:
  /// The application the host carries. Hooks name the session by its id.
  class App {
   public:
    /// Refusal reason for a HELLO naming `id` (already a valid session id,
    /// safe in a file name), or nullopt to admit it.
    virtual std::optional<std::string> admit(const std::string& /*id*/) {
      return std::nullopt;
    }
    /// With neither a live session nor a journal for `id`: whether it
    /// completed, so a peer at `peer_read_seq` gets kSessionCompleted.
    virtual bool completed(const std::string& id,
                           std::uint64_t peer_read_seq) = 0;
    virtual void welcome_tail(std::string& payload) = 0;
    /// Start the state of session `id`: fresh when `journaled` is null, else
    /// from its journal's `app` document (an exception marks it corrupt).
    /// The application counts sessions created and resumed here.
    virtual void open(const std::string& id, const util::Json* journaled) = 0;
    virtual util::Json journal(const std::string& id) = 0;
    /// Apply one complete app frame; `out` is the session's outbound
    /// stream. Returns true when the frame completes the session.
    virtual bool apply(const std::string& id, const Frame& frame,
                       BackedWriter& out) = 0;
    /// The completed session's journal is gone: drop (and count) it.
    virtual void close(const std::string& id) = 0;
    /// Queue outbound data outside the consume loop; true when anything was
    /// appended (the host journals it before a pump can flush it).
    virtual bool feed(const std::string& /*id*/, BackedWriter& /*out*/) {
      return false;
    }
    /// The peer was heard from (handshake, data, ack, consumed frames);
    /// `out.acked()` is what it durably holds.
    virtual void heard(const std::string& /*id*/,
                       const BackedWriter& /*out*/) {}
    virtual ~App() = default;
  };

  SessionHost(SocketHandler& handler, HostConfig config, App& app);
  ~SessionHost();
  SessionHost(const SessionHost&) = delete;
  SessionHost& operator=(const SessionHost&) = delete;

  /// Open the listening socket step() accepts on; returns its handle.
  int listen(const util::HostPort& addr);
  bool listening() const { return listener_.has_value(); }

  /// One round: accept, pump every connection, handle frames, journal and
  /// ack. Returns true when any byte or frame moved.
  bool step();
  void wait(int timeout_ms) { handler_.wait(timeout_ms); }

  /// Drop every connection bound to session `id` (its state stays).
  void disconnect(const std::string& id);

  std::size_t connection_count() const { return connections_.size(); }

 private:
  struct Session {
    BackedWriter writer;
    BackedReader reader;
  };

  struct Conn {
    Transport transport;
    std::string id;  ///< empty until HELLO binds a session
    bool handshaken = false;
    bool closing = false;  ///< drain the outbox, then drop
  };

  Session* live(const std::string& id);
  /// The live session, else its journal's; nullptr when there is neither.
  /// Throws ProtocolError for a journal of another configuration and
  /// CheckpointCorruptError for an unreadable one.
  Session* restore(const std::string& id);
  void save(const std::string& id, const Session& session);
  /// Queue a kRefuse and close once it drained.
  void refuse(Conn& conn, const std::string& reason);
  void handle_hello(Conn& conn, const Frame& frame);
  void welcome(Conn& conn, const std::string& id, std::uint64_t read_seq);
  /// Consume complete app frames; journal and ack, or ack and GC.
  bool advance(Conn& conn, Session& session);
  /// One pass over one connection; false when it is dead.
  bool serve(Conn& conn, bool& progress);

  SocketHandler& handler_;
  HostConfig config_;
  App& app_;
  std::optional<int> listener_;
  std::vector<std::unique_ptr<Conn>> connections_;
  std::map<std::string, Session> sessions_;
};

}  // namespace hadas::net
