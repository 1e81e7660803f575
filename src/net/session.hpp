#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "net/backed_stream.hpp"
#include "net/connection.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace hadas::net {

/// Durable-envelope format tag of net session journals.
inline constexpr const char* kSessionFormatTag = "hadas-net-session-v1";

/// Protocol version carried in HELLO; a mismatch refuses the handshake.
inline constexpr std::uint32_t kProtocolVersion = 1;

/// WELCOME read_seq sentinel: "this session already completed and was
/// garbage-collected". The client only ever learns this after it durably
/// stored the report (BYE is sent strictly after that), so it can finish
/// immediately.
inline constexpr std::uint64_t kSessionCompleted = ~std::uint64_t{0};

/// Everything one endpoint of a resumable session must persist to survive a
/// kill with zero byte loss:
///
///   - the write side's acked offset + retained unacked bytes (hex in the
///     JSON payload — they are arbitrary binary),
///   - the read side's durably-consumed offset,
///   - the host's config fingerprint (a resumed endpoint refuses a host
///     whose configuration changed under it, and a host a journal of
///     another configuration),
///   - the application's `app` document (SessionHost::App::journal,
///     SessionEndpoint::App::journal).
///
/// The invariant that makes resume loss-free: an endpoint sends ACK(n) only
/// after a successful save() with read_seq == n, so every acknowledged byte
/// is on disk at one side or the other at all times.
struct SessionState {
  std::string session_id;
  std::string fingerprint;
  std::uint64_t write_acked = 0;
  std::string write_unacked;
  std::uint64_t read_seq = 0;
  util::Json app;
};

/// Both take the state by value: pass it with std::move, and the `app`
/// document moves into the journal instead of being deep-copied.
util::Json session_state_to_json(SessionState state);
SessionState session_state_from_json(const util::Json& json);

/// Durably (temp + fsync + rename) persist `state` at `path`. Counts the
/// journal traffic in the net metrics. `format_tag` names the journal's
/// durable-envelope type — serve sessions use kSessionFormatTag, dist-net
/// sessions their own tag — so `hadas verify-checkpoint` can triage them.
void save_session_state(const std::string& path, SessionState state,
                        const char* format_tag = kSessionFormatTag);

/// Load a previously saved state; nullopt when `path` does not exist.
/// Throws util::durable::CheckpointCorruptError on a corrupt journal.
std::optional<SessionState> load_session_state(
    const std::string& path, const char* format_tag = kSessionFormatTag);

/// `<dir>/session-<id>.json`: where a host journals session `id`.
std::string session_journal_path(const std::string& dir, const std::string& id);

/// The kAck frame reporting `read_seq` stream bytes durably consumed.
Frame ack_frame(std::uint64_t read_seq);

/// Route a transport frame of a handshaken connection into its session's
/// stream ends: kData into `reader`, kAck into `writer`. Throws
/// ProtocolError, prefixed by `label`, on a short kData or any other type.
void route_frame(const Frame& frame, BackedReader& reader,
                 BackedWriter& writer, const std::string& label);

/// The save-before-ack consume loop: apply the complete app frames at the
/// head of `reader`'s inbox in order, consuming each once applied, until
/// `apply` returns true (the frame completed the session). When anything
/// was consumed, `save` journals the new read_seq (unless the session
/// completed: its journal is about to go) and only then is its ack queued
/// on `transport`. Returns true when anything was consumed.
bool consume_frames(BackedReader& reader, Transport& transport,
                    const std::function<bool(const Frame&)>& apply,
                    const std::function<void()>& save);

/// Resume a session's streams on a new connection whose peer durably holds
/// `peer_read_seq` bytes of `writer`'s stream. False, changing nothing, when
/// that is outside the replay window [writer.acked(), writer.write_seq()]
/// (the peer's journal was lost or regressed). Otherwise acks it, drops the
/// unconsumed inbox (the peer replays it), points the transport's flush
/// cursor at it and, with `count_replay`, counts the replay.
bool resume_streams(std::uint64_t peer_read_seq, BackedWriter& writer,
                    BackedReader& reader, Transport& transport,
                    bool count_replay);

/// True for session ids safe to embed in a file name ([A-Za-z0-9._-]{1,64},
/// not starting with a dot).
bool valid_session_id(const std::string& id);

/// Net-layer instruments, resolved once against the global MetricsRegistry
/// (so `hadas metrics-dump` and the Prometheus exposition pick them up with
/// no extra wiring). Counters are always live; strictly observe-only.
struct NetMetrics {
  obs::MetricsRegistry& r = obs::MetricsRegistry::global();
  obs::Counter& connections_accepted =
      r.counter("net.connections_accepted_total");
  obs::Counter& connections_dropped =
      r.counter("net.connections_dropped_total");
  obs::Counter& sessions_created = r.counter("net.sessions_created_total");
  obs::Counter& sessions_resumed = r.counter("net.sessions_resumed_total");
  obs::Counter& sessions_completed = r.counter("net.sessions_completed_total");
  obs::Counter& handshakes_refused = r.counter("net.handshakes_refused_total");
  obs::Counter& client_reconnects = r.counter("net.client_reconnects_total");
  obs::Counter& journal_saves = r.counter("net.journal_saves_total");
  obs::Counter& bytes_journaled = r.counter("net.bytes_journaled_total");
  obs::Counter& bytes_replayed = r.counter("net.bytes_replayed_total");
  obs::Counter& frames_sent = r.counter("net.frames_sent_total");
  obs::Counter& frames_received = r.counter("net.frames_received_total");
  obs::Counter& requests_streamed = r.counter("net.requests_streamed_total");
  obs::Counter& reports_sent = r.counter("net.reports_sent_total");
  /// Bytes a sender had to replay after one reconnect handshake.
  obs::Histogram& replay_bytes =
      r.histogram("net.replay_bytes", {0, 64, 256, 1024, 4096, 16384, 65536,
                                       262144, 1048576});
};

NetMetrics& net_metrics();

}  // namespace hadas::net
