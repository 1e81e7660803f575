#include "net/session_endpoint.hpp"

#include <filesystem>

#include "util/durable/document.hpp"

namespace hadas::net {

SessionEndpoint::SessionEndpoint(SocketHandler& handler, EndpointConfig config,
                                 App& app)
    : handler_(handler), config_(std::move(config)), app_(app) {}

bool SessionEndpoint::restore(
    const std::function<void(const util::Json&)>& decode_app) {
  std::optional<SessionState> state =
      load_session_state(config_.state_path, config_.format_tag);
  if (!state) return false;
  if (state->session_id != config_.session_id)
    throw std::invalid_argument(
        config_.label + ": journal '" + config_.state_path +
        "' belongs to session '" + state->session_id + "', not '" +
        config_.session_id + "'");
  try {
    decode_app(state->app);
  } catch (...) {
    throw util::durable::current_as_corrupt(config_.state_path);
  }
  writer_.restore(state->write_acked, std::move(state->write_unacked));
  reader_.restore(state->read_seq);
  fingerprint_ = std::move(state->fingerprint);
  return true;
}

void SessionEndpoint::save() {
  save_session_state(config_.state_path,
                     {config_.session_id, fingerprint_, writer_.acked(),
                      writer_.unacked(), reader_.read_seq(), app_.journal()},
                     config_.format_tag);
}

bool SessionEndpoint::try_connect() {
  std::unique_ptr<Socket> socket;
  try {
    socket = handler_.connect(config_.connect);
  } catch (const ConnectError&) {
    ++connect_failures_;
    return false;
  }
  connect_failures_ = 0;
  transport_.attach(std::move(socket));
  handshaken_ = false;
  if (connected_once_) {
    ++reconnects_;
    if (config_.reconnects != nullptr) config_.reconnects->inc();
  }
  connected_once_ = true;
  Frame hello;
  hello.type = FrameType::kHello;
  put_u32(hello.payload, kProtocolVersion);
  put_u64(hello.payload, reader_.read_seq());
  hello.payload += config_.session_id;
  transport_.send_frame(hello);
  return true;
}

void SessionEndpoint::complete() {
  done_ = true;
  transport_.drop();
  std::error_code ec;
  std::filesystem::remove(config_.state_path, ec);
}

void SessionEndpoint::handle_welcome(const Frame& frame) {
  if (frame.payload.size() < 8)
    throw ProtocolError(config_.label + ": malformed welcome frame");
  const std::uint64_t host_read_seq = get_u64(frame.payload, 0);
  const std::string fingerprint = app_.welcome_fingerprint(frame.payload, 8);
  if (host_read_seq == kSessionCompleted) {
    // The host garbage-collects a session only once it durably holds our
    // last message, and we queue that only after storing all we need.
    if (!app_.last_sent())
      throw ProtocolError(config_.label + ": " + config_.peer +
                          " reports session '" + config_.session_id +
                          "' complete but this end never sent its last "
                          "message — stale journal or session id?");
    complete();
    return;
  }
  if (!fingerprint_.empty() && fingerprint_ != fingerprint)
    throw ProtocolError(config_.label + ": " + config_.peer +
                        " fingerprint changed mid-session (journaled '" +
                        fingerprint_ + "', " + config_.peer + " sent '" +
                        fingerprint +
                        "') — refusing to mix two configurations in one "
                        "session");
  if (!resume_streams(host_read_seq, writer_, reader_, transport_,
                      config_.count_replay))
    throw ProtocolError(config_.label + ": " + config_.peer + " read_seq " +
                        std::to_string(host_read_seq) +
                        " outside our replay window [" +
                        std::to_string(writer_.acked()) + ", " +
                        std::to_string(writer_.write_seq()) + "]");
  app_.welcomed(frame.payload, 8);
  const bool first = fingerprint_.empty();
  fingerprint_ = fingerprint;
  handshaken_ = true;
  handshake_failures_ = 0;
  if (first) save();  // journal the fingerprint we committed to
}

bool SessionEndpoint::receive() {
  bool progress = false;
  while (std::optional<Frame> frame = transport_.next()) {
    progress = true;
    if (frame->type == FrameType::kRefuse) {
      throw ProtocolError(config_.label + ": " + config_.peer +
                          " refused session '" + config_.session_id +
                          "': " + frame->payload);
    } else if (!handshaken_) {
      if (frame->type != FrameType::kWelcome)
        throw ProtocolError(config_.label + ": expected welcome, got '" +
                            frame_type_name(frame->type) + "'");
      handle_welcome(*frame);
      if (done_) return true;
    } else {
      route_frame(*frame, reader_, writer_, config_.label);
    }
  }
  // What the application queues for a frame (a BYE) is journaled by the
  // same save as the consumption; only a host completes a session.
  const auto apply = [&](const Frame& frame) {
    app_.apply(frame);
    return false;
  };
  if (handshaken_)
    progress |= consume_frames(reader_, transport_, apply, [&] { save(); });
  return progress;
}

bool SessionEndpoint::finish_if_acked() {
  if (!app_.last_sent() || writer_.acked() != writer_.write_seq())
    return false;
  complete();  // the host durably consumed everything, our last message too
  return true;
}

bool SessionEndpoint::step() {
  if (done_) return false;
  if (handshake_failures_ >= config_.max_handshake_failures)
    throw ProtocolError(config_.label + ": " + config_.peer + " at " +
                        config_.connect.host + ":" +
                        std::to_string(config_.connect.port) + " dropped " +
                        std::to_string(handshake_failures_) +
                        " consecutive connections before completing a "
                        "handshake");
  bool progress = false;
  bool died = false;
  try {
    // A pump that saw the connection close (a heartbeat's inside
    // App::work()) may have decoded the host's last frames with it, such as
    // the ack of our last message after which the host may exit. Take them
    // before attach() discards them.
    if (!transport_.attached()) {
      progress = receive();
      if (done_ || finish_if_acked()) return true;
    }
    if (transport_.attached() || try_connect()) {
      const bool alive = transport_.pump(writer_);
      progress |= receive();
      if (done_) return true;
      // A connection that died before WELCOME is counted: a host that drops
      // our HELLO silently would otherwise look like clean reconnects.
      died = !alive;
      if (died && !handshaken_) ++handshake_failures_;
    }
    // A failed dial does not end the step: local work goes on offline.
    progress |= app_.work();
    if (finish_if_acked()) return true;
    if (transport_.attached() && !transport_.pump(writer_)) {
      // The flush found the connection closed; what it decoded first is
      // handled now, before the next step reconnects.
      progress |= receive();
      if (done_ || finish_if_acked()) return true;
      died = true;
      if (!handshaken_) ++handshake_failures_;
    }
  } catch (const FrameError&) {
    transport_.drop();  // corrupt transport bytes: reconnect and replay
    return true;
  }
  return progress || died;
}

void SessionEndpoint::heartbeat() {
  if (!live()) return;
  transport_.send_frame(ack_frame(reader_.read_seq()));
  transport_.pump(writer_);
}

}  // namespace hadas::net
