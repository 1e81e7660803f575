#include "net/client.hpp"

#include <cmath>
#include <cstring>
#include <filesystem>

#include "util/rng.hpp"
#include "util/strutil.hpp"

namespace hadas::net {

namespace {

Frame ack_frame(std::uint64_t read_seq) {
  Frame frame;
  frame.type = FrameType::kAck;
  put_u64(frame.payload, read_seq);
  return frame;
}

}  // namespace

ServeClient::ServeClient(SocketHandler& handler, ClientConfig config)
    : handler_(handler), config_(std::move(config)) {
  if (!valid_session_id(config_.session_id))
    throw std::invalid_argument("ServeClient: invalid session id '" +
                                config_.session_id + "'");
  if (config_.batch > kMaxRequestBatch)
    throw std::invalid_argument(
        "ServeClient: batch of " + std::to_string(config_.batch) +
        " requests cannot fit one frame (max " +
        std::to_string(kMaxRequestBatch) + ")");
  if (std::filesystem::exists(config_.state_path)) {
    restore();
  } else {
    generate_requests();
    save();
  }
}

void ServeClient::generate_requests() {
  // Mirror poisson_trace exactly: request i gets arrival_i and carries
  // sample *position* i, which the server maps through its stream
  // (indices()[i % size]) — identical to a local trace, so the daemon's
  // report byte-compares against `hadas serve`.
  util::Rng rng(config_.traffic.seed);
  double arrival = 0.0;
  const std::size_t batch = config_.batch == 0 ? 64 : config_.batch;
  std::string payload;
  std::uint32_t in_batch = 0;
  for (std::size_t i = 0; i < config_.traffic.requests; ++i) {
    if (config_.traffic.arrival_rate_hz > 0.0)
      arrival += -std::log(1.0 - rng.uniform()) / config_.traffic.arrival_rate_hz;
    if (in_batch == 0) payload.assign(4, '\0');  // count patched below
    put_u64(payload, static_cast<std::uint64_t>(i));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &arrival, sizeof(bits));
    put_u64(payload, bits);
    put_u64(payload, static_cast<std::uint64_t>(i));
    ++in_batch;
    if (in_batch == batch || i + 1 == config_.traffic.requests) {
      std::string count;
      put_u32(count, in_batch);
      payload.replace(0, 4, count);
      writer_.append(encode_frame(FrameType::kRequestBatch, payload));
      in_batch = 0;
    }
  }
  writer_.append(encode_frame(FrameType::kFinish, ""));
  requests_queued_ = true;
}

void ServeClient::save() {
  SessionState state;
  state.session_id = config_.session_id;
  state.fingerprint = fingerprint_;
  state.write_acked = writer_.acked();
  state.write_unacked = writer_.unacked();
  state.read_seq = reader_.read_seq();
  util::Json::Object app;
  app["report"] = util::Json(report_);
  app["report_complete"] = util::Json(report_complete_);
  app["bye_sent"] = util::Json(bye_sent_);
  app["sample_count"] = util::Json(std::to_string(sample_count_));
  state.app = util::Json(std::move(app));
  save_session_state(config_.state_path, std::move(state));
}

void ServeClient::restore() {
  std::optional<SessionState> state = load_session_state(config_.state_path);
  if (!state)
    throw std::invalid_argument("ServeClient: cannot restore from '" +
                                config_.state_path + "'");
  if (state->session_id != config_.session_id)
    throw std::invalid_argument(
        "ServeClient: journal '" + config_.state_path + "' belongs to session '" +
        state->session_id + "', not '" + config_.session_id + "'");
  writer_.restore(state->write_acked, state->write_unacked);
  reader_.restore(state->read_seq);
  fingerprint_ = state->fingerprint;
  report_ = state->app.at("report").as_string();
  report_complete_ = state->app.at("report_complete").as_bool();
  bye_sent_ = state->app.at("bye_sent").as_bool();
  sample_count_ =
      util::parse_uint("session sample_count", state->app.at("sample_count").as_string());
  requests_queued_ = true;
}

bool ServeClient::try_connect() {
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
    net_metrics().client_reconnects.inc();
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

void ServeClient::handle_welcome(const Frame& frame) {
  if (frame.payload.size() < 16)
    throw ProtocolError("ServeClient: malformed welcome frame");
  const std::uint64_t server_read_seq = get_u64(frame.payload, 0);
  const std::uint64_t sample_count = get_u64(frame.payload, 8);
  const std::string fingerprint = frame.payload.substr(16);
  if (server_read_seq == kSessionCompleted) {
    // The server garbage-collected the session at BYE; that only happens
    // after we durably stored the report, so we are done.
    if (!report_complete_)
      throw ProtocolError(
          "ServeClient: server reports session '" + config_.session_id +
          "' complete but no report was received — stale session id?");
    done_ = true;
    transport_.drop();
    std::error_code ec;
    std::filesystem::remove(config_.state_path, ec);
    return;
  }
  if (!fingerprint_.empty() && fingerprint_ != fingerprint)
    throw ProtocolError(
        "ServeClient: server fingerprint changed mid-session (journaled '" +
        fingerprint_ + "', server sent '" + fingerprint +
        "') — refusing to mix two serving configurations in one report");
  if (server_read_seq < writer_.acked() || server_read_seq > writer_.write_seq())
    throw ProtocolError(
        "ServeClient: server read_seq " + std::to_string(server_read_seq) +
        " outside our replay window [" + std::to_string(writer_.acked()) +
        ", " + std::to_string(writer_.write_seq()) + "]");
  const bool first = fingerprint_.empty();
  fingerprint_ = fingerprint;
  sample_count_ = sample_count;
  writer_.ack(server_read_seq);
  const std::uint64_t replay = writer_.write_seq() - server_read_seq;
  net_metrics().bytes_replayed.inc(replay);
  net_metrics().replay_bytes.observe(static_cast<double>(replay));
  reader_.clear_inbox();
  transport_.set_flush_cursor(server_read_seq);
  handshaken_ = true;
  handshake_failures_ = 0;
  if (first) save();  // journal the fingerprint we committed to
}

bool ServeClient::advance() {
  bool mutated = false;
  while (std::optional<PeekedFrame> peeked = peek_frame(reader_.inbox())) {
    switch (peeked->frame.type) {
      case FrameType::kReportChunk:
        report_ += peeked->frame.payload;
        break;
      case FrameType::kReportEnd:
        report_complete_ = true;
        break;
      default:
        throw ProtocolError(
            std::string("ServeClient: unexpected app frame '") +
            frame_type_name(peeked->frame.type) + "'");
    }
    reader_.consume(peeked->encoded_size);
    mutated = true;
  }
  if (!mutated) return false;
  if (report_complete_ && !bye_sent_) {
    writer_.append(encode_frame(FrameType::kBye, ""));
    bye_sent_ = true;
  }
  // save-before-ack: journal the consumed bytes (and the BYE we just
  // queued) before the ack can reach the server.
  save();
  transport_.send_frame(ack_frame(reader_.read_seq()));
  return true;
}

bool ServeClient::step() {
  if (done_) return false;
  if (handshake_failures_ >= config_.max_handshake_failures)
    throw ProtocolError(
        "ServeClient: server at " + config_.connect.host + ":" +
        std::to_string(config_.connect.port) + " dropped " +
        std::to_string(handshake_failures_) +
        " consecutive connections before completing a handshake");
  if (!transport_.attached()) {
    if (!try_connect()) return false;
  }
  bool progress = false;
  // A dead pump still leaves decoded frames behind (the server's last flush
  // before closing — a final ack or a completed-session WELCOME): drain them
  // before deciding whether to reconnect.
  bool alive = transport_.pump(writer_);
  for (;;) {
    try {
      std::optional<Frame> frame;
      while ((frame = transport_.next())) {
        progress = true;
        if (frame->type == FrameType::kRefuse) {
          throw ProtocolError("ServeClient: server refused session '" +
                              config_.session_id + "': " + frame->payload);
        } else if (!handshaken_) {
          if (frame->type != FrameType::kWelcome)
            throw ProtocolError(
                std::string("ServeClient: expected welcome, got '") +
                frame_type_name(frame->type) + "'");
          handle_welcome(*frame);
          if (done_) return true;
        } else if (frame->type == FrameType::kData) {
          if (frame->payload.size() < 8)
            throw ProtocolError("ServeClient: malformed data frame");
          reader_.offer(get_u64(frame->payload, 0),
                        std::string_view(frame->payload).substr(8));
        } else if (frame->type == FrameType::kAck) {
          writer_.ack(get_u64(frame->payload, 0));
        } else {
          throw ProtocolError(
              std::string("ServeClient: unexpected transport frame '") +
              frame_type_name(frame->type) + "'");
        }
      }
      if (handshaken_) progress |= advance();
    } catch (const FrameError&) {
      transport_.drop();  // corrupt transport bytes: reconnect and replay
      return true;
    }
    // A connection that died without reaching WELCOME: a silently-rejecting
    // (or pre-kRefuse) server would otherwise look like endless clean
    // reconnects — count it so step() can give up loudly.
    if (!alive && !handshaken_) ++handshake_failures_;
    if (bye_sent_ && writer_.acked() == writer_.write_seq()) {
      // The server durably consumed everything including BYE.
      done_ = true;
      transport_.drop();
      std::error_code ec;
      std::filesystem::remove(config_.state_path, ec);
      return true;
    }
    // Flush what advance() queued. A pump that finds the connection closed
    // may already have decoded the server's last frames (the ack of our
    // BYE): go round once more so they are handled here, before the next
    // step() reconnects and attach() discards them.
    if (!alive || !transport_.attached() || transport_.pump(writer_)) break;
    alive = false;
  }
  return progress || !alive;
}

void ServeClient::run() {
  while (!done_) {
    if (connect_failures_ >= config_.max_connect_attempts)
      throw ConnectError("ServeClient: cannot reach " + config_.connect.host +
                         ":" + std::to_string(config_.connect.port) +
                         " after " + std::to_string(connect_failures_) +
                         " attempts");
    if (!step()) handler_.wait(config_.reconnect_backoff_ms);
  }
}

}  // namespace hadas::net
