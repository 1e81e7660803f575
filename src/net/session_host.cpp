#include "net/session_host.hpp"

#include <filesystem>

#include "obs/trace.hpp"
#include "util/durable/document.hpp"

namespace hadas::net {

namespace {

/// What an unbound or completed connection flushes from: nothing.
const BackedWriter& empty_writer() {
  static const BackedWriter writer;
  return writer;
}

}  // namespace

SessionHost::SessionHost(SocketHandler& handler, HostConfig config, App& app)
    : handler_(handler), config_(std::move(config)), app_(app) {}

SessionHost::~SessionHost() {
  for (const std::unique_ptr<Conn>& conn : connections_)
    if (conn != nullptr) conn->transport.drop();
  if (listener_) handler_.close_listener(*listener_);
}

int SessionHost::listen(const util::HostPort& addr) {
  listener_ = handler_.listen(addr);
  return *listener_;
}

void SessionHost::disconnect(const std::string& id) {
  for (const std::unique_ptr<Conn>& conn : connections_)
    if (conn != nullptr && conn->id == id) conn->transport.drop();
}

SessionHost::Session* SessionHost::live(const std::string& id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

SessionHost::Session* SessionHost::restore(const std::string& id) {
  if (Session* session = live(id)) return session;
  const std::string path = session_journal_path(config_.state_dir, id);
  std::optional<SessionState> state =
      load_session_state(path, config_.format_tag);
  if (!state) return nullptr;
  if (state->fingerprint != config_.fingerprint)
    throw ProtocolError(config_.label + ": session journal '" + id +
                        "' was written under a different configuration "
                        "(journaled '" + state->fingerprint + "', running '" +
                        config_.fingerprint + "')");
  try {
    app_.open(id, &state->app);
  } catch (...) {
    throw util::durable::current_as_corrupt(path);
  }
  Session& session = sessions_[id];
  session.writer.restore(state->write_acked, std::move(state->write_unacked));
  session.reader.restore(state->read_seq);
  return &session;
}

void SessionHost::save(const std::string& id, const Session& session) {
  save_session_state(session_journal_path(config_.state_dir, id),
                     {id, config_.fingerprint, session.writer.acked(),
                      session.writer.unacked(), session.reader.read_seq(),
                      app_.journal(id)},
                     config_.format_tag);
}

void SessionHost::refuse(Conn& conn, const std::string& reason) {
  Frame frame;
  frame.type = FrameType::kRefuse;
  frame.payload = reason;
  conn.transport.send_frame(frame);
  conn.closing = true;  // drain the refusal, then drop
  if (config_.refused != nullptr) config_.refused->inc();
}

void SessionHost::welcome(Conn& conn, const std::string& id,
                          std::uint64_t read_seq) {
  Frame frame;
  frame.type = FrameType::kWelcome;
  put_u64(frame.payload, read_seq);
  app_.welcome_tail(frame.payload);
  conn.transport.send_frame(frame);
  conn.id = id;
  conn.handshaken = true;
}

void SessionHost::handle_hello(Conn& conn, const Frame& frame) {
  obs::TraceSpan span("net.handshake", "net");
  if (frame.payload.size() < 4 + 8)
    return refuse(conn, "malformed hello frame");
  const std::uint32_t version = get_u32(frame.payload, 0);
  if (version != kProtocolVersion)
    return refuse(conn, "protocol version " + std::to_string(version) +
                            " not supported (" + config_.self + " speaks " +
                            std::to_string(kProtocolVersion) + ")");
  const std::uint64_t peer_read_seq = get_u64(frame.payload, 4);
  const std::string id = frame.payload.substr(12);
  if (!valid_session_id(id)) return refuse(conn, "invalid session id");
  if (std::optional<std::string> reason = app_.admit(id))
    return refuse(conn, *reason);

  // A newer connection for a session steals it from a stale one (a peer
  // that rebooted while its old socket is still half-open). Slots nulled by
  // step()'s reaping this pass are skipped; dropping the stale transport
  // here makes its next pump fail, so step() reaps it.
  disconnect(id);

  Session* session = nullptr;
  try {
    session = restore(id);
  } catch (const ProtocolError& error) {
    return refuse(conn, error.what());
  } catch (const util::durable::CheckpointCorruptError& error) {
    return refuse(conn, config_.label + ": session journal corrupt: " +
                            error.what());
  }
  if (session == nullptr && app_.completed(id, peer_read_seq)) {
    // The session was garbage-collected once complete: the peer only needs
    // to learn that.
    welcome(conn, id, kSessionCompleted);
    conn.closing = true;
    return;
  }
  if (session == nullptr && peer_read_seq > 0)
    return refuse(conn, "durable read_seq " + std::to_string(peer_read_seq) +
                            " for session '" + id + "' but the " +
                            config_.self + " holds no session journal — " +
                            config_.peer + " journal and " + config_.self +
                            " state disagree");
  if (session == nullptr) {
    app_.open(id, nullptr);
    session = &sessions_[id];
  }
  if (!resume_streams(peer_read_seq, session->writer, session->reader,
                      conn.transport, config_.count_replay))
    return refuse(conn, "durable read_seq " + std::to_string(peer_read_seq) +
                            " is outside session '" + id +
                            "' replay window [" +
                            std::to_string(session->writer.acked()) + ", " +
                            std::to_string(session->writer.write_seq()) +
                            "] — " + config_.peer +
                            " journal lost or regressed");
  welcome(conn, id, session->reader.read_seq());
  app_.heard(id, session->writer);
}

bool SessionHost::advance(Conn& conn, Session& session) {
  bool completed = false;
  const auto apply = [&](const Frame& frame) {
    return completed = app_.apply(conn.id, frame, session.writer);
  };
  if (!consume_frames(session.reader, conn.transport, apply,
                      [&] { save(conn.id, session); }))
    return false;
  app_.heard(conn.id, session.writer);
  if (completed) {
    // The ack of the last frame lets the peer finish; garbage-collect. If
    // the ack is lost, the kSessionCompleted handshake answer covers it.
    std::error_code ec;
    std::filesystem::remove(session_journal_path(config_.state_dir, conn.id),
                            ec);
    sessions_.erase(conn.id);
    app_.close(conn.id);
    conn.closing = true;
  }
  return true;
}

bool SessionHost::serve(Conn& conn, bool& progress) {
  Session* session = live(conn.id);
  const bool alive =
      conn.transport.pump(session != nullptr ? session->writer : empty_writer());
  // Even when the pump observed the peer closing, frames it delivered
  // first (a final ack, a trailing data burst) are still in the decoder:
  // process and journal them so nothing needs a replay.
  std::optional<Frame> frame;
  while (!conn.closing && (frame = conn.transport.next())) {
    progress = true;
    if (!conn.handshaken) {
      if (frame->type != FrameType::kHello) return false;
      handle_hello(conn, *frame);
      session = live(conn.id);
    } else if (session == nullptr) {
      return false;  // data for a completed session: just close
    } else {
      route_frame(*frame, session->reader, session->writer, config_.label);
      app_.heard(conn.id, session->writer);
    }
  }
  if (session != nullptr && conn.handshaken && !conn.closing) {
    progress |= advance(conn, *session);
    session = live(conn.id);  // advance() GCs a completed session
    if (session != nullptr && app_.feed(conn.id, session->writer)) {
      // Journal the appended bytes before any pump can flush them: a crash
      // after sending un-journaled bytes would leave the peer's durable
      // read_seq ahead of the restored writer, an unservable session.
      save(conn.id, *session);
      progress = true;
    }
  }
  if (!alive) return false;
  // Flush acks, stream data and refusals queued above.
  return conn.transport.pump(session != nullptr ? session->writer
                                                : empty_writer());
}

bool SessionHost::step() {
  bool progress = false;
  while (std::unique_ptr<Socket> socket = handler_.accept(*listener_)) {
    auto conn = std::make_unique<Conn>();
    conn->transport.attach(std::move(socket));
    connections_.push_back(std::move(conn));
    if (config_.accepted != nullptr) config_.accepted->inc();
    progress = true;
  }
  // Dead slots are nulled in place (never reordered) so handle_hello's
  // session-steal scan sees every still-live connection during the pass;
  // the vector is compacted once at the end.
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    Conn& conn = *connections_[i];
    bool alive = true;
    // A protocol violation, a malformed frame and a pump whose flush cursor
    // fell behind writer.acked() after a session steal are all fatal to
    // this connection only, never to the host.
    try {
      alive = serve(conn, progress);
    } catch (const ProtocolError& error) {
      if (config_.log) config_.log(error.what());
      alive = false;
    } catch (const FrameError&) {
      alive = false;
    }
    if (!alive && config_.dropped != nullptr) config_.dropped->inc();
    if (!alive || (conn.closing && conn.transport.outbox_size() == 0)) {
      conn.transport.drop();
      connections_[i] = nullptr;  // dies; session state stays for a resume
      progress = true;
    }
  }
  std::erase_if(connections_,
                [](const std::unique_ptr<Conn>& c) { return c == nullptr; });
  return progress;
}

}  // namespace hadas::net
