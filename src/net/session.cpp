#include "net/session.hpp"

#include <filesystem>

#include "util/durable/document.hpp"
#include "util/strutil.hpp"

namespace hadas::net {

namespace {

std::uint64_t u64_field(const util::Json& json, const std::string& key) {
  // Offsets are stored as decimal strings: a std::uint64_t does not fit a
  // JSON double above 2^53 and stream offsets are cumulative.
  return util::parse_uint("session field '" + key + "'",
                          json.at(key).as_string());
}

}  // namespace

util::Json session_state_to_json(SessionState state) {
  util::Json::Object doc;
  doc["session_id"] = std::move(state.session_id);
  doc["fingerprint"] = std::move(state.fingerprint);
  doc["write_acked"] = std::to_string(state.write_acked);
  doc["write_unacked_hex"] = util::to_hex(state.write_unacked);
  doc["read_seq"] = std::to_string(state.read_seq);
  doc["app"] = std::move(state.app);
  return util::Json(std::move(doc));
}

SessionState session_state_from_json(const util::Json& json) {
  SessionState state;
  state.session_id = json.at("session_id").as_string();
  state.fingerprint = json.at("fingerprint").as_string();
  state.write_acked = u64_field(json, "write_acked");
  state.write_unacked = util::from_hex(json.at("write_unacked_hex").as_string());
  state.read_seq = u64_field(json, "read_seq");
  state.app = json.at("app");
  return state;
}

void save_session_state(const std::string& path, SessionState state,
                        const char* format_tag) {
  std::string payload = session_state_to_json(std::move(state)).dump(2);
  payload += '\n';
  util::durable::DurableFile::write(path, format_tag, payload);
  net_metrics().journal_saves.inc();
  net_metrics().bytes_journaled.inc(payload.size());
}

std::optional<SessionState> load_session_state(const std::string& path,
                                               const char* format_tag) {
  if (!std::filesystem::exists(path)) return std::nullopt;
  return util::durable::load_document(path, format_tag,
                                      session_state_from_json);
}

std::string session_journal_path(const std::string& dir,
                                 const std::string& id) {
  return dir + "/session-" + id + ".json";
}

Frame ack_frame(std::uint64_t read_seq) {
  Frame frame;
  frame.type = FrameType::kAck;
  put_u64(frame.payload, read_seq);
  return frame;
}

void route_frame(const Frame& frame, BackedReader& reader,
                 BackedWriter& writer, const std::string& label) {
  if (frame.type == FrameType::kAck)
    return writer.ack(get_u64(frame.payload, 0));
  if (frame.type != FrameType::kData)
    throw ProtocolError(label + ": unexpected transport frame '" +
                        frame_type_name(frame.type) + "'");
  if (frame.payload.size() < 8)
    throw ProtocolError(label + ": malformed data frame");
  reader.offer(get_u64(frame.payload, 0),
               std::string_view(frame.payload).substr(8));
}

bool consume_frames(BackedReader& reader, Transport& transport,
                    const std::function<bool(const Frame&)>& apply,
                    const std::function<void()>& save) {
  bool any = false;
  bool completed = false;
  while (!completed) {
    const std::optional<PeekedFrame> peeked = peek_frame(reader.inbox());
    if (!peeked) break;
    completed = apply(peeked->frame);
    reader.consume(peeked->encoded_size);
    any = true;
  }
  if (!any) return false;
  // save-before-ack: the ack must never outrun the journal.
  if (!completed) save();
  transport.send_frame(ack_frame(reader.read_seq()));
  return true;
}

bool resume_streams(std::uint64_t peer_read_seq, BackedWriter& writer,
                    BackedReader& reader, Transport& transport,
                    bool count_replay) {
  if (peer_read_seq < writer.acked() || peer_read_seq > writer.write_seq())
    return false;
  // The peer's durable read_seq doubles as an ack: everything below it is
  // safely on its disk.
  writer.ack(peer_read_seq);
  if (count_replay) {
    const std::uint64_t replay = writer.write_seq() - peer_read_seq;
    net_metrics().bytes_replayed.inc(replay);
    net_metrics().replay_bytes.observe(static_cast<double>(replay));
  }
  reader.clear_inbox();
  transport.set_flush_cursor(peer_read_seq);
  return true;
}

bool valid_session_id(const std::string& id) {
  if (id.empty() || id.size() > 64 || id.front() == '.') return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

NetMetrics& net_metrics() {
  static NetMetrics metrics;
  return metrics;
}

}  // namespace hadas::net
