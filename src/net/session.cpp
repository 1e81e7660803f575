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
