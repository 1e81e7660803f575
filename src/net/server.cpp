#include "net/server.hpp"

#include <cstring>

#include "obs/trace.hpp"
#include "util/strutil.hpp"

namespace hadas::net {

namespace {

/// Report JSON is cut into app frames of this size (well under the frame
/// payload cap, several per DATA chunk).
constexpr std::size_t kReportChunkBytes = 32 * 1024;

double bits_to_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t double_to_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

util::Json requests_to_json(
    const std::vector<runtime::serve::RemoteRequest>& requests) {
  util::Json::Array rows;
  rows.reserve(requests.size());
  for (const runtime::serve::RemoteRequest& r : requests) {
    util::Json::Array row;
    row.emplace_back(std::to_string(r.id));
    row.emplace_back(std::to_string(double_to_bits(r.arrival_s)));
    row.emplace_back(std::to_string(r.sample_pos));
    rows.emplace_back(std::move(row));
  }
  return util::Json(std::move(rows));
}

std::vector<runtime::serve::RemoteRequest> requests_from_json(
    const util::Json& json) {
  std::vector<runtime::serve::RemoteRequest> requests;
  for (const util::Json& row : json.as_array()) {
    runtime::serve::RemoteRequest r;
    r.id = util::parse_uint("session request id", row.at(0).as_string());
    r.arrival_s = bits_to_double(
        util::parse_uint("session request arrival", row.at(1).as_string()));
    r.sample_pos =
        util::parse_uint("session request pos", row.at(2).as_string());
    requests.push_back(r);
  }
  return requests;
}

}  // namespace

ServeDaemon::ServeDaemon(SocketHandler& handler,
                         const runtime::serve::ServeService& service,
                         DaemonConfig config)
    : service_(service),
      config_(std::move(config)),
      host_(handler,
            {.label = "ServeDaemon",
             .self = "server",
             .peer = "client",
             .state_dir = config_.state_dir,
             .fingerprint = service_.fingerprint(),
             .accepted = &net_metrics().connections_accepted,
             .dropped = &net_metrics().connections_dropped,
             .refused = &net_metrics().handshakes_refused,
             .count_replay = true},
            *this) {}

void ServeDaemon::start() {
  if (!host_.listening()) host_.listen(config_.listen);
}

bool ServeDaemon::completed(const std::string&, std::uint64_t peer_read_seq) {
  // The client durably consumed report bytes, so this session existed and
  // was garbage-collected at BYE: it is complete.
  return peer_read_seq > 0;
}

void ServeDaemon::welcome_tail(std::string& payload) {
  put_u64(payload, service_.sample_count());
  payload += service_.fingerprint();
}

void ServeDaemon::open(const std::string& id, const util::Json* journaled) {
  sessions_[id] = journaled == nullptr
                      ? Session{}
                      : Session{requests_from_json(journaled->at("requests")),
                                journaled->at("finished").as_bool()};
  (journaled == nullptr ? net_metrics().sessions_created
                        : net_metrics().sessions_resumed)
      .inc();
}

util::Json ServeDaemon::journal(const std::string& id) {
  const Session& session = sessions_.at(id);
  util::Json::Object app;
  app["requests"] = requests_to_json(session.requests);
  app["finished"] = util::Json(session.finished);
  return util::Json(std::move(app));
}

void ServeDaemon::close(const std::string& id) {
  sessions_.erase(id);
  ++completed_;
  net_metrics().sessions_completed.inc();
}

bool ServeDaemon::apply(const std::string& id, const Frame& frame,
                        BackedWriter& out) {
  Session& session = sessions_.at(id);
  switch (frame.type) {
    case FrameType::kRequestBatch: {
      const std::uint32_t count = get_u32(frame.payload, 0);
      if (frame.payload.size() != 4 + std::size_t{count} * 24)
        throw ProtocolError("ServeDaemon: malformed request batch");
      std::size_t offset = 4;
      for (std::uint32_t i = 0; i < count; ++i, offset += 24) {
        runtime::serve::RemoteRequest request;
        request.id = get_u64(frame.payload, offset);
        request.arrival_s = bits_to_double(get_u64(frame.payload, offset + 8));
        request.sample_pos = get_u64(frame.payload, offset + 16);
        session.requests.push_back(request);
      }
      net_metrics().requests_streamed.inc(count);
      return false;
    }
    case FrameType::kFinish: {
      if (session.finished) return false;  // unreachable: read_seq is past it
      obs::TraceSpan span("net.run_trace", "net");
      const std::string report = service_.run_trace(session.requests);
      for (std::size_t at = 0; at < report.size(); at += kReportChunkBytes)
        out.append(encode_frame(FrameType::kReportChunk,
                                std::string_view(report).substr(
                                    at, kReportChunkBytes)));
      out.append(encode_frame(FrameType::kReportEnd, ""));
      session.finished = true;
      net_metrics().reports_sent.inc();
      return false;
    }
    case FrameType::kBye:
      return true;
    default:
      throw ProtocolError(std::string("ServeDaemon: unexpected app frame '") +
                          frame_type_name(frame.type) + "' in session " + id);
  }
}

bool ServeDaemon::step() {
  start();
  return host_.step();
}

void ServeDaemon::run() {
  start();
  while (!stop_.load(std::memory_order_relaxed)) {
    if (config_.once != 0 && completed_ >= config_.once &&
        host_.connection_count() == 0)
      break;
    if (!step()) host_.wait(20);
  }
}

}  // namespace hadas::net
