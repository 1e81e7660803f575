#include "net/server.hpp"

#include <cstring>

#include "obs/trace.hpp"
#include "util/strutil.hpp"

namespace hadas::net {

namespace {

/// Report JSON is cut into app frames of this size (well under the frame
/// payload cap, several per DATA chunk).
constexpr std::size_t kReportChunkBytes = 32 * 1024;

/// Bytes of one request record: u64 id | u64 arrival bits | u64 sample pos.
constexpr std::size_t kRequestBytes = 24;

std::vector<runtime::serve::RemoteRequest> unpack_requests(
    const std::string& records) {
  std::vector<runtime::serve::RemoteRequest> requests(records.size() /
                                                      kRequestBytes);
  std::size_t offset = 0;
  for (runtime::serve::RemoteRequest& request : requests) {
    request.id = get_u64(records, offset);
    const std::uint64_t bits = get_u64(records, offset + 8);
    std::memcpy(&request.arrival_s, &bits, sizeof(bits));
    request.sample_pos = get_u64(records, offset + 16);
    offset += kRequestBytes;
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
  Session session;
  if (journaled != nullptr) {
    session.requests =
        util::from_hex(journaled->at("requests_hex").as_string());
    if (session.requests.size() % kRequestBytes != 0)
      throw std::invalid_argument("ServeDaemon: journaled requests of " +
                                  std::to_string(session.requests.size()) +
                                  " bytes are not whole records");
    session.finished = journaled->at("finished").as_bool();
  }
  sessions_[id] = std::move(session);
  (journaled == nullptr ? net_metrics().sessions_created
                        : net_metrics().sessions_resumed)
      .inc();
}

util::Json ServeDaemon::journal(const std::string& id) {
  const Session& session = sessions_.at(id);
  util::Json::Object app;
  app["requests_hex"] = util::Json(util::to_hex(session.requests));
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
      if (frame.payload.size() != 4 + std::size_t{count} * kRequestBytes)
        throw ProtocolError("ServeDaemon: malformed request batch");
      session.requests.append(frame.payload, 4);
      net_metrics().requests_streamed.inc(count);
      return false;
    }
    case FrameType::kFinish: {
      if (session.finished) return false;  // unreachable: read_seq is past it
      obs::TraceSpan span("net.run_trace", "net");
      const std::string report =
          service_.run_trace(unpack_requests(session.requests));
      for (std::size_t at = 0; at < report.size(); at += kReportChunkBytes)
        out.append(encode_frame(FrameType::kReportChunk,
                                std::string_view(report).substr(
                                    at, kReportChunkBytes)));
      out.append(encode_frame(FrameType::kReportEnd, ""));
      session.finished = true;
      // A finished session only replays its writer.
      std::string().swap(session.requests);
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
