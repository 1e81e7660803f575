#include "net/client.hpp"

#include <cmath>
#include <cstring>

#include "util/rng.hpp"
#include "util/strutil.hpp"

namespace hadas::net {

ServeClient::ServeClient(SocketHandler& handler, ClientConfig config)
    : config_(std::move(config)),
      endpoint_(handler,
                {.label = "ServeClient",
                 .peer = "server",
                 .connect = config_.connect,
                 .session_id = config_.session_id,
                 .state_path = config_.state_path,
                 .max_handshake_failures = config_.max_handshake_failures,
                 .reconnects = &net_metrics().client_reconnects,
                 .count_replay = true},
                *this) {
  if (!valid_session_id(config_.session_id))
    throw std::invalid_argument("ServeClient: invalid session id '" +
                                config_.session_id + "'");
  if (config_.batch > kMaxRequestBatch)
    throw std::invalid_argument(
        "ServeClient: batch of " + std::to_string(config_.batch) +
        " requests cannot fit one frame (max " +
        std::to_string(kMaxRequestBatch) + ")");
  const bool restored = endpoint_.restore([this](const util::Json& app) {
    report_ = app.at("report").as_string();
    report_complete_ = app.at("report_complete").as_bool();
    sample_count_ = util::parse_uint("session sample_count",
                                     app.at("sample_count").as_string());
  });
  // The stream is queued at the first WELCOME, journaled once there.
  if (!restored) endpoint_.save();
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
      endpoint_.writer().append(encode_frame(FrameType::kRequestBatch, payload));
      in_batch = 0;
    }
  }
  endpoint_.writer().append(encode_frame(FrameType::kFinish, ""));
}

util::Json ServeClient::journal() {
  util::Json::Object app;
  app["report"] = util::Json(report_);
  app["report_complete"] = util::Json(report_complete_);
  app["bye_sent"] = util::Json(report_complete_);  // queued with the report
  app["sample_count"] = util::Json(std::to_string(sample_count_));
  return util::Json(std::move(app));
}

std::string ServeClient::welcome_fingerprint(const std::string& payload,
                                             std::size_t at) {
  if (payload.size() < at + 8)
    throw ProtocolError("ServeClient: malformed welcome frame");
  return payload.substr(at + 8);
}

void ServeClient::welcomed(const std::string& payload, std::size_t at) {
  sample_count_ = get_u64(payload, at);
  // No byte can leave before a WELCOME sets the flush cursor, so the trace
  // is queued here, before the save that journals the fingerprint.
  if (endpoint_.writer().write_seq() == 0) generate_requests();
}

void ServeClient::apply(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kReportChunk:
      report_ += frame.payload;
      return;
    case FrameType::kReportEnd:
      // The complete report and the BYE are journaled by one save, before
      // the ack of kReportEnd leaves.
      report_complete_ = true;
      endpoint_.writer().append(encode_frame(FrameType::kBye, ""));
      return;
    default:
      throw ProtocolError(std::string("ServeClient: unexpected app frame '") +
                          frame_type_name(frame.type) + "'");
  }
}

void ServeClient::run() {
  while (!done()) {
    if (connect_failures() >= config_.max_connect_attempts)
      throw ConnectError("ServeClient: cannot reach " + config_.connect.host +
                         ":" + std::to_string(config_.connect.port) +
                         " after " + std::to_string(connect_failures()) +
                         " attempts");
    if (!step()) endpoint_.wait(config_.reconnect_backoff_ms);
  }
}

}  // namespace hadas::net
