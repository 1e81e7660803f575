#include "net/connection.hpp"

#include <algorithm>

#include "net/session.hpp"

namespace hadas::net {

void Transport::attach(std::unique_ptr<Socket> socket) {
  drop();
  socket_ = std::move(socket);
}

void Transport::die() {
  if (socket_) {
    socket_->close();
    socket_.reset();
  }
  outbox_.clear();
  cursor_ = 0;
  streaming_ = false;
}

void Transport::drop() {
  die();
  decoder_.reset();
}

void Transport::send_frame(const Frame& frame) {
  outbox_ += encode_frame(frame.type, frame.payload);
  net_metrics().frames_sent.inc();
}

std::string encode_data_payload(std::uint64_t offset, std::string_view chunk) {
  std::string payload;
  payload.reserve(8 + chunk.size());
  put_u64(payload, offset);
  payload += chunk;
  return payload;
}

bool Transport::pump(const BackedWriter& writer) {
  if (!socket_) return false;
  try {
    // Cut kData frames for logical-stream bytes the peer has not seen on
    // this connection yet.
    while (streaming_ && cursor_ < writer.write_seq() &&
           outbox_.size() < kOutboxSoftCap) {
      const std::string_view chunk = writer.from(cursor_).substr(0, kDataChunk);
      outbox_ +=
          encode_frame(FrameType::kData, encode_data_payload(cursor_, chunk));
      net_metrics().frames_sent.inc();
      cursor_ += chunk.size();
    }
    // Drain the outbox into the socket (partial writes are normal).
    while (!outbox_.empty()) {
      const std::size_t put = socket_->write(outbox_.data(), outbox_.size());
      if (put == 0) break;
      outbox_.erase(0, put);
    }
    // Pull whatever the peer sent into the decoder.
    char buf[16 * 1024];
    for (;;) {
      const std::size_t got = socket_->read(buf, sizeof(buf));
      if (got == 0) break;
      decoder_.feed(buf, got);
    }
  } catch (const SocketClosedError&) {
    die();
    return false;
  }
  return true;
}

std::optional<Frame> Transport::next() {
  std::optional<Frame> frame = decoder_.next();
  if (frame) net_metrics().frames_received.inc();
  return frame;
}

}  // namespace hadas::net
