#pragma once

// A socket wrapper for forcing one race deterministically in single-threaded
// loopback tests: the peer takes a step after every write, so its answer and
// its close can land in the same pump that sent the request.

#include <functional>
#include <memory>
#include <utility>

#include "net/socket.hpp"

namespace hadas::test {

/// Client-side sockets that let the peer (a daemon or a coordinator) take a
/// step after every write: the interleaving of a peer thread that answers
/// the final message and closes while the sender is still inside the pump
/// that sent it.
class EagerPeerHandler : public net::SocketHandler {
 public:
  EagerPeerHandler(net::SocketHandler& inner, std::function<void()> peer_step)
      : inner_(inner), peer_step_(std::move(peer_step)) {}

  int listen(const util::HostPort& addr) override { return inner_.listen(addr); }
  std::unique_ptr<net::Socket> accept(int listener) override {
    return inner_.accept(listener);
  }
  void close_listener(int listener) override { inner_.close_listener(listener); }
  std::unique_ptr<net::Socket> connect(const util::HostPort& addr) override {
    return std::make_unique<Eager>(inner_.connect(addr), peer_step_);
  }
  void wait(int timeout_ms) override { inner_.wait(timeout_ms); }

 private:
  class Eager : public net::Socket {
   public:
    Eager(std::unique_ptr<net::Socket> inner, std::function<void()> peer_step)
        : inner_(std::move(inner)), peer_step_(std::move(peer_step)) {}
    std::size_t read(char* buf, std::size_t n) override {
      return inner_->read(buf, n);
    }
    std::size_t write(const char* buf, std::size_t n) override {
      const std::size_t put = inner_->write(buf, n);
      if (put > 0) peer_step_();
      return put;
    }
    void close() override { inner_->close(); }
    bool open() const override { return inner_->open(); }

   private:
    std::unique_ptr<net::Socket> inner_;
    std::function<void()> peer_step_;
  };

  net::SocketHandler& inner_;
  std::function<void()> peer_step_;
};

}  // namespace hadas::test
