#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "util/strutil.hpp"

namespace hadas::net {

/// The peer end of a socket is gone (EOF, reset, or a simulated sever).
/// Connection-level code catches this and falls back to the
/// reconnect-and-replay path; it is never fatal to a session.
class SocketClosedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// connect() could not reach the server (refused, unresolvable). The client
/// treats this as transient and retries.
class ConnectError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One non-blocking byte-stream endpoint. read()/write() return 0 when the
/// operation would block (poll again later) and throw SocketClosedError
/// once the peer is gone — there is no blocking mode, so a single-threaded
/// event loop can multiplex any number of sockets deterministically.
class Socket {
 public:
  virtual ~Socket() = default;

  /// Up to `n` bytes into `buf`; 0 = would block; throws SocketClosedError
  /// at EOF / reset.
  virtual std::size_t read(char* buf, std::size_t n) = 0;

  /// Up to `n` bytes from `buf` accepted (partial writes are normal);
  /// 0 = would block; throws SocketClosedError when the peer is gone.
  virtual std::size_t write(const char* buf, std::size_t n) = 0;

  virtual void close() = 0;
  virtual bool open() const = 0;
};

/// Factory + multiplexing surface over one transport implementation — the
/// real POSIX TCP stack (TcpSocketHandler) or the deterministic in-process
/// fake (FakeSocketHandler). Everything above this interface (frames,
/// sessions, daemon, client) is transport-agnostic, which is what lets CI
/// chaos-kill either end of a connection without opening a port.
class SocketHandler {
 public:
  virtual ~SocketHandler() = default;

  /// Start listening at `addr`; returns an opaque listener id.
  virtual int listen(const util::HostPort& addr) = 0;

  /// Next pending connection on `listener`, or nullptr when none.
  virtual std::unique_ptr<Socket> accept(int listener) = 0;

  virtual void close_listener(int listener) = 0;

  /// Open a connection to `addr`. Throws ConnectError when unreachable.
  virtual std::unique_ptr<Socket> connect(const util::HostPort& addr) = 0;

  /// Block up to `timeout_ms` for any activity (new connections, readable
  /// or writable sockets). Purely a CPU-saving hint for run loops —
  /// correctness never depends on it.
  virtual void wait(int timeout_ms) = 0;
};

/// Real POSIX TCP sockets (non-blocking, SO_REUSEADDR, IPv4). Used by
/// `hadasd --listen` and `hadas client --connect`.
class TcpSocketHandler : public SocketHandler {
 public:
  int listen(const util::HostPort& addr) override;
  std::unique_ptr<Socket> accept(int listener) override;
  void close_listener(int listener) override;
  std::unique_ptr<Socket> connect(const util::HostPort& addr) override;
  void wait(int timeout_ms) override;

  /// The local port `listener` is bound to: the kernel's pick when it was
  /// opened on port 0.
  std::uint16_t bound_port(int listener) const;
};

}  // namespace hadas::net
