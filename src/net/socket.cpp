#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <mutex>
#include <set>
#include <vector>

namespace hadas::net {

namespace {

/// fds the handler's wait() should poll. Process-wide is fine: all TCP
/// handlers share one kernel anyway.
std::mutex g_fds_mutex;
std::set<int>& watched_fds() {
  static std::set<int> fds;
  return fds;
}

void watch_fd(int fd) {
  std::lock_guard<std::mutex> lock(g_fds_mutex);
  watched_fds().insert(fd);
}

void unwatch_fd(int fd) {
  std::lock_guard<std::mutex> lock(g_fds_mutex);
  watched_fds().erase(fd);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

class TcpSocket : public Socket {
 public:
  explicit TcpSocket(int fd) : fd_(fd) {
    set_nonblocking(fd_);
    watch_fd(fd_);
  }
  ~TcpSocket() override { close(); }

  std::size_t read(char* buf, std::size_t n) override {
    if (fd_ < 0) throw SocketClosedError("TcpSocket: read on closed socket");
    const ssize_t got = ::recv(fd_, buf, n, 0);
    if (got > 0) return static_cast<std::size_t>(got);
    if (got == 0) {
      close();
      throw SocketClosedError("TcpSocket: peer closed the connection");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return 0;
    const int err = errno;
    close();
    throw SocketClosedError(std::string("TcpSocket: read failed: ") +
                            std::strerror(err));
  }

  std::size_t write(const char* buf, std::size_t n) override {
    if (fd_ < 0) throw SocketClosedError("TcpSocket: write on closed socket");
    const ssize_t put = ::send(fd_, buf, n, MSG_NOSIGNAL);
    if (put >= 0) return static_cast<std::size_t>(put);
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return 0;
    const int err = errno;
    close();
    throw SocketClosedError(std::string("TcpSocket: write failed: ") +
                            std::strerror(err));
  }

  void close() override {
    if (fd_ >= 0) {
      unwatch_fd(fd_);
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool open() const override { return fd_ >= 0; }

 private:
  int fd_;
};

}  // namespace

int TcpSocketHandler::listen(const util::HostPort& addr) {
  struct addrinfo hints = {};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  struct addrinfo* info = nullptr;
  const int rc = ::getaddrinfo(addr.host.c_str(),
                               std::to_string(addr.port).c_str(), &hints,
                               &info);
  if (rc != 0 || info == nullptr)
    throw ConnectError("TcpSocketHandler: cannot resolve '" + addr.host +
                       "': " + ::gai_strerror(rc));
  const int fd = ::socket(info->ai_family, info->ai_socktype, 0);
  if (fd < 0) {
    ::freeaddrinfo(info);
    throw ConnectError("TcpSocketHandler: socket() failed");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, info->ai_addr, info->ai_addrlen) != 0 ||
      ::listen(fd, 64) != 0) {
    const int err = errno;
    ::freeaddrinfo(info);
    ::close(fd);
    throw ConnectError("TcpSocketHandler: cannot listen on " + addr.host +
                       ":" + std::to_string(addr.port) + ": " +
                       std::strerror(err));
  }
  ::freeaddrinfo(info);
  set_nonblocking(fd);
  watch_fd(fd);
  return fd;
}

std::uint16_t TcpSocketHandler::bound_port(int listener) const {
  struct sockaddr_in addr = {};
  socklen_t len = sizeof(addr);
  if (::getsockname(listener, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) != 0)
    throw ConnectError(std::string("TcpSocketHandler: getsockname failed: ") +
                       std::strerror(errno));
  return ntohs(addr.sin_port);
}

std::unique_ptr<Socket> TcpSocketHandler::accept(int listener) {
  const int fd = ::accept(listener, nullptr, nullptr);
  if (fd < 0) return nullptr;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<TcpSocket>(fd);
}

void TcpSocketHandler::close_listener(int listener) {
  unwatch_fd(listener);
  ::close(listener);
}

std::unique_ptr<Socket> TcpSocketHandler::connect(const util::HostPort& addr) {
  struct addrinfo hints = {};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* info = nullptr;
  const int rc = ::getaddrinfo(addr.host.c_str(),
                               std::to_string(addr.port).c_str(), &hints,
                               &info);
  if (rc != 0 || info == nullptr)
    throw ConnectError("TcpSocketHandler: cannot resolve '" + addr.host +
                       "': " + ::gai_strerror(rc));
  const int fd = ::socket(info->ai_family, info->ai_socktype, 0);
  if (fd < 0) {
    ::freeaddrinfo(info);
    throw ConnectError("TcpSocketHandler: socket() failed");
  }
  // Blocking connect (fast on a LAN / localhost), then non-blocking I/O.
  if (::connect(fd, info->ai_addr, info->ai_addrlen) != 0) {
    const int err = errno;
    ::freeaddrinfo(info);
    ::close(fd);
    throw ConnectError("TcpSocketHandler: cannot connect to " + addr.host +
                       ":" + std::to_string(addr.port) + ": " +
                       std::strerror(err));
  }
  ::freeaddrinfo(info);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<TcpSocket>(fd);
}

void TcpSocketHandler::wait(int timeout_ms) {
  std::vector<struct pollfd> fds;
  {
    std::lock_guard<std::mutex> lock(g_fds_mutex);
    fds.reserve(watched_fds().size());
    for (int fd : watched_fds()) fds.push_back({fd, POLLIN, 0});
  }
  if (fds.empty()) {
    struct timespec ts = {timeout_ms / 1000, (timeout_ms % 1000) * 1000000L};
    ::nanosleep(&ts, nullptr);
    return;
  }
  ::poll(fds.data(), fds.size(), timeout_ms);
}

}  // namespace hadas::net
