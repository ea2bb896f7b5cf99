#include "serve/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/string_util.hpp"

namespace pimcomp::serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw ServeError(what + ": " + std::strerror(errno));
}

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw ServeError("unix socket path must be 1.." +
                     std::to_string(sizeof(addr.sun_path) - 1) +
                     " bytes, got '" + path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in tcp_address(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (port < 0 || port > 65535) {
    throw ServeError("tcp port out of range: " + std::to_string(port));
  }
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw ServeError("bad IPv4 address '" + host + "'");
  }
  return addr;
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::set_send_timeout(int seconds) {
  if (fd_ < 0) return;
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void Socket::set_recv_timeout(int seconds) {
  if (fd_ < 0) return;
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

Socket listen_unix(const std::string& path) {
  unix_address(path);  // validates the length
  // Bound and listening under a temporary sibling name first, then renamed
  // into place: the path never exists while connects to it are refused.
  const std::string temp = path + "." + std::to_string(::getpid()) + ".tmp";
  const sockaddr_un addr = unix_address(temp);
  Socket socket(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!socket.valid()) throw_errno("socket(AF_UNIX)");
  struct stat st {};
  if (::lstat(path.c_str(), &st) == 0) {
    // Something already exists at the path. Only a socket is ours to
    // reclaim — a mistyped --unix pointing at a regular file must not cost
    // the user that file.
    if (!S_ISSOCK(st.st_mode)) {
      throw ServeError("'" + path +
                       "' exists and is not a socket; refusing to replace it");
    }
    // Only replace the socket if nothing answers a connect probe (a daemon
    // that died uncleanly): taking over a *live* daemon's endpoint would
    // silently steal its address.
    bool live = false;
    try {
      Socket probe = connect_unix(path);
      live = true;
    } catch (const ServeError&) {
    }
    if (live) {
      throw ServeError("'" + path +
                       "' already has a listening daemon; stop it first or "
                       "pick another socket path");
    }
  }
  ::unlink(temp.c_str());  // left over by a process that died here
  if (::bind(socket.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("bind('" + temp + "')");
  }
  if (::listen(socket.fd(), SOMAXCONN) != 0 ||
      ::rename(temp.c_str(), path.c_str()) != 0) {
    const int error = errno;
    ::unlink(temp.c_str());
    errno = error;
    throw_errno("listen('" + path + "')");
  }
  return socket;
}

Socket listen_tcp(const std::string& host, int port, int* bound_port) {
  sockaddr_in addr = tcp_address(host, port);
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(socket.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("bind(" + host + ":" + std::to_string(port) + ")");
  }
  if (::listen(socket.fd(), SOMAXCONN) != 0) throw_errno("listen");
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&actual),
                      &len) != 0) {
      throw_errno("getsockname");
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return socket;
}

Socket connect_unix(const std::string& path) {
  const sockaddr_un addr = unix_address(path);
  Socket socket(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!socket.valid()) throw_errno("socket(AF_UNIX)");
  if (::connect(socket.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    throw_errno("connect('" + path + "')");
  }
  return socket;
}

Socket connect_tcp(const std::string& host, int port) {
  const sockaddr_in addr = tcp_address(host, port);
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) throw_errno("socket(AF_INET)");
  if (::connect(socket.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    throw_errno("connect(" + host + ":" + std::to_string(port) + ")");
  }
  return socket;
}

Socket connect_endpoint(const std::string& endpoint) {
  constexpr const char kUnixPrefix[] = "unix:";
  if (endpoint.rfind(kUnixPrefix, 0) == 0) {
    return connect_unix(endpoint.substr(sizeof(kUnixPrefix) - 1));
  }
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 >= endpoint.size()) {
    throw ServeError("endpoint must be 'unix:PATH' or 'HOST:PORT', got '" +
                     endpoint + "'");
  }
  const std::string host =
      colon == 0 ? std::string("127.0.0.1") : endpoint.substr(0, colon);
  const std::optional<long long> port =
      parse_decimal(endpoint.substr(colon + 1));
  if (!port.has_value() || *port <= 0 || *port > 65535) {
    throw ServeError("bad port in endpoint '" + endpoint + "'");
  }
  return connect_tcp(host, static_cast<int>(*port));
}

bool constant_time_equal(const std::string& a, const std::string& b) {
  // Fold the length mismatch into the accumulator instead of returning
  // early, and always walk max(len) bytes: the loop's duration leaks only
  // lengths, which the attacker already controls.
  unsigned char diff = a.size() == b.size() ? 0 : 1;
  const std::size_t steps = std::max(a.size(), b.size());
  for (std::size_t i = 0; i < steps; ++i) {
    const unsigned char ca =
        i < a.size() ? static_cast<unsigned char>(a[i]) : 0;
    const unsigned char cb =
        i < b.size() ? static_cast<unsigned char>(b[i]) : 0;
    diff = static_cast<unsigned char>(diff | (ca ^ cb));
  }
  return diff == 0;
}

std::optional<Socket> accept_connection(const Socket& listener,
                                        const std::atomic<bool>* stop) {
  while (stop == nullptr || !stop->load()) {
    pollfd pfd{listener.fd(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll(listener)");
    }
    if (ready == 0) continue;  // timeout: re-check the stop flag
    if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
      return std::nullopt;  // listener shut down underneath us
    }
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EINVAL || errno == EBADF) return std::nullopt;  // shut down
    throw_errno("accept");
  }
  return std::nullopt;
}

std::optional<std::string> LineChannel::take_line() {
  const std::size_t newline = buffer_.find('\n');
  if (newline == std::string::npos) {
    if (buffer_.size() > kMaxLineBytes) {
      throw ServeError("frame exceeds " + std::to_string(kMaxLineBytes) +
                       " bytes without a newline");
    }
    return std::nullopt;
  }
  std::string line = buffer_.substr(0, newline);
  buffer_.erase(0, newline + 1);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

bool LineChannel::fill_from_socket() {
  char chunk[16384];
  for (;;) {
    // MSG_DONTWAIT keeps a multiplexed reader honest: even if poll(2) woke
    // us spuriously, the recv returns EAGAIN instead of parking the reader
    // thread on one connection.
    const ssize_t n =
        ::recv(socket_.fd(), chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      if (buffer_.size() > kMaxLineBytes &&
          buffer_.find('\n') == std::string::npos) {
        throw ServeError("frame exceeds " + std::to_string(kMaxLineBytes) +
                         " bytes without a newline");
      }
      return true;
    }
    if (n == 0) {
      // Clean EOF. A partial trailing line without '\n' is dropped: the
      // peer died mid-frame and the fragment is unparseable anyway.
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // no data yet
    throw_errno("recv");
  }
}

std::optional<std::string> LineChannel::read_line() {
  for (;;) {
    if (std::optional<std::string> line = take_line()) return line;
    char chunk[16384];
    const ssize_t n = ::recv(socket_.fd(), chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      // Clean EOF (see fill_from_socket on partial trailing lines).
      return std::nullopt;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // SO_RCVTIMEO expired: the server went quiet past the caller's
      // deadline (`--timeout`), which must read as a request failure, not
      // a generic socket error.
      throw ServeError("receive timed out: no server frame arrived in time");
    }
    throw_errno("recv");
  }
}

void LineChannel::write_line(const std::string& line) {
  MutexLock lock(write_mutex_);
  write_locked(line);
}

void LineChannel::write_locked(const std::string& line) {
  std::string frame = line;
  frame.push_back('\n');
  const char* data = frame.data();
  std::size_t remaining = frame.size();
  while (remaining > 0) {
    // MSG_NOSIGNAL: a disconnected peer yields EPIPE instead of killing the
    // process with SIGPIPE.
    const ssize_t n = ::send(socket_.fd(), data, remaining, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_SNDTIMEO expired: the peer has stopped reading.
        throw ServeError("send timed out: peer is not reading");
      }
      throw_errno("send");
    }
    data += n;
    remaining -= static_cast<std::size_t>(n);
  }
}

}  // namespace pimcomp::serve
