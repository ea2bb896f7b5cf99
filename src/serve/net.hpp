#ifndef PIMCOMP_SERVE_NET_HPP
#define PIMCOMP_SERVE_NET_HPP

#include <atomic>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"

namespace pimcomp::serve {

/// Raised on socket / framing failures in the serving subsystem (bind,
/// connect, broken pipe, oversized frame, protocol violations).
class ServeError : public Error {
 public:
  explicit ServeError(const std::string& message) : Error(message) {}
};

/// RAII file descriptor. Move-only; closing is idempotent.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  void close();

  /// shutdown(SHUT_RDWR): unblocks a peer thread sitting in recv()/accept()
  /// on this descriptor without racing its eventual close().
  void shutdown_both();

  /// SO_SNDTIMEO: bounds every send() so a peer that stops reading turns
  /// into a ServeError after `seconds` instead of blocking a writer forever.
  void set_send_timeout(int seconds);

  /// SO_RCVTIMEO: bounds every blocking recv() so a peer that stops sending
  /// turns into a "receive timed out" ServeError after `seconds` (the
  /// client-side `--timeout` knob).
  void set_recv_timeout(int seconds);

 private:
  int fd_ = -1;
};

/// Listener factories. `listen_unix` listens under a temporary sibling
/// name and renames it onto `path`, so the path exists only once connects
/// succeed; it replaces a stale socket file there (a previous daemon that
/// died without cleanup) but nothing else. `listen_tcp` binds
/// `host:port` and reports the actually-bound port (ephemeral port 0
/// resolution) through `bound_port` when non-null. Both throw ServeError.
Socket listen_unix(const std::string& path);
Socket listen_tcp(const std::string& host, int port, int* bound_port = nullptr);

/// Client-side connection factories; throw ServeError when nothing listens.
Socket connect_unix(const std::string& path);
Socket connect_tcp(const std::string& host, int port);

/// Connects to "unix:PATH" or "HOST:PORT" (bare ":PORT" means 127.0.0.1).
/// The one endpoint grammar shared by the CLI, the remote cache tier, and
/// the router's backend list. Throws ServeError on malformed endpoints or
/// connection failures.
Socket connect_endpoint(const std::string& endpoint);

/// Timing-safe string comparison for auth tokens: runs in time dependent
/// only on the lengths, never on where the bytes first differ, so an
/// attacker cannot binary-search a token byte by byte off response latency.
bool constant_time_equal(const std::string& a, const std::string& b);

/// Blocking accept with periodic wakeups: returns the next connection, or
/// std::nullopt when `*stop` became true (polled every ~100ms) or the
/// listener was shut down. Throws ServeError on unexpected accept failures.
std::optional<Socket> accept_connection(const Socket& listener,
                                        const std::atomic<bool>* stop);

/// Newline-delimited message framing over a connected socket: one complete
/// JSON document per line, which is what makes the protocol scriptable with
/// nc/socat. Reads are buffered and single-threaded (the connection's
/// handler thread); writes are mutex-serialized so a compile worker
/// streaming events and the handler writing outcomes never interleave
/// partial lines.
class LineChannel {
 public:
  explicit LineChannel(Socket socket) : socket_(std::move(socket)) {}

  /// Next complete line without its trailing '\n'; std::nullopt on clean
  /// EOF. Throws ServeError on read errors, receive timeouts (when a recv
  /// timeout is set), or lines above kMaxLineBytes (a malformed peer must
  /// not make the server buffer unboundedly).
  std::optional<std::string> read_line();

  /// Non-blocking half of read_line() for multiplexed readers: performs one
  /// MSG_DONTWAIT recv() into the buffer — call it after poll(2) reported
  /// readability. Returns false on clean EOF (a spurious wakeup with no
  /// data returns true with nothing buffered). Throws ServeError on read
  /// errors or an oversized buffered frame.
  bool fill_from_socket();

  /// Extracts the next complete buffered line without touching the socket;
  /// std::nullopt when no full line is buffered yet. Pair with
  /// fill_from_socket() in a poll loop.
  std::optional<std::string> take_line();

  /// See Socket::set_recv_timeout (affects blocking read_line() only).
  void set_recv_timeout(int seconds) { socket_.set_recv_timeout(seconds); }

  /// Writes `line` plus a trailing '\n' atomically with respect to other
  /// write_line() callers. Throws ServeError when the peer is gone (or,
  /// with a send timeout set, has stopped reading).
  void write_line(const std::string& line) PIMCOMP_EXCLUDES(write_mutex_);

  /// Unblocks a read_line() in progress on another thread.
  void shutdown_both() { socket_.shutdown_both(); }

  int fd() const { return socket_.fd(); }

  /// 64 MiB: far above any real request (graphs are ~100 KB) yet small
  /// enough to bound a hostile peer's memory cost.
  static constexpr std::size_t kMaxLineBytes = 64u << 20;

 private:
  void write_locked(const std::string& line) PIMCOMP_REQUIRES(write_mutex_);

  Socket socket_;
  /// Read-side accumulation. Deliberately unguarded: reads are owned by a
  /// single thread at a time (the connection's reader), per the class
  /// contract above — only writes are cross-thread.
  std::string buffer_;
  Mutex write_mutex_;
};

}  // namespace pimcomp::serve

#endif  // PIMCOMP_SERVE_NET_HPP
