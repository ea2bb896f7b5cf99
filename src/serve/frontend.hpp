#ifndef PIMCOMP_SERVE_FRONTEND_HPP
#define PIMCOMP_SERVE_FRONTEND_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/thread_annotations.hpp"
#include "serve/net.hpp"

namespace pimcomp::serve {

/// Reader threads of a frontend's poll(2) pool: pimcompd's `--readers`
/// default, and what the router always runs.
inline constexpr int kDefaultReaders = 2;

/// Work a request left running on its connection's behalf (the daemon's
/// compile jobs, the router's upstream forward). Cancelled when that
/// connection goes away, so a dead client cancels only its own work.
class Cancellable {
 public:
  /// Must not block on the connection; may run on any thread.
  virtual void cancel() = 0;

 protected:
  ~Cancellable() = default;  // owned through the concrete type's shared_ptr
};

/// One client connection. Its pinned reader parses inbound lines and pumps
/// the outbound frame queue with non-blocking sends when poll(2) reports
/// writability. Producers (session workers finishing jobs, router
/// forwards, the reader itself answering pings) enqueue; a frame with
/// nothing queued ahead of it goes out at once with a non-blocking send
/// from the producer's thread. That is what keeps one stalled client from
/// ever blocking an expensive thread: no send ever waits for the peer.
/// `broken` is the one-way "this peer is gone or not reading" latch: the
/// pump sets it on send errors, outbound overflow, or stalls, and the
/// owning reader observes it and disconnects (cancelling the work the
/// connection owns).
class Connection {
 public:
  Connection(Socket socket, int wake_fd)
      : channel_(std::move(socket)), wake_fd_(wake_fd) {}

  /// Serializes `frame` onto the outbound queue. Advisory frames (progress
  /// events) are dropped when the queue is already deep; mandatory frames
  /// past the hard cap mark the connection broken. Never blocks, never
  /// throws.
  void enqueue_frame(const Json& frame, bool advisory = false);
  /// enqueue_frame for an already serialized frame (no trailing '\n'),
  /// such as one the router relays verbatim.
  void enqueue_line(std::string line, bool advisory = false);

  bool broken() const { return broken_.load(); }

  /// Cancels `work` when this connection goes away — at once if it
  /// already has.
  void own(std::weak_ptr<Cancellable> work);

  /// Advisory frames are dropped once this much output is already queued:
  /// a slow reader loses progress, never outcomes.
  static constexpr std::size_t kAdvisoryBudget = 4u << 20;
  /// Hard cap: a peer that reads nothing while mandatory frames pile past
  /// this is declared broken (bounds a hostile/stuck client's memory cost).
  static constexpr std::size_t kOutboundCap = 256u << 20;
  /// Outbound stall bound: a peer with queued frames that accepts no bytes
  /// for this long is declared gone — its connection drops and the work it
  /// owns is cancelled.
  static constexpr int kSendStallSeconds = 30;

 private:
  friend class Frontend;

  /// Marks the connection broken, shuts the socket down and cancels
  /// everything it owns.
  void disconnect();
  /// Drains as much outbound as the socket accepts right now, without
  /// blocking; send errors mark the connection broken.
  void pump_outbound();
  void pump_locked() PIMCOMP_REQUIRES(out_mutex_);
  /// What the reader polls for: POLLIN, plus POLLOUT while output is
  /// queued; 0 once queued output made no progress for kSendStallSeconds.
  short poll_events();

  LineChannel channel_;
  /// Write end of the pinned reader's wakeup pipe.
  const int wake_fd_;
  std::atomic<bool> broken_{false};

  Mutex mutex_;
  std::vector<std::weak_ptr<Cancellable>> owned_ PIMCOMP_GUARDED_BY(mutex_);

  // Outbound frame queue. Frames carry their trailing '\n'; `offset_` is
  // how much of the front frame already went out; `last_progress_` drives
  // the stall timeout.
  Mutex out_mutex_;
  std::deque<std::string> outbound_ PIMCOMP_GUARDED_BY(out_mutex_);
  std::size_t out_bytes_ PIMCOMP_GUARDED_BY(out_mutex_) = 0;
  std::size_t offset_ PIMCOMP_GUARDED_BY(out_mutex_) = 0;
  std::chrono::steady_clock::time_point last_progress_
      PIMCOMP_GUARDED_BY(out_mutex_){};
};

/// The connection layer of every serving daemon (pimcompd and
/// pimcomp_router): the listener, an accept thread, a fixed reader pool
/// multiplexing every connection via poll(2), the connection registry, and
/// one request preamble — parse, reply id, `type`, constant-time auth,
/// `ping`, `stats`, unknown types, and a catch-all error frame. A daemon
/// derives from it and plugs in only what is its own: its request
/// handlers, its stats payload, and a drain step run at stop() between
/// "stop accepting" and "cut connections". There is no thread per
/// connection: handlers must not block a reader (the daemon submits jobs,
/// the router hands each forward to its own thread), and every reply goes
/// through the connection's outbound queue.
class Frontend {
 public:
  /// Derived destructors must stop() first: the readers call virtuals.
  virtual ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Binds the socket and spawns the accept thread plus the reader pool.
  /// Throws ServeError when the endpoint cannot be bound.
  void start();

  /// Stops accepting, runs drain(), stops the readers, disconnects every
  /// connection (cancelling the work each owns), and removes the Unix
  /// socket file. Idempotent; a concurrent caller waits for the first.
  void stop();

  /// Blocks until stop() is called from another thread.
  void wait();

  bool running() const { return running_; }

  /// Actually bound TCP port (resolves port 0), 0 for Unix transport.
  int port() const { return bound_port_; }

  /// Human-readable endpoint ("unix:/run/pimcompd.sock", "127.0.0.1:7878"),
  /// in the form CompileClient::connect() accepts.
  std::string endpoint() const;

  std::uint64_t connections_accepted() const { return connections_accepted_; }

  /// The `stats` reply's payload.
  virtual Json stats_payload() const = 0;

 protected:
  /// A non-empty `unix_path` selects a Unix-domain socket, otherwise
  /// `host:port` TCP. A non-empty `auth_token` is required on every
  /// request.
  Frontend(std::string unix_path, std::string host, int port, int readers,
           std::string auth_token);

  /// Answers one authenticated request of `type` (anything but ping and
  /// stats) on a reader thread, replying through `connection`; false when
  /// this daemon does not serve `type`. An exception becomes an error frame.
  virtual bool handle(const std::string& type,
                      const std::shared_ptr<Connection>& connection,
                      Json& json) = 0;

  /// stop()'s grace for in-flight work; readers still pump replies.
  virtual void drain() {}

 private:
  struct Reader;

  void accept_loop();
  void reader_loop(Reader& reader);
  /// Parses and answers one request line.
  void dispatch_line(const std::shared_ptr<Connection>& connection,
                     const std::string& line);

  const std::string unix_path_;
  const std::string host_;
  const int port_;
  const int reader_count_;
  const std::string auth_token_;

  // listener_, bound_port_, readers_ are deliberately unannotated: they are
  // written only inside start() (before any thread that reads them exists)
  // and torn down only by the single winning stopper of stop() — the
  // stop_requested_ latch below serializes stoppers, so no mutex guards
  // these between start and that stopper.
  Socket listener_;
  int bound_port_ = 0;
  Thread accept_thread_;

  std::atomic<bool> running_{false};
  std::atomic<bool> accept_stop_{false};
  std::atomic<bool> reader_stop_{false};
  bool stop_requested_ PIMCOMP_GUARDED_BY(lifecycle_mutex_) = false;
  mutable Mutex lifecycle_mutex_;
  CondVar stopped_;

  std::vector<std::unique_ptr<Reader>> readers_;
  std::size_t next_reader_ = 0;  // accept-thread only: round-robin pinning

  // Every live connection, so stop() can shut them all down.
  std::vector<std::weak_ptr<Connection>> connections_
      PIMCOMP_GUARDED_BY(conn_mutex_);
  Mutex conn_mutex_;

  std::atomic<std::uint64_t> connections_accepted_{0};
};

}  // namespace pimcomp::serve

#endif  // PIMCOMP_SERVE_FRONTEND_HPP
