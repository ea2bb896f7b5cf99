#include "serve/frontend.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "serve/protocol.hpp"

namespace pimcomp::serve {

namespace {

/// Wakes the reader polling a self-pipe's read end. Best-effort: a full
/// pipe already guarantees a pending wakeup.
void wake(int pipe_write_fd) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(pipe_write_fd, &byte, 1);
}

}  // namespace

// ---------------------------------------------------------------------------
// Connection.
// ---------------------------------------------------------------------------

void Connection::enqueue_frame(const Json& frame, bool advisory) {
  std::string line;
  try {
    line = frame.dump(-1);
  } catch (const std::exception&) {
    // Serialization failure (allocation) of a mandatory frame: the stream
    // would be missing a frame the client waits on, so the connection is
    // declared broken rather than silently incomplete.
    if (!advisory) {
      broken_.store(true);
      channel_.shutdown_both();
    }
    return;
  }
  enqueue_line(std::move(line), advisory);
}

void Connection::enqueue_line(std::string line, bool advisory) {
  MutexLock lock(out_mutex_);
  if (broken_.load()) return;
  if (advisory && out_bytes_ > kAdvisoryBudget) {
    return;  // slow reader: drop progress, keep outcomes
  }
  if (out_bytes_ > kOutboundCap) {
    broken_.store(true);
    channel_.shutdown_both();
    return;
  }
  line.push_back('\n');
  out_bytes_ += line.size();
  outbound_.push_back(std::move(line));
  if (outbound_.size() > 1) return;  // the reader is already pumping
  // Nothing queued ahead: send what the socket takes right now, without
  // waiting for the reader. What it does not take, the reader pumps once
  // poll(2) reports writability, so it is woken to poll for POLLOUT (and
  // to reap a connection the send found broken). Woken under the lock:
  // disconnect() flips `broken_` under it too, so no wakeup reaches a
  // reader pool that stop() already tore down.
  last_progress_ = std::chrono::steady_clock::now();
  pump_locked();
  if (!outbound_.empty() || broken_.load()) wake(wake_fd_);
}

void Connection::own(std::weak_ptr<Cancellable> work) {
  {
    MutexLock lock(mutex_);
    if (!broken_.load()) {
      std::erase_if(owned_, [](const std::weak_ptr<Cancellable>& weak) {
        return weak.expired();
      });
      owned_.push_back(std::move(work));
      return;
    }
  }
  // disconnect() already ran (it sets `broken_` before taking `mutex_`).
  if (std::shared_ptr<Cancellable> live = work.lock()) live->cancel();
}

void Connection::disconnect() {
  {
    MutexLock lock(out_mutex_);
    broken_.store(true);
  }
  channel_.shutdown_both();
  std::vector<std::weak_ptr<Cancellable>> owned;
  {
    MutexLock lock(mutex_);
    owned.swap(owned_);
  }
  // cancel() outside the lock: a still-queued job may finalize (and enqueue
  // onto this connection) on another thread while we iterate.
  for (const std::weak_ptr<Cancellable>& weak : owned) {
    if (std::shared_ptr<Cancellable> work = weak.lock()) work->cancel();
  }
}

void Connection::pump_outbound() {
  MutexLock lock(out_mutex_);
  pump_locked();
}

void Connection::pump_locked() {
  while (!outbound_.empty()) {
    const std::string& front = outbound_.front();
    const ssize_t n =
        ::send(channel_.fd(), front.data() + offset_, front.size() - offset_,
               MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      offset_ += static_cast<std::size_t>(n);
      last_progress_ = std::chrono::steady_clock::now();
      if (offset_ == front.size()) {
        out_bytes_ -= front.size();
        outbound_.pop_front();
        offset_ = 0;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EPIPE / ECONNRESET / shutdown: the peer is gone.
    broken_.store(true);
    break;
  }
}

short Connection::poll_events() {
  MutexLock lock(out_mutex_);
  if (outbound_.empty()) return POLLIN;
  const bool stalled = std::chrono::steady_clock::now() - last_progress_ >
                       std::chrono::seconds(kSendStallSeconds);
  return stalled ? 0 : POLLIN | POLLOUT;
}

// ---------------------------------------------------------------------------
// Lifecycle.
// ---------------------------------------------------------------------------

/// One reader of the fixed pool: a thread multiplexing its pinned
/// connections via poll(2), woken through a self-pipe when the accept loop
/// hands it a new connection, a producer queues output, or stop() flips
/// the flag.
struct Frontend::Reader {
  Thread thread;
  Socket wake_read;  // the pipe's two ends
  Socket wake_write;

  Mutex mutex;
  std::vector<std::shared_ptr<Connection>> incoming PIMCOMP_GUARDED_BY(mutex);
};

Frontend::Frontend(std::string unix_path, std::string host, int port,
                   int readers, std::string auth_token)
    : unix_path_(std::move(unix_path)),
      host_(std::move(host)),
      port_(port),
      reader_count_(std::max(readers, 1)),
      auth_token_(std::move(auth_token)) {}

Frontend::~Frontend() = default;

void Frontend::start() {
  MutexLock lock(lifecycle_mutex_);
  if (running_) throw ServeError(endpoint() + " is already running");
  listener_ = unix_path_.empty() ? listen_tcp(host_, port_, &bound_port_)
                                 : listen_unix(unix_path_);
  accept_stop_ = false;
  reader_stop_ = false;
  stop_requested_ = false;

  // Every wakeup pipe exists before any reader thread does, so a failure
  // here has no thread to unwind.
  readers_.clear();
  next_reader_ = 0;
  for (int i = 0; i < reader_count_; ++i) {
    auto reader = std::make_unique<Reader>();
    int fds[2];
    if (::pipe2(fds, O_NONBLOCK) != 0) {
      readers_.clear();
      listener_.close();
      throw ServeError("pipe(reader wakeup) failed");
    }
    reader->wake_read = Socket(fds[0]);
    reader->wake_write = Socket(fds[1]);
    readers_.push_back(std::move(reader));
  }
  for (const std::unique_ptr<Reader>& reader : readers_) {
    Reader* raw = reader.get();
    reader->thread = Thread([this, raw] { reader_loop(*raw); });
  }

  running_ = true;
  accept_thread_ = Thread([this] { accept_loop(); });
}

void Frontend::stop() {
  {
    MutexLock lock(lifecycle_mutex_);
    if (!running_) return;
    if (stop_requested_) {
      // Another thread is tearing down; wait for it to finish.
      while (running_) stopped_.wait(lifecycle_mutex_);
      return;
    }
    stop_requested_ = true;
  }

  accept_stop_ = true;
  listener_.shutdown_both();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();

  drain();

  // Stop the reader pool, then cut every connection: pending client reads
  // see EOF, producers' enqueues become no-ops, and all the work the
  // connections own is cancelled.
  reader_stop_ = true;
  for (const std::unique_ptr<Reader>& reader : readers_) {
    wake(reader->wake_write.fd());
  }
  for (const std::unique_ptr<Reader>& reader : readers_) {
    if (reader->thread.joinable()) reader->thread.join();
  }
  std::vector<std::weak_ptr<Connection>> connections;
  {
    MutexLock lock(conn_mutex_);
    connections.swap(connections_);
  }
  for (const std::weak_ptr<Connection>& weak : connections) {
    if (std::shared_ptr<Connection> connection = weak.lock()) {
      connection->disconnect();
    }
  }
  readers_.clear();

  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());

  {
    MutexLock lock(lifecycle_mutex_);
    running_ = false;
  }
  stopped_.notify_all();
}

void Frontend::wait() {
  MutexLock lock(lifecycle_mutex_);
  while (running_) stopped_.wait(lifecycle_mutex_);
}

std::string Frontend::endpoint() const {
  if (!unix_path_.empty()) return "unix:" + unix_path_;
  return host_ + ":" + std::to_string(bound_port_);
}

// ---------------------------------------------------------------------------
// Accepting and reading.
// ---------------------------------------------------------------------------

void Frontend::accept_loop() {
  for (;;) {
    std::optional<Socket> socket;
    try {
      socket = accept_connection(listener_, &accept_stop_);
    } catch (const ServeError&) {
      break;  // listener torn down underneath us
    }
    if (!socket.has_value()) break;
    ++connections_accepted_;

    // Pin the connection to a reader round-robin; the reader owns both
    // socket directions from here on (inbound parsing, outbound pumping).
    Reader& reader = *readers_[next_reader_++ % readers_.size()];
    auto connection = std::make_shared<Connection>(std::move(*socket),
                                                   reader.wake_write.fd());
    {
      MutexLock lock(conn_mutex_);
      std::erase_if(connections_, [](const std::weak_ptr<Connection>& weak) {
        return weak.expired();
      });
      connections_.push_back(connection);
    }
    {
      MutexLock lock(reader.mutex);
      reader.incoming.push_back(std::move(connection));
    }
    wake(reader.wake_write.fd());
  }
}

void Frontend::reader_loop(Reader& reader) {
  std::vector<std::shared_ptr<Connection>> connections;
  std::vector<pollfd> fds;
  const auto drop = [](std::shared_ptr<Connection>& connection) {
    connection->disconnect();
    connection = nullptr;
  };
  while (!reader_stop_.load()) {
    {
      MutexLock lock(reader.mutex);
      for (std::shared_ptr<Connection>& incoming : reader.incoming) {
        connections.push_back(std::move(incoming));
      }
      reader.incoming.clear();
    }
    // Reap connections the pump (or an enqueue overflow) declared broken,
    // and those whose queued output stalled past the send timeout: cancel
    // their work, drop them.
    fds.clear();
    fds.push_back(pollfd{reader.wake_read.fd(), POLLIN, 0});
    for (std::shared_ptr<Connection>& connection : connections) {
      const short events = connection->poll_events();
      if (connection->broken() || events == 0) {
        drop(connection);
      } else {
        fds.push_back(pollfd{connection->channel_.fd(), events, 0});
      }
    }
    std::erase(connections, nullptr);
    // The timeout is a safety net: the broken/stall reaping above must not
    // wait on socket traffic forever.
    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 500);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // poll on our own fds failing is unrecoverable
    }
    if ((fds[0].revents & POLLIN) != 0) {
      char drain[64];
      while (::read(reader.wake_read.fd(), drain, sizeof(drain)) > 0) {
      }
    }
    for (std::size_t i = 1; i < fds.size(); ++i) {
      std::shared_ptr<Connection>& connection = connections[i - 1];
      if (fds[i].revents == 0) continue;
      if ((fds[i].revents & POLLOUT) != 0) connection->pump_outbound();
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) == 0) {
        continue;
      }
      try {
        if (!connection->channel_.fill_from_socket()) {
          drop(connection);  // clean EOF: the client hung up
          continue;
        }
        while (std::optional<std::string> line =
                   connection->channel_.take_line()) {
          if (!line->empty()) dispatch_line(connection, *line);
        }
      } catch (const std::exception&) {
        drop(connection);  // read error, oversized frame, or allocation
      }
    }
    std::erase(connections, nullptr);
  }
  // stop(): the registry walk shuts every connection down; nothing to do.
}

void Frontend::dispatch_line(const std::shared_ptr<Connection>& connection,
                             const std::string& line) {
  Json json;
  try {
    json = Json::parse(line);
  } catch (const JsonError& e) {
    // Line framing keeps the stream synchronized, so a malformed document
    // is a request-level error, not a connection killer.
    connection->enqueue_frame(
        to_json(ErrorMessage{0, std::string("bad json: ") + e.what()}));
    return;
  }
  try {
    const std::string type = json.get("type", std::string("compile"));
    if (!auth_token_.empty() &&
        !constant_time_equal(json.get("auth", std::string()), auth_token_)) {
      // One uniform rejection for every request type, after the
      // constant-time compare — neither the timing nor the message reveals
      // how close the presented token was.
      connection->enqueue_frame(to_json(ErrorMessage{
          reply_id(json), "unauthorized: missing or bad auth token"}));
    } else if (type == "ping") {
      connection->enqueue_frame(to_json(PongMessage{reply_id(json)}));
    } else if (type == "stats") {
      const StatsRequest request = stats_request_from_json(json);
      connection->enqueue_frame(
          to_json(StatsMessage{request.id, stats_payload()}));
    } else if (!handle(type, connection, json)) {
      connection->enqueue_frame(to_json(
          ErrorMessage{reply_id(json), "unknown request type '" + type + "'"}));
    }
  } catch (const std::exception& e) {
    // Nothing a request does may take the daemon down: an exception that
    // slipped through a handler's own error handling (a non-string `type`
    // included) becomes a request-level error. Replies never block or
    // throw — delivery problems surface through the broken flag.
    connection->enqueue_frame(to_json(ErrorMessage{reply_id(json), e.what()}));
  }
}

}  // namespace pimcomp::serve
