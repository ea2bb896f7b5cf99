#include "fleet/router.hpp"

#include <unistd.h>

#include <chrono>
#include <exception>
#include <iostream>
#include <optional>
#include <thread>
#include <utility>

#include "common/string_util.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace pimcomp::fleet {

Router::Router(RouterOptions options) : options_(std::move(options)) {
  if (options_.backends.empty()) {
    throw serve::ServeError("router needs at least one backend endpoint");
  }
  if (options_.unix_path.empty() && options_.port < 0) {
    throw serve::ServeError("router needs --unix or --port");
  }
  backends_.reserve(options_.backends.size());
  for (const std::string& endpoint : options_.backends) {
    backends_.push_back(std::make_unique<Backend>(endpoint));
  }
}

Router::~Router() { stop(); }

void Router::start() {
  listener_ = options_.unix_path.empty()
                  ? serve::listen_tcp(options_.host, options_.port,
                                      &bound_port_)
                  : serve::listen_unix(options_.unix_path);
  started_ = true;
  if (options_.health_interval_seconds > 0) {
    health_thread_ = Thread([this] { health_loop(); });
  }
  accept_thread_ = Thread([this] { accept_loop(); });
}

void Router::stop() {
  if (!started_) return;
  started_ = false;
  stopping_.store(true);
  listener_.shutdown_both();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (health_thread_.joinable()) health_thread_.join();

  // Drain: in-flight compile requests keep streaming for up to the grace
  // period — new ones are refused once `stopping_` is up — then every
  // connection is cut (idle clients immediately, stragglers forcibly),
  // which unwinds the serving threads through a ServeError.
  std::vector<Thread> client_threads;
  {
    MutexLock lock(mutex_);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::seconds(options_.drain_timeout_seconds);
    while (active_requests_ > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      drained_.wait_for(mutex_, std::chrono::milliseconds(100));
    }
    for (const std::weak_ptr<serve::LineChannel>& weak : live_channels_) {
      if (std::shared_ptr<serve::LineChannel> channel = weak.lock()) {
        channel->shutdown_both();
      }
    }
    live_channels_.clear();
    client_threads = std::move(client_threads_);
    client_threads_.clear();
  }
  for (Thread& thread : client_threads) {
    if (thread.joinable()) thread.join();
  }

  listener_.close();
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

std::string Router::endpoint() const {
  if (!options_.unix_path.empty()) return "unix:" + options_.unix_path;
  return options_.host + ":" + std::to_string(bound_port_);
}

// ---------------------------------------------------------------------------
// Frontend: accept + per-connection serving.
// ---------------------------------------------------------------------------

void Router::accept_loop() {
  while (true) {
    std::optional<serve::Socket> socket;
    try {
      socket = serve::accept_connection(listener_, &stopping_);
    } catch (const std::exception&) {
      break;  // listener torn down
    }
    if (!socket.has_value()) break;
    connections_accepted_.fetch_add(1);
    auto channel = std::make_shared<serve::LineChannel>(std::move(*socket));
    MutexLock lock(mutex_);
    if (stopping_.load()) break;  // raced with stop(): drop, don't spawn
    ++active_connections_;
    live_channels_.push_back(channel);
    // Thread-per-connection: the router holds no compiler state, so a
    // connection's cost is one mostly-blocked thread — exited threads are
    // reclaimed wholesale at stop(). Expired channel entries are swept
    // here so the vectors track connection churn, not history.
    live_channels_.erase(
        std::remove_if(live_channels_.begin(), live_channels_.end(),
                       [](const std::weak_ptr<serve::LineChannel>& weak) {
                         return weak.expired();
                       }),
        live_channels_.end());
    client_threads_.emplace_back(
        [this, channel] { serve_connection(channel); });
  }
}

void Router::serve_connection(std::shared_ptr<serve::LineChannel> channel) {
  try {
    while (std::optional<std::string> line = channel->read_line()) {
      if (line->empty()) continue;
      dispatch_line(*channel, *line);
    }
  } catch (const std::exception&) {
    // Client gone (or cut off by the drain): nothing left to tell it.
  }
  channel.reset();  // drop our ref before signalling the drain
  MutexLock lock(mutex_);
  --active_connections_;
  drained_.notify_all();
}

void Router::dispatch_line(serve::LineChannel& client,
                           const std::string& line) {
  Json json;
  try {
    json = Json::parse(line);
  } catch (const std::exception& e) {
    client.write_line(
        serve::to_json(serve::ErrorMessage{0, e.what()}).dump(-1));
    return;
  }
  const std::int64_t id = serve::reply_id(json);
  const std::string type = json.get("type", std::string("compile"));
  try {
    if (!options_.auth_token.empty() &&
        !serve::constant_time_equal(json.get("auth", std::string()),
                                    options_.auth_token)) {
      client.write_line(
          serve::to_json(serve::ErrorMessage{id,
                                             "unauthorized: missing or bad "
                                             "auth token"})
              .dump(-1));
      return;
    }
    if (type == "ping") {
      client.write_line(serve::to_json(serve::PongMessage{id}).dump(-1));
    } else if (type == "stats") {
      client.write_line(
          serve::to_json(serve::StatsMessage{id, stats_payload()}).dump(-1));
    } else if (type == "compile") {
      handle_compile(client, std::move(json));
    } else {
      // cache_get / cache_put included: the cache tier is daemon-to-daemon,
      // the router deliberately holds no artifacts to serve or accept.
      client.write_line(
          serve::to_json(serve::ErrorMessage{
                             id, "router does not serve '" + type + "'"})
              .dump(-1));
    }
  } catch (const serve::ServeError&) {
    throw;  // client-side write failure: let serve_connection close up
  } catch (const std::exception& e) {
    client.write_line(
        serve::to_json(serve::ErrorMessage{id, e.what()}).dump(-1));
  }
}

// ---------------------------------------------------------------------------
// Compile forwarding.
// ---------------------------------------------------------------------------

void Router::handle_compile(serve::LineChannel& client, Json json) {
  // Register with the drain before doing any work: stop() waits for
  // in-flight forwards (not connections), and refusing here — under the
  // same mutex the drain loop holds — closes the race where a compile
  // slips in after the drain decided there was nothing left to wait for.
  {
    MutexLock lock(mutex_);
    if (stopping_.load()) {
      lock.unlock();
      client.write_line(
          serve::to_json(serve::ErrorMessage{
                             serve::reply_id(json),
                             "router is draining; retry against another "
                             "instance"})
              .dump(-1));
      return;
    }
    ++active_requests_;
  }
  try {
    forward_compile(client, std::move(json));
  } catch (...) {
    MutexLock lock(mutex_);
    --active_requests_;
    drained_.notify_all();
    throw;
  }
  MutexLock lock(mutex_);
  --active_requests_;
  drained_.notify_all();
}

void Router::forward_compile(serve::LineChannel& client, Json json) {
  const std::int64_t id = serve::reply_id(json);

  // Content-addressed shard: resolve the request exactly as a daemon would
  // and key on the (graph, hardware) fingerprint, so identical workloads
  // always land on the same backend's warm session and caches. Requests
  // the router cannot resolve fall back to rotation — the backend then
  // produces the authoritative error (or resolves a request whose grammar
  // is newer than the router's).
  std::size_t primary = static_cast<std::size_t>(rotation_.fetch_add(1)) %
                        backends_.size();
  try {
    const serve::CompileRequest request = serve::request_from_json(json);
    primary = static_cast<std::size_t>(
        serve::resolve_compile_request(request).fingerprint %
        backends_.size());
  } catch (const std::exception&) {
  }

  // The fleet token replaces whatever the client presented (already
  // verified): daemons trust the router, not router clients.
  if (!options_.auth_token.empty()) {
    json["auth"] = Json(options_.auth_token);
  }
  const std::string line = json.dump(-1);

  // Attempt order: shard-preferred rotation, healthy backends first. The
  // unhealthy tail still gets a chance — with every backend marked down
  // (say, after a fleet-wide restart) refusing outright would turn a
  // transient probe gap into client-visible failure.
  std::vector<std::size_t> order;
  order.reserve(backends_.size());
  for (const bool want_healthy : {true, false}) {
    for (std::size_t k = 0; k < backends_.size(); ++k) {
      const std::size_t index = (primary + k) % backends_.size();
      if (backends_[index]->healthy.load() == want_healthy) {
        order.push_back(index);
      }
    }
  }

  std::unordered_set<int> outcomes_relayed;
  std::unordered_set<int> artifacts_relayed;
  bool first_attempt = true;
  for (const std::size_t index : order) {
    Backend& backend = *backends_[index];
    backend.requests.fetch_add(1);
    if (!first_attempt) backend.retries.fetch_add(1);
    first_attempt = false;
    if (forward(backend, line, client, outcomes_relayed,
                artifacts_relayed) == Forward::kRelayed) {
      requests_served_.fetch_add(1);
      return;
    }
    backend.failures.fetch_add(1);
    backend.healthy.store(false);
  }
  client.write_line(
      serve::to_json(serve::ErrorMessage{
                         id, "no backend completed the request (" +
                                 std::to_string(backends_.size()) +
                                 " tried)"})
          .dump(-1));
}

Router::Forward Router::forward(Backend& backend, const std::string& line,
                                serve::LineChannel& client,
                                std::unordered_set<int>& outcomes_relayed,
                                std::unordered_set<int>& artifacts_relayed) {
  bool writing_to_client = false;
  try {
    serve::Socket socket = serve::connect_endpoint(backend.endpoint);
    socket.set_recv_timeout(options_.backend_timeout_seconds);
    socket.set_send_timeout(options_.backend_timeout_seconds);
    serve::LineChannel upstream(std::move(socket));
    upstream.write_line(line);

    while (std::optional<std::string> reply = upstream.read_line()) {
      const Json frame = Json::parse(*reply);
      const std::string type = frame.get("type", std::string());
      // Retry bookkeeping: a scenario whose outcome was already relayed
      // from a backend that later died must not reach the client twice
      // when the retry recompiles it — nor re-announce its progress.
      if (type == "outcome") {
        if (!outcomes_relayed.insert(frame.get("index", -1)).second) {
          continue;
        }
      } else if (type == "artifact") {
        if (!artifacts_relayed.insert(frame.get("index", -1)).second) {
          continue;
        }
      } else if (type == "event" || type == "cache_hit") {
        if (outcomes_relayed.count(frame.get("index", -1)) != 0) continue;
      }
      writing_to_client = true;
      client.write_line(*reply);
      writing_to_client = false;
      // `done` ends the request; an `error` frame is a deterministic
      // request-level verdict — retrying it elsewhere would just repeat
      // the same failure against the same content-addressed request.
      if (type == "done" || type == "error") return Forward::kRelayed;
    }
    return Forward::kBackendDied;  // EOF before a terminal frame
  } catch (const std::exception&) {
    if (writing_to_client) throw;  // the *client* died: abort the request
    return Forward::kBackendDied;
  }
}

// ---------------------------------------------------------------------------
// Health probing + stats.
// ---------------------------------------------------------------------------

bool Router::probe(Backend& backend) {
  try {
    serve::Socket socket = serve::connect_endpoint(backend.endpoint);
    socket.set_recv_timeout(options_.health_timeout_seconds);
    socket.set_send_timeout(options_.health_timeout_seconds);
    serve::LineChannel channel(std::move(socket));
    serve::PingRequest ping;
    ping.id = 1;
    ping.auth = options_.auth_token;
    channel.write_line(serve::to_json(ping).dump(-1));
    while (std::optional<std::string> reply = channel.read_line()) {
      const Json frame = Json::parse(*reply);
      const std::string type = frame.get("type", std::string());
      if (type == "pong") return true;
      if (type == "error") return false;
    }
  } catch (const std::exception&) {
  }
  return false;
}

void Router::health_loop() {
  while (!stopping_.load()) {
    for (const std::unique_ptr<Backend>& backend : backends_) {
      if (stopping_.load()) return;
      backend->healthy.store(probe(*backend));
    }
    // Interruptible sleep: check the stop flag every 50ms so teardown
    // never waits out a full health interval.
    const auto wake = std::chrono::steady_clock::now() +
                      std::chrono::seconds(options_.health_interval_seconds);
    while (!stopping_.load() && std::chrono::steady_clock::now() < wake) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

Json Router::stats_payload() const {
  Json rows = Json::array();
  for (const std::unique_ptr<Backend>& backend : backends_) {
    Json row = Json::object();
    row["endpoint"] = Json(backend->endpoint);
    row["healthy"] = Json(backend->healthy.load());
    row["requests"] =
        Json(static_cast<std::int64_t>(backend->requests.load()));
    row["retries"] = Json(static_cast<std::int64_t>(backend->retries.load()));
    row["failures"] =
        Json(static_cast<std::int64_t>(backend->failures.load()));
    rows.push_back(std::move(row));
  }
  Json payload = Json::object();
  payload["role"] = Json(std::string("router"));
  payload["requests_served"] =
      Json(static_cast<std::int64_t>(requests_served_.load()));
  payload["connections"] =
      Json(static_cast<std::int64_t>(connections_accepted_.load()));
  payload["backends"] = std::move(rows);
  return payload;
}

// ---------------------------------------------------------------------------
// CLI frontend.
// ---------------------------------------------------------------------------

int run_router(int argc, char** argv, const std::string& program) {
  RouterOptions options;
  serve::ListenFlags listen;
  const std::string synopsis =
      "(--unix PATH | --port N [--host ADDR])\n"
      "       --backend ENDPOINT [--backend ENDPOINT]...\n"
      "       [--auth-token TOKEN] [--health-interval SECONDS]";
  const int status = serve::parse_serve_flags(
      argc, argv, program, synopsis, listen,
      [&options](const std::string& flag, const serve::FlagValue& value) {
        if (flag == "--backend") {
          options.backends.push_back(value());
        } else if (flag == "--health-interval") {
          options.health_interval_seconds =
              static_cast<int>(parse_int_flag(flag, value(), 1, 3600));
        } else {
          return false;
        }
        return true;
      });
  if (status != 0) return status;
  if (options.backends.empty()) {
    std::cerr << "usage: " << program << ' ' << synopsis << '\n';
    return 2;
  }
  options.unix_path = listen.unix_path;
  options.host = listen.host;
  options.port = listen.port;
  options.auth_token = listen.auth_token;
  return serve::serve_until_signal<Router>(program, std::move(options),
                                           "draining");
}

}  // namespace pimcomp::fleet
