#include "fleet/router.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <iostream>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/string_util.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace pimcomp::fleet {

/// One forwarded compile: its client, its thread, the upstream channel of
/// the current attempt, and what the attempts already relayed. The client
/// connection owns it, so a client that goes away shuts the upstream down:
/// the forward unblocks, and the backend sees its client leave and cancels
/// the jobs.
struct Router::Relay final : serve::Cancellable {
  Relay(std::shared_ptr<serve::Connection> client_in, std::int64_t id_in)
      : client(std::move(client_in)), id(id_in) {}

  void cancel() override {
    MutexLock lock(mutex);
    if (upstream != nullptr) upstream->shutdown_both();
  }

  const std::shared_ptr<serve::Connection> client;
  const std::int64_t id;  ///< the request's reply id
  Thread thread;
  std::atomic<bool> finished{false};  ///< flips under Router::mutex_

  Mutex mutex;
  std::shared_ptr<serve::LineChannel> upstream PIMCOMP_GUARDED_BY(mutex);

  // Retry bookkeeping (forward thread only): scenarios whose frames already
  // reached the client.
  std::unordered_set<int> outcomes_relayed;
  std::unordered_set<int> artifacts_relayed;
};

Router::Router(RouterOptions options)
    : Frontend(options.unix_path, options.host, options.port,
               serve::kDefaultReaders, options.auth_token),
      options_(std::move(options)) {
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
  stopping_ = false;
  Frontend::start();
  if (options_.health_interval_seconds > 0) {
    health_thread_ = Thread([this] { health_loop(); });
  }
}

void Router::stop() {
  // Stop accepting, drain(), then cut every connection, which aborts the
  // forwards still running.
  Frontend::stop();
  if (health_thread_.joinable()) health_thread_.join();
  std::vector<std::shared_ptr<Relay>> in_flight;
  {
    MutexLock lock(mutex_);
    in_flight.swap(in_flight_);
  }
  for (const std::shared_ptr<Relay>& relay : in_flight) relay->thread.join();
}

void Router::drain() {
  // In-flight forwards keep streaming for up to the grace period (the
  // readers still pump their frames); new ones are refused from here on,
  // under the same mutex handle() checks `stopping_` under.
  MutexLock lock(mutex_);
  stopping_ = true;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(options_.drain_timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline &&
         std::any_of(in_flight_.begin(), in_flight_.end(),
                     [](const std::shared_ptr<Relay>& relay) {
                       return !relay->finished.load();
                     })) {
    drained_.wait_for(mutex_, std::chrono::milliseconds(100));
  }
}

// ---------------------------------------------------------------------------
// Compile forwarding.
// ---------------------------------------------------------------------------

bool Router::handle(const std::string& type,
                    const std::shared_ptr<serve::Connection>& connection,
                    Json& json) {
  // cache_get / cache_put included: the cache tier is daemon-to-daemon,
  // the router deliberately holds no artifacts to serve or accept.
  if (type != "compile") return false;
  auto relay = std::make_shared<Relay>(connection, serve::reply_id(json));
  connection->own(relay);
  MutexLock lock(mutex_);
  if (stopping_.load()) {
    lock.unlock();
    connection->enqueue_frame(serve::to_json(serve::ErrorMessage{
        relay->id, "router is draining; retry against another instance"}));
    return true;
  }
  // Join and sweep the finished forwards, so the list tracks in-flight
  // requests rather than history.
  for (std::shared_ptr<Relay>& other : in_flight_) {
    if (other->finished.load()) {
      other->thread.join();
      other = nullptr;
    }
  }
  std::erase(in_flight_, nullptr);
  in_flight_.reserve(in_flight_.size() + 1);  // no throw once it runs
  // The thread cannot flip `finished` before it is stored: that takes
  // mutex_, held here. Its own reference is never the last one: entries
  // leave in_flight_ only once joined.
  relay->thread = Thread([this, relay, json = std::move(json)]() mutable {
    try {
      forward_compile(*relay, std::move(json));
    } catch (const std::exception& e) {
      // Escaping the thread would end the process; it ends the request.
      relay->client->enqueue_frame(
          serve::to_json(serve::ErrorMessage{relay->id, e.what()}));
    }
    relay->cancel();  // hang up on the last backend now, not at the sweep
    MutexLock done(mutex_);
    relay->finished = true;
    drained_.notify_all();
  });
  in_flight_.push_back(std::move(relay));
  return true;
}

void Router::forward_compile(Relay& relay, Json json) {
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

  bool first_attempt = true;
  for (const std::size_t index : order) {
    Backend& backend = *backends_[index];
    backend.requests.fetch_add(1);
    if (!first_attempt) backend.retries.fetch_add(1);
    first_attempt = false;
    if (forward(backend, line, relay)) return;
    backend.failures.fetch_add(1);
    backend.healthy.store(false);
  }
  relay.client->enqueue_frame(serve::to_json(serve::ErrorMessage{
      relay.id, "no backend completed the request (" +
                    std::to_string(backends_.size()) + " tried)"}));
}

bool Router::forward(Backend& backend, const std::string& line,
                     Relay& relay) {
  try {
    serve::Socket socket = serve::connect_endpoint(backend.endpoint);
    socket.set_recv_timeout(options_.backend_timeout_seconds);
    socket.set_send_timeout(options_.backend_timeout_seconds);
    auto upstream = std::make_shared<serve::LineChannel>(std::move(socket));
    {
      MutexLock lock(relay.mutex);
      relay.upstream = upstream;
    }
    // A disconnect sets `broken` before it cancels: either its cancel shuts
    // this upstream down, or it is seen here.
    if (relay.client->broken()) return true;
    upstream->write_line(line);

    while (std::optional<std::string> reply = upstream->read_line()) {
      const Json frame = Json::parse(*reply);
      const std::string type = frame.get("type", std::string());
      // Retry bookkeeping: a scenario whose outcome was already relayed
      // from a backend that later died must not reach the client twice
      // when the retry recompiles it — nor re-announce its progress.
      const int index = frame.get("index", -1);
      if ((type == "outcome" && !relay.outcomes_relayed.insert(index).second) ||
          (type == "artifact" &&
           !relay.artifacts_relayed.insert(index).second) ||
          (type == "event" && relay.outcomes_relayed.count(index) != 0)) {
        continue;
      }
      if (relay.client->broken()) return true;
      // `done` ends the request; an `error` frame is a deterministic
      // request-level verdict — retrying it elsewhere would just repeat
      // the same failure against the same content-addressed request. The
      // counter ticks before the enqueue, as on the daemon.
      const bool terminal = type == "done" || type == "error";
      if (terminal) requests_served_.fetch_add(1);
      relay.client->enqueue_line(std::move(*reply),
                                 /*advisory=*/type == "event");
      if (terminal) return true;
    }
  } catch (const std::exception&) {
  }
  // EOF, error or timeout before a terminal frame — or the client went
  // away and its disconnect shut the upstream down.
  return relay.client->broken();
}

// ---------------------------------------------------------------------------
// Health probing + stats.
// ---------------------------------------------------------------------------

bool Router::probe(const Backend& backend) const {
  try {
    serve::CompileClient client =
        serve::CompileClient::connect(backend.endpoint);
    client.set_timeout(options_.health_timeout_seconds);
    client.set_auth_token(options_.auth_token);
    return client.ping();
  } catch (const std::exception&) {
    return false;
  }
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
      Json(static_cast<std::int64_t>(connections_accepted()));
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
