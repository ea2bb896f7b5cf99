#ifndef PIMCOMP_FLEET_ROUTER_HPP
#define PIMCOMP_FLEET_ROUTER_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/json.hpp"
#include "common/thread_annotations.hpp"
#include "serve/net.hpp"

namespace pimcomp::fleet {

/// Router configuration. Exactly one of `unix_path` / `port` selects the
/// frontend listener, mirroring ServerOptions.
struct RouterOptions {
  std::string unix_path;          ///< listen on a Unix socket when non-empty
  std::string host = "127.0.0.1"; ///< TCP bind address when port >= 0
  int port = -1;                  ///< TCP port (0 = ephemeral)

  /// Backend pimcompd endpoints ("unix:PATH" or "HOST:PORT"), in shard
  /// order. Must be non-empty.
  std::vector<std::string> backends;

  /// Fleet auth token. When non-empty it is (a) enforced on every inbound
  /// request with a constant-time compare and (b) stamped onto forwarded
  /// requests, so clients authenticate to the router and the router
  /// authenticates to the daemons with the one fleet-wide secret.
  std::string auth_token;

  /// Active ping cadence per backend. <= 0 disables the prober entirely:
  /// backends keep their last-known health (optimistically up at start)
  /// and are only marked down by forwarding failures.
  int health_interval_seconds = 2;
  int health_timeout_seconds = 2;   ///< per-probe connect/recv budget
  /// Per-read budget while streaming a forwarded compile. Generous: a
  /// backend legitimately goes quiet for the length of its longest mapping
  /// stage, and real death is detected by EOF/reset long before this.
  int backend_timeout_seconds = 600;
  int drain_timeout_seconds = 30;   ///< stop(): grace for in-flight requests
};

/// pimcomp_router — a thin front daemon for a pimcompd fleet.
///
/// Speaks the same newline-delimited JSON protocol as pimcompd on its
/// frontend socket, but holds no compiler state: every compile request is
/// forwarded to one backend daemon and its event/outcome/artifact/done
/// frames are relayed back verbatim (ids untouched, so the client cannot
/// tell the difference; the backend also answers a request declaring a
/// foreign protocol version, so that one-line error is relayed too).
///
/// Sharding is content-addressed: the request is resolved exactly like a
/// daemon would resolve it (serve::resolve_compile_request) and the
/// (graph, hardware) fingerprint picks `fingerprint % backends` — so
/// identical workloads always land on the same daemon and hit its warm
/// session and caches. Unresolvable requests fall back to rotation; the
/// chosen backend then produces the authoritative error.
///
/// Failure model: a backend that dies mid-request (EOF, reset, timeout) is
/// marked unhealthy and the request is retried on the next backend —
/// compile requests are idempotent and content-addressed, so a retry is
/// safe, and outcome/artifact frames already relayed are deduplicated by
/// scenario index so the client never sees a scenario twice. A backend
/// *error frame* is terminal (relayed, no retry): request-level errors are
/// deterministic and would just repeat. A health thread pings every
/// backend on a fixed cadence so dead backends are skipped before a
/// client ever waits on them.
///
/// stop() drains: the listener closes, new compile requests are refused
/// with an error frame, in-flight requests get `drain_timeout_seconds` to
/// finish, then every connection (idle ones immediately, stragglers after
/// the grace) is cut off.
class Router {
 public:
  explicit Router(RouterOptions options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds the frontend, starts the health prober and the accept loop.
  void start();

  /// Graceful drain, then teardown. Idempotent.
  void stop();

  /// "unix:PATH" or "host:port" (with the ephemeral port resolved).
  std::string endpoint() const;

  std::uint64_t requests_served() const { return requests_served_.load(); }
  std::uint64_t connections_accepted() const {
    return connections_accepted_.load();
  }

  /// The `stats` reply: {"role":"router","backends":[{endpoint, healthy,
  /// requests, retries, failures}, ...], ...}.
  Json stats_payload() const;

 private:
  struct Backend {
    explicit Backend(std::string endpoint_in)
        : endpoint(std::move(endpoint_in)) {}
    const std::string endpoint;
    std::atomic<bool> healthy{true};  ///< optimistic until a probe says no
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> failures{0};
  };

  /// What one forwarding attempt concluded about the request (not the
  /// backend): kRelayed means the client got a terminal frame (done or
  /// error) and the request is over; kBackendDied means the backend went
  /// away mid-request and the caller should retry elsewhere.
  enum class Forward { kRelayed, kBackendDied };

  void accept_loop();
  void serve_connection(std::shared_ptr<serve::LineChannel> channel);
  void dispatch_line(serve::LineChannel& client, const std::string& line);
  void handle_compile(serve::LineChannel& client, Json json);
  void forward_compile(serve::LineChannel& client, Json json);
  Forward forward(Backend& backend, const std::string& line,
                  serve::LineChannel& client,
                  std::unordered_set<int>& outcomes_relayed,
                  std::unordered_set<int>& artifacts_relayed);
  void health_loop();
  bool probe(Backend& backend);

  const RouterOptions options_;
  std::vector<std::unique_ptr<Backend>> backends_;
  /// Shard fallback for requests whose fingerprint cannot be computed.
  std::atomic<std::uint64_t> rotation_{0};

  serve::Socket listener_;
  int bound_port_ = -1;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  Thread accept_thread_;
  Thread health_thread_;

  mutable Mutex mutex_;
  CondVar drained_;
  std::vector<Thread> client_threads_ PIMCOMP_GUARDED_BY(mutex_);
  /// Live client channels, for cutting off stragglers after the drain
  /// grace. Weak: the serving thread owns the channel's lifetime.
  std::vector<std::weak_ptr<serve::LineChannel>> live_channels_
      PIMCOMP_GUARDED_BY(mutex_);
  std::size_t active_connections_ PIMCOMP_GUARDED_BY(mutex_) = 0;
  /// In-flight compile forwards. This — not open connections — is what
  /// stop() drains: an idle client holding a connection open must not
  /// stall teardown for the full grace period.
  std::size_t active_requests_ PIMCOMP_GUARDED_BY(mutex_) = 0;

  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
};

/// CLI frontend (the body of the pimcomp_router binary):
///
///   pimcomp_router (--unix PATH | --port N [--host ADDR])
///                  --backend ENDPOINT [--backend ENDPOINT]...
///                  [--auth-token TOKEN] [--health-interval SECONDS]
///
/// Prints "<program> listening on <endpoint>" once ready, then blocks until
/// SIGTERM/SIGINT and drains. Returns the process exit code.
int run_router(int argc, char** argv, const std::string& program);

}  // namespace pimcomp::fleet

#endif  // PIMCOMP_FLEET_ROUTER_HPP
