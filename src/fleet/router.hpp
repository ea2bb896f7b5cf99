#ifndef PIMCOMP_FLEET_ROUTER_HPP
#define PIMCOMP_FLEET_ROUTER_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/thread_annotations.hpp"
#include "serve/frontend.hpp"

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
/// Speaks the same newline-delimited JSON protocol as pimcompd on the same
/// serve::Frontend (reader pool, outbound queues, slow-client reaping,
/// request preamble), but holds no compiler state: every compile request
/// is forwarded to one backend daemon, on a thread of its own, and its
/// event/outcome/artifact/done frames are relayed back verbatim onto the
/// client's outbound queue (ids untouched, so the client cannot tell the
/// difference; the backend also answers a request declaring a foreign
/// protocol version, so that one-line error is relayed too).
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
/// deterministic and would just repeat. A client that goes away aborts
/// its forwards: the upstream connections close, so the backends cancel
/// the jobs. A health thread pings every backend on a fixed cadence so
/// dead backends are skipped before a client ever waits on them.
///
/// stop() drains: the listener closes, new compile requests are refused
/// with an error frame, in-flight forwards get `drain_timeout_seconds` to
/// finish, then every connection is cut, which aborts the stragglers'
/// forwards too.
class Router final : public serve::Frontend {
 public:
  explicit Router(RouterOptions options);
  ~Router() override;

  /// Binds the frontend, starts the health prober and the accept loop.
  void start();

  /// Graceful drain, then teardown. Idempotent.
  void stop();

  std::uint64_t requests_served() const { return requests_served_.load(); }

  /// The `stats` reply: {"role":"router","backends":[{endpoint, healthy,
  /// requests, retries, failures}, ...], ...}.
  Json stats_payload() const override;

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
  struct Relay;

  /// Spawns the forward of a compile request; refuses it while draining.
  bool handle(const std::string& type,
              const std::shared_ptr<serve::Connection>& connection,
              Json& json) override;
  /// Waits up to drain_timeout_seconds for in-flight forwards.
  void drain() override;
  void forward_compile(Relay& relay, Json json);
  /// One forwarding attempt. True when the request is over: the client got
  /// a terminal frame (done or error), or is gone. False when the backend
  /// went away mid-request and the caller should retry elsewhere.
  bool forward(Backend& backend, const std::string& line, Relay& relay);
  void health_loop();
  bool probe(const Backend& backend) const;

  const RouterOptions options_;
  std::vector<std::unique_ptr<Backend>> backends_;
  /// Shard fallback for requests whose fingerprint cannot be computed.
  std::atomic<std::uint64_t> rotation_{0};

  std::atomic<bool> stopping_{false};
  Thread health_thread_;

  Mutex mutex_;
  CondVar drained_;
  /// In-flight forwards. This — not open connections — is what stop()
  /// drains: an idle client holding a connection open must not stall
  /// teardown for the full grace period. Finished entries are joined and
  /// swept as new forwards start.
  std::vector<std::shared_ptr<Relay>> in_flight_ PIMCOMP_GUARDED_BY(mutex_);

  std::atomic<std::uint64_t> requests_served_{0};
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
