#ifndef PIMCOMP_SERVE_SERVER_HPP
#define PIMCOMP_SERVE_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/session.hpp"
#include "serve/frontend.hpp"
#include "serve/protocol.hpp"

namespace pimcomp {
class DiskStore;  // cache/disk_store.hpp
}  // namespace pimcomp

namespace pimcomp::serve {

/// Where and how `pimcompd` listens. Exactly one transport is active: a
/// non-empty `unix_path` selects a Unix-domain socket, otherwise `host:port`
/// TCP (port 0 picks an ephemeral port, readable back via
/// CompileServer::port()).
struct ServerOptions {
  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = 0;

  /// Resident worker threads per CompilerSession: how many of one session's
  /// jobs compile concurrently (CompilerSession::set_jobs; 0 = one per
  /// hardware thread).
  int jobs = 1;

  /// Reader threads multiplexing all connections via poll(2). Each
  /// connection is pinned to one reader; 2 is plenty, because readers only
  /// parse requests and submit jobs — compilation happens on the sessions'
  /// workers.
  int readers = kDefaultReaders;

  /// Bound on concurrently cached sessions (distinct (graph, hardware)
  /// identities). Oldest-created sessions are evicted first; in-flight
  /// requests keep evicted sessions alive until they finish.
  std::size_t max_sessions = 8;

  /// Persistent mapping-artifact cache shared by every session this daemon
  /// creates (`--cache-dir`). With a directory set, a restarted daemon
  /// serves previously compiled configurations from disk (`cache_hit`
  /// frames with source "disk") instead of re-running the GA; several
  /// daemons may point at one directory (writes are atomic renames). Its
  /// `peers` list (`--peer`, repeatable) additionally wires every session's
  /// remote tier *and* lets this daemon answer other daemons' cache_get /
  /// cache_put requests from its own disk tier.
  CacheConfig cache;

  /// Shared secret (`--auth-token`): when non-empty, every request frame
  /// must carry a matching "auth" key (compared constant-time) or it is
  /// rejected with an error frame. The same token is attached to this
  /// daemon's own outgoing peer requests, so one fleet shares one token.
  std::string auth_token;
};

/// Resolved identity of one compile request: the built graph, the resolved
/// hardware, and the (graph, hardware) fingerprint the request caches —
/// and, in a fleet, shards — under.
struct ResolvedRequest {
  Graph graph;
  HardwareConfig hardware;
  std::uint64_t fingerprint = 0;
};

/// The one definition of how a wire request maps to a compile identity:
/// builds the graph (zoo model or inline JSON), resolves the hardware
/// (request overrides on the PUMA default, with core-count auto-fit only
/// when the client pinned cores nowhere), and fingerprints the pair with
/// the session's own combinator. Shared by the daemon's session registry
/// and the router's sharding so the two can never disagree about which
/// backend owns a request. Throws on unknown models / bad hardware.
ResolvedRequest resolve_compile_request(const CompileRequest& request);

/// The compile-server daemon core: accepts connections, reads
/// newline-delimited JSON requests, and serves each through a shared
/// long-lived CompilerSession keyed by (graph fingerprint, hardware
/// fingerprint) — so two clients compiling the same model reuse one
/// another's partitioned workloads and mapping results, observed as
/// `cache_hit` events on the wire.
///
/// Concurrency model (PR 4): a small fixed reader pool multiplexes every
/// connection via poll(2); each wire scenario becomes a CompileJob on the
/// session's shared priority queue (CompilerSession::submit), its
/// completion callback streams the outcome frame, and per-job tags route
/// the merged observer event stream back to exactly the request that owns
/// each job. There is no thread per connection and no per-session FIFO
/// turn: requests from many clients interleave at job granularity on the
/// session's resident workers. A client that disconnects — or stops
/// reading past the send timeout — has its own jobs cancelled
/// (cooperatively, mid-GA included) without touching anyone else's.
class CompileServer final : public Frontend {
 public:
  explicit CompileServer(ServerOptions options);

  /// stop()s if still running.
  ~CompileServer() override;

  /// Graceful shutdown: Frontend::stop() (which cancels every connection's
  /// jobs), then cancels whatever is left, waits for the sessions' workers
  /// to go idle and drops the sessions. Idempotent.
  void stop();

  std::uint64_t requests_served() const { return requests_served_; }
  /// Jobs cancelled because their client disconnected or stopped reading.
  std::uint64_t jobs_cancelled() const { return jobs_cancelled_; }
  std::size_t session_count() const;

  /// The stats payload: daemon counters plus per-tier cache counters
  /// aggregated across every live and retired session.
  Json stats_payload() const override;

 private:
  struct RequestState;
  struct SessionEntry;

  /// Routes tagged observer events of one shared session back to the
  /// connection whose request owns each job. Installed as the session's
  /// observer once, at SessionEntry creation; events are best-effort
  /// (advisory frames past the outbound budget are dropped) so a slow
  /// reader can never stall the pipeline.
  class JobRouter final : public EventBridge {
   public:
    void add(std::uint64_t tag, std::weak_ptr<Connection> connection,
             std::int64_t request_id);
    void remove(std::uint64_t tag);

    void on_event(const PipelineEvent& event) override;

   private:
    struct Route {
      std::weak_ptr<Connection> connection;
      std::int64_t request_id = 0;
    };

    Mutex mutex_;
    std::unordered_map<std::uint64_t, Route> routes_
        PIMCOMP_GUARDED_BY(mutex_);
  };

  /// compile, and the fleet requests cache_get/cache_put.
  bool handle(const std::string& type,
              const std::shared_ptr<Connection>& connection,
              Json& json) override;
  void handle_compile(const std::shared_ptr<Connection>& connection,
                      const Json& json);

  /// Fleet requests (v5). cache_get/cache_put answer from this daemon's own
  /// disk tier ONLY — a daemon never forwards a lookup to its peers, which
  /// keeps fleet cache traffic one hop and loop-free by construction.
  void handle_cache_get(Connection& connection, const Json& json);
  /// Moves the artifact out of `json` into the disk tier.
  void handle_cache_put(Connection& connection, Json& json);

  /// Job-completion fan-in (runs on session workers): converts the outcome
  /// to a wire frame (simulating if requested) and streams every frame
  /// that is ready in enqueue order.
  void on_job_complete(const std::shared_ptr<RequestState>& request,
                       std::uint64_t tag, const ScenarioOutcome& outcome);
  void flush_outcomes(const std::shared_ptr<RequestState>& request);

  /// Returns the shared session for the resolved request, keyed by its
  /// fingerprint, creating (and possibly retiring) under the registry lock.
  /// `resolved.graph` is consumed on the create path only.
  std::shared_ptr<SessionEntry> resolve_session(ResolvedRequest&& resolved);
  /// Destroys retired sessions nobody references anymore. Keeps session
  /// destruction off the sessions' own workers.
  void prune_retired_locked() PIMCOMP_REQUIRES(session_mutex_);

  ServerOptions options_;
  /// Daemon-level disk store answering peer cache_get/cache_put requests
  /// (nullptr without --cache-dir: peers get found=false/stored=false).
  /// Separate from the sessions' own disk tiers only in object identity —
  /// it reads and writes the same directory.
  std::unique_ptr<DiskStore> peer_store_;

  // Session registry: fingerprint -> shared session, plus creation order
  // for FIFO eviction. Evicted entries move to retired_ until their last
  // outstanding job finishes (see prune_retired_locked).
  std::unordered_map<std::uint64_t, std::shared_ptr<SessionEntry>> sessions_
      PIMCOMP_GUARDED_BY(session_mutex_);
  std::deque<std::uint64_t> session_order_ PIMCOMP_GUARDED_BY(session_mutex_);
  std::vector<std::shared_ptr<SessionEntry>> retired_
      PIMCOMP_GUARDED_BY(session_mutex_);
  mutable Mutex session_mutex_;

  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> jobs_cancelled_{0};
};

// ---------------------------------------------------------------------------
// Serving frontends: pimcompd, `pimcomp_cli serve` and pimcomp_router share
// one flag grammar and one lifecycle.
// ---------------------------------------------------------------------------

/// Masks SIGINT/SIGTERM for the calling thread and every thread it starts
/// afterwards, so they can only be consumed by wait_for_shutdown_signal().
void block_shutdown_signals();
int wait_for_shutdown_signal();

/// The `--jobs` rule of every frontend (pimcompd, `pimcomp_cli serve`,
/// local batches): a worker count in [1, 1024] or the literal "auto"
/// (returned as 0 = one per hardware thread). Anything else, 0 included,
/// throws the parse_int_flag ConfigError plus a pointer at "auto".
int parse_jobs_flag(const std::string& value);

/// Yields the value of the flag being parsed.
using FlagValue = std::function<std::string()>;

/// The listen flags every serving frontend shares:
/// `--unix PATH | --port N [--host ADDR]` and `--auth-token TOKEN`.
struct ListenFlags {
  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = 0;
  std::string auth_token;
  bool endpoint_given = false;  ///< --unix or --port seen
};

/// Parses a serving frontend's argv (NOT including the program name): the
/// listen flags into `listen`, every other flag through `own_flag`, which
/// returns false for a flag it does not know. Returns 0 when the flags are
/// usable, else 2 after printing "<program>: <error>" (a bad value) or
/// "usage: <program> <synopsis>" (an unknown flag, a flag missing its
/// value, or neither --unix nor --port).
int parse_serve_flags(
    int argc, char** argv, const std::string& program,
    const std::string& synopsis, ListenFlags& listen,
    const std::function<bool(const std::string& flag, const FlagValue& value)>&
        own_flag);

/// The serving lifecycle of every daemon main: masks the shutdown signals
/// before any server thread exists, constructs and starts a `Server`,
/// prints "<program> listening on <endpoint>", blocks until SIGINT/SIGTERM,
/// announces "caught signal N, <stopping>", stops the server and prints its
/// served counters. Returns 0, or 1 with the error on stderr.
template <typename Server, typename Options>
int serve_until_signal(const std::string& program, Options options,
                       const char* stopping) {
  try {
    block_shutdown_signals();
    Server server(std::move(options));
    server.start();
    std::cout << program << " listening on " << server.endpoint()
              << std::endl;
    const int signal = wait_for_shutdown_signal();
    std::cout << program << ": caught signal " << signal << ", " << stopping
              << std::endl;
    server.stop();
    std::cout << program << ": served " << server.requests_served()
              << " request(s) over " << server.connections_accepted()
              << " connection(s)" << std::endl;
  } catch (const std::exception& e) {
    std::cerr << program << ": " << e.what() << '\n';
    return 1;
  }
  return 0;
}

/// The daemon frontend of `pimcompd` and `pimcomp_cli serve`: the listen
/// flags plus `[--jobs N|auto] [--readers N] [--max-sessions N]
/// [--cache-dir PATH] [--peer ENDPOINT]...` from argv (NOT including the
/// program/subcommand name), then serve_until_signal over a CompileServer.
/// Returns the process exit code (2 = bad usage).
int run_daemon(int argc, char** argv, const std::string& program);

}  // namespace pimcomp::serve

#endif  // PIMCOMP_SERVE_SERVER_HPP
