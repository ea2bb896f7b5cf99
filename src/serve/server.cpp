#include "serve/server.hpp"

#include <csignal>

#include <algorithm>
#include <chrono>
#include <exception>
#include <iostream>
#include <map>
#include <optional>
#include <utility>

#include "backend/instruction_stream.hpp"
#include "cache/disk_store.hpp"
#include "common/string_util.hpp"
#include "core/compile_report.hpp"
#include "core/compiler.hpp"
#include "core/trace.hpp"
#include "graph/serialize.hpp"
#include "graph/zoo/zoo.hpp"

namespace pimcomp::serve {

// ---------------------------------------------------------------------------
// Per-request / per-session state.
// ---------------------------------------------------------------------------

/// One in-flight compile request: N jobs fanning into an in-order outcome
/// stream. Outcome frames are emitted strictly in scenario-enqueue order
/// (a finished-early job parks in `ready` until its turn), so the wire
/// contract — events*, outcomes in index order, done — survives the
/// job-granular concurrency underneath. Its connection cancels it on
/// disconnect.
struct CompileServer::RequestState final : Cancellable {
  explicit RequestState(CompileServer& server_in) : server(server_in) {}

  /// Cancels the still-outstanding jobs (counted in jobs_cancelled_).
  void cancel() override {
    std::vector<CompileJob> snapshot;
    {
      MutexLock lock(mutex);
      snapshot = jobs;
    }
    // cancel() outside the request lock: a still-queued job may finalize
    // (and re-enter this request's bookkeeping via its completion
    // callback) on another thread while we iterate.
    for (const CompileJob& job : snapshot) {
      if (job.cancel()) ++server.jobs_cancelled_;
    }
  }

  CompileServer& server;
  std::shared_ptr<Connection> connection;
  std::shared_ptr<SessionEntry> entry;  ///< keeps the session alive
  std::int64_t id = 0;
  bool simulate = true;
  std::size_t total = 0;

  Mutex mutex;
  std::vector<CompileJob> jobs PIMCOMP_GUARDED_BY(mutex);
  /// finished, awaiting turn
  std::map<std::size_t, OutcomeMessage> ready PIMCOMP_GUARDED_BY(mutex);
  /// Lowered instruction streams keyed like `ready`; emitted immediately
  /// after their scenario's outcome frame so the wire contract stays
  /// "events*, (outcome artifact?)* in index order, done".
  std::map<std::size_t, Json> ready_artifacts PIMCOMP_GUARDED_BY(mutex);
  std::size_t next_emit PIMCOMP_GUARDED_BY(mutex) = 0;
  std::size_t completed PIMCOMP_GUARDED_BY(mutex) = 0;
  int ok_count PIMCOMP_GUARDED_BY(mutex) = 0;
  int error_count PIMCOMP_GUARDED_BY(mutex) = 0;
  int artifact_count PIMCOMP_GUARDED_BY(mutex) = 0;
  bool done_handled PIMCOMP_GUARDED_BY(mutex) = false;

  /// Serializes the pop-and-enqueue sequence so two workers finishing jobs
  /// back-to-back cannot interleave their in-order frame runs. Never held
  /// together with `mutex` across an enqueue (`mutex` must stay cheap for
  /// cancellation paths).
  Mutex emit_mutex;
};

/// One shared CompilerSession plus the event router that attributes its
/// merged observer stream. `next_tag` mints the session-unique job tags.
struct CompileServer::SessionEntry {
  SessionEntry(Graph graph, HardwareConfig hw, CacheConfig cache)
      : session(std::move(graph), hw, std::move(cache)) {
    session.set_observer(&router);
  }

  CompilerSession session;
  JobRouter router;
  std::atomic<std::uint64_t> next_tag{1};
};

// ---------------------------------------------------------------------------
// JobRouter.
// ---------------------------------------------------------------------------

void CompileServer::JobRouter::add(std::uint64_t tag,
                                   std::weak_ptr<Connection> connection,
                                   std::int64_t request_id) {
  MutexLock lock(mutex_);
  routes_[tag] = Route{std::move(connection), request_id};
}

void CompileServer::JobRouter::remove(std::uint64_t tag) {
  MutexLock lock(mutex_);
  routes_.erase(tag);
}

void CompileServer::JobRouter::on_event(const PipelineEvent& event) {
  if (event.tag == 0) return;  // not one of our jobs (direct session use)
  std::shared_ptr<Connection> connection;
  std::int64_t request_id = 0;
  {
    MutexLock lock(mutex_);
    const auto it = routes_.find(event.tag);
    if (it == routes_.end()) return;  // request already finished/unroutable
    connection = it->second.connection.lock();
    request_id = it->second.request_id;
  }
  if (connection == nullptr || connection->broken()) return;
  // Progress events are advisory: a slow reader loses events (the outbound
  // queue drops them past its advisory budget), never outcomes — and this
  // enqueue never blocks the pipeline that is calling us.
  connection->enqueue_frame(to_json(EventMessage{request_id, event}),
                            /*advisory=*/true);
}

// ---------------------------------------------------------------------------
// Lifecycle.
// ---------------------------------------------------------------------------

CompileServer::CompileServer(ServerOptions options)
    : Frontend(options.unix_path, options.host, options.port, options.readers,
               options.auth_token),
      options_(std::move(options)) {
  options_.max_sessions = std::max<std::size_t>(options_.max_sessions, 1);
  if (options_.cache.enabled()) {
    // The store peers read from (cache_get) and push into (cache_put).
    // Constructing it is free — DiskStore touches the filesystem lazily.
    peer_store_ = std::make_unique<DiskStore>(options_.cache);
  }
}

CompileServer::~CompileServer() { stop(); }

void CompileServer::stop() {
  Frontend::stop();

  // Drain the sessions while the registry still holds them: cancelled jobs
  // finalize quickly, their completion callbacks run (enqueues onto the
  // cut connections are no-ops), and — because the pool destroys each task
  // closure before counting it done — no worker still holds a RequestState
  // (and through it a SessionEntry) once wait_jobs_idle() returns. Only
  // then is it safe to drop the registry references and destroy sessions
  // on this thread.
  std::vector<std::shared_ptr<SessionEntry>> entries;
  {
    MutexLock lock(session_mutex_);
    for (const auto& [key, entry] : sessions_) entries.push_back(entry);
    for (const std::shared_ptr<SessionEntry>& entry : retired_) {
      entries.push_back(entry);
    }
  }
  for (const std::shared_ptr<SessionEntry>& entry : entries) {
    entry->session.cancel_all_jobs();
  }
  for (const std::shared_ptr<SessionEntry>& entry : entries) {
    entry->session.wait_jobs_idle();
  }
  {
    MutexLock lock(session_mutex_);
    sessions_.clear();
    session_order_.clear();
    retired_.clear();
  }
}

std::size_t CompileServer::session_count() const {
  MutexLock lock(session_mutex_);
  return sessions_.size();
}

bool CompileServer::handle(const std::string& type,
                           const std::shared_ptr<Connection>& connection,
                           Json& json) {
  if (type == "compile") {
    handle_compile(connection, json);
  } else if (type == "cache_get") {
    handle_cache_get(*connection, json);
  } else if (type == "cache_put") {
    handle_cache_put(*connection, json);
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Compile requests.
// ---------------------------------------------------------------------------

ResolvedRequest resolve_compile_request(const CompileRequest& request) {
  ResolvedRequest resolved;
  resolved.graph = request.graph.has_value()
                       ? graph_from_json(*request.graph)
                       : zoo::build(request.model, request.input_size);

  resolved.hardware = request.hardware.has_value()
                          ? hardware_from_json(*request.hardware)
                          : HardwareConfig::puma_default();
  if (request.cores > 0) {
    resolved.hardware.core_count = request.cores;
  } else if (!request.hardware.has_value() ||
             !request.hardware->contains("core_count")) {
    // Auto-fit only when the client pinned the core count nowhere — a
    // request-level hardware override of core_count is as explicit as
    // `cores` and must not be silently re-fitted away.
    resolved.hardware = fit_core_count(resolved.graph, resolved.hardware, 3.0);
  }
  resolved.hardware.validate();

  if (!resolved.graph.finalized()) resolved.graph.finalize();
  resolved.fingerprint = combine_fingerprints(fingerprint(resolved.graph),
                                              fingerprint(resolved.hardware));
  return resolved;
}

void CompileServer::handle_compile(
    const std::shared_ptr<Connection>& connection, const Json& json) {
  std::int64_t id = reply_id(json);

  // Phase 1 — resolve the request to a session and a scenario batch. Every
  // failure here (malformed request, unknown model, bad hardware) is a
  // request-level error: reported, and the connection lives on.
  struct Prepared {
    std::shared_ptr<SessionEntry> entry;
    std::vector<Scenario> batch;
    bool simulate = true;
    int priority = 0;
    std::chrono::steady_clock::time_point deadline{};
  };
  Prepared prepared;
  try {
    const CompileRequest request = request_from_json(json);
    id = request.id;

    ResolvedRequest resolved = resolve_compile_request(request);

    for (const ScenarioSpec& spec : request.scenarios) {
      Scenario scenario{spec.label, spec.options, std::nullopt};
      if (spec.hardware.has_value()) {
        scenario.hardware =
            hardware_from_json(*spec.hardware, resolved.hardware);
        scenario.hardware->validate();
      }
      prepared.batch.push_back(std::move(scenario));
    }
    prepared.simulate = request.simulate;
    prepared.priority = request.priority;
    if (request.deadline_ms > 0) {
      // Anchored at parse time: queueing delay counts against the budget,
      // which is the point — a deadline bounds how stale a reply may be.
      prepared.deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(request.deadline_ms);
    }
    prepared.entry =
        resolve_session(std::move(resolved.graph), resolved.hardware);
  } catch (const std::exception& e) {
    connection->enqueue_frame(to_json(ErrorMessage{id, e.what()}));
    return;
  }

  // Phase 2 — every scenario becomes one CompileJob on the shared session.
  // The per-job tag routes streamed observer events to this request; the
  // completion callback (on the session's workers) streams the outcome
  // frames in enqueue order and, after the last one, the done frame. The
  // reader returns to its poll loop immediately: requests from any number
  // of clients interleave at job granularity.
  auto request_state = std::make_shared<RequestState>(*this);
  request_state->connection = connection;
  request_state->entry = prepared.entry;
  request_state->id = id;
  request_state->simulate = prepared.simulate;
  request_state->total = prepared.batch.size();

  for (std::size_t i = 0; i < prepared.batch.size(); ++i) {
    const std::uint64_t tag = prepared.entry->next_tag.fetch_add(1);
    // Route before submit: the first observer event may fire before
    // submit() even returns.
    prepared.entry->router.add(tag, connection, id);

    JobOptions job_options;
    job_options.index = static_cast<int>(i);
    job_options.tag = tag;
    job_options.priority = prepared.priority;
    job_options.deadline = prepared.deadline;
    job_options.on_complete =
        [this, request_state, tag](const ScenarioOutcome& outcome) {
          on_job_complete(request_state, tag, outcome);
        };
    CompileJob job = prepared.entry->session.submit(
        std::move(prepared.batch[i]), std::move(job_options));
    MutexLock lock(request_state->mutex);
    request_state->jobs.push_back(std::move(job));
  }

  // Owned once every job exists: a client that died mid-submission has
  // the whole batch cancelled right here.
  connection->own(request_state);
}

void CompileServer::on_job_complete(
    const std::shared_ptr<RequestState>& request, std::uint64_t tag,
    const ScenarioOutcome& outcome) {
  request->entry->router.remove(tag);

  OutcomeMessage message;
  message.id = request->id;
  message.label = outcome.label;
  message.index = outcome.index;
  std::optional<Json> artifact;
  // This runs on a session pool worker, where an escaping exception would
  // terminate the whole daemon (ThreadPool's documented task contract) —
  // so serialization failures of any type degrade to an error outcome.
  try {
    if (outcome.ok()) {
      message.ok = true;
      message.compile = compile_result_to_json(*outcome.result);
      if (outcome.result->stream != nullptr) {
        artifact = outcome.result->stream->to_json();
      }
      // Simulation is skipped for a broken connection: nobody will receive
      // the frame, and the cycles belong to live clients.
      if (request->simulate && !request->connection->broken()) {
        try {
          message.simulation = sim_report_to_json(
              request->entry->session.simulate(*outcome.result));
        } catch (const std::exception& e) {
          message.ok = false;
          message.compile = Json();
          message.error = std::string("simulation failed: ") + e.what();
          message.error_kind = to_string(error_kind_of(e));
        }
      }
    } else {
      message.error = outcome.error;
      message.error_kind = to_string(outcome.error_kind);
    }
  } catch (const std::exception& e) {
    message.ok = false;
    message.compile = Json();
    message.simulation = Json();
    message.error = std::string("failed to serialize result: ") + e.what();
    message.error_kind = to_string(ErrorKind::kInternal);
  }

  {
    MutexLock lock(request->mutex);
    (message.ok ? request->ok_count : request->error_count) += 1;
    if (message.ok && artifact.has_value()) {
      // An artifact never accompanies an error outcome (a late simulation
      // failure downgrades the scenario after lowering succeeded).
      request->ready_artifacts.emplace(static_cast<std::size_t>(outcome.index),
                                       std::move(*artifact));
    }
    request->ready.emplace(static_cast<std::size_t>(outcome.index),
                           std::move(message));
    ++request->completed;
  }
  flush_outcomes(request);
}

void CompileServer::flush_outcomes(
    const std::shared_ptr<RequestState>& request) {
  MutexLock emit_lock(request->emit_mutex);
  for (;;) {
    std::optional<OutcomeMessage> message;
    std::optional<Json> artifact;
    bool emit_done = false;
    int ok_count = 0;
    int error_count = 0;
    int artifact_count = 0;
    {
      MutexLock lock(request->mutex);
      const auto it = request->ready.find(request->next_emit);
      if (it != request->ready.end()) {
        message = std::move(it->second);
        request->ready.erase(it);
        const auto art = request->ready_artifacts.find(request->next_emit);
        if (art != request->ready_artifacts.end()) {
          artifact = std::move(art->second);
          request->ready_artifacts.erase(art);
          ++request->artifact_count;
        }
        ++request->next_emit;
      } else if (request->completed == request->total &&
                 request->next_emit == request->total &&
                 !request->done_handled) {
        request->done_handled = true;
        emit_done = true;
        ok_count = request->ok_count;
        error_count = request->error_count;
        artifact_count = request->artifact_count;
      } else {
        return;  // the next frame in order is still compiling
      }
    }

    // This runs on a pool worker, but enqueue_frame never blocks and never
    // throws: the frames land on the connection's outbound queue and go
    // out with non-blocking sends — delivery failures surface through the
    // broken flag (the reader then cancels the request's remaining jobs).
    Connection& connection = *request->connection;
    if (message.has_value()) {
      if (!connection.broken()) {
        const std::string label = message->label;
        const int index = message->index;
        connection.enqueue_frame(to_json(*message));
        if (artifact.has_value()) {
          connection.enqueue_frame(to_json(ArtifactMessage{
              request->id, label, index, std::move(*artifact)}));
        }
      }
      continue;  // keep draining frames that are already in order
    }
    if (!emit_done) return;

    // Terminal done frame: the request is fully answered. A broken
    // connection's request drained (its cancelled jobs completed) but was
    // never answered, so it does not count as served. The counter ticks
    // before the enqueue — a client acting on the done frame must never
    // observe a server that hasn't counted its request yet.
    if (!connection.broken()) {
      ++requests_served_;
      connection.enqueue_frame(to_json(
          DoneMessage{request->id, ok_count, error_count, artifact_count}));
    }
    return;
  }
}

// ---------------------------------------------------------------------------
// Peer cache requests and stats.
// ---------------------------------------------------------------------------

void CompileServer::handle_cache_get(Connection& connection,
                                     const Json& json) {
  const CacheGetRequest request = cache_get_request_from_json(json);
  CacheResultMessage reply;
  reply.id = request.id;
  reply.key = request.key;
  // Peer lookups are answered from the local disk tier only — never from
  // this daemon's own RemoteStore — so a fleet of mutually peered daemons
  // resolves every miss in exactly one hop, with no forwarding loops.
  if (peer_store_ != nullptr) {
    if (std::optional<CacheHit> hit = peer_store_->load(request.key)) {
      reply.found = true;
      reply.artifact = std::move(hit->entry.artifact);
    }
  }
  connection.enqueue_frame(to_json(std::move(reply)));
}

void CompileServer::handle_cache_put(Connection& connection, Json& json) {
  CachePutRequest request = cache_put_request_from_json(std::move(json));
  CacheResultMessage reply;
  reply.id = request.id;
  reply.key = request.key;
  if (peer_store_ != nullptr) {
    CacheEntry entry;
    entry.artifact = std::move(request.artifact);
    // DiskStore stamps the schema/key envelope itself and applies the same
    // first-writer-wins rule as a local store; `stored` is false when the
    // key already existed or the artifact was refused.
    reply.stored = peer_store_->store(request.key, entry);
  }
  connection.enqueue_frame(to_json(reply));
}

Json CompileServer::stats_payload() const {
  // Snapshot the session entries under the lock, then read their counters
  // outside it: mapping_tier_stats() takes per-store mutexes of its own and
  // must not nest under session_mutex_.
  std::vector<std::shared_ptr<SessionEntry>> entries;
  std::size_t live_sessions = 0;
  {
    MutexLock lock(session_mutex_);
    live_sessions = sessions_.size();
    entries.reserve(sessions_.size() + retired_.size());
    for (const auto& item : sessions_) entries.push_back(item.second);
    for (const auto& entry : retired_) entries.push_back(entry);
  }

  // Rows in the sessions' tier order; hit/miss/store counters sum across
  // every session (retired sessions' hits happened and still count).
  std::vector<std::pair<const char*, CacheStoreStats>> totals;
  for (const char* tier :
       CompilerSession::mapping_tier_names(options_.cache)) {
    totals.emplace_back(tier, CacheStoreStats{});
  }
  for (const std::shared_ptr<SessionEntry>& entry : entries) {
    const auto tiers = entry->session.mapping_tier_stats();
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      const CacheStoreStats& stats = tiers[i].second;
      CacheStoreStats& total = totals[i].second;
      total.entries += stats.entries;
      total.bytes += stats.bytes;
      total.hits += stats.hits;
      total.misses += stats.misses;
      total.stores += stats.stores;
      total.evictions += stats.evictions;
    }
  }
  if (peer_store_ != nullptr) {
    // Every session's disk tier shares one directory, and their rows skip
    // the walk: one walk here counts each artifact once. The disk row is
    // the one after memory.
    const CacheStoreStats disk = peer_store_->stats();
    totals[1].second.entries = disk.entries;
    totals[1].second.bytes = disk.bytes;
  }

  Json tiers = Json::array();
  for (const auto& [tier, stats] : totals) {
    Json row = Json::object();
    row["tier"] = Json(std::string(tier));
    row["entries"] = Json(static_cast<std::int64_t>(stats.entries));
    row["bytes"] = Json(static_cast<std::int64_t>(stats.bytes));
    row["hits"] = Json(static_cast<std::int64_t>(stats.hits));
    row["misses"] = Json(static_cast<std::int64_t>(stats.misses));
    row["stores"] = Json(static_cast<std::int64_t>(stats.stores));
    row["evictions"] = Json(static_cast<std::int64_t>(stats.evictions));
    tiers.push_back(std::move(row));
  }

  Json payload = Json::object();
  payload["role"] = Json(std::string("daemon"));
  payload["requests_served"] =
      Json(static_cast<std::int64_t>(requests_served_.load()));
  payload["connections"] =
      Json(static_cast<std::int64_t>(connections_accepted()));
  payload["jobs_cancelled"] =
      Json(static_cast<std::int64_t>(jobs_cancelled_.load()));
  payload["sessions"] = Json(static_cast<std::int64_t>(live_sessions));
  payload["cache"] = std::move(tiers);
  return payload;
}

// ---------------------------------------------------------------------------
// Session registry.
// ---------------------------------------------------------------------------

std::shared_ptr<CompileServer::SessionEntry> CompileServer::resolve_session(
    Graph&& graph, const HardwareConfig& hw) {
  if (!graph.finalized()) graph.finalize();
  const std::uint64_t key =
      combine_fingerprints(fingerprint(graph), fingerprint(hw));

  MutexLock lock(session_mutex_);
  prune_retired_locked();
  const auto it = sessions_.find(key);
  if (it != sessions_.end()) return it->second;

  auto entry =
      std::make_shared<SessionEntry>(std::move(graph), hw, options_.cache);
  entry->session.set_jobs(options_.jobs);
  sessions_.emplace(key, entry);
  session_order_.push_back(key);
  // FIFO eviction keeps a daemon sweeping many models bounded. Evicted
  // entries are parked in retired_ (not dropped): in-flight jobs still
  // reference them through their RequestStates, and the registry must keep
  // the last reference so a session is never destroyed — never joins its
  // own workers — from one of its own worker threads.
  while (sessions_.size() > options_.max_sessions) {
    const auto evicted = sessions_.find(session_order_.front());
    if (evicted != sessions_.end()) {
      retired_.push_back(evicted->second);
      sessions_.erase(evicted);
    }
    session_order_.pop_front();
  }
  return entry;
}

void CompileServer::prune_retired_locked() {
  retired_.erase(
      std::remove_if(retired_.begin(), retired_.end(),
                     [](const std::shared_ptr<SessionEntry>& entry) {
                       // use_count == 1: only the registry holds it — no
                       // job closure, request, or handler can resurrect
                       // it, so destroying here (a server thread) is safe.
                       return entry.use_count() == 1;
                     }),
      retired_.end());
}

// ---------------------------------------------------------------------------
// Daemon frontend.
// ---------------------------------------------------------------------------

void block_shutdown_signals() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
}

int wait_for_shutdown_signal() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  int signal = 0;
  while (sigwait(&set, &signal) != 0) {
  }
  return signal;
}

int parse_jobs_flag(const std::string& value) {
  if (value == "auto") return 0;  // CompilerSession::set_jobs: 0 = hw threads
  try {
    return static_cast<int>(parse_int_flag("--jobs", value, 1, 1 << 10));
  } catch (const ConfigError& e) {
    throw ConfigError(std::string(e.what()) +
                      "; use '--jobs auto' for one worker per hardware "
                      "thread");
  }
}

namespace {

/// Thrown by a FlagValue when its flag is the last argument.
struct MissingFlagValue {};

}  // namespace

int parse_serve_flags(
    int argc, char** argv, const std::string& program,
    const std::string& synopsis, ListenFlags& listen,
    const std::function<bool(const std::string& flag, const FlagValue& value)>&
        own_flag) {
  const auto usage = [&] {
    std::cerr << "usage: " << program << ' ' << synopsis << '\n';
    return 2;
  };
  try {
    for (int i = 0; i < argc; ++i) {
      const std::string arg = argv[i];
      const FlagValue value = [&]() -> std::string {
        if (i + 1 >= argc) throw MissingFlagValue{};
        return argv[++i];
      };
      if (arg == "--unix") {
        listen.unix_path = value();
        listen.endpoint_given = true;
      } else if (arg == "--port") {
        listen.port = static_cast<int>(parse_int_flag(arg, value(), 0, 65535));
        listen.endpoint_given = true;
      } else if (arg == "--host") {
        listen.host = value();
      } else if (arg == "--auth-token") {
        listen.auth_token = value();
      } else if (!own_flag(arg, value)) {
        return usage();
      }
    }
  } catch (const MissingFlagValue&) {
    return usage();
  } catch (const ConfigError& e) {
    std::cerr << program << ": " << e.what() << '\n';
    return 2;
  }
  return listen.endpoint_given ? 0 : usage();
}

int run_daemon(int argc, char** argv, const std::string& program) {
  ServerOptions options;
  ListenFlags listen;
  const int status = parse_serve_flags(
      argc, argv, program,
      "(--unix PATH | --port N [--host ADDR])\n"
      "       [--jobs N|auto] [--readers N] [--max-sessions N]\n"
      "       [--cache-dir PATH] [--peer ENDPOINT]...\n"
      "       [--auth-token TOKEN]",
      listen, [&options](const std::string& flag, const FlagValue& value) {
        if (flag == "--jobs") {
          options.jobs = parse_jobs_flag(value());
        } else if (flag == "--readers") {
          options.readers =
              static_cast<int>(parse_int_flag(flag, value(), 1, 64));
        } else if (flag == "--max-sessions") {
          options.max_sessions = static_cast<std::size_t>(
              parse_int_flag(flag, value(), 1, 1 << 16));
        } else if (flag == "--cache-dir") {
          // Persistent mapping cache: previously compiled configurations —
          // including ones from before a restart, or from another daemon
          // on the same directory — are served from disk, not re-mapped.
          options.cache.dir = value();
        } else if (flag == "--peer") {
          // Repeatable. Each peer is another pimcompd whose disk tier
          // answers this daemon's cache misses over cache_get before
          // anything is re-mapped locally.
          options.cache.peers.push_back(value());
        } else {
          return false;
        }
        return true;
      });
  if (status != 0) return status;
  options.unix_path = listen.unix_path;
  options.host = listen.host;
  options.port = listen.port;
  // One fleet-wide token: enforced on every inbound request, and attached
  // to the outbound peer requests this daemon makes.
  options.auth_token = listen.auth_token;
  options.cache.auth_token = listen.auth_token;
  return serve_until_signal<CompileServer>(program, std::move(options),
                                           "shutting down");
}

}  // namespace pimcomp::serve
