#include "core/session.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <type_traits>
#include <utility>

#include "cache/artifact.hpp"
#include "cache/cache_store.hpp"
#include "cache/disk_store.hpp"
#include "cache/remote_tier.hpp"
#include "common/error.hpp"
#include "common/fnv1a.hpp"
#include "common/thread_pool.hpp"
#include "graph/serialize.hpp"
#include "sim/simulator.hpp"

namespace pimcomp {

namespace {

std::uint64_t fnv1a_string(std::uint64_t hash, const std::string& s) {
  // Length-prefixed so adjacent strings can't alias across their boundary
  // (("gal","l") must not hash like ("ga","ll")).
  const std::uint64_t size = s.size();
  hash = fnv1a(hash, &size, sizeof(size));
  return fnv1a(hash, s.data(), s.size());
}

template <typename T>
std::uint64_t fnv1a_value(std::uint64_t hash, const T& value) {
  static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                "hash scalar fields only");
  return fnv1a(hash, &value, sizeof(value));
}

std::uint64_t combine(std::uint64_t a, std::uint64_t b) {
  return fnv1a_value(fnv1a_value(kFnv1aOffset, a), b);
}

/// Mapping-cache bound: generous for sweep-sized batches (the benches top
/// out at dozens of scenarios) while keeping a long-lived session's memory
/// flat when every scenario is distinct and can never hit.
constexpr std::size_t kMaxCachedMappings = 128;

/// Registry-compaction threshold: expired job weak_ptrs are swept once the
/// registry grows past this, keeping submit() O(1) amortized.
constexpr std::size_t kJobRegistrySweep = 64;

/// Builds the persistent mapping tier named `tier` ("disk" or "remote").
std::unique_ptr<CacheStore> make_mapping_tier(std::string_view tier,
                                              const CacheConfig& cache) {
  if (tier == cache_sources::kDisk) return std::make_unique<DiskStore>(cache);
  // Resolved through the cache/remote_tier.hpp seam so core/ never
  // includes fleet/ — the concrete RemoteStore registers its factory when
  // src/fleet/ is linked in.
  std::unique_ptr<CacheStore> remote = make_remote_tier(cache);
  PIMCOMP_CHECK(remote != nullptr,
                "CacheConfig::peers set but no remote cache tier is linked "
                "into this binary");
  return remote;
}

}  // namespace

std::uint64_t combine_fingerprints(std::uint64_t a, std::uint64_t b) {
  return combine(a, b);
}

std::string to_string(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kNone: return "";
    case ErrorKind::kCapacity: return "capacity";
    case ErrorKind::kConfig: return "config";
    case ErrorKind::kCancelled: return "cancelled";
    case ErrorKind::kDeadline: return "deadline";
    case ErrorKind::kInternal: return "internal";
  }
  return "internal";
}

ErrorKind error_kind_from_string(const std::string& s) {
  if (s.empty()) return ErrorKind::kNone;
  if (s == "capacity") return ErrorKind::kCapacity;
  if (s == "config") return ErrorKind::kConfig;
  if (s == "cancelled") return ErrorKind::kCancelled;
  if (s == "deadline") return ErrorKind::kDeadline;
  return ErrorKind::kInternal;
}

ErrorKind error_kind_of(const std::exception& e) {
  // Order matters only in that every listed type derives from Error; the
  // three leaf classes are disjoint.
  if (dynamic_cast<const CancelledError*>(&e) != nullptr) {
    return ErrorKind::kCancelled;
  }
  if (dynamic_cast<const CapacityError*>(&e) != nullptr) {
    return ErrorKind::kCapacity;
  }
  if (dynamic_cast<const ConfigError*>(&e) != nullptr) {
    return ErrorKind::kConfig;
  }
  return ErrorKind::kInternal;
}

std::uint64_t fingerprint(const Graph& graph) {
  // The JSON graph format carries exactly the information the backend
  // consumes (topology + per-node attributes), so its dump is a faithful
  // identity for partitioning purposes.
  return fnv1a_string(kFnv1aOffset, graph_to_json(graph).dump(0));
}

std::uint64_t fingerprint(const HardwareConfig& hw) {
  // Every field participates; a stale list would silently alias distinct
  // configs to one cached workload. The size guard trips (on LP64) when a
  // field is added to HardwareConfig without updating this function.
  static_assert(sizeof(void*) != 8 || sizeof(HardwareConfig) == 128,
                "HardwareConfig changed: update fingerprint() to hash the "
                "new fields");
  std::uint64_t h = kFnv1aOffset;
  h = fnv1a_value(h, hw.xbar_rows);
  h = fnv1a_value(h, hw.xbar_cols);
  h = fnv1a_value(h, hw.cell_bits);
  h = fnv1a_value(h, hw.weight_bits);
  h = fnv1a_value(h, hw.activation_bits);
  h = fnv1a_value(h, hw.xbars_per_core);
  h = fnv1a_value(h, hw.core_count);
  h = fnv1a_value(h, hw.cores_per_chip);
  h = fnv1a_value(h, hw.connection);
  h = fnv1a_value(h, hw.vfus_per_core);
  h = fnv1a_value(h, hw.vfu_ops_per_ns);
  h = fnv1a_value(h, hw.local_memory_bytes);
  h = fnv1a_value(h, hw.local_memory_gbps);
  h = fnv1a_value(h, hw.global_memory_bytes);
  h = fnv1a_value(h, hw.global_memory_gbps);
  h = fnv1a_value(h, hw.noc_flit_bytes);
  h = fnv1a_value(h, hw.noc_link_gbps);
  h = fnv1a_value(h, hw.noc_hop_latency);
  h = fnv1a_value(h, hw.ht_link_gbps);
  h = fnv1a_value(h, hw.ht_latency);
  h = fnv1a_value(h, hw.mvm_latency);
  return h;
}

std::uint64_t fingerprint(const CompileOptions& options) {
  // Every semantic field participates, scheduler via its *effective* key so
  // an explicit "ht" and a mode-derived "ht" hash alike. Aliasing two
  // distinct configurations here would hand one of them the other's cached
  // result. The session's CacheConfig is not an option and never reaches
  // this hash: where artifacts live must not change a compile's identity
  // (the cache-config-excluded analysis contract pins that).
  //
  // This function is part of the persisted-cache schema: its values name
  // artifacts on disk across processes and releases. Changing what or how
  // it hashes requires bumping kCacheSchemaVersion (src/cache/) — the
  // goldens in tests/test_fingerprint_goldens.cpp enforce that.
  std::uint64_t h = kFnv1aOffset;
  h = fnv1a_value(h, options.mode);
  h = fnv1a_value(h, options.parallelism_degree);
  h = fnv1a_value(h, options.memory_policy);
  h = fnv1a_string(h, options.mapper);
  h = fnv1a_string(h, options.scheduler_key());
  h = fnv1a_string(h, options.backend);
  h = fnv1a_value(h, options.ga.population);
  h = fnv1a_value(h, options.ga.generations);
  h = fnv1a_value(h, options.ga.elite);
  h = fnv1a_value(h, options.ga.tournament_size);
  h = fnv1a_value(h, options.ga.mutations_per_child);
  h = fnv1a_value(h, options.ga.target_fill);
  h = fnv1a_value(h, options.ga.enable_grow);
  h = fnv1a_value(h, options.ga.enable_shrink);
  h = fnv1a_value(h, options.ga.enable_spread);
  h = fnv1a_value(h, options.ga.enable_merge);
  h = fnv1a_value(h, options.ga.seed_baseline);
  h = fnv1a_value(h, options.ga.islands);
  h = fnv1a_value(h, options.ga.migration_interval);
  h = fnv1a_value(h, options.max_nodes_per_core);
  h = fnv1a_value(h, options.ht_flush_windows);
  h = fnv1a_value(h, options.seed);
  return h;
}

// ---------------------------------------------------------------------------
// CompileJob.
// ---------------------------------------------------------------------------

/// Shared state behind one CompileJob handle. Single-writer state machine:
/// only the session's job runner transitions `status` (kQueued -> kRunning
/// -> kDone/kCancelled); cancel() only raises the token, which the runner
/// observes. The state outlives both the session and the pool, so handles
/// stay usable after either is gone (by then every job is terminal).
struct CompileJob::State {
  Scenario scenario;
  int index = -1;
  std::uint64_t tag = 0;
  std::chrono::steady_clock::time_point deadline{};  ///< epoch = none
  std::function<void(const ScenarioOutcome&)> on_complete;
  CancelToken token;
  ThreadPool* owner_pool = nullptr;  ///< helping-wait identity; see wait()

  mutable Mutex mutex;
  mutable CondVar cv;
  std::atomic<JobStatus> status{JobStatus::kQueued};
  /// Deliberately not GUARDED_BY(mutex): protected by publication, not the
  /// lock — written exactly once (under `mutex`) before the release-store
  /// that turns `status` terminal, and only read after terminal() observed
  /// that store (wait()'s return, the completion callback, compile_all()'s
  /// move-out).
  ScenarioOutcome outcome;

  bool terminal() const {
    const JobStatus s = status.load(std::memory_order_acquire);
    return s == JobStatus::kDone || s == JobStatus::kCancelled;
  }
};

namespace {
CompileJob::State& require_state(
    const std::shared_ptr<CompileJob::State>& state) {
  PIMCOMP_CHECK(state != nullptr, "empty CompileJob handle");
  return *state;
}
}  // namespace

JobStatus CompileJob::poll() const {
  return require_state(state_).status.load(std::memory_order_acquire);
}

bool CompileJob::done() const { return require_state(state_).terminal(); }

const ScenarioOutcome& CompileJob::wait() const& {
  State& state = require_state(state_);
  // Deadlock avoidance for nested waits: a session worker waiting on a job
  // of its own pool (a completion callback or observer that submitted
  // follow-up work) runs queued jobs inline instead of blocking — otherwise
  // a one-worker session would wait on work only it can run.
  if (!state.terminal() && state.owner_pool != nullptr &&
      ThreadPool::current() == state.owner_pool) {
    while (!state.terminal() && state.owner_pool->run_one()) {
    }
  }
  MutexLock lock(state.mutex);
  while (!state.terminal()) state.cv.wait(state.mutex);
  return state.outcome;
}

ScenarioOutcome CompileJob::wait() && { return std::as_const(*this).wait(); }

bool CompileJob::cancel() const {
  State& state = require_state(state_);
  state.token.request();
  // True = the request landed before the job turned terminal: a queued job
  // is now guaranteed to finalize as cancelled, a running one aborts at its
  // next stage/generation boundary (and may still complete if it was past
  // the last one — the outcome is authoritative).
  return !state.terminal();
}

const std::string& CompileJob::label() const {
  return require_state(state_).scenario.label;
}

int CompileJob::index() const { return require_state(state_).index; }

std::uint64_t CompileJob::tag() const { return require_state(state_).tag; }

// ---------------------------------------------------------------------------
// CompilerSession.
// ---------------------------------------------------------------------------

/// Serializing forwarder placed between the pipeline and the user observer:
/// worker threads call in concurrently, the user observer only ever runs
/// under `session->observer_mutex_`.
class CompilerSession::ObserverGate final : public PipelineObserver {
 public:
  explicit ObserverGate(CompilerSession* session) : session_(session) {}

  void on_stage_begin(const StageInfo& info) override {
    RecursiveMutexLock lock(session_->observer_mutex_);
    if (session_->observer_ != nullptr) {
      session_->observer_->on_stage_begin(info);
    }
  }

  void on_stage_end(const StageInfo& info) override {
    RecursiveMutexLock lock(session_->observer_mutex_);
    if (session_->observer_ != nullptr) {
      session_->observer_->on_stage_end(info);
    }
  }

  void on_cache_hit(const CacheEvent& event) override {
    RecursiveMutexLock lock(session_->observer_mutex_);
    if (session_->observer_ != nullptr) {
      session_->observer_->on_cache_hit(event);
    }
  }

  void on_cache_store(const CacheEvent& event) override {
    RecursiveMutexLock lock(session_->observer_mutex_);
    if (session_->observer_ != nullptr) {
      session_->observer_->on_cache_store(event);
    }
  }

 private:
  CompilerSession* session_;
};

CompilerSession::CompilerSession(Graph graph, HardwareConfig hw,
                                 CacheConfig cache)
    : graph_(std::move(graph)),
      hw_(hw),
      mappings_(kMaxCachedMappings),
      cache_config_(std::move(cache)) {
  if (!graph_.finalized()) graph_.finalize();
  hw_.validate();
  graph_fingerprint_ = pimcomp::fingerprint(graph_);
  gate_ = std::make_unique<ObserverGate>(this);

  for (const char* tier : mapping_tier_names(cache_config_)) {
    if (std::string_view(tier) == cache_sources::kMemory) continue;
    mapping_tiers_.push_back(make_mapping_tier(tier, cache_config_));
  }
  tier_hits_ = std::vector<std::atomic<std::uint64_t>>(mapping_tiers_.size());
}

CompilerSession::~CompilerSession() {
  // Outstanding jobs are cancelled, not completed: queued ones finalize as
  // cancelled the moment a draining worker pops them, running ones abort at
  // their next cancellation boundary. The pool teardown below waits for all
  // of that, so every CompileJob handle is terminal when we return.
  cancel_all_jobs();
  std::unique_ptr<ThreadPool> pool;
  {
    MutexLock lock(job_mutex_);
    shutting_down_ = true;  // submit() from a draining callback must not
                            // resurrect a pool over dying session state
    pool = std::move(pool_);
    job_registry_.clear();
  }
  pool.reset();  // drains the queue and joins the workers
}

std::uint64_t CompilerSession::fingerprint() const {
  return combine(graph_fingerprint_, pimcomp::fingerprint(hw_));
}

void CompilerSession::set_observer(PipelineObserver* observer) {
  RecursiveMutexLock lock(observer_mutex_);
  observer_ = observer;
}

void CompilerSession::set_jobs(int jobs) {
  MutexLock lock(job_mutex_);
  jobs_ = jobs <= 0 ? ThreadPool::hardware_threads() : jobs;
}

int CompilerSession::jobs() const {
  MutexLock lock(job_mutex_);
  return jobs_;
}

void CompilerSession::ensure_pool_locked() {
  if (pool_ != nullptr && pool_->size() == jobs_) return;
  if (pool_ != nullptr && outstanding_jobs_.load() != 0) {
    // A resize with jobs in flight is deferred: the current pool keeps
    // draining, the new size applies at the first submit after idle.
    return;
  }
  pool_.reset();  // idle: joining is instant
  pool_ = std::make_unique<ThreadPool>(jobs_);
}

CompileJob CompilerSession::submit(Scenario scenario, JobOptions options) {
  auto state = std::make_shared<CompileJob::State>();
  state->scenario = std::move(scenario);
  state->index = options.index;
  state->tag = options.tag;
  state->deadline = options.deadline;
  state->on_complete = std::move(options.on_complete);
  bool rejected = false;
  {
    MutexLock lock(job_mutex_);
    if (shutting_down_) {
      // ~CompilerSession is draining: a follow-up submitted from a dying
      // job's completion callback is finalized as cancelled on the spot —
      // it must not revive a worker pool over session state mid-teardown.
      state->outcome.label = state->scenario.label;
      state->outcome.index = state->index;
      state->outcome.error = "session is shutting down";
      state->outcome.error_kind = ErrorKind::kCancelled;
      state->status.store(JobStatus::kCancelled, std::memory_order_release);
      rejected = true;
    } else {
      ensure_pool_locked();
      state->owner_pool = pool_.get();
      if (job_registry_.size() >= kJobRegistrySweep) {
        job_registry_.erase(
            std::remove_if(job_registry_.begin(), job_registry_.end(),
                           [](const std::weak_ptr<CompileJob::State>& weak) {
                             const auto held = weak.lock();
                             return held == nullptr || held->terminal();
                           }),
            job_registry_.end());
      }
      job_registry_.push_back(state);
      outstanding_jobs_.fetch_add(1, std::memory_order_relaxed);
      pool_->submit([this, state] { run_job(state); }, options.priority);
    }
  }
  if (rejected && state->on_complete) {
    // Outside job_mutex_, honoring the JobOptions contract ("runs outside
    // all session locks"): a callback that submits again must not relock.
    state->on_complete(state->outcome);
  }
  return CompileJob(state);
}

CompileJob CompilerSession::submit(CompileOptions options, std::string label,
                                   JobOptions job) {
  return submit(Scenario{std::move(label), std::move(options), std::nullopt},
                std::move(job));
}

std::size_t CompilerSession::outstanding_jobs() const {
  return outstanding_jobs_.load(std::memory_order_relaxed);
}

std::size_t CompilerSession::cancel_all_jobs() {
  std::vector<std::shared_ptr<CompileJob::State>> states;
  {
    MutexLock lock(job_mutex_);
    states.reserve(job_registry_.size());
    for (const std::weak_ptr<CompileJob::State>& weak : job_registry_) {
      if (std::shared_ptr<CompileJob::State> state = weak.lock()) {
        states.push_back(std::move(state));
      }
    }
  }
  std::size_t cancelled = 0;
  for (const std::shared_ptr<CompileJob::State>& state : states) {
    if (!state->terminal()) {
      state->token.request();
      ++cancelled;
    }
  }
  return cancelled;
}

void CompilerSession::wait_jobs_idle() {
  ThreadPool* pool = nullptr;
  {
    MutexLock lock(job_mutex_);
    pool = pool_.get();
  }
  if (pool != nullptr) pool->wait_idle();
}

void CompilerSession::run_job(const std::shared_ptr<CompileJob::State>& state) {
  state->status.store(JobStatus::kRunning, std::memory_order_release);

  ScenarioOutcome outcome;
  outcome.label = state->scenario.label;
  outcome.index = state->index;
  if (state->token.cancelled()) {
    // Cancelled while queued: no stage ever runs for this job.
    outcome.error = "cancelled before start";
    outcome.error_kind = ErrorKind::kCancelled;
  } else if (state->deadline != std::chrono::steady_clock::time_point{} &&
             std::chrono::steady_clock::now() >= state->deadline) {
    // The client's deadline expired while the job sat in the queue: drop it
    // before any stage runs — nobody is waiting for the result. kDone (not
    // kCancelled) terminal: the caller did not cancel, the clock did.
    outcome.error = "deadline expired before start";
    outcome.error_kind = ErrorKind::kDeadline;
  } else {
    try {
      outcome.result = compile_scenario(state->scenario, state->index,
                                        state->tag, &state->token);
    } catch (const std::exception& e) {
      // An infeasible design point (CapacityError), bad configuration
      // (ConfigError), or observed cancellation fails this job only; the
      // queue carries on.
      outcome.error = e.what();
      outcome.error_kind = error_kind_of(e);
    } catch (...) {
      outcome.error = "unknown error";
      outcome.error_kind = ErrorKind::kInternal;
    }
  }

  const JobStatus terminal = outcome.error_kind == ErrorKind::kCancelled
                                 ? JobStatus::kCancelled
                                 : JobStatus::kDone;
  std::function<void(const ScenarioOutcome&)> callback;
  {
    MutexLock lock(state->mutex);
    state->outcome = std::move(outcome);
    state->status.store(terminal, std::memory_order_release);
    callback = std::move(state->on_complete);
  }
  state->cv.notify_all();
  // The callback runs after waiters are released and outside every session
  // lock; it sees the final outcome and may submit follow-up jobs.
  if (callback) callback(state->outcome);
  outstanding_jobs_.fetch_sub(1, std::memory_order_relaxed);
}

std::vector<ScenarioOutcome> CompilerSession::compile_all(
    std::vector<Scenario> batch) {
  // Thin wrapper over the job API: submit-all, wait-all. A one-worker
  // session (the default) runs the jobs strictly FIFO, which keeps this
  // path — outcomes, cache-hit counts, observer event order — identical to
  // the historical inline sequential loop; wider pools overlap jobs but
  // stay bit-identical per scenario at equal seeds.
  std::vector<CompileJob> jobs;
  jobs.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    JobOptions options;
    options.index = static_cast<int>(i);
    jobs.push_back(submit(std::move(batch[i]), std::move(options)));
  }

  std::vector<ScenarioOutcome> outcomes;
  outcomes.reserve(jobs.size());
  for (CompileJob& job : jobs) {
    job.wait();
    // These handles never leave this wrapper, so the outcome — which holds
    // the full CompileResult (per-core op streams, GA history) — is moved
    // out of the job state instead of deep-copied.
    outcomes.push_back(std::move(job.state_->outcome));
  }
  return outcomes;
}

CompileResult CompilerSession::compile(const CompileOptions& options) {
  return compile(Scenario{std::string(), options, std::nullopt});
}

CompileResult CompilerSession::compile(const Scenario& scenario, int index) {
  return compile_scenario(scenario, index, /*tag=*/0, /*cancel=*/nullptr);
}

CompileResult CompilerSession::compile_scenario(const Scenario& scenario,
                                                int index, std::uint64_t tag,
                                                const CancelToken* cancel) {
  const HardwareConfig& hw =
      scenario.hardware.has_value() ? *scenario.hardware : hw_;
  if (scenario.hardware.has_value()) hw.validate();

  // Fail fast on unknown strategy keys: before partitioning is paid for and
  // before a cache slot is claimed.
  validate_strategies(scenario.options);
  if (cancel != nullptr) cancel->throw_if_cancelled("compilation");

  const std::uint64_t workload_key =
      combine(graph_fingerprint_, pimcomp::fingerprint(hw));
  const std::uint64_t mapping_key =
      combine(workload_key, pimcomp::fingerprint(scenario.options));

  // The claim comes before any lookup: a job arriving while an identical
  // one is in flight waits for it instead of walking the persistent tiers
  // (or mapping) a second time.
  const ClaimMap<CompileResult>::Ticket ticket =
      mappings_.claim(mapping_key, cancel);
  if (ticket.value != nullptr) {
    // The memory tier: a settled claim, whether settled before this job
    // arrived or while it waited. Each caller gets an independent copy
    // with zeroed stage times — no stage ran for it.
    notify_cache_hit(cache_names::kMapping, scenario.label, index, tag,
                     mapping_hits_, cache_sources::kMemory);
    CompileResult result = *ticket.value;
    result.stage_times = StageTimes{};
    return result;
  }

  const auto run_stages = [&]() -> CompileResult {
    double partition_seconds = 0.0;
    std::shared_ptr<const Workload> workload = resolve_workload(
        workload_key, hw, scenario.label, index, tag, &partition_seconds);

    PipelineInputs in;
    in.graph = &graph_;
    in.hardware = &hw;
    in.options = &scenario.options;
    in.scenario_label = scenario.label;
    in.scenario_index = index;
    in.tag = tag;
    in.cancel = cancel;
    in.workload = std::move(workload);  // pre-seeded => partitioning skipped
    in.partition_seconds = partition_seconds;
    in.stream_binding = mapping_key;  // lowered streams carry their cache key
    return run_pipeline(std::move(in), gate_.get());
  };

  if (ticket.owned == nullptr) {
    // Re-entrant identical compile from inside the owner's own observer
    // callback: waiting would be waiting on ourselves, so compute
    // privately; the outer frame settles and stores the shared result.
    return run_stages();
  }

  // Owner: the persistent tiers, then the pipeline. A failure retires the
  // claim instead of settling it, so waiters re-claim rather than inherit
  // an error that may be this job's alone (cancellation).
  std::optional<CompileResult> result;
  std::size_t served = mapping_tiers_.size();  // size() = computed here
  Json artifact;
  try {
    result = load_mapping(scenario, hw, index, tag, workload_key, mapping_key,
                          &served, &artifact);
    if (!result.has_value()) result = run_stages();
  } catch (...) {
    mappings_.fail(mapping_key, ticket.owned, nullptr, /*keep=*/false);
    throw;
  }
  // Settled before anything is pushed outward: a job arriving during the
  // push already takes a memory hit.
  mappings_.settle(mapping_key, ticket.owned,
                   std::make_shared<const CompileResult>(*result));
  if (served == mapping_tiers_.size()) {
    store_mapping(mapping_key, workload_key, *result, scenario.label, index,
                  tag);
  } else {
    // Promotion into the persistent tiers above the one that hit, and only
    // those: a remote hit lands on the local disk, a disk hit sends
    // nothing over the network. Deliberately no on_cache_store event —
    // nothing new was computed.
    const CacheEntry promoted{std::move(artifact)};
    for (std::size_t above = 0; above < served; ++above) {
      mapping_tiers_[above]->store(mapping_key, promoted);
    }
  }
  return std::move(*result);
}

SimReport CompilerSession::simulate(const CompileResult& result) const {
  SimOptions sim_options;
  sim_options.parallelism_degree = result.options.parallelism_degree;
  sim_options.mode = result.options.mode;
  // Simulate at the hardware the scenario actually compiled for (which may
  // be a per-scenario override, not the session default).
  return Simulator(result.workload->hardware(), sim_options)
      .run(result.schedule);
}

std::size_t CompilerSession::cached_workloads() const {
  // Only successful partitions count; failed claims are the negative cache,
  // and in-flight ones hold nothing yet.
  return static_cast<std::size_t>(workloads_.stats().entries);
}

std::size_t CompilerSession::cached_mappings() const {
  return static_cast<std::size_t>(mappings_.stats().entries);
}

std::uint64_t CompilerSession::mapping_tier_hits(std::string_view tier) const {
  if (tier == cache_sources::kMemory) return mappings_.stats().hits;
  for (std::size_t i = 0; i < mapping_tiers_.size(); ++i) {
    if (tier == mapping_tiers_[i]->name()) return tier_hits_[i].load();
  }
  return 0;
}

std::vector<const char*> CompilerSession::mapping_tier_names(
    const CacheConfig& cache) {
  // Fastest tier first: memory, then this process's disk, then peer
  // daemons over the wire — each strictly slower and stricter about
  // revalidation than the one before it.
  std::vector<const char*> names{cache_sources::kMemory};
  if (cache.enabled()) names.push_back(cache_sources::kDisk);
  if (cache.remote_enabled()) names.push_back(cache_sources::kRemote);
  return names;
}

std::vector<std::pair<const char*, CacheStoreStats>>
CompilerSession::mapping_tier_stats() const {
  std::vector<std::pair<const char*, CacheStoreStats>> tiers{
      {cache_sources::kMemory, mappings_.stats()}};
  for (const std::unique_ptr<CacheStore>& tier : mapping_tiers_) {
    tiers.emplace_back(tier->name(), tier->counters());
  }
  return tiers;
}

std::shared_ptr<const Workload> CompilerSession::resolve_workload(
    std::uint64_t key, const HardwareConfig& hw, const std::string& label,
    int index, std::uint64_t tag, double* partition_seconds) {
  const ClaimMap<Workload>::Ticket ticket =
      workloads_.claim(key, /*cancel=*/nullptr);
  if (ticket.value != nullptr) {
    // A settled claim is a cache hit — whether it was settled before this
    // scenario arrived or while it waited on the owner.
    notify_cache_hit(cache_names::kWorkload, label, index, tag, workload_hits_,
                     cache_sources::kMemory);
    return ticket.value;
  }
  if (ticket.owned == nullptr) {
    // Re-entrant compile of the same fingerprint from inside this thread's
    // own partitioning observer callback: waiting would be waiting on
    // ourselves. Build a private workload instead (the pre-cache
    // behavior); the outer frame settles the shared one.
    const auto t0 = std::chrono::steady_clock::now();
    auto private_workload = std::make_shared<const Workload>(graph_, hw);
    *partition_seconds = seconds_since(t0);
    return private_workload;
  }

  // The partitioning stage runs here, before run_pipeline, so its
  // once-per-fingerprint semantics hold under concurrency — through the
  // same run_stage, hence with the same observer events and timing.
  // Deliberately no cancellation check on this path: a cancelled owner
  // would strand innocent peers waiting on the same fingerprint
  // (partitioning is the cheap stage; cancellation lands at the next stage
  // boundary instead).
  std::shared_ptr<const Workload> workload;
  run_stage(
      StageInfo{stage_names::kPartitioning, label, index, 0.0, tag},
      gate_.get(), /*cancel=*/nullptr, partition_seconds,
      [&] {
        workload = std::make_shared<const Workload>(graph_, hw);
        // Settled before on_stage_end, so the observer already sees the
        // cached workload.
        workloads_.settle(key, ticket.owned, workload);
      },
      [&](const std::exception_ptr& failure) {
        // Also reached when on_stage_begin throws: an unsettled claim would
        // strand every waiter on this fingerprint. Waiting peers rethrow
        // the published failure instead of re-partitioning.
        // Deterministic failures of the input itself (CapacityError: the
        // model cannot fit; ConfigError: the graph/config is unusable) keep
        // their claim as the negative cache — every retry would fail
        // identically. Anything else (e.g. a transient bad_alloc under
        // memory pressure) retires the claim so a later compile retries
        // partitioning instead of rethrowing a stale error for the
        // session's lifetime.
        bool deterministic = false;
        try {
          std::rethrow_exception(failure);
        } catch (const CapacityError&) {
          deterministic = true;
        } catch (const ConfigError&) {
          deterministic = true;
        } catch (...) {
        }
        workloads_.fail(key, ticket.owned, failure, deterministic);
      });
  return workload;
}

std::optional<CompileResult> CompilerSession::load_mapping(
    const Scenario& scenario, const HardwareConfig& hw, int index,
    std::uint64_t tag, std::uint64_t workload_key, std::uint64_t mapping_key,
    std::size_t* served, Json* artifact) {
  std::size_t tier = 0;
  std::optional<CacheHit> hit;
  for (; tier < mapping_tiers_.size(); ++tier) {
    hit = mapping_tiers_[tier]->load(mapping_key);
    if (hit.has_value()) break;
  }
  if (!hit.has_value()) return std::nullopt;

  // The artifact is only JSON. Resolve the workload first (a cache hit of
  // its own after the first scenario; partitioning is the cheap stage) —
  // its failures (CapacityError, cancellation via the caller's earlier
  // check) are genuine scenario failures and propagate. The partitioning
  // time it may report is observable through the stage events but not the
  // result: a cache hit returns zeroed stage times, so warm results stay
  // byte-identical to memory-tier hits. A remote artifact passes through
  // exactly this same revalidation — peer answers earn no shortcut.
  double partition_seconds = 0.0;
  std::shared_ptr<const Workload> workload = resolve_workload(
      workload_key, hw, scenario.label, index, tag, &partition_seconds);
  (void)partition_seconds;
  std::optional<CompileResult> result;
  try {
    result = compile_result_from_artifact(hit->entry.artifact,
                                          std::move(workload),
                                          scenario.options, workload_key);
  } catch (const Error&) {
    // Corrupt, mismatched, or invariant-violating artifact: erase it and
    // report a miss so the caller computes — without consulting the deeper
    // tiers, so a tier that cannot erase (a peer's) serving the same bad
    // artifact forever cannot livelock anything. Never a compile failure:
    // the cache must not be able to break a compilation it could only have
    // accelerated.
    for (const std::unique_ptr<CacheStore>& each : mapping_tiers_) {
      each->erase(mapping_key);
    }
    return std::nullopt;
  }
  tier_hits_[tier].fetch_add(1, std::memory_order_relaxed);
  notify_cache_hit(cache_names::kMapping, scenario.label, index, tag,
                   mapping_hits_, mapping_tiers_[tier]->name());
  *served = tier;
  *artifact = std::move(hit->entry.artifact);
  return result;
}

void CompilerSession::store_mapping(std::uint64_t key,
                                    std::uint64_t workload_key,
                                    const CompileResult& result,
                                    const std::string& label, int index,
                                    std::uint64_t tag) {
  CacheEntry entry;
  if (!mapping_tiers_.empty()) {
    // Encoding is only paid when a persistent or peer tier wants the
    // artifact, and is best-effort: a result that cannot serialize still
    // caches in memory.
    try {
      entry.artifact = compile_result_to_artifact(result, workload_key, key);
    } catch (const std::exception&) {
    }
  }
  // First writer wins inside each tier (racing identical scenarios carry
  // bit-identical payloads). The store event names the deepest tier that
  // newly took the result: memory, which the settled claim always is,
  // unless a persistent tier took it too.
  const char* deepest = cache_sources::kMemory;
  for (const std::unique_ptr<CacheStore>& tier : mapping_tiers_) {
    if (tier->store(key, entry)) deepest = tier->name();
  }
  notify_cache_store(cache_names::kMapping, label, index, tag, deepest);
}

void CompilerSession::notify_cache_hit(const char* cache,
                                       const std::string& label, int index,
                                       std::uint64_t tag,
                                       std::atomic<std::uint64_t>& counter,
                                       const char* source) {
  // Increment under the observer serialization mutex so the cumulative
  // `hits` values reach the observer in monotonic order even when parallel
  // workers hit the caches simultaneously.
  RecursiveMutexLock lock(observer_mutex_);
  const std::uint64_t hits = counter.fetch_add(1) + 1;
  if (observer_ != nullptr) {
    observer_->on_cache_hit(CacheEvent{cache, label, index, hits, tag,
                                       source});
  }
}

void CompilerSession::notify_cache_store(const char* cache,
                                         const std::string& label, int index,
                                         std::uint64_t tag,
                                         const char* source) {
  RecursiveMutexLock lock(observer_mutex_);
  const std::uint64_t stores = mapping_stores_.fetch_add(1) + 1;
  if (observer_ != nullptr) {
    observer_->on_cache_store(CacheEvent{cache, label, index, stores, tag,
                                         source});
  }
}

}  // namespace pimcomp
