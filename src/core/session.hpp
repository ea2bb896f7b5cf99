#ifndef PIMCOMP_CORE_SESSION_HPP
#define PIMCOMP_CORE_SESSION_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/cache_config.hpp"
#include "cache/cache_store.hpp"
#include "common/cancel.hpp"
#include "common/thread_annotations.hpp"
#include "core/claim_map.hpp"
#include "core/compiler.hpp"
#include "core/pipeline.hpp"

namespace pimcomp {

class ThreadPool;  // common/thread_pool.hpp

/// Stable identity of a graph / hardware config, used to key the session's
/// workload cache. Two equal fingerprints partition identically.
std::uint64_t fingerprint(const Graph& graph);
std::uint64_t fingerprint(const HardwareConfig& hw);

/// Identity of one compilation request modulo its label: every
/// CompileOptions field participates (mode, strategy keys, GA
/// hyperparameters, seed, ...). Keys the session's mapping-result cache
/// together with the workload fingerprint.
std::uint64_t fingerprint(const CompileOptions& options);

/// Order-dependent mix of two fingerprints — the combinator behind every
/// session cache key and CompilerSession::fingerprint(). Exposed so other
/// layers keying on a (graph, hardware) identity (the compile server's
/// session registry) can never disagree with the session's own.
std::uint64_t combine_fingerprints(std::uint64_t a, std::uint64_t b);

/// One entry of a session batch: a label for reports/observers, the compile
/// options, and an optional hardware override for design-space sweeps
/// (std::nullopt = the session's default hardware).
struct Scenario {
  std::string label;
  CompileOptions options;
  std::optional<HardwareConfig> hardware;
};

/// Machine-readable classification of a scenario failure, alongside the
/// human-readable message. Stable across releases (it travels the serve
/// protocol as a string), so clients branch on it instead of string-matching
/// what() text.
enum class ErrorKind {
  kNone,       ///< the scenario succeeded
  kCapacity,   ///< CapacityError: the design point cannot hold the model
  kConfig,     ///< ConfigError: bad options / unknown strategy key
  kCancelled,  ///< CancelledError: the job's owner cancelled it
  kDeadline,   ///< the job's client deadline passed before it started
  kInternal,   ///< anything else (allocation failure, logic error, ...)
};

/// Wire names: "" / "capacity" / "config" / "cancelled" / "deadline" /
/// "internal".
std::string to_string(ErrorKind kind);
/// Inverse of to_string; unknown strings map to kInternal (a newer peer may
/// speak kinds this build does not know — still a failure, still typed).
ErrorKind error_kind_from_string(const std::string& s);
/// Classifies a caught scenario failure by exception type.
ErrorKind error_kind_of(const std::exception& e);

/// Per-scenario result of a batch compile. Exactly one of `result` / `error`
/// is meaningful: a feasible scenario carries its CompileResult, an
/// infeasible, misconfigured, or cancelled one carries the failure's what()
/// message plus its ErrorKind classification, so one bad design point no
/// longer aborts a whole sweep and clients never parse error text.
struct ScenarioOutcome {
  std::string label;
  int index = -1;  ///< position in the batch (results keep enqueue order)
  std::optional<CompileResult> result;
  std::string error;
  ErrorKind error_kind = ErrorKind::kNone;

  bool ok() const { return result.has_value(); }
  bool cancelled() const { return error_kind == ErrorKind::kCancelled; }
};

/// Lifecycle of a submitted job. kDone covers success *and* compile
/// failures (the outcome's error_kind tells them apart); kCancelled is the
/// terminal state of a job whose cancellation was observed.
enum class JobStatus { kQueued, kRunning, kDone, kCancelled };

/// Per-job knobs for CompilerSession::submit().
struct JobOptions {
  /// Batch position recorded in the outcome and observer callbacks (-1 for
  /// ad-hoc jobs; compile_all() fills it with the batch position).
  int index = -1;

  /// Queue priority: higher runs sooner, ties are FIFO. Default 0.
  int priority = 0;

  /// Opaque caller tag forwarded verbatim into every observer callback this
  /// job produces (StageInfo/CacheEvent/PipelineEvent::tag). How a consumer
  /// sharing one session across independent callers — the compile server —
  /// attributes the merged event stream. 0 = untagged.
  std::uint64_t tag = 0;

  /// Client deadline: a job whose deadline has already passed when a worker
  /// picks it up is dropped *before any stage runs*, with an error outcome
  /// of kind ErrorKind::kDeadline — compiling into a result nobody is
  /// waiting for helps no one and starves live requests. A job that
  /// *started* in time runs to completion. Default (epoch) = no deadline.
  std::chrono::steady_clock::time_point deadline{};

  /// Invoked exactly once, on the worker thread, right after the job turns
  /// terminal (after wait() is already unblocked). Runs outside all session
  /// locks; it may submit follow-up jobs but must not block on this job.
  std::function<void(const ScenarioOutcome&)> on_complete;
};

/// Handle to one asynchronous compilation: a value type sharing state with
/// the session's job queue, so it stays valid — and its outcome reachable —
/// even after the session that spawned it is destroyed (destruction cancels
/// and finalizes every outstanding job first).
class CompileJob {
 public:
  /// Opaque shared job state (defined in session.cpp).
  struct State;

  /// An empty handle; valid() is false and every other accessor throws.
  CompileJob() = default;

  bool valid() const { return state_ != nullptr; }

  /// Non-blocking status probe.
  JobStatus poll() const;

  /// True once the job reached kDone or kCancelled.
  bool done() const;

  /// Blocks until the job is terminal and returns its outcome (idempotent —
  /// call as often as you like). A session worker waiting on a job of its
  /// own pool (a completion callback or observer submitting follow-up
  /// work) runs other queued jobs inline instead of blocking, so nested
  /// waits are deadlock-free on a one-worker session. One caveat on
  /// multi-worker sessions: do not wait, from inside a job's callbacks, on
  /// a follow-up with the *same options and hardware* as a job still
  /// running — the in-flight mapping dedup would make the follow-up wait
  /// on the very job hosting the callback. The returned reference lives as
  /// long as some CompileJob handle does, so on a temporary handle
  /// (`session.submit(...).wait()`) the outcome is returned by value.
  const ScenarioOutcome& wait() const&;
  ScenarioOutcome wait() &&;

  /// Requests cooperative cancellation. A still-queued job is finalized as
  /// cancelled immediately; a running one aborts at its next stage or GA
  /// generation boundary. Returns false when the job was already terminal
  /// (too late — the result stands).
  bool cancel() const;

  const std::string& label() const;
  int index() const;
  std::uint64_t tag() const;

 private:
  friend class CompilerSession;
  explicit CompileJob(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// Asynchronous compilation front-end over the pluggable pipeline. A session
/// owns one model, a resident worker pool (set_jobs), and two cache layers
/// built on the pluggable stores of src/cache/:
///
///  1. the partitioned Workload per distinct hardware fingerprint (in
///     process only — a Workload points into the session's graph and is
///     cheap to recompute), so an N-scenario sweep runs node partitioning
///     once instead of N times;
///  2. whole mapping results keyed by (workload fingerprint, options
///     fingerprint), so a sweep revisiting an identical configuration skips
///     the GA (and scheduling) entirely. This layer is an ordered tier
///     list: memory, then a disk-persisted artifact store when the
///     CacheConfig sets a dir, then peer daemons when it names peers. The
///     memory tier is the mapping claim map: a compile takes its key's
///     claim before any lookup, so identical in-flight compiles wait for
///     one owner. The owner walks disk, then remote, and stops at the first
///     hit; that hit is revalidated against the (cheap, re-partitioned)
///     workload, returns a result byte-identical to an in-memory hit, and
///     is promoted into the persistent tiers above it only. A fresh result
///     is stored into every tier. A corrupt or foreign artifact is a miss,
///     never an error.
///
/// The primitive is submit(): every scenario becomes a CompileJob on a
/// shared priority-aware queue drained by resident workers (they survive
/// across batches), with poll()/wait()/cancel() and a completion callback.
/// compile_all() is a thin submit-all + wait-all wrapper: outcomes keep
/// batch order and are bit-identical to the pre-job sequential path — and
/// to Compiler::compile() — at equal seeds. Scenarios are independent (each
/// compile owns its mapper and RNG), both caches are claim maps with
/// once-per-key production (the first scenario of a key produces, peers
/// block until it settles), and observer callbacks are serialized. The
/// session (like Compiler) must outlive the CompileResults it returns;
/// CompileJob handles themselves may outlive it.
class CompilerSession {
 public:
  /// Takes ownership of the graph (finalizing it if needed); `hw` is the
  /// default hardware for scenarios without an override. `cache` configures
  /// the persistent mapping-artifact tier; the default (no directory) keeps
  /// the session memory-only, byte-identical to its historical behavior.
  CompilerSession(Graph graph, HardwareConfig hw, CacheConfig cache = {});

  /// Cancels every outstanding job, finalizes it (waiters and completion
  /// callbacks observe a cancelled outcome), and joins the workers before
  /// returning. CompileJob handles held by callers stay valid afterwards.
  ~CompilerSession();

  CompilerSession(const CompilerSession&) = delete;
  CompilerSession& operator=(const CompilerSession&) = delete;

  const Graph& graph() const { return graph_; }
  const HardwareConfig& hardware() const { return hw_; }

  /// Identity of (graph, default hardware): the key scenarios without a
  /// hardware override cache under.
  std::uint64_t fingerprint() const;

  /// Observer receiving per-stage and cache-hit callbacks for every
  /// compilation this session runs (nullptr disables; not owned). Callbacks
  /// are serialized even when jobs run in parallel.
  void set_observer(PipelineObserver* observer);

  /// Resident worker count jobs run on. 1 (the default) keeps one worker —
  /// submitted jobs still run asynchronously, strictly FIFO; 0 means one
  /// worker per hardware thread. Takes effect immediately when no jobs are
  /// outstanding, otherwise at the next submit() after the queue drains.
  /// Parallel batches return outcomes in enqueue order, bit-identical to
  /// the sequential ones at equal seeds.
  void set_jobs(int jobs);
  int jobs() const;

  /// Submits one scenario as an asynchronous job on the shared queue and
  /// returns immediately. Failures (infeasible point, bad options,
  /// cancellation) are reported through the job's outcome, never thrown.
  /// Safe from any thread, including observer callbacks and completion
  /// callbacks of other jobs.
  CompileJob submit(Scenario scenario, JobOptions options = {});
  CompileJob submit(CompileOptions options, std::string label = {},
                    JobOptions job = {});

  /// Jobs submitted but not yet terminal.
  std::size_t outstanding_jobs() const;

  /// Requests cancellation of every outstanding job; returns how many were
  /// actually cancelled (already-terminal jobs don't count). The jobs
  /// finalize asynchronously; destruction or wait() observes them.
  std::size_t cancel_all_jobs();

  /// Blocks until no job is queued or running. (Jobs submitted concurrently
  /// with the wait may extend it.)
  void wait_jobs_idle();

  /// Batch wrapper over the job API: submits every scenario of `batch` and
  /// waits for all of them. Outcomes keep batch order; a scenario failure
  /// never throws — each infeasible or misconfigured scenario yields an
  /// error outcome and the rest of the batch completes.
  std::vector<ScenarioOutcome> compile_all(std::vector<Scenario> batch);

  /// Cache-aware single compilation against the session hardware, run
  /// synchronously on the calling thread (not through the job queue).
  /// Unlike the job API, the single-scenario forms throw on failure.
  CompileResult compile(const CompileOptions& options);

  /// Cache-aware single compilation of one scenario. `index` is forwarded
  /// to observer callbacks (batch position; -1 for ad-hoc runs). Safe to
  /// call concurrently from several threads.
  CompileResult compile(const Scenario& scenario, int index = -1);

  /// Simulates a result at the hardware it was compiled for.
  SimReport simulate(const CompileResult& result) const;

  /// The persistent-cache configuration this session was built with.
  const CacheConfig& cache_config() const { return cache_config_; }

  /// Distinct partitioned workloads currently cached (successful entries).
  std::size_t cached_workloads() const;
  /// Distinct mapping results currently cached in the memory tier.
  std::size_t cached_mappings() const;

  /// Session-lifetime cache hit counts (also surfaced per-hit through
  /// PipelineObserver::on_cache_hit). Mapping hits count every tier;
  /// mapping_tier_hits() isolates one tier's share.
  std::uint64_t workload_cache_hits() const { return workload_hits_; }
  std::uint64_t mapping_cache_hits() const { return mapping_hits_; }
  /// Mapping hits served by the tier named `tier` (cache_sources: "memory",
  /// "disk", "remote"); 0 for a tier this session does not have.
  std::uint64_t mapping_tier_hits(std::string_view tier) const;
  /// Freshly computed mapping results written into the cache (also
  /// surfaced per-store through PipelineObserver::on_cache_store).
  std::uint64_t mapping_cache_stores() const { return mapping_stores_; }

  /// The mapping tiers a session on `cache` has, in lookup order: always
  /// "memory" (the claim map), then "disk" / "remote" as configured.
  static std::vector<const char*> mapping_tier_names(const CacheConfig& cache);

  /// Per-tier (name, counters) rows of the mapping store, in
  /// mapping_tier_names() order: the claim map's, then each persistent
  /// tier's CacheStore::counters(). No row walks the disk: its entries/bytes
  /// are 0, because the directory may be shared by every session of a
  /// daemon and is walked once by whoever renders it (the daemon's stats
  /// request).
  std::vector<std::pair<const char*, CacheStoreStats>> mapping_tier_stats()
      const;

 private:
  class ObserverGate;

  /// The full-context compile every job and public compile() funnels into:
  /// `tag` flows to observer callbacks, `cancel` (nullable) is polled at
  /// stage boundaries and inside the GA.
  CompileResult compile_scenario(const Scenario& scenario, int index,
                                 std::uint64_t tag, const CancelToken* cancel);

  /// Creates (or, when idle and resized, re-creates) the resident pool.
  void ensure_pool_locked() PIMCOMP_REQUIRES(job_mutex_);

  /// Executes one job on a worker (or a helping waiter): runs the compile,
  /// classifies failures, finalizes the state, fires the callback.
  void run_job(const std::shared_ptr<CompileJob::State>& state);

  /// Returns the cached workload for `key`, partitioning it (and publishing
  /// it for concurrently waiting peers) on first use. On the partitioning
  /// path `*partition_seconds` receives the stage duration; cache hits
  /// leave it at zero.
  std::shared_ptr<const Workload> resolve_workload(std::uint64_t key,
                                                   const HardwareConfig& hw,
                                                   const std::string& label,
                                                   int index, std::uint64_t tag,
                                                   double* partition_seconds);

  /// The mapping-claim owner's lookup: walks the persistent tiers in order
  /// and turns the first hit into a usable CompileResult — it resolves the
  /// workload and revalidates the artifact against it. On a hit, `*served`
  /// receives the tier's index and `*artifact` its artifact. Returns
  /// std::nullopt on a miss, and — after erasing the offending entry — when
  /// the artifact cannot be trusted; either way the caller computes.
  std::optional<CompileResult> load_mapping(const Scenario& scenario,
                                            const HardwareConfig& hw,
                                            int index, std::uint64_t tag,
                                            std::uint64_t workload_key,
                                            std::uint64_t mapping_key,
                                            std::size_t* served,
                                            Json* artifact);

  /// Stores a freshly computed result, already settled in memory, into
  /// every persistent tier (encoded once, only when there is one); one
  /// on_cache_store event attributed to the deepest tier that newly took
  /// it.
  void store_mapping(std::uint64_t key, std::uint64_t workload_key,
                     const CompileResult& result, const std::string& label,
                     int index, std::uint64_t tag);
  void notify_cache_hit(const char* cache, const std::string& label, int index,
                        std::uint64_t tag, std::atomic<std::uint64_t>& counter,
                        const char* source);
  void notify_cache_store(const char* cache, const std::string& label,
                          int index, std::uint64_t tag, const char* source);

  Graph graph_;
  HardwareConfig hw_;
  std::uint64_t graph_fingerprint_ = 0;

  // RecursiveMutex: an observer callback may legally re-enter
  // session.compile() — or submit and wait on follow-up jobs — on its own
  // worker thread; cross-thread serialization still holds. Nested compiles
  // from a callback remain unsupported while jobs run on several workers
  // (the nested call could wait on a workload claim whose owner is blocked
  // on this mutex). submit() is always safe.
  PipelineObserver* observer_ PIMCOMP_GUARDED_BY(observer_mutex_) = nullptr;
  std::unique_ptr<ObserverGate> gate_;        // serializing forwarder
  mutable RecursiveMutex observer_mutex_;

  // Resident job workers plus the registry destruction/cancel_all walk.
  int jobs_ PIMCOMP_GUARDED_BY(job_mutex_) = 1;
  std::unique_ptr<ThreadPool> pool_ PIMCOMP_GUARDED_BY(job_mutex_);
  std::vector<std::weak_ptr<CompileJob::State>> job_registry_
      PIMCOMP_GUARDED_BY(job_mutex_);
  /// set by ~CompilerSession
  bool shutting_down_ PIMCOMP_GUARDED_BY(job_mutex_) = false;
  mutable Mutex job_mutex_;
  std::atomic<std::size_t> outstanding_jobs_{0};

  // Workload cache: one claim per fingerprint coordinates
  // once-per-fingerprint partitioning and, once settled, *is* the cache
  // entry — it holds the Workload, or a *deterministic* failure
  // (CapacityError/ConfigError) as the negative cache, since every retry
  // would fail identically. Unbounded: results point into their workloads.
  ClaimMap<Workload> workloads_;

  // Mapping cache, fastest tier first. The memory tier is the claim map:
  // one claim per mapping key dedups identical in-flight compiles and,
  // once settled, holds the result — a bounded FIFO (kMaxCachedMappings: a
  // long-lived session sweeping many distinct configurations must not
  // retain every result forever). A failed owner retires its claim, so
  // nothing negative is cached here. Then the persistent tiers: disk and
  // remote as cache_config_ enables them. The remote tier comes from the
  // cache/remote_tier.hpp factory seam, so core/ never names src/fleet/
  // types.
  ClaimMap<CompileResult> mappings_;
  CacheConfig cache_config_;
  std::vector<std::unique_ptr<CacheStore>> mapping_tiers_;

  std::atomic<std::uint64_t> workload_hits_{0};
  std::atomic<std::uint64_t> mapping_hits_{0};
  /// Hits served per persistent tier, indexed like mapping_tiers_.
  std::vector<std::atomic<std::uint64_t>> tier_hits_;
  std::atomic<std::uint64_t> mapping_stores_{0};
};

}  // namespace pimcomp

#endif  // PIMCOMP_CORE_SESSION_HPP
