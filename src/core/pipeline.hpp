#ifndef PIMCOMP_CORE_PIPELINE_HPP
#define PIMCOMP_CORE_PIPELINE_HPP

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "core/compiler.hpp"
#include "mapping/fitness.hpp"
#include "mapping/mapper.hpp"
#include "schedule/operation.hpp"

namespace pimcomp {

/// Names of the built-in pipeline stages, in execution order. Observers key
/// on these strings; StageTimes rows map to them one-to-one.
namespace stage_names {
inline constexpr const char kPartitioning[] = "partitioning";
inline constexpr const char kMapping[] = "mapping";
inline constexpr const char kScheduling[] = "scheduling";
inline constexpr const char kLowering[] = "lowering";  ///< backend lowering
}  // namespace stage_names

/// Wall-clock seconds elapsed since `start` — the clock run_stage() times
/// every stage with.
inline double seconds_since(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// What an observer learns about one stage execution.
struct StageInfo {
  std::string stage;        ///< stage name (see stage_names)
  std::string scenario;     ///< label of the scenario ("" when single-shot)
  int scenario_index = -1;  ///< position in the session batch (-1 single-shot)
  double seconds = 0.0;     ///< wall-clock duration (on_stage_end only)
  std::uint64_t tag = 0;    ///< caller-chosen job tag (0 = untagged; see
                            ///< JobOptions::tag in core/session.hpp)
};

/// Names of CompilerSession's two cache layers, as reported in CacheEvent.
namespace cache_names {
inline constexpr const char kWorkload[] = "workload";  ///< partitioned Workload
inline constexpr const char kMapping[] = "mapping";    ///< full CompileResult
}  // namespace cache_names

/// One cache hit (or store) inside a CompilerSession: a scenario reused a
/// partitioned workload or a whole mapping result instead of recomputing it
/// — or persisted a freshly computed one.
struct CacheEvent {
  std::string cache;        ///< cache layer (see cache_names)
  std::string scenario;     ///< label of the scenario ("" when single-shot)
  int scenario_index = -1;  ///< position in the session batch (-1 single-shot)
  std::uint64_t hits = 0;   ///< session-lifetime hit count of that cache
                            ///< (store count for on_cache_store)
  std::uint64_t tag = 0;    ///< caller-chosen job tag (0 = untagged)
  std::string source;       ///< tier that served/accepted the entry
                            ///< (cache_sources: "memory" / "disk" / "remote")
};

/// Per-stage callbacks around the pipeline's stages. Default methods are
/// no-ops so observers override only what they need. StageTimes is
/// recorded by the same helper (run_stage) that fires these callbacks.
/// Callbacks are always paired: on_stage_end fires whenever on_stage_begin
/// was called — even when the stage or on_stage_begin itself throws — and
/// the exception then propagates.
///
/// Thread safety: a parallel CompilerSession (set_jobs > 1) serializes every
/// callback behind one mutex, so observer implementations never run
/// concurrently with themselves — but callbacks from different scenarios
/// interleave in nondeterministic order.
class PipelineObserver {
 public:
  virtual ~PipelineObserver() = default;
  virtual void on_stage_begin(const StageInfo& info) { (void)info; }
  virtual void on_stage_end(const StageInfo& info) { (void)info; }
  /// Fired by CompilerSession when one of its caches satisfies a scenario;
  /// `event.source` says which tier (in-process memory or the persistent
  /// disk store) produced the artifact.
  virtual void on_cache_hit(const CacheEvent& event) { (void)event; }
  /// Fired by CompilerSession when a freshly computed mapping result is
  /// written into its cache; `event.source` is the deepest tier that newly
  /// accepted it ("disk" when the persistent tier took the artifact).
  virtual void on_cache_store(const CacheEvent& event) { (void)event; }
};

/// Runs one stage: polls `cancel` (nullptr = not cancellable; a cancelled
/// compilation throws CancelledError before the stage begins), fires
/// on_stage_begin, runs `body`, then fires on_stage_end with the elapsed
/// seconds and adds them to `*seconds`. When on_stage_begin or `body`
/// throws, `on_failure` sees the exception before the paired on_stage_end
/// fires, and the exception propagates. `observer` may be nullptr.
template <typename Body,
          typename OnFailure = void (*)(const std::exception_ptr&)>
void run_stage(
    StageInfo info, PipelineObserver* observer, const CancelToken* cancel,
    double* seconds, Body&& body,
    OnFailure&& on_failure = [](const std::exception_ptr&) {}) {
  if (cancel != nullptr) cancel->throw_if_cancelled(info.stage.c_str());
  auto t0 = std::chrono::steady_clock::now();
  try {
    if (observer != nullptr) observer->on_stage_begin(info);
    t0 = std::chrono::steady_clock::now();
    body();
  } catch (...) {
    on_failure(std::current_exception());
    info.seconds = seconds_since(t0);
    if (observer != nullptr) observer->on_stage_end(info);
    throw;
  }
  info.seconds = seconds_since(t0);
  *seconds += info.seconds;
  if (observer != nullptr) observer->on_stage_end(info);
}

/// The caller's inputs to one compilation.
struct PipelineInputs {
  const Graph* graph = nullptr;
  const HardwareConfig* hardware = nullptr;
  const CompileOptions* options = nullptr;

  /// Scenario identity forwarded to observer callbacks.
  std::string scenario_label;
  int scenario_index = -1;

  /// Caller-chosen job tag forwarded verbatim to observer callbacks (how
  /// the compile server routes a shared session's event stream back to the
  /// request that owns each job). 0 = untagged.
  std::uint64_t tag = 0;

  /// Cooperative cancellation flag, polled by run_pipeline() before every
  /// stage and by the GA between generations (not owned; nullptr = the
  /// compilation cannot be cancelled). A cancelled compilation throws
  /// CancelledError instead of producing a result.
  const CancelToken* cancel = nullptr;

  /// Pre-seeding the partitioned workload (CompilerSession's workload
  /// cache) skips the partitioning stage; `partition_seconds` is what that
  /// partitioning cost, reported in StageTimes::partitioning.
  std::shared_ptr<const Workload> workload;
  double partition_seconds = 0.0;

  /// Fingerprint binding stamped into the lowered stream (the session's
  /// mapping cache key; 0 when the caller carries no cache identity).
  std::uint64_t stream_binding = 0;
};

/// A mode's dataflow generator paired with its fitness estimator (the mapper
/// objective of paper Figs 5/6 belongs to the same mode as the dataflow it
/// predicts). Implementations self-register with SchedulerRegistry.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Strategy name for reports ("ht-dataflow", "ll-dataflow", ...).
  virtual std::string name() const = 0;

  /// Generates the per-core operation streams for a mapped solution.
  virtual Schedule build(const MappingSolution& solution,
                         const CompileOptions& options) const = 0;

  /// Mode-specific mapper objective on a finished solution (picoseconds,
  /// lower is better).
  virtual double estimate_fitness(const Workload& workload,
                                  const MappingSolution& solution,
                                  const FitnessParams& params) const = 0;
};

/// String-keyed factory of replicating+mapping strategies. Implementations
/// register from their own translation unit via PIMCOMP_REGISTER_MAPPER, so
/// adding a mapper never touches src/core/.
class MapperRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Mapper>(const CompileOptions&)>;

  /// Registers a factory under `key`; returns true (static-init friendly).
  /// Throws ConfigError when the key is already taken.
  static bool add(const std::string& key, Factory factory);

  /// Instantiates the mapper registered under `key`; throws ConfigError for
  /// unknown keys, listing what is registered.
  static std::unique_ptr<Mapper> create(const std::string& key,
                                        const CompileOptions& options);

  static bool contains(const std::string& key);

  /// Registered keys, sorted (the CLI's --list-mappers).
  static std::vector<std::string> keys();
};

/// String-keyed factory of dataflow schedulers ("ht", "ll", ...).
class SchedulerRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Scheduler>()>;

  static bool add(const std::string& key, Factory factory);
  static std::unique_ptr<Scheduler> create(const std::string& key);
  static bool contains(const std::string& key);
  static std::vector<std::string> keys();
};

#define PIMCOMP_PIPELINE_CONCAT_INNER(a, b) a##b
#define PIMCOMP_PIPELINE_CONCAT(a, b) PIMCOMP_PIPELINE_CONCAT_INNER(a, b)

/// Self-registration hooks: one invocation at namespace scope in the
/// strategy's own .cpp registers it for the whole program.
#define PIMCOMP_REGISTER_MAPPER(key, factory)                       \
  [[maybe_unused]] static const bool PIMCOMP_PIPELINE_CONCAT(       \
      pimcomp_mapper_registered_, __COUNTER__) =                    \
      ::pimcomp::MapperRegistry::add(key, factory)

#define PIMCOMP_REGISTER_SCHEDULER(key, factory)                    \
  [[maybe_unused]] static const bool PIMCOMP_PIPELINE_CONCAT(       \
      pimcomp_scheduler_registered_, __COUNTER__) =                 \
      ::pimcomp::SchedulerRegistry::add(key, factory)

/// Resolves every registry key of `options` (mapper, scheduler, and the
/// backend when one is selected) without instantiating anything: the
/// fail-fast check run_pipeline() performs, callable before paying for
/// node partitioning. Throws ConfigError for unknown keys (and reports any
/// duplicate registrations recorded at static initialization).
void validate_strategies(const CompileOptions& options);

/// Compiles in the paper's order (Fig 3): node partitioning (skipped when
/// the workload is pre-seeded), weight replicating + core mapping with the
/// mode's fitness estimate, dataflow scheduling, and — when
/// options->backend is non-empty — lowering. Every registry key resolves
/// before any stage runs (ConfigError for unknown keys). Each stage goes
/// through run_stage(). `observer` may be nullptr.
CompileResult run_pipeline(PipelineInputs in, PipelineObserver* observer);

}  // namespace pimcomp

#endif  // PIMCOMP_CORE_PIPELINE_HPP
