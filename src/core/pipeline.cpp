#include "core/pipeline.hpp"

#include <optional>
#include <utility>

// pimcomp-layer-exempt: run_pipeline resolves the lowering backend
// through BackendRegistry's interface header only; concrete backends stay
// above core and register themselves.
#include "backend/backend.hpp"
#include "core/registry.hpp"

namespace pimcomp {

namespace {

// The registry plumbing itself (ordered map behind a Meyers singleton,
// static-init-safe conflict recording) lives in core/registry.hpp so
// BackendRegistry (src/backend/) shares it verbatim.

detail::RegistryStore<MapperRegistry::Factory>& mapper_store() {
  // pimcomp-lint: internally-synchronized (RegistryStore owns a Mutex)
  static detail::RegistryStore<MapperRegistry::Factory> store;
  return store;
}

detail::RegistryStore<SchedulerRegistry::Factory>& scheduler_store() {
  // pimcomp-lint: internally-synchronized (RegistryStore owns a Mutex)
  static detail::RegistryStore<SchedulerRegistry::Factory> store;
  return store;
}

}  // namespace

bool MapperRegistry::add(const std::string& key, Factory factory) {
  return mapper_store().add("mapper", key, std::move(factory));
}

std::unique_ptr<Mapper> MapperRegistry::create(const std::string& key,
                                               const CompileOptions& options) {
  return mapper_store().get("mapper", key)(options);
}

bool MapperRegistry::contains(const std::string& key) {
  return mapper_store().contains(key);
}

std::vector<std::string> MapperRegistry::keys() {
  return mapper_store().keys();
}

bool SchedulerRegistry::add(const std::string& key, Factory factory) {
  return scheduler_store().add("scheduler", key, std::move(factory));
}

std::unique_ptr<Scheduler> SchedulerRegistry::create(const std::string& key) {
  return scheduler_store().get("scheduler", key)();
}

bool SchedulerRegistry::contains(const std::string& key) {
  return scheduler_store().contains(key);
}

std::vector<std::string> SchedulerRegistry::keys() {
  return scheduler_store().keys();
}

void validate_strategies(const CompileOptions& options) {
  // Resolve every key without invoking the factories: same error messages
  // as run_pipeline(), none of the instantiation cost.
  mapper_store().get("mapper", options.mapper);
  scheduler_store().get("scheduler", options.scheduler_key());
  if (!options.backend.empty()) {
    // BackendRegistry::create would instantiate, so only a missing key
    // goes through it, for run_pipeline()'s error message.
    if (!BackendRegistry::contains(options.backend)) {
      BackendRegistry::create(options.backend);  // throws with the key list
    }
  }
}

CompileResult run_pipeline(PipelineInputs in, PipelineObserver* observer) {
  const CompileOptions& options = *in.options;

  // Every registry key resolves up front, so a bad key (the optional
  // backend's included) fails before any stage — in particular before
  // paying for node partitioning. The scheduler serves two stages: mapping
  // uses its fitness estimator, scheduling its dataflow generator.
  const std::unique_ptr<Mapper> mapper =
      MapperRegistry::create(options.mapper, options);
  const std::unique_ptr<Scheduler> scheduler =
      SchedulerRegistry::create(options.scheduler_key());
  std::unique_ptr<Backend> backend;
  if (!options.backend.empty()) {
    backend = BackendRegistry::create(options.backend);
  }

  const auto stage = [&](const char* name) {
    return StageInfo{name, in.scenario_label, in.scenario_index, 0.0, in.tag};
  };
  StageTimes times;
  times.partitioning = in.partition_seconds;

  // Node partitioning (paper §IV-B), unless the caller pre-seeded it.
  std::shared_ptr<const Workload> workload = std::move(in.workload);
  if (!workload) {
    run_stage(stage(stage_names::kPartitioning), observer, in.cancel,
              &times.partitioning, [&] {
                workload =
                    std::make_shared<const Workload>(*in.graph, *in.hardware);
              });
  }

  // Weight replicating + core mapping through the registered strategy,
  // plus the mode's objective estimate on the final solution.
  std::optional<MappingSolution> solution;
  double fitness = 0.0;
  run_stage(stage(stage_names::kMapping), observer, in.cancel, &times.mapping,
            [&] {
              MapperOptions mapper_options;
              mapper_options.mode = options.mode;
              mapper_options.parallelism_degree = options.parallelism_degree;
              mapper_options.max_nodes_per_core = options.max_nodes_per_core;
              mapper_options.seed = options.seed;
              mapper_options.cancel = in.cancel;
              solution.emplace(mapper->map(*workload, mapper_options));
              fitness = scheduler->estimate_fitness(
                  *workload, *solution,
                  FitnessParams::from(workload->hardware(),
                                      options.parallelism_degree));
            });
  const GaStats* ga_stats = mapper->convergence();
  CompileResult result{std::move(workload),
                       std::move(*solution),
                       Schedule{},
                       options,
                       StageTimes{},
                       fitness,
                       mapper->name(),
                       ga_stats != nullptr ? *ga_stats : GaStats{},
                       nullptr};

  // Dataflow scheduling through the registered generator.
  run_stage(stage(stage_names::kScheduling), observer, in.cancel,
            &times.scheduling, [&] {
              result.schedule = scheduler->build(result.solution, options);
            });

  // Lowering into the instruction-stream artifact, when a backend is
  // selected.
  if (backend) {
    run_stage(stage(stage_names::kLowering), observer, in.cancel,
              &times.lowering, [&] {
                LowerInput input;
                input.schedule = &result.schedule;
                input.solution = &result.solution;
                input.graph = in.graph;
                input.hardware = in.hardware;
                input.options = &options;
                input.mapping_key = in.stream_binding;
                result.stream = std::make_shared<const InstructionStream>(
                    backend->lower(input));
              });
  }

  result.stage_times = times;
  return result;
}

}  // namespace pimcomp
