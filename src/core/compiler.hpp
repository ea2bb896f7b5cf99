#ifndef PIMCOMP_CORE_COMPILER_HPP
#define PIMCOMP_CORE_COMPILER_HPP

#include <memory>
#include <string>

#include "arch/hardware_config.hpp"
#include "graph/graph.hpp"
#include "mapping/genetic_mapper.hpp"
#include "mapping/mapper.hpp"
#include "partition/workload.hpp"
#include "schedule/memory_allocator.hpp"
#include "schedule/operation.hpp"
#include "sim/sim_report.hpp"
#include "sim/simulator.hpp"

namespace pimcomp {

class PipelineObserver;     // core/pipeline.hpp
struct InstructionStream;   // backend/instruction_stream.hpp

/// Everything a user chooses for one compilation (paper Fig 3 left box +
/// "Application Scenario").
struct CompileOptions {
  PipelineMode mode = PipelineMode::kHighThroughput;
  int parallelism_degree = 20;
  MemoryPolicy memory_policy = MemoryPolicy::kAgReuse;

  /// MapperRegistry key of the replicating+mapping strategy. Built-ins:
  /// "ga", "puma", "greedy"; plugins may register more.
  std::string mapper = "ga";

  /// SchedulerRegistry key of the dataflow generator; empty derives it from
  /// `mode` ("ht" / "ll").
  std::string scheduler;

  /// BackendRegistry key of the lowering backend ("isa-json", "sim", ...).
  /// Empty (the default) skips the lowering stage entirely: the compile
  /// stops at the internal Schedule, exactly as before backends existed.
  /// Non-empty keys add a fourth pipeline stage whose InstructionStream
  /// artifact rides CompileResult::stream (and the persistent cache).
  std::string backend;

  GaConfig ga;                 ///< GA hyperparameters (mapper == "ga" only)
  int max_nodes_per_core = 8;  ///< chromosome bound max_node_num_in_core
  int ht_flush_windows = 2;    ///< HT global-memory flush period
  std::uint64_t seed = 1;

  /// Effective SchedulerRegistry key (explicit `scheduler`, else from mode).
  std::string scheduler_key() const;
};

/// Wall-clock seconds per compilation stage (paper Table II rows), recorded
/// by run_stage() (core/pipeline.hpp). A cached partitioning stage (see
/// CompilerSession) does not run and leaves `partitioning` at zero.
struct StageTimes {
  double partitioning = 0.0;
  double mapping = 0.0;  ///< replicating + core mapping
  double scheduling = 0.0;
  double lowering = 0.0;  ///< backend lowering (0 when no backend selected)
  double total() const {
    return partitioning + mapping + scheduling + lowering;
  }
};

/// The output of one compilation: the mapping decision, the per-core
/// operation streams, stage timings, and the mapper's own fitness estimate.
/// Holds shared ownership of the workload the solution points into.
struct CompileResult {
  std::shared_ptr<const Workload> workload;
  MappingSolution solution;
  Schedule schedule;
  CompileOptions options;
  StageTimes stage_times;
  double estimated_fitness = 0.0;  ///< mapper objective (ps, lower = better)
  std::string mapper_name;
  GaStats ga_stats;  ///< populated when the mapper reports convergence

  /// The lowered instruction-stream artifact, when options.backend selected
  /// a lowering backend (nullptr otherwise). Shared: cache tiers and wire
  /// frames hand out the same immutable stream without copying it.
  std::shared_ptr<const InstructionStream> stream;
};

/// PIMCOMP's compiler driver: node partitioning -> weight replicating +
/// core mapping -> dataflow scheduling (paper Fig 3), each stage resolved
/// through the registries in core/pipeline.hpp. Construct once per
/// (model, hardware) pair and call compile() per scenario; for multi-
/// scenario batches prefer CompilerSession (core/session.hpp), which reuses
/// the partitioned workload across scenarios.
class Compiler {
 public:
  /// Takes ownership of the graph; finalizes it if needed.
  Compiler(Graph graph, HardwareConfig hw);

  const Graph& graph() const { return graph_; }
  const HardwareConfig& hardware() const { return hw_; }

  /// Runs the full backend. Throws CapacityError when the model cannot fit
  /// the configured core count and ConfigError for unknown registry keys.
  /// `observer` (optional) receives per-stage begin/end callbacks.
  CompileResult compile(const CompileOptions& options,
                        PipelineObserver* observer = nullptr) const;

  /// Convenience: simulate a compiled result on the cycle-accurate
  /// simulator at its compiled parallelism degree.
  SimReport simulate(const CompileResult& result) const;

 private:
  Graph graph_;
  HardwareConfig hw_;
};

/// Picks a core count that fits the model with `headroom` slack for
/// replication, rounded to whole chips (helper for examples/benches).
/// Finalized graphs are measured in place; only unfinalized inputs pay for
/// a finalizing copy.
HardwareConfig fit_core_count(const Graph& graph, HardwareConfig hw,
                              double headroom = 3.0);

}  // namespace pimcomp

#endif  // PIMCOMP_CORE_COMPILER_HPP
