#include "core/compiler.hpp"

#include "core/pipeline.hpp"
#include "core/session.hpp"

namespace pimcomp {

std::string CompileOptions::scheduler_key() const {
  if (!scheduler.empty()) return scheduler;
  return mode == PipelineMode::kHighThroughput ? "ht" : "ll";
}

Compiler::Compiler(Graph graph, HardwareConfig hw)
    : graph_(std::move(graph)), hw_(hw) {
  if (!graph_.finalized()) graph_.finalize();
  hw_.validate();
}

CompileResult Compiler::compile(const CompileOptions& options,
                                PipelineObserver* observer) const {
  PipelineContext ctx;
  ctx.graph = &graph_;
  ctx.hardware = &hw_;
  ctx.options = &options;
  if (!options.backend.empty()) {
    // Bind the lowered stream to the same cache identity a CompilerSession
    // would file this compilation under, so artifacts emitted through the
    // low-level Compiler and through a cached session are interchangeable.
    ctx.stream_binding = combine_fingerprints(
        combine_fingerprints(fingerprint(graph_), fingerprint(hw_)),
        fingerprint(options));
  }
  return run_pipeline(std::move(ctx), observer);
}

SimReport Compiler::simulate(const CompileResult& result) const {
  SimOptions sim_options;
  sim_options.parallelism_degree = result.options.parallelism_degree;
  sim_options.mode = result.options.mode;
  return Simulator(hw_, sim_options).run(result.schedule);
}

HardwareConfig fit_core_count(const Graph& graph, HardwareConfig hw,
                              double headroom) {
  hw.validate();
  std::int64_t min_xbars = 0;
  if (graph.finalized()) {
    min_xbars = Workload::min_xbars_for(graph, hw);
  } else {
    Graph copy = graph;
    copy.finalize();
    min_xbars = Workload::min_xbars_for(copy, hw);
  }
  hw.core_count = Workload::recommend_cores(min_xbars, hw, headroom);
  return hw;
}

}  // namespace pimcomp
