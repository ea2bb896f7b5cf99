// Custom-network workflow: author a model with the builder, persist it in
// the PIMCOMP JSON graph format (the ONNX-stand-in frontend), reload it, and
// compile under both pipeline modes.
//
//   ./build/examples/custom_network [output.json]

#include <iostream>
#include <utility>
#include <vector>

#include "core/compile_report.hpp"
#include "core/session.hpp"
#include "graph/builder.hpp"
#include "graph/serialize.hpp"

int main(int argc, char** argv) {
  using namespace pimcomp;

  // A small branched detector backbone: stem, two inception-ish branches,
  // residual merge, classifier.
  GraphBuilder b("custom-backbone", {3, 64, 64});
  NodeId x = b.conv_relu(b.input(), 32, 3, 2, 1, "stem");
  NodeId left = b.conv_relu(x, 32, 1, 1, 0, "branch1x1");
  NodeId right = b.conv_relu(x, 16, 1, 1, 0, "branch3x3_reduce");
  right = b.conv_relu(right, 32, 3, 1, 1, "branch3x3");
  NodeId merged = b.eltwise_add(left, right, "merge");
  merged = b.max_pool(merged, 2, 2, 0, "pool");
  NodeId out = b.conv_relu(merged, 64, 3, 1, 1, "head");
  out = b.global_avg_pool(out, "gap");
  out = b.fc(b.flatten(out, "flatten"), 100, "fc");
  b.softmax(out, "prob");
  Graph graph = b.build();

  // Persist and reload through the JSON graph format.
  const std::string path = argc > 1 ? argv[1] : "/tmp/custom_backbone.json";
  save_graph(graph, path);
  Graph reloaded = load_graph(path);
  std::cout << "saved and reloaded '" << reloaded.name() << "' ("
            << reloaded.node_count() << " nodes) via " << path << "\n\n";

  // Both modes as one session batch: node partitioning runs once, the
  // cached workload is shared by the two scenarios, and the scenarios
  // compile on separate workers.
  CompilerSession session(std::move(reloaded), HardwareConfig::puma_default());
  session.set_jobs(0);  // one worker per hardware thread
  std::vector<Scenario> batch;
  for (PipelineMode mode :
       {PipelineMode::kHighThroughput, PipelineMode::kLowLatency}) {
    CompileOptions options;
    options.mode = mode;
    options.ga.population = 30;
    options.ga.generations = 30;
    batch.push_back(Scenario{to_string(mode), options, std::nullopt});
  }
  for (const ScenarioOutcome& outcome :
       session.compile_all(std::move(batch))) {
    if (!outcome.ok()) {
      std::cerr << "scenario '" << outcome.label << "' failed: "
                << outcome.error << '\n';
      continue;
    }
    const CompileResult& result = *outcome.result;
    const SimReport sim = session.simulate(result);
    std::cout << describe(result);
    std::cout << "  simulated " << to_string(result.options.mode) << ": "
              << to_us(sim.makespan) << " us, energy "
              << to_uj(sim.total_energy()) << " uJ\n\n";
  }
  return 0;
}
