// Low-latency vision scenario: an intermittent camera stream needs every
// single frame answered fast, so compile ResNet-18 in LL mode (fine-grained
// inter-layer pipeline) and compare PIMCOMP's GA against the PUMA-like
// baseline.
//
//   ./build/examples/low_latency_vision [input_size]

#include <cstdlib>
#include <iostream>
#include <utility>
#include <vector>

#include "common/string_util.hpp"
#include "common/table.hpp"
#include "core/session.hpp"
#include "graph/zoo/zoo.hpp"

int main(int argc, char** argv) {
  using namespace pimcomp;

  const int input_size = argc > 1 ? std::atoi(argv[1]) : 64;
  Graph graph = zoo::resnet18(input_size);
  const HardwareConfig hw =
      fit_core_count(graph, HardwareConfig::puma_default(), 3.0);
  std::cout << "resnet18 @ " << input_size << ", " << hw.core_count
            << " cores\n\n";
  // Both mappers as one session batch over a shared partitioned workload,
  // compiled on parallel workers; the strategies are registry keys, so a
  // plugin mapper slots in by name.
  CompilerSession session(std::move(graph), hw);
  session.set_jobs(0);  // one worker per hardware thread
  std::vector<Scenario> batch;
  for (const std::string& mapper : {std::string("ga"), std::string("puma")}) {
    CompileOptions options;
    options.mode = PipelineMode::kLowLatency;
    options.parallelism_degree = 20;
    options.mapper = mapper;
    options.ga.population = 60;
    options.ga.generations = 80;
    batch.push_back(Scenario{mapper, options, std::nullopt});
  }

  Table table("LL latency: PIMCOMP GA vs PUMA-like baseline");
  table.set_header({"mapper", "latency (us)", "messages", "comm (kB)",
                    "leakage (uJ)", "active cores"});
  double latency_ga = 0.0, latency_puma = 0.0;
  for (const ScenarioOutcome& outcome :
       session.compile_all(std::move(batch))) {
    if (!outcome.ok()) {
      std::cerr << "scenario '" << outcome.label << "' failed: "
                << outcome.error << '\n';
      continue;
    }
    const CompileResult& result = *outcome.result;
    const SimReport sim = session.simulate(result);
    table.add_row({result.mapper_name, format_double(to_us(sim.makespan), 1),
                   std::to_string(sim.comm_messages),
                   format_double(static_cast<double>(sim.comm_bytes) / 1024, 0),
                   format_double(to_uj(sim.leakage_energy), 0),
                   std::to_string(sim.active_cores)});
    (result.options.mapper == "ga" ? latency_ga : latency_puma) =
        to_us(sim.makespan);
  }
  table.print();
  std::cout << "\nPIMCOMP speedup over PUMA-like: "
            << format_ratio(latency_puma / latency_ga) << '\n';
  return 0;
}
