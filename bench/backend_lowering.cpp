// Times the lowering stage in isolation: compile each benchmark network
// once (three classic stages, no backend), then repeatedly lower the
// compiled schedule through the `isa-json` backend and round-trip the
// resulting artifact through its JSON codec — the costs a lowering-enabled
// compile, the disk cache, and the serve protocol's v4 artifact frames add
// on top of a plain compile. A final column executes the stream through
// the `sim` backend against the simulator on the original schedule; the
// two reports must stay bit-identical (the bench aborts otherwise).
//
// PIMCOMP_BENCH_JSON=path writes the measurements as a machine-readable
// artifact (one row per model), same idiom as table2_compile_time.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "backend/backend.hpp"
#include "backend/instruction_stream.hpp"
#include "bench_common.hpp"
#include "common/json.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"  // seconds_since
#include "sim/simulator.hpp"

int main() {
  using namespace pimcomp;
  using namespace pimcomp::bench;
  const BenchConfig cfg = BenchConfig::from_env();
  constexpr int kReps = 5;

  Table table("Backend lowering: schedule -> InstructionStream, GA pop " +
              std::to_string(cfg.ga_population) + " x " +
              std::to_string(cfg.ga_generations) + " generations");
  table.set_header({"model", "ops", "cores", "lower (ms)", "to_json (ms)",
                    "from_json (ms)", "artifact KiB", "sim exec (ms)",
                    "legacy sim (ms)"});

  const std::unique_ptr<Backend> emitter = BackendRegistry::create("isa-json");
  const std::unique_ptr<Backend> executor = BackendRegistry::create("sim");
  Json rows = Json::array();

  for (const std::string& name : zoo::model_names()) {
    Graph graph = bench_model(name, cfg);
    const HardwareConfig hw = bench_hardware(graph);
    CompilerSession session(std::move(graph), hw);
    const CompileOptions options =
        bench_options(cfg, PipelineMode::kLowLatency, 4);
    const CompileResult result = session.compile(options);

    LowerInput input;
    input.schedule = &result.schedule;
    input.solution = &result.solution;
    input.graph = &session.graph();
    input.hardware = &hw;
    input.options = &result.options;

    // Best-of-kReps for each leg: lowering, then both codec directions.
    double lower_s = 0.0, encode_s = 0.0, decode_s = 0.0;
    InstructionStream stream;
    Json artifact;
    for (int rep = 0; rep < kReps; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      stream = emitter->lower(input);
      const double lower = seconds_since(t0);

      t0 = std::chrono::steady_clock::now();
      artifact = stream.to_json();
      const double encode = seconds_since(t0);

      t0 = std::chrono::steady_clock::now();
      const InstructionStream parsed = InstructionStream::from_json(artifact);
      const double decode = seconds_since(t0);
      // Defensive: the decoded stream must be the one encoded.
      if (parsed.schedule.total_ops != stream.schedule.total_ops) return 1;

      if (rep == 0 || lower < lower_s) lower_s = lower;
      if (rep == 0 || encode < encode_s) encode_s = encode;
      if (rep == 0 || decode < decode_s) decode_s = decode;
    }
    const std::size_t artifact_bytes = artifact.dump(-1).size();

    auto t0 = std::chrono::steady_clock::now();
    const SimReport backend_sim = executor->execute(stream, hw);
    const double exec_s = seconds_since(t0);

    SimOptions sim_options;
    sim_options.parallelism_degree = result.options.parallelism_degree;
    sim_options.mode = result.options.mode;
    t0 = std::chrono::steady_clock::now();
    const SimReport legacy = Simulator(hw, sim_options).run(result.schedule);
    const double legacy_s = seconds_since(t0);

    if (backend_sim.to_string() != legacy.to_string()) {
      std::cerr << name << ": sim backend diverged from the simulator\n";
      return 1;
    }

    table.add_row(
        {name, std::to_string(stream.schedule.total_ops),
         std::to_string(stream.schedule.core_count()),
         format_double(lower_s * 1e3, 2), format_double(encode_s * 1e3, 2),
         format_double(decode_s * 1e3, 2),
         format_double(static_cast<double>(artifact_bytes) / 1024.0, 1),
         format_double(exec_s * 1e3, 2), format_double(legacy_s * 1e3, 2)});

    Json row = Json::object();
    row["model"] = name;
    row["total_ops"] = stream.schedule.total_ops;
    row["cores"] = stream.schedule.core_count();
    row["lower_s"] = lower_s;
    row["to_json_s"] = encode_s;
    row["from_json_s"] = decode_s;
    row["artifact_bytes"] = static_cast<std::int64_t>(artifact_bytes);
    row["sim_execute_s"] = exec_s;
    row["legacy_sim_s"] = legacy_s;
    rows.push_back(std::move(row));
    std::cout << "." << std::flush;
  }
  std::cout << "\n\n";
  table.print();
  std::cout << "\nLowering and both codec directions are linear in the "
               "instruction count and stay far below one mapping "
               "generation; the sim backend matches the simulator on the "
               "original schedule bit for bit.\n";

  if (const char* json_path = std::getenv("PIMCOMP_BENCH_JSON")) {
    Json out = Json::object();
    Json config = Json::object();
    config["population"] = cfg.ga_population;
    config["generations"] = cfg.ga_generations;
    config["seed"] = static_cast<std::int64_t>(cfg.seed);
    config["full"] = cfg.full;
    config["reps"] = kReps;
    out["config"] = std::move(config);
    out["models"] = std::move(rows);
    try {
      json_to_file(out, json_path);
      std::cout << "wrote lowering timings to " << json_path << '\n';
    } catch (const std::exception& e) {
      std::cerr << "failed to write " << json_path << ": " << e.what()
                << '\n';
      return 1;
    }
  }
  return 0;
}
