// Google-benchmark micro-kernels: throughput of the individual compiler
// stages (partitioning, GA step, scheduling, simulation). These are the
// hot paths behind Table II's compile times. The JSON cases measure the
// artifact codec every disk, peer and wire hop goes through, and the disk
// case what one store into a populated cache directory costs.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>

#include "bench_common.hpp"
#include "cache/artifact.hpp"
#include "cache/disk_store.hpp"
#include "common/json.hpp"
#include "mapping/fitness.hpp"
#include "mapping/genetic_mapper.hpp"
#include "mapping/puma_mapper.hpp"
#include "schedule/ht_scheduler.hpp"
#include "schedule/ll_scheduler.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace pimcomp;

const Graph& resnet_graph() {
  static const Graph graph = zoo::resnet18(64);
  return graph;
}

const Workload& resnet_workload() {
  static const HardwareConfig hw =
      fit_core_count(resnet_graph(), HardwareConfig::puma_default(), 3.0);
  static const Workload workload(resnet_graph(), hw);
  return workload;
}

const MappingSolution& resnet_solution() {
  static const MappingSolution solution = [] {
    PumaMapper mapper;
    MapperOptions options;
    return mapper.map(resnet_workload(), options);
  }();
  return solution;
}

void BM_NodePartitioning(benchmark::State& state) {
  const Graph& graph = resnet_graph();
  const HardwareConfig hw =
      fit_core_count(graph, HardwareConfig::puma_default(), 3.0);
  for (auto _ : state) {
    Workload workload(graph, hw);
    benchmark::DoNotOptimize(workload.min_xbars_required());
  }
}
BENCHMARK(BM_NodePartitioning);

void BM_GraphConstructionZoo(benchmark::State& state) {
  for (auto _ : state) {
    Graph g = zoo::googlenet(64);
    benchmark::DoNotOptimize(g.node_count());
  }
}
BENCHMARK(BM_GraphConstructionZoo);

void BM_MapperRegistryCreate(benchmark::State& state) {
  const CompileOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MapperRegistry::create("puma", options));
  }
}
BENCHMARK(BM_MapperRegistryCreate);

// The session's workload-cache hot path: everything but node partitioning
// (compare against BM_NodePartitioning + this to see the cached saving).
void BM_SessionCachedCompile(benchmark::State& state) {
  const Graph& graph = resnet_graph();
  const HardwareConfig hw =
      fit_core_count(graph, HardwareConfig::puma_default(), 3.0);
  CompilerSession session(Graph(graph), hw);
  CompileOptions options;
  options.mapper = "puma";
  options.mode = PipelineMode::kHighThroughput;
  session.compile(options);  // warm the workload cache
  for (auto _ : state) {
    CompileResult result = session.compile(options);
    benchmark::DoNotOptimize(result.schedule.total_ops);
  }
}
BENCHMARK(BM_SessionCachedCompile);

void BM_HtFitnessEvaluation(benchmark::State& state) {
  const MappingSolution& solution = resnet_solution();
  const FitnessParams params =
      FitnessParams::from(resnet_workload().hardware(), 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ht_fitness(solution, params));
  }
}
BENCHMARK(BM_HtFitnessEvaluation);

void BM_LlFitnessEvaluation(benchmark::State& state) {
  const MappingSolution& solution = resnet_solution();
  const FitnessParams params =
      FitnessParams::from(resnet_workload().hardware(), 20);
  const LLFitnessContext context(resnet_workload());
  for (auto _ : state) {
    benchmark::DoNotOptimize(context.evaluate(solution, params));
  }
}
BENCHMARK(BM_LlFitnessEvaluation);

void BM_GaGeneration(benchmark::State& state) {
  GaConfig ga;
  ga.population = 20;
  ga.generations = static_cast<int>(state.range(0));
  for (auto _ : state) {
    GeneticMapper mapper(ga);
    MapperOptions options;
    MappingSolution s = mapper.map(resnet_workload(), options);
    benchmark::DoNotOptimize(s.total_xbars_used());
  }
}
BENCHMARK(BM_GaGeneration)->Arg(1)->Arg(8);

void BM_HtScheduling(benchmark::State& state) {
  const MappingSolution& solution = resnet_solution();
  for (auto _ : state) {
    Schedule s = schedule_ht(solution, {});
    benchmark::DoNotOptimize(s.total_ops);
  }
}
BENCHMARK(BM_HtScheduling);

void BM_LlScheduling(benchmark::State& state) {
  const MappingSolution& solution = resnet_solution();
  for (auto _ : state) {
    Schedule s = schedule_ll(solution, {});
    benchmark::DoNotOptimize(s.total_ops);
  }
}
BENCHMARK(BM_LlScheduling);

// Simulated ops per second on resnet18's PUMA mapping. The LL program
// carries far more SEND/RECV pairs than the HT one.
void BM_SimulatorThroughput(benchmark::State& state, PipelineMode mode) {
  const MappingSolution& solution = resnet_solution();
  const Schedule schedule = mode == PipelineMode::kLowLatency
                                ? schedule_ll(solution, {})
                                : schedule_ht(solution, {});
  SimOptions options;
  options.parallelism_degree = 20;
  options.mode = mode;
  const Simulator simulator(resnet_workload().hardware(), options);
  std::int64_t ops = 0;
  for (auto _ : state) {
    SimReport report = simulator.run(schedule);
    benchmark::DoNotOptimize(report.makespan);
    ops += schedule.total_ops;
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK_CAPTURE(BM_SimulatorThroughput, ht, PipelineMode::kHighThroughput);
BENCHMARK_CAPTURE(BM_SimulatorThroughput, ll, PipelineMode::kLowLatency);

// A fleet-sized cache artifact (resnet18 at input 32, LL, GA 8x4, P=4:
// about 500 KB of compact JSON), as a daemon stores and serves it.
const std::string& fleet_artifact_text() {
  static const std::string text = [] {
    Graph graph = zoo::resnet18(32);
    graph.finalize();
    const HardwareConfig hw =
        fit_core_count(graph, HardwareConfig::puma_default(), 3.0);
    CompileOptions options;
    options.mode = PipelineMode::kLowLatency;
    options.parallelism_degree = 4;
    options.ga.population = 8;
    options.ga.generations = 4;
    CompilerSession session(std::move(graph), hw);
    return compile_result_to_artifact(session.compile(options),
                                      session.fingerprint(), 1)
        .dump(-1);
  }();
  return text;
}

void BM_JsonParseArtifact(benchmark::State& state) {
  const std::string& text = fleet_artifact_text();
  for (auto _ : state) {
    Json artifact = Json::parse(text);
    benchmark::DoNotOptimize(artifact.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_JsonParseArtifact);

void BM_JsonDumpArtifact(benchmark::State& state) {
  const std::string& text = fleet_artifact_text();
  const Json artifact = Json::parse(text);
  for (auto _ : state) {
    std::string dumped = artifact.dump(-1);
    benchmark::DoNotOptimize(dumped.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_JsonDumpArtifact);

// One DiskStore::store of the fleet artifact into a directory that already
// holds state.range(0) small artifacts, at the default 256 MiB budget. The
// store instance lives across iterations, as a daemon's does; each stored
// file is erased untimed, so the directory never grows.
void BM_DiskStoreStore(benchmark::State& state) {
  namespace fs = std::filesystem;
  std::string dir =
      (fs::temp_directory_path() / "pimcomp-bench-XXXXXX").string();
  if (::mkdtemp(dir.data()) == nullptr) {
    state.SkipWithError("cannot create a temp directory");
    return;
  }
  CacheConfig config;
  config.dir = dir;
  DiskStore store(config);
  const auto residents = static_cast<std::uint64_t>(state.range(0));
  CacheEntry resident;
  resident.artifact = Json::object();
  // Spread over the 2-hex prefix directories, as fingerprints are.
  const auto spread = [](std::uint64_t n) {
    return n * 0x9e3779b97f4a7c15ull;
  };
  for (std::uint64_t n = 1; n <= residents; ++n) {
    store.store(spread(n), resident);
  }
  CacheEntry entry;
  entry.artifact = Json::parse(fleet_artifact_text());
  const std::uint64_t fresh_key = spread(residents + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.store(fresh_key, entry));
    state.PauseTiming();
    store.erase(fresh_key);
    state.ResumeTiming();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              fleet_artifact_text().size()));
  std::error_code ec;
  fs::remove_all(dir, ec);
}
BENCHMARK(BM_DiskStoreStore)->Arg(0)->Arg(800)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
