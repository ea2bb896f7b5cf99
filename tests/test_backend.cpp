// The backend subsystem's acceptance surface: the registry ships the two
// built-in backends, every zoo model lowers into an instruction stream that
// round-trips its JSON artifact losslessly, tampered or foreign artifacts
// are rejected, the `sim` backend's reports are bit-identical to the
// simulator's on the source schedule and its execution errors surface as
// SimulationError, lowered streams survive the disk cache byte-identically,
// and two small models' artifact fingerprints are pinned as goldens (the
// kIsaVersion bump protocol, mirroring tests/test_fingerprint_goldens.cpp).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "backend/instruction_stream.hpp"
#include "cache/cache_store.hpp"
#include "common/error.hpp"
#include "core/session.hpp"
#include "graph/builder.hpp"
#include "graph/zoo/zoo.hpp"
#include "sim/simulator.hpp"

namespace pimcomp {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  TempDir() {
    std::string pattern =
        (fs::temp_directory_path() / "pimcomp-backend-XXXXXX").string();
    char* made = ::mkdtemp(pattern.data());
    EXPECT_NE(made, nullptr);
    path = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

/// Smallest feasible zoo resolution per model (input-size constraints).
int small_input(const std::string& model) {
  return model == "inception-v3" ? 96 : 32;
}

CompileOptions tiny_options(const std::string& backend) {
  CompileOptions options;
  options.mode = PipelineMode::kLowLatency;
  options.ga.population = 4;
  options.ga.generations = 2;
  options.seed = 1;
  options.backend = backend;
  return options;
}

Graph small_cnn() {
  GraphBuilder b("backend-cnn", {3, 16, 16});
  NodeId x = b.input();
  x = b.conv_relu(x, 8, 3, /*stride=*/1, /*padding=*/1, "conv1");
  x = b.max_pool(x, 2, 2, 0, "pool1");
  x = b.conv_relu(x, 16, 3, 1, 1, "conv2");
  x = b.fc(b.flatten(x, "flatten"), 10, "classifier");
  b.softmax(x, "prob");
  return b.build();
}

HardwareConfig fitted(const Graph& graph) {
  return fit_core_count(graph, HardwareConfig::puma_default(),
                        /*headroom=*/3.0);
}

CompileResult compile_small(const std::string& backend) {
  Graph graph = small_cnn();
  HardwareConfig hw = fitted(graph);
  return Compiler(std::move(graph), hw).compile(tiny_options(backend));
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(BackendRegistry, ShipsTheBuiltinBackends) {
  EXPECT_TRUE(BackendRegistry::contains("isa-json"));
  EXPECT_TRUE(BackendRegistry::contains("sim"));
  const std::vector<std::string> keys = BackendRegistry::keys();
  EXPECT_GE(keys.size(), 2u);

  try {
    BackendRegistry::create("no-such-backend");
    FAIL() << "unknown backend key must throw";
  } catch (const ConfigError& e) {
    // The error must teach the fix: it lists what is registered.
    EXPECT_NE(std::string(e.what()).find("isa-json"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("sim"), std::string::npos);
  }
}

TEST(BackendRegistry, OnlySimExecutes) {
  EXPECT_FALSE(BackendRegistry::create("isa-json")->can_execute());
  EXPECT_TRUE(BackendRegistry::create("sim")->can_execute());

  const CompileResult result = compile_small("isa-json");
  ASSERT_NE(result.stream, nullptr);
  EXPECT_THROW(BackendRegistry::create("isa-json")
                   ->execute(*result.stream, HardwareConfig::puma_default()),
               ConfigError);
}

// ---------------------------------------------------------------------------
// Lowering and round-trips.
// ---------------------------------------------------------------------------

TEST(InstructionStream, CompilerWithoutBackendEmitsNoStream) {
  const CompileResult result = compile_small("");
  EXPECT_EQ(result.stream, nullptr);
  EXPECT_EQ(result.stage_times.lowering, 0.0);
}

TEST(InstructionStream, EveryZooModelLowersAndRoundTrips) {
  for (const std::string& model : zoo::model_names()) {
    SCOPED_TRACE(model);
    Graph graph = zoo::build(model, small_input(model));
    HardwareConfig hw = fitted(graph);
    const CompileResult result =
        Compiler(std::move(graph), hw).compile(tiny_options("isa-json"));

    ASSERT_NE(result.stream, nullptr);
    const InstructionStream& stream = *result.stream;
    EXPECT_EQ(stream.backend, "isa-json");
    EXPECT_NE(stream.mapping_key, 0u);
    EXPECT_EQ(stream.schedule.core_count(), result.schedule.core_count());
    EXPECT_EQ(stream.schedule.total_ops, result.schedule.total_ops);
    EXPECT_GT(result.stage_times.lowering, 0.0);

    // JSON round-trip: re-parsing (which re-validates) reproduces the
    // exact artifact, so the content fingerprint is stable across hops.
    const Json artifact = stream.to_json();
    const InstructionStream reparsed =
        InstructionStream::from_json(artifact, stream.mapping_key);
    EXPECT_EQ(reparsed.to_json().dump(-1), artifact.dump(-1));
    EXPECT_EQ(reparsed.content_fingerprint(), stream.content_fingerprint());

    // The artifact carries the scheduler's Operations losslessly: the
    // decoded stream is the lowering of the source schedule itself.
    const InstructionStream relowered = InstructionStream::from_schedule(
        result.schedule, stream.mode, stream.parallelism_degree,
        stream.backend, stream.mapping_key);
    EXPECT_EQ(relowered.content_fingerprint(), reparsed.content_fingerprint());
  }
}

TEST(InstructionStream, RejectsAForeignMappingKey) {
  const CompileResult result = compile_small("isa-json");
  ASSERT_NE(result.stream, nullptr);
  const Json artifact = result.stream->to_json();

  EXPECT_NO_THROW(
      InstructionStream::from_json(artifact, result.stream->mapping_key));
  try {
    InstructionStream::from_json(artifact,
                                 result.stream->mapping_key ^ 0xdeadbeefULL);
    FAIL() << "a stream bound to another compilation must be rejected";
  } catch (const InstructionStreamError& e) {
    EXPECT_NE(std::string(e.what()).find("bound to mapping"),
              std::string::npos);
  }
}

TEST(InstructionStream, ValidationCatchesTampering) {
  const CompileResult result = compile_small("isa-json");
  ASSERT_NE(result.stream, nullptr);
  const Json artifact = result.stream->to_json();

  {  // Wrong ISA version: a future artifact must not half-parse.
    Json tampered = artifact;
    tampered["isa"] = kIsaVersion + 1;
    EXPECT_THROW(InstructionStream::from_json(tampered),
                 InstructionStreamError);
  }
  {  // total_ops disagreeing with the per-core programs.
    Json tampered = artifact;
    tampered["total_ops"] = tampered.at("total_ops").as_int() + 1;
    EXPECT_THROW(InstructionStream::from_json(tampered),
                 InstructionStreamError);
  }
  {  // An MVM waiting on an AG outside the declared domain.
    Json tampered = artifact;
    tampered["ag_count"] = 0;
    EXPECT_THROW(InstructionStream::from_json(tampered),
                 InstructionStreamError);
  }
  {  // A mnemonic outside the ISA.
    Json tampered = artifact;
    tampered["cores"] =
        Json::parse(R"([[["JMP", 0, 0, 0, 0, 0, 0, 0, 0, 0]]])");
    try {
      InstructionStream::from_json(tampered);
      FAIL() << "an unknown mnemonic must be rejected";
    } catch (const InstructionStreamError& e) {
      EXPECT_NE(std::string(e.what()).find("JMP"), std::string::npos);
    }
  }
  {  // Unparseable binding.
    Json tampered = artifact;
    tampered["mapping_key"] = "not-hex";
    EXPECT_THROW(InstructionStream::from_json(tampered),
                 InstructionStreamError);
  }
}

// ---------------------------------------------------------------------------
// The sim backend is the simulator, bit for bit.
// ---------------------------------------------------------------------------

TEST(SimBackend, BitIdenticalWithLegacySimulatorOnEveryZooModel) {
  for (const std::string& model : zoo::model_names()) {
    SCOPED_TRACE(model);
    Graph graph = zoo::build(model, small_input(model));
    HardwareConfig hw = fitted(graph);
    const CompileResult result =
        Compiler(std::move(graph), hw).compile(tiny_options("sim"));
    ASSERT_NE(result.stream, nullptr);
    EXPECT_EQ(result.stream->backend, "sim");

    SimOptions sim_options;
    sim_options.parallelism_degree = result.options.parallelism_degree;
    sim_options.mode = result.options.mode;
    const SimReport legacy = Simulator(hw, sim_options).run(result.schedule);
    const SimReport replay =
        BackendRegistry::create("sim")->execute(*result.stream, hw);

    // EXPECT_EQ (not NEAR) throughout: the stream must carry every field
    // the engine reads, so every report field — including the accumulated
    // energies — matches exactly.
    EXPECT_EQ(replay.makespan, legacy.makespan);
    EXPECT_EQ(replay.core_finish, legacy.core_finish);
    EXPECT_EQ(replay.core_busy, legacy.core_busy);
    EXPECT_EQ(replay.dynamic_energy.mvm, legacy.dynamic_energy.mvm);
    EXPECT_EQ(replay.dynamic_energy.vfu, legacy.dynamic_energy.vfu);
    EXPECT_EQ(replay.dynamic_energy.local_memory,
              legacy.dynamic_energy.local_memory);
    EXPECT_EQ(replay.dynamic_energy.global_memory,
              legacy.dynamic_energy.global_memory);
    EXPECT_EQ(replay.dynamic_energy.noc, legacy.dynamic_energy.noc);
    EXPECT_EQ(replay.leakage_energy, legacy.leakage_energy);
    EXPECT_EQ(replay.avg_local_memory_bytes, legacy.avg_local_memory_bytes);
    EXPECT_EQ(replay.peak_local_memory_bytes,
              legacy.peak_local_memory_bytes);
    EXPECT_EQ(replay.global_traffic_bytes, legacy.global_traffic_bytes);
    EXPECT_EQ(replay.spill_traffic_bytes, legacy.spill_traffic_bytes);
    EXPECT_EQ(replay.mvm_ops, legacy.mvm_ops);
    EXPECT_EQ(replay.vfu_ops, legacy.vfu_ops);
    EXPECT_EQ(replay.comm_messages, legacy.comm_messages);
    EXPECT_EQ(replay.comm_bytes, legacy.comm_bytes);
    EXPECT_EQ(replay.active_cores, legacy.active_cores);
  }
}

/// Wraps hand-written programs in a schedule whose lowering validate()s
/// (per-core metadata sized to the core count).
Schedule comm_schedule(std::vector<std::vector<Operation>> programs) {
  Schedule schedule;
  schedule.programs = std::move(programs);
  for (const std::vector<Operation>& program : schedule.programs) {
    schedule.total_ops += static_cast<std::int64_t>(program.size());
  }
  schedule.spill_bytes.assign(schedule.programs.size(), 0);
  schedule.peak_local_bytes.assign(schedule.programs.size(), 0);
  return schedule;
}

Operation comm(OpKind kind, int peer, std::int64_t bytes) {
  Operation op;
  op.kind = kind;
  op.peer = peer;
  op.bytes = bytes;
  return op;
}

TEST(SimBackend, ExecutionErrorsSurfaceAsSimulationError) {
  HardwareConfig hw = HardwareConfig::puma_default();
  hw.core_count = 2;
  const std::unique_ptr<Backend> sim = BackendRegistry::create("sim");

  // Both cores wait for a message that is never sent.
  const InstructionStream deadlock = InstructionStream::from_schedule(
      comm_schedule({{comm(OpKind::kCommRecv, 1, 64)},
                     {comm(OpKind::kCommRecv, 0, 64)}}),
      PipelineMode::kHighThroughput, 20, "sim", 0);
  EXPECT_THROW(sim->execute(deadlock, hw), SimulationError);

  // The receiver expects a different payload than the sender sent.
  const InstructionStream mismatch = InstructionStream::from_schedule(
      comm_schedule({{comm(OpKind::kCommSend, 1, 100)},
                     {comm(OpKind::kCommRecv, 0, 200)}}),
      PipelineMode::kHighThroughput, 20, "sim", 0);
  EXPECT_THROW(sim->execute(mismatch, hw), SimulationError);
}

// ---------------------------------------------------------------------------
// Pinned artifact goldens (the kIsaVersion bump protocol).
// ---------------------------------------------------------------------------

TEST(InstructionStream, ContentFingerprintGoldensArePinned) {
  // Two small zoo models, tiny GA, seed 1, auto-fitted cores: if either
  // value drifts, the artifact bytes changed — revert the drift or bump
  // kIsaVersion and re-pin in the same commit.
  struct GoldenCase {
    const char* model;
    const char* fingerprint;
  };
  // Re-pinned when the island-model GA became the default mapper
  // trajectory (ga.islands = 4): the mapping — and therefore the lowered
  // stream — legitimately changed, recorded by the kCacheSchemaVersion
  // bump to v3.
  const GoldenCase cases[] = {
      {"squeezenet", "659ed7bf9701c252"},
      {"resnet18", "24070a180ea26957"},
  };
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.model);
    Graph graph = zoo::build(c.model, small_input(c.model));
    HardwareConfig hw = fitted(graph);
    const CompileResult result =
        Compiler(std::move(graph), hw).compile(tiny_options("isa-json"));
    ASSERT_NE(result.stream, nullptr);
    EXPECT_EQ(cache_key_hex(result.stream->content_fingerprint()),
              c.fingerprint);
  }
}

// ---------------------------------------------------------------------------
// Disk-cache round-trip across a session restart.
// ---------------------------------------------------------------------------

TEST(DiskCache, LoweredStreamRoundTripsByteIdentically) {
  TempDir dir;
  CacheConfig cache;
  cache.dir = dir.path;
  CompileOptions options = tiny_options("isa-json");

  std::string cold_artifact;
  {
    CompilerSession session(small_cnn(), fitted(small_cnn()), cache);
    const CompileResult result = session.compile(options);
    ASSERT_NE(result.stream, nullptr);
    cold_artifact = result.stream->to_json().dump(-1);
  }  // every trace of in-process state dies with the session

  {
    CompilerSession session(small_cnn(), fitted(small_cnn()), cache);
    const CompileResult warm = session.compile(options);
    ASSERT_NE(warm.stream, nullptr);
    // Served from disk: no stage ran, and the artifact is byte-identical.
    EXPECT_EQ(warm.stage_times.total(), 0.0);
    EXPECT_EQ(warm.stream->to_json().dump(-1), cold_artifact);
  }

  {
    // A different backend key is a different cache identity: the session
    // must recompile (and re-lower through the requested backend), never
    // serve the isa-json stream.
    CompilerSession session(small_cnn(), fitted(small_cnn()), cache);
    const CompileResult other = session.compile(tiny_options("sim"));
    ASSERT_NE(other.stream, nullptr);
    EXPECT_EQ(other.stream->backend, "sim");
    EXPECT_GT(other.stage_times.total(), 0.0);
  }
}

}  // namespace
}  // namespace pimcomp
