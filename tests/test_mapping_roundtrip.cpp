// MappingSolution (and whole-CompileResult artifact) JSON round-trips for
// every zoo model — the persisted-cache analogue of test_graph_roundtrip:
// the disk tier ships mapping decisions as JSON artifacts, so a lossy
// round-trip would silently schedule a different mapping than the GA chose,
// and an artifact bound to one workload must never deserialize against
// another.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "cache/artifact.hpp"
#include "cache/cache_store.hpp"
#include "core/compile_report.hpp"
#include "core/pipeline.hpp"
#include "core/session.hpp"
#include "graph/builder.hpp"
#include "graph/zoo/zoo.hpp"
#include "mapping/mapper.hpp"
#include "mapping/mapping_solution.hpp"
#include "schedule_tamper.hpp"

namespace pimcomp {
namespace {

/// Small-but-valid input resolutions (inception-v3 documents a >= 96
/// floor) so the whole zoo partitions and maps in milliseconds.
int test_input_size(const std::string& model) {
  return model == "inception-v3" ? 96 : 32;
}

Workload make_workload(const Graph& graph) {
  return Workload(graph, fit_core_count(graph, HardwareConfig::puma_default(),
                                        /*headroom=*/3.0));
}

/// A real mapping decision per model, via the fast deterministic greedy
/// strategy (the round-trip property is mapper-independent).
MappingSolution map_greedy(const Workload& workload) {
  MapperOptions options;
  options.mode = PipelineMode::kLowLatency;
  CompileOptions compile_options;
  return MapperRegistry::create("greedy", compile_options)
      ->map(workload, options);
}

TEST(MappingRoundTrip, EveryZooModelSurvivesJsonSerialization) {
  for (const std::string& name : zoo::model_names()) {
    SCOPED_TRACE(name);
    Graph graph = zoo::build(name, test_input_size(name));
    graph.finalize();
    const Workload workload = make_workload(graph);
    const MappingSolution original = map_greedy(workload);

    // Through the actual wire representation: dumped text, reparsed.
    const Json json = Json::parse(original.to_json().dump(-1));
    const MappingSolution rebuilt = MappingSolution::from_json(workload, json);

    EXPECT_EQ(rebuilt.max_nodes_per_core(), original.max_nodes_per_core());
    EXPECT_EQ(rebuilt.core_count(), original.core_count());
    EXPECT_EQ(rebuilt.total_xbars_used(), original.total_xbars_used());
    // The chromosome is the complete identity of a solution.
    EXPECT_EQ(rebuilt.encode(), original.encode());
    for (const NodePartition& p : workload.partitions()) {
      EXPECT_EQ(rebuilt.replication(p.node), original.replication(p.node));
    }
    // And a second serialization is byte-stable (diffable artifacts).
    EXPECT_EQ(rebuilt.to_json().dump(-1), original.to_json().dump(-1));
  }
}

TEST(MappingRoundTrip, RejectsChromosomeForTheWrongWorkload) {
  Graph small = zoo::build("squeezenet", 32);
  small.finalize();
  Graph big = zoo::build("resnet18", 64);
  big.finalize();
  const Workload small_workload = make_workload(small);
  const Workload big_workload = make_workload(big);

  const Json json = map_greedy(big_workload).to_json();
  // A different model means different core counts / partitions: the decode
  // either fails the length check or an infeasible placement — never
  // silently produces a "valid" solution.
  EXPECT_THROW(MappingSolution::from_json(small_workload, json),
               std::exception);
}

TEST(MappingRoundTrip, RejectsMalformedSolutions) {
  Graph graph = zoo::build("squeezenet", 32);
  graph.finalize();
  const Workload workload = make_workload(graph);
  const Json good = map_greedy(workload).to_json();

  Json missing_chromosome = Json::object();
  missing_chromosome["max_nodes_per_core"] =
      good.at("max_nodes_per_core");
  EXPECT_THROW(MappingSolution::from_json(workload, missing_chromosome),
               JsonError);

  Json bad_bound = Json::object();
  bad_bound["max_nodes_per_core"] = 0;
  bad_bound["chromosome"] = good.at("chromosome");
  EXPECT_THROW(MappingSolution::from_json(workload, bad_bound), JsonError);

  Json not_an_array = Json::object();
  not_an_array["max_nodes_per_core"] = good.at("max_nodes_per_core");
  not_an_array["chromosome"] = "zebra";
  EXPECT_THROW(MappingSolution::from_json(workload, not_an_array), JsonError);
}

// ---------------------------------------------------------------------------
// Whole-bundle artifacts.
// ---------------------------------------------------------------------------

Graph tiny_cnn() {
  GraphBuilder b("artifact-cnn", {3, 16, 16});
  NodeId x = b.input();
  x = b.conv_relu(x, 8, 3, /*stride=*/1, /*padding=*/1, "conv1");
  x = b.fc(b.flatten(x, "flatten"), 10, "classifier");
  b.softmax(x, "prob");
  return b.build();
}

CompileOptions tiny_options() {
  CompileOptions options;
  options.mode = PipelineMode::kLowLatency;
  options.parallelism_degree = 4;
  options.ga.population = 6;
  options.ga.generations = 3;
  return options;
}

TEST(CompileResultArtifact, RoundTripsAndValidatesTheWorkloadFingerprint) {
  Graph graph = tiny_cnn();
  graph.finalize();
  const HardwareConfig hw =
      fit_core_count(graph, HardwareConfig::puma_default(), 3.0);
  const std::uint64_t workload_fp =
      combine_fingerprints(fingerprint(graph), fingerprint(hw));
  const CompileOptions options = tiny_options();
  const std::uint64_t mapping_key =
      combine_fingerprints(workload_fp, fingerprint(options));

  CompilerSession session(std::move(graph), hw);
  const CompileResult original = session.compile(options);

  const Json artifact = Json::parse(
      compile_result_to_artifact(original, workload_fp, mapping_key)
          .dump(-1));
  CompileResult rebuilt = compile_result_from_artifact(
      artifact, original.workload, options, workload_fp);

  EXPECT_EQ(rebuilt.solution.encode(), original.solution.encode());
  EXPECT_EQ(rebuilt.mapper_name, original.mapper_name);
  EXPECT_EQ(rebuilt.estimated_fitness, original.estimated_fitness);
  EXPECT_EQ(rebuilt.schedule.total_ops, original.schedule.total_ops);
  EXPECT_EQ(rebuilt.schedule.ag_count, original.schedule.ag_count);
  EXPECT_EQ(rebuilt.ga_stats.best_history, original.ga_stats.best_history);
  // The machine-readable report — everything downstream tooling sees — is
  // byte-identical modulo the (zeroed-on-hit) stage times.
  Json original_report = compile_result_to_json(original);
  Json rebuilt_report = compile_result_to_json(rebuilt);
  Json zero_times = Json::object();
  zero_times["partitioning_s"] = 0.0;
  zero_times["mapping_s"] = 0.0;
  zero_times["scheduling_s"] = 0.0;
  original_report["stage_times"] = zero_times;
  rebuilt_report["stage_times"] = zero_times;
  EXPECT_EQ(original_report.dump(2), rebuilt_report.dump(2));

  // An artifact for a different workload identity must be rejected however
  // it ended up at this key's path.
  EXPECT_THROW(compile_result_from_artifact(artifact, original.workload,
                                            options, workload_fp + 1),
               CacheArtifactError);

  // Schema drift must read as "not trustworthy", not as data.
  Json wrong_schema = artifact;
  wrong_schema["schema"] = kCacheSchemaVersion + 1;
  EXPECT_THROW(compile_result_from_artifact(wrong_schema, original.workload,
                                            options, workload_fp),
               CacheArtifactError);
}

TEST(CompileResultArtifact, RejectsTamperedSchedules) {
  Graph graph = tiny_cnn();
  graph.finalize();
  const HardwareConfig hw =
      fit_core_count(graph, HardwareConfig::puma_default(), 3.0);
  const std::uint64_t workload_fp =
      combine_fingerprints(fingerprint(graph), fingerprint(hw));
  const CompileOptions options = tiny_options();

  CompilerSession session(std::move(graph), hw);
  const CompileResult original = session.compile(options);
  const Json artifact =
      compile_result_to_artifact(original, workload_fp, 1);

  Json lying_total = artifact;
  Json schedule = artifact.at("schedule");
  schedule["total_ops"] = original.schedule.total_ops + 1;
  lying_total["schedule"] = schedule;
  EXPECT_THROW(compile_result_from_artifact(lying_total, original.workload,
                                            options, workload_fp),
               CacheArtifactError);

  // Every op stays in range of a huge declared ag_count, but the simulator
  // would size its per-AG state by it: ag_count must be the mapping's own
  // AG-instance count, in either direction.
  for (const std::int64_t lie :
       {std::int64_t{2000000000}, std::int64_t{original.schedule.ag_count} + 1,
        std::int64_t{original.schedule.ag_count} - 1}) {
    SCOPED_TRACE(lie);
    Json lying_ags = artifact;
    Json lying_schedule = artifact.at("schedule");
    lying_schedule["ag_count"] = lie;
    lying_ags["schedule"] = std::move(lying_schedule);
    EXPECT_THROW(compile_result_from_artifact(lying_ags, original.workload,
                                              options, workload_fp),
                 CacheArtifactError);
  }

  // Well-formed rows that break an op invariant the simulator relies on
  // (it indexes its channel and AG state by `peer` and `ag` unchecked).
  const int cores = original.schedule.core_count();
  const int ag_count = original.schedule.ag_count;
  struct Tamper {
    const char* what;
    OpKind kind;
    std::size_t column;
    std::int64_t value;
  };
  const Tamper tampers[] = {
      {"SEND to a core that does not exist", OpKind::kCommSend, 6, cores},
      {"VALU waiting on an AG that does not exist", OpKind::kVfu, 2,
       ag_count},
      {"MVM on no AG", OpKind::kMvm, 2, -1},
      {"negative payload bytes", OpKind::kCommSend, 4, -1},
  };
  for (const Tamper& t : tampers) {
    SCOPED_TRACE(t.what);
    EXPECT_THROW(
        compile_result_from_artifact(
            with_tampered_rows(artifact, t.kind, t.column, t.value),
            original.workload, options, workload_fp),
        CacheArtifactError);
  }
  // A peer of 2^32 must not truncate to the valid peer 0.
  EXPECT_THROW(compile_result_from_artifact(
                   with_tampered_rows(artifact, OpKind::kCommSend, 6,
                                      std::int64_t{1} << 32),
                   original.workload, options, workload_fp),
               JsonError);
}

}  // namespace
}  // namespace pimcomp
