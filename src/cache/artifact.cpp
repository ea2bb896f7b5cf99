#include "cache/artifact.hpp"

#include <optional>
#include <utility>

// pimcomp-layer-exempt: cached artifacts embed the lowered
// InstructionStream verbatim — a codec-only dependency on the artifact
// type, not on any backend lowering logic.
#include "backend/instruction_stream.hpp"
#include "cache/cache_store.hpp"

namespace pimcomp {

namespace {

/// Column 0 of a cache artifact's op row: the integer OpKind.
Json kind_to_int(OpKind kind) { return static_cast<int>(kind); }

OpKind kind_from_int(const Json& column) {
  const std::int64_t kind = column.as_int();
  if (kind < 0 || kind > static_cast<std::int64_t>(OpKind::kStoreGlobal)) {
    throw CacheArtifactError("artifact operation kind out of range: " +
                             std::to_string(kind));
  }
  return static_cast<OpKind>(kind);
}

Json schedule_to_json(const Schedule& schedule) {
  Json programs = Json::array();
  for (const std::vector<Operation>& program : schedule.programs) {
    Json ops = Json::array();
    for (const Operation& op : program) {
      ops.push_back(operation_to_row(op, kind_to_int));
    }
    programs.push_back(std::move(ops));
  }
  Json json = Json::object();
  json["ag_count"] = schedule.ag_count;
  json["total_ops"] = schedule.total_ops;
  json["spill_bytes"] = int64_array(schedule.spill_bytes);
  json["peak_local_bytes"] = int64_array(schedule.peak_local_bytes);
  json["programs"] = std::move(programs);
  return json;
}

Schedule schedule_from_json(const Json& json, int expected_cores,
                            std::size_t expected_ag_count) {
  // schedule_violation() bounds every op's AG by ag_count, and the
  // simulator sizes its per-AG state by it: it must be the mapping's own
  // AG-instance count, as the schedulers write it.
  const std::int64_t ag_count = json.at("ag_count").as_int();
  if (ag_count != static_cast<std::int64_t>(expected_ag_count)) {
    throw CacheArtifactError(
        "artifact schedule ag_count " + std::to_string(ag_count) +
        " does not match the mapping's " + std::to_string(expected_ag_count) +
        " AG instances");
  }
  Schedule schedule;
  schedule.ag_count = static_cast<int>(ag_count);
  schedule.total_ops = json.at("total_ops").as_int();
  schedule.spill_bytes = int64_vector(json.at("spill_bytes"));
  schedule.peak_local_bytes = int64_vector(json.at("peak_local_bytes"));
  const Json& programs = json.at("programs");
  if (!programs.is_array() ||
      static_cast<int>(programs.size()) != expected_cores) {
    throw CacheArtifactError(
        "artifact schedule core count does not match the workload's "
        "hardware (" +
        std::to_string(programs.is_array() ? programs.size() : 0) + " vs " +
        std::to_string(expected_cores) + ")");
  }
  schedule.programs.reserve(programs.size());
  for (std::size_t core = 0; core < programs.size(); ++core) {
    const Json& rows = programs.at(core);
    if (!rows.is_array()) {
      throw CacheArtifactError("artifact core program must be an array");
    }
    std::vector<Operation> program;
    program.reserve(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::optional<Operation> op =
          operation_from_row(rows.at(i), kind_from_int);
      if (!op.has_value()) {
        throw CacheArtifactError("artifact operation row must be a 10-tuple");
      }
      program.push_back(*op);
    }
    schedule.programs.push_back(std::move(program));
  }
  if (const auto violation = schedule_violation(schedule)) {
    throw CacheArtifactError("artifact schedule " + *violation);
  }
  return schedule;
}

Json ga_stats_to_json(const GaStats& stats) {
  Json history = Json::array();
  for (double best : stats.best_history) history.push_back(best);
  Json json = Json::object();
  json["initial_best"] = stats.initial_best;
  json["final_best"] = stats.final_best;
  json["evaluations"] = stats.evaluations;
  json["best_history"] = std::move(history);
  return json;
}

GaStats ga_stats_from_json(const Json& json) {
  GaStats stats;
  stats.initial_best = json.get("initial_best", 0.0);
  stats.final_best = json.get("final_best", 0.0);
  stats.evaluations = json.get("evaluations", 0);
  if (json.contains("best_history")) {
    const Json& history = json.at("best_history");
    for (std::size_t i = 0; i < history.size(); ++i) {
      stats.best_history.push_back(history.at(i).as_number());
    }
  }
  return stats;
}

}  // namespace

Json compile_result_to_artifact(const CompileResult& result,
                                std::uint64_t workload_fp,
                                std::uint64_t mapping_key) {
  Json artifact = Json::object();
  // Envelope first: schema/key are (re)stamped by DiskStore::store, but a
  // self-describing artifact survives being moved between directories.
  artifact["schema"] = kCacheSchemaVersion;
  artifact["key"] = cache_key_hex(mapping_key);
  artifact["workload_fp"] = cache_key_hex(workload_fp);
  artifact["mapper"] = result.mapper_name;
  artifact["estimated_fitness"] = result.estimated_fitness;
  artifact["solution"] = result.solution.to_json();
  artifact["ga_stats"] = ga_stats_to_json(result.ga_stats);
  artifact["schedule"] = schedule_to_json(result.schedule);
  if (result.stream != nullptr) {
    // Lowered instruction streams ride the mapping artifact: the backend
    // key is part of fingerprint(CompileOptions), so an artifact under this
    // key either always or never carries a stream for its requesters.
    artifact["stream"] = result.stream->to_json();
  }
  return artifact;
}

CompileResult compile_result_from_artifact(
    const Json& artifact, std::shared_ptr<const Workload> workload,
    const CompileOptions& options, std::uint64_t expected_workload_fp) {
  if (!artifact.is_object()) {
    throw CacheArtifactError("artifact must be a JSON object");
  }
  if (artifact.get("schema", -1) != kCacheSchemaVersion) {
    throw CacheArtifactError(
        "artifact schema version mismatch (artifact " +
        std::to_string(artifact.get("schema", -1)) + ", this build " +
        std::to_string(kCacheSchemaVersion) + ")");
  }
  const std::string workload_fp = artifact.get("workload_fp", std::string());
  if (workload_fp != cache_key_hex(expected_workload_fp)) {
    throw CacheArtifactError(
        "artifact workload fingerprint " + workload_fp +
        " does not match the requesting session's " +
        cache_key_hex(expected_workload_fp) +
        " — refusing to serve a mapping for a different model/hardware");
  }

  const Workload& workload_ref = *workload;
  CompileResult result{
      std::move(workload),
      MappingSolution::from_json(workload_ref, artifact.at("solution")),
      /*schedule=*/{},
      options,
      /*stage_times=*/{},  // a cache hit runs no stage
      artifact.get("estimated_fitness", 0.0),
      artifact.get("mapper", std::string()),
      ga_stats_from_json(artifact.contains("ga_stats")
                             ? artifact.at("ga_stats")
                             : Json::object()),
  };
  result.schedule = schedule_from_json(artifact.at("schedule"),
                                       result.solution.core_count(),
                                       result.solution.instantiate().size());

  if (!options.backend.empty()) {
    // The requester compiled with a lowering backend, so a servable
    // artifact must carry the lowered stream — an older artifact without
    // one is a miss (the caller recomputes and re-stores), never a
    // silently stream-less result.
    if (!artifact.contains("stream")) {
      throw CacheArtifactError(
          "artifact has no lowered instruction stream but the requesting "
          "compilation selected backend '" + options.backend + "'");
    }
    const std::optional<std::uint64_t> key =
        cache_key_from_hex(artifact.get("key", std::string()));
    if (!key.has_value()) {
      throw CacheArtifactError("artifact cache key is not a 16-digit hex "
                               "fingerprint");
    }
    try {
      InstructionStream stream =
          InstructionStream::from_json(artifact.at("stream"), *key);
      if (stream.schedule.ag_count != result.schedule.ag_count) {
        throw CacheArtifactError(
            "artifact stream ag_count does not match its schedule's");
      }
      if (stream.backend != options.backend) {
        throw CacheArtifactError(
            "artifact stream was emitted by backend '" + stream.backend +
            "', requester wants '" + options.backend + "'");
      }
      result.stream =
          std::make_shared<const InstructionStream>(std::move(stream));
    } catch (const InstructionStreamError& e) {
      throw CacheArtifactError(e.what());
    }
  }
  return result;
}

}  // namespace pimcomp
