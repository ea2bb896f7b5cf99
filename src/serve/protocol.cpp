#include "serve/protocol.hpp"

#include <algorithm>
#include <initializer_list>
#include <utility>

#include "cache/cache_store.hpp"
#include "common/units.hpp"
#include "serve/net.hpp"

namespace pimcomp::serve {

namespace {

/// Rejects misspelled request fields loudly: a typo'd option
/// ("parallelism_degree" for "parallelism", "generations" outside "ga")
/// must not silently compile the default configuration under the
/// requested label.
void require_known_keys(const Json& json, const char* what,
                        std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : json.items()) {
    const bool known = std::any_of(
        allowed.begin(), allowed.end(),
        [&key](const char* candidate) { return key == candidate; });
    if (!known) {
      std::string message = std::string(what) + ": unknown key '" + key +
                            "' (known keys:";
      for (const char* candidate : allowed) {
        message += ' ';
        message += candidate;
      }
      throw ServeError(message + ")");
    }
  }
}

std::string mode_to_string(PipelineMode mode) {
  return mode == PipelineMode::kHighThroughput ? "ht" : "ll";
}

PipelineMode mode_from_string(const std::string& s) {
  if (s == "ht" || s == "high-throughput") return PipelineMode::kHighThroughput;
  if (s == "ll" || s == "low-latency") return PipelineMode::kLowLatency;
  throw ServeError("unknown pipeline mode '" + s + "' (want ht|ll)");
}

std::string policy_to_string(MemoryPolicy policy) {
  return to_string(policy);  // "naive" / "add-reuse" / "ag-reuse"
}

MemoryPolicy policy_from_string(const std::string& s) {
  if (s == "naive") return MemoryPolicy::kNaive;
  if (s == "add" || s == "add-reuse") return MemoryPolicy::kAddReuse;
  if (s == "ag" || s == "ag-reuse") return MemoryPolicy::kAgReuse;
  throw ServeError("unknown memory policy '" + s + "' (want naive|add|ag)");
}

CoreConnection connection_from_string(const std::string& s) {
  if (s == "noc") return CoreConnection::kNoC;
  if (s == "bus") return CoreConnection::kBus;
  throw ServeError("unknown core connection '" + s + "' (want noc|bus)");
}

std::int64_t require_id(const Json& json) {
  return json.get("id", static_cast<std::int64_t>(0));
}

std::string seed_range_error(const std::string& got) {
  return "options.seed wants 0.." + std::to_string(kMaxWireSeed) +
         " (the integers a JSON double holds exactly), got " + got;
}

/// Rejects requests declaring any protocol but the one this build speaks —
/// one wording for every request type. An absent version means current.
void require_supported_version(const Json& json) {
  const int version = json.get("version", kProtocolVersion);
  if (version != kProtocolVersion) {
    throw ServeError("request speaks protocol v" + std::to_string(version) +
                     ", this server speaks v" +
                     std::to_string(kProtocolVersion));
  }
}

/// Parses the 16-hex-digit cache key every fleet cache frame carries.
std::uint64_t require_cache_key(const Json& json, const char* what) {
  const std::string hex = json.get("key", std::string());
  const std::optional<std::uint64_t> key = cache_key_from_hex(hex);
  if (!key.has_value()) {
    throw ServeError(std::string(what) +
                     ".key wants 16 hex digits, got '" + hex + "'");
  }
  return *key;
}

/// Bounded read of an optional integer field; `fallback` (the base value)
/// bypasses the check so layering over an already-accepted base never
/// re-rejects it.
int bounded_int(const Json& json, const char* key, int fallback,
                long long min, long long max, const char* what) {
  if (!json.contains(key)) return fallback;
  const std::int64_t value = json.at(key).as_int();
  if (value < min || value > max) {
    throw ServeError(std::string(what) + "." + key + " wants " +
                     std::to_string(min) + ".." + std::to_string(max) +
                     ", got " + std::to_string(value));
  }
  return static_cast<int>(value);
}

}  // namespace

std::int64_t reply_id(const Json& json) noexcept {
  try {
    return require_id(json);
  } catch (const std::exception&) {
    return 0;
  }
}

// ---------------------------------------------------------------------------
// CompileOptions.
// ---------------------------------------------------------------------------

Json options_to_json(const CompileOptions& options) {
  Json json = Json::object();
  json["mode"] = mode_to_string(options.mode);
  json["parallelism"] = options.parallelism_degree;
  json["memory_policy"] = policy_to_string(options.memory_policy);
  json["mapper"] = options.mapper;
  if (!options.scheduler.empty()) json["scheduler"] = options.scheduler;
  // Emitted only when selected (like "scheduler"): requests that don't
  // lower shouldn't declare it.
  if (!options.backend.empty()) json["backend"] = options.backend;
  json["max_nodes_per_core"] = options.max_nodes_per_core;
  json["ht_flush_windows"] = options.ht_flush_windows;
  if (options.seed > kMaxWireSeed) {
    throw ServeError(seed_range_error(std::to_string(options.seed)));
  }
  json["seed"] = static_cast<std::int64_t>(options.seed);

  Json ga = Json::object();
  ga["population"] = options.ga.population;
  ga["generations"] = options.ga.generations;
  ga["elite"] = options.ga.elite;
  ga["tournament_size"] = options.ga.tournament_size;
  ga["mutations_per_child"] = options.ga.mutations_per_child;
  ga["target_fill"] = options.ga.target_fill;
  ga["enable_grow"] = options.ga.enable_grow;
  ga["enable_shrink"] = options.ga.enable_shrink;
  ga["enable_spread"] = options.ga.enable_spread;
  ga["enable_merge"] = options.ga.enable_merge;
  ga["seed_baseline"] = options.ga.seed_baseline;
  ga["islands"] = options.ga.islands;
  ga["migration_interval"] = options.ga.migration_interval;
  json["ga"] = std::move(ga);
  return json;
}

CompileOptions options_from_json(const Json& json,
                                 const CompileOptions& base) {
  require_known_keys(json, "options",
                     {"mode", "parallelism", "memory_policy", "mapper",
                      "scheduler", "backend", "max_nodes_per_core",
                      "ht_flush_windows", "seed", "ga"});
  CompileOptions options = base;
  if (json.contains("mode")) {
    options.mode = mode_from_string(json.at("mode").as_string());
  }
  options.parallelism_degree =
      bounded_int(json, "parallelism", options.parallelism_degree, 1,
                  kMaxWireParallelism, "options");
  if (json.contains("memory_policy")) {
    options.memory_policy =
        policy_from_string(json.at("memory_policy").as_string());
  }
  options.mapper = json.get("mapper", options.mapper);
  options.scheduler = json.get("scheduler", options.scheduler);
  options.backend = json.get("backend", options.backend);
  options.max_nodes_per_core =
      bounded_int(json, "max_nodes_per_core", options.max_nodes_per_core, 1,
                  1 << 12, "options");
  options.ht_flush_windows =
      bounded_int(json, "ht_flush_windows", options.ht_flush_windows, 1,
                  kMaxWireGaBudget, "options");
  if (json.contains("seed")) {
    const double seed = json.at("seed").as_number();
    if (!(seed >= 0.0 && seed <= static_cast<double>(kMaxWireSeed))) {
      throw ServeError(seed_range_error(json.at("seed").dump(-1)));
    }
    options.seed = static_cast<std::uint64_t>(json.at("seed").as_int());
  }

  if (json.contains("ga")) {
    const Json& ga = json.at("ga");
    require_known_keys(ga, "options.ga",
                       {"population", "generations", "elite",
                        "tournament_size", "mutations_per_child",
                        "target_fill", "enable_grow", "enable_shrink",
                        "enable_spread", "enable_merge", "seed_baseline",
                        "islands", "migration_interval"});
    options.ga.population =
        bounded_int(ga, "population", options.ga.population, 1,
                    kMaxWireGaBudget, "options.ga");
    options.ga.generations =
        bounded_int(ga, "generations", options.ga.generations, 0,
                    kMaxWireGaBudget, "options.ga");
    options.ga.elite = ga.get("elite", options.ga.elite);
    options.ga.tournament_size =
        ga.get("tournament_size", options.ga.tournament_size);
    options.ga.mutations_per_child =
        ga.get("mutations_per_child", options.ga.mutations_per_child);
    options.ga.target_fill = ga.get("target_fill", options.ga.target_fill);
    options.ga.enable_grow = ga.get("enable_grow", options.ga.enable_grow);
    options.ga.enable_shrink =
        ga.get("enable_shrink", options.ga.enable_shrink);
    options.ga.enable_spread =
        ga.get("enable_spread", options.ga.enable_spread);
    options.ga.enable_merge = ga.get("enable_merge", options.ga.enable_merge);
    options.ga.seed_baseline =
        ga.get("seed_baseline", options.ga.seed_baseline);
    // v6 keys: island-model parallelism. Bounded like the other GA knobs so
    // a hostile request cannot demand absurd island counts; the mapper
    // additionally clamps islands to the population.
    options.ga.islands = bounded_int(ga, "islands", options.ga.islands, 1,
                                     kMaxWireGaIslands, "options.ga");
    options.ga.migration_interval =
        bounded_int(ga, "migration_interval", options.ga.migration_interval,
                    1, kMaxWireGaBudget, "options.ga");
  }
  return options;
}

// ---------------------------------------------------------------------------
// HardwareConfig.
// ---------------------------------------------------------------------------

Json hardware_to_json(const HardwareConfig& hw) {
  Json json = Json::object();
  json["xbar_rows"] = hw.xbar_rows;
  json["xbar_cols"] = hw.xbar_cols;
  json["cell_bits"] = hw.cell_bits;
  json["weight_bits"] = hw.weight_bits;
  json["activation_bits"] = hw.activation_bits;
  json["xbars_per_core"] = hw.xbars_per_core;
  json["core_count"] = hw.core_count;
  json["cores_per_chip"] = hw.cores_per_chip;
  json["connection"] = to_string(hw.connection);
  json["vfus_per_core"] = hw.vfus_per_core;
  json["vfu_ops_per_ns"] = hw.vfu_ops_per_ns;
  json["local_memory_bytes"] = hw.local_memory_bytes;
  json["local_memory_gbps"] = hw.local_memory_gbps;
  json["global_memory_bytes"] = hw.global_memory_bytes;
  json["global_memory_gbps"] = hw.global_memory_gbps;
  json["noc_flit_bytes"] = hw.noc_flit_bytes;
  json["noc_link_gbps"] = hw.noc_link_gbps;
  json["noc_hop_latency_ns"] = to_ns(hw.noc_hop_latency);
  json["ht_link_gbps"] = hw.ht_link_gbps;
  json["ht_latency_ns"] = to_ns(hw.ht_latency);
  json["mvm_latency_ns"] = to_ns(hw.mvm_latency);
  return json;
}

HardwareConfig hardware_from_json(const Json& json,
                                  const HardwareConfig& base) {
  require_known_keys(
      json, "hardware",
      {"xbar_rows", "xbar_cols", "cell_bits", "weight_bits",
       "activation_bits", "xbars_per_core", "core_count", "cores_per_chip",
       "connection", "vfus_per_core", "vfu_ops_per_ns",
       "local_memory_bytes", "local_memory_gbps", "global_memory_bytes",
       "global_memory_gbps", "noc_flit_bytes", "noc_link_gbps",
       "noc_hop_latency_ns", "ht_link_gbps", "ht_latency_ns",
       "mvm_latency_ns"});
  HardwareConfig hw = base;
  hw.xbar_rows = bounded_int(json, "xbar_rows", hw.xbar_rows, 1,
                             kMaxWireDimension, "hardware");
  hw.xbar_cols = bounded_int(json, "xbar_cols", hw.xbar_cols, 1,
                             kMaxWireDimension, "hardware");
  hw.cell_bits = json.get("cell_bits", hw.cell_bits);
  hw.weight_bits = json.get("weight_bits", hw.weight_bits);
  hw.activation_bits = json.get("activation_bits", hw.activation_bits);
  hw.xbars_per_core = bounded_int(json, "xbars_per_core", hw.xbars_per_core,
                                  1, kMaxWireDimension, "hardware");
  hw.core_count = bounded_int(json, "core_count", hw.core_count, 1,
                              kMaxWireCores, "hardware");
  hw.cores_per_chip = bounded_int(json, "cores_per_chip", hw.cores_per_chip,
                                  1, kMaxWireCores, "hardware");
  if (json.contains("connection")) {
    hw.connection = connection_from_string(json.at("connection").as_string());
  }
  hw.vfus_per_core = json.get("vfus_per_core", hw.vfus_per_core);
  hw.vfu_ops_per_ns = json.get("vfu_ops_per_ns", hw.vfu_ops_per_ns);
  hw.local_memory_bytes =
      json.get("local_memory_bytes", hw.local_memory_bytes);
  hw.local_memory_gbps = json.get("local_memory_gbps", hw.local_memory_gbps);
  hw.global_memory_bytes =
      json.get("global_memory_bytes", hw.global_memory_bytes);
  hw.global_memory_gbps =
      json.get("global_memory_gbps", hw.global_memory_gbps);
  hw.noc_flit_bytes = json.get("noc_flit_bytes", hw.noc_flit_bytes);
  hw.noc_link_gbps = json.get("noc_link_gbps", hw.noc_link_gbps);
  if (json.contains("noc_hop_latency_ns")) {
    hw.noc_hop_latency = from_ns(json.at("noc_hop_latency_ns").as_number());
  }
  hw.ht_link_gbps = json.get("ht_link_gbps", hw.ht_link_gbps);
  if (json.contains("ht_latency_ns")) {
    hw.ht_latency = from_ns(json.at("ht_latency_ns").as_number());
  }
  if (json.contains("mvm_latency_ns")) {
    hw.mvm_latency = from_ns(json.at("mvm_latency_ns").as_number());
  }
  return hw;
}

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

Json to_json(const CompileRequest& request) {
  Json json = Json::object();
  json["type"] = "compile";
  json["version"] = kProtocolVersion;
  json["id"] = request.id;
  if (!request.model.empty()) json["model"] = request.model;
  if (request.graph.has_value()) json["graph"] = *request.graph;
  if (request.input_size > 0) json["input_size"] = request.input_size;
  if (request.cores > 0) json["cores"] = request.cores;
  if (request.hardware.has_value()) json["hardware"] = *request.hardware;
  json["simulate"] = request.simulate;
  if (request.priority != 0) json["priority"] = request.priority;
  if (request.deadline_ms > 0) json["deadline_ms"] = request.deadline_ms;
  if (!request.auth.empty()) json["auth"] = request.auth;

  Json scenarios = Json::array();
  for (const ScenarioSpec& spec : request.scenarios) {
    Json entry = Json::object();
    entry["label"] = spec.label;
    entry["options"] = options_to_json(spec.options);
    if (spec.hardware.has_value()) entry["hardware"] = *spec.hardware;
    scenarios.push_back(std::move(entry));
  }
  json["scenarios"] = std::move(scenarios);
  return json;
}

CompileRequest request_from_json(const Json& json) {
  require_supported_version(json);

  require_known_keys(json, "request",
                     {"type", "version", "id", "model", "graph",
                      "input_size", "cores", "hardware", "simulate",
                      "priority", "deadline_ms", "auth", "scenarios"});
  CompileRequest request;
  request.id = require_id(json);
  request.model = json.get("model", std::string());
  if (json.contains("graph")) request.graph = json.at("graph");
  if (request.model.empty() && !request.graph.has_value()) {
    throw ServeError("compile request needs a 'model' name or inline 'graph'");
  }
  if (!request.model.empty() && request.graph.has_value()) {
    throw ServeError("'model' and 'graph' are mutually exclusive");
  }
  request.input_size =
      bounded_int(json, "input_size", 0, 0, kMaxWireInputSize, "request");
  request.cores = bounded_int(json, "cores", 0, 0, kMaxWireCores, "request");
  if (json.contains("hardware")) request.hardware = json.at("hardware");
  request.simulate = json.get("simulate", true);
  request.priority = bounded_int(json, "priority", 0, kMinWirePriority,
                                 kMaxWirePriority, "request");
  if (json.contains("deadline_ms")) {
    const std::int64_t deadline = json.at("deadline_ms").as_int();
    if (deadline < 0 || deadline > kMaxWireDeadlineMs) {
      throw ServeError("request.deadline_ms wants 0.." +
                       std::to_string(kMaxWireDeadlineMs) + ", got " +
                       std::to_string(deadline));
    }
    request.deadline_ms = deadline;
  }
  request.auth = json.get("auth", std::string());

  if (!json.contains("scenarios") || !json.at("scenarios").is_array() ||
      json.at("scenarios").size() == 0) {
    throw ServeError("compile request needs a non-empty 'scenarios' array");
  }
  const Json& scenarios = json.at("scenarios");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    request.scenarios.push_back(scenario_spec_from_json(scenarios.at(i), i));
  }
  return request;
}

ScenarioSpec scenario_spec_from_json(const Json& json, std::size_t index,
                                     const CompileOptions& base_options) {
  require_known_keys(json, "scenario", {"label", "options", "hardware"});
  ScenarioSpec spec;
  spec.label = json.get("label", "scenario-" + std::to_string(index));
  spec.options = base_options;
  if (json.contains("options")) {
    spec.options = options_from_json(json.at("options"), base_options);
  }
  if (json.contains("hardware")) spec.hardware = json.at("hardware");
  return spec;
}

Json to_json(const PingRequest& request) {
  Json json = Json::object();
  json["type"] = "ping";
  json["id"] = request.id;
  if (!request.auth.empty()) json["auth"] = request.auth;
  return json;
}

// ---------------------------------------------------------------------------
// Fleet requests (v5).
// ---------------------------------------------------------------------------

Json to_json(const CacheGetRequest& request) {
  Json json = Json::object();
  json["type"] = "cache_get";
  json["version"] = kProtocolVersion;
  json["id"] = request.id;
  json["key"] = cache_key_hex(request.key);
  if (!request.auth.empty()) json["auth"] = request.auth;
  return json;
}

Json to_json(const CachePutRequest& request) {
  Json json = Json::object();
  json["type"] = "cache_put";
  json["version"] = kProtocolVersion;
  json["id"] = request.id;
  json["key"] = cache_key_hex(request.key);
  json["artifact"] = request.artifact;
  if (!request.auth.empty()) json["auth"] = request.auth;
  return json;
}

std::string cache_put_line(const CachePutRequest& request,
                           const Json& artifact) {
  CachePutRequest envelope;
  envelope.id = request.id;
  envelope.key = request.key;
  std::string line = to_json(envelope).dump(-1);
  // Reopen the envelope over its null artifact, then append the artifact
  // and the fields that follow it in to_json's key order.
  const std::string_view null_artifact = "\"artifact\":null}";
  line.resize(line.size() - null_artifact.size());
  line += "\"artifact\":";
  artifact.dump_to(line);
  if (!request.auth.empty()) {
    line += ",\"auth\":";
    Json(request.auth).dump_to(line);
  }
  line.push_back('}');
  return line;
}

Json to_json(const StatsRequest& request) {
  Json json = Json::object();
  json["type"] = "stats";
  json["version"] = kProtocolVersion;
  json["id"] = request.id;
  if (!request.auth.empty()) json["auth"] = request.auth;
  return json;
}

CacheGetRequest cache_get_request_from_json(const Json& json) {
  require_supported_version(json);
  require_known_keys(json, "cache_get",
                     {"type", "version", "id", "key", "auth"});
  CacheGetRequest request;
  request.id = require_id(json);
  request.key = require_cache_key(json, "cache_get");
  request.auth = json.get("auth", std::string());
  return request;
}

CachePutRequest cache_put_request_from_json(Json&& json) {
  require_supported_version(json);
  require_known_keys(json, "cache_put",
                     {"type", "version", "id", "key", "artifact", "auth"});
  CachePutRequest request;
  request.id = require_id(json);
  request.key = require_cache_key(json, "cache_put");
  if (!json.contains("artifact") || !json.at("artifact").is_object()) {
    throw ServeError("cache_put needs an 'artifact' object");
  }
  request.artifact = std::move(json["artifact"]);
  request.auth = json.get("auth", std::string());
  return request;
}

StatsRequest stats_request_from_json(const Json& json) {
  require_supported_version(json);
  require_known_keys(json, "stats", {"type", "version", "id", "auth"});
  StatsRequest request;
  request.id = require_id(json);
  request.auth = json.get("auth", std::string());
  return request;
}

// ---------------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------------

Json to_json(const EventMessage& message) {
  // The event payload is flattened into the frame (not nested) so the stream
  // is directly greppable; event_to_json's "event" key carries the kind and
  // "type" distinguishes the frame.
  Json json = event_to_json(message.event);
  Json framed = Json::object();
  framed["type"] = "event";
  framed["id"] = message.id;
  for (const auto& [key, value] : json.items()) framed[key] = value;
  return framed;
}

Json to_json(const OutcomeMessage& message) {
  Json json = Json::object();
  json["type"] = "outcome";
  json["id"] = message.id;
  json["scenario"] = message.label;
  json["index"] = message.index;
  json["ok"] = message.ok;
  if (message.ok) {
    json["compile"] = message.compile;
    if (!message.simulation.is_null()) json["simulation"] = message.simulation;
  } else {
    json["error"] = message.error;
    if (!message.error_kind.empty()) json["error_kind"] = message.error_kind;
  }
  return json;
}

Json to_json(const ArtifactMessage& message) {
  Json json = Json::object();
  json["type"] = "artifact";
  json["id"] = message.id;
  json["scenario"] = message.label;
  json["index"] = message.index;
  json["artifact"] = message.artifact;
  return json;
}

Json to_json(const DoneMessage& message) {
  Json json = Json::object();
  json["type"] = "done";
  json["id"] = message.id;
  json["ok"] = message.ok_count;
  json["errors"] = message.error_count;
  json["version"] = kProtocolVersion;
  json["artifacts"] = message.artifact_count;
  return json;
}

Json to_json(const ErrorMessage& message) {
  Json json = Json::object();
  json["type"] = "error";
  json["id"] = message.id;
  json["error"] = message.error;
  return json;
}

Json to_json(const PongMessage& message) {
  Json json = Json::object();
  json["type"] = "pong";
  json["id"] = message.id;
  json["version"] = message.protocol_version;
  return json;
}

Json to_json(CacheResultMessage message) {
  Json json = Json::object();
  json["type"] = "cache_result";
  json["id"] = message.id;
  json["key"] = cache_key_hex(message.key);
  json["found"] = message.found;
  json["stored"] = message.stored;
  if (message.found && !message.artifact.is_null()) {
    json["artifact"] = std::move(message.artifact);
  }
  return json;
}

Json to_json(const StatsMessage& message) {
  Json json = Json::object();
  json["type"] = "stats";
  json["id"] = message.id;
  json["stats"] = message.stats;
  return json;
}

ServerMessage server_message_from_json(const Json& json) {
  const std::string type = json.get("type", std::string());
  if (type == "event") {
    EventMessage message;
    message.id = require_id(json);
    message.event = event_from_json(json);
    return message;
  }
  if (type == "outcome") {
    OutcomeMessage message;
    message.id = require_id(json);
    message.label = json.get("scenario", std::string());
    message.index = json.get("index", -1);
    message.ok = json.get("ok", false);
    if (message.ok) {
      if (json.contains("compile")) message.compile = json.at("compile");
      if (json.contains("simulation")) {
        message.simulation = json.at("simulation");
      }
    } else {
      message.error = json.get("error", std::string("unknown error"));
      message.error_kind = json.get("error_kind", std::string());
    }
    return message;
  }
  if (type == "artifact") {
    ArtifactMessage message;
    message.id = require_id(json);
    message.label = json.get("scenario", std::string());
    message.index = json.get("index", -1);
    if (json.contains("artifact")) message.artifact = json.at("artifact");
    return message;
  }
  if (type == "done") {
    DoneMessage message;
    message.id = require_id(json);
    message.ok_count = json.get("ok", 0);
    message.error_count = json.get("errors", 0);
    message.artifact_count = json.get("artifacts", 0);
    return message;
  }
  if (type == "error") {
    ErrorMessage message;
    message.id = require_id(json);
    message.error = json.get("error", std::string("unknown error"));
    return message;
  }
  if (type == "pong") {
    PongMessage message;
    message.id = require_id(json);
    message.protocol_version = json.get("version", kProtocolVersion);
    return message;
  }
  if (type == "cache_result") {
    CacheResultMessage message;
    message.id = require_id(json);
    message.key =
        cache_key_from_hex(json.get("key", std::string())).value_or(0);
    message.found = json.get("found", false);
    message.stored = json.get("stored", false);
    if (json.contains("artifact")) message.artifact = json.at("artifact");
    return message;
  }
  if (type == "stats") {
    StatsMessage message;
    message.id = require_id(json);
    if (json.contains("stats")) message.stats = json.at("stats");
    return message;
  }
  throw ServeError("unknown server message type '" + type + "'");
}

double stage_seconds_from_json(const Json& compile) {
  if (!compile.is_object() || !compile.contains("stage_times")) return 0.0;
  const Json& times = compile.at("stage_times");
  return times.get("partitioning_s", 0.0) + times.get("mapping_s", 0.0) +
         times.get("scheduling_s", 0.0) + times.get("lowering_s", 0.0);
}

}  // namespace pimcomp::serve
