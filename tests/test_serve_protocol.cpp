#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/cache_store.hpp"
#include "core/session.hpp"
#include "serve/net.hpp"

namespace pimcomp {
namespace {

using serve::ArtifactMessage;
using serve::CompileRequest;
using serve::DoneMessage;
using serve::ErrorMessage;
using serve::EventMessage;
using serve::OutcomeMessage;
using serve::PongMessage;
using serve::ServeError;
using serve::ServerMessage;

/// Wire round-trip: what every frame goes through (dump compact, one line,
/// reparse).
Json wire(const Json& json) {
  const std::string line = json.dump(-1);
  EXPECT_EQ(line.find('\n'), std::string::npos) << line;
  return Json::parse(line);
}

// ---------------------------------------------------------------------------
// CompileOptions JSON.
// ---------------------------------------------------------------------------

TEST(ServeProtocol, OptionsRoundTripPreservesFingerprint) {
  CompileOptions options;
  options.mode = PipelineMode::kLowLatency;
  options.parallelism_degree = 7;
  options.memory_policy = MemoryPolicy::kNaive;
  options.mapper = "puma";
  options.scheduler = "ht";  // explicitly diverge from the mode-derived key
  options.ga.population = 13;
  options.ga.generations = 17;
  options.ga.elite = 4;
  options.ga.tournament_size = 5;
  options.ga.mutations_per_child = 3;
  options.ga.target_fill = 0.75;
  options.ga.enable_grow = false;
  options.ga.enable_merge = false;
  options.ga.seed_baseline = false;
  options.max_nodes_per_core = 11;
  options.ht_flush_windows = 5;
  options.seed = 424242;

  const CompileOptions parsed =
      serve::options_from_json(wire(serve::options_to_json(options)));
  EXPECT_EQ(fingerprint(parsed), fingerprint(options));
  EXPECT_EQ(parsed.mapper, "puma");
  EXPECT_EQ(parsed.scheduler_key(), "ht");
}

TEST(ServeProtocol, OptionsPartialJsonKeepsDefaults) {
  Json json = Json::object();
  json["mode"] = "ll";
  json["parallelism"] = 3;
  const CompileOptions parsed = serve::options_from_json(json);
  const CompileOptions defaults;
  EXPECT_EQ(parsed.mode, PipelineMode::kLowLatency);
  EXPECT_EQ(parsed.parallelism_degree, 3);
  EXPECT_EQ(parsed.mapper, defaults.mapper);
  EXPECT_EQ(parsed.ga.population, defaults.ga.population);
  EXPECT_EQ(parsed.seed, defaults.seed);
}

TEST(ServeProtocol, OptionsJsonLayersOverCallerBase) {
  CompileOptions base;
  base.mode = PipelineMode::kLowLatency;
  base.ga.population = 8;
  base.ga.generations = 4;
  base.seed = 99;

  Json json = Json::object();
  json["parallelism"] = 40;
  const CompileOptions parsed = serve::options_from_json(json, base);
  EXPECT_EQ(parsed.parallelism_degree, 40);
  EXPECT_EQ(parsed.mode, PipelineMode::kLowLatency);
  EXPECT_EQ(parsed.ga.population, 8);   // not GaConfig's 100
  EXPECT_EQ(parsed.ga.generations, 4);  // not GaConfig's 200
  EXPECT_EQ(parsed.seed, 99u);

  // A scenario entry without an "options" object is exactly the base.
  Json entry = Json::object();
  entry["label"] = "as-is";
  const serve::ScenarioSpec spec =
      serve::scenario_spec_from_json(entry, 0, base);
  EXPECT_EQ(fingerprint(spec.options), fingerprint(base));
}

TEST(ServeProtocol, OptionsRejectBadMode) {
  Json json = Json::object();
  json["mode"] = "warp-speed";
  EXPECT_THROW(serve::options_from_json(json), ServeError);
}

TEST(ServeProtocol, SeedsTravelExactlyOrAreRejected) {
  // 2^53-1 is the largest integer a JSON double holds exactly.
  CompileOptions options;
  options.seed = (std::uint64_t{1} << 53) - 1;
  EXPECT_EQ(
      serve::options_from_json(wire(serve::options_to_json(options))).seed,
      options.seed);

  // 2^53 would reach the daemon as some neighbour: the client refuses to
  // encode it, and a hand-written frame carrying it is refused on decode.
  options.seed = std::uint64_t{1} << 53;
  EXPECT_THROW(serve::options_to_json(options), ServeError);
  for (const char* frame :
       {R"({"seed": 9007199254740992})", R"({"seed": 9007199254740993})",
        R"({"seed": 1e300})", R"({"seed": -1})"}) {
    EXPECT_THROW(serve::options_from_json(Json::parse(frame)), ServeError)
        << frame;
  }
  try {
    serve::options_from_json(Json::parse(R"({"seed": 9007199254740992})"));
  } catch (const ServeError& e) {
    const std::string message = e.what();
    EXPECT_EQ(message.find('\n'), std::string::npos) << message;
    EXPECT_NE(message.find("options.seed"), std::string::npos) << message;
  }
}

TEST(ServeProtocol, AbsurdWireNumericsAreRejected) {
  // One request must never be able to OOM the shared daemon: allocation
  // drivers carry the same sanity ceilings as the CLI.
  Json huge_pop = Json::object();
  Json ga = Json::object();
  ga["population"] = 2'000'000'000;
  huge_pop["ga"] = ga;
  EXPECT_THROW(serve::options_from_json(huge_pop), ServeError);

  Json huge_par = Json::object();
  huge_par["parallelism"] = (1 << 20) + 1;
  EXPECT_THROW(serve::options_from_json(huge_par), ServeError);

  Json huge_cores = Json::object();
  huge_cores["core_count"] = 2'000'000'000;
  EXPECT_THROW(serve::hardware_from_json(huge_cores), ServeError);

  Json request = Json::object();
  request["type"] = "compile";
  request["model"] = "vgg16";
  request["cores"] = 2'000'000'000;
  Json scenarios = Json::array();
  scenarios.push_back(Json::object());
  request["scenarios"] = scenarios;
  EXPECT_THROW(serve::request_from_json(request), ServeError);
}

TEST(ServeProtocol, MisspelledKeysAreRejectedNotIgnored) {
  // "parallelism_degree" is the C++ field name; the wire key is
  // "parallelism" — silently ignoring the typo would compile the default
  // configuration under the requested label.
  Json options = Json::object();
  options["parallelism_degree"] = 40;
  EXPECT_THROW(serve::options_from_json(options), ServeError);

  // GA keys belong inside the "ga" object.
  Json flat_ga = Json::object();
  flat_ga["generations"] = 5;
  EXPECT_THROW(serve::options_from_json(flat_ga), ServeError);

  Json bad_ga = Json::object();
  Json ga = Json::object();
  ga["popsize"] = 10;
  bad_ga["ga"] = ga;
  EXPECT_THROW(serve::options_from_json(bad_ga), ServeError);

  Json hw = Json::object();
  hw["cores"] = 8;  // wire key is "core_count"
  EXPECT_THROW(serve::hardware_from_json(hw), ServeError);

  Json entry = Json::object();
  entry["options "] = Json::object();  // stray space
  EXPECT_THROW(serve::scenario_spec_from_json(entry, 0), ServeError);
}

// ---------------------------------------------------------------------------
// HardwareConfig JSON.
// ---------------------------------------------------------------------------

TEST(ServeProtocol, HardwareRoundTripPreservesFingerprint) {
  HardwareConfig hw = HardwareConfig::puma_default();
  hw.xbar_rows = 256;
  hw.cell_bits = 4;
  hw.core_count = 72;
  hw.cores_per_chip = 18;
  hw.connection = CoreConnection::kBus;
  hw.vfu_ops_per_ns = 3.5;
  hw.local_memory_bytes = 128 * 1024;
  hw.noc_hop_latency = from_ns(3.0);
  hw.mvm_latency = from_ns(750.0);

  const HardwareConfig parsed =
      serve::hardware_from_json(wire(serve::hardware_to_json(hw)));
  EXPECT_EQ(fingerprint(parsed), fingerprint(hw));
}

TEST(ServeProtocol, HardwarePartialOverrideKeepsBaseFields) {
  Json json = Json::object();
  json["core_count"] = 4;
  const HardwareConfig base = HardwareConfig::puma_default();
  const HardwareConfig parsed = serve::hardware_from_json(json, base);
  EXPECT_EQ(parsed.core_count, 4);
  EXPECT_EQ(parsed.xbar_rows, base.xbar_rows);
  EXPECT_EQ(parsed.mvm_latency, base.mvm_latency);
}

// ---------------------------------------------------------------------------
// Events.
// ---------------------------------------------------------------------------

TEST(ServeProtocol, EventRoundTripsAllKinds) {
  PipelineEvent stage_end;
  stage_end.kind = PipelineEvent::Kind::kStageEnd;
  stage_end.name = "mapping";
  stage_end.scenario = "P=20";
  stage_end.scenario_index = 2;
  stage_end.seconds = 1.25;

  PipelineEvent parsed = event_from_json(wire(event_to_json(stage_end)));
  EXPECT_EQ(parsed.kind, PipelineEvent::Kind::kStageEnd);
  EXPECT_EQ(parsed.name, "mapping");
  EXPECT_EQ(parsed.scenario, "P=20");
  EXPECT_EQ(parsed.scenario_index, 2);
  EXPECT_DOUBLE_EQ(parsed.seconds, 1.25);

  PipelineEvent hit;
  hit.kind = PipelineEvent::Kind::kCacheHit;
  hit.name = cache_names::kWorkload;
  hit.scenario = "P=1";
  hit.scenario_index = 0;
  hit.hits = 9;
  parsed = event_from_json(wire(event_to_json(hit)));
  EXPECT_EQ(parsed.kind, PipelineEvent::Kind::kCacheHit);
  EXPECT_EQ(parsed.name, cache_names::kWorkload);
  EXPECT_EQ(parsed.hits, 9u);

  // v3: cache events carry their serving tier, and stores are events too.
  hit.source = cache_sources::kDisk;
  parsed = event_from_json(wire(event_to_json(hit)));
  EXPECT_EQ(parsed.source, cache_sources::kDisk);

  PipelineEvent store;
  store.kind = PipelineEvent::Kind::kCacheStore;
  store.name = cache_names::kMapping;
  store.scenario = "P=1";
  store.hits = 2;
  store.source = cache_sources::kDisk;
  parsed = event_from_json(wire(event_to_json(store)));
  EXPECT_EQ(parsed.kind, PipelineEvent::Kind::kCacheStore);
  EXPECT_EQ(parsed.name, cache_names::kMapping);
  EXPECT_EQ(parsed.hits, 2u);
  EXPECT_EQ(parsed.source, cache_sources::kDisk);

  PipelineEvent begin;
  begin.kind = PipelineEvent::Kind::kStageBegin;
  begin.name = "partitioning";
  parsed = event_from_json(wire(event_to_json(begin)));
  EXPECT_EQ(parsed.kind, PipelineEvent::Kind::kStageBegin);
  EXPECT_EQ(parsed.scenario_index, -1);
}

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

TEST(ServeProtocol, CompileRequestRoundTrip) {
  CompileRequest request;
  request.id = 42;
  request.model = "squeezenet";
  request.input_size = 64;
  request.cores = 12;
  request.simulate = false;
  serve::ScenarioSpec spec;
  spec.label = "tight";
  spec.options.parallelism_degree = 5;
  Json hw_override = Json::object();
  hw_override["core_count"] = 1;
  spec.hardware = hw_override;
  request.scenarios.push_back(spec);

  const CompileRequest parsed =
      serve::request_from_json(wire(serve::to_json(request)));
  EXPECT_EQ(parsed.id, 42);
  EXPECT_EQ(parsed.model, "squeezenet");
  EXPECT_EQ(parsed.input_size, 64);
  EXPECT_EQ(parsed.cores, 12);
  EXPECT_FALSE(parsed.simulate);
  ASSERT_EQ(parsed.scenarios.size(), 1u);
  EXPECT_EQ(parsed.scenarios[0].label, "tight");
  EXPECT_EQ(parsed.scenarios[0].options.parallelism_degree, 5);
  ASSERT_TRUE(parsed.scenarios[0].hardware.has_value());
  EXPECT_EQ(parsed.scenarios[0].hardware->get("core_count", 0), 1);
}

TEST(ServeProtocol, RequestNeedsModelOrGraphAndScenarios) {
  Json no_model = Json::object();
  no_model["type"] = "compile";
  Json scenarios = Json::array();
  scenarios.push_back(Json::object());
  no_model["scenarios"] = scenarios;
  EXPECT_THROW(serve::request_from_json(no_model), ServeError);

  Json no_scenarios = Json::object();
  no_scenarios["type"] = "compile";
  no_scenarios["model"] = "vgg16";
  EXPECT_THROW(serve::request_from_json(no_scenarios), ServeError);

  Json both = Json::object();
  both["type"] = "compile";
  both["model"] = "vgg16";
  both["graph"] = Json::object();
  both["scenarios"] = scenarios;
  EXPECT_THROW(serve::request_from_json(both), ServeError);
}

// ---------------------------------------------------------------------------
// Server messages.
// ---------------------------------------------------------------------------

TEST(ServeProtocol, ServerMessagesRoundTripThroughVariant) {
  EventMessage event;
  event.id = 7;
  event.event.kind = PipelineEvent::Kind::kStageBegin;
  event.event.name = "scheduling";
  ServerMessage message = serve::server_message_from_json(
      wire(serve::to_json(event)));
  ASSERT_TRUE(std::holds_alternative<EventMessage>(message));
  EXPECT_EQ(std::get<EventMessage>(message).id, 7);
  EXPECT_EQ(std::get<EventMessage>(message).event.name, "scheduling");

  OutcomeMessage ok;
  ok.id = 7;
  ok.label = "P=20";
  ok.index = 1;
  ok.ok = true;
  Json compile = Json::object();
  compile["model"] = "x";
  ok.compile = compile;
  message = serve::server_message_from_json(wire(serve::to_json(ok)));
  ASSERT_TRUE(std::holds_alternative<OutcomeMessage>(message));
  EXPECT_TRUE(std::get<OutcomeMessage>(message).ok);
  EXPECT_EQ(std::get<OutcomeMessage>(message).compile.get("model",
                                                          std::string()),
            "x");

  OutcomeMessage bad;
  bad.id = 7;
  bad.label = "P=1M";
  bad.index = 0;
  bad.ok = false;
  bad.error = "CapacityError: does not fit";
  bad.error_kind = to_string(ErrorKind::kCapacity);
  message = serve::server_message_from_json(wire(serve::to_json(bad)));
  ASSERT_TRUE(std::holds_alternative<OutcomeMessage>(message));
  EXPECT_FALSE(std::get<OutcomeMessage>(message).ok);
  EXPECT_EQ(std::get<OutcomeMessage>(message).error,
            "CapacityError: does not fit");
  EXPECT_EQ(std::get<OutcomeMessage>(message).error_kind, "capacity");

  message = serve::server_message_from_json(
      wire(serve::to_json(DoneMessage{7, 3, 1})));
  ASSERT_TRUE(std::holds_alternative<DoneMessage>(message));
  EXPECT_EQ(std::get<DoneMessage>(message).ok_count, 3);
  EXPECT_EQ(std::get<DoneMessage>(message).error_count, 1);

  message = serve::server_message_from_json(
      wire(serve::to_json(ErrorMessage{7, "unknown model"})));
  ASSERT_TRUE(std::holds_alternative<ErrorMessage>(message));
  EXPECT_EQ(std::get<ErrorMessage>(message).error, "unknown model");

  message = serve::server_message_from_json(
      wire(serve::to_json(PongMessage{7, serve::kProtocolVersion})));
  ASSERT_TRUE(std::holds_alternative<PongMessage>(message));
}

TEST(ServeProtocol, UnknownServerMessageTypeThrows) {
  Json json = Json::object();
  json["type"] = "telegram";
  EXPECT_THROW(serve::server_message_from_json(json), ServeError);
}

// ---------------------------------------------------------------------------
// Structured errors on the wire (PR 4).
// ---------------------------------------------------------------------------

TEST(ServeProtocol, ErrorKindRoundTripsEveryValue) {
  for (const ErrorKind kind :
       {ErrorKind::kCapacity, ErrorKind::kConfig, ErrorKind::kCancelled,
        ErrorKind::kInternal}) {
    OutcomeMessage failed;
    failed.id = 11;
    failed.label = "broken";
    failed.ok = false;
    failed.error = "some failure";
    failed.error_kind = to_string(kind);
    const ServerMessage message =
        serve::server_message_from_json(wire(serve::to_json(failed)));
    ASSERT_TRUE(std::holds_alternative<OutcomeMessage>(message));
    const OutcomeMessage& parsed = std::get<OutcomeMessage>(message);
    EXPECT_EQ(parsed.error_kind, to_string(kind));
    // Clients branch on the enum, not the string.
    EXPECT_EQ(error_kind_from_string(parsed.error_kind), kind);
  }

  // Successful outcomes carry no error_kind key at all.
  OutcomeMessage good;
  good.id = 11;
  good.ok = true;
  good.compile = Json::object();
  const Json frame = wire(serve::to_json(good));
  EXPECT_FALSE(frame.contains("error_kind"));
  // A v1 failure frame (no error_kind) still parses, as "unspecified".
  Json legacy = Json::object();
  legacy["type"] = "outcome";
  legacy["id"] = 3;
  legacy["ok"] = false;
  legacy["error"] = "old server";
  const ServerMessage from_v1 = serve::server_message_from_json(legacy);
  EXPECT_TRUE(std::get<OutcomeMessage>(from_v1).error_kind.empty());
}

TEST(ServeProtocol, BackendOptionsKeyIsOptInOnTheWire) {
  // No backend selected: the key is absent, so requests that don't lower
  // serialize exactly as they did before the key existed.
  EXPECT_FALSE(serve::options_to_json(CompileOptions{}).contains("backend"));

  CompileOptions lowered;
  lowered.backend = "isa-json";
  const Json json = wire(serve::options_to_json(lowered));
  EXPECT_EQ(json.get("backend", std::string()), "isa-json");
  const CompileOptions parsed = serve::options_from_json(json);
  EXPECT_EQ(parsed.backend, "isa-json");
  EXPECT_EQ(fingerprint(parsed), fingerprint(lowered));
}

TEST(ServeProtocol, ArtifactFrameRoundTrips) {
  ArtifactMessage message;
  message.id = 21;
  message.label = "P=4";
  message.index = 2;
  Json payload = Json::object();
  payload["isa"] = 1;
  message.artifact = payload;

  const ServerMessage parsed =
      serve::server_message_from_json(wire(serve::to_json(message)));
  const ArtifactMessage& artifact = std::get<ArtifactMessage>(parsed);
  EXPECT_EQ(artifact.id, 21);
  EXPECT_EQ(artifact.label, "P=4");
  EXPECT_EQ(artifact.index, 2);
  EXPECT_EQ(artifact.artifact.get("isa", 0), 1);
}

TEST(ServeProtocol, DoneFrameAlwaysCarriesVersionAndArtifacts) {
  DoneMessage done;
  done.id = 5;
  done.ok_count = 2;
  done.error_count = 1;
  done.artifact_count = 2;
  const Json json = wire(serve::to_json(done));
  EXPECT_EQ(json.get("version", 0), serve::kProtocolVersion);
  EXPECT_EQ(json.get("artifacts", -1), 2);
  const DoneMessage parsed =
      std::get<DoneMessage>(serve::server_message_from_json(json));
  EXPECT_EQ(parsed.ok_count, 2);
  EXPECT_EQ(parsed.error_count, 1);
  EXPECT_EQ(parsed.artifact_count, 2);
}

/// One well-formed frame of every request type that declares a version,
/// each paired with its parser.
struct VersionedRequest {
  const char* type;
  Json frame;
  void (*parse)(const Json&);
};

std::vector<VersionedRequest> versioned_requests() {
  CompileRequest compile;
  compile.model = "squeezenet";
  compile.scenarios.push_back(serve::ScenarioSpec{});
  serve::CacheGetRequest get;
  get.key = 7;
  serve::CachePutRequest put;
  put.key = 7;
  put.artifact = Json::object();
  return {
      {"compile", serve::to_json(compile),
       [](const Json& json) { serve::request_from_json(json); }},
      {"cache_get", serve::to_json(get),
       [](const Json& json) { serve::cache_get_request_from_json(json); }},
      {"cache_put", serve::to_json(put),
       [](const Json& json) {
         serve::cache_put_request_from_json(Json(json));
       }},
      {"stats", serve::to_json(serve::StatsRequest{}),
       [](const Json& json) { serve::stats_request_from_json(json); }},
  };
}

TEST(ServeProtocol, EveryRequestTypeRejectsAnyOtherDeclaredVersion) {
  for (VersionedRequest& request : versioned_requests()) {
    SCOPED_TRACE(request.type);
    ASSERT_EQ(request.frame.get("version", 0), serve::kProtocolVersion);
    EXPECT_NO_THROW(request.parse(wire(request.frame)));
    // Every older version, and the next one.
    for (int version = 1; version <= serve::kProtocolVersion + 1; ++version) {
      if (version == serve::kProtocolVersion) continue;
      SCOPED_TRACE(version);
      request.frame["version"] = version;
      try {
        request.parse(wire(request.frame));
        FAIL() << "a v" << version << " request must be rejected";
      } catch (const ServeError& e) {
        // One line naming both versions.
        const std::string expected =
            "request speaks protocol v" + std::to_string(version) +
            ", this server speaks v" +
            std::to_string(serve::kProtocolVersion);
        EXPECT_EQ(std::string(e.what()), expected);
      }
    }
  }
}

TEST(ServeProtocol, EveryRequestTypeAcceptsAnAbsentVersion) {
  for (VersionedRequest& request : versioned_requests()) {
    SCOPED_TRACE(request.type);
    Json frame = Json::object();
    for (const auto& [key, value] : request.frame.items()) {
      if (key != "version") frame[key] = value;
    }
    ASSERT_FALSE(frame.contains("version"));
    EXPECT_NO_THROW(request.parse(wire(frame)));
  }
}

TEST(ServeProtocol, RequestPriorityRoundTripsAndIsBounded) {
  CompileRequest request;
  request.model = "squeezenet";
  request.priority = 9;
  request.scenarios.push_back(serve::ScenarioSpec{});
  const CompileRequest parsed =
      serve::request_from_json(wire(serve::to_json(request)));
  EXPECT_EQ(parsed.priority, 9);

  // Absent priority means 0; absurd values are rejected, not clamped.
  Json json = serve::to_json(request);
  json["priority"] = 1'000'000;
  EXPECT_THROW(serve::request_from_json(json), ServeError);
}

// ---------------------------------------------------------------------------
// v5: deadlines, auth, cache peering, stats.
// ---------------------------------------------------------------------------

TEST(ServeProtocol, DeadlineAndAuthRoundTripAndAreOptInOnTheWire) {
  CompileRequest request;
  request.model = "squeezenet";
  request.scenarios.push_back(serve::ScenarioSpec{});

  // Opt-in: a request without a deadline or auth must not grow new keys —
  // that is what keeps v4 requesters byte-compatible.
  const Json bare = serve::to_json(request);
  EXPECT_FALSE(bare.contains("deadline_ms"));
  EXPECT_FALSE(bare.contains("auth"));

  request.deadline_ms = 1500;
  request.auth = "token";
  const CompileRequest parsed =
      serve::request_from_json(wire(serve::to_json(request)));
  EXPECT_EQ(parsed.deadline_ms, 1500);
  EXPECT_EQ(parsed.auth, "token");

  // Negative and absurd budgets are rejected, not clamped.
  Json json = serve::to_json(request);
  json["deadline_ms"] = -1;
  EXPECT_THROW(serve::request_from_json(json), ServeError);
  // Past the ~10-year wire cap.
  json["deadline_ms"] = static_cast<std::int64_t>(400'000'000'000LL);
  EXPECT_THROW(serve::request_from_json(json), ServeError);
}

TEST(ServeProtocol, CacheGetPutStatsRequestsRoundTrip) {
  serve::CacheGetRequest get;
  get.id = 11;
  get.key = 0xdeadbeef12345678ull;
  get.auth = "t";
  const serve::CacheGetRequest get_parsed =
      serve::cache_get_request_from_json(wire(serve::to_json(get)));
  EXPECT_EQ(get_parsed.id, 11);
  EXPECT_EQ(get_parsed.key, get.key);
  EXPECT_EQ(get_parsed.auth, "t");

  serve::CachePutRequest put;
  put.id = 12;
  put.key = 0x0000000000000001ull;  // leading zeros must survive the hex trip
  put.artifact = Json::object();
  put.artifact["payload"] = std::string("x");
  const serve::CachePutRequest put_parsed =
      serve::cache_put_request_from_json(wire(serve::to_json(put)));
  EXPECT_EQ(put_parsed.key, put.key);
  EXPECT_EQ(put_parsed.artifact.get("payload", std::string()), "x");
  // The line RemoteStore sends is the same frame, byte for byte, with and
  // without an auth token.
  EXPECT_EQ(serve::cache_put_line(put, put.artifact),
            serve::to_json(put).dump(-1));
  put.auth = "tok\"en";
  EXPECT_EQ(serve::cache_put_line(put, put.artifact),
            serve::to_json(put).dump(-1));

  serve::StatsRequest stats;
  stats.id = 13;
  const serve::StatsRequest stats_parsed =
      serve::stats_request_from_json(wire(serve::to_json(stats)));
  EXPECT_EQ(stats_parsed.id, 13);
}

TEST(ServeProtocol, CacheRequestsRejectMalformedKeysAndMissingArtifacts) {
  Json get = Json::object();
  get["type"] = "cache_get";
  get["id"] = 1;
  get["key"] = std::string("not-hex");
  EXPECT_THROW(serve::cache_get_request_from_json(get), ServeError);
  get["key"] = std::string("abcd");  // too short: must be exactly 16 hex
  EXPECT_THROW(serve::cache_get_request_from_json(get), ServeError);

  Json keyless = Json::object();
  keyless["type"] = "cache_get";
  keyless["id"] = 1;
  EXPECT_THROW(serve::cache_get_request_from_json(keyless), ServeError);

  Json put = Json::object();
  put["type"] = "cache_put";
  put["id"] = 2;
  put["key"] = cache_key_hex(7);
  EXPECT_THROW(serve::cache_put_request_from_json(Json(put)),
               ServeError);  // no artifact
  put["artifact"] = std::string("not-an-object");
  EXPECT_THROW(serve::cache_put_request_from_json(Json(put)), ServeError);

  // Misspellings are rejected, not ignored — same contract as compile.
  Json stats = Json::object();
  stats["type"] = "stats";
  stats["id"] = 3;
  stats["auht"] = std::string("t");
  EXPECT_THROW(serve::stats_request_from_json(stats), ServeError);
}

TEST(ServeProtocol, CacheResultAndStatsMessagesRoundTrip) {
  serve::CacheResultMessage found;
  found.id = 5;
  found.key = 0xabcdef0123456789ull;
  found.found = true;
  found.artifact = Json::object();
  found.artifact["v"] = 1;
  const Json found_wire = wire(serve::to_json(found));
  ServerMessage message = serve::server_message_from_json(found_wire);
  ASSERT_TRUE(std::holds_alternative<serve::CacheResultMessage>(message));
  const auto& parsed = std::get<serve::CacheResultMessage>(message);
  EXPECT_EQ(parsed.key, found.key);
  EXPECT_TRUE(parsed.found);
  EXPECT_EQ(parsed.artifact.get("v", 0), 1);

  // A miss carries no artifact payload at all.
  serve::CacheResultMessage miss;
  miss.id = 6;
  miss.key = 42;
  const Json miss_wire = wire(serve::to_json(miss));
  EXPECT_FALSE(miss_wire.contains("artifact"));
  message = serve::server_message_from_json(miss_wire);
  ASSERT_TRUE(std::holds_alternative<serve::CacheResultMessage>(message));
  EXPECT_FALSE(std::get<serve::CacheResultMessage>(message).found);

  serve::StatsMessage stats;
  stats.id = 7;
  stats.stats = Json::object();
  stats.stats["role"] = std::string("daemon");
  message = serve::server_message_from_json(wire(serve::to_json(stats)));
  ASSERT_TRUE(std::holds_alternative<serve::StatsMessage>(message));
  EXPECT_EQ(std::get<serve::StatsMessage>(message).stats.get(
                "role", std::string()),
            "daemon");
}

}  // namespace
}  // namespace pimcomp
