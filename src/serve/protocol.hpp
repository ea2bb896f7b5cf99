#ifndef PIMCOMP_SERVE_PROTOCOL_HPP
#define PIMCOMP_SERVE_PROTOCOL_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "arch/hardware_config.hpp"
#include "common/json.hpp"
#include "core/compiler.hpp"
#include "core/trace.hpp"

namespace pimcomp::serve {

/// The one wire version this build speaks. Requests declaring any other
/// version (compile, cache_get, cache_put, stats) are rejected with a
/// one-line error naming both; an absent `version` means current, and ping
/// is version-free because its pong is how a client learns ours. Every
/// requester is in-tree, so a shape change bumps this and all of them move
/// together. Changelog: v2 added `error_kind` on failed outcomes and the
/// request `priority`; v3 the cache `source` attribution and the
/// `cache_store` event kind; v4 the `backend` options key, `artifact`
/// frames and the `version`/`artifacts` fields on `done`; v5 the fleet
/// vocabulary (`cache_get`/`cache_put`/`stats` with their replies,
/// `deadline_ms`, `auth`); v6 the island-model GA knobs
/// (`options.ga.islands`, `options.ga.migration_interval`).
inline constexpr int kProtocolVersion = 6;

// ---------------------------------------------------------------------------
// Value ranges of the wire numerics: the one table both the request decoder
// and every frontend flag that fills such a value read. Values past these
// make the backend allocate per-core / per-individual / per-pixel state
// until the process keels over, and one request must never be able to take
// a shared daemon down.
// ---------------------------------------------------------------------------

inline constexpr long long kMaxWireCores = 1 << 20;
inline constexpr long long kMaxWireParallelism = 1 << 20;
inline constexpr long long kMaxWireGaBudget = 1'000'000;
/// Each island costs an evaluator with population-sized per-slot scratch
/// and its own breed buffer, so the cap is far tighter than the
/// generation/population budget.
inline constexpr long long kMaxWireGaIslands = 4096;
inline constexpr long long kMaxWireDimension = 1 << 20;  // xbar/core geometry
inline constexpr long long kMaxWireInputSize = 1 << 16;
/// ~10 years in ms: deadlines past this are configuration errors, not
/// budgets.
inline constexpr long long kMaxWireDeadlineMs = 315'360'000'000LL;
/// Job-queue priority range (CompileRequest::priority).
inline constexpr long long kMinWirePriority = -1000;
inline constexpr long long kMaxWirePriority = 1000;
/// JSON numbers travel as doubles, which hold integers exactly only below
/// 2^53; a larger seed would arrive rounded and compile a different key.
inline constexpr std::uint64_t kMaxWireSeed = (std::uint64_t{1} << 53) - 1;

// ---------------------------------------------------------------------------
// Field (de)serialization shared by requests and tooling.
// ---------------------------------------------------------------------------

/// CompileOptions <-> JSON. Serialization covers every field that
/// participates in fingerprint(CompileOptions) so two options objects that
/// round-trip compare fingerprint-equal; deserialization starts from `base`
/// (default: a default-constructed CompileOptions — the protocol's
/// documented meaning of an absent key) and applies the keys present, so
/// requests stay terse ({"mode": "ll", "parallelism": 20}). Callers with
/// their own defaults (the CLI's flag-built options under --scenarios)
/// pass them as `base`.
Json options_to_json(const CompileOptions& options);
CompileOptions options_from_json(const Json& json,
                                 const CompileOptions& base = {});

/// HardwareConfig <-> JSON, same contract: every fingerprinted field is
/// emitted, absent keys keep the values of `base` (default: the paper's
/// PUMA instantiation), so requests override only what they change.
Json hardware_to_json(const HardwareConfig& hw);
HardwareConfig hardware_from_json(const Json& json,
                                  const HardwareConfig& base =
                                      HardwareConfig::puma_default());

// ---------------------------------------------------------------------------
// Client -> server.
// ---------------------------------------------------------------------------

/// One scenario of a request batch. The per-scenario hardware override (if
/// any) is kept as raw JSON: it is applied on top of the *request's*
/// resolved hardware — which may itself involve server-side core-count
/// auto-fit — so it cannot be resolved to a HardwareConfig at parse time.
struct ScenarioSpec {
  std::string label;
  CompileOptions options;
  std::optional<Json> hardware;
};

/// A compile request: one model, one (possibly overridden) hardware config,
/// and a batch of scenarios compiled through the server's shared
/// CompilerSession for that (graph, hardware) identity.
struct CompileRequest {
  std::int64_t id = 0;            ///< echoed on each response (0: client picks)
  std::string model;              ///< zoo model name; exclusive with `graph`
  std::optional<Json> graph;      ///< inline PIMCOMP graph JSON
  int input_size = 0;             ///< zoo resolution (0 = canonical)
  int cores = 0;                  ///< core count (0 = auto-fit, 3x headroom)
  std::optional<Json> hardware;   ///< overrides on HardwareConfig::puma_default
  bool simulate = true;           ///< attach a SimReport to each ok outcome
  /// Job-queue priority of every scenario in this request (higher runs
  /// sooner on the shared session; ties are FIFO). Default 0.
  int priority = 0;
  /// Client deadline budget in milliseconds from request receipt (v5).
  /// A scenario job whose deadline has passed before it starts is dropped
  /// with error_kind "deadline" instead of compiling into a result nobody
  /// is waiting for. 0 = no deadline.
  std::int64_t deadline_ms = 0;
  /// Authentication token (v5); required (constant-time compared) when the
  /// daemon/router was started with --auth-token. Empty = none sent.
  std::string auth;
  std::vector<ScenarioSpec> scenarios;
};

/// Parses one scenario entry ({"label": ..., "options": {...},
/// "hardware": {...}}); `index` names unlabeled scenarios "scenario-N" and
/// `base_options` seeds fields the entry leaves unset. Shared by request
/// parsing and `pimcomp_cli submit --scenarios FILE`.
ScenarioSpec scenario_spec_from_json(const Json& json, std::size_t index,
                                     const CompileOptions& base_options = {});

Json to_json(const CompileRequest& request);
/// Throws ServeError on structural problems (no model and no graph, empty
/// scenario list, a declared version other than kProtocolVersion).
CompileRequest request_from_json(const Json& json);

/// Connection liveness probe; the server echoes a pong with the same id.
/// `auth` (v5) is emitted only when non-empty, keeping the frame
/// byte-identical to older clients' pings otherwise.
struct PingRequest {
  std::int64_t id = 0;
  std::string auth;
};

Json to_json(const PingRequest& request);

// ---------------------------------------------------------------------------
// Fleet requests (v5): the remote cache tier and operational stats.
// ---------------------------------------------------------------------------

/// Asks a daemon for the cached artifact under `key` (its disk tier only —
/// a daemon never forwards a cache_get to its own peers, which keeps fleet
/// lookups one hop and loop-free). Answered with a CacheResultMessage.
struct CacheGetRequest {
  std::int64_t id = 0;
  std::uint64_t key = 0;
  std::string auth;
};

/// Offers a freshly computed artifact to a daemon's disk tier (first
/// writer wins, exactly like a local store). Answered with a
/// CacheResultMessage whose `stored` says whether it was newly accepted.
struct CachePutRequest {
  std::int64_t id = 0;
  std::uint64_t key = 0;
  Json artifact;
  std::string auth;
};

/// Asks a daemon (or the router) for its operational counters. Answered
/// with a StatsMessage.
struct StatsRequest {
  std::int64_t id = 0;
  std::string auth;
};

Json to_json(const CacheGetRequest& request);
Json to_json(const CachePutRequest& request);
Json to_json(const StatsRequest& request);
/// The wire line of to_json(request) with `artifact` in place of
/// `request.artifact`, dumped straight into the line: a sender that keeps
/// its artifact elsewhere (RemoteStore) never copies it into a frame.
std::string cache_put_line(const CachePutRequest& request,
                           const Json& artifact);
/// Throw ServeError on malformed frames (bad key, missing artifact,
/// unsupported version).
CacheGetRequest cache_get_request_from_json(const Json& json);
/// Moves the artifact out of `json` (the rest of the frame stays intact,
/// so an error reply can still read its id).
CachePutRequest cache_put_request_from_json(Json&& json);
StatsRequest stats_request_from_json(const Json& json);

/// The id to answer any request frame under: its "id", or 0 when that is
/// absent or not an exact integer (decoding the request then reports the
/// bad id itself). Never throws, so an error reply can always be built.
std::int64_t reply_id(const Json& json) noexcept;

// ---------------------------------------------------------------------------
// Server -> client.
// ---------------------------------------------------------------------------

/// Progress: one PipelineObserver callback bridged from the session running
/// the request, streamed while the batch compiles. The payload shape is
/// exactly core/trace.hpp's event_to_json, plus the request id.
struct EventMessage {
  std::int64_t id = 0;
  PipelineEvent event;
};

/// Terminal record of one scenario — the wire form of ScenarioOutcome.
/// `ok == false` carries the structured error of an infeasible,
/// misconfigured, or cancelled design point: the human-readable message
/// plus the machine-readable `error_kind` ("capacity" / "config" /
/// "cancelled" / "internal", see pimcomp::ErrorKind), so clients branch on
/// the kind instead of string-matching what() text. The connection and the
/// rest of the batch are unaffected.
struct OutcomeMessage {
  std::int64_t id = 0;
  std::string label;
  int index = -1;
  bool ok = false;
  std::string error;       ///< !ok only
  std::string error_kind;  ///< !ok only: to_string(ErrorKind)
  Json compile;            ///< ok only: core/compile_report.hpp JSON
  Json simulation;         ///< ok && request.simulate only
};

/// One lowered instruction stream: emitted right after the outcome of a
/// scenario whose options selected a lowering backend, carrying the
/// backend/instruction_stream.hpp artifact JSON verbatim.
struct ArtifactMessage {
  std::int64_t id = 0;
  std::string label;
  int index = -1;
  Json artifact;  ///< InstructionStream::to_json()
};

/// End of a request: every scenario has reported its outcome. The frame
/// also carries the server's `version`.
struct DoneMessage {
  std::int64_t id = 0;
  int ok_count = 0;
  int error_count = 0;
  int artifact_count = 0;  ///< artifact frames that preceded this done
};

/// Request-level failure (malformed JSON, unknown model, bad hardware):
/// terminal for the request, not for the connection.
struct ErrorMessage {
  std::int64_t id = 0;
  std::string error;
};

struct PongMessage {
  std::int64_t id = 0;
  int protocol_version = kProtocolVersion;
};

/// Answer to a cache_get (found/artifact meaningful) or cache_put (stored
/// meaningful). The artifact travels verbatim — the requester revalidates
/// its envelope and content exactly like a disk artifact.
struct CacheResultMessage {
  std::int64_t id = 0;
  std::uint64_t key = 0;
  bool found = false;
  bool stored = false;
  Json artifact;
};

/// Answer to a stats request: a free-form JSON payload (per-tier cache
/// counters on a daemon, per-backend counters on the router) so tooling
/// renders whatever the peer knows without a schema lockstep.
struct StatsMessage {
  std::int64_t id = 0;
  Json stats;
};

Json to_json(const EventMessage& message);
Json to_json(const OutcomeMessage& message);
Json to_json(const ArtifactMessage& message);
Json to_json(const DoneMessage& message);
Json to_json(const ErrorMessage& message);
Json to_json(const PongMessage& message);
/// By value: a moved-in message's artifact moves into the frame.
Json to_json(CacheResultMessage message);
Json to_json(const StatsMessage& message);

/// Any server-to-client message, for client-side dispatch.
using ServerMessage = std::variant<EventMessage, OutcomeMessage,
                                   ArtifactMessage, DoneMessage, ErrorMessage,
                                   PongMessage, CacheResultMessage,
                                   StatsMessage>;

/// Parses one server line; throws ServeError on unknown/missing "type".
ServerMessage server_message_from_json(const Json& json);

/// Total compile seconds of a wire `compile` document (the sum of its
/// "stage_times" rows); 0.0 when the document carries none. Shared by every
/// client rendering compile times from outcomes.
double stage_seconds_from_json(const Json& compile);

}  // namespace pimcomp::serve

#endif  // PIMCOMP_SERVE_PROTOCOL_HPP
