// Command-line driver: the end-to-end toolchain in one binary.
//
//   pimcomp_cli <model> [options]          compile locally (default)
//   pimcomp_cli lower <model> [options]    lower to an instruction stream
//   pimcomp_cli serve ...                  run the compile-server daemon
//   pimcomp_cli submit --server E ...      submit a batch to a daemon
//   pimcomp_cli cache stats|purge ...      inspect / empty a --cache-dir
//
// Local compilation:
//   pimcomp_cli <model> [options]
//     <model>            zoo name (vgg16, resnet18, googlenet, inception-v3,
//                        squeezenet) or a path to a PIMCOMP JSON graph
//   --mode ht|ll         pipeline mode                   (default ll)
//   --parallelism N[,N...]  AGs computing per core       (default 20);
//                        a comma-separated list sweeps the values as one
//                        session batch
//   --jobs N|auto        worker threads for the batch ('auto' = one per
//                        hardware thread)                (default 1)
//   --mapper KEY         a MapperRegistry key            (default ga)
//   --scheduler KEY      a SchedulerRegistry key         (default: the mode's)
//   --backend KEY        lower through a BackendRegistry key (local mode:
//                        adds the lowering stage; reports stay unchanged)
//   --policy naive|add|ag                                (default ag)
//   --input N            zoo input resolution            (default 64/96)
//   --cores N            core count (default: auto-fit with 3x headroom)
//   --pop N --gens N     GA budget                       (default 40 x 60)
//   --seed N             RNG seed                        (default 1)
//   --ga-islands N       island count of the parallel GA (default 4;
//                        1 replays the historical sequential trajectory)
//   --ga-migration-interval N  generations between island ring
//                        migrations                      (default 10)
//   --dump-stream CORE   print a core's instruction stream (single run only)
//   --trace FILE         write the per-stage event timeline as JSON
//   --json               emit machine-readable JSON reports
//   --cache-dir PATH     persistent mapping cache: identical compilations
//                        (same model, hardware, and options) are reused
//                        across runs instead of re-running the GA
//   --list-mappers       print the registered mapper keys
//   --list-schedulers    print the registered scheduler keys
//   --list-backends      print the registered backend keys
//
// Lowering (see docs/backends.md for the artifact schema):
//   pimcomp_cli lower <model|graph.json> [compile options]
//                     [--backend KEY] [--out FILE] [--run] [--json]
//     --backend KEY      which backend emits the stream  (default isa-json)
//     --out FILE         write the artifact JSON to FILE
//     --run              execute the stream on the backend (needs an
//                        executing backend, e.g. 'sim') and report
//     --json             one JSON object on stdout: "stream" (when no
//                        --out) and "simulation" (with --run)
//
// Cache maintenance (the on-disk artifact store a --cache-dir run or a
// `pimcompd --cache-dir` daemon fills):
//   pimcomp_cli cache stats --cache-dir PATH [--json]
//   pimcomp_cli cache purge --cache-dir PATH
//
// Live cache counters (per-tier memory/disk/remote hit/miss/store numbers
// from a running daemon, or per-backend counters from a router):
//   pimcomp_cli cache stats --server ENDPOINT [--auth-token TOKEN] [--json]
//
// Serving (see docs/serving.md for the wire protocol and fleet topology):
//   pimcomp_cli serve DAEMON-FLAGS     pimcompd under another name: the same
//                     frontend (serve::run_daemon); `serve --help` lists them
//   pimcomp_cli submit --server (unix:PATH | HOST:PORT) <model|graph.json>
//                     [compile options: --mode --parallelism --mapper
//                      --policy --input --cores --pop --gens --seed
//                      --ga-islands --ga-migration-interval]
//                     [--scenarios FILE] [--no-simulate] [--timeout SEC]
//                     [--priority N] [--deadline-ms N] [--auth-token TOKEN]
//                     [--trace FILE] [--json]
//
//   submit exit codes: 0 = every scenario compiled, 1 = some scenario
//   failed (or a simulation did), 2 = request/connection failure —
//   including a --timeout expiry — so scripts can branch without parsing.
//
// Examples:
//   ./build/examples/pimcomp_cli resnet18 --mode ll --parallelism 20
//   ./build/examples/pimcomp_cli resnet18 --parallelism 1,20,200 --jobs auto
//   ./build/examples/pimcomp_cli serve --unix /tmp/pimcompd.sock
//   ./build/examples/pimcomp_cli submit --server unix:/tmp/pimcompd.sock \
//       squeezenet --input 64 --parallelism 1,20

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "backend/instruction_stream.hpp"
#include "cache/disk_store.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "core/compile_report.hpp"
#include "core/pipeline.hpp"
#include "core/session.hpp"
#include "core/stream_printer.hpp"
#include "core/trace.hpp"
#include "graph/zoo/zoo.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using namespace pimcomp;

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " <model|graph.json> [--mode ht|ll] [--parallelism N[,N...]]\n"
         "       [--jobs N|auto] [--mapper KEY] [--scheduler KEY]\n"
         "       [--backend KEY] [--policy naive|add|ag]\n"
         "       [--input N] [--cores N] [--pop N] [--gens N]\n"
         "       [--seed N] [--ga-islands N] [--ga-migration-interval N]\n"
         "       [--dump-stream CORE] [--trace FILE] [--json]\n"
         "       [--cache-dir PATH] [--list-mappers] [--list-schedulers]\n"
         "       [--list-backends]\n"
         "   or: " << argv0
      << " lower <model|graph.json> [compile options] [--backend KEY]\n"
         "       [--out FILE] [--run] [--json] [--cache-dir PATH]\n"
         "   or: " << argv0
      << " serve DAEMON-FLAGS   (" << argv0 << " serve --help lists them)\n"
         "   or: " << argv0
      << " submit --server (unix:PATH | HOST:PORT) <model|graph.json>\n"
         "       [compile options] [--scenarios FILE] [--no-simulate]\n"
         "       [--timeout SEC] [--priority N] [--deadline-ms N]\n"
         "       [--auth-token TOKEN] [--trace FILE] [--json]\n"
         "   or: " << argv0
      << " cache stats (--cache-dir PATH | --server ENDPOINT\n"
         "       [--auth-token TOKEN]) [--json]\n"
         "   or: " << argv0
      << " cache purge --cache-dir PATH\n";
  std::exit(2);
}

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "pimcomp: " << message << '\n';
  std::exit(2);
}

/// Comma-separated positive parallelism degrees; rejects empty/garbage
/// entries ("1,,2", "1,2,").
std::vector<int> parse_parallelism_list(const std::string& flag,
                                        const std::string& token) {
  std::vector<int> values;
  for (const std::string& piece : split(token, ',')) {
    values.push_back(static_cast<int>(
        parse_int_flag(flag, piece, 1, serve::kMaxWireParallelism)));
  }
  return values;
}

/// The one registry-listing shape every --list-* flag prints ("name: k1
/// k2 ..."), so the three registries can never drift apart in format.
void list_keys(const char* name, const std::vector<std::string>& keys) {
  std::cout << name << ':';
  for (const std::string& key : keys) std::cout << ' ' << key;
  std::cout << '\n';
}

void list_mappers() { list_keys("mappers", MapperRegistry::keys()); }
void list_schedulers() { list_keys("schedulers", SchedulerRegistry::keys()); }
void list_backends() { list_keys("backends", BackendRegistry::keys()); }

void list_registries() {
  list_mappers();
  list_schedulers();
  list_backends();
}

/// Fail-fast validation of a registry-keyed flag: an unknown key prints
/// every registered key of every registry and exits 2, so a typo'd
/// --mapper/--scheduler/--backend never reaches the (expensive) pipeline.
std::string require_registry_key(const char* what, const std::string& key,
                                 bool (*contains)(const std::string&)) {
  if (!contains(key)) {
    std::cerr << "pimcomp: unknown " << what << " '" << key << "'\n";
    list_registries();
    std::exit(2);
  }
  return key;
}

/// The compile surface shared verbatim by local compilation, `lower`, and
/// `submit` (one copy, so the modes cannot drift): <model> plus --mode,
/// --parallelism, --mapper, --scheduler, --backend, --policy, --input,
/// --cores, --pop, --gens, --seed, --ga-islands, --ga-migration-interval.
/// Every value that also travels on the wire is bounded by the wire's own
/// table (serve/protocol.hpp). Registry keys are validated against the
/// local registries in every mode (the daemon ships the same strategy set).
struct CompileFlags {
  std::string model;
  /// The CLI's defaults (LL mode, 40x60 GA), layered under every flag and
  /// scenario file.
  CompileOptions options = [] {
    CompileOptions defaults;
    defaults.mode = PipelineMode::kLowLatency;
    defaults.ga.population = 40;
    defaults.ga.generations = 60;
    return defaults;
  }();
  std::vector<int> parallelism_sweep;  ///< >1 entries = a batch
  int input_size = 0;                  ///< 0 = 64 (inception-v3: 96)
  int cores = 0;                       ///< 0 = auto-fit, 3x headroom

  /// Returns true when `arg` was consumed.
  bool parse(const std::string& arg, const serve::FlagValue& next,
             const char* argv0) {
    if (arg == "--mode") {
      const std::string v = next();
      if (v == "ht") options.mode = PipelineMode::kHighThroughput;
      else if (v == "ll") options.mode = PipelineMode::kLowLatency;
      else usage(argv0);
    } else if (arg == "--parallelism") {
      parallelism_sweep = parse_parallelism_list(arg, next());
      options.parallelism_degree = parallelism_sweep.front();
    } else if (arg == "--mapper") {
      options.mapper =
          require_registry_key("mapper", next(), &MapperRegistry::contains);
    } else if (arg == "--scheduler") {
      options.scheduler = require_registry_key("scheduler", next(),
                                               &SchedulerRegistry::contains);
    } else if (arg == "--backend") {
      options.backend =
          require_registry_key("backend", next(), &BackendRegistry::contains);
    } else if (arg == "--policy") {
      const std::string v = next();
      if (v == "naive") options.memory_policy = MemoryPolicy::kNaive;
      else if (v == "add") options.memory_policy = MemoryPolicy::kAddReuse;
      else if (v == "ag") options.memory_policy = MemoryPolicy::kAgReuse;
      else usage(argv0);
    } else if (arg == "--input") {
      input_size = static_cast<int>(
          parse_int_flag(arg, next(), 1, serve::kMaxWireInputSize));
    } else if (arg == "--cores") {
      cores = static_cast<int>(
          parse_int_flag(arg, next(), 1, serve::kMaxWireCores));
    } else if (arg == "--pop") {
      options.ga.population = static_cast<int>(
          parse_int_flag(arg, next(), 1, serve::kMaxWireGaBudget));
    } else if (arg == "--gens") {
      options.ga.generations = static_cast<int>(
          parse_int_flag(arg, next(), 0, serve::kMaxWireGaBudget));
    } else if (arg == "--ga-islands") {
      options.ga.islands = static_cast<int>(
          parse_int_flag(arg, next(), 1, serve::kMaxWireGaIslands));
    } else if (arg == "--ga-migration-interval") {
      options.ga.migration_interval = static_cast<int>(
          parse_int_flag(arg, next(), 1, serve::kMaxWireGaBudget));
    } else if (arg == "--seed") {
      // Local compiles take any non-negative 64-bit seed; `submit` meets
      // the wire's 2^53 bound when it encodes the request.
      options.seed = static_cast<std::uint64_t>(parse_int_flag(
          arg, next(), 0, std::numeric_limits<long long>::max()));
    } else if (!arg.empty() && arg[0] != '-' && model.empty()) {
      model = arg;
    } else {
      return false;
    }
    return true;
  }

  /// The one resolution of <model>, --input and --cores: `submit` sends
  /// this request, while local compilation and `lower` resolve it through
  /// serve::resolve_compile_request exactly as a daemon would.
  serve::CompileRequest request() const {
    serve::CompileRequest request;
    const std::vector<std::string> zoo_models = zoo::model_names();
    if (std::find(zoo_models.begin(), zoo_models.end(), model) !=
        zoo_models.end()) {
      request.model = model;
      // Sending 0 would resolve the canonical 224-class resolution — a
      // vastly bigger compile than the CLI's default.
      request.input_size =
          input_size != 0 ? input_size : (model == "inception-v3" ? 96 : 64);
    } else {
      request.graph = json_from_file(model);
    }
    request.cores = cores;
    return request;
  }
};

void write_trace(const TraceRecorder& recorder, const std::string& path) {
  try {
    json_to_file(recorder.to_json(), path);
    std::cerr << "pimcomp: wrote " << recorder.size() << " trace event(s) to "
              << path << '\n';
  } catch (const std::exception& e) {
    std::cerr << "pimcomp: failed to write trace file: " << e.what() << '\n';
  }
}

// ---------------------------------------------------------------------------
// `pimcomp_cli submit`
// ---------------------------------------------------------------------------

void print_event(const PipelineEvent& event) {
  const std::string who =
      event.scenario.empty() ? std::string("-") : event.scenario;
  const std::string tier =
      event.source.empty() ? std::string() : " from " + event.source;
  switch (event.kind) {
    case PipelineEvent::Kind::kStageBegin:
      std::cerr << ".. [" << who << "] " << event.name << " started\n";
      break;
    case PipelineEvent::Kind::kStageEnd:
      std::cerr << ".. [" << who << "] " << event.name << " done ("
                << format_double(event.seconds, 3) << "s)\n";
      break;
    case PipelineEvent::Kind::kCacheHit:
      std::cerr << ".. [" << who << "] " << event.name << " cache hit" << tier
                << " (#" << event.hits << ")\n";
      break;
    case PipelineEvent::Kind::kCacheStore:
      std::cerr << ".. [" << who << "] " << event.name << " cached" << tier
                << " (#" << event.hits << ")\n";
      break;
  }
}

int run_submit(int argc, char** argv, const char* argv0) {
  std::string server_endpoint;
  std::string scenarios_path;
  std::string trace_path;
  CompileFlags flags;
  int timeout_seconds = 0;  // 0 = wait forever (the historical behavior)
  int priority = 0;
  long long deadline_ms = 0;  // 0 = no deadline
  std::string auth_token;
  bool simulate = true;
  bool emit_json = false;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv0);
      return argv[++i];
    };
    if (flags.parse(arg, next, argv0)) continue;
    if (arg == "--server") {
      server_endpoint = next();
    } else if (arg == "--scenarios") {
      scenarios_path = next();
    } else if (arg == "--no-simulate") {
      simulate = false;
    } else if (arg == "--timeout") {
      // Scripting guard: a hung or wedged daemon turns into exit code 2
      // after this many seconds of frame silence instead of hanging the
      // pipeline that invoked us.
      timeout_seconds =
          static_cast<int>(parse_int_flag(arg, next(), 1, 24 * 3600));
    } else if (arg == "--priority") {
      priority = static_cast<int>(parse_int_flag(
          arg, next(), serve::kMinWirePriority, serve::kMaxWirePriority));
    } else if (arg == "--deadline-ms") {
      // Freshness guard: a scenario still queued when the budget expires
      // is dropped by the daemon with error_kind "deadline" instead of
      // burning compile time on an answer nobody is waiting for.
      deadline_ms = parse_int_flag(arg, next(), 1, serve::kMaxWireDeadlineMs);
    } else if (arg == "--auth-token") {
      auth_token = next();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--json") {
      emit_json = true;
    } else {
      usage(argv0);
    }
  }
  if (server_endpoint.empty())
    fail("submit needs --server (unix:PATH|HOST:PORT)");
  if (flags.model.empty()) fail("submit needs a model name or graph.json path");

  try {
    serve::CompileRequest request = flags.request();
    request.simulate = simulate;
    request.priority = priority;
    request.deadline_ms = deadline_ms;

    if (!scenarios_path.empty()) {
      if (!flags.parallelism_sweep.empty()) {
        fail("--scenarios and --parallelism are mutually exclusive");
      }
      const Json entries = json_from_file(scenarios_path);
      if (!entries.is_array() || entries.size() == 0) {
        fail("--scenarios file must hold a non-empty JSON array");
      }
      for (std::size_t i = 0; i < entries.size(); ++i) {
        // The CLI's flag-built options are the base: an entry that sets
        // only {"parallelism": 40} inherits --mode/--pop/--gens/--seed
        // instead of silently reverting to GaConfig's 100x200 defaults.
        request.scenarios.push_back(
            serve::scenario_spec_from_json(entries.at(i), i, flags.options));
      }
    } else {
      if (flags.parallelism_sweep.empty()) {
        flags.parallelism_sweep.push_back(flags.options.parallelism_degree);
      }
      for (int parallelism : flags.parallelism_sweep) {
        serve::ScenarioSpec spec;
        spec.label = "P=" + std::to_string(parallelism);
        spec.options = flags.options;
        spec.options.parallelism_degree = parallelism;
        request.scenarios.push_back(std::move(spec));
      }
    }

    serve::CompileClient client =
        serve::CompileClient::connect(server_endpoint);
    if (timeout_seconds > 0) client.set_timeout(timeout_seconds);
    if (!auth_token.empty()) client.set_auth_token(auth_token);
    TraceRecorder recorder;
    const serve::CompileReply reply =
        client.submit(request, [&](const PipelineEvent& event) {
          recorder.on_event(event);
          if (!emit_json) print_event(event);
        });

    if (!trace_path.empty()) write_trace(recorder, trace_path);

    // A delivered batch with any failing scenario exits 1 — belt and
    // braces via both the per-outcome flags and the done frame's error
    // count, so a lost outcome frame can never turn a failure into exit 0.
    bool any_failed = reply.error_count > 0;
    if (emit_json) {
      Json out = Json::array();
      for (const serve::OutcomeMessage& outcome : reply.outcomes) {
        out.push_back(serve::to_json(outcome));
        if (!outcome.ok) any_failed = true;
      }
      std::cout << out.dump(2) << '\n';
    } else {
      Table table(flags.model + " via " + server_endpoint);
      table.set_header({"scenario", "compile (s)", "latency (us)",
                        "throughput (inf/s)"});
      for (const serve::OutcomeMessage& outcome : reply.outcomes) {
        if (!outcome.ok) {
          std::cerr << "pimcomp: scenario '" << outcome.label << "' failed";
          if (!outcome.error_kind.empty()) {
            std::cerr << " (" << outcome.error_kind << ")";
          }
          std::cerr << ": " << outcome.error << '\n';
          any_failed = true;
          continue;
        }
        const bool has_sim = outcome.simulation.is_object();
        table.add_row(
            {outcome.label,
             format_double(serve::stage_seconds_from_json(outcome.compile), 2),
             has_sim ? format_double(
                           outcome.simulation.get("makespan_us", 0.0), 1)
                     : "-",
             has_sim ? format_double(
                           outcome.simulation.get("throughput_per_s", 0.0), 1)
                     : "-"});
      }
      table.print();
    }
    return any_failed ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "pimcomp: " << e.what() << '\n';
    return 2;
  }
}

// ---------------------------------------------------------------------------
// `pimcomp_cli lower` — compile and emit the lowered instruction stream.
// ---------------------------------------------------------------------------

int run_lower(int argc, char** argv, const char* argv0) {
  std::string out_path;
  CompileFlags flags;
  CompileOptions& options = flags.options;
  options.backend = "isa-json";  // the reference emitter, unless overridden
  CacheConfig cache;
  bool run_stream = false;
  bool emit_json = false;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv0);
      return argv[++i];
    };
    if (flags.parse(arg, next, argv0)) continue;
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--run") {
      run_stream = true;
    } else if (arg == "--json") {
      emit_json = true;
    } else if (arg == "--cache-dir") {
      cache.dir = next();
    } else if (arg == "--list-backends") {
      list_backends();
      return 0;
    } else {
      usage(argv0);
    }
  }
  if (flags.model.empty()) fail("lower needs a model name or graph.json path");
  if (flags.parallelism_sweep.size() > 1) {
    fail("lower takes a single --parallelism value");
  }

  try {
    serve::ResolvedRequest resolved =
        serve::resolve_compile_request(flags.request());
    CompilerSession session(std::move(resolved.graph), resolved.hardware,
                            cache);
    const CompileResult result = session.compile(options);
    PIMCOMP_CHECK(result.stream != nullptr,
                  "backend '" + options.backend +
                      "' produced no instruction stream");
    const InstructionStream& stream = *result.stream;
    const Json artifact = stream.to_json();

    if (!out_path.empty()) {
      json_to_file(artifact, out_path);
      std::cerr << "pimcomp: wrote instruction stream ("
                << stream.schedule.total_ops << " ops over "
                << stream.schedule.core_count() << " cores) to " << out_path
                << '\n';
    }

    Json report = Json::object();
    if (run_stream) {
      // Re-instantiate the backend that lowered the stream to execute it;
      // a pure emitter (isa-json) refuses with a pointer at 'sim'.
      const SimReport sim = BackendRegistry::create(options.backend)
                                ->execute(stream, resolved.hardware);
      report["simulation"] = sim_report_to_json(sim);
      if (!emit_json) std::cout << sim.to_string() << '\n';
    }

    if (emit_json) {
      Json out = Json::object();
      if (out_path.empty()) out["stream"] = artifact;
      for (const auto& [key, value] : report.items()) out[key] = value;
      std::cout << out.dump(2) << '\n';
    } else if (out_path.empty()) {
      std::cout << "lowered '" << flags.model << "' via " << stream.backend
                << ": " << stream.schedule.total_ops << " ops over "
                << stream.schedule.core_count() << " cores (isa v"
                << kIsaVersion << ", fingerprint "
                << cache_key_hex(stream.content_fingerprint())
                << "); use --out FILE or --json to capture the artifact\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "pimcomp: " << e.what() << '\n';
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// `pimcomp_cli cache` — maintenance of a persistent --cache-dir.
// ---------------------------------------------------------------------------

/// `cache stats --server`: render a daemon's per-tier counters (or a
/// router's per-backend counters) from its `stats` reply.
int print_server_stats(const std::string& endpoint,
                       const std::string& auth_token, bool emit_json) {
  try {
    serve::CompileClient client = serve::CompileClient::connect(endpoint);
    client.set_timeout(30);
    if (!auth_token.empty()) client.set_auth_token(auth_token);
    const Json payload = client.stats();
    if (emit_json) {
      std::cout << payload.dump(2) << '\n';
      return 0;
    }
    const std::string role = payload.get("role", std::string("daemon"));
    std::cout << role << ' ' << endpoint << ": "
              << payload.get("requests_served", static_cast<std::int64_t>(0))
              << " request(s) over "
              << payload.get("connections", static_cast<std::int64_t>(0))
              << " connection(s)\n";
    if (payload.contains("cache")) {
      const Json& tiers = payload.at("cache");
      for (std::size_t i = 0; i < tiers.size(); ++i) {
        const Json& row = tiers.at(i);
        std::cout << "  " << row.get("tier", std::string("?")) << ": "
                  << row.get("entries", static_cast<std::int64_t>(0))
                  << " artifact(s), "
                  << format_double(
                         static_cast<double>(row.get(
                             "bytes", static_cast<std::int64_t>(0))) /
                             1024.0,
                         1)
                  << " KiB, hits="
                  << row.get("hits", static_cast<std::int64_t>(0))
                  << " misses="
                  << row.get("misses", static_cast<std::int64_t>(0))
                  << " stores="
                  << row.get("stores", static_cast<std::int64_t>(0))
                  << " evictions="
                  << row.get("evictions", static_cast<std::int64_t>(0))
                  << '\n';
      }
    }
    if (payload.contains("backends")) {
      const Json& backends = payload.at("backends");
      for (std::size_t i = 0; i < backends.size(); ++i) {
        const Json& row = backends.at(i);
        std::cout << "  " << row.get("endpoint", std::string("?"))
                  << (row.get("healthy", false) ? " healthy" : " DOWN")
                  << ", requests="
                  << row.get("requests", static_cast<std::int64_t>(0))
                  << " retries="
                  << row.get("retries", static_cast<std::int64_t>(0))
                  << " failures="
                  << row.get("failures", static_cast<std::int64_t>(0))
                  << '\n';
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pimcomp: " << e.what() << '\n';
    return 1;
  }
}

int run_cache(int argc, char** argv, const char* argv0) {
  std::string action;
  std::string dir;
  std::string server_endpoint;
  std::string auth_token;
  bool emit_json = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv0);
      return argv[++i];
    };
    if (arg == "--cache-dir") {
      dir = next();
    } else if (arg == "--server") {
      server_endpoint = next();
    } else if (arg == "--auth-token") {
      auth_token = next();
    } else if (arg == "--json") {
      emit_json = true;
    } else if (!arg.empty() && arg[0] != '-' && action.empty()) {
      action = arg;
    } else {
      usage(argv0);
    }
  }
  if (action != "stats" && action != "purge") {
    fail("cache wants an action: stats | purge");
  }
  if (!server_endpoint.empty()) {
    // Live mode: ask a running daemon (or router) for its counters — the
    // only way to see memory/remote tiers and hit/miss rates, which exist
    // per process, not on disk.
    if (action != "stats") fail("cache purge is local-only (--cache-dir)");
    if (!dir.empty()) fail("--cache-dir and --server are mutually exclusive");
    return print_server_stats(server_endpoint, auth_token, emit_json);
  }
  if (dir.empty()) fail("cache " + action + " needs --cache-dir PATH");

  try {
    CacheConfig config;
    config.dir = dir;
    config.max_bytes = 0;  // maintenance must never trigger eviction
    DiskStore store(config);

    if (action == "purge") {
      const std::uint64_t removed = store.purge();
      std::cout << "purged " << removed << " artifact(s) from " << dir
                << '\n';
      return 0;
    }

    const CacheStoreStats stats = store.stats();
    if (emit_json) {
      Json out = Json::object();
      out["dir"] = dir;
      out["schema_version"] = kCacheSchemaVersion;
      out["entries"] = static_cast<std::int64_t>(stats.entries);
      out["bytes"] = static_cast<std::int64_t>(stats.bytes);
      std::cout << out.dump(2) << '\n';
    } else {
      std::cout << "cache " << dir << " (schema v" << kCacheSchemaVersion
                << "): " << stats.entries << " artifact(s), "
                << format_double(static_cast<double>(stats.bytes) / 1024.0, 1)
                << " KiB on disk\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pimcomp: " << e.what() << '\n';
    return 1;
  }
}

// ---------------------------------------------------------------------------
// Local compilation (the original mode).
// ---------------------------------------------------------------------------

int run_local(int argc, char** argv, const char* argv0) {
  CompileFlags flags;
  CompileOptions& options = flags.options;
  CacheConfig cache;
  int jobs = 1;
  int dump_core = -1;
  bool emit_json = false;
  std::string trace_path;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv0);
      return argv[++i];
    };
    if (flags.parse(arg, next, argv0)) continue;
    if (arg == "--jobs") {
      jobs = serve::parse_jobs_flag(next());
    } else if (arg == "--dump-stream") {
      dump_core = static_cast<int>(
          parse_int_flag(arg, next(), 0, std::numeric_limits<int>::max()));
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--json") {
      emit_json = true;
    } else if (arg == "--cache-dir") {
      cache.dir = next();
    } else if (arg == "--list-mappers") {
      list_mappers();
      return 0;
    } else if (arg == "--list-schedulers") {
      list_schedulers();
      return 0;
    } else if (arg == "--list-backends") {
      list_backends();
      return 0;
    } else {
      usage(argv0);
    }
  }

  if (flags.model.empty()) usage(argv0);

  try {
    serve::ResolvedRequest resolved =
        serve::resolve_compile_request(flags.request());
    CompilerSession session(std::move(resolved.graph), resolved.hardware,
                            cache);
    session.set_jobs(jobs);

    TraceRecorder recorder;
    if (!trace_path.empty()) session.set_observer(&recorder);

    if (flags.parallelism_sweep.size() > 1) {
      // A parallelism sweep through the asynchronous job API: every point
      // is submitted up front as a CompileJob on the session's resident
      // --jobs workers, then awaited in submission order — per-scenario
      // outcomes, so a failing point reports its error without killing
      // the sweep.
      if (dump_core >= 0) {
        fail("--dump-stream needs a single --parallelism value");
      }
      std::vector<CompileJob> sweep_jobs;
      for (std::size_t i = 0; i < flags.parallelism_sweep.size(); ++i) {
        CompileOptions point = options;
        point.parallelism_degree = flags.parallelism_sweep[i];
        JobOptions job_options;
        job_options.index = static_cast<int>(i);
        sweep_jobs.push_back(session.submit(
            point, "P=" + std::to_string(flags.parallelism_sweep[i]),
            job_options));
      }
      for (const CompileJob& job : sweep_jobs) job.wait();
      if (!trace_path.empty()) write_trace(recorder, trace_path);

      bool any_failed = false;
      if (emit_json) {
        Json out = Json::array();
        for (const CompileJob& job : sweep_jobs) {
          // wait() is idempotent and hands back a reference — no copy of
          // the (large) CompileResult is ever taken.
          const ScenarioOutcome& outcome = job.wait();
          Json entry = Json::object();
          entry["scenario"] = outcome.label;
          if (outcome.ok()) {
            entry["compile"] = compile_result_to_json(*outcome.result);
            // A simulation failure stays scoped to its scenario, matching
            // the batch's per-scenario error isolation (and the server).
            try {
              entry["simulation"] =
                  sim_report_to_json(session.simulate(*outcome.result));
            } catch (const std::exception& e) {
              entry["error"] = std::string("simulation failed: ") + e.what();
              any_failed = true;
            }
          } else {
            entry["error"] = outcome.error;
            entry["error_kind"] = to_string(outcome.error_kind);
            any_failed = true;
          }
          out.push_back(std::move(entry));
        }
        std::cout << out.dump(2) << '\n';
      } else {
        const bool ht = options.mode == PipelineMode::kHighThroughput;
        Table table(flags.model + " parallelism sweep (" +
                    std::string(ht ? "HT" : "LL") + " mode, jobs=" +
                    std::to_string(session.jobs()) + ")");
        table.set_header({"scenario", "compile (s)",
                          ht ? "throughput (inf/s)" : "latency (us)"});
        for (const CompileJob& job : sweep_jobs) {
          const ScenarioOutcome& outcome = job.wait();
          if (!outcome.ok()) {
            std::cerr << "pimcomp: scenario '" << outcome.label << "' failed ("
                      << to_string(outcome.error_kind)
                      << "): " << outcome.error << '\n';
            any_failed = true;
            continue;
          }
          try {
            const SimReport sim = session.simulate(*outcome.result);
            table.add_row(
                {outcome.label,
                 format_double(outcome.result->stage_times.total(), 2),
                 format_double(ht ? sim.throughput_per_sec()
                                  : to_us(sim.makespan),
                               1)});
          } catch (const std::exception& e) {
            std::cerr << "pimcomp: scenario '" << outcome.label
                      << "' simulation failed: " << e.what() << '\n';
            any_failed = true;
          }
        }
        table.print();
      }
      return any_failed ? 1 : 0;
    }

    const CompileResult result = session.compile(options);
    const SimReport sim = session.simulate(result);
    if (!trace_path.empty()) write_trace(recorder, trace_path);

    if (emit_json) {
      Json out = Json::object();
      out["compile"] = compile_result_to_json(result);
      out["simulation"] = sim_report_to_json(sim);
      std::cout << out.dump(2) << '\n';
    } else {
      std::cout << describe(result) << '\n'
                << print_schedule_summary(result.schedule) << '\n'
                << sim.to_string() << '\n';
      if (options.mode == PipelineMode::kHighThroughput) {
        std::cout << "throughput: " << sim.throughput_per_sec()
                  << " inferences/s\n";
      } else {
        std::cout << "latency: " << to_us(sim.makespan) << " us\n";
      }
    }
    if (dump_core >= 0) {
      std::cout << '\n'
                << print_core_stream(result.schedule, session.graph(),
                                     dump_core);
    }
  } catch (const std::exception& e) {
    std::cerr << "pimcomp: " << e.what() << '\n';
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string subcommand = argc >= 2 ? argv[1] : "";
  if (subcommand == "serve") {
    return serve::run_daemon(argc - 2, argv + 2, "pimcomp serve");
  }
  try {
    if (subcommand == "lower") return run_lower(argc - 2, argv + 2, argv[0]);
    if (subcommand == "submit") return run_submit(argc - 2, argv + 2, argv[0]);
    if (subcommand == "cache") return run_cache(argc - 2, argv + 2, argv[0]);
    return run_local(argc - 1, argv + 1, argv[0]);
  } catch (const ConfigError& e) {
    // A bad flag value: every mode parses its flags before its own
    // runtime try block, so only flag errors arrive here.
    fail(e.what());
  }
}
