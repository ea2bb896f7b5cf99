// Measures the fleet serving stack end to end with in-process daemons:
// what a single pimcompd sustains on cold compiles and warm (memory-tier)
// cache hits, what the pimcomp_router relay costs on top of the warm
// path, and what a remote cache hit costs — a fresh daemon resolving a
// mapping from a warmed peer's disk over the wire instead of recomputing
// it. Everything runs over real Unix sockets and the real line protocol;
// only the process boundary is elided.
//
// PIMCOMP_BENCH_JSON=path writes the measurements as a machine-readable
// artifact (one row per leg), same idiom as table2_compile_time. The
// checked-in bench/fleet_baseline.json pins one reference machine's
// numbers for eyeballing drift; it is deliberately not a CI gate —
// wall-clock serving latency is far too machine-dependent for that.

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

#include "bench_common.hpp"
#include "common/json.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"  // seconds_since
#include "fleet/router.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace {

using namespace pimcomp;

std::string socket_path(const std::string& tag) {
  return "/tmp/pimcomp-fleet-bench-" + std::to_string(::getpid()) + "-" +
         tag + ".sock";
}

/// A fresh cache directory, removed with its contents when the bench
/// leaves the scope (declare it before the daemon that writes into it).
class TempCacheDir {
 public:
  explicit TempCacheDir(const std::string& tag)
      : path_("/tmp/pimcomp-fleet-bench-" + tag + "-XXXXXX") {
    if (::mkdtemp(path_.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
  }
  ~TempCacheDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempCacheDir(const TempCacheDir&) = delete;
  TempCacheDir& operator=(const TempCacheDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// One single-scenario squeezenet compile; the seed varies the cache key,
/// so distinct seeds are cold compiles and a repeated seed is a cache hit.
serve::CompileRequest bench_request(const bench::BenchConfig& cfg,
                                    std::uint64_t seed) {
  serve::CompileRequest request;
  request.model = "squeezenet";
  request.input_size = 32;
  request.simulate = false;
  serve::ScenarioSpec spec;
  spec.label = "seed-" + std::to_string(seed);
  spec.options = bench::bench_options(cfg, PipelineMode::kLowLatency, 4);
  spec.options.ga.population = 6;
  spec.options.ga.generations = 3;
  spec.options.seed = seed;
  request.scenarios.push_back(std::move(spec));
  return request;
}

/// Submits `count` requests over one connection and returns elapsed
/// seconds. The i-th request uses seed `first + i * step` — step 1 walks
/// distinct seeds (cold), step 0 hammers one seed (warm). Every outcome
/// must be ok — a failed compile would silently time the error path
/// instead.
double timed_submits(const std::string& endpoint,
                     const bench::BenchConfig& cfg, std::uint64_t first,
                     int count, std::uint64_t step) {
  serve::CompileClient client = serve::CompileClient::connect(endpoint);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < count; ++i) {
    const serve::CompileReply reply = client.submit(
        bench_request(cfg, first + static_cast<std::uint64_t>(i) * step));
    if (reply.error_count != 0) {
      throw std::runtime_error("bench scenario failed against " + endpoint);
    }
  }
  return seconds_since(t0);
}

}  // namespace

int main() {
  using namespace pimcomp;
  using namespace pimcomp::bench;
  const BenchConfig cfg = BenchConfig::from_env();
  constexpr int kColdRequests = 16;
  constexpr int kWarmRequests = 64;
  constexpr int kRemoteRequests = 16;

  Table table("Fleet serving: requests over real Unix sockets, one "
              "single-scenario compile per request");
  table.set_header({"leg", "requests", "total (s)", "req/s", "ms/req"});
  Json rows = Json::array();
  const auto add_row = [&](const std::string& leg, int requests,
                           double seconds) {
    table.add_row({leg, std::to_string(requests), format_double(seconds, 3),
                   format_double(requests / seconds, 1),
                   format_double(seconds * 1e3 / requests, 2)});
    Json row = Json::object();
    row["leg"] = leg;
    row["requests"] = requests;
    row["seconds"] = seconds;
    row["requests_per_s"] = requests / seconds;
    rows.push_back(std::move(row));
    std::cout << "." << std::flush;
  };

  // --- One worker daemon with a disk cache. --------------------------------
  const TempCacheDir warm_dir("warm");
  serve::ServerOptions daemon_options;
  daemon_options.unix_path = socket_path("daemon");
  daemon_options.jobs = 2;
  daemon_options.cache.dir = warm_dir.path();
  serve::CompileServer daemon(daemon_options);
  daemon.start();

  // Cold: distinct seeds, every request runs the full pipeline.
  add_row("direct cold compile", kColdRequests,
          timed_submits(daemon.endpoint(), cfg, 1, kColdRequests, 1));

  // Warm: re-submit seed 1 — the daemon's session answers from the
  // memory tier, so this times protocol + session lookup alone, i.e. the
  // serving floor.
  add_row("direct warm (memory hit)", kWarmRequests,
          timed_submits(daemon.endpoint(), cfg, 1, kWarmRequests, 0));

  // --- The same warm requests relayed through a router. --------------------
  fleet::RouterOptions router_options;
  router_options.unix_path = socket_path("router");
  router_options.backends = {daemon.endpoint()};
  fleet::Router router(std::move(router_options));
  router.start();

  add_row("router warm (relay overhead)", kWarmRequests,
          timed_submits(router.endpoint(), cfg, 1, kWarmRequests, 0));
  router.stop();

  // --- Remote cache hits. --------------------------------------------------
  // A fresh daemon whose only peer is the warmed one: every request below
  // misses memory and disk locally and is resolved over the wire from the
  // peer's disk tier — the cost of *not* recomputing a mapping.
  const TempCacheDir fresh_dir("fresh");
  serve::ServerOptions fresh_options;
  fresh_options.unix_path = socket_path("fresh");
  fresh_options.jobs = 2;
  fresh_options.cache.dir = fresh_dir.path();
  fresh_options.cache.peers = {daemon.endpoint()};
  serve::CompileServer fresh(fresh_options);
  fresh.start();

  // Seeds 1..kRemoteRequests were all compiled (and disk-persisted) by the
  // warm daemon in the cold leg above.
  add_row("remote hit (peer disk over wire)", kRemoteRequests,
          timed_submits(fresh.endpoint(), cfg, 1, kRemoteRequests, 1));

  fresh.stop();
  daemon.stop();

  std::cout << "\n\n";
  table.print();
  std::cout << "\nThe warm legs bound the serving overhead: the router "
               "relay adds one socket hop and a JSON re-parse per frame, "
               "and a remote hit replaces a full mapping run with one "
               "round-trip to a peer's disk tier.\n";

  if (const char* json_path = std::getenv("PIMCOMP_BENCH_JSON")) {
    Json out = Json::object();
    Json config = Json::object();
    config["population"] = 6;
    config["generations"] = 3;
    config["seed"] = static_cast<std::int64_t>(cfg.seed);
    config["cold_requests"] = kColdRequests;
    config["warm_requests"] = kWarmRequests;
    config["remote_requests"] = kRemoteRequests;
    out["config"] = std::move(config);
    out["legs"] = std::move(rows);
    try {
      json_to_file(out, json_path);
      std::cout << "wrote fleet serving timings to " << json_path << '\n';
    } catch (const std::exception& e) {
      std::cerr << "failed to write " << json_path << ": " << e.what()
                << '\n';
      return 1;
    }
  }
  return 0;
}
