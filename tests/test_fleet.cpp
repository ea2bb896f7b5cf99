// Fleet serving: the RemoteStore network cache tier and the pimcomp_router
// front daemon, exercised against real in-process CompileServers over real
// sockets. The acceptance properties: (a) a RemoteStore round-trips
// artifacts through a peer daemon's disk tier, (b) a fresh session with a
// peer serves a previously computed mapping from the network — zero
// mapping-stage events, byte-identical result, (c) the router shards by
// content fingerprint, retries around dead backends without duplicating
// outcomes, and (d) token auth rejects on both daemon and router with a
// constant-time compare.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cache_config.hpp"
#include "cache/cache_store.hpp"
#include "cache/disk_store.hpp"
#include "core/compile_report.hpp"
#include "core/session.hpp"
#include "core/trace.hpp"
#include "fleet/remote_store.hpp"
#include "fleet/router.hpp"
#include "graph/builder.hpp"
#include "graph/serialize.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "stage_gate.hpp"

namespace pimcomp {
namespace {

namespace fs = std::filesystem;

using fleet::RemoteStore;
using fleet::Router;
using fleet::RouterOptions;
using serve::CompileClient;
using serve::CompileReply;
using serve::CompileRequest;
using serve::CompileServer;
using serve::ScenarioSpec;
using serve::ServeError;
using serve::ServerOptions;

struct TempDir {
  TempDir() {
    std::string pattern =
        (fs::temp_directory_path() / "pimcomp-fleet-XXXXXX").string();
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

std::string unique_socket_path(const std::string& tag) {
  static int counter = 0;  // pimcomp-lint: internally-synchronized
  return "/tmp/pimcomp-fleet-" + tag + "-" + std::to_string(::getpid()) +
         "-" + std::to_string(counter++) + ".sock";
}

Graph small_cnn() {
  GraphBuilder b("fleet-cnn", {3, 16, 16});
  NodeId x = b.input();
  x = b.conv_relu(x, 8, 3, /*stride=*/1, /*padding=*/1, "conv1");
  x = b.max_pool(x, 2, 2, 0, "pool1");
  x = b.conv_relu(x, 16, 3, 1, 1, "conv2");
  x = b.fc(b.flatten(x, "flatten"), 10, "classifier");
  b.softmax(x, "prob");
  return b.build();
}

HardwareConfig small_hw() {
  return fit_core_count(small_cnn(), HardwareConfig::puma_default(),
                        /*headroom=*/3.0);
}

CompileOptions tiny_options(int parallelism) {
  CompileOptions options;
  options.mode = PipelineMode::kLowLatency;
  options.parallelism_degree = parallelism;
  options.ga.population = 6;
  options.ga.generations = 3;
  return options;
}

CompileRequest inline_graph_request(const std::vector<int>& parallelisms) {
  CompileRequest request;
  request.graph = graph_to_json(small_cnn());
  request.simulate = false;
  for (int p : parallelisms) {
    ScenarioSpec spec;
    spec.label = "P=" + std::to_string(p);
    spec.options = tiny_options(p);
    request.scenarios.push_back(std::move(spec));
  }
  return request;
}

/// A daemon with a disk cache (so it answers peer cache_get/cache_put).
ServerOptions daemon_options(const std::string& socket_tag,
                             const std::string& cache_dir) {
  ServerOptions options;
  options.unix_path = unique_socket_path(socket_tag);
  options.jobs = 2;
  options.cache.dir = cache_dir;
  return options;
}

CacheConfig cache_at(const std::string& dir) {
  CacheConfig config;
  config.dir = dir;
  return config;
}

CacheConfig remote_only_config(const std::string& peer_endpoint) {
  CacheConfig config;
  config.peers.push_back(peer_endpoint);
  return config;
}

int count_events(const TraceRecorder& recorder, PipelineEvent::Kind kind,
                 const std::string& name, const std::string& source = "") {
  int count = 0;
  for (const PipelineEvent& event : recorder.events()) {
    if (event.kind == kind && event.name == name &&
        (source.empty() || event.source == source)) {
      ++count;
    }
  }
  return count;
}

Json strip_stage_times(const Json& compile) {
  Json out = Json::object();
  for (const auto& [key, value] : compile.items()) {
    if (key != "stage_times") out[key] = value;
  }
  return out;
}

// ---------------------------------------------------------------------------
// constant_time_equal.
// ---------------------------------------------------------------------------

TEST(FleetAuth, ConstantTimeEqualTruthTable) {
  EXPECT_TRUE(serve::constant_time_equal("", ""));
  EXPECT_TRUE(serve::constant_time_equal("token", "token"));
  EXPECT_FALSE(serve::constant_time_equal("token", "tokeN"));
  EXPECT_FALSE(serve::constant_time_equal("token", "token2"));
  EXPECT_FALSE(serve::constant_time_equal("token2", "token"));
  EXPECT_FALSE(serve::constant_time_equal("", "x"));
  EXPECT_FALSE(serve::constant_time_equal("x", ""));
}

// ---------------------------------------------------------------------------
// RemoteStore against a live peer daemon.
// ---------------------------------------------------------------------------

TEST(RemoteStoreTest, RoundTripsArtifactsThroughPeerDiskTier) {
  TempDir peer_dir;
  CompileServer peer(daemon_options("peer", peer_dir.path));
  peer.start();

  RemoteStore store(remote_only_config(peer.endpoint()));
  const std::uint64_t key = 0x1234abcd5678ef01ull;
  EXPECT_FALSE(store.load(key).has_value());  // peer is empty

  CacheEntry entry;
  entry.artifact = Json::object();
  entry.artifact["hello"] = std::string("fleet");
  EXPECT_TRUE(store.store(key, entry));

  // The peer's DiskStore stamped the envelope; a fresh load must validate
  // it.
  const std::optional<CacheHit> hit = store.load(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entry.artifact.get("hello", std::string()), "fleet");
  EXPECT_EQ(hit->entry.artifact.get("key", std::string()),
            cache_key_hex(key));

  // First-writer-wins across the wire: a second push is not "newly
  // accepted" anywhere, so store() reports false.
  EXPECT_FALSE(store.store(key, entry));

  const CacheStoreStats stats = store.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);

  // And the artifact really lives on the peer's disk.
  CacheConfig peer_cache;
  peer_cache.dir = peer_dir.path;
  DiskStore peer_disk(peer_cache);
  EXPECT_TRUE(peer_disk.load(key).has_value());
  peer.stop();
}

TEST(RemoteStoreTest, DeadPeerIsAMissNotAnError) {
  CacheConfig config =
      remote_only_config("unix:/tmp/pimcomp-no-such-daemon.sock");
  config.peer_timeout_seconds = 1;
  RemoteStore store(config);
  EXPECT_FALSE(store.load(42).has_value());
  CacheEntry entry;
  entry.artifact = Json::object();
  EXPECT_FALSE(store.store(42, entry));
  // Repeated misses stay fast (the backoff window suppresses reconnect
  // storms) and never throw.
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(store.load(42).has_value());
  EXPECT_EQ(store.stats().misses, 4u);
}

TEST(RemoteStoreTest, RejectsMiskeyedPeerArtifacts) {
  TempDir peer_dir;
  CompileServer peer(daemon_options("miskey", peer_dir.path));
  peer.start();

  // Seed the peer under key A, then forge the same payload into key B's
  // slot on the peer's disk with a rewritten envelope... which DiskStore
  // itself would accept — the *requester's* revalidation (envelope key
  // against the key it asked for) is what must hold. Simulate a confused
  // peer by asking for a key the artifact's envelope cannot match: store
  // under A, corrupt the peer file's key field in place.
  CacheConfig peer_cache;
  peer_cache.dir = peer_dir.path;
  DiskStore peer_disk(peer_cache);
  const std::uint64_t key = 0xfeedfacecafef00dull;
  CacheEntry entry;
  entry.artifact = Json::object();
  entry.artifact["payload"] = std::string("x");
  ASSERT_TRUE(peer_disk.store(key, entry));
  // Rewrite the stored file with a mismatched envelope key.
  for (const auto& file : fs::recursive_directory_iterator(peer_dir.path)) {
    if (!file.is_regular_file()) continue;
    Json artifact = Json::parse([&] {
      std::ifstream in(file.path());
      return std::string(std::istreambuf_iterator<char>(in), {});
    }());
    artifact["key"] = cache_key_hex(key + 1);
    std::ofstream out(file.path(), std::ios::trunc);
    out << artifact.dump(2);
  }

  RemoteStore store(remote_only_config(peer.endpoint()));
  EXPECT_FALSE(store.load(key).has_value());  // mis-keyed: rejected
  peer.stop();
}

// ---------------------------------------------------------------------------
// A fresh session compiles nothing when a peer already knows the mapping.
// ---------------------------------------------------------------------------

TEST(FleetEndToEnd, FreshSessionServesMappingFromPeerWithZeroMappingStages) {
  TempDir warm_dir;
  CompileServer warm_daemon(daemon_options("warm", warm_dir.path));
  warm_daemon.start();

  // Populate the warm daemon through the front door.
  CompileClient client = CompileClient::connect(warm_daemon.endpoint());
  const CompileReply warm_reply =
      client.submit(inline_graph_request({3}));
  ASSERT_EQ(warm_reply.outcomes.size(), 1u);
  ASSERT_TRUE(warm_reply.outcomes[0].ok) << warm_reply.outcomes[0].error;

  // A brand-new session elsewhere: empty memory, *no* disk, only a peer.
  CompilerSession session(small_cnn(), small_hw(),
                          remote_only_config(warm_daemon.endpoint()));
  TraceRecorder trace;
  session.set_observer(&trace);
  const CompileResult result = session.compile(tiny_options(3));

  EXPECT_EQ(session.mapping_tier_hits(cache_sources::kRemote), 1u);
  EXPECT_EQ(count_events(trace, PipelineEvent::Kind::kCacheHit,
                         cache_names::kMapping, cache_sources::kRemote),
            1);
  EXPECT_EQ(count_events(trace, PipelineEvent::Kind::kStageBegin,
                         stage_names::kMapping),
            0);
  EXPECT_EQ(count_events(trace, PipelineEvent::Kind::kStageBegin,
                         stage_names::kScheduling),
            0);

  // Byte-identical to what the warm daemon computed (timings aside).
  EXPECT_EQ(
      strip_stage_times(compile_result_to_json(result)).dump(2),
      strip_stage_times(warm_reply.outcomes[0].compile).dump(2));
  warm_daemon.stop();
}

// ---------------------------------------------------------------------------
// The session's tier walk: lookups stop at the first tier that hits, and a
// hit is promoted only into the tiers above it.
// ---------------------------------------------------------------------------

/// Mapping-cache key of small_cnn() on small_hw() under `options`.
std::uint64_t small_cnn_mapping_key(const CompileOptions& options) {
  Graph graph = small_cnn();
  graph.finalize();
  return combine_fingerprints(
      combine_fingerprints(fingerprint(graph), fingerprint(small_hw())),
      fingerprint(options));
}

/// The (hits, misses) the named tier of `session` counted.
std::pair<std::uint64_t, std::uint64_t> tier_lookups(
    const CompilerSession& session, const std::string& tier) {
  for (const auto& [name, stats] : session.mapping_tier_stats()) {
    if (name == tier) return {stats.hits, stats.misses};
  }
  ADD_FAILURE() << "session has no '" << tier << "' tier";
  return {0, 0};
}

TEST(FleetEndToEnd, HitsPromoteOnlyIntoTheTiersAboveThem) {
  TempDir peer_dir;
  TempDir dir;
  CompileServer peer(daemon_options("promote", peer_dir.path));
  peer.start();
  CacheConfig config = remote_only_config(peer.endpoint());
  config.dir = dir.path;
  const CompileOptions options = tiny_options(2);
  const std::uint64_t key = small_cnn_mapping_key(options);
  CacheConfig peer_cache;
  peer_cache.dir = peer_dir.path;
  const std::string peer_file = DiskStore(peer_cache).artifact_path(key);

  // A fresh result is written through every tier, and its store event
  // names the deepest one: the peer.
  std::string reference;
  {
    CompilerSession computing(small_cnn(), small_hw(), config);
    TraceRecorder trace;
    computing.set_observer(&trace);
    reference = strip_stage_times(
                    compile_result_to_json(computing.compile(options)))
                    .dump(2);
    EXPECT_EQ(count_events(trace, PipelineEvent::Kind::kCacheStore,
                           cache_names::kMapping, cache_sources::kRemote),
              1);
    EXPECT_EQ(computing.mapping_cache_stores(), 1u);
  }
  ASSERT_TRUE(fs::exists(peer_file));
  ASSERT_TRUE(fs::exists(DiskStore(config).artifact_path(key)));
  fs::remove(peer_file);

  // A disk hit lands in memory only: nothing crosses the network, so the
  // peer's deleted artifact stays deleted, and the walk never reached the
  // remote tier at all.
  {
    CompilerSession reading(small_cnn(), small_hw(), config);
    TraceRecorder trace;
    reading.set_observer(&trace);
    EXPECT_EQ(strip_stage_times(
                  compile_result_to_json(reading.compile(options)))
                  .dump(2),
              reference);
    EXPECT_EQ(reading.mapping_tier_hits(cache_sources::kDisk), 1u);
    EXPECT_FALSE(fs::exists(peer_file));
    EXPECT_EQ(tier_lookups(reading, cache_sources::kRemote),
              std::make_pair(std::uint64_t{0}, std::uint64_t{0}));
    // The promoted entry answers the next lookup from memory.
    reading.compile(options);
    EXPECT_EQ(count_events(trace, PipelineEvent::Kind::kCacheHit,
                           cache_names::kMapping, cache_sources::kDisk),
              1);
    EXPECT_EQ(count_events(trace, PipelineEvent::Kind::kCacheHit,
                           cache_names::kMapping, cache_sources::kMemory),
              1);
    EXPECT_EQ(tier_lookups(reading, cache_sources::kDisk),
              std::make_pair(std::uint64_t{1}, std::uint64_t{0}));
    EXPECT_EQ(reading.mapping_cache_stores(), 0u);
    EXPECT_FALSE(fs::exists(peer_file));
  }

  // A remote hit lands in memory and on the local disk: a peerless session
  // on the same directory then takes a disk hit.
  fs::copy_file(DiskStore(config).artifact_path(key), peer_file,
                fs::copy_options::overwrite_existing);
  TempDir fresh_dir;
  CacheConfig fresh = remote_only_config(peer.endpoint());
  fresh.dir = fresh_dir.path;
  {
    CompilerSession remote(small_cnn(), small_hw(), fresh);
    EXPECT_EQ(strip_stage_times(
                  compile_result_to_json(remote.compile(options)))
                  .dump(2),
              reference);
    EXPECT_EQ(remote.mapping_tier_hits(cache_sources::kRemote), 1u);
    EXPECT_EQ(remote.mapping_tier_hits(cache_sources::kDisk), 0u);
    EXPECT_EQ(remote.mapping_cache_stores(), 0u);
    remote.compile(options);
    EXPECT_EQ(remote.mapping_tier_hits(cache_sources::kRemote), 1u);
    EXPECT_EQ(remote.mapping_cache_hits(), 2u);
  }
  CompilerSession peerless(small_cnn(), small_hw(), cache_at(fresh_dir.path));
  peerless.compile(options);
  EXPECT_EQ(peerless.mapping_tier_hits(cache_sources::kDisk), 1u);
  EXPECT_EQ(peerless.mapping_cache_stores(), 0u);
  peer.stop();
}

TEST(FleetEndToEnd, WaitersOnAnInFlightKeyAskNoPeer) {
  TempDir peer_dir;
  CompileServer peer(daemon_options("waiters", peer_dir.path));
  peer.start();

  // A cold key on a peered session: the job that claims it asks the peer
  // once (a miss) and computes; identical jobs arriving while it maps wait
  // on its claim and never send a cache_get of their own.
  constexpr int kJobs = 4;
  CompilerSession session(small_cnn(), small_hw(),
                          remote_only_config(peer.endpoint()));
  session.set_jobs(kJobs);
  StageGate gate(stage_names::kMapping);
  session.set_observer(&gate);
  std::vector<CompileJob> jobs;
  jobs.push_back(session.submit(tiny_options(2), "J0"));
  gate.wait_until_held();
  for (int i = 1; i < kJobs; ++i) {
    jobs.push_back(session.submit(tiny_options(2), "J" + std::to_string(i)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.release();
  for (const CompileJob& job : jobs) {
    const ScenarioOutcome& outcome = job.wait();
    ASSERT_TRUE(outcome.ok()) << outcome.error;
  }
  EXPECT_EQ(tier_lookups(session, cache_sources::kRemote),
            std::make_pair(std::uint64_t{0}, std::uint64_t{1}));
  EXPECT_EQ(session.mapping_tier_hits(cache_sources::kMemory),
            static_cast<std::uint64_t>(kJobs - 1));
  EXPECT_EQ(session.mapping_cache_stores(), 1u);
  peer.stop();
}

// ---------------------------------------------------------------------------
// Router: sharding, relay, retry, stats.
// ---------------------------------------------------------------------------

TEST(RouterTest, RelaysBatchesAndReportsPerBackendCounters) {
  TempDir dir_a;
  TempDir dir_b;
  CompileServer backend_a(daemon_options("ra", dir_a.path));
  CompileServer backend_b(daemon_options("rb", dir_b.path));
  backend_a.start();
  backend_b.start();

  RouterOptions options;
  options.unix_path = unique_socket_path("router");
  options.backends = {backend_a.endpoint(), backend_b.endpoint()};
  Router router(options);
  router.start();

  CompileClient client = CompileClient::connect(router.endpoint());
  EXPECT_TRUE(client.ping());
  const CompileReply reply = client.submit(inline_graph_request({2, 3}));
  ASSERT_EQ(reply.outcomes.size(), 2u);
  for (const auto& outcome : reply.outcomes) {
    EXPECT_TRUE(outcome.ok) << outcome.error;
  }

  const Json stats = client.stats();
  EXPECT_EQ(stats.get("role", std::string()), "router");
  ASSERT_TRUE(stats.contains("backends"));
  ASSERT_EQ(stats.at("backends").size(), 2u);
  std::int64_t requests = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    requests += stats.at("backends").at(i).get(
        "requests", static_cast<std::int64_t>(0));
  }
  EXPECT_EQ(requests, 1);  // the whole batch went to one shard

  router.stop();
  backend_a.stop();
  backend_b.stop();
}

TEST(RouterTest, RetriesOnDeadPrimaryWithoutDuplicatingOutcomes) {
  TempDir dir;
  CompileServer live(daemon_options("live", dir.path));
  live.start();

  // Arrange the backend list so the request's content shard lands on a
  // dead endpoint: the router must fail over to the live one.
  CompileRequest request = inline_graph_request({2, 4});
  const std::uint64_t fp =
      serve::resolve_compile_request(request).fingerprint;
  const std::size_t primary = static_cast<std::size_t>(fp % 2);
  std::vector<std::string> backends(2);
  backends[primary] = "unix:/tmp/pimcomp-fleet-dead.sock";
  backends[1 - primary] = live.endpoint();

  RouterOptions options;
  options.unix_path = unique_socket_path("retry");
  options.backends = backends;
  // No active probing: the dead primary must still look healthy at submit
  // time so this test exercises the in-request failover path, not the
  // prober's pre-emptive demotion.
  options.health_interval_seconds = 0;
  Router router(options);
  router.start();

  CompileClient client = CompileClient::connect(router.endpoint());
  const CompileReply reply = client.submit(request);
  ASSERT_EQ(reply.outcomes.size(), 2u);
  EXPECT_EQ(reply.ok_count, 2);
  for (const auto& outcome : reply.outcomes) {
    EXPECT_TRUE(outcome.ok) << outcome.error;
  }

  const Json stats = router.stats_payload();
  const Json& rows = stats.at("backends");
  std::int64_t failures = 0;
  std::int64_t retries = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    failures += rows.at(i).get("failures", static_cast<std::int64_t>(0));
    retries += rows.at(i).get("retries", static_cast<std::int64_t>(0));
  }
  EXPECT_EQ(failures, 1);  // the dead primary
  EXPECT_EQ(retries, 1);   // one failover onto the live backend

  router.stop();
  live.stop();
}

TEST(RouterTest, AllBackendsDeadIsARequestError) {
  RouterOptions options;
  options.unix_path = unique_socket_path("alldead");
  options.backends = {"unix:/tmp/pimcomp-fleet-dead-1.sock",
                      "unix:/tmp/pimcomp-fleet-dead-2.sock"};
  Router router(options);
  router.start();

  CompileClient client = CompileClient::connect(router.endpoint());
  EXPECT_THROW(client.submit(inline_graph_request({2})), ServeError);
  router.stop();
}

TEST(RouterTest, NonStringTypeIsAnErrorFrameAndTheConnectionServesOn) {
  RouterOptions options;
  options.unix_path = unique_socket_path("typenum");
  options.backends = {"unix:/tmp/pimcomp-fleet-dead.sock"};
  options.health_interval_seconds = 0;
  Router router(options);
  router.start();

  serve::LineChannel channel(serve::connect_endpoint(router.endpoint()));
  channel.set_recv_timeout(10);
  channel.write_line(R"({"type": 5, "id": 2})");
  const std::optional<std::string> reply = channel.read_line();
  ASSERT_TRUE(reply.has_value()) << "connection dropped";
  const Json error = Json::parse(*reply);
  EXPECT_EQ(error.get("type", std::string()), "error") << *reply;
  EXPECT_EQ(error.get("id", std::int64_t{0}), 2) << *reply;

  channel.write_line(R"({"type": "ping", "id": 3})");
  const std::optional<std::string> pong = channel.read_line();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(Json::parse(*pong).get("type", std::string()), "pong") << *pong;
  EXPECT_EQ(Json::parse(*pong).get("id", std::int64_t{0}), 3) << *pong;
  router.stop();
}

TEST(RouterTest, ClientDisconnectMidForwardCancelsTheBackendsJobs) {
  TempDir dir;
  CompileServer backend(daemon_options("cancelback", dir.path));
  backend.start();

  RouterOptions options;
  options.unix_path = unique_socket_path("cancel");
  options.backends = {backend.endpoint()};
  options.health_interval_seconds = 0;
  options.drain_timeout_seconds = 1;
  Router router(options);
  router.start();

  // A GA budget of minutes, so the hangup lands mid-compile. It lands
  // once the mapping stage has begun: that stage streams no frame until
  // it ends, so no failed relay tells the router the client is gone.
  CompileRequest request = inline_graph_request({2});
  request.scenarios[0].options.ga.population = 256;
  request.scenarios[0].options.ga.generations = 200'000;
  {
    serve::LineChannel channel(serve::connect_endpoint(router.endpoint()));
    channel.set_recv_timeout(30);
    channel.write_line(serve::to_json(request).dump(-1));
    for (;;) {
      const std::optional<std::string> line = channel.read_line();
      ASSERT_TRUE(line.has_value());
      const Json frame = Json::parse(*line);
      if (frame.get("event", std::string()) == "stage_begin" &&
          frame.get("stage", std::string()) == "mapping") {
        break;
      }
    }
  }  // hang up

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (backend.jobs_cancelled() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(backend.jobs_cancelled(), 0u);
  backend.stop();
  router.stop();
}

TEST(RouterTest, StopCutsAForwardToAHungBackendAfterTheDrainGrace) {
  // A fake backend that accepts (through the listen backlog) and never
  // replies.
  const std::string hung_path = unique_socket_path("hung");
  serve::Socket hung = serve::listen_unix(hung_path);

  RouterOptions options;
  options.unix_path = unique_socket_path("hungrouter");
  options.backends = {"unix:" + hung_path};
  options.health_interval_seconds = 0;
  options.drain_timeout_seconds = 1;
  // Bounds how long a stop() that waits on the backend could take, so
  // such a stop() fails the check below instead of hanging the suite.
  options.backend_timeout_seconds = 30;
  Router router(options);
  router.start();

  serve::LineChannel channel(serve::connect_endpoint(router.endpoint()));
  channel.write_line(serve::to_json(inline_graph_request({2})).dump(-1));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const auto t0 = std::chrono::steady_clock::now();
  router.stop();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(seconds, 5.0);
  ::unlink(hung_path.c_str());
}

// ---------------------------------------------------------------------------
// Token auth, both sides.
// ---------------------------------------------------------------------------

TEST(FleetAuth, DaemonRejectsMissingOrWrongTokenAndAcceptsTheRightOne) {
  TempDir dir;
  ServerOptions options = daemon_options("auth", dir.path);
  options.auth_token = "fleet-secret";
  CompileServer server(options);
  server.start();

  {
    CompileClient anonymous = CompileClient::connect(server.endpoint());
    EXPECT_THROW(anonymous.ping(), ServeError);
    EXPECT_THROW(anonymous.submit(inline_graph_request({2})), ServeError);
  }
  {
    CompileClient wrong = CompileClient::connect(server.endpoint());
    wrong.set_auth_token("fleet-secreT");
    EXPECT_THROW(wrong.ping(), ServeError);
  }
  {
    CompileClient right = CompileClient::connect(server.endpoint());
    right.set_auth_token("fleet-secret");
    EXPECT_TRUE(right.ping());
    const CompileReply reply = right.submit(inline_graph_request({2}));
    ASSERT_EQ(reply.outcomes.size(), 1u);
    EXPECT_TRUE(reply.outcomes[0].ok) << reply.outcomes[0].error;
  }
  server.stop();
}

TEST(FleetAuth, RouterEnforcesTokenAndPresentsItToBackends) {
  TempDir dir;
  ServerOptions backend_options = daemon_options("authback", dir.path);
  backend_options.auth_token = "fleet-secret";
  CompileServer backend(backend_options);
  backend.start();

  RouterOptions options;
  options.unix_path = unique_socket_path("authrouter");
  options.backends = {backend.endpoint()};
  options.auth_token = "fleet-secret";
  Router router(options);
  router.start();

  {
    CompileClient anonymous = CompileClient::connect(router.endpoint());
    EXPECT_THROW(anonymous.ping(), ServeError);
  }
  CompileClient client = CompileClient::connect(router.endpoint());
  client.set_auth_token("fleet-secret");
  EXPECT_TRUE(client.ping());
  // The router re-stamps the fleet token on the forwarded request, so the
  // authenticated backend accepts it end to end.
  const CompileReply reply = client.submit(inline_graph_request({2}));
  ASSERT_EQ(reply.outcomes.size(), 1u);
  EXPECT_TRUE(reply.outcomes[0].ok) << reply.outcomes[0].error;

  router.stop();
  backend.stop();
}

TEST(FleetAuth, RemoteStorePresentsTokenToPeers) {
  TempDir dir;
  ServerOptions peer_options = daemon_options("authpeer", dir.path);
  peer_options.auth_token = "fleet-secret";
  CompileServer peer(peer_options);
  peer.start();

  CacheEntry entry;
  entry.artifact = Json::object();
  entry.artifact["v"] = std::string("1");

  {
    CacheConfig config = remote_only_config(peer.endpoint());
    // No token: every peer interaction is rejected → miss / no-op.
    RemoteStore anonymous(config);
    EXPECT_FALSE(anonymous.store(7, entry));
    EXPECT_FALSE(anonymous.load(7).has_value());
  }
  {
    CacheConfig config = remote_only_config(peer.endpoint());
    config.auth_token = "fleet-secret";
    RemoteStore authed(config);
    EXPECT_TRUE(authed.store(7, entry));
    EXPECT_TRUE(authed.load(7).has_value());
  }
  peer.stop();
}

// ---------------------------------------------------------------------------
// Deadlines.
// ---------------------------------------------------------------------------

TEST(FleetDeadline, ExpiredBeforeStartIsDroppedWithDeadlineKind) {
  // Session-level semantics, fully deterministic: a job whose deadline is
  // already in the past when a worker picks it up never enters the
  // pipeline.
  CompilerSession session(small_cnn(), small_hw(), CacheConfig{});
  session.set_jobs(1);
  TraceRecorder trace;
  session.set_observer(&trace);

  JobOptions expired;
  expired.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  CompileJob job =
      session.submit(Scenario{"late", tiny_options(2), std::nullopt},
                     std::move(expired));
  const ScenarioOutcome outcome = job.wait();
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error_kind, ErrorKind::kDeadline);
  EXPECT_EQ(to_string(outcome.error_kind), std::string("deadline"));
  // Dropped before start: no pipeline stage ever began.
  EXPECT_EQ(count_events(trace, PipelineEvent::Kind::kStageBegin,
                         stage_names::kPartitioning),
            0);
}

TEST(FleetDeadline, WireDeadlineExpiresQueuedScenarioOnBusyDaemon) {
  TempDir dir;
  ServerOptions options = daemon_options("deadline", dir.path);
  options.jobs = 1;  // scenario 1 must queue behind scenario 0
  CompileServer server(options);
  server.start();

  CompileRequest request;
  request.graph = graph_to_json(small_cnn());
  request.simulate = false;
  request.deadline_ms = 25;
  // Scenario 0 holds the one worker well past the deadline (this GA budget
  // takes ~400ms on this graph, ~17x the 25ms deadline); scenario 1 is
  // then expired before it starts.
  ScenarioSpec heavy;
  heavy.label = "heavy";
  heavy.options = tiny_options(2);
  heavy.options.ga.population = 256;
  heavy.options.ga.generations = 200;
  ScenarioSpec light;
  light.label = "light";
  light.options = tiny_options(3);
  request.scenarios = {heavy, light};

  CompileClient client = CompileClient::connect(server.endpoint());
  const CompileReply reply = client.submit(request);
  ASSERT_EQ(reply.outcomes.size(), 2u);
  EXPECT_FALSE(reply.outcomes[1].ok);
  EXPECT_EQ(reply.outcomes[1].error_kind, "deadline");
  EXPECT_GE(reply.error_count, 1);
  server.stop();
}

}  // namespace
}  // namespace pimcomp
