// The acceptance scenario of the two-tier cache: a cold session populates
// the disk tier, every trace of in-process state is destroyed, and a warm
// session recompiles the same batch from disk only — with byte-identical
// reports and observer proof that the mapping stage never ran. Plus the
// failure-containment properties: corrupt artifacts recompute (and
// self-heal), fingerprint-mismatched artifacts are rejected, read-only
// caches never write.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <iterator>
#include <thread>
#include <vector>

#include "cache/artifact.hpp"
#include "cache/cache_config.hpp"
#include "cache/disk_store.hpp"
#include "core/compile_report.hpp"
#include "core/session.hpp"
#include "core/trace.hpp"
#include "graph/builder.hpp"
#include "schedule_tamper.hpp"
#include "sim/sim_report.hpp"
#include "stage_gate.hpp"

namespace pimcomp {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  TempDir() {
    std::string pattern =
        (fs::temp_directory_path() / "pimcomp-disk-cache-XXXXXX").string();
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

Graph small_cnn() {
  GraphBuilder b("disk-cache-cnn", {3, 16, 16});
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

CacheConfig cache_at(const std::string& dir) {
  CacheConfig config;
  config.dir = dir;
  return config;
}

std::vector<Scenario> batch() {
  return {
      {"P=2", tiny_options(2), std::nullopt},
      {"P=3", tiny_options(3), std::nullopt},
      {"P=2-again", tiny_options(2), std::nullopt},  // in-session dup
  };
}

std::vector<ScenarioOutcome> compile_batch(CompilerSession& session) {
  return session.compile_all(batch());
}

/// The full observable surface of one outcome: human report, machine
/// report, and the cycle-accurate simulation — as rendered bytes.
std::string render(CompilerSession& session, const ScenarioOutcome& outcome) {
  EXPECT_TRUE(outcome.ok()) << outcome.error;
  std::string rendered = describe(*outcome.result);
  rendered += compile_result_to_json(*outcome.result).dump(2);
  rendered += sim_report_to_json(session.simulate(*outcome.result)).dump(2);
  return rendered;
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

TEST(DiskCache, WarmRunFromDiskOnlyIsByteIdenticalAndNeverMaps) {
  TempDir dir;

  // --- Cold: compile the batch, populating the disk tier. ------------------
  std::vector<std::string> memory_hit_renders;
  {
    CompilerSession cold(small_cnn(), small_hw(), cache_at(dir.path));
    TraceRecorder trace;
    cold.set_observer(&trace);

    const std::vector<ScenarioOutcome> outcomes = compile_batch(cold);
    ASSERT_EQ(outcomes.size(), 3u);
    // Two distinct configurations computed and persisted; the in-session
    // duplicate was a memory hit, not a second store.
    EXPECT_EQ(cold.mapping_cache_stores(), 2u);
    EXPECT_EQ(count_events(trace, PipelineEvent::Kind::kCacheStore,
                           cache_names::kMapping, cache_sources::kDisk),
              2);
    EXPECT_EQ(count_events(trace, PipelineEvent::Kind::kCacheHit,
                           cache_names::kMapping, cache_sources::kMemory),
              1);
    EXPECT_EQ(cold.mapping_tier_hits(cache_sources::kDisk), 0u);

    // Reference renders via the *memory* tier (zeroed stage times), which
    // is the exact contract the warm run must reproduce byte for byte.
    for (const ScenarioOutcome& outcome : cold.compile_all(batch())) {
      memory_hit_renders.push_back(render(cold, outcome));
    }
  }  // session destroyed: no in-process state survives

  // --- Warm: a fresh session, same directory, disk tier only. --------------
  CompilerSession warm(small_cnn(), small_hw(), cache_at(dir.path));
  TraceRecorder trace;
  warm.set_observer(&trace);

  const std::vector<ScenarioOutcome> outcomes = compile_batch(warm);
  ASSERT_EQ(outcomes.size(), 3u);

  // Observer evidence: the mapping (and scheduling) stage never ran —
  // partitioning did, once, because workloads are deliberately not
  // persisted.
  EXPECT_EQ(count_events(trace, PipelineEvent::Kind::kStageBegin,
                         stage_names::kMapping),
            0);
  EXPECT_EQ(count_events(trace, PipelineEvent::Kind::kStageBegin,
                         stage_names::kScheduling),
            0);
  EXPECT_EQ(count_events(trace, PipelineEvent::Kind::kStageBegin,
                         stage_names::kPartitioning),
            1);
  // The first hit per distinct configuration came from disk; the
  // in-session duplicate then hit the promoted memory entry.
  EXPECT_EQ(warm.mapping_tier_hits(cache_sources::kDisk), 2u);
  EXPECT_EQ(count_events(trace, PipelineEvent::Kind::kCacheHit,
                         cache_names::kMapping, cache_sources::kDisk),
            2);
  EXPECT_EQ(count_events(trace, PipelineEvent::Kind::kCacheHit,
                         cache_names::kMapping, cache_sources::kMemory),
            1);
  // Nothing new was computed, so nothing was stored.
  EXPECT_EQ(warm.mapping_cache_stores(), 0u);

  // Byte-identical reports (human, machine, and simulation).
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    SCOPED_TRACE(outcomes[i].label);
    EXPECT_EQ(render(warm, outcomes[i]), memory_hit_renders[i]);
  }
}

TEST(DiskCache, SurvivesConcurrentWarmJobs) {
  TempDir dir;
  {
    CompilerSession cold(small_cnn(), small_hw(), cache_at(dir.path));
    compile_batch(cold);
  }
  // Many concurrent jobs racing onto the same two disk artifacts: the
  // claim/promotion machinery must neither deadlock nor duplicate work
  // incorrectly (TSan covers the race-freedom half in CI).
  CompilerSession warm(small_cnn(), small_hw(), cache_at(dir.path));
  warm.set_jobs(4);
  std::vector<CompileJob> jobs;
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(warm.submit(tiny_options(2 + (i % 2)),
                               "J" + std::to_string(i)));
  }
  std::string expected_p2;
  std::string expected_p3;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ScenarioOutcome& outcome = jobs[i].wait();
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    std::string& expected = (i % 2 == 0) ? expected_p2 : expected_p3;
    const std::string rendered =
        compile_result_to_json(*outcome.result).dump(2);
    if (expected.empty()) expected = rendered;
    EXPECT_EQ(rendered, expected);
  }
  EXPECT_EQ(warm.mapping_cache_stores(), 0u);  // disk served everything
  EXPECT_EQ(warm.mapping_cache_hits(), 12u);
}

TEST(DiskCache, ConcurrentIdenticalWarmJobsReadTheDiskOnce) {
  TempDir dir;
  {
    CompilerSession cold(small_cnn(), small_hw(), cache_at(dir.path));
    cold.compile(tiny_options(2));
  }
  // N identical jobs overlap on a warm disk (the first is held while it
  // partitions, on its way to decoding the artifact): it alone reads and
  // decodes the file; the others wait on its claim and take the decoded
  // result from memory.
  constexpr int kJobs = 4;
  CompilerSession warm(small_cnn(), small_hw(), cache_at(dir.path));
  warm.set_jobs(kJobs);
  StageGate gate(stage_names::kPartitioning);
  warm.set_observer(&gate);
  std::vector<CompileJob> jobs;
  jobs.push_back(warm.submit(tiny_options(2), "J0"));
  gate.wait_until_held();
  for (int i = 1; i < kJobs; ++i) {
    jobs.push_back(warm.submit(tiny_options(2), "J" + std::to_string(i)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.release();
  for (const CompileJob& job : jobs) {
    const ScenarioOutcome& outcome = job.wait();
    ASSERT_TRUE(outcome.ok()) << outcome.error;
  }
  EXPECT_EQ(warm.mapping_tier_hits(cache_sources::kDisk), 1u);
  EXPECT_EQ(warm.mapping_tier_hits(cache_sources::kMemory),
            static_cast<std::uint64_t>(kJobs - 1));
  EXPECT_EQ(warm.mapping_cache_stores(), 0u);
}

TEST(DiskCache, CorruptArtifactRecomputesAndSelfHeals) {
  TempDir dir;
  std::string reference;
  int cores = 0;
  int ag_count = 0;
  {
    CompilerSession cold(small_cnn(), small_hw(), cache_at(dir.path));
    const CompileResult result = cold.compile(tiny_options(2));
    reference = compile_result_to_json(result).dump(2);
    cores = result.schedule.core_count();
    ag_count = result.schedule.ag_count;
  }

  // Each vandal in turn rewrites every stored artifact: a torn file, then
  // well-formed artifacts whose schedule sends to a core, or waits on an
  // AG, that does not exist (the simulator indexes both unchecked).
  const std::function<std::string(const Json&)> vandals[] = {
      [](const Json&) {
        return "{\"schema\": " + std::to_string(kCacheSchemaVersion) +
               ", \"key\": \"torn";
      },
      [&](const Json& artifact) {
        return with_tampered_rows(artifact, OpKind::kCommSend, 6, cores)
            .dump(-1);
      },
      [&](const Json& artifact) {
        return with_tampered_rows(artifact, OpKind::kVfu, 2, ag_count)
            .dump(-1);
      }};

  for (std::size_t v = 0; v < std::size(vandals); ++v) {
    SCOPED_TRACE("vandal " + std::to_string(v));
    // Vandalize every artifact in the store.
    int vandalized = 0;
    for (const auto& entry : fs::recursive_directory_iterator(dir.path)) {
      if (!entry.is_regular_file()) continue;
      const Json artifact = json_from_file(entry.path().string());
      std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
      out << vandals[v](artifact);
      ++vandalized;
    }
    ASSERT_GE(vandalized, 1);

    CompilerSession warm(small_cnn(), small_hw(), cache_at(dir.path));
    TraceRecorder trace;
    warm.set_observer(&trace);
    const CompileResult result = warm.compile(tiny_options(2));
    // Recomputed (the corrupt artifact must not poison the compile)...
    EXPECT_EQ(warm.mapping_tier_hits(cache_sources::kDisk), 0u);
    EXPECT_EQ(warm.mapping_cache_stores(), 1u);
    // Zero stage times on the reference: the recompute reports real ones.
    Json recomputed = compile_result_to_json(result);
    Json zero = Json::object();
    zero["partitioning_s"] = 0.0;
    zero["mapping_s"] = 0.0;
    zero["scheduling_s"] = 0.0;
    recomputed["stage_times"] = zero;
    Json expected = Json::parse(reference);
    expected["stage_times"] = zero;
    EXPECT_EQ(recomputed.dump(2), expected.dump(2));

    // ...and the store healed: a third session takes a clean disk hit.
    CompilerSession healed(small_cnn(), small_hw(), cache_at(dir.path));
    healed.compile(tiny_options(2));
    EXPECT_EQ(healed.mapping_tier_hits(cache_sources::kDisk), 1u);
  }
}

TEST(DiskCache, RejectsArtifactsWithMismatchedWorkloadFingerprint) {
  TempDir dir;
  // Compile model A cold; then forge its artifact into the slot model B's
  // compile will look at, with the envelope key rewritten so the DiskStore
  // layer accepts it — the session-level workload_fp validation is the
  // last line of defense, and must hold.
  const HardwareConfig hw = small_hw();
  const CompileOptions options = tiny_options(2);
  {
    CompilerSession session_a(small_cnn(), hw, cache_at(dir.path));
    session_a.compile(options);
  }

  GraphBuilder b("other-cnn", {3, 16, 16});
  NodeId x = b.input();
  x = b.conv_relu(x, 8, 3, 1, 1, "conv1");
  x = b.fc(b.flatten(x, "flat"), 10, "classifier");
  b.softmax(x, "prob");
  Graph other = b.build();
  other.finalize();
  const std::uint64_t other_workload_fp =
      combine_fingerprints(fingerprint(other), fingerprint(hw));
  const std::uint64_t other_mapping_key =
      combine_fingerprints(other_workload_fp, fingerprint(options));

  DiskStore store(cache_at(dir.path));
  ASSERT_FALSE(store.load(other_mapping_key).has_value());
  Graph original = small_cnn();
  original.finalize();
  const std::uint64_t original_key = combine_fingerprints(
      combine_fingerprints(fingerprint(original), fingerprint(hw)),
      fingerprint(options));
  const auto forged_source = store.load(original_key);
  ASSERT_TRUE(forged_source.has_value());
  CacheEntry forged = forged_source->entry;  // workload_fp still model A's
  store.store(other_mapping_key, forged);
  ASSERT_TRUE(store.load(other_mapping_key).has_value());

  CompilerSession session_b(std::move(other), hw, cache_at(dir.path));
  TraceRecorder trace;
  session_b.set_observer(&trace);
  const CompileResult result = session_b.compile(options);
  // The forged artifact was rejected, evicted, and the compile recomputed.
  EXPECT_EQ(session_b.mapping_tier_hits(cache_sources::kDisk), 0u);
  EXPECT_EQ(session_b.mapping_cache_stores(), 1u);
  EXPECT_EQ(result.solution.workload().graph().name(), "other-cnn");
  const auto healed = store.load(other_mapping_key);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->entry.artifact.get("workload_fp", std::string()),
            cache_key_hex(other_workload_fp));
}

TEST(DiskCache, ReadOnlyCacheServesButNeverWrites) {
  TempDir dir;
  {
    CompilerSession producer(small_cnn(), small_hw(), cache_at(dir.path));
    producer.compile(tiny_options(2));
  }
  const auto files_before = [&] {
    std::vector<std::string> files;
    for (const auto& entry : fs::recursive_directory_iterator(dir.path)) {
      if (entry.is_regular_file()) files.push_back(entry.path().string());
    }
    return files;
  }();

  CacheConfig config = cache_at(dir.path);
  config.read_only = true;
  CompilerSession consumer(small_cnn(), small_hw(), config);
  TraceRecorder trace;
  consumer.set_observer(&trace);
  consumer.compile(tiny_options(2));  // warm: served from disk
  EXPECT_EQ(consumer.mapping_tier_hits(cache_sources::kDisk), 1u);
  consumer.compile(tiny_options(5));  // cold: computed, NOT persisted
  EXPECT_EQ(consumer.mapping_cache_stores(), 1u);  // memory tier only
  // The store event names the deepest tier that newly took the result.
  EXPECT_EQ(count_events(trace, PipelineEvent::Kind::kCacheStore,
                         cache_names::kMapping, cache_sources::kMemory),
            1);

  std::vector<std::string> files_after;
  for (const auto& entry : fs::recursive_directory_iterator(dir.path)) {
    if (entry.is_regular_file()) files_after.push_back(entry.path().string());
  }
  EXPECT_EQ(files_after, files_before);
}

// ---------------------------------------------------------------------------
// Eviction semantics.
// ---------------------------------------------------------------------------

/// Synthetic artifacts of one fixed serialized size (the tag is
/// zero-padded; the store's own schema/key stamps are fixed-width too), so
/// a byte budget can be hit *exactly*.
Json fixed_size_artifact(int n) {
  char tag[8];
  std::snprintf(tag, sizeof(tag), "%04d", n);
  Json artifact = Json::object();
  artifact["tag"] = std::string(tag);
  artifact["payload"] = std::string(1024, 'x');
  return artifact;
}

std::uint64_t store_fixed(DiskStore& store, int n) {
  CacheEntry entry;
  entry.artifact = fixed_size_artifact(n);
  EXPECT_TRUE(store.store(static_cast<std::uint64_t>(n), entry));
  // Distinct mtimes: the eviction order below must never hinge on
  // filesystem timestamp granularity.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  return static_cast<std::uint64_t>(n);
}

TEST(DiskCache, EvictsNothingAtExactByteBudgetAndOldestOneByteOver) {
  TempDir dir;

  // Probe the per-artifact on-disk size, then start over.
  std::uint64_t size_one = 0;
  {
    DiskStore probe(cache_at(dir.path));
    CacheEntry entry;
    entry.artifact = fixed_size_artifact(0);
    ASSERT_TRUE(probe.store(999, entry));
    size_one = probe.stats().bytes;
    ASSERT_GT(size_one, 0u);
    probe.purge();
  }

  CacheConfig config = cache_at(dir.path);
  config.max_bytes = 3 * size_one;
  DiskStore store(config);
  for (int n = 1; n <= 3; ++n) store_fixed(store, n);

  // total == max_bytes is *within* budget: the boundary artifact survives.
  EXPECT_EQ(store.stats().entries, 3u);
  EXPECT_EQ(store.stats().bytes, 3 * size_one);
  EXPECT_EQ(store.stats().evictions, 0u);

  // One artifact over pushes past the budget; exactly the mtime-oldest
  // entry (key 1 — the hits above replay in key order) goes.
  for (std::uint64_t key : {1u, 2u, 3u}) {
    EXPECT_TRUE(store.load(key).has_value());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  store_fixed(store, 4);
  EXPECT_EQ(store.stats().entries, 3u);
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_FALSE(store.load(1).has_value());
  EXPECT_TRUE(store.load(2).has_value());

  // The load(2) just above bumped its mtime past 3's: eviction is LRU on
  // *access* order, not insertion order, so the next overflow takes 3.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  store_fixed(store, 5);
  EXPECT_EQ(store.stats().entries, 3u);
  EXPECT_FALSE(store.load(3).has_value());
  EXPECT_TRUE(store.load(2).has_value());
  EXPECT_TRUE(store.load(4).has_value());
  EXPECT_TRUE(store.load(5).has_value());
}

TEST(DiskCache, EvictionRacingConcurrentLoadMtimeBumpKeepsHotKeyAndSaneState) {
  TempDir dir;
  std::uint64_t size_one = 0;
  {
    DiskStore probe(cache_at(dir.path));
    CacheEntry entry;
    entry.artifact = fixed_size_artifact(0);
    ASSERT_TRUE(probe.store(999, entry));
    size_one = probe.stats().bytes;
    probe.purge();
  }

  CacheConfig config = cache_at(dir.path);
  config.max_bytes = 3 * size_one;
  DiskStore store(config);
  constexpr std::uint64_t kHotKey = 7777;
  {
    CacheEntry entry;
    entry.artifact = fixed_size_artifact(0);
    ASSERT_TRUE(store.store(kHotKey, entry));
  }

  // One thread hammers load(hot) — every hit bumps its mtime — while the
  // other stores a stream of cold artifacts, each store running an
  // eviction pass over the same directory. The hot entry must ride out
  // every pass (it is never the LRU victim while the bumps keep landing),
  // and no load may ever surface a torn or mis-keyed artifact.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> hot_hits{0};
  std::thread loader([&] {
    while (!stop.load()) {
      if (const std::optional<CacheHit> hit = store.load(kHotKey)) {
        hot_hits.fetch_add(1);
        EXPECT_EQ(hit->entry.artifact.get("key", std::string()),
                  cache_key_hex(kHotKey));
      }
    }
  });
  // The race only means something while the bumps keep landing, and a
  // loader starved by a busy machine stops them for longer than two
  // stores take. So before every store, wait until one whole load — its
  // mtime bump included — began after the previous store returned: the
  // loader's hit after the next one. The first wait also keeps the store
  // loop from starting before the loader's first hit. The wait is bounded,
  // so a broken load fails the assertions below instead of hanging.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto wait_for_fresh_bump = [&] {
    const std::uint64_t seen = hot_hits.load();
    while (hot_hits.load() < seen + 2 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
  };
  for (int n = 1; n <= 24; ++n) {
    wait_for_fresh_bump();
    CacheEntry entry;
    entry.artifact = fixed_size_artifact(n);
    store.store(static_cast<std::uint64_t>(n), entry);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  loader.join();

  EXPECT_GT(hot_hits.load(), 0u);
  EXPECT_TRUE(store.load(kHotKey).has_value());  // survived every sweep
  const CacheStoreStats stats = store.stats();
  EXPECT_LE(stats.bytes, config.max_bytes);
  EXPECT_LE(stats.entries, 3u);
  EXPECT_GT(stats.evictions, 0u);
}

}  // namespace
}  // namespace pimcomp
