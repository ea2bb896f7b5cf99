// Concurrency and batch-robustness tests for CompilerSession: per-scenario
// outcomes under mixed feasible/infeasible batches, parallel batches being
// bit-identical to sequential ones, once-per-fingerprint partitioning under
// contention, and mapping-cache hits surfacing through the observer.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/session.hpp"
#include "graph/builder.hpp"
#include "stage_gate.hpp"

namespace pimcomp {
namespace {

Graph small_cnn(const std::string& name = "concurrency-cnn") {
  GraphBuilder b(name, {3, 16, 16});
  NodeId x = b.input();
  x = b.conv_relu(x, 8, 3, /*stride=*/1, /*padding=*/1, "conv1");
  x = b.max_pool(x, 2, 2, 0, "pool1");
  x = b.conv_relu(x, 16, 3, 1, 1, "conv2");
  x = b.fc(b.flatten(x, "flatten"), 10, "classifier");
  b.softmax(x, "prob");
  return b.build();
}

CompileOptions tiny_options(PipelineMode mode = PipelineMode::kHighThroughput,
                            std::uint64_t seed = 1) {
  CompileOptions options;
  options.mode = mode;
  options.ga.population = 8;
  options.ga.generations = 4;
  options.ga.seed_baseline = false;  // exercise the stochastic path
  options.seed = seed;
  return options;
}

/// A hardware config no model fits: partitioning throws CapacityError.
HardwareConfig one_xbar_hardware() {
  HardwareConfig hw = HardwareConfig::puma_default();
  hw.core_count = 1;
  hw.cores_per_chip = 1;
  hw.xbars_per_core = 1;
  return hw;
}

/// Counts stage and cache callbacks (the session serializes them, so plain
/// members are safe even under parallel batches).
class RecordingObserver : public PipelineObserver {
 public:
  void on_stage_begin(const StageInfo& info) override {
    if (info.stage == stage_names::kPartitioning) ++partition_begins;
  }
  void on_cache_hit(const CacheEvent& event) override {
    cache_events.push_back(event);
  }

  int hits(const std::string& cache) const {
    int count = 0;
    for (const CacheEvent& event : cache_events) {
      if (event.cache == cache) ++count;
    }
    return count;
  }

  int partition_begins = 0;
  std::vector<CacheEvent> cache_events;
};

/// A mixed DSE-style batch: feasible, infeasible, feasible, misconfigured,
/// feasible — exercising both error types in the middle of a sweep.
std::vector<Scenario> mixed_batch() {
  std::vector<Scenario> batch;
  batch.push_back(Scenario{"ht", tiny_options(PipelineMode::kHighThroughput),
                           std::nullopt});
  batch.push_back(Scenario{"too-small", tiny_options(), one_xbar_hardware()});
  batch.push_back(Scenario{"ll", tiny_options(PipelineMode::kLowLatency),
                           std::nullopt});
  CompileOptions bad_mapper = tiny_options();
  bad_mapper.mapper = "not-a-mapper";
  batch.push_back(Scenario{"bad-mapper", bad_mapper, std::nullopt});
  CompileOptions other_seed = tiny_options(PipelineMode::kHighThroughput, 7);
  batch.push_back(Scenario{"ht-seed7", other_seed, std::nullopt});
  return batch;
}

TEST(CompilerSessionBatch, InfeasibleScenarioDoesNotAbortTheBatch) {
  for (int jobs : {1, 4}) {
    CompilerSession session(small_cnn(), HardwareConfig::puma_default());
    session.set_jobs(jobs);

    const std::vector<ScenarioOutcome> outcomes =
        session.compile_all(mixed_batch());
    ASSERT_EQ(outcomes.size(), 5u) << "jobs=" << jobs;

    // Outcomes keep batch order and labels.
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      EXPECT_EQ(outcomes[i].index, static_cast<int>(i));
    }
    EXPECT_EQ(outcomes[1].label, "too-small");

    // Every feasible scenario succeeded despite the failures between them.
    for (std::size_t i : {0u, 2u, 4u}) {
      EXPECT_TRUE(outcomes[i].ok()) << "jobs=" << jobs << ": "
                                    << outcomes[i].error;
    }

    // The infeasible point carries the CapacityError message.
    ASSERT_FALSE(outcomes[1].ok());
    EXPECT_NE(outcomes[1].error.find("crossbars"), std::string::npos);

    // The misconfigured point carries the ConfigError message.
    ASSERT_FALSE(outcomes[3].ok());
    EXPECT_NE(outcomes[3].error.find("not-a-mapper"), std::string::npos);
  }
}

TEST(CompilerSessionBatch, SingleCompileStillThrows) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  EXPECT_THROW(
      session.compile(Scenario{"bad", tiny_options(), one_xbar_hardware()}),
      CapacityError);
}

TEST(CompilerSessionBatch, InfeasibleFingerprintFailsOncePartitionsOnce) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  session.set_jobs(4);
  RecordingObserver observer;
  session.set_observer(&observer);

  std::vector<Scenario> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(Scenario{"bad-" + std::to_string(i),
                             tiny_options(PipelineMode::kHighThroughput,
                                          static_cast<std::uint64_t>(i + 1)),
                             one_xbar_hardware()});
  }
  const std::vector<ScenarioOutcome> outcomes =
      session.compile_all(std::move(batch));
  for (const ScenarioOutcome& outcome : outcomes) {
    ASSERT_FALSE(outcome.ok());
    EXPECT_NE(outcome.error.find("crossbars"), std::string::npos);
  }
  // One owner partitioned (and failed); peers rethrew the published failure
  // instead of re-running partitioning.
  EXPECT_EQ(observer.partition_begins, 1);
  EXPECT_EQ(session.cached_workloads(), 0u);  // failures are not workloads

  // Deterministic infeasibility stays cached: a later compile of the same
  // fingerprint rethrows without another partitioning pass.
  EXPECT_THROW(
      session.compile(Scenario{"again", tiny_options(), one_xbar_hardware()}),
      CapacityError);
  EXPECT_EQ(observer.partition_begins, 1);
}

TEST(CompilerSessionParallel, BitIdenticalToSequential) {
  HardwareConfig wide = HardwareConfig::puma_default();
  wide.core_count = 2 * wide.cores_per_chip;

  CompileOptions p200 = tiny_options();
  p200.parallelism_degree = 200;
  const std::vector<Scenario> batch = {
      {"ht", tiny_options(PipelineMode::kHighThroughput), std::nullopt},
      {"ll", tiny_options(PipelineMode::kLowLatency), std::nullopt},
      {"p200", p200, std::nullopt},
      {"wide", tiny_options(), wide},
      {"seed42", tiny_options(PipelineMode::kHighThroughput, 42),
       std::nullopt}};

  CompilerSession sequential(small_cnn(), HardwareConfig::puma_default());
  sequential.set_jobs(1);
  const std::vector<ScenarioOutcome> base = sequential.compile_all(batch);

  CompilerSession parallel(small_cnn(), HardwareConfig::puma_default());
  parallel.set_jobs(4);
  const std::vector<ScenarioOutcome> fanned = parallel.compile_all(batch);

  ASSERT_EQ(base.size(), fanned.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_TRUE(base[i].ok()) << base[i].error;
    ASSERT_TRUE(fanned[i].ok()) << fanned[i].error;
    EXPECT_EQ(fanned[i].label, base[i].label);
    EXPECT_EQ(fanned[i].result->solution.encode(),
              base[i].result->solution.encode());
    EXPECT_EQ(fanned[i].result->schedule.total_ops,
              base[i].result->schedule.total_ops);
    EXPECT_EQ(fanned[i].result->estimated_fitness,
              base[i].result->estimated_fitness);
  }
}

TEST(CompilerSessionParallel, WorkloadPartitionedOnceUnderContention) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  session.set_jobs(4);
  RecordingObserver observer;
  session.set_observer(&observer);

  // Eight scenarios, one hardware fingerprint, distinct seeds (so the
  // mapping cache cannot short-circuit the contention being tested).
  std::vector<Scenario> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(Scenario{"seed-" + std::to_string(i + 1),
                             tiny_options(PipelineMode::kHighThroughput,
                                          static_cast<std::uint64_t>(i + 1)),
                             std::nullopt});
  }
  const std::vector<ScenarioOutcome> outcomes =
      session.compile_all(std::move(batch));
  for (const ScenarioOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.error;
  }

  EXPECT_EQ(observer.partition_begins, 1);
  EXPECT_EQ(session.cached_workloads(), 1u);
  EXPECT_EQ(session.workload_cache_hits(), 7u);
  EXPECT_EQ(observer.hits(cache_names::kWorkload), 7);

  // All eight scenarios share the one partitioned workload object.
  for (const ScenarioOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.result->workload.get(),
              outcomes.front().result->workload.get());
  }
}

/// Compiles once more on the same session from inside the first
/// partitioning callback it sees — the re-entrant use the session's
/// RecursiveMutex observer gate allows.
class ReentrantObserver : public PipelineObserver {
 public:
  explicit ReentrantObserver(CompilerSession& session) : session_(session) {}

  void on_stage_begin(const StageInfo& info) override {
    if (info.stage != stage_names::kPartitioning || nested != nullptr) return;
    nested = std::make_unique<CompileResult>(
        session_.compile(tiny_options(PipelineMode::kHighThroughput, 2)));
  }

  std::unique_ptr<CompileResult> nested;

 private:
  CompilerSession& session_;
};

TEST(CompilerSessionCache, ReentrantPartitioningIsPrivate) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  ReentrantObserver observer(session);
  session.set_observer(&observer);

  // The nested compile cannot wait on the partitioning its own thread is
  // running, so it partitions privately; the outer frame then publishes
  // the one shared workload.
  const CompileResult outer = session.compile(tiny_options());
  ASSERT_NE(observer.nested, nullptr);
  EXPECT_NE(observer.nested->workload.get(), outer.workload.get());
  EXPECT_EQ(session.cached_workloads(), 1u);
  EXPECT_EQ(session.workload_cache_hits(), 0u);

  // Later compiles hit the published workload, not the private one.
  const CompileResult later =
      session.compile(tiny_options(PipelineMode::kHighThroughput, 3));
  EXPECT_EQ(later.workload.get(), outer.workload.get());
  EXPECT_EQ(session.workload_cache_hits(), 1u);
}

TEST(CompilerSessionCache, MappingCacheHitsAreObserved) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  RecordingObserver observer;
  session.set_observer(&observer);

  // Three identical scenarios + one distinct: two mapping hits expected.
  std::vector<Scenario> batch;
  for (int i = 0; i < 3; ++i) {
    batch.push_back(
        Scenario{"same-" + std::to_string(i), tiny_options(), std::nullopt});
  }
  batch.push_back(
      Scenario{"other", tiny_options(PipelineMode::kLowLatency), std::nullopt});

  const std::vector<ScenarioOutcome> outcomes =
      session.compile_all(std::move(batch));
  for (const ScenarioOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.error;
  }

  EXPECT_EQ(session.cached_mappings(), 2u);
  EXPECT_EQ(session.mapping_cache_hits(), 2u);
  EXPECT_EQ(observer.hits(cache_names::kMapping), 2);

  // The per-event cumulative hit counter counts up.
  std::vector<std::uint64_t> counts;
  for (const CacheEvent& event : observer.cache_events) {
    if (event.cache == cache_names::kMapping) counts.push_back(event.hits);
  }
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);

  // A cache hit returns the identical compilation, with zeroed stage times
  // (nothing ran for it).
  EXPECT_EQ(outcomes[1].result->solution.encode(),
            outcomes[0].result->solution.encode());
  EXPECT_EQ(outcomes[1].result->stage_times.total(), 0.0);

  // A fresh session at the same seed produces the same result the cache
  // returned (the cache is a shortcut, not a fork).
  CompilerSession fresh(small_cnn(), HardwareConfig::puma_default());
  EXPECT_EQ(fresh.compile(tiny_options()).solution.encode(),
            outcomes[2].result->solution.encode());
}

TEST(CompilerSessionCache, MappingKeySeparatesOptions) {
  const CompileOptions base = tiny_options();
  EXPECT_EQ(fingerprint(base), fingerprint(tiny_options()));

  CompileOptions changed = base;
  changed.seed = 1234;
  EXPECT_NE(fingerprint(base), fingerprint(changed));

  changed = base;
  changed.parallelism_degree += 1;
  EXPECT_NE(fingerprint(base), fingerprint(changed));

  changed = base;
  changed.mapper = "puma";
  EXPECT_NE(fingerprint(base), fingerprint(changed));

  // The scheduler hashes by its *effective* key: explicit "ht" in HT mode
  // is the same configuration as the mode-derived default.
  changed = base;
  changed.scheduler = "ht";
  EXPECT_EQ(fingerprint(base), fingerprint(changed));
  changed.scheduler = "ll";
  EXPECT_NE(fingerprint(base), fingerprint(changed));
}

// ---------------------------------------------------------------------------
// One claim per mapping key: in-flight dedup and the bounded memory tier.
// ---------------------------------------------------------------------------

/// The memory tier's counter row.
CacheStoreStats memory_row(const CompilerSession& session) {
  for (const auto& [name, stats] : session.mapping_tier_stats()) {
    if (std::string(name) == cache_sources::kMemory) return stats;
  }
  ADD_FAILURE() << "session has no memory tier";
  return {};
}

TEST(CompilerSessionDedup, IdenticalConcurrentJobsMapOnce) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  session.set_jobs(4);
  StageGate gate(stage_names::kMapping);
  session.set_observer(&gate);

  // The owner is held in its mapping stage while the other workers' jobs
  // reach its claim; the rest queue behind them.
  std::vector<CompileJob> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(session.submit(tiny_options(), "same-" + std::to_string(i)));
  }
  gate.wait_until_held();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.release();
  const ScenarioOutcome& first = jobs.front().wait();
  ASSERT_TRUE(first.ok()) << first.error;
  for (const CompileJob& job : jobs) {
    const ScenarioOutcome& outcome = job.wait();
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    EXPECT_EQ(outcome.result->solution.encode(),
              first.result->solution.encode());
    EXPECT_EQ(outcome.result->schedule.total_ops,
              first.result->schedule.total_ops);
    EXPECT_EQ(outcome.result->estimated_fitness,
              first.result->estimated_fitness);
  }
  EXPECT_EQ(gate.begins(), 1);
  EXPECT_EQ(session.mapping_cache_hits(), 7u);
  EXPECT_EQ(session.mapping_tier_hits(cache_sources::kMemory), 7u);
  EXPECT_EQ(session.cached_mappings(), 1u);
}

TEST(CompilerSessionDedup, CancelledOwnerHandsTheKeyToItsWaiter) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  session.set_jobs(2);
  StageGate gate(stage_names::kMapping);
  session.set_observer(&gate);

  CompileJob owner = session.submit(tiny_options(), "owner");
  gate.wait_until_held();  // the owner is inside its mapping stage
  CompileJob waiter = session.submit(tiny_options(), "waiter");
  // Let the waiter reach the owner's claim before the owner goes away.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(owner.cancel());
  gate.release();

  EXPECT_TRUE(owner.wait().cancelled());
  const ScenarioOutcome& outcome = waiter.wait();
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  EXPECT_EQ(outcome.error_kind, ErrorKind::kNone);
  // The waiter re-claimed the retired key and mapped it itself.
  EXPECT_EQ(gate.begins(), 2);
  EXPECT_EQ(session.mapping_cache_hits(), 0u);

  CompilerSession fresh(small_cnn(), HardwareConfig::puma_default());
  EXPECT_EQ(fresh.compile(tiny_options()).solution.encode(),
            outcome.result->solution.encode());
}

TEST(CompilerSessionDedup, MemoryTierKeepsTheNewest128Mappings) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  const auto puma = [](std::uint64_t seed) {
    CompileOptions options = tiny_options(PipelineMode::kHighThroughput, seed);
    options.mapper = "puma";  // cheap: no GA
    return options;
  };
  for (std::uint64_t seed = 1; seed <= 129; ++seed) session.compile(puma(seed));

  CacheStoreStats row = memory_row(session);
  EXPECT_EQ(session.cached_mappings(), 128u);
  EXPECT_EQ(row.entries, 128u);
  EXPECT_EQ(row.stores, 129u);
  EXPECT_EQ(row.evictions, 1u);
  EXPECT_EQ(row.misses, 129u);
  EXPECT_EQ(row.hits, 0u);

  // FIFO: the first configuration was the one evicted, the second is kept.
  session.compile(puma(2));
  session.compile(puma(1));
  row = memory_row(session);
  EXPECT_EQ(row.hits, 1u);
  EXPECT_EQ(row.misses, 130u);
  EXPECT_EQ(session.mapping_cache_hits(), 1u);
}

TEST(CompilerSessionParallel, JobsZeroMeansHardwareThreads) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  EXPECT_EQ(session.jobs(), 1);  // sequential by default
  session.set_jobs(0);
  EXPECT_GE(session.jobs(), 1);
  session.set_jobs(3);
  EXPECT_EQ(session.jobs(), 3);
}

}  // namespace
}  // namespace pimcomp
