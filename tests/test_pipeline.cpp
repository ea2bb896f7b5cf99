#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/session.hpp"
#include "graph/builder.hpp"

namespace pimcomp {
namespace {

Graph small_cnn(const std::string& name = "pipeline-cnn") {
  GraphBuilder b(name, {3, 16, 16});
  NodeId x = b.input();
  x = b.conv_relu(x, 8, 3, /*stride=*/1, /*padding=*/1, "conv1");
  x = b.max_pool(x, 2, 2, 0, "pool1");
  x = b.conv_relu(x, 16, 3, 1, 1, "conv2");
  x = b.fc(b.flatten(x, "flatten"), 10, "classifier");
  b.softmax(x, "prob");
  return b.build();
}

CompileOptions tiny_options(PipelineMode mode = PipelineMode::kHighThroughput) {
  CompileOptions options;
  options.mode = mode;
  options.ga.population = 8;
  options.ga.generations = 4;
  return options;
}

/// Records every callback: (stage, begin/end, scenario index).
class CountingObserver : public PipelineObserver {
 public:
  struct Event {
    std::string stage;
    bool begin = false;
    int scenario_index = -1;
    double seconds = 0.0;
  };

  void on_stage_begin(const StageInfo& info) override {
    events.push_back({info.stage, true, info.scenario_index, info.seconds});
  }
  void on_stage_end(const StageInfo& info) override {
    events.push_back({info.stage, false, info.scenario_index, info.seconds});
  }

  int begins(const std::string& stage) const { return count(stage, true); }
  int ends(const std::string& stage) const { return count(stage, false); }

  std::vector<Event> events;

 private:
  int count(const std::string& stage, bool begin) const {
    return static_cast<int>(
        std::count_if(events.begin(), events.end(), [&](const Event& e) {
          return e.stage == stage && e.begin == begin;
        }));
  }
};

// ---------------------------------------------------------------------------
// Registries.
// ---------------------------------------------------------------------------

TEST(MapperRegistry, BuiltinsAreRegistered) {
  for (const char* key : {"ga", "puma", "greedy"}) {
    EXPECT_TRUE(MapperRegistry::contains(key)) << key;
  }
  const std::vector<std::string> keys = MapperRegistry::keys();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_GE(keys.size(), 3u);
}

TEST(MapperRegistry, CreateResolvesTheRightStrategy) {
  const CompileOptions options;
  EXPECT_EQ(MapperRegistry::create("ga", options)->name(), "pimcomp-ga");
  EXPECT_EQ(MapperRegistry::create("puma", options)->name(), "puma-like");
  EXPECT_EQ(MapperRegistry::create("greedy", options)->name(),
            "greedy-norep");
}

TEST(MapperRegistry, UnknownKeyThrowsListingAlternatives) {
  const CompileOptions options;
  EXPECT_FALSE(MapperRegistry::contains("does-not-exist"));
  try {
    MapperRegistry::create("does-not-exist", options);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("does-not-exist"), std::string::npos);
    EXPECT_NE(what.find("ga"), std::string::npos);  // lists registered keys
  }
}

TEST(MapperRegistry, DuplicateKeyIsRecordedAndReportedAtFirstUse) {
  // add() runs from static initializers, where throwing would terminate
  // before main() with no usable message — so a duplicate is recorded and
  // reported at the first create()/keys() call instead.
  EXPECT_TRUE(MapperRegistry::add("ga", [](const CompileOptions&) {
    return std::unique_ptr<Mapper>();
  }));
  try {
    MapperRegistry::keys();
    FAIL() << "expected ConfigError reporting the duplicate";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'ga'"), std::string::npos);
  }
  // Reported once; the registry stays usable and the first registration
  // (the real GA) stays in effect.
  EXPECT_NO_THROW(MapperRegistry::keys());
  EXPECT_EQ(MapperRegistry::create("ga", CompileOptions())->name(),
            "pimcomp-ga");
}

TEST(SchedulerRegistry, BuiltinsAreRegistered) {
  EXPECT_TRUE(SchedulerRegistry::contains("ht"));
  EXPECT_TRUE(SchedulerRegistry::contains("ll"));
  EXPECT_EQ(SchedulerRegistry::create("ht")->name(), "ht-dataflow");
  EXPECT_EQ(SchedulerRegistry::create("ll")->name(), "ll-dataflow");
  EXPECT_THROW(SchedulerRegistry::create("nope"), ConfigError);
}

TEST(CompileOptions, SchedulerKeyDerivesFromMode) {
  CompileOptions options;
  options.mode = PipelineMode::kHighThroughput;
  EXPECT_EQ(options.scheduler_key(), "ht");
  options.mode = PipelineMode::kLowLatency;
  EXPECT_EQ(options.scheduler_key(), "ll");
  options.scheduler = "ht";  // explicit key wins over the mode
  EXPECT_EQ(options.scheduler_key(), "ht");
}

TEST(MapperRegistry, ContainsEveryBuiltinKey) {
  for (const char* key : {"ga", "puma", "greedy"}) {
    EXPECT_TRUE(MapperRegistry::contains(key)) << key;
  }
}

// ---------------------------------------------------------------------------
// Observer callbacks and the stage loop.
// ---------------------------------------------------------------------------

TEST(PipelineObserver, StagesFireInOrderWithPairedCallbacks) {
  Compiler compiler(small_cnn(), HardwareConfig::puma_default());
  CountingObserver observer;
  const CompileResult result =
      compiler.compile(tiny_options(), &observer);
  EXPECT_GT(result.schedule.total_ops, 0);

  ASSERT_EQ(observer.events.size(), 6u);  // 3 stages x begin+end
  const char* expected[] = {stage_names::kPartitioning, stage_names::kMapping,
                            stage_names::kScheduling};
  for (int stage = 0; stage < 3; ++stage) {
    const auto& begin = observer.events[2 * stage];
    const auto& end = observer.events[2 * stage + 1];
    EXPECT_EQ(begin.stage, expected[stage]);
    EXPECT_TRUE(begin.begin);
    EXPECT_EQ(begin.seconds, 0.0);
    EXPECT_EQ(end.stage, expected[stage]);
    EXPECT_FALSE(end.begin);
    EXPECT_GE(end.seconds, 0.0);
  }
}

TEST(PipelineObserver, StageTimesComeFromTheSameLoop) {
  Compiler compiler(small_cnn(), HardwareConfig::puma_default());
  CountingObserver observer;
  const CompileResult result = compiler.compile(tiny_options(), &observer);
  double observed_total = 0.0;
  for (const auto& event : observer.events) observed_total += event.seconds;
  EXPECT_NEAR(result.stage_times.total(), observed_total, 1e-9);
  EXPECT_GT(result.stage_times.mapping, 0.0);
}

// ---------------------------------------------------------------------------
// Session workload cache.
// ---------------------------------------------------------------------------

TEST(CompilerSession, BatchOfThreeRunsPartitioningOnce) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  CountingObserver observer;
  session.set_observer(&observer);

  std::vector<Scenario> batch;
  for (int parallelism : {1, 20, 200}) {
    CompileOptions options = tiny_options();
    options.parallelism_degree = parallelism;
    batch.push_back(
        Scenario{"P=" + std::to_string(parallelism), options, std::nullopt});
  }
  const std::vector<ScenarioOutcome> outcomes =
      session.compile_all(std::move(batch));
  ASSERT_EQ(outcomes.size(), 3u);
  std::vector<const CompileResult*> results;
  for (const ScenarioOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    results.push_back(&*outcome.result);
  }

  // The tentpole claim: one partitioning pass for the whole batch.
  EXPECT_EQ(observer.begins(stage_names::kPartitioning), 1);
  EXPECT_EQ(observer.ends(stage_names::kPartitioning), 1);
  EXPECT_EQ(observer.begins(stage_names::kMapping), 3);
  EXPECT_EQ(observer.begins(stage_names::kScheduling), 3);
  EXPECT_EQ(session.cached_workloads(), 1u);

  // Scenario indices flow through to the callbacks in batch order.
  EXPECT_EQ(observer.events.front().scenario_index, 0);
  EXPECT_EQ(observer.events.back().scenario_index, 2);

  // All three scenarios share one workload object.
  EXPECT_EQ(results[0]->workload.get(), results[1]->workload.get());
  EXPECT_EQ(results[1]->workload.get(), results[2]->workload.get());

  // Cached runs report no partitioning time.
  EXPECT_GT(results[0]->stage_times.partitioning, 0.0);
  EXPECT_EQ(results[1]->stage_times.partitioning, 0.0);
  EXPECT_EQ(results[2]->stage_times.partitioning, 0.0);
}

TEST(CompilerSession, HardwareOverridePartitionsPerFingerprint) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  CountingObserver observer;
  session.set_observer(&observer);

  HardwareConfig wide = HardwareConfig::puma_default();
  wide.core_count = 2 * wide.cores_per_chip;

  session.compile_all(
      {Scenario{"default", tiny_options(), std::nullopt},
       Scenario{"wide", tiny_options(), wide},
       Scenario{"default-again", tiny_options(), std::nullopt}});

  // Two distinct hardware fingerprints => exactly two partitioning passes.
  EXPECT_EQ(observer.begins(stage_names::kPartitioning), 2);
  EXPECT_EQ(session.cached_workloads(), 2u);
}

TEST(CompilerSession, FingerprintSeparatesGraphAndHardware) {
  const Graph a = small_cnn("net-a");
  const Graph b = small_cnn("net-b");
  EXPECT_NE(fingerprint(a), fingerprint(b));  // name participates
  EXPECT_EQ(fingerprint(a), fingerprint(small_cnn("net-a")));

  HardwareConfig hw = HardwareConfig::puma_default();
  const std::uint64_t base = fingerprint(hw);
  EXPECT_EQ(base, fingerprint(HardwareConfig::puma_default()));
  hw.core_count += hw.cores_per_chip;
  EXPECT_NE(base, fingerprint(hw));
}

// ---------------------------------------------------------------------------
// Back-compat: the session path must reproduce Compiler::compile() bit for
// bit at the same seed.
// ---------------------------------------------------------------------------

TEST(CompilerSession, MatchesSingleShotCompilerAtSameSeed) {
  const HardwareConfig hw = HardwareConfig::puma_default();
  for (PipelineMode mode :
       {PipelineMode::kHighThroughput, PipelineMode::kLowLatency}) {
    CompileOptions options = tiny_options(mode);
    options.ga.seed_baseline = false;  // exercise the stochastic path
    options.seed = 99;

    Compiler compiler(small_cnn(), hw);
    const CompileResult single = compiler.compile(options);

    CompilerSession session(small_cnn(), hw);
    const CompileResult warm = session.compile(options);   // cache miss
    const CompileResult cached = session.compile(options); // cache hit

    for (const CompileResult* result : {&warm, &cached}) {
      EXPECT_EQ(result->solution.encode(), single.solution.encode());
      EXPECT_EQ(result->schedule.total_ops, single.schedule.total_ops);
      EXPECT_EQ(result->estimated_fitness, single.estimated_fitness);
      EXPECT_EQ(result->mapper_name, single.mapper_name);
    }
  }
}

TEST(CompilerSession, UnknownMapperKeyFailsBeforeAnyStageRuns) {
  CompilerSession session(small_cnn(), HardwareConfig::puma_default());
  CountingObserver observer;
  session.set_observer(&observer);
  CompileOptions options = tiny_options();
  options.mapper = "not-a-mapper";
  EXPECT_THROW(session.compile(options), ConfigError);
  // Fail-fast: the key is resolved before partitioning is paid for.
  EXPECT_TRUE(observer.events.empty());
}

TEST(PipelineObserver, CallbacksStayPairedWhenAStageThrows) {
  HardwareConfig hw = HardwareConfig::puma_default();
  // A one-crossbar machine: partitioning throws CapacityError.
  hw.core_count = 1;
  hw.cores_per_chip = 1;
  hw.xbars_per_core = 1;
  Compiler compiler(small_cnn(), hw);
  CountingObserver observer;
  EXPECT_THROW(compiler.compile(tiny_options(), &observer), CapacityError);
  ASSERT_EQ(observer.events.size(), 2u);
  EXPECT_EQ(observer.events[0].stage, stage_names::kPartitioning);
  EXPECT_TRUE(observer.events[0].begin);
  EXPECT_EQ(observer.events[1].stage, stage_names::kPartitioning);
  EXPECT_FALSE(observer.events[1].begin);
}

}  // namespace
}  // namespace pimcomp
