#include <gtest/gtest.h>

#include "common/error.hpp"
#include "graph/zoo/zoo.hpp"
#include "mapping/fitness.hpp"
#include "mapping/genetic_mapper.hpp"
#include "mapping/greedy_mapper.hpp"
#include "mapping/puma_mapper.hpp"

namespace pimcomp {
namespace {

class MapperFixture : public ::testing::Test {
 protected:
  MapperFixture() : graph_(zoo::squeezenet(64)) {
    hw_ = HardwareConfig::puma_default();
    hw_.core_count = 36;
    workload_ = std::make_unique<Workload>(graph_, hw_);
  }

  GaConfig small_ga() const {
    GaConfig ga;
    ga.population = 16;
    ga.generations = 12;
    return ga;
  }

  Graph graph_;
  HardwareConfig hw_;
  std::unique_ptr<Workload> workload_;
};

TEST_F(MapperFixture, GeneticProducesValidSolution) {
  GeneticMapper mapper(small_ga());
  MapperOptions options;
  options.mode = PipelineMode::kHighThroughput;
  MappingSolution s = mapper.map(*workload_, options);
  EXPECT_NO_THROW(s.validate());
  for (const NodePartition& p : workload_->partitions()) {
    EXPECT_GE(s.replication(p.node), 1);
    EXPECT_LE(s.replication(p.node), p.windows);
  }
}

TEST_F(MapperFixture, GeneticDeterministicBySeed) {
  GeneticMapper mapper(small_ga());
  MapperOptions options;
  options.seed = 99;
  const MappingSolution a = mapper.map(*workload_, options);
  const MappingSolution b = mapper.map(*workload_, options);
  EXPECT_EQ(a.encode(), b.encode());
}

TEST_F(MapperFixture, GeneticSeedChangesResult) {
  // Disable the deterministic baseline seed so the stochastic search path
  // is what's under test.
  GaConfig ga = small_ga();
  ga.seed_baseline = false;
  GeneticMapper mapper(ga);
  MapperOptions options;
  options.seed = 1;
  const MappingSolution a = mapper.map(*workload_, options);
  options.seed = 2;
  const MappingSolution b = mapper.map(*workload_, options);
  EXPECT_NE(a.encode(), b.encode());
}

TEST_F(MapperFixture, GeneticNeverRegresses) {
  GeneticMapper mapper(small_ga());
  MapperOptions options;
  options.mode = PipelineMode::kHighThroughput;
  mapper.map(*workload_, options);
  const GaStats& stats = mapper.last_stats();
  EXPECT_LE(stats.final_best, stats.initial_best);
  // Elitism makes the best-so-far monotone non-increasing.
  for (std::size_t i = 1; i < stats.best_history.size(); ++i) {
    EXPECT_LE(stats.best_history[i], stats.best_history[i - 1] + 1e-9);
  }
  EXPECT_GT(stats.evaluations, 0);
}

TEST_F(MapperFixture, GeneticLLModeUsesLLFitness) {
  GeneticMapper mapper(small_ga());
  MapperOptions options;
  options.mode = PipelineMode::kLowLatency;
  MappingSolution s = mapper.map(*workload_, options);
  const FitnessParams params =
      FitnessParams::from(hw_, options.parallelism_degree);
  const LLFitnessContext ctx(*workload_);
  EXPECT_NEAR(mapper.last_stats().final_best, ctx.evaluate(s, params), 1e-6);
}

TEST_F(MapperFixture, MutationAblationStillValid) {
  for (int disabled = 0; disabled < 4; ++disabled) {
    GaConfig ga = small_ga();
    ga.enable_grow = disabled != 0;
    ga.enable_shrink = disabled != 1;
    ga.enable_spread = disabled != 2;
    ga.enable_merge = disabled != 3;
    GeneticMapper mapper(ga);
    MapperOptions options;
    MappingSolution s = mapper.map(*workload_, options);
    EXPECT_NO_THROW(s.validate());
  }
  GaConfig none = small_ga();
  none.enable_grow = none.enable_shrink = none.enable_spread =
      none.enable_merge = false;
  GeneticMapper broken(none);
  MapperOptions options;
  EXPECT_THROW(broken.map(*workload_, options), ConfigError);
}

TEST_F(MapperFixture, PumaBalancedReplicationShape) {
  const std::vector<int> replication =
      PumaMapper::balanced_replication(*workload_, 0.9);
  ASSERT_EQ(replication.size(),
            static_cast<std::size_t>(workload_->partition_count()));
  std::int64_t used = 0;
  for (int i = 0; i < workload_->partition_count(); ++i) {
    const NodePartition& p =
        workload_->partitions()[static_cast<std::size_t>(i)];
    const int r = replication[static_cast<std::size_t>(i)];
    EXPECT_GE(r, 1);
    EXPECT_LE(r, p.windows);
    used += static_cast<std::int64_t>(r) * p.xbars_per_replica();
  }
  EXPECT_LE(used, static_cast<std::int64_t>(
                      0.9 * static_cast<double>(
                                workload_->total_xbars_available())) +
                      1);
  // Pipeline balancing: nodes with more windows get at least as many
  // replicas (early conv layers dominate).
  int max_windows_idx = 0;
  int min_windows_idx = 0;
  for (int i = 0; i < workload_->partition_count(); ++i) {
    const auto& parts = workload_->partitions();
    if (parts[static_cast<std::size_t>(i)].windows >
        parts[static_cast<std::size_t>(max_windows_idx)].windows) {
      max_windows_idx = i;
    }
    if (parts[static_cast<std::size_t>(i)].windows <
        parts[static_cast<std::size_t>(min_windows_idx)].windows) {
      min_windows_idx = i;
    }
  }
  EXPECT_GE(replication[static_cast<std::size_t>(max_windows_idx)],
            replication[static_cast<std::size_t>(min_windows_idx)]);
}

TEST_F(MapperFixture, PumaMapperValidAndDeterministic) {
  PumaMapper mapper;
  MapperOptions options;
  MappingSolution a = mapper.map(*workload_, options);
  MappingSolution b = mapper.map(*workload_, options);
  EXPECT_NO_THROW(a.validate());
  EXPECT_EQ(a.encode(), b.encode());
}

TEST_F(MapperFixture, GreedyMapsOneReplicaEach) {
  GreedyMapper mapper;
  MapperOptions options;
  MappingSolution s = mapper.map(*workload_, options);
  EXPECT_NO_THROW(s.validate());
  for (const NodePartition& p : workload_->partitions()) {
    EXPECT_EQ(s.replication(p.node), 1);
  }
}

TEST_F(MapperFixture, GeneticBeatsGreedyOnFitness) {
  GeneticMapper ga(small_ga());
  GreedyMapper greedy;
  MapperOptions options;
  options.mode = PipelineMode::kHighThroughput;
  const MappingSolution s_ga = ga.map(*workload_, options);
  const MappingSolution s_greedy = greedy.map(*workload_, options);
  const FitnessParams params =
      FitnessParams::from(hw_, options.parallelism_degree);
  EXPECT_LT(ht_fitness(s_ga, params), ht_fitness(s_greedy, params));
}

TEST(MapperScaling, GeneticHandlesMultiChipConfigs) {
  Graph g = zoo::resnet18(64);
  HardwareConfig hw = HardwareConfig::puma_default();
  hw.core_count = 288;
  const Workload w(g, hw);
  GaConfig ga;
  ga.population = 8;
  ga.generations = 5;
  GeneticMapper mapper(ga);
  MapperOptions options;
  MappingSolution s = mapper.map(w, options);
  EXPECT_NO_THROW(s.validate());
}

TEST(MapperScaling, ThrowsWhenEvenOneReplicaCannotFit) {
  Graph g = zoo::resnet18(64);
  HardwareConfig hw = HardwareConfig::puma_default();
  hw.core_count = 90;  // fits min crossbars but max_nodes_per_core=1 breaks it
  const Workload w(g, hw);
  GaConfig ga;
  ga.population = 4;
  ga.generations = 2;
  GeneticMapper mapper(ga);
  MapperOptions options;
  options.max_nodes_per_core = 1;
  EXPECT_THROW(mapper.map(w, options), CapacityError);
}

}  // namespace
}  // namespace pimcomp
