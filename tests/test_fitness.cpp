#include "mapping/fitness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "graph/builder.hpp"
#include "graph/zoo/zoo.hpp"

namespace pimcomp {
namespace {

FitnessParams params_for(int parallelism) {
  HardwareConfig hw = HardwareConfig::puma_default();
  return FitnessParams::from(hw, parallelism);
}

TEST(CycleTime, PaperFormula) {
  // f(n) = n * T_interval when issue-bound (n > T_MVM / T_interval),
  // else T_MVM (paper Fig 5).
  const FitnessParams p1 = params_for(1);    // T_int = T_MVM
  const FitnessParams p20 = params_for(20);  // T_int = T_MVM / 20
  const Picoseconds t_mvm = HardwareConfig::puma_default().mvm_latency;

  EXPECT_EQ(cycle_time(1, p1), t_mvm);
  EXPECT_EQ(cycle_time(4, p1), 4 * t_mvm);
  EXPECT_EQ(cycle_time(1, p20), t_mvm);
  EXPECT_EQ(cycle_time(20, p20), t_mvm);      // exactly at the knee
  EXPECT_EQ(cycle_time(40, p20), 2 * t_mvm);  // issue-bound
  EXPECT_EQ(cycle_time(0, p20), 0);
}

/// Two parallel 1-AG-per-replica convolutions from one tiny input:
///  X: 1x1 conv, 4x5 output -> 20 windows; replicated 2x -> 10 cycles/AG.
///  Y: 2x2 conv, 3x4 output -> 12 windows; replicated 3x -> 4 cycles/AG.
class StaircaseFixture : public ::testing::Test {
 protected:
  StaircaseFixture() {
    GraphBuilder b("stairs", {1, 4, 5});
    x_ = b.conv(b.input(), 4, 1, 1, 0, "x");
    y_ = b.conv(b.input(), 4, 2, 1, 0, "y");
    graph_ = b.build();
    hw_ = HardwareConfig::puma_default();
    hw_.core_count = 36;
    workload_ = std::make_unique<Workload>(graph_, hw_);
  }

  NodeId x_ = -1, y_ = -1;
  Graph graph_;
  HardwareConfig hw_;
  std::unique_ptr<Workload> workload_;
};

TEST_F(StaircaseFixture, HandComputedStaircase) {
  ASSERT_EQ(workload_->partition_of(x_).ags_per_replica(), 1);
  ASSERT_EQ(workload_->partition_of(y_).ags_per_replica(), 1);

  MappingSolution s(*workload_, 8);
  s.add(0, x_, 2);  // cycles 10
  s.add(0, y_, 3);  // cycles 4
  s.validate();
  EXPECT_EQ(s.cycles(x_), 10);
  EXPECT_EQ(s.cycles(y_), 4);

  // P=1: f(5) = 5 T, f(2) = 2 T. time = 4*f(5) + 6*f(2) = 32 T.
  const FitnessParams p1 = params_for(1);
  const double t = static_cast<double>(hw_.mvm_latency);
  EXPECT_DOUBLE_EQ(ht_fitness(s, p1), 32.0 * t);

  // P=20: both cycle times clamp to T_MVM. time = 10 cycles * T = 10 T.
  const FitnessParams p20 = params_for(20);
  EXPECT_DOUBLE_EQ(ht_fitness(s, p20), 10.0 * t);
}

TEST_F(StaircaseFixture, MaxAcrossCores) {
  MappingSolution s(*workload_, 8);
  s.add(0, x_, 2);  // core 0: 10 cycles
  s.add(1, y_, 3);  // core 1: 4 cycles
  const FitnessParams p1 = params_for(1);
  const double t = static_cast<double>(hw_.mvm_latency);
  const auto times = ht_core_times(s, p1);
  EXPECT_DOUBLE_EQ(times[0], 10 * 2 * t);  // f(2) per cycle
  EXPECT_DOUBLE_EQ(times[1], 4 * 3 * t);   // f(3) per cycle
  EXPECT_DOUBLE_EQ(ht_fitness(s, p1), 20.0 * t);
}

TEST_F(StaircaseFixture, ReplicationReducesFitness) {
  MappingSolution low(*workload_, 8);
  low.add(0, x_, 1);
  low.add(1, y_, 1);
  MappingSolution high(*workload_, 8);
  high.add(0, x_, 2);
  high.add(1, x_, 2);
  high.add(2, y_, 2);
  high.add(3, y_, 2);
  const FitnessParams p = params_for(20);
  EXPECT_LT(ht_fitness(high, p), ht_fitness(low, p));
}

class LLFixture : public ::testing::Test {
 protected:
  LLFixture() {
    GraphBuilder b("chain", {4, 10, 10});
    c1_ = b.conv_relu(b.input(), 8, 3, 1, 1, "c1");   // 10x10 out
    c2_ = b.conv(c1_, 8, 3, 1, 1, "c2");              // 10x10 out
    f_ = b.fc(b.flatten(c2_), 10, "fc");
    graph_ = b.build();
    hw_ = HardwareConfig::puma_default();
    hw_.core_count = 36;
    workload_ = std::make_unique<Workload>(graph_, hw_);
  }

  NodeId c1_ = -1, c2_ = -1, f_ = -1;
  Graph graph_;
  HardwareConfig hw_;
  std::unique_ptr<Workload> workload_;
};

TEST_F(LLFixture, WaitingFractions) {
  const LLFitnessContext ctx(*workload_);
  ASSERT_EQ(ctx.edges().size(), 3u);

  // c1 reads the graph input: provider -1, available at t=0.
  ASSERT_EQ(ctx.edges()[0].size(), 1u);
  EXPECT_EQ(ctx.edges()[0][0].provider, -1);
  EXPECT_DOUBLE_EQ(ctx.edges()[0][0].waiting_fraction, 0.0);

  // c2's first window needs c1 up to (rd, cd) = (2, 2) of its 10x10 output
  // (3x3 kernel, padding 1): fraction = ((2-1)*10 + 2) / 100 = 0.12.
  ASSERT_EQ(ctx.edges()[1].size(), 1u);
  EXPECT_EQ(ctx.edges()[1][0].provider, 0);
  EXPECT_DOUBLE_EQ(ctx.edges()[1][0].waiting_fraction, 0.12);

  // The FC needs everything: waiting fraction 1.
  ASSERT_EQ(ctx.edges()[2].size(), 1u);
  EXPECT_EQ(ctx.edges()[2][0].provider, 1);
  EXPECT_DOUBLE_EQ(ctx.edges()[2][0].waiting_fraction, 1.0);
}

TEST_F(LLFixture, FinishTimesRespectTopology) {
  MappingSolution s(*workload_, 8);
  for (const NodePartition& p : workload_->partitions()) {
    int core = 0;
    while (!s.can_add(core, p.node, p.ags_per_replica())) ++core;
    s.add(core, p.node, p.ags_per_replica());
  }
  const LLFitnessContext ctx(*workload_);
  const FitnessParams p = params_for(20);
  const auto finish = ctx.finish_times(s, p);
  ASSERT_EQ(finish.size(), 3u);
  EXPECT_LT(finish[0], finish[1]);
  EXPECT_LT(finish[1], finish[2]);
  EXPECT_DOUBLE_EQ(ctx.evaluate(s, p), finish[2]);
}

TEST_F(LLFixture, ReplicationShortensLatency) {
  MappingSolution base(*workload_, 8);
  MappingSolution replicated(*workload_, 8);
  for (const NodePartition& p : workload_->partitions()) {
    int core = 0;
    while (!base.can_add(core, p.node, p.ags_per_replica())) ++core;
    base.add(core, p.node, p.ags_per_replica());
    core = 0;
    for (int r = 0; r < 2; ++r) {
      while (!replicated.can_add(core, p.node, p.ags_per_replica())) ++core;
      replicated.add(core, p.node, p.ags_per_replica());
    }
  }
  const LLFitnessContext ctx(*workload_);
  const FitnessParams p = params_for(20);
  EXPECT_LT(ctx.evaluate(replicated, p), ctx.evaluate(base, p));
}

TEST(LLEdges, EltwisePassesRequirementsThrough) {
  // Residual pattern: two convs feeding an eltwise feeding a conv.
  GraphBuilder b("res", {4, 8, 8});
  const NodeId a = b.conv(b.input(), 8, 3, 1, 1, "a");
  const NodeId c = b.conv(b.input(), 8, 3, 1, 1, "c");
  const NodeId add = b.eltwise_add(a, c, "add");
  const NodeId d = b.conv(add, 8, 3, 1, 1, "d");
  Graph g = b.build();
  HardwareConfig hw = HardwareConfig::puma_default();
  hw.core_count = 36;
  const Workload w(g, hw);
  const LLFitnessContext ctx(w);
  // d (partition 2) must have waiting edges to both a and c with identical
  // fractions (the eltwise passes positions through unchanged).
  const auto& edges =
      ctx.edges()[static_cast<std::size_t>(w.partition_index(d))];
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_DOUBLE_EQ(edges[0].waiting_fraction, edges[1].waiting_fraction);
  EXPECT_GT(edges[0].waiting_fraction, 0.0);
  EXPECT_LT(edges[0].waiting_fraction, 1.0);
}

TEST(LLEdges, PoolingStretchesReceptiveField) {
  GraphBuilder b("pools", {4, 16, 16});
  const NodeId a = b.conv(b.input(), 8, 3, 1, 1, "a");
  const NodeId p = b.max_pool(a, 2, 2, 0, "pool");
  const NodeId c = b.conv(p, 8, 3, 1, 1, "c");
  Graph g = b.build();
  HardwareConfig hw = HardwareConfig::puma_default();
  hw.core_count = 36;
  const Workload w(g, hw);
  const LLFitnessContext ctx(w);
  const auto& edges =
      ctx.edges()[static_cast<std::size_t>(w.partition_index(c))];
  ASSERT_EQ(edges.size(), 1u);
  // c's first window needs pool rows 1..2 -> conv rows 1..4 of 16:
  // the pooled receptive field needs a deeper slice than a direct conv
  // consumer would (which would need rows 1..2).
  EXPECT_GT(edges[0].waiting_fraction, 2.0 / 16.0);
}

// ---------------------------------------------------------------------------
// PopulationEvaluator against the scalar estimators along random edit walks.
// ---------------------------------------------------------------------------

/// One replica of every node, scattered AG by AG round-robin over the cores
/// so that many replicas span cores and pay accumulation penalties.
MappingSolution scattered_start(const Workload& workload) {
  MappingSolution s(workload, 8);
  int core = 0;
  for (const NodePartition& p : workload.partitions()) {
    for (int k = 0; k < p.ags_per_replica(); ++k) {
      while (!s.can_add(core, p.node, 1)) core = (core + 1) % s.core_count();
      s.add(core, p.node, 1);
      core = (core + 1) % s.core_count();
    }
  }
  return s;
}

/// A random core hosting `node`.
int random_host(Rng& rng, const MappingSolution& s, NodeId node) {
  const std::vector<int> hosts = s.cores_of(node);
  return hosts[static_cast<std::size_t>(rng.pick_index(hosts))];
}

/// Moves `count` AGs of `node` from `src` to the first core after it that
/// takes them; false when none does.
bool move_ags(MappingSolution& s, int src, NodeId node, int count) {
  for (int i = 1; i < s.core_count(); ++i) {
    const int dst = (src + i) % s.core_count();
    if (s.can_add(dst, node, count)) {
      s.remove(src, node, count);
      s.add(dst, node, count);
      return true;
    }
  }
  return false;
}

/// One random edit that keeps at least one full replica of every node (the
/// estimators' precondition): AG additions and removals (which also change
/// replication when a total crosses a multiple of the replica size, and
/// drop a node from a core when its gene empties), whole-replica growth and
/// shrinkage, moves between cores, and emptying a core.
void random_edit(Rng& rng, MappingSolution& s) {
  const Workload& workload = s.workload();
  const NodePartition& p = workload.partitions()[static_cast<std::size_t>(
      rng.uniform_int(workload.partition_count()))];
  const int per_replica = p.ags_per_replica();
  const int spare = s.total_ags(p.node) - per_replica;  // removable AGs
  switch (rng.uniform_int(6)) {
    case 0: {
      const int core = rng.uniform_int(s.core_count());
      const int count = rng.uniform_range(1, 2 * per_replica);
      if (s.can_add(core, p.node, count)) s.add(core, p.node, count);
      break;
    }
    case 1: {
      const int core = random_host(rng, s, p.node);
      const int count = std::min(
          spare, rng.uniform_range(1, s.ags_on(core, p.node)));
      if (count > 0) s.remove(core, p.node, count);
      break;
    }
    case 2: {  // grow or shrink by one whole replica
      if (rng.bernoulli(0.5)) {
        const int core = rng.uniform_int(s.core_count());
        if (s.can_add(core, p.node, per_replica)) {
          s.add(core, p.node, per_replica);
        }
      } else if (spare >= per_replica) {
        int remaining = per_replica;
        for (int core : s.cores_of(p.node)) {
          remaining -= s.remove(core, p.node, remaining);
          if (remaining == 0) break;
        }
      }
      break;
    }
    case 3: {
      const int src = random_host(rng, s, p.node);
      move_ags(s, src, p.node,
               rng.uniform_range(1, s.ags_on(src, p.node)));
      break;
    }
    case 4: {  // drop the node from a core by moving its whole gene
      const int src = random_host(rng, s, p.node);
      move_ags(s, src, p.node, s.ags_on(src, p.node));
      break;
    }
    default: {  // empty a core
      const int core = rng.uniform_int(s.core_count());
      const std::vector<Gene> genes(s.genes(core).begin(),
                                    s.genes(core).end());
      for (const Gene& g : genes) {
        if (!move_ags(s, core, g.node, g.ag_count)) break;
      }
      break;
    }
  }
}

TEST(PopulationEvaluator, CachedScoringMatchesScalarAlongRandomWalks) {
  // A few individuals take random edits; some are copied over others (a
  // child copies its parent's solution, touched cores and cache), and some
  // edits are left unscored so that touched cores accumulate across steps
  // and copies. After every scored step the evaluator's fitness must equal
  // the scalar estimator's bit for bit, and the touched cores are clear.
  const Graph graph = zoo::build("resnet18", 32);
  HardwareConfig hw = HardwareConfig::puma_default();
  hw.core_count = Workload::recommend_cores(
      Workload::min_xbars_for(graph, hw), hw, 3.0);
  const Workload workload(graph, hw);
  ASSERT_NE(hw.core_count % 64, 0);  // a partial last bitset word
  const LLFitnessContext ll_context(workload);
  for (const int parallelism : {1, 20}) {
    const FitnessParams params = FitnessParams::from(hw, parallelism);
    for (const auto mode :
         {PipelineMode::kHighThroughput, PipelineMode::kLowLatency}) {
      SCOPED_TRACE(to_string(mode) + " P=" + std::to_string(parallelism));
      PopulationEvaluator evaluator(workload, params, mode, ll_context,
                                    /*slots=*/2, /*max_nodes_per_core=*/8);
      struct Individual {
        MappingSolution solution;
        ScoreCache cache;
      };
      std::vector<Individual> crowd(3, Individual{scattered_start(workload),
                                                  ScoreCache{}});
      Rng rng(static_cast<std::uint64_t>(parallelism) * 2 +
              (mode == PipelineMode::kLowLatency ? 1 : 0));
      int scored = 0;
      for (int step = 0; step < 1500; ++step) {
        Individual& one = crowd[static_cast<std::size_t>(rng.uniform_int(3))];
        if (rng.bernoulli(0.1)) {
          one = crowd[static_cast<std::size_t>(rng.uniform_int(3))];
        } else {
          random_edit(rng, one.solution);
        }
        if (rng.bernoulli(0.3)) continue;  // left unscored
        const double expected =
            mode == PipelineMode::kHighThroughput
                ? ht_fitness(one.solution, params)
                : ll_context.evaluate(one.solution, params);
        ASSERT_EQ(evaluator.evaluate(step % 2, one.solution, one.cache),
                  expected)
            << "step " << step;
        for (const std::uint64_t word : one.solution.touched()) {
          ASSERT_EQ(word, 0U) << "step " << step;
        }
        ++scored;
      }
      EXPECT_GT(scored, 900);
    }
  }
}

}  // namespace
}  // namespace pimcomp
