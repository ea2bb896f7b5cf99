#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "graph/builder.hpp"
#include "graph/zoo/zoo.hpp"
#include "mapping/gene.hpp"
#include "mapping/mapping_solution.hpp"

namespace pimcomp {
namespace {

TEST(Gene, PaperEncodingExample) {
  // "1030025 represents 25 AGs of the 103rd node" (paper §IV-C1).
  const Gene g{103, 25};
  EXPECT_EQ(encode_gene(g), 1030025);
  const Gene back = decode_gene(1030025);
  EXPECT_EQ(back.node, 103);
  EXPECT_EQ(back.ag_count, 25);
}

TEST(Gene, EmptySlotIsZero) {
  EXPECT_EQ(encode_gene(Gene{}), 0);
  const Gene empty = decode_gene(0);
  EXPECT_EQ(empty.node, -1);
  EXPECT_EQ(empty.ag_count, 0);
}

TEST(Gene, RejectsOutOfRangeCounts) {
  EXPECT_THROW(encode_gene(Gene{1, 10000}), ConfigError);
  EXPECT_THROW(encode_gene(Gene{1, -3}), ConfigError);
  EXPECT_NO_THROW(encode_gene(Gene{1, kMaxAgCountPerGene}));
  EXPECT_THROW(decode_gene(-5), ConfigError);
  EXPECT_THROW(decode_gene(30000), ConfigError);  // zero ag_count
}

class SolutionTest : public ::testing::Test {
 protected:
  SolutionTest()
      : graph_(zoo::squeezenet(64)), hw_(HardwareConfig::puma_default()) {
    hw_.core_count = 36;
    workload_ = std::make_unique<Workload>(graph_, hw_);
  }

  Graph graph_;
  HardwareConfig hw_;
  std::unique_ptr<Workload> workload_;
};

TEST_F(SolutionTest, AddMergesIntoOneGenePerNodePerCore) {
  MappingSolution s(*workload_, 8);
  const NodeId node = workload_->partitions()[0].node;
  ASSERT_TRUE(s.can_add(0, node, 1));
  s.add(0, node, 1);
  s.add(0, node, 2);
  EXPECT_EQ(s.gene_count(0), 1);
  EXPECT_EQ(s.genes(0)[0].ag_count, 3);
  EXPECT_EQ(s.total_ags(node), 3);
}

TEST_F(SolutionTest, CapacityEnforced) {
  MappingSolution s(*workload_, 8);
  const NodePartition& p = workload_->partitions()[0];
  const int fit = hw_.xbars_per_core / p.xbars_per_ag;
  EXPECT_TRUE(s.can_add(0, p.node, fit));
  EXPECT_FALSE(s.can_add(0, p.node, fit + 1));
  s.add(0, p.node, fit);
  EXPECT_FALSE(s.can_add(0, p.node, 1));
  EXPECT_EQ(s.free_xbars(0), hw_.xbars_per_core - fit * p.xbars_per_ag);
}

TEST_F(SolutionTest, NodeSlotBoundEnforced) {
  MappingSolution s(*workload_, 2);
  s.add(0, workload_->partitions()[0].node, 1);
  s.add(0, workload_->partitions()[1].node, 1);
  EXPECT_FALSE(s.can_add(0, workload_->partitions()[2].node, 1));
  // Existing nodes can still grow.
  EXPECT_TRUE(s.can_add(0, workload_->partitions()[0].node, 1));
}

TEST_F(SolutionTest, RemoveReturnsActualCount) {
  MappingSolution s(*workload_, 8);
  const NodeId node = workload_->partitions()[0].node;
  s.add(0, node, 3);
  EXPECT_EQ(s.remove(0, node, 2), 2);
  EXPECT_EQ(s.remove(0, node, 5), 1);  // only one left
  EXPECT_EQ(s.remove(0, node, 1), 0);  // gene gone
  EXPECT_EQ(s.gene_count(0), 0);
}

TEST_F(SolutionTest, ReplicationAndCycles) {
  MappingSolution s(*workload_, 8);
  const NodePartition& p = workload_->partitions()[0];
  s.add(0, p.node, p.ags_per_replica());
  EXPECT_EQ(s.replication(p.node), 1);
  EXPECT_EQ(s.cycles(p.node), p.windows);
  s.add(1, p.node, p.ags_per_replica());
  EXPECT_EQ(s.replication(p.node), 2);
  EXPECT_EQ(s.cycles(p.node), (p.windows + 1) / 2);
}

TEST_F(SolutionTest, ValidateCatchesMissingReplicas) {
  MappingSolution s(*workload_, 8);
  // Give only the first node a replica; everything else is missing.
  s.add(0, workload_->partitions()[0].node,
        workload_->partitions()[0].ags_per_replica());
  EXPECT_THROW(s.validate(), Error);
}

TEST_F(SolutionTest, ValidateCatchesPartialReplicaTotals) {
  MappingSolution s(*workload_, 8);
  for (const NodePartition& p : workload_->partitions()) {
    int remaining = p.ags_per_replica();
    int guard = 0;
    for (int c = 0; remaining > 0; ++c) {
      ASSERT_LT(++guard, 100000) << "placement did not converge";
      int add = std::min(remaining, 4);
      while (add > 0 && !s.can_add(c % 36, p.node, add)) --add;
      if (add > 0) {
        s.add(c % 36, p.node, add);
        remaining -= add;
      }
    }
  }
  EXPECT_NO_THROW(s.validate());
  // Now break one node's total.
  const NodePartition& p0 = workload_->partitions()[0];
  if (p0.ags_per_replica() > 1) {
    for (int c = 0; c < 36; ++c) {
      if (s.remove(c, p0.node, 1) == 1) break;
    }
    EXPECT_THROW(s.validate(), Error);
  }
}

TEST_F(SolutionTest, EncodeDecodeRoundTrip) {
  MappingSolution s(*workload_, 8);
  for (const NodePartition& p : workload_->partitions()) {
    int remaining = p.ags_per_replica();
    int core = p.node % 36;
    int guard = 0;
    while (remaining > 0) {
      ASSERT_LT(++guard, 100000) << "placement did not converge";
      int add = std::min(remaining, 3);
      while (add > 0 && !s.can_add(core, p.node, add)) --add;
      if (add > 0) {
        s.add(core, p.node, add);
        remaining -= add;
      } else {
        core = (core + 1) % 36;
      }
    }
  }
  const std::vector<std::int64_t> chromosome = s.encode();
  EXPECT_EQ(chromosome.size(), 36u * 8u);
  MappingSolution restored = MappingSolution::decode(*workload_, 8, chromosome);
  EXPECT_EQ(restored.encode(), chromosome);
  for (const NodePartition& p : workload_->partitions()) {
    EXPECT_EQ(restored.total_ags(p.node), s.total_ags(p.node));
  }
}

TEST_F(SolutionTest, InstantiateKeepsWholeReplicasLocal) {
  MappingSolution s(*workload_, 8);
  std::vector<bool> whole_replica(
      static_cast<std::size_t>(graph_.node_count()), false);
  for (const NodePartition& p : workload_->partitions()) {
    // Two whole replicas on distinct cores where one fits a core; nodes
    // whose replica exceeds a core's crossbars scatter AG by AG.
    if (p.xbars_per_replica() <= hw_.xbars_per_core) {
      int placed = 0;
      for (int c = 0; c < 36 && placed < 2; ++c) {
        if (s.can_add(c, p.node, p.ags_per_replica())) {
          s.add(c, p.node, p.ags_per_replica());
          ++placed;
        }
      }
      ASSERT_GE(placed, 1);
      whole_replica[static_cast<std::size_t>(p.node)] = true;
    } else {
      int remaining = p.ags_per_replica();
      int guard = 0;
      for (int c = 0; remaining > 0; ++c) {
        ASSERT_LT(++guard, 100000);
        if (s.can_add(c % 36, p.node, 1)) {
          s.add(c % 36, p.node, 1);
          --remaining;
        }
      }
    }
  }
  const std::vector<AgInstance> instances = s.instantiate();
  // Whole-replica nodes: every (replica, chunk) accumulation group must
  // live on exactly one core (instantiate's pass-1 guarantee).
  std::map<std::tuple<NodeId, int, int>, int> group_core;
  for (const AgInstance& ag : instances) {
    if (!whole_replica[static_cast<std::size_t>(ag.node)]) continue;
    const auto key = std::make_tuple(ag.node, ag.replica, ag.col_chunk);
    auto it = group_core.find(key);
    if (it == group_core.end()) {
      group_core[key] = ag.core;
    } else {
      EXPECT_EQ(it->second, ag.core) << "scattered group for node " << ag.node;
    }
  }
}

TEST_F(SolutionTest, InstantiateCountsMatchTotals) {
  MappingSolution s(*workload_, 8);
  for (const NodePartition& p : workload_->partitions()) {
    int remaining = 2 * p.ags_per_replica();
    int guard = 0;
    for (int c = 0; remaining > 0; ++c) {
      ASSERT_LT(++guard, 100000) << "placement did not converge";
      int add = std::min(remaining, 2);
      while (add > 0 && !s.can_add(c % 36, p.node, add)) --add;
      if (add > 0) {
        s.add(c % 36, p.node, add);
        remaining -= add;
      }
    }
    ASSERT_EQ(remaining, 0);
  }
  const auto instances = s.instantiate();
  std::map<NodeId, int> counts;
  for (const AgInstance& ag : instances) ++counts[ag.node];
  for (const NodePartition& p : workload_->partitions()) {
    EXPECT_EQ(counts[p.node], s.total_ags(p.node));
    EXPECT_EQ(counts[p.node], 2 * p.ags_per_replica());
  }
}

// ---------------------------------------------------------------------------
// Differential check of the flat gene store against a naive model: one
// std::vector of genes per core, appended on a node's first add and erased
// from on its last remove.
// ---------------------------------------------------------------------------

/// The reference semantics MappingSolution must reproduce exactly.
struct NaiveSolution {
  NaiveSolution(const Workload& workload, int max_nodes)
      : workload(&workload),
        max_nodes(max_nodes),
        genes(static_cast<std::size_t>(workload.hardware().core_count)) {}

  std::vector<Gene>& on(int core) {
    return genes[static_cast<std::size_t>(core)];
  }
  Gene* find(int core, NodeId node) {
    auto& g = on(core);
    auto it = std::find_if(g.begin(), g.end(),
                           [node](const Gene& x) { return x.node == node; });
    return it == g.end() ? nullptr : &*it;
  }
  int xbars(int core) const {
    int total = 0;
    for (const Gene& g : genes[static_cast<std::size_t>(core)]) {
      total += g.ag_count * workload->partition_of(g.node).xbars_per_ag;
    }
    return total;
  }
  bool can_add(int core, NodeId node, int ag_count) {
    const NodePartition& p = workload->partition_of(node);
    if (xbars(core) + ag_count * p.xbars_per_ag >
        workload->hardware().xbars_per_core) {
      return false;
    }
    const Gene* g = find(core, node);
    if (g == nullptr) return static_cast<int>(on(core).size()) < max_nodes;
    return g->ag_count + ag_count <= kMaxAgCountPerGene;
  }
  void add(int core, NodeId node, int ag_count) {
    if (Gene* g = find(core, node)) {
      g->ag_count += ag_count;
    } else {
      on(core).push_back(Gene{node, ag_count});
    }
  }
  int remove(int core, NodeId node, int ag_count) {
    Gene* g = find(core, node);
    if (g == nullptr) return 0;
    const int removed = std::min(g->ag_count, ag_count);
    g->ag_count -= removed;
    if (g->ag_count == 0) {
      on(core).erase(on(core).begin() + (g - on(core).data()));
    }
    return removed;
  }

  const Workload* workload;
  int max_nodes;
  std::vector<std::vector<Gene>> genes;
};

/// Everything observable about a solution, compared field by field.
void expect_same(const MappingSolution& a, const MappingSolution& b) {
  ASSERT_EQ(&a.workload(), &b.workload());
  ASSERT_EQ(a.core_count(), b.core_count());
  ASSERT_EQ(a.max_nodes_per_core(), b.max_nodes_per_core());
  for (int c = 0; c < a.core_count(); ++c) {
    const auto ga = a.genes(c);
    const auto gb = b.genes(c);
    ASSERT_TRUE(std::equal(ga.begin(), ga.end(), gb.begin(), gb.end()))
        << "core " << c;
    ASSERT_EQ(a.xbars_used(c), b.xbars_used(c)) << "core " << c;
  }
  for (const NodePartition& p : a.workload().partitions()) {
    ASSERT_EQ(a.cores_of(p.node), b.cores_of(p.node)) << "node " << p.node;
    ASSERT_EQ(a.total_ags(p.node), b.total_ags(p.node)) << "node " << p.node;
  }
  ASSERT_EQ(a.encode(), b.encode());
}

void expect_matches_model(const MappingSolution& s, NaiveSolution& model) {
  const Workload& workload = s.workload();
  std::vector<int> cores;
  for (int c = 0; c < s.core_count(); ++c) {
    const std::vector<Gene>& want = model.on(c);
    const auto got = s.genes(c);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "gene order differs on core " << c;
    ASSERT_EQ(s.gene_count(c), static_cast<int>(want.size()));
    ASSERT_EQ(s.xbars_used(c), model.xbars(c)) << "core " << c;
  }
  for (const NodePartition& p : workload.partitions()) {
    std::vector<int> hosts;
    int total = 0;
    for (int c = 0; c < s.core_count(); ++c) {
      const Gene* g = model.find(c, p.node);
      ASSERT_EQ(s.has_node(c, p.node), g != nullptr)
          << "core " << c << " node " << p.node;
      if (g != nullptr) {
        hosts.push_back(c);
        total += g->ag_count;
      }
    }
    ASSERT_EQ(s.cores_of(p.node), hosts) << "node " << p.node;
    s.cores_of(p.node, cores);
    ASSERT_EQ(cores, hosts) << "node " << p.node;
    ASSERT_EQ(s.total_ags(p.node), total) << "node " << p.node;
  }
}

/// One random add or remove, applied to both stores; the feasibility
/// verdicts and removed counts must agree too.
template <typename Model>
void random_step(Rng& rng, MappingSolution& s, Model& model) {
  const Workload& workload = s.workload();
  const int core = rng.uniform_int(s.core_count());
  const NodePartition& p = workload.partitions()[static_cast<std::size_t>(
      rng.uniform_int(workload.partition_count()))];
  const int count = rng.uniform_range(1, 6);
  if (rng.bernoulli(0.6)) {
    const bool feasible = s.can_add(core, p.node, count);
    ASSERT_EQ(feasible, model.can_add(core, p.node, count));
    if (feasible) {
      s.add(core, p.node, count);
      model.add(core, p.node, count);
    }
  } else {
    ASSERT_EQ(s.remove(core, p.node, count), model.remove(core, p.node, count));
  }
}

TEST(FlatGeneStore, MatchesNaivePerCoreVectorsUnderRandomEdits) {
  const Graph graph = zoo::squeezenet(64);
  // 36 cores fit one bitset word; 150 span three, with a partial last word.
  for (const int cores : {36, 150}) {
    HardwareConfig hw = HardwareConfig::puma_default();
    hw.core_count = cores;
    const Workload workload(graph, hw);
    // 4096 exceeds the partition count, so the store clamps its stride.
    for (const int max_nodes : {1, 2, 8, 4096}) {
      SCOPED_TRACE("cores=" + std::to_string(cores) +
                   " max_nodes=" + std::to_string(max_nodes));
      Rng rng(static_cast<std::uint64_t>(cores * 10007 + max_nodes));
      MappingSolution s(workload, max_nodes);
      NaiveSolution model(workload, max_nodes);
      for (int step = 0; step < 3000; ++step) {
        random_step(rng, s, model);
        if (step % 50 == 0) expect_matches_model(s, model);
      }
      expect_matches_model(s, model);
    }
  }
}

TEST(FlatGeneStore, CopyAssignReusedAcrossShapesEqualsFreshCopy) {
  // The GA copy-assigns every child into a recycled solution. Recycling
  // across differently-shaped parents (core count, max_nodes, workload)
  // must leave no trace of the previous occupant.
  const Graph squeezenet = zoo::squeezenet(64);
  const Graph resnet = zoo::build("resnet18", 32);
  std::vector<std::unique_ptr<Workload>> workloads;
  for (const int cores : {96, 150}) {
    HardwareConfig hw = HardwareConfig::puma_default();
    hw.core_count = cores;
    workloads.push_back(std::make_unique<Workload>(squeezenet, hw));
    workloads.push_back(std::make_unique<Workload>(resnet, hw));
  }
  Rng rng(2024);
  std::vector<MappingSolution> parents;
  for (const auto& workload : workloads) {
    for (const int max_nodes : {2, 8, 4096}) {
      MappingSolution s(*workload, max_nodes);
      NaiveSolution model(*workload, max_nodes);
      for (int step = 0; step < 800; ++step) random_step(rng, s, model);
      parents.push_back(s);
    }
  }

  MappingSolution reused = parents.back();
  for (int round = 0; round < 60; ++round) {
    const MappingSolution& parent =
        parents[static_cast<std::size_t>(rng.pick_index(parents))];
    reused = parent;
    MappingSolution fresh(parent);
    expect_same(reused, fresh);
    // Identical edits keep them identical: no stale stride or bitset word
    // survives in the recycled buffers.
    for (int step = 0; step < 100; ++step) random_step(rng, reused, fresh);
    expect_same(reused, fresh);
  }
}

// ---------------------------------------------------------------------------
// first_fit against the cyclic can_add scan it replaces in the GA's
// feasibility search.
// ---------------------------------------------------------------------------

int naive_first_fit(const MappingSolution& s, int offset, NodeId node,
                    int ag_count, int exclude) {
  for (int i = 0; i < s.core_count(); ++i) {
    const int c = (offset + i) % s.core_count();
    if (c != exclude && s.can_add(c, node, ag_count)) return c;
  }
  return -1;
}

/// first_fit == the naive scan at every offset, with no exclusion, with
/// the offset itself excluded, and with another core excluded.
void expect_first_fit_matches(const MappingSolution& s, NodeId node,
                              int ag_count) {
  for (int offset = 0; offset < s.core_count(); ++offset) {
    const int other = (offset * 7 + 3) % s.core_count();
    for (const int exclude : {-1, offset, other}) {
      ASSERT_EQ(s.first_fit(offset, node, ag_count, exclude),
                naive_first_fit(s, offset, node, ag_count, exclude))
          << "offset " << offset << " exclude " << exclude << " node "
          << node << " ags " << ag_count;
    }
  }
}

TEST(FirstFit, MatchesCyclicCanAddScanOnRandomSolutions) {
  const Graph graph = zoo::squeezenet(64);
  for (const int cores : {36, 150}) {
    HardwareConfig hw = HardwareConfig::puma_default();
    hw.core_count = cores;
    const Workload workload(graph, hw);
    for (const int max_nodes : {1, 2, 8}) {
      SCOPED_TRACE("cores=" + std::to_string(cores) +
                   " max_nodes=" + std::to_string(max_nodes));
      Rng rng(static_cast<std::uint64_t>(cores * 31 + max_nodes));
      MappingSolution s(workload, max_nodes);
      NaiveSolution model(workload, max_nodes);
      for (int step = 0; step < 2000; ++step) {
        random_step(rng, s, model);
        if (step % 200 != 0) continue;
        for (int probe = 0; probe < 4; ++probe) {
          const NodePartition& p =
              workload.partitions()[static_cast<std::size_t>(
                  rng.uniform_int(workload.partition_count()))];
          expect_first_fit_matches(s, p.node, rng.uniform_range(1, 8));
        }
      }
    }
  }
}

TEST(FirstFit, MatchesCyclicCanAddScanAtEveryBound) {
  const Graph graph = zoo::squeezenet(64);
  HardwareConfig hw = HardwareConfig::puma_default();
  hw.core_count = 36;
  const Workload workload(graph, hw);
  const NodePartition* fill = nullptr;  // an AG size dividing the budget
  for (const NodePartition& p : workload.partitions()) {
    if (hw.xbars_per_core % p.xbars_per_ag == 0) fill = &p;
  }
  ASSERT_NE(fill, nullptr);
  const int per_core = hw.xbars_per_core / fill->xbars_per_ag;
  const NodeId a = workload.partitions()[0].node;
  const NodeId b = workload.partitions()[1].node;
  const NodeId c = workload.partitions()[2].node;

  MappingSolution s(workload, 2);
  s.add(5, fill->node, per_core);  // exactly at the crossbar budget
  ASSERT_EQ(s.free_xbars(5), 0);
  if (per_core > 1) {
    s.add(6, fill->node, per_core - 1);  // room for exactly one more AG
  }
  s.add(7, a, 1);  // both node slots taken
  s.add(7, b, 1);
  for (const NodePartition& p : workload.partitions()) {
    for (const int ags : {1, 2, per_core}) {
      expect_first_fit_matches(s, p.node, ags);
    }
  }
  EXPECT_NE(s.first_fit(5, fill->node, 1, -1), 5);
  EXPECT_EQ(s.first_fit(6, fill->node, 1, -1), 6);
  EXPECT_NE(s.first_fit(7, c, 1, -1), 7);
  EXPECT_EQ(s.first_fit(7, a, 1, -1), 7);
  EXPECT_EQ(s.first_fit(7, a, 1, 7), 8);

  // Every core full: no fit from any offset.
  MappingSolution full(workload, 8);
  for (int core = 0; core < full.core_count(); ++core) {
    full.add(core, fill->node, per_core);
  }
  expect_first_fit_matches(full, fill->node, 1);
  EXPECT_EQ(full.first_fit(0, fill->node, 1, -1), -1);
}

TEST(FirstFit, MatchesCyclicCanAddScanAtTheGeneEncodingBound) {
  // Crossbars to spare, so only the gene's integer encoding bound stops a
  // core from taking more AGs of a node it already hosts.
  const Graph graph = zoo::squeezenet(64);
  HardwareConfig hw = HardwareConfig::puma_default();
  hw.core_count = 36;
  const Workload small(graph, hw);
  const NodePartition* thin = &small.partitions()[0];
  for (const NodePartition& p : small.partitions()) {
    if (p.xbars_per_ag < thin->xbars_per_ag) thin = &p;
  }
  hw.xbars_per_core = 2 * kMaxAgCountPerGene * thin->xbars_per_ag;
  const Workload workload(graph, hw);
  const NodeId node = thin->node;
  const NodeId other = node == workload.partitions()[0].node
                           ? workload.partitions()[1].node
                           : workload.partitions()[0].node;

  MappingSolution s(workload, 8);
  s.add(3, node, kMaxAgCountPerGene);      // at the bound
  s.add(4, node, kMaxAgCountPerGene - 1);  // one below it
  for (const int ags : {1, 2}) {
    expect_first_fit_matches(s, node, ags);
    expect_first_fit_matches(s, other, ags);
  }
  EXPECT_EQ(s.first_fit(3, node, 1, -1), 4);
  EXPECT_EQ(s.first_fit(4, node, 1, -1), 4);
  EXPECT_EQ(s.first_fit(4, node, 2, -1), 5);
  EXPECT_EQ(s.first_fit(3, other, 1, -1), 3);
}

}  // namespace
}  // namespace pimcomp
