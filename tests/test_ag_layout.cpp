#include "schedule/ag_layout.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "graph/zoo/zoo.hpp"
#include "mapping/puma_mapper.hpp"
#include "schedule/operation.hpp"

namespace pimcomp {
namespace {

class LayoutFixture : public ::testing::Test {
 protected:
  LayoutFixture() : graph_(zoo::squeezenet(64)) {
    hw_ = HardwareConfig::puma_default();
    hw_.core_count = 36;
    workload_ = std::make_unique<Workload>(graph_, hw_);
    PumaMapper mapper;
    MapperOptions options;
    solution_ =
        std::make_unique<MappingSolution>(mapper.map(*workload_, options));
    layout_ = AgLayout::build(*solution_);
  }

  Graph graph_;
  HardwareConfig hw_;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<MappingSolution> solution_;
  AgLayout layout_;
};

TEST_F(LayoutFixture, InstanceCountMatchesSolution) {
  std::int64_t expected = 0;
  for (const NodePartition& p : workload_->partitions()) {
    expected += solution_->total_ags(p.node);
  }
  EXPECT_EQ(static_cast<std::int64_t>(layout_.instances.size()), expected);
}

TEST_F(LayoutFixture, GroupsHaveAllRowSlices) {
  for (const AccumGroup& g : layout_.groups) {
    const NodePartition& p =
        workload_->partitions()[static_cast<std::size_t>(g.partition)];
    ASSERT_EQ(static_cast<int>(g.members.size()), p.row_slices);
    // Members are sorted by row slice and cover 0..row_slices-1.
    for (int i = 0; i < p.row_slices; ++i) {
      EXPECT_EQ(layout_.instances[static_cast<std::size_t>(g.members[
                    static_cast<std::size_t>(i)])].row_slice,
                i);
    }
  }
}

TEST_F(LayoutFixture, OwnerIsFirstRowSliceCore) {
  for (const AccumGroup& g : layout_.groups) {
    const AgInstance& first =
        layout_.instances[static_cast<std::size_t>(g.members.front())];
    EXPECT_EQ(g.owner_core, first.core);
    EXPECT_EQ(first.row_slice, 0);
  }
}

TEST_F(LayoutFixture, WindowRangesPartitionTheWindows) {
  // Per (node, chunk): the replica window ranges tile [0, windows) without
  // overlap.
  for (const NodePartition& p : workload_->partitions()) {
    const int chunks = p.col_chunks;
    for (int cc = 0; cc < chunks; ++cc) {
      std::vector<std::pair<int, int>> ranges;
      for (int gid :
           layout_.partition_groups[static_cast<std::size_t>(
               workload_->partition_index(p.node))]) {
        const AccumGroup& g = layout_.groups[static_cast<std::size_t>(gid)];
        if (g.chunk != cc) continue;
        if (!g.empty()) ranges.push_back({g.window_begin, g.window_end});
      }
      std::sort(ranges.begin(), ranges.end());
      int covered = 0;
      for (const auto& [begin, end] : ranges) {
        EXPECT_EQ(begin, covered) << "gap or overlap for node " << p.node;
        covered = end;
      }
      EXPECT_EQ(covered, p.windows);
    }
  }
}

TEST_F(LayoutFixture, HostCoresAreSortedAndExact) {
  for (const NodePartition& p : workload_->partitions()) {
    const auto& hosts = layout_.partition_host_cores[static_cast<std::size_t>(
        workload_->partition_index(p.node))];
    EXPECT_TRUE(std::is_sorted(hosts.begin(), hosts.end()));
    std::set<int> expected;
    for (const AgInstance& ag : layout_.instances) {
      if (ag.node == p.node) expected.insert(ag.core);
    }
    EXPECT_EQ(std::set<int>(hosts.begin(), hosts.end()), expected);
  }
}

TEST_F(LayoutFixture, SliceRowsCoverMatrix) {
  for (const NodePartition& p : workload_->partitions()) {
    // Sum of slice rows over one replica's row slices equals matrix_rows.
    const auto& gids = layout_.partition_groups[static_cast<std::size_t>(
        workload_->partition_index(p.node))];
    ASSERT_FALSE(gids.empty());
    const AccumGroup& g = layout_.groups[static_cast<std::size_t>(gids[0])];
    int total_rows = 0;
    for (int member : g.members) {
      total_rows += AgLayout::slice_rows(
          p, layout_.instances[static_cast<std::size_t>(member)], hw_);
    }
    EXPECT_EQ(total_rows, p.matrix_rows);
  }
}

// The rosters both schedulers read, checked against instantiate() over the
// zoo x {ht, ll} x {puma, greedy, ga} mappings the schedule goldens pin:
//  1. each group's members are its partition's instantiate() run, indexed
//     replica * ags_per_replica + row_slice * col_chunks + chunk, so in
//     row-slice order, and the runs tile the instances in partition order;
//  2. each group's roster is its distinct member cores, ascending, member
//     cores never decrease in row-slice order, and member_pos / members_on
//     agree with it;
//  3. each core's group list is exactly the non-empty groups with a member
//     there, ascending.
TEST(LayoutProperties, RostersMatchInstantiateAcrossTheZoo) {
  for (const char* name :
       {"vgg16", "resnet18", "googlenet", "inception-v3", "squeezenet"}) {
    const std::string model = name;
    Graph graph = zoo::build(model, model == "inception-v3" ? 96 : 32);
    const HardwareConfig hw =
        fit_core_count(graph, HardwareConfig::puma_default(), 3.0);
    const Compiler compiler(std::move(graph), hw);
    for (const char* mode : {"ht", "ll"}) {
      for (const char* mapper : {"puma", "greedy", "ga"}) {
        SCOPED_TRACE(model + " " + mode + " " + mapper);
        CompileOptions options;
        options.mode = std::string(mode) == "ht"
                           ? PipelineMode::kHighThroughput
                           : PipelineMode::kLowLatency;
        options.mapper = mapper;
        options.parallelism_degree = 20;
        options.ga.population = 8;
        options.ga.generations = 4;
        options.seed = 1;
        const CompileResult result = compiler.compile(options);
        const MappingSolution& solution = result.solution;
        const Workload& workload = solution.workload();
        const AgLayout layout = AgLayout::build(solution);
        const std::vector<AgInstance> instances = solution.instantiate();
        ASSERT_EQ(layout.instances.size(), instances.size());

        // 1. Members are instantiate()'s run, in row-slice order.
        std::size_t base = 0;
        for (int pidx = 0; pidx < workload.partition_count(); ++pidx) {
          const NodePartition& p =
              workload.partitions()[static_cast<std::size_t>(pidx)];
          std::size_t run = 0;
          for (int gid :
               layout.partition_groups[static_cast<std::size_t>(pidx)]) {
            const AccumGroup& g =
                layout.groups[static_cast<std::size_t>(gid)];
            ASSERT_EQ(g.partition, pidx);
            ASSERT_EQ(static_cast<int>(g.members.size()), p.row_slices);
            for (int row = 0; row < p.row_slices; ++row) {
              const int member = g.members[static_cast<std::size_t>(row)];
              ASSERT_EQ(static_cast<std::size_t>(member),
                        base + static_cast<std::size_t>(
                                   g.replica * p.ags_per_replica() +
                                   row * p.col_chunks + g.chunk));
              const AgInstance& ag =
                  instances[static_cast<std::size_t>(member)];
              EXPECT_EQ(ag.node, g.node);
              EXPECT_EQ(ag.replica, g.replica);
              EXPECT_EQ(ag.row_slice, row);
              EXPECT_EQ(ag.col_chunk, g.chunk);
              EXPECT_EQ(ag.core, layout.instances[static_cast<std::size_t>(
                                                      member)]
                                     .core);
            }
            run += g.members.size();
          }
          base += run;
        }
        EXPECT_EQ(base, instances.size());

        // 2. The roster is the distinct member cores, ascending.
        std::vector<std::vector<int>> expected_core_groups(
            static_cast<std::size_t>(solution.core_count()));
        for (std::size_t gid = 0; gid < layout.groups.size(); ++gid) {
          const AccumGroup& g = layout.groups[gid];
          std::vector<int> member_cores;
          for (int member : g.members) {
            member_cores.push_back(
                instances[static_cast<std::size_t>(member)].core);
          }
          EXPECT_TRUE(std::is_sorted(member_cores.begin(), member_cores.end()))
              << "member cores decrease in group " << gid;
          std::vector<int> distinct = member_cores;
          std::sort(distinct.begin(), distinct.end());
          distinct.erase(std::unique(distinct.begin(), distinct.end()),
                         distinct.end());
          EXPECT_EQ(g.cores, distinct);
          EXPECT_EQ(g.owner_core, g.cores.front());
          ASSERT_EQ(g.member_pos.size(), g.members.size());
          for (std::size_t m = 0; m < g.members.size(); ++m) {
            EXPECT_EQ(g.cores[static_cast<std::size_t>(g.member_pos[m])],
                      member_cores[m]);
          }
          for (int core : g.cores) {
            std::vector<int> expected;
            for (std::size_t m = 0; m < g.members.size(); ++m) {
              if (member_cores[m] == core) expected.push_back(g.members[m]);
            }
            const std::span<const int> on = g.members_on(core);
            EXPECT_EQ(std::vector<int>(on.begin(), on.end()), expected);
            if (!g.empty()) {
              expected_core_groups[static_cast<std::size_t>(core)].push_back(
                  static_cast<int>(gid));
            }
          }
        }

        // 3. Per-core group lists match the groups.
        EXPECT_EQ(layout.core_groups, expected_core_groups);
      }
    }
  }
}

TEST(OperationStats, CountAndBytesHelpers) {
  Schedule s;
  s.programs.resize(2);
  Operation send;
  send.kind = OpKind::kCommSend;
  send.bytes = 100;
  Operation load;
  load.kind = OpKind::kLoadGlobal;
  load.bytes = 300;
  s.programs[0] = {send, load};
  s.programs[1] = {send};
  EXPECT_EQ(s.count(OpKind::kCommSend), 2);
  EXPECT_EQ(s.count(OpKind::kMvm), 0);
  EXPECT_EQ(s.total_bytes(OpKind::kCommSend), 200);
  EXPECT_EQ(s.total_bytes(OpKind::kLoadGlobal), 300);
  EXPECT_EQ(s.core_count(), 2);
}

TEST(OperationStats, KindNames) {
  EXPECT_EQ(to_string(OpKind::kMvm), "MVM");
  EXPECT_EQ(to_string(OpKind::kVfu), "VFU");
  EXPECT_EQ(to_string(OpKind::kCommSend), "SEND");
  EXPECT_EQ(to_string(OpKind::kCommRecv), "RECV");
  EXPECT_EQ(to_string(OpKind::kLoadGlobal), "LOAD");
  EXPECT_EQ(to_string(OpKind::kStoreGlobal), "STORE");
}

}  // namespace
}  // namespace pimcomp
