#include <gtest/gtest.h>

#include <map>

#include "graph/zoo/zoo.hpp"
#include "mapping/genetic_mapper.hpp"
#include "mapping/puma_mapper.hpp"
#include "schedule/ht_scheduler.hpp"
#include "schedule/ll_scheduler.hpp"

namespace pimcomp {
namespace {

/// Verifies the per-channel FIFO pairing invariant the simulator relies on:
/// on every (src, dst, tag) channel, the k-th send's byte count equals the
/// k-th recv's, and no channel has more recvs than sends.
void expect_channels_consistent(const Schedule& schedule) {
  std::map<std::tuple<int, int, int>, std::vector<std::int64_t>> sends, recvs;
  for (int c = 0; c < schedule.core_count(); ++c) {
    for (const Operation& op :
         schedule.programs[static_cast<std::size_t>(c)]) {
      if (op.kind == OpKind::kCommSend) {
        sends[{c, op.peer, op.tag}].push_back(op.bytes);
      } else if (op.kind == OpKind::kCommRecv) {
        recvs[{op.peer, c, op.tag}].push_back(op.bytes);
      }
    }
  }
  for (const auto& [key, recv_list] : recvs) {
    const auto it = sends.find(key);
    ASSERT_NE(it, sends.end()) << "recvs without sends";
    ASSERT_GE(it->second.size(), recv_list.size()) << "more recvs than sends";
    for (std::size_t i = 0; i < recv_list.size(); ++i) {
      ASSERT_EQ(it->second[i], recv_list[i])
          << "byte mismatch at message " << i;
    }
  }
}

std::int64_t expected_mvms(const MappingSolution& solution) {
  // Every AG performs one MVM per window of its replica's range.
  std::int64_t total = 0;
  const Workload& w = solution.workload();
  for (const NodePartition& p : w.partitions()) {
    const int replication = solution.replication(p.node);
    const int cyc = solution.cycles(p.node);
    for (int r = 0; r < replication; ++r) {
      const int begin = std::min(p.windows, r * cyc);
      const int end = std::min(p.windows, (r + 1) * cyc);
      total += static_cast<std::int64_t>(end - begin) * p.ags_per_replica();
    }
  }
  return total;
}

class SchedulerFixture : public ::testing::Test {
 protected:
  SchedulerFixture() : graph_(zoo::squeezenet(64)) {
    hw_ = HardwareConfig::puma_default();
    hw_.core_count = 36;
    workload_ = std::make_unique<Workload>(graph_, hw_);
    GaConfig ga;
    ga.population = 10;
    ga.generations = 8;
    GeneticMapper mapper(ga);
    MapperOptions options;
    solution_ =
        std::make_unique<MappingSolution>(mapper.map(*workload_, options));
  }

  Graph graph_;
  HardwareConfig hw_;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<MappingSolution> solution_;
};

TEST_F(SchedulerFixture, HtChannelsConsistent) {
  const Schedule s = schedule_ht(*solution_, {});
  expect_channels_consistent(s);
  EXPECT_EQ(s.core_count(), 36);
  EXPECT_GT(s.total_ops, 0);
}

TEST_F(SchedulerFixture, HtEmitsEveryMvm) {
  const Schedule s = schedule_ht(*solution_, {});
  EXPECT_EQ(s.count(OpKind::kMvm), expected_mvms(*solution_));
}

TEST_F(SchedulerFixture, HtStagesThroughGlobalMemory) {
  const Schedule s = schedule_ht(*solution_, {});
  EXPECT_GT(s.count(OpKind::kLoadGlobal), 0);
  EXPECT_GT(s.count(OpKind::kStoreGlobal), 0);
  // Stores carry every output activation of every replica's windows:
  // sum over partitions of windows * matrix_cols * act_bytes.
  std::int64_t expected_store = 0;
  for (const NodePartition& p : workload_->partitions()) {
    expected_store +=
        static_cast<std::int64_t>(p.windows) * p.matrix_cols * 2;
  }
  // Standalone VEC nodes also store their outputs; stores must cover at
  // least the crossbar outputs.
  EXPECT_GE(s.total_bytes(OpKind::kStoreGlobal), expected_store);
}

TEST_F(SchedulerFixture, HtFlushWindowsControlsBatches) {
  HtScheduleOptions opt1;
  opt1.flush_windows = 1;
  HtScheduleOptions opt8;
  opt8.flush_windows = 8;
  const Schedule s1 = schedule_ht(*solution_, opt1);
  const Schedule s8 = schedule_ht(*solution_, opt8);
  // Same MVM work, but smaller batches mean more load/store operations.
  EXPECT_EQ(s1.count(OpKind::kMvm), s8.count(OpKind::kMvm));
  EXPECT_GT(s1.count(OpKind::kLoadGlobal), s8.count(OpKind::kLoadGlobal));
}

TEST_F(SchedulerFixture, HtMemoryPoliciesOrderPeakUsage) {
  HtScheduleOptions naive;
  naive.memory_policy = MemoryPolicy::kNaive;
  HtScheduleOptions ag;
  ag.memory_policy = MemoryPolicy::kAgReuse;
  const Schedule s_naive = schedule_ht(*solution_, naive);
  const Schedule s_ag = schedule_ht(*solution_, ag);
  std::int64_t peak_naive = 0, peak_ag = 0, spill_naive = 0, spill_ag = 0;
  for (std::int64_t v : s_naive.peak_local_bytes) {
    peak_naive = std::max(peak_naive, v);
  }
  for (std::int64_t v : s_ag.peak_local_bytes) peak_ag = std::max(peak_ag, v);
  for (std::int64_t v : s_naive.spill_bytes) spill_naive += v;
  for (std::int64_t v : s_ag.spill_bytes) spill_ag += v;
  EXPECT_GE(peak_naive, peak_ag);
  EXPECT_GE(spill_naive, spill_ag);  // reuse reduces global overflow traffic
}

TEST_F(SchedulerFixture, HtUsageStampsBounded) {
  const Schedule s = schedule_ht(*solution_, {});
  for (const auto& program : s.programs) {
    for (const Operation& op : program) {
      if (op.local_usage >= 0) {
        EXPECT_LE(op.local_usage, hw_.local_memory_bytes);
      }
    }
  }
}

TEST_F(SchedulerFixture, LlChannelsConsistent) {
  const Schedule s = schedule_ll(*solution_, {});
  expect_channels_consistent(s);
  EXPECT_GT(s.count(OpKind::kCommSend), 0);
}

TEST_F(SchedulerFixture, LlEmitsEveryMvm) {
  const Schedule s = schedule_ll(*solution_, {});
  EXPECT_EQ(s.count(OpKind::kMvm), expected_mvms(*solution_));
}

TEST_F(SchedulerFixture, LlPolicyInvariantMvmCount) {
  LlScheduleOptions naive;
  naive.memory_policy = MemoryPolicy::kNaive;
  LlScheduleOptions ag;
  ag.memory_policy = MemoryPolicy::kAgReuse;
  EXPECT_EQ(schedule_ll(*solution_, naive).count(OpKind::kMvm),
            schedule_ll(*solution_, ag).count(OpKind::kMvm));
}

TEST_F(SchedulerFixture, LlMemoryPoliciesOrderPeakUsage) {
  std::map<MemoryPolicy, std::int64_t> peak;
  for (MemoryPolicy policy : {MemoryPolicy::kNaive, MemoryPolicy::kAddReuse,
                              MemoryPolicy::kAgReuse}) {
    LlScheduleOptions opt;
    opt.memory_policy = policy;
    const Schedule s = schedule_ll(*solution_, opt);
    std::int64_t p = 0;
    for (std::int64_t v : s.peak_local_bytes) p = std::max(p, v);
    peak[policy] = p;
  }
  EXPECT_GE(peak[MemoryPolicy::kNaive], peak[MemoryPolicy::kAddReuse]);
  EXPECT_GE(peak[MemoryPolicy::kAddReuse], peak[MemoryPolicy::kAgReuse]);
  EXPECT_GT(peak[MemoryPolicy::kNaive], peak[MemoryPolicy::kAgReuse]);
}

TEST_F(SchedulerFixture, LlLoadsInputAndStoresResult) {
  const Schedule s = schedule_ll(*solution_, {});
  EXPECT_GT(s.count(OpKind::kLoadGlobal), 0);
  EXPECT_GT(s.count(OpKind::kStoreGlobal), 0);
}

TEST(SchedulerTopology, ResnetResidualsScheduleInBothModes) {
  Graph g = zoo::resnet18(64);
  HardwareConfig hw = HardwareConfig::puma_default();
  hw.core_count = 288;
  const Workload w(g, hw);
  PumaMapper mapper;
  MapperOptions options;
  const MappingSolution s = mapper.map(w, options);
  const Schedule ht = schedule_ht(s, {});
  const Schedule ll = schedule_ll(s, {});
  expect_channels_consistent(ht);
  expect_channels_consistent(ll);
  EXPECT_EQ(ht.count(OpKind::kMvm), ll.count(OpKind::kMvm));
}

TEST(SchedulerTopology, GooglenetConcatsScheduleInBothModes) {
  Graph g = zoo::googlenet(64);
  HardwareConfig hw = HardwareConfig::puma_default();
  hw.core_count = 180;
  const Workload w(g, hw);
  PumaMapper mapper;
  MapperOptions options;
  const MappingSolution s = mapper.map(w, options);
  expect_channels_consistent(schedule_ht(s, {}));
  expect_channels_consistent(schedule_ll(s, {}));
}

}  // namespace
}  // namespace pimcomp
