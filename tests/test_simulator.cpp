#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace pimcomp {
namespace {

HardwareConfig test_hw(int cores = 2) {
  HardwareConfig hw = HardwareConfig::puma_default();
  hw.core_count = cores;
  return hw;
}

Operation mvm(int ag, int xbars = 1) {
  Operation op;
  op.kind = OpKind::kMvm;
  op.ag = ag;
  op.xbars = xbars;
  return op;
}

Operation vfu(std::int64_t elements, int wait_ag = -1) {
  Operation op;
  op.kind = OpKind::kVfu;
  op.elements = elements;
  op.ag = wait_ag;
  return op;
}

Operation send(int peer, std::int64_t bytes, int wait_ag = -1, int tag = 0) {
  Operation op;
  op.kind = OpKind::kCommSend;
  op.peer = peer;
  op.bytes = bytes;
  op.ag = wait_ag;
  op.tag = tag;
  return op;
}

Operation recv(int peer, std::int64_t bytes, int tag = 0) {
  Operation op;
  op.kind = OpKind::kCommRecv;
  op.peer = peer;
  op.bytes = bytes;
  op.tag = tag;
  return op;
}

Operation load(std::int64_t bytes) {
  Operation op;
  op.kind = OpKind::kLoadGlobal;
  op.bytes = bytes;
  return op;
}

/// Runs `s` and returns the SimulationError text ("" when it completes).
std::string simulation_error(const HardwareConfig& hw, const Schedule& s) {
  try {
    Simulator(hw, SimOptions{}).run(s);
  } catch (const SimulationError& e) {
    return e.what();
  }
  return "";
}

Schedule make_schedule(std::vector<std::vector<Operation>> programs,
                       int ag_count) {
  Schedule s;
  s.programs = std::move(programs);
  s.ag_count = ag_count;
  for (const auto& p : s.programs) {
    s.total_ops += static_cast<std::int64_t>(p.size());
  }
  return s;
}

TEST(Simulator, SingleMvmTakesMvmLatency) {
  const HardwareConfig hw = test_hw(1);
  const Schedule s = make_schedule({{mvm(0)}}, 1);
  SimOptions opt;
  opt.parallelism_degree = 20;
  const SimReport r = Simulator(hw, opt).run(s);
  EXPECT_EQ(r.makespan, hw.mvm_latency);
  EXPECT_EQ(r.mvm_ops, 1);
}

TEST(Simulator, StructuralConflictSerializesSameAg) {
  // Two MVMs on the SAME AG must be T_MVM apart (structural conflict,
  // paper §III-B).
  const HardwareConfig hw = test_hw(1);
  const Schedule s = make_schedule({{mvm(0), mvm(0)}}, 1);
  SimOptions opt;
  opt.parallelism_degree = 100;
  const SimReport r = Simulator(hw, opt).run(s);
  EXPECT_EQ(r.makespan, 2 * hw.mvm_latency);
}

TEST(Simulator, IssueIntervalPipelinesDistinctAgs) {
  // n MVMs on distinct AGs finish in (n-1)*T_interval + T_MVM.
  const HardwareConfig hw = test_hw(1);
  const int n = 10;
  std::vector<Operation> prog;
  for (int i = 0; i < n; ++i) prog.push_back(mvm(i));
  const Schedule s = make_schedule({prog}, n);
  SimOptions opt;
  opt.parallelism_degree = 20;
  const SimReport r = Simulator(hw, opt).run(s);
  const Picoseconds t_int = hw.mvm_issue_interval(20);
  EXPECT_EQ(r.makespan, (n - 1) * t_int + hw.mvm_latency);
}

TEST(Simulator, ParallelismDegreeOneSerializesIssue) {
  const HardwareConfig hw = test_hw(1);
  std::vector<Operation> prog;
  for (int i = 0; i < 4; ++i) prog.push_back(mvm(i));
  const Schedule s = make_schedule({prog}, 4);
  SimOptions opt;
  opt.parallelism_degree = 1;
  const SimReport r = Simulator(hw, opt).run(s);
  EXPECT_EQ(r.makespan, 4 * hw.mvm_latency);
}

TEST(Simulator, VfuWaitsForMvmCompletion) {
  const HardwareConfig hw = test_hw(1);
  // VFU op consumes AG 0's result: cannot start before T_MVM.
  const Schedule s = make_schedule({{mvm(0), vfu(1200, 0)}}, 1);
  SimOptions opt;
  opt.parallelism_degree = 20;
  const SimReport r = Simulator(hw, opt).run(s);
  // 1200 elements at 1.2 elem/ns = 1000 ns after the MVM completes.
  EXPECT_EQ(r.makespan, hw.mvm_latency + from_ns(1000.0));
  EXPECT_EQ(r.vfu_ops, 1);
}

TEST(Simulator, RendezvousTransfersData) {
  const HardwareConfig hw = test_hw(2);
  const Schedule s = make_schedule(
      {{mvm(0), send(1, 1024, 0)}, {recv(0, 1024), vfu(100)}}, 1);
  SimOptions opt;
  opt.parallelism_degree = 20;
  const SimReport r = Simulator(hw, opt).run(s);
  EXPECT_EQ(r.comm_messages, 1);
  EXPECT_EQ(r.comm_bytes, 1024);
  // The receiver cannot finish before the sender's data arrives.
  EXPECT_GT(r.core_finish[1], hw.mvm_latency);
}

TEST(Simulator, ByteMismatchDetected) {
  const HardwareConfig hw = test_hw(2);
  const Schedule s =
      make_schedule({{send(1, 100)}, {recv(0, 200)}}, 0);
  SimOptions opt;
  EXPECT_THROW(Simulator(hw, opt).run(s), SimulationError);
}

TEST(Simulator, DeadlockDetected) {
  // Both cores wait for a message that is never sent.
  const HardwareConfig hw = test_hw(2);
  const Schedule s =
      make_schedule({{recv(1, 64)}, {recv(0, 64)}}, 0);
  SimOptions opt;
  EXPECT_THROW(Simulator(hw, opt).run(s), SimulationError);
}

TEST(Simulator, MessagesOnOneChannelArriveInSendOrder) {
  // Two messages of different sizes on one (src, dst, tag): received in
  // send order they pair up; received in reverse order the first RECV
  // meets the 64-byte message.
  const HardwareConfig hw = test_hw(2);
  const Schedule in_order = make_schedule(
      {{send(1, 64), send(1, 128)}, {recv(0, 64), recv(0, 128)}}, 0);
  const SimReport r = Simulator(hw, SimOptions{}).run(in_order);
  EXPECT_EQ(r.comm_messages, 2);
  EXPECT_EQ(r.comm_bytes, 192);

  const Schedule reversed = make_schedule(
      {{send(1, 64), send(1, 128)}, {recv(0, 128), recv(0, 64)}}, 0);
  EXPECT_NE(simulation_error(hw, reversed).find(
                "channel byte mismatch on 0->1: sent 64, receiver expected "
                "128"),
            std::string::npos);
}

TEST(Simulator, DeadlockNamesTheBlockedCoreAndCountsOrphanMessages) {
  // Core 0's tag-0 message is never received: core 1 waits on tag 1.
  const HardwareConfig hw = test_hw(2);
  const Schedule s =
      make_schedule({{send(1, 64, -1, 0)}, {recv(0, 64, 1)}}, 0);
  const std::string error = simulation_error(hw, s);
  EXPECT_NE(error.find("deadlock: core 1 blocked at op 0/1 (RECV from core 0"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("; 1 messages in flight"), std::string::npos) << error;
}

TEST(Simulator, TagsKeepChannelsSeparate) {
  const HardwareConfig hw = test_hw(2);
  // Core 0 sends tag1 then tag0; core 1 receives tag0 then tag1.
  const Schedule s = make_schedule(
      {{send(1, 100, -1, 1), send(1, 200, -1, 0)},
       {recv(0, 200, 0), recv(0, 100, 1)}},
      0);
  SimOptions opt;
  EXPECT_NO_THROW(Simulator(hw, opt).run(s));
}

TEST(Simulator, GlobalMemorySerializesAcrossCores) {
  HardwareConfig hw = test_hw(2);
  hw.global_memory_gbps = 1.0;  // 1 GB/s -> 1 ns per byte
  Operation load;
  load.kind = OpKind::kLoadGlobal;
  load.bytes = 1000;
  const Schedule s = make_schedule({{load}, {load}}, 0);
  SimOptions opt;
  const SimReport r = Simulator(hw, opt).run(s);
  // Two 1000-byte transfers over a shared 1 GB/s port: 2 us total.
  EXPECT_EQ(r.makespan, from_ns(2000.0));
  EXPECT_EQ(r.global_traffic_bytes, 2000);
}

TEST(Simulator, EarlierReadyCoreTakesTheGlobalPortFirst) {
  // Core 0 loads at 0 and is ready again at 1 us; core 1 is ready to load
  // at 0.5 us, so the port serves core 1's load before core 0's second.
  HardwareConfig hw = test_hw(2);
  hw.global_memory_gbps = 1.0;  // 1 ns per byte
  const Schedule s = make_schedule(
      {{load(1000), load(1000)}, {vfu(600), load(1000)}}, 0);
  const SimReport r = Simulator(hw, SimOptions{}).run(s);
  EXPECT_EQ(r.core_finish[1], from_ns(2000.0));
  EXPECT_EQ(r.core_finish[0], from_ns(3000.0));
}

TEST(Simulator, EqualReadyTimesGoToTheLowerCore) {
  // Both cores are ready to load at 1 us; core 1 got there by two steps
  // of its own, yet core 0 takes the port first.
  HardwareConfig hw = test_hw(2);
  hw.global_memory_gbps = 1.0;
  const Schedule s = make_schedule(
      {{vfu(1200), load(1000)}, {vfu(600), vfu(600), load(1000)}}, 0);
  const SimReport r = Simulator(hw, SimOptions{}).run(s);
  EXPECT_EQ(r.core_finish[0], from_ns(2000.0));
  EXPECT_EQ(r.core_finish[1], from_ns(3000.0));
}

TEST(Simulator, EnergyAccountingPositiveAndDecomposed) {
  const HardwareConfig hw = test_hw(2);
  Operation store;
  store.kind = OpKind::kStoreGlobal;
  store.bytes = 4096;
  const Schedule s = make_schedule(
      {{mvm(0, 8), vfu(1000, 0), send(1, 512, 0)}, {recv(0, 512), store}}, 1);
  SimOptions opt;
  const SimReport r = Simulator(hw, opt).run(s);
  EXPECT_GT(r.dynamic_energy.mvm, 0.0);
  EXPECT_GT(r.dynamic_energy.vfu, 0.0);
  EXPECT_GT(r.dynamic_energy.local_memory, 0.0);
  EXPECT_GT(r.dynamic_energy.global_memory, 0.0);
  EXPECT_GT(r.dynamic_energy.noc, 0.0);
  EXPECT_GT(r.leakage_energy, 0.0);
  EXPECT_NEAR(r.dynamic_energy.total(),
              r.dynamic_energy.mvm + r.dynamic_energy.vfu +
                  r.dynamic_energy.local_memory +
                  r.dynamic_energy.global_memory + r.dynamic_energy.noc,
              1e-9);
}

TEST(Simulator, MvmEnergyScalesWithCrossbars) {
  const HardwareConfig hw = test_hw(1);
  SimOptions opt;
  const SimReport one =
      Simulator(hw, opt).run(make_schedule({{mvm(0, 1)}}, 1));
  const SimReport eight =
      Simulator(hw, opt).run(make_schedule({{mvm(0, 8)}}, 1));
  EXPECT_NEAR(eight.dynamic_energy.mvm, 8 * one.dynamic_energy.mvm, 1e-9);
}

TEST(Simulator, LeakageModeDiffers) {
  // An asymmetric two-core schedule: core 1 finishes much later. In LL mode
  // every active core leaks until the overall makespan, so leakage is higher.
  const HardwareConfig hw = test_hw(2);
  std::vector<Operation> short_prog{mvm(0)};
  std::vector<Operation> long_prog;
  for (int i = 0; i < 50; ++i) long_prog.push_back(mvm(1));
  const Schedule s = make_schedule({short_prog, long_prog}, 2);
  SimOptions ht;
  ht.mode = PipelineMode::kHighThroughput;
  SimOptions ll;
  ll.mode = PipelineMode::kLowLatency;
  const SimReport r_ht = Simulator(hw, ht).run(s);
  const SimReport r_ll = Simulator(hw, ll).run(s);
  EXPECT_EQ(r_ht.makespan, r_ll.makespan);
  EXPECT_GT(r_ll.leakage_energy, r_ht.leakage_energy);
}

TEST(Simulator, LocalUsageIntegration) {
  const HardwareConfig hw = test_hw(1);
  Operation a = vfu(1200);  // 1 us
  a.local_usage = 1024;
  Operation b = vfu(1200);  // 1 us
  b.local_usage = 3072;
  Operation c = vfu(1200);
  c.local_usage = 0;
  const Schedule s = make_schedule({{a, b, c}}, 0);
  SimOptions opt;
  const SimReport r = Simulator(hw, opt).run(s);
  // Usage is 1024 for [1us,2us), 3072 for [2us,3us): average over the
  // window where it was recorded.
  EXPECT_GT(r.avg_local_memory_bytes, 0.0);
  EXPECT_EQ(r.peak_local_memory_bytes, 3072);
}

TEST(Simulator, RejectsBadConfigs) {
  const HardwareConfig hw = test_hw(1);
  SimOptions opt;
  opt.parallelism_degree = 0;
  EXPECT_THROW(Simulator(hw, opt), ConfigError);
  const Schedule empty = make_schedule({}, 0);
  SimOptions ok;
  EXPECT_THROW(Simulator(hw, ok).run(empty), ConfigError);
  // More cores in the schedule than the hardware has.
  const Schedule wide = make_schedule({{}, {}, {}}, 0);
  EXPECT_THROW(Simulator(test_hw(2), ok).run(wide), ConfigError);
}

TEST(Simulator, BusyNeverExceedsFinish) {
  const HardwareConfig hw = test_hw(2);
  const Schedule s = make_schedule(
      {{mvm(0), vfu(100, 0), send(1, 64, 0)}, {recv(0, 64), vfu(2400)}}, 1);
  SimOptions opt;
  const SimReport r = Simulator(hw, opt).run(s);
  for (std::size_t c = 0; c < r.core_finish.size(); ++c) {
    EXPECT_LE(r.core_busy[c], r.core_finish[c]);
  }
}

}  // namespace
}  // namespace pimcomp
