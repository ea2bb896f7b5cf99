#include "sim/simulator.hpp"

#include <algorithm>
#include <queue>
#include <sstream>
#include <vector>

#include "arch/energy_model.hpp"
#include "arch/noc.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/statistics.hpp"
#include "sim/channel.hpp"

namespace pimcomp {

namespace {

/// Transfer duration of `bytes` at `gbps` (GB/s) in picoseconds.
Picoseconds bandwidth_time(std::int64_t bytes, double gbps) {
  if (bytes <= 0) return 0;
  return static_cast<Picoseconds>(static_cast<double>(bytes) * 1000.0 / gbps);
}

struct CoreState {
  std::size_t pc = 0;
  Picoseconds clock = 0;        ///< completion of the last in-order op
  Picoseconds issue_clock = 0;  ///< next MVM issue slot
  Picoseconds last_event = 0;   ///< latest completion incl. MVM drains
  Picoseconds busy = 0;
  TimeWeightedAverage usage;
  Picoseconds last_usage_time = 0;
};

}  // namespace

Simulator::Simulator(const HardwareConfig& hw, const SimOptions& options)
    : hw_(hw), options_(options) {
  hw_.validate();
  PIMCOMP_CHECK(options.parallelism_degree >= 1,
                "parallelism degree must be >= 1");
}

SimReport Simulator::run(const Schedule& schedule) const {
  const int cores = schedule.core_count();
  PIMCOMP_CHECK(cores > 0, "schedule has no cores");
  PIMCOMP_CHECK(cores <= hw_.core_count,
                "schedule uses more cores than the hardware has");

  const EnergyModel energy(hw_);
  const NocModel noc(hw_);
  const Picoseconds t_mvm = hw_.mvm_latency;
  const Picoseconds t_issue =
      hw_.mvm_issue_interval(options_.parallelism_degree);
  const std::int64_t act_bytes = hw_.activation_bits / 8;

  std::vector<CoreState> cs(static_cast<std::size_t>(cores));
  std::vector<Picoseconds> ag_done(static_cast<std::size_t>(schedule.ag_count),
                                   0);
  ChannelNetwork channels;
  Picoseconds gmem_free = 0;

  SimReport report;

  auto record_usage = [&](CoreState& core, Picoseconds t,
                          std::int64_t usage) {
    const Picoseconds at = std::max(t, core.last_usage_time);
    core.usage.record(at, static_cast<double>(usage));
    core.last_usage_time = at;
  };

  auto execute = [&](int c, const Operation& op) {
    CoreState& core = cs[static_cast<std::size_t>(c)];
    const Picoseconds dep =
        (op.kind != OpKind::kMvm && op.ag >= 0)
            ? ag_done[static_cast<std::size_t>(op.ag)]
            : 0;
    Picoseconds effect_time = 0;

    switch (op.kind) {
      case OpKind::kMvm: {
        PIMCOMP_ASSERT(op.ag >= 0 && op.ag < schedule.ag_count,
                       "MVM references an unknown AG");
        Picoseconds start = std::max(core.issue_clock, core.clock);
        start = std::max(start, ag_done[static_cast<std::size_t>(op.ag)]);
        core.issue_clock = start + t_issue;
        ag_done[static_cast<std::size_t>(op.ag)] = start + t_mvm;
        core.last_event = std::max(core.last_event, start + t_mvm);
        core.busy += t_issue;
        report.dynamic_energy.mvm += energy.mvm_energy_per_xbar() * op.xbars;
        ++report.mvm_ops;
        effect_time = start;
        break;
      }
      case OpKind::kVfu: {
        const Picoseconds start = std::max(core.clock, dep);
        const double ns = static_cast<double>(op.elements) / hw_.vfu_ops_per_ns;
        const Picoseconds dur = from_ns(ns);
        core.clock = start + dur;
        core.last_event = std::max(core.last_event, core.clock);
        core.busy += dur;
        report.dynamic_energy.vfu +=
            energy.vfu_energy_per_element() * static_cast<double>(op.elements);
        report.dynamic_energy.local_memory +=
            energy.local_mem_energy_per_byte() *
            static_cast<double>(2 * op.elements * act_bytes);
        ++report.vfu_ops;
        effect_time = core.clock;
        break;
      }
      case OpKind::kLoadGlobal:
      case OpKind::kStoreGlobal: {
        Picoseconds start = std::max(core.clock, dep);
        start = std::max(start, gmem_free);
        const Picoseconds dur =
            bandwidth_time(op.bytes, hw_.global_memory_gbps);
        gmem_free = start + dur;
        core.clock = start + dur;
        core.last_event = std::max(core.last_event, core.clock);
        core.busy += dur;
        report.dynamic_energy.global_memory +=
            energy.global_mem_energy_per_byte() * static_cast<double>(op.bytes);
        report.dynamic_energy.local_memory +=
            energy.local_mem_energy_per_byte() * static_cast<double>(op.bytes);
        report.global_traffic_bytes += op.bytes;
        effect_time = core.clock;
        break;
      }
      case OpKind::kCommSend: {
        const Picoseconds start = std::max(core.clock, dep);
        const Picoseconds inject =
            bandwidth_time(op.bytes, hw_.local_memory_gbps);
        core.clock = start + inject;
        core.busy += inject;
        const Picoseconds arrival =
            core.clock + noc.transfer_latency(c, op.peer, op.bytes);
        channels.send(c, op.peer, op.tag, arrival, op.bytes);
        core.last_event = std::max(core.last_event, core.clock);
        report.dynamic_energy.noc +=
            energy.noc_energy_per_flit_hop() *
            static_cast<double>(noc.flits(op.bytes) *
                                std::max(1, noc.hops(c, op.peer)));
        if (noc.crosses_chip(c, op.peer)) {
          report.dynamic_energy.noc +=
              energy.ht_energy_per_byte() * static_cast<double>(op.bytes);
        }
        report.dynamic_energy.local_memory +=
            energy.local_mem_energy_per_byte() * static_cast<double>(op.bytes);
        ++report.comm_messages;
        report.comm_bytes += op.bytes;
        effect_time = core.clock;
        break;
      }
      case OpKind::kCommRecv: {
        const ChannelNetwork::Message msg = channels.pop(op.peer, c, op.tag);
        if (msg.bytes != op.bytes) {
          std::ostringstream oss;
          oss << "channel byte mismatch on " << op.peer << "->" << c
              << ": sent " << msg.bytes << ", receiver expected " << op.bytes;
          throw SimulationError(oss.str());
        }
        Picoseconds start = std::max(core.clock, msg.arrival);
        start = std::max(start, dep);
        const Picoseconds dur = bandwidth_time(op.bytes, hw_.local_memory_gbps);
        core.clock = start + dur;
        core.last_event = std::max(core.last_event, core.clock);
        core.busy += dur;
        report.dynamic_energy.local_memory +=
            energy.local_mem_energy_per_byte() * static_cast<double>(op.bytes);
        effect_time = core.clock;
        break;
      }
    }

    if (op.local_usage >= 0) {
      record_usage(core, effect_time, op.local_usage);
    }
  };

  // Globally time-ordered execution: always advance the core whose next
  // operation can start earliest. This keeps shared-resource arbitration
  // (the global-memory bandwidth server) causal — a core that was blocked
  // on a late message cannot steal bandwidth slots from logically-earlier
  // accesses. Cores blocked on empty channels park until a matching send
  // executes.
  auto next_ready = [&](int c) -> Picoseconds {
    const CoreState& core = cs[static_cast<std::size_t>(c)];
    const auto& program = schedule.programs[static_cast<std::size_t>(c)];
    PIMCOMP_ASSERT(core.pc < program.size(), "next_ready past program end");
    const Operation& op = program[core.pc];
    const Picoseconds dep =
        (op.kind != OpKind::kMvm && op.ag >= 0)
            ? ag_done[static_cast<std::size_t>(op.ag)]
            : 0;
    switch (op.kind) {
      case OpKind::kMvm:
        return std::max({core.issue_clock, core.clock,
                         ag_done[static_cast<std::size_t>(op.ag)]});
      default:
        // A RECV is only queued once its message is, so it too waits on
        // nothing but the in-order clock and its AG dependency.
        return std::max(core.clock, dep);
    }
  };

  // Min-heap of (ready time, core); parked cores wait for channel arrivals.
  std::priority_queue<std::pair<Picoseconds, int>,
                      std::vector<std::pair<Picoseconds, int>>,
                      std::greater<>>
      ready_queue;
  std::vector<bool> parked(static_cast<std::size_t>(cores), false);
  std::vector<bool> queued(static_cast<std::size_t>(cores), false);

  auto enqueue = [&](int c) {
    const CoreState& core = cs[static_cast<std::size_t>(c)];
    const auto& program = schedule.programs[static_cast<std::size_t>(c)];
    if (core.pc >= program.size()) return;
    const Operation& op = program[core.pc];
    if (op.kind == OpKind::kCommRecv &&
        !channels.has_message(op.peer, c, op.tag)) {
      parked[static_cast<std::size_t>(c)] = true;
      return;
    }
    parked[static_cast<std::size_t>(c)] = false;
    if (!queued[static_cast<std::size_t>(c)]) {
      ready_queue.push({next_ready(c), c});
      queued[static_cast<std::size_t>(c)] = true;
    }
  };

  for (int c = 0; c < cores; ++c) enqueue(c);

  while (!ready_queue.empty()) {
    const auto [key, c] = ready_queue.top();
    ready_queue.pop();
    queued[static_cast<std::size_t>(c)] = false;
    CoreState& core = cs[static_cast<std::size_t>(c)];
    const auto& program = schedule.programs[static_cast<std::size_t>(c)];
    if (core.pc >= program.size()) continue;
    const Operation& op = program[core.pc];
    execute(c, op);
    ++core.pc;
    if (op.kind == OpKind::kCommSend &&
        parked[static_cast<std::size_t>(op.peer)]) {
      enqueue(op.peer);
    }
    enqueue(c);
  }

  for (int c = 0; c < cores; ++c) {
    const CoreState& core = cs[static_cast<std::size_t>(c)];
    const auto& program = schedule.programs[static_cast<std::size_t>(c)];
    if (core.pc < program.size()) {
      const Operation& op = program[core.pc];
      std::ostringstream oss;
      oss << "deadlock: core " << c << " blocked at op " << core.pc << "/"
          << program.size() << " (" << to_string(op.kind) << " from core "
          << op.peer << ", node " << op.node << "); " << channels.in_flight()
          << " messages in flight";
      throw SimulationError(oss.str());
    }
  }

  // --- Aggregate -------------------------------------------------------------
  report.core_finish.resize(static_cast<std::size_t>(cores), 0);
  report.core_busy.resize(static_cast<std::size_t>(cores), 0);
  double usage_sum = 0.0;
  for (int c = 0; c < cores; ++c) {
    CoreState& core = cs[static_cast<std::size_t>(c)];
    const bool active = !schedule.programs[static_cast<std::size_t>(c)].empty();
    report.core_finish[static_cast<std::size_t>(c)] = core.last_event;
    report.core_busy[static_cast<std::size_t>(c)] = core.busy;
    report.makespan = std::max(report.makespan, core.last_event);
    if (active) {
      ++report.active_cores;
      usage_sum += core.usage.finish(core.last_event);
      report.peak_local_memory_bytes =
          std::max(report.peak_local_memory_bytes,
                   static_cast<std::int64_t>(core.usage.peak()));
    }
  }
  if (report.active_cores > 0) {
    report.avg_local_memory_bytes = usage_sum / report.active_cores;
  }

  // Spill traffic estimated by the schedule-time memory planner.
  for (std::int64_t spill : schedule.spill_bytes) {
    report.spill_traffic_bytes += spill;
  }
  report.global_traffic_bytes += report.spill_traffic_bytes;

  // Leakage: HT cores leak over their own busy window (independent pipeline
  // stages); LL cores stay powered until the inference completes.
  Picojoules leakage = 0.0;
  for (int c = 0; c < cores; ++c) {
    if (schedule.programs[static_cast<std::size_t>(c)].empty()) continue;
    const Picoseconds active_time =
        options_.mode == PipelineMode::kHighThroughput
            ? report.core_finish[static_cast<std::size_t>(c)]
            : report.makespan;
    leakage += energy.core_leakage_energy(1, active_time);
  }
  leakage += energy.chip_leakage_energy(hw_.chip_count(), report.makespan);
  report.leakage_energy = leakage;

  return report;
}

}  // namespace pimcomp
