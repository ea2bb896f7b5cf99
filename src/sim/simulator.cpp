#include "sim/simulator.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <vector>

#include "arch/energy_model.hpp"
#include "arch/noc.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/statistics.hpp"

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

/// One SEND's message, filled in when the SEND executes.
struct Message {
  bool sent = false;
  Picoseconds arrival = 0;
  std::int64_t bytes = 0;
};

/// Every SEND and RECV paired up front. Each (src, dst, tag) channel has one
/// sending and one receiving core, both running in program order, so the
/// k-th SEND on a channel is exactly the message its k-th RECV dequeues.
/// `message[first_op[c] + pc]` is the message index of core c's op at pc:
/// a SEND's own message, a RECV's partner, -1 for other ops and for RECVs
/// with no partner (those park forever and end in the deadlock error).
struct MessagePairing {
  std::vector<std::size_t> first_op;
  std::vector<int> message;
  int count = 0;

  explicit MessagePairing(const Schedule& schedule) {
    const auto& programs = schedule.programs;
    std::vector<std::pair<int, std::size_t>> sends, recvs;  // (core, pc)
    std::size_t total = 0;
    for (std::size_t c = 0; c < programs.size(); ++c) {
      first_op.push_back(total);
      total += programs[c].size();
      for (std::size_t pc = 0; pc < programs[c].size(); ++pc) {
        const OpKind kind = programs[c][pc].kind;
        if (kind == OpKind::kCommSend) sends.emplace_back(c, pc);
        if (kind == OpKind::kCommRecv) recvs.emplace_back(c, pc);
      }
    }
    message.assign(total, -1);

    // Open-addressed channel table, at most half full. Sends of one
    // channel are chained through next_send in program order.
    struct Channel {
      int src = 0, dst = 0, tag = 0;
      int last = -1;  ///< last send so far; -1 marks an empty slot
      int next_unreceived = -1;
    };
    std::size_t capacity = 16;
    while (capacity < 2 * sends.size()) capacity *= 2;
    std::vector<Channel> table(capacity);
    auto slot = [&](int src, int dst, int tag) -> Channel& {
      // splitmix64's finalizer over the packed (src, dst) and the tag.
      std::uint64_t h = (std::uint64_t{static_cast<std::uint32_t>(src)} << 32 |
                         static_cast<std::uint32_t>(dst)) ^
                        std::uint64_t{static_cast<std::uint32_t>(tag)} *
                            0x9e3779b97f4a7c15ULL;
      h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
      h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
      h ^= h >> 31;
      for (std::size_t i = h & (capacity - 1);; i = (i + 1) & (capacity - 1)) {
        Channel& ch = table[i];
        if (ch.last < 0 || (ch.src == src && ch.dst == dst && ch.tag == tag)) {
          return ch;
        }
      }
    };
    std::vector<int> next_send(sends.size(), -1);
    for (const auto& [c, pc] : sends) {
      const Operation& op = programs[static_cast<std::size_t>(c)][pc];
      Channel& ch = slot(c, op.peer, op.tag);
      if (ch.last < 0) {
        ch = {c, op.peer, op.tag, count, count};
      } else {
        next_send[static_cast<std::size_t>(ch.last)] = count;
        ch.last = count;
      }
      message[first_op[static_cast<std::size_t>(c)] + pc] = count++;
    }
    for (const auto& [c, pc] : recvs) {
      const Operation& op = programs[static_cast<std::size_t>(c)][pc];
      Channel& ch = slot(op.peer, c, op.tag);
      if (ch.last < 0 || ch.next_unreceived < 0) continue;
      message[first_op[static_cast<std::size_t>(c)] + pc] = ch.next_unreceived;
      ch.next_unreceived =
          next_send[static_cast<std::size_t>(ch.next_unreceived)];
    }
  }

  int of(int core, std::size_t pc) const {
    return message[first_op[static_cast<std::size_t>(core)] + pc];
  }
};

/// Min-heap of (ready time, core) whose top can be re-keyed in place: the
/// core at the top runs one op, and its next key replaces the top with one
/// sift-down (no sift at all while the key still sorts below both children,
/// so the earliest core runs ahead). Keys are unique per core, so the pop
/// order is a function of the keys alone, whatever the heap's shape.
class ReadyHeap {
 public:
  using Entry = std::pair<Picoseconds, int>;

  bool empty() const { return heap_.empty(); }
  int top_core() const { return heap_.front().second; }

  void push(Entry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!(e < heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void pop() {
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) replace_top(last);
  }

  /// Replaces the top entry with `e` and sifts it down.
  void replace_top(Entry e) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
      if (!(heap_[child] < e)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = e;
  }

 private:
  std::vector<Entry> heap_;
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
  const MessagePairing pairing(schedule);
  std::vector<Message> messages(static_cast<std::size_t>(pairing.count));
  std::int64_t in_flight = 0;
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
        messages[static_cast<std::size_t>(pairing.of(c, core.pc))] = {
            true, arrival, op.bytes};
        ++in_flight;
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
        const Message& m =
            messages[static_cast<std::size_t>(pairing.of(c, core.pc))];
        if (m.bytes != op.bytes) {
          std::ostringstream oss;
          oss << "channel byte mismatch on " << op.peer << "->" << c
              << ": sent " << m.bytes << ", receiver expected " << op.bytes;
          throw SimulationError(oss.str());
        }
        --in_flight;
        Picoseconds start = std::max(core.clock, m.arrival);
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
  // operation can start earliest, ties to the lower core index. This keeps
  // shared-resource arbitration (the global-memory bandwidth server)
  // causal — a core that was blocked on a late message cannot steal
  // bandwidth slots from logically-earlier accesses. A core whose next op
  // is a RECV of a message not yet sent parks until its paired SEND
  // executes.
  std::vector<bool> parked(static_cast<std::size_t>(cores), false);

  // The ready time of core c's next op; nullopt when c has finished or
  // parks.
  auto next_ready = [&](int c) -> std::optional<Picoseconds> {
    const CoreState& core = cs[static_cast<std::size_t>(c)];
    const auto& program = schedule.programs[static_cast<std::size_t>(c)];
    if (core.pc >= program.size()) return std::nullopt;
    const Operation& op = program[core.pc];
    switch (op.kind) {
      case OpKind::kMvm:
        return std::max({core.issue_clock, core.clock,
                         ag_done[static_cast<std::size_t>(op.ag)]});
      case OpKind::kCommRecv: {
        const int msg = pairing.of(c, core.pc);
        const bool waiting =
            msg < 0 || !messages[static_cast<std::size_t>(msg)].sent;
        parked[static_cast<std::size_t>(c)] = waiting;
        if (waiting) return std::nullopt;
        // The message's arrival is not part of the key: a RECV waits on
        // nothing but the in-order clock and its AG dependency.
        [[fallthrough]];
      }
      default:
        return std::max(core.clock,
                        op.ag >= 0 ? ag_done[static_cast<std::size_t>(op.ag)]
                                   : Picoseconds{0});
    }
  };

  ReadyHeap ready;
  for (int c = 0; c < cores; ++c) {
    if (const auto t = next_ready(c)) ready.push({*t, c});
  }

  // The top core runs one op and is re-keyed in place; it keeps the top,
  // and so runs ahead, while its next key sorts below every other core's.
  while (!ready.empty()) {
    const int c = ready.top_core();
    CoreState& core = cs[static_cast<std::size_t>(c)];
    const Operation& op =
        schedule.programs[static_cast<std::size_t>(c)][core.pc];
    execute(c, op);
    ++core.pc;
    if (const auto t = next_ready(c)) {
      ready.replace_top({*t, c});
    } else {
      ready.pop();
    }
    if (op.kind == OpKind::kCommSend &&
        parked[static_cast<std::size_t>(op.peer)]) {
      if (const auto t = next_ready(op.peer)) ready.push({*t, op.peer});
    }
  }

  for (int c = 0; c < cores; ++c) {
    const CoreState& core = cs[static_cast<std::size_t>(c)];
    const auto& program = schedule.programs[static_cast<std::size_t>(c)];
    if (core.pc < program.size()) {
      const Operation& op = program[core.pc];
      std::ostringstream oss;
      oss << "deadlock: core " << c << " blocked at op " << core.pc << "/"
          << program.size() << " (" << to_string(op.kind) << " from core "
          << op.peer << ", node " << op.node << "); " << in_flight
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
