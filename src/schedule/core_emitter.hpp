#ifndef PIMCOMP_SCHEDULE_CORE_EMITTER_HPP
#define PIMCOMP_SCHEDULE_CORE_EMITTER_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "schedule/memory_allocator.hpp"
#include "schedule/operation.hpp"

namespace pimcomp {

/// Emission context of one core, shared by both dataflow generators: its
/// program plus the scratchpad planner.
struct CoreEmitter {
  std::vector<Operation> program;
  LocalMemoryPlanner planner;
  std::int64_t last_stamp = -1;

  CoreEmitter(MemoryPolicy policy, std::int64_t capacity,
              bool spill_on_overflow)
      : planner(policy, capacity, spill_on_overflow) {}

  void emit(const Operation& op) { program.push_back(op); }

  /// Stamps the current planner usage onto the most recent op when changed.
  void stamp() {
    if (program.empty()) return;
    if (planner.usage() != last_stamp) {
      program.back().local_usage = planner.usage();
      last_stamp = planner.usage();
    }
  }
};

/// Moves every core's program into one Schedule, with its planner's spill
/// traffic and peak usage. `Core` is CoreEmitter or derives from it.
template <typename Core>
Schedule assemble_schedule(std::vector<Core>& cores, int ag_count) {
  Schedule schedule;
  schedule.ag_count = ag_count;
  schedule.programs.reserve(cores.size());
  schedule.spill_bytes.reserve(cores.size());
  schedule.peak_local_bytes.reserve(cores.size());
  for (CoreEmitter& core : cores) {
    schedule.total_ops += static_cast<std::int64_t>(core.program.size());
    schedule.spill_bytes.push_back(core.planner.spill_traffic_bytes());
    schedule.peak_local_bytes.push_back(core.planner.peak_usage());
    schedule.programs.push_back(std::move(core.program));
  }
  return schedule;
}

}  // namespace pimcomp

#endif  // PIMCOMP_SCHEDULE_CORE_EMITTER_HPP
