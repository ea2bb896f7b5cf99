#ifndef PIMCOMP_SIM_SIM_REPORT_HPP
#define PIMCOMP_SIM_SIM_REPORT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace pimcomp {

/// Dynamic-energy breakdown by component (picojoules).
struct EnergyBreakdown {
  Picojoules mvm = 0.0;
  Picojoules vfu = 0.0;
  Picojoules local_memory = 0.0;
  Picojoules global_memory = 0.0;
  Picojoules noc = 0.0;

  Picojoules total() const {
    return mvm + vfu + local_memory + global_memory + noc;
  }
};

/// Everything the cycle-accurate simulator measures for one compiled
/// dataflow: timing, energy (dynamic + leakage), memory behaviour and
/// utilization. These numbers feed every figure of the evaluation.
struct SimReport {
  // --- Timing ----------------------------------------------------------------
  Picoseconds makespan = 0;            ///< end-to-end finish time
  std::vector<Picoseconds> core_finish;  ///< per-core last-op completion
  std::vector<Picoseconds> core_busy;    ///< per-core busy (non-idle) time

  /// HT interpretation: one inference's worth of work per core, pipelined
  /// across inferences -> throughput = 1 / makespan.
  double throughput_per_sec() const {
    return makespan > 0 ? 1.0 / to_seconds(makespan) : 0.0;
  }

  // --- Energy ----------------------------------------------------------------
  EnergyBreakdown dynamic_energy;
  Picojoules leakage_energy = 0.0;
  Picojoules total_energy() const {
    return dynamic_energy.total() + leakage_energy;
  }

  // --- Memory ----------------------------------------------------------------
  /// Time-weighted average local-memory occupancy, averaged over the cores
  /// that executed work (paper Fig 10 y-axis).
  double avg_local_memory_bytes = 0.0;
  std::int64_t peak_local_memory_bytes = 0;
  std::int64_t global_traffic_bytes = 0;  ///< loads + stores + spills
  std::int64_t spill_traffic_bytes = 0;   ///< overflow component of the above

  // --- Counters --------------------------------------------------------------
  std::int64_t mvm_ops = 0;
  std::int64_t vfu_ops = 0;
  std::int64_t comm_messages = 0;
  std::int64_t comm_bytes = 0;
  int active_cores = 0;

  /// Multi-line human-readable summary.
  std::string to_string() const;
};

}  // namespace pimcomp

#endif  // PIMCOMP_SIM_SIM_REPORT_HPP
