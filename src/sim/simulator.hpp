#ifndef PIMCOMP_SIM_SIMULATOR_HPP
#define PIMCOMP_SIM_SIMULATOR_HPP

#include "arch/hardware_config.hpp"
#include "mapping/mapper.hpp"
#include "schedule/operation.hpp"
#include "sim/sim_report.hpp"

namespace pimcomp {

/// Knobs of one simulation run.
struct SimOptions {
  /// Max AGs computing simultaneously per core (on-chip bandwidth limit;
  /// the paper's Fig 8 parallelism sweep). Sets the MVM issue interval.
  int parallelism_degree = 20;

  /// Leakage accounting mode. HT: each core leaks over its own busy window
  /// (layers pipeline independently). LL: every active core leaks until the
  /// overall finish, since cross-core data dependencies keep them powered
  /// (paper §V-B2).
  PipelineMode mode = PipelineMode::kHighThroughput;
};

/// The cycle-accurate simulator of the paper's evaluation (§V-A2): executes
/// the compiled operation streams modeling
///  * structural conflicts — an AG's crossbars serve one MVM at a time;
///  * per-core MVM issue bandwidth — consecutive issues are spaced by
///    T_MVM / parallelism;
///  * data dependencies — ops wait on the MVM completions they consume and
///    on rendezvous channel messages;
///  * shared global-memory bandwidth and NoC/HyperTransport transfer time;
///  * on-chip local memory occupancy over time;
///  * dynamic energy per operation and leakage over active time.
///
/// The execution loop always advances the core whose next operation can
/// start earliest (a min-heap keyed on ready time); a core whose next op is
/// a RECV on an empty channel parks until the matching SEND executes. When
/// the heap empties with unfinished programs, SimulationError (deadlock)
/// is raised with diagnostics. This is the only execution engine: the `sim`
/// backend runs instruction streams through it as well.
class Simulator {
 public:
  Simulator(const HardwareConfig& hw, const SimOptions& options);

  /// Runs a schedule to completion and returns the measurements.
  SimReport run(const Schedule& schedule) const;

 private:
  HardwareConfig hw_;
  SimOptions options_;
};

}  // namespace pimcomp

#endif  // PIMCOMP_SIM_SIMULATOR_HPP
