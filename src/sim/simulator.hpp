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
/// Channels are paired before execution: the k-th SEND on a (src, dst, tag)
/// channel carries the message of the k-th RECV on it, which is the FIFO
/// order a run-time queue per channel would give, since each channel has
/// one sending and one receiving core. The execution loop always advances
/// the core whose next operation can start earliest, ties to the lower
/// core index (a min-heap of (ready time, core)). The core at the top runs
/// ahead: after each op its next key replaces the top, and it keeps
/// running while that key still sorts below every other core's. A core
/// whose next op is a RECV of a message not yet sent parks until its
/// paired SEND executes; a RECV with no partner parks for good. When the
/// heap empties with unfinished programs, SimulationError (deadlock) is
/// raised with diagnostics. This is the only execution engine: the `sim`
/// backend runs instruction streams through it as well.
///
/// A change that only makes the simulator faster must leave every
/// SimReport field bit-identical (the same ops in the same global order,
/// so the same port arbitration and the same floating-point summation
/// order); scripts/behaviour_digest.py and tests/test_sim_goldens.cpp
/// gate it.
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
