#ifndef PIMCOMP_MAPPING_FITNESS_HPP
#define PIMCOMP_MAPPING_FITNESS_HPP

#include <utility>
#include <vector>

#include "common/units.hpp"
#include "mapping/mapper.hpp"
#include "mapping/mapping_solution.hpp"
#include "partition/workload.hpp"

namespace pimcomp {

/// Timing constants the fitness estimators need: the single-MVM latency
/// T_MVM and the per-core issue interval T_interval (on-chip bandwidth
/// limit; paper Fig 5).
struct FitnessParams {
  Picoseconds mvm_latency = 0;
  Picoseconds issue_interval = 0;

  /// Used by the cross-core accumulation penalty: a gene holding a partial
  /// replica must exchange its partial sums with other cores every cycle
  /// and fold them on the VFU.
  double local_memory_gbps = 32.0;
  int activation_bytes = 2;
  double vfu_ops_per_ns = 1.2;

  static FitnessParams from(const HardwareConfig& hw, int parallelism_degree) {
    return {hw.mvm_latency, hw.mvm_issue_interval(parallelism_degree),
            hw.local_memory_gbps, hw.activation_bits / 8, hw.vfu_ops_per_ns};
  }
};

/// The paper's f(n): duration of one operation cycle when n AGs are live in
/// a core — n * T_interval when issue-bandwidth-bound (n > T_MVM/T_interval),
/// else T_MVM.
Picoseconds cycle_time(int live_ags, const FitnessParams& params);

/// HT-mode fitness F_HT = max_i time_i (paper Fig 5): per core, walk the
/// cycle-count staircase of its genes, charging f(n) per remaining cycle.
/// Returns estimated picoseconds for one inference on the busiest core
/// (lower is better).
double ht_fitness(const MappingSolution& solution,
                  const FitnessParams& params);

/// Estimated per-core times (the quantity max'ed by ht_fitness), for
/// reporting and tests.
std::vector<double> ht_core_times(const MappingSolution& solution,
                                  const FitnessParams& params);

/// LL-mode fitness (paper Fig 6; recursion reconstructed per DESIGN.md
/// §5.3). Precomputes the solution-independent waiting fractions W once per
/// workload; `evaluate` is then O(partitions + genes) per candidate.
class LLFitnessContext {
 public:
  /// One inter-node dependency in the crossbar-node dependency graph.
  struct Edge {
    /// Partition index of the providing crossbar node, or -1 when the
    /// provider chain reaches the graph input (data ready at t=0).
    int provider = -1;
    /// Fraction of the provider's output stream the consumer must wait for
    /// before its first window can start (W in the paper).
    double waiting_fraction = 0.0;
  };

  explicit LLFitnessContext(const Workload& workload);

  /// Crossbar consumers of each partition (inverse of `edges()`); used for
  /// the row-forwarding fan-out estimate.
  const std::vector<std::vector<int>>& consumers() const { return consumers_; }

  /// Estimated end-to-end latency (picoseconds) of one inference under the
  /// fine-grained pipeline; lower is better.
  double evaluate(const MappingSolution& solution,
                  const FitnessParams& params) const;

  /// Estimated per-partition finish times, for reporting and tests.
  std::vector<double> finish_times(const MappingSolution& solution,
                                   const FitnessParams& params) const;

  /// Dependency edges per partition index (exposed for tests).
  const std::vector<std::vector<Edge>>& edges() const { return edges_; }

 private:
  const Workload* workload_;
  std::vector<std::vector<Edge>> edges_;      // per partition index
  std::vector<std::vector<int>> consumers_;   // per partition index
};

/// Data-oriented fitness evaluation over a whole population. The GA keeps
/// one evaluator per island, sized to the island's population: every
/// per-gene quantity the per-candidate estimators recompute through
/// MappingSolution's accessors — gene lists, per-node host core sets (one
/// freshly allocated `cores_of` vector per node and call), per-node
/// replication and cycle counts, per-core load/penalty accumulators — is
/// flattened into contiguous population-sized stripes allocated once and
/// reused across generations. Gene stripes are sized like MappingSolution's
/// gene store, min(max_nodes_per_core, partitions) slots per core, so a
/// large wire-supplied max_nodes_per_core cannot inflate them. `load()`
/// gathers a candidate into its slot; `evaluate()` then runs the Fig 5 /
/// Fig 6 estimator entirely on the slot's stripes without allocating.
///
/// Slots share no mutable state, so a generation's changed children can be
/// loaded and evaluated as a lock-free parallel-for over distinct slots.
///
/// `evaluate()` mirrors ht_fitness / LLFitnessContext::evaluate operation
/// for operation — same iteration order, same floating-point association —
/// so a slot's fitness is bit-identical to the reference estimators'
/// (tests/test_island_ga.cpp pins the equivalence). Any change to the
/// reference estimators must be replayed here.
class PopulationEvaluator {
 public:
  PopulationEvaluator(const Workload& workload, const FitnessParams& params,
                      PipelineMode mode, const LLFitnessContext& ll_context,
                      int slots, int max_nodes_per_core);

  /// Gathers `solution` into slot `slot`'s stripes.
  void load(int slot, const MappingSolution& solution);

  /// Fitness of the solution most recently loaded into `slot` (lower is
  /// better). Touches only slot-local stripes; distinct slots may run
  /// concurrently.
  double evaluate(int slot);

  int slots() const { return slots_; }

 private:
  const Workload* workload_;
  FitnessParams params_;
  PipelineMode mode_;
  const LLFitnessContext* ll_;
  int slots_;
  int cores_;
  int parts_;
  int max_nodes_per_core_;
  int core_slots_;    ///< min(max_nodes_per_core_, parts_): genes per core
  int genes_stride_;  ///< cores_ * core_slots_: max genes per slot

  // Chromosome stripes, core-major compact per slot (genes_stride_ wide).
  std::vector<int> gene_part_;  ///< partition index of each gene's node
  std::vector<int> gene_ags_;   ///< AG count of each gene
  std::vector<int> core_off_;   ///< per-core gene offsets; (cores_+1) wide

  // Per-partition stripes (parts_ wide).
  std::vector<int> node_cycles_;  ///< ceil(windows / replication)

  // Per-partition CSR over host cores — the flat replacement for
  // MappingSolution::cores_of; rows are core-ascending like the original
  // scan, which fixes the penalty accumulation order.
  std::vector<int> node_off_;     ///< (parts_+1) wide
  std::vector<int> node_core_;    ///< genes_stride_ wide
  std::vector<int> node_ags_;     ///< genes_stride_ wide
  std::vector<int> node_cursor_;  ///< CSR fill scratch; parts_ wide

  // evaluate() scratch (never read across calls).
  std::vector<double> penalty_;  ///< per-core accumulation penalties
  std::vector<std::pair<int, int>> staircase_;  ///< HT; core_slots_ wide
  std::vector<double> finish_;    ///< LL; parts_ wide
  std::vector<double> duration_;  ///< LL; parts_ wide
};

}  // namespace pimcomp

#endif  // PIMCOMP_MAPPING_FITNESS_HPP
