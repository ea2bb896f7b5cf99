#ifndef PIMCOMP_MAPPING_FITNESS_HPP
#define PIMCOMP_MAPPING_FITNESS_HPP

#include <cstdint>
#include <span>
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

/// The parts of an individual's HT score that a mutation leaves mostly
/// intact, carried by the GA's individuals from one scoring to the next.
/// Empty (the default) until the evaluator first scores the individual.
struct ScoreCache {
  std::vector<double> stair;  ///< per core: Fig 5 staircase time, no penalty
  std::vector<int> cycles;    ///< per partition: ceil(windows / replication)
};

/// Fitness evaluation for the GA's population, reading the solution's own
/// flat arrays: node cycles come from its per-partition AG totals, host
/// cores from its per-partition bitsets (ascending — the order the scalar
/// estimators' cores_of scan uses, which fixes the penalty accumulation
/// order), and genes from its per-core spans. The GA keeps one evaluator
/// per island, with per-slot scratch (penalties, the dirty-core bitset, the
/// staircase, the LL recursion) allocated once and reused, so evaluation
/// allocates nothing once every individual's cache is sized.
///
/// Slots share no mutable state, so a generation's changed children can be
/// evaluated as a lock-free parallel-for over distinct slots.
///
/// HT re-scores only what a mutation touched. The fitness is the max over
/// cores of stair + penalty; a core's staircase depends only on its genes
/// and on their nodes' cycles. `evaluate` therefore recomputes the
/// staircase of the solution's touched cores and of the hosts of every
/// partition whose cycles differ from the cache, keeps the rest from the
/// cache, recomputes the accumulation penalties in full, and refreshes the
/// cache. An empty cache means a full score. LL runs its full recursion on
/// every call and leaves the cache alone. Either way the solution's
/// touched-cores bitset is cleared afterwards: the cache (if any) now
/// describes it.
///
/// `evaluate()` mirrors ht_fitness / LLFitnessContext::evaluate operation
/// for operation — same iteration order, same floating-point association —
/// so its fitness is bit-identical to the reference estimators'
/// (tests/test_island_ga.cpp and tests/test_fitness.cpp pin the
/// equivalence, the latter along random edit walks). Any change to the
/// reference estimators must be replayed here.
class PopulationEvaluator {
 public:
  PopulationEvaluator(const Workload& workload, const FitnessParams& params,
                      PipelineMode mode, const LLFitnessContext& ll_context,
                      int slots, int max_nodes_per_core);

  /// Fitness of `solution` (lower is better), using slot `slot`'s scratch
  /// and, in HT mode, re-scoring against and refreshing `cache`, which
  /// must be empty or describe `solution` as it was when its touched cores
  /// were last cleared. Clears the touched cores. Distinct slots (with
  /// distinct solutions and caches) may run concurrently.
  double evaluate(int slot, MappingSolution& solution, ScoreCache& cache);

  int slots() const { return slots_; }

 private:
  /// Fills one slot's `cycles` (per partition) and `penalty` (per core)
  /// for `solution`.
  void cycles_and_penalties(const MappingSolution& solution,
                            std::span<int> cycles,
                            std::span<double> penalty) const;
  /// Fig 5 staircase time of one core, without its penalty.
  double staircase_time(const MappingSolution& solution, int core,
                        std::span<const int> cycles,
                        std::span<std::pair<int, int>> staircase) const;

  const Workload* workload_;
  FitnessParams params_;
  PipelineMode mode_;
  const LLFitnessContext* ll_;
  int slots_;
  int cores_;
  int parts_;
  int core_slots_;  ///< min(max_nodes_per_core, parts_): genes per core
  int words_;       ///< 64-bit words per core bitset

  // Per-slot scratch (never read across calls).
  std::vector<int> cycles_;      ///< parts_ wide
  std::vector<double> penalty_;  ///< cores_ wide
  std::vector<std::uint64_t> dirty_;  ///< HT; words_ wide
  std::vector<std::pair<int, int>> staircase_;  ///< HT; core_slots_ wide
  std::vector<double> finish_;    ///< LL; parts_ wide
  std::vector<double> duration_;  ///< LL; parts_ wide
};

}  // namespace pimcomp

#endif  // PIMCOMP_MAPPING_FITNESS_HPP
