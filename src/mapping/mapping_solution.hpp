#ifndef PIMCOMP_MAPPING_MAPPING_SOLUTION_HPP
#define PIMCOMP_MAPPING_MAPPING_SOLUTION_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "mapping/gene.hpp"
#include "partition/array_group.hpp"
#include "partition/workload.hpp"

namespace pimcomp {

/// The joint weight-replicating + core-mapping decision: which AGs of which
/// node live on which core. This is both the GA's phenotype and the input to
/// dataflow scheduling.
///
/// Invariants (enforced by the mutation primitives and checked by
/// `validate()`):
///  * each node appears at most once per core (genes merge);
///  * per-core crossbars used <= hardware budget;
///  * per-core distinct nodes <= max_nodes_per_core (paper's
///    max_node_num_in_core chromosome bound);
///  * each node's total AG count is a positive multiple of its
///    ags-per-replica, i.e. replication is integral and >= 1.
///
/// Storage is flat so that copying a solution into another of the same
/// shape (the GA's per-child copy) reuses the destination's buffers and
/// allocates nothing: genes live in one core-major array with a fixed
/// per-core stride of min(max_nodes_per_core, partition_count) slots (a
/// core never holds two genes of one node), each partition keeps a bitset
/// of its host cores, and per-core crossbar counts, per-partition AG totals
/// and the chip-wide crossbar total are kept up to date by add/remove.
/// The GA's feasibility scan (`first_fit`) and its fitness evaluator
/// (PopulationEvaluator) read these arrays directly; nothing gathers a
/// solution into another layout to score it.
///
/// Touched cores: add/remove also mark the core they change in a
/// touched-cores bitset, copied with the solution. The evaluator clears it
/// once it has scored the solution, so between two scorings it holds (a
/// superset of) the cores whose genes changed — which is what lets a
/// child re-score only those cores.
class MappingSolution {
 public:
  MappingSolution(const Workload& workload, int max_nodes_per_core);

  const Workload& workload() const { return *workload_; }
  int core_count() const { return core_count_; }
  int max_nodes_per_core() const { return max_nodes_per_core_; }

  /// Genes resident on a core (each a distinct node), in placement order.
  /// The span is invalidated by the next add/remove on that core.
  std::span<const Gene> genes(int core) const {
    PIMCOMP_ASSERT(core >= 0 && core < core_count_, "core out of range");
    return {genes_.data() + static_cast<std::size_t>(core) * stride_,
            static_cast<std::size_t>(
                gene_count_[static_cast<std::size_t>(core)])};
  }

  /// AGs of `node` on `core` (0 when the core does not host it).
  int ags_on(int core, NodeId node) const {
    for (const Gene& g : genes(core)) {
      if (g.node == node) return g.ag_count;
    }
    return 0;
  }

  // --- Mutation primitives (used by mappers) -------------------------------

  /// True when `ag_count` more AGs of `node` fit on `core` (crossbar budget
  /// and node-slot bound).
  bool can_add(int core, NodeId node, int ag_count) const;

  /// The first core c in the cyclic order offset, offset+1, ...,
  /// core_count-1, 0, ..., offset-1 with c != exclude and
  /// can_add(c, node, ag_count); -1 when none. `exclude` may be -1.
  int first_fit(int offset, NodeId node, int ag_count, int exclude) const;

  /// Adds AGs of `node` to `core`, merging into an existing gene.
  /// Throws if infeasible (call can_add first).
  void add(int core, NodeId node, int ag_count);

  /// Removes up to `ag_count` AGs of `node` from `core`; returns how many
  /// were actually removed (0 when the node is absent).
  int remove(int core, NodeId node, int ag_count);

  /// Cores add/remove changed since the last clear_touched(), as a bitset
  /// of (core_count + 63) / 64 words.
  std::span<const std::uint64_t> touched() const { return touched_; }
  void clear_touched() { std::fill(touched_.begin(), touched_.end(), 0); }

  // --- Queries ---------------------------------------------------------------

  int total_ags(NodeId node) const;
  /// Replication factor: total AGs / AGs-per-replica (floor).
  int replication(NodeId node) const;
  /// Operation cycles each replica runs: ceil(windows / replication).
  int cycles(NodeId node) const;

  int xbars_used(int core) const;
  int free_xbars(int core) const;
  int gene_count(int core) const;
  bool has_node(int core, NodeId node) const;
  /// Cores currently holding at least one AG of `node`, ascending.
  /// O(core_count / 64 + hosts) via the node's host-core bitset.
  std::vector<int> cores_of(NodeId node) const;
  /// Same, written into a caller-owned vector (cleared first) so hot loops
  /// reuse its capacity.
  void cores_of(NodeId node, std::vector<int>& out) const;

  /// Host-core bitset of the partition at index `part`: bit c of word
  /// c / 64 is set when core c holds AGs of it.
  std::span<const std::uint64_t> hosts(int part) const {
    return std::span<const std::uint64_t>(hosts_).subspan(
        static_cast<std::size_t>(part) * host_words_,
        static_cast<std::size_t>(host_words_));
  }
  /// Total AGs per partition index.
  std::span<const int> ag_totals() const { return total_ags_; }

  /// Total crossbars used across all cores (a running total).
  std::int64_t total_xbars_used() const { return total_xbars_; }

  /// Checks every invariant; throws Error with a diagnostic on violation.
  void validate() const;

  /// Expands genes into concrete AG instances (replica-major assignment in
  /// core order) for the scheduler. Requires a valid solution.
  std::vector<AgInstance> instantiate() const;

  /// Chromosome in the paper's integer format: core-major, fixed
  /// max_nodes_per_core slots per core, zero-padded.
  std::vector<std::int64_t> encode() const;

  /// Rebuilds a solution from the integer chromosome.
  static MappingSolution decode(const Workload& workload,
                                int max_nodes_per_core,
                                const std::vector<std::int64_t>& chromosome);

  /// Serializes the mapping decision for the persistent artifact cache:
  /// `{"max_nodes_per_core": N, "chromosome": [...]}` in the paper's
  /// integer gene format. The workload itself is NOT serialized — it is
  /// recomputed deterministically from (graph, hardware) and re-attached
  /// by from_json.
  Json to_json() const;

  /// Inverse of to_json against an already-partitioned workload. Every
  /// invariant is re-checked on load (decode rejects infeasible
  /// placements, then validate() re-proves replication integrality), so a
  /// corrupt or foreign artifact can never smuggle an invalid mapping into
  /// the scheduler. Throws JsonError/Error on violation.
  static MappingSolution from_json(const Workload& workload, const Json& json);

  std::string to_string() const;

 private:
  Gene* core_genes(int core);
  std::uint64_t* host_bits(int part);

  const Workload* workload_;
  int core_count_;
  int max_nodes_per_core_;
  int stride_;      // gene slots per core: min(max_nodes, partitions)
  int host_words_;  // 64-bit words per host-core bitset
  std::vector<Gene> genes_;           // core_count_ * stride_, core-major
  std::vector<int> gene_count_;       // per core: occupied slots
  std::vector<int> xbars_used_;       // per core cache
  std::vector<int> total_ags_;        // per partition index cache
  std::vector<std::uint64_t> hosts_;  // per partition: host-core bitset
  std::vector<std::uint64_t> touched_;  // cores changed since last scored
  std::int64_t total_xbars_ = 0;        // sum of xbars_used_
};

/// Calls fn(i) for every set bit i of `bits`, ascending.
template <typename Fn>
void for_each_bit(std::span<const std::uint64_t> bits, Fn&& fn) {
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      fn(static_cast<int>(w * 64) + std::countr_zero(word));
    }
  }
}

}  // namespace pimcomp

#endif  // PIMCOMP_MAPPING_MAPPING_SOLUTION_HPP
