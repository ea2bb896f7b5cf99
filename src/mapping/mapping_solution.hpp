#ifndef PIMCOMP_MAPPING_MAPPING_SOLUTION_HPP
#define PIMCOMP_MAPPING_MAPPING_SOLUTION_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

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
/// core never holds two genes of one node), and each partition keeps a
/// bitset of its host cores.
class MappingSolution {
 public:
  MappingSolution(const Workload& workload, int max_nodes_per_core);

  const Workload& workload() const { return *workload_; }
  int core_count() const { return core_count_; }
  int max_nodes_per_core() const { return max_nodes_per_core_; }

  /// Genes resident on a core (each a distinct node), in placement order.
  /// The span is invalidated by the next add/remove on that core.
  std::span<const Gene> genes(int core) const;

  // --- Mutation primitives (used by mappers) -------------------------------

  /// True when `ag_count` more AGs of `node` fit on `core` (crossbar budget
  /// and node-slot bound).
  bool can_add(int core, NodeId node, int ag_count) const;

  /// Adds AGs of `node` to `core`, merging into an existing gene.
  /// Throws if infeasible (call can_add first).
  void add(int core, NodeId node, int ag_count);

  /// Removes up to `ag_count` AGs of `node` from `core`; returns how many
  /// were actually removed (0 when the node is absent).
  int remove(int core, NodeId node, int ag_count);

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

  /// Total crossbars used across all cores.
  std::int64_t total_xbars_used() const;

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
  const std::uint64_t* host_bits(int part) const;

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
};

}  // namespace pimcomp

#endif  // PIMCOMP_MAPPING_MAPPING_SOLUTION_HPP
