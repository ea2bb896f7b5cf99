#ifndef PIMCOMP_SCHEDULE_AG_LAYOUT_HPP
#define PIMCOMP_SCHEDULE_AG_LAYOUT_HPP

#include <span>
#include <vector>

#include "mapping/mapping_solution.hpp"
#include "partition/array_group.hpp"

namespace pimcomp {

/// One accumulation group: the AGs of a (node, replica, col_chunk) triple.
/// Their per-window partial sums must be added together; the paper routes
/// them "to the core where the first AG of this replicated weight block is
/// located" — the owner.
struct AccumGroup {
  NodeId node = -1;
  int partition = -1;  ///< partition index of the node
  int replica = 0;
  int chunk = 0;
  std::vector<int> members;  ///< AG instance ids, in row-slice order
  /// Distinct member cores, ascending. Member cores never decrease in
  /// row-slice order, so this is also their first-occurrence order and
  /// each core's members are one contiguous run of `members`.
  std::vector<int> cores;
  std::vector<int> member_pos;  ///< per member: its core's index in `cores`
  int owner_core = -1;          ///< core of the first (lowest row-slice) AG
  int window_begin = 0;         ///< replica's first window (inclusive)
  int window_end = 0;           ///< replica's last window (exclusive)
  int cols = 0;                 ///< output columns this chunk produces

  int window_count() const { return window_end - window_begin; }
  bool empty() const { return window_count() <= 0; }

  /// The members resident on `core`, in row-slice order (empty if none).
  std::span<const int> members_on(int core) const;
};

/// Concrete execution layout of a mapping: AG instances, accumulation
/// groups, and the per-partition and per-core rosters both schedulers build
/// their operation streams from.
struct AgLayout {
  std::vector<AgInstance> instances;
  std::vector<AccumGroup> groups;

  /// Per partition index: ids of this node's accumulation groups and the
  /// distinct cores hosting any of its AGs, ascending.
  std::vector<std::vector<int>> partition_groups;
  std::vector<std::vector<int>> partition_host_cores;

  /// Per core: ids of the non-empty groups with a member there, ascending.
  std::vector<std::vector<int>> core_groups;

  /// Rows of the weight matrix an AG instance actually occupies (the last
  /// row slice may be partial).
  static int slice_rows(const NodePartition& p, const AgInstance& ag,
                        const HardwareConfig& hw);

  static AgLayout build(const MappingSolution& solution);
};

}  // namespace pimcomp

#endif  // PIMCOMP_SCHEDULE_AG_LAYOUT_HPP
