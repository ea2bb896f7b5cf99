#include "schedule/ag_layout.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pimcomp {

std::span<const int> AccumGroup::members_on(int core) const {
  const auto c = std::lower_bound(cores.begin(), cores.end(), core);
  if (c == cores.end() || *c != core) return {};
  const auto [first, last] = std::equal_range(
      member_pos.begin(), member_pos.end(),
      static_cast<int>(c - cores.begin()));
  return std::span<const int>(members).subspan(
      static_cast<std::size_t>(first - member_pos.begin()),
      static_cast<std::size_t>(last - first));
}

int AgLayout::slice_rows(const NodePartition& p, const AgInstance& ag,
                         const HardwareConfig& hw) {
  const int begin = ag.row_slice * hw.logical_rows_per_xbar();
  const int end = std::min(p.matrix_rows, begin + hw.logical_rows_per_xbar());
  PIMCOMP_ASSERT(end > begin, "AG row slice outside the weight matrix");
  return end - begin;
}

AgLayout AgLayout::build(const MappingSolution& solution) {
  const Workload& workload = solution.workload();
  const auto part_count = static_cast<std::size_t>(workload.partition_count());
  AgLayout layout;
  layout.instances = solution.instantiate();
  layout.partition_groups.resize(part_count);
  layout.partition_host_cores.resize(part_count);
  layout.core_groups.resize(static_cast<std::size_t>(solution.core_count()));

  // instantiate() lays each partition out as one run of instances, in
  // partition order; within it, identity replica * ags_per_replica +
  // row_slice * col_chunks + col_chunk is the instance's offset.
  std::size_t base = 0;
  for (std::size_t pidx = 0; pidx < part_count; ++pidx) {
    const NodePartition& p = workload.partitions()[pidx];
    layout.partition_host_cores[pidx] = solution.cores_of(p.node);
    const int cyc = solution.cycles(p.node);
    const int replicas = solution.replication(p.node);
    for (int replica = 0; replica < replicas; ++replica) {
      for (int chunk = 0; chunk < p.col_chunks; ++chunk) {
        AccumGroup group;
        group.node = p.node;
        group.partition = static_cast<int>(pidx);
        group.replica = replica;
        group.chunk = chunk;
        for (int row = 0; row < p.row_slices; ++row) {
          const std::size_t member =
              base + static_cast<std::size_t>(
                         (replica * p.row_slices + row) * p.col_chunks + chunk);
          const AgInstance& ag = layout.instances.at(member);
          PIMCOMP_ASSERT(ag.node == p.node && ag.replica == replica &&
                             ag.row_slice == row && ag.col_chunk == chunk,
                         "AG instance out of instantiate() order");
          if (group.cores.empty() || group.cores.back() != ag.core) {
            PIMCOMP_ASSERT(group.cores.empty() || group.cores.back() < ag.core,
                           "accumulation group member cores decrease in "
                           "row-slice order");
            group.cores.push_back(ag.core);
          }
          group.members.push_back(static_cast<int>(member));
          group.member_pos.push_back(static_cast<int>(group.cores.size()) - 1);
        }
        group.owner_core = group.cores.front();
        group.window_begin = std::min(p.windows, replica * cyc);
        group.window_end = std::min(p.windows, (replica + 1) * cyc);
        group.cols = p.chunk_cols(chunk);

        const int gid = static_cast<int>(layout.groups.size());
        if (!group.empty()) {
          for (int core : group.cores) {
            layout.core_groups[static_cast<std::size_t>(core)].push_back(gid);
          }
        }
        layout.groups.push_back(std::move(group));
        layout.partition_groups[pidx].push_back(gid);
      }
    }
    base += static_cast<std::size_t>(replicas * p.ags_per_replica());
  }
  PIMCOMP_ASSERT(base == layout.instances.size(),
                 "AG instances outside every accumulation group");
  return layout;
}

}  // namespace pimcomp
