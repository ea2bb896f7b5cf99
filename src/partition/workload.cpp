#include "partition/workload.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace pimcomp {

Workload::Workload(const Graph& graph, const HardwareConfig& hw)
    : graph_(&graph), hw_(hw) {
  PIMCOMP_CHECK(graph.finalized(), "workload requires a finalized graph");
  hw.validate();

  partition_index_.assign(static_cast<std::size_t>(graph.node_count()), -1);
  for (const Node& node : graph.nodes()) {
    if (!node.is_crossbar()) continue;
    partition_index_[static_cast<std::size_t>(node.id)] =
        static_cast<int>(partitions_.size());
    partitions_.push_back(partition_node(graph, node.id, hw));
    min_xbars_ += partitions_.back().xbars_per_replica();
  }
  PIMCOMP_CHECK(!partitions_.empty(),
                "graph has no CONV/FC nodes to map to crossbars");

  if (min_xbars_ > total_xbars_available()) {
    std::ostringstream oss;
    oss << "network '" << graph.name() << "' needs " << min_xbars_
        << " crossbars for one replica of every node but the hardware has "
        << total_xbars_available() << " (" << hw.core_count << " cores x "
        << hw.xbars_per_core << "); increase core_count to at least "
        << ceil_div<std::int64_t>(min_xbars_, hw.xbars_per_core);
    throw CapacityError(oss.str());
  }
}

int Workload::recommended_core_count(double headroom) const {
  return recommend_cores(min_xbars_, hw_, headroom);
}

std::int64_t Workload::min_xbars_for(const Graph& graph,
                                     const HardwareConfig& hw) {
  PIMCOMP_CHECK(graph.finalized(), "min_xbars_for requires a finalized graph");
  std::int64_t min_xbars = 0;
  for (const Node& node : graph.nodes()) {
    if (!node.is_crossbar()) continue;
    min_xbars += partition_node(graph, node.id, hw).xbars_per_replica();
  }
  return min_xbars;
}

int Workload::recommend_cores(std::int64_t min_xbars,
                              const HardwareConfig& hw, double headroom) {
  PIMCOMP_CHECK(headroom >= 1.0, "headroom must be >= 1.0");
  const auto needed =
      static_cast<std::int64_t>(static_cast<double>(min_xbars) * headroom);
  const std::int64_t cores = ceil_div<std::int64_t>(needed, hw.xbars_per_core);
  const std::int64_t chips = ceil_div<std::int64_t>(cores, hw.cores_per_chip);
  return checked_int(chips * hw.cores_per_chip);
}

int Workload::max_replication(NodeId node) const {
  return partition_of(node).windows;
}

std::string Workload::to_string() const {
  std::ostringstream oss;
  oss << "workload '" << graph_->name() << "': " << partitions_.size()
      << " crossbar nodes, min " << min_xbars_ << " crossbars ("
      << total_xbars_available() << " available)\n";
  for (const NodePartition& p : partitions_) {
    oss << "  " << graph_->node(p.node).name << ": " << p.to_string() << '\n';
  }
  return oss.str();
}

}  // namespace pimcomp
