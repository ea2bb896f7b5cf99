#include "arch/hardware_config.hpp"

#include <sstream>

#include "common/error.hpp"

namespace pimcomp {

std::string to_string(CoreConnection c) {
  switch (c) {
    case CoreConnection::kNoC: return "noc";
    case CoreConnection::kBus: return "bus";
  }
  return "unknown";
}

Picoseconds HardwareConfig::mvm_issue_interval(int parallelism_degree) const {
  PIMCOMP_CHECK(parallelism_degree >= 1, "parallelism degree must be >= 1");
  const Picoseconds interval = mvm_latency / parallelism_degree;
  return interval > 0 ? interval : 1;
}

void HardwareConfig::validate() const {
  PIMCOMP_CHECK(xbar_rows > 0 && xbar_cols > 0,
                "crossbar size must be positive");
  PIMCOMP_CHECK(cell_bits > 0, "cell bits must be positive");
  PIMCOMP_CHECK(weight_bits > 0 && weight_bits % cell_bits == 0,
                "weight bits must be a positive multiple of cell bits");
  PIMCOMP_CHECK(xbar_cols * cell_bits >= weight_bits,
                "crossbar too narrow to hold a single weight");
  PIMCOMP_CHECK(activation_bits > 0, "activation bits must be positive");
  PIMCOMP_CHECK(xbars_per_core > 0, "crossbars per core must be positive");
  PIMCOMP_CHECK(core_count > 0, "core count must be positive");
  PIMCOMP_CHECK(cores_per_chip > 0, "cores per chip must be positive");
  PIMCOMP_CHECK(vfus_per_core > 0, "VFU count must be positive");
  PIMCOMP_CHECK(vfu_ops_per_ns > 0.0, "VFU rate must be positive");
  PIMCOMP_CHECK(local_memory_bytes > 0, "local memory must be positive");
  PIMCOMP_CHECK(local_memory_gbps > 0.0,
                "local memory bandwidth must be positive");
  PIMCOMP_CHECK(global_memory_bytes > 0, "global memory must be positive");
  PIMCOMP_CHECK(global_memory_gbps > 0.0,
                "global memory bandwidth must be positive");
  PIMCOMP_CHECK(noc_flit_bytes > 0, "flit size must be positive");
  PIMCOMP_CHECK(noc_link_gbps > 0.0, "NoC bandwidth must be positive");
  PIMCOMP_CHECK(ht_link_gbps > 0.0, "HT bandwidth must be positive");
  PIMCOMP_CHECK(mvm_latency > 0, "MVM latency must be positive");
  PIMCOMP_CHECK(noc_hop_latency >= 0, "hop latency must be non-negative");
}

std::string HardwareConfig::to_string() const {
  std::ostringstream oss;
  oss << "HardwareConfig{\n"
      << "  crossbar: " << xbar_rows << "x" << xbar_cols << " @" << cell_bits
      << "b cells, " << xbars_per_core << " xbars/core, logical "
      << logical_rows_per_xbar() << "x" << logical_cols_per_xbar() << "\n"
      << "  precision: weights " << weight_bits << "b, activations "
      << activation_bits << "b\n"
      << "  cores: " << core_count << " (" << cores_per_chip
      << "/chip -> " << chip_count() << " chip(s)), connection "
      << pimcomp::to_string(connection) << "\n"
      << "  vfu: " << vfus_per_core << " lanes, " << vfu_ops_per_ns
      << " elem/ns\n"
      << "  local mem: " << local_memory_bytes / 1024 << " kB @ "
      << local_memory_gbps << " GB/s\n"
      << "  global mem: " << global_memory_bytes / (1024 * 1024) << " MB @ "
      << global_memory_gbps << " GB/s\n"
      << "  mvm latency: " << to_ns(mvm_latency) << " ns\n"
      << "}";
  return oss.str();
}

HardwareConfig HardwareConfig::puma_default() {
  // Table I of the paper; PUMA-compatible instantiation.
  HardwareConfig hw;
  hw.xbar_rows = 128;
  hw.xbar_cols = 128;
  hw.cell_bits = 2;
  hw.weight_bits = 16;
  hw.activation_bits = 16;
  hw.xbars_per_core = 64;
  hw.core_count = 36;
  hw.cores_per_chip = 36;
  hw.connection = CoreConnection::kNoC;
  hw.vfus_per_core = 12;
  hw.local_memory_bytes = 64 * 1024;
  hw.global_memory_bytes = 4 * 1024 * 1024;
  hw.ht_link_gbps = 6.4;
  return hw;
}

}  // namespace pimcomp
