#ifndef PIMCOMP_ARCH_HARDWARE_CONFIG_HPP
#define PIMCOMP_ARCH_HARDWARE_CONFIG_HPP

#include <cstdint>
#include <string>

#include "common/units.hpp"

namespace pimcomp {

/// How cores are interconnected (paper Fig 3 "Core Connection Methods").
enum class CoreConnection { kNoC, kBus };

std::string to_string(CoreConnection c);

/// The user-facing description of the abstract accelerator (paper Fig 3,
/// "User Input"): crossbar geometry, core/chip counts, precisions, memory
/// bandwidths and the MVM operation latency. All compilation stages read
/// hardware facts exclusively from this struct, which is what makes the
/// framework "universal" — retargeting means changing these numbers.
struct HardwareConfig {
  // --- Crossbar geometry -------------------------------------------------
  int xbar_rows = 128;          ///< wordlines per crossbar
  int xbar_cols = 128;          ///< bitlines per crossbar
  int cell_bits = 2;            ///< bits stored per NVM cell
  int weight_bits = 16;         ///< fixed-point weight precision
  int activation_bits = 16;     ///< fixed-point activation precision
  int xbars_per_core = 64;      ///< crossbars inside one PIM matrix unit

  // --- Chip organization --------------------------------------------------
  int core_count = 36;          ///< total cores across all chips
  int cores_per_chip = 36;      ///< cores integrated on one chip
  CoreConnection connection = CoreConnection::kNoC;

  // --- Vector function unit ----------------------------------------------
  int vfus_per_core = 12;       ///< parallel VFU lanes per core
  double vfu_ops_per_ns = 1.2;  ///< aggregate VFU elements processed per ns

  // --- Memories ------------------------------------------------------------
  std::int64_t local_memory_bytes = 64 * 1024;        ///< per-core scratchpad
  double local_memory_gbps = 32.0;   ///< scratchpad bandwidth per core
  std::int64_t global_memory_bytes = 4 * 1024 * 1024; ///< shared global memory
  double global_memory_gbps = 25.6;  ///< aggregate global memory bandwidth

  // --- Interconnect ---------------------------------------------------------
  int noc_flit_bytes = 8;       ///< 64-bit flits (Table I "flit size 64")
  double noc_link_gbps = 16.0;  ///< per-link NoC bandwidth
  Picoseconds noc_hop_latency = from_ns(2.0);   ///< per-hop router latency
  double ht_link_gbps = 6.4;    ///< HyperTransport chip-to-chip bandwidth
  Picoseconds ht_latency = from_ns(60.0);       ///< chip-crossing latency

  // --- Timing ----------------------------------------------------------------
  /// Latency of one complete crossbar MVM (input DAC streaming + analog
  /// compute + ADC readout for all bit slices).
  Picoseconds mvm_latency = from_ns(1000.0);

  // --- Derived quantities ----------------------------------------------------
  /// Logical matrix columns one crossbar provides: a 16-bit weight spans
  /// weight_bits/cell_bits physical bitlines (PUMA weight-slicing scheme).
  int logical_cols_per_xbar() const {
    return xbar_cols * cell_bits / weight_bits;
  }

  /// Logical matrix rows per crossbar (wordlines are shared by all slices).
  int logical_rows_per_xbar() const { return xbar_rows; }

  /// 16-bit weights one core can hold.
  std::int64_t weights_per_core() const {
    return static_cast<std::int64_t>(xbars_per_core) * xbar_rows *
           logical_cols_per_xbar();
  }

  /// Number of chips needed for core_count.
  int chip_count() const {
    return (core_count + cores_per_chip - 1) / cores_per_chip;
  }

  /// Chip index that owns a core.
  int chip_of_core(int core) const { return core / cores_per_chip; }

  /// MVM issue interval for a given parallelism degree (how many AGs may
  /// compute simultaneously per core, limited by on-chip bandwidth). The
  /// paper sweeps this in Fig 8.
  Picoseconds mvm_issue_interval(int parallelism_degree) const;

  /// Throws ConfigError when any field is inconsistent (non-positive sizes,
  /// weight_bits not a multiple of cell_bits, ...).
  void validate() const;

  /// Human-readable multi-line summary.
  std::string to_string() const;

  /// The paper's evaluation instantiation (PUMA parameters, Table I).
  static HardwareConfig puma_default();
};

}  // namespace pimcomp

#endif  // PIMCOMP_ARCH_HARDWARE_CONFIG_HPP
