#include "arch/noc.hpp"

#include <cmath>
#include <cstdlib>

#include "common/math_util.hpp"

namespace pimcomp {

NocModel::NocModel(const HardwareConfig& hw) : hw_(hw) {
  mesh_side_ = static_cast<int>(isqrt(hw.cores_per_chip));
  if (mesh_side_ * mesh_side_ < hw.cores_per_chip) ++mesh_side_;
}

int NocModel::hops(int core_a, int core_b) const {
  if (core_a == core_b) return 0;
  if (hw_.connection == CoreConnection::kBus) return 1;
  const int local_a = core_a % hw_.cores_per_chip;
  const int local_b = core_b % hw_.cores_per_chip;
  const int ax = local_a % mesh_side_;
  const int ay = local_a / mesh_side_;
  const int bx = local_b % mesh_side_;
  const int by = local_b / mesh_side_;
  return std::abs(ax - bx) + std::abs(ay - by);
}

bool NocModel::crosses_chip(int core_a, int core_b) const {
  return hw_.chip_of_core(core_a) != hw_.chip_of_core(core_b);
}

std::int64_t NocModel::flits(std::int64_t bytes) const {
  return ceil_div<std::int64_t>(bytes, hw_.noc_flit_bytes);
}

Picoseconds NocModel::transfer_latency(int core_a, int core_b,
                                       std::int64_t bytes) const {
  if (core_a == core_b || bytes <= 0) return 0;
  const int hop_count = std::max(1, hops(core_a, core_b));
  // Serialization over the narrowest link plus per-hop pipeline latency.
  const double noc_bytes_per_ps = hw_.noc_link_gbps * 1e9 / 1e12;
  Picoseconds latency =
      hop_count * hw_.noc_hop_latency +
      static_cast<Picoseconds>(static_cast<double>(bytes) / noc_bytes_per_ps);
  if (crosses_chip(core_a, core_b)) {
    const double ht_bytes_per_ps = hw_.ht_link_gbps * 1e9 / 1e12;
    latency += hw_.ht_latency +
               static_cast<Picoseconds>(static_cast<double>(bytes) /
                                        ht_bytes_per_ps);
  }
  return latency;
}

}  // namespace pimcomp
