#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace hadas::hw {

/// Identifier of the four hardware targets evaluated in the paper (Fig. 5).
enum class Target {
  kAgxVoltaGpu,   ///< NVIDIA Jetson AGX Xavier — Volta GPU
  kCarmelCpu,     ///< NVIDIA Jetson AGX Xavier — Carmel ARM v8.2 CPU
  kTx2PascalGpu,  ///< NVIDIA Jetson TX2 — Pascal GPU
  kDenverCpu,     ///< NVIDIA Jetson TX2 — Denver CPU
};

/// All four targets, in the paper's order.
std::vector<Target> all_targets();

/// Short display name, e.g. "AGX Volta GPU".
std::string target_name(Target target);

/// Device key of a target, e.g. agx-gpu: the `--device` vocabulary of the
/// CLI, of dist specs and of fleet checkpoints.
const char* target_key(Target target);
/// Inverse of target_key; throws std::invalid_argument naming the keys.
Target target_from_key(const std::string& key);

/// Full parametric description of one compute target and its memory system.
/// The constants model publicly documented Jetson characteristics (core
/// counts, DVFS tables from Table II, LPDDR4 bus widths) plus calibration
/// constants (efficiencies, overheads, base power) tuned so that the
/// absolute energy scale of the TX2 Pascal GPU matches Table III's baseline
/// column (~174 mJ for a0, ~335 mJ for a6).
struct DeviceSpec {
  std::string name;
  std::string platform;  ///< "AGX" or "TX2"
  Target target = Target::kTx2PascalGpu;

  // --- compute unit ---
  double cores = 0;
  double macs_per_cycle_per_core = 0;
  double compute_efficiency = 0;  ///< achieved fraction of peak at batch 1
  std::vector<double> core_freqs_hz;
  double core_v_min = 0, core_v_max = 0;  ///< V at min / max core frequency
  /// Exponent of the V-f curve: V = Vmin + (Vmax-Vmin) * t^v_exponent with
  /// t the normalized frequency. >1 models the superlinear voltage ramp of
  /// real silicon near the top bins, which is what makes mid-range DVFS
  /// points energy-optimal.
  double v_exponent = 1.4;
  double core_c_eff = 0;                  ///< switched capacitance, W/(V^2 Hz)
  double core_leak_w_per_v = 0;           ///< leakage: P = coef * V

  // --- external memory controller ---
  std::vector<double> emc_freqs_hz;
  double bytes_per_cycle = 0;      ///< DRAM bus bytes transferred per EMC cycle
  double mem_efficiency = 0;       ///< achieved fraction of peak bandwidth
  double emc_v_min = 0, emc_v_max = 0;
  double emc_c_eff = 0;
  double emc_leak_w_per_v = 0;

  // --- software / system overheads ---
  double layer_launch_s = 0;    ///< per-layer dispatch overhead (kernel launch)
  double fixed_overhead_s = 0;  ///< per-inference fixed time (I/O, preprocessing)
  double base_power_w = 0;      ///< always-on board power while inferring

  /// Peak compute throughput (MAC/s) at a core frequency.
  double peak_macs_per_s(double core_freq_hz) const;

  /// Achievable DRAM bandwidth (bytes/s) at an EMC frequency.
  double bandwidth_bytes_per_s(double emc_freq_hz) const;

  /// Core-rail voltage at a core frequency (linear V-f map).
  double core_voltage(double core_freq_hz) const;

  /// Memory-rail voltage at an EMC frequency.
  double emc_voltage(double emc_freq_hz) const;
};

/// Factory for a target's device model.
DeviceSpec make_device(Target target);

/// A point in the F subspace: indices into the device's DVFS tables.
struct DvfsSetting {
  std::size_t core_idx = 0;
  std::size_t emc_idx = 0;

  bool operator==(const DvfsSetting&) const = default;
};

/// The device's default (performance-governor) setting: both tables at max.
DvfsSetting default_setting(const DeviceSpec& device);

/// Number of (core, emc) combinations in the device's F subspace.
std::size_t dvfs_space_size(const DeviceSpec& device);

}  // namespace hadas::hw
