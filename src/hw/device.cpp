#include "hw/device.hpp"

#include <stdexcept>

#include "util/mathutil.hpp"

namespace hadas::hw {

namespace {
/// Linearly spaced DVFS table with `count` entries over [lo, hi] GHz,
/// matching the range/cardinality pairs of Table II.
std::vector<double> freq_table_ghz(double lo, double hi, std::size_t count) {
  std::vector<double> f(count);
  for (std::size_t i = 0; i < count; ++i)
    f[i] = (lo + (hi - lo) * static_cast<double>(i) /
                     static_cast<double>(count - 1)) *
           1e9;
  return f;
}
}  // namespace

std::vector<Target> all_targets() {
  return {Target::kAgxVoltaGpu, Target::kCarmelCpu, Target::kTx2PascalGpu,
          Target::kDenverCpu};
}

std::string target_name(Target target) {
  switch (target) {
    case Target::kAgxVoltaGpu: return "AGX Volta GPU";
    case Target::kCarmelCpu: return "Carmel ARM v8.2 CPU";
    case Target::kTx2PascalGpu: return "TX2 Pascal GPU";
    case Target::kDenverCpu: return "NVIDIA Denver CPU";
  }
  throw std::logic_error("target_name: bad target");
}

const char* target_key(Target target) {
  switch (target) {
    case Target::kAgxVoltaGpu: return "agx-gpu";
    case Target::kCarmelCpu: return "agx-cpu";
    case Target::kTx2PascalGpu: return "tx2-gpu";
    case Target::kDenverCpu: return "tx2-cpu";
  }
  throw std::logic_error("target_key: bad target");
}

Target target_from_key(const std::string& key) {
  std::string known;
  for (Target target : all_targets()) {
    if (key == target_key(target)) return target;
    known += std::string(known.empty() ? "" : " | ") + target_key(target);
  }
  throw std::invalid_argument("unknown device '" + key + "' (expected " +
                              known + ")");
}

double DeviceSpec::peak_macs_per_s(double core_freq_hz) const {
  return cores * macs_per_cycle_per_core * core_freq_hz;
}

double DeviceSpec::bandwidth_bytes_per_s(double emc_freq_hz) const {
  return bytes_per_cycle * emc_freq_hz;
}

double DeviceSpec::core_voltage(double core_freq_hz) const {
  const double lo = core_freqs_hz.front(), hi = core_freqs_hz.back();
  const double t = hi > lo ? (core_freq_hz - lo) / (hi - lo) : 1.0;
  return hadas::util::lerp(core_v_min, core_v_max,
                           std::pow(hadas::util::clamp(t, 0.0, 1.0), v_exponent));
}

double DeviceSpec::emc_voltage(double emc_freq_hz) const {
  const double lo = emc_freqs_hz.front(), hi = emc_freqs_hz.back();
  const double t = hi > lo ? (emc_freq_hz - lo) / (hi - lo) : 1.0;
  return hadas::util::lerp(emc_v_min, emc_v_max,
                           std::pow(hadas::util::clamp(t, 0.0, 1.0), v_exponent));
}

DeviceSpec make_device(Target target) {
  DeviceSpec d;
  d.target = target;
  switch (target) {
    case Target::kAgxVoltaGpu:
      d.name = target_name(target);
      d.platform = "AGX";
      d.cores = 512;  // Volta CUDA cores
      d.macs_per_cycle_per_core = 2.0;
      d.compute_efficiency = 0.22;  // batch-1 edge inference
      d.core_freqs_hz = freq_table_ghz(0.1, 1.4, 14);  // Table II
      d.core_v_min = 0.60;
      d.core_v_max = 1.10;
      d.core_c_eff = 13.0e-9;
      d.core_leak_w_per_v = 1.0;
      d.emc_freqs_hz = freq_table_ghz(0.2, 2.1, 9);  // Table II (AGX SOC)
      d.bytes_per_cycle = 64.0;                      // 256-bit LPDDR4x
      d.mem_efficiency = 0.60;
      d.emc_v_min = 0.55;
      d.emc_v_max = 1.05;
      d.emc_c_eff = 3.2e-9;
      d.emc_leak_w_per_v = 0.5;
      d.layer_launch_s = 0.18e-3;
      d.fixed_overhead_s = 11.0e-3;
      d.base_power_w = 2.5;
      break;
    case Target::kCarmelCpu:
      d.name = target_name(target);
      d.platform = "AGX";
      d.cores = 8;  // Carmel ARM v8.2
      d.macs_per_cycle_per_core = 8.0;  // 128-bit NEON FMA
      d.compute_efficiency = 0.45;
      d.core_freqs_hz = freq_table_ghz(0.1, 2.3, 29);  // Table II
      d.core_v_min = 0.55;
      d.core_v_max = 1.05;
      d.core_c_eff = 3.4e-9;
      d.core_leak_w_per_v = 0.6;
      d.emc_freqs_hz = freq_table_ghz(0.2, 2.1, 9);
      d.bytes_per_cycle = 64.0;
      d.mem_efficiency = 0.40;  // CPU achieves less of peak DRAM bandwidth
      d.emc_v_min = 0.55;
      d.emc_v_max = 1.05;
      d.emc_c_eff = 3.2e-9;
      d.emc_leak_w_per_v = 0.5;
      d.layer_launch_s = 0.05e-3;
      d.fixed_overhead_s = 9.0e-3;
      d.base_power_w = 1.8;
      break;
    case Target::kTx2PascalGpu:
      d.name = target_name(target);
      d.platform = "TX2";
      d.cores = 256;  // Pascal CUDA cores
      d.macs_per_cycle_per_core = 2.0;
      d.compute_efficiency = 0.24;
      d.core_freqs_hz = freq_table_ghz(0.1, 1.4, 13);  // Table II
      d.core_v_min = 0.65;
      d.core_v_max = 1.10;
      d.core_c_eff = 12.0e-9;
      d.core_leak_w_per_v = 0.8;
      d.emc_freqs_hz = freq_table_ghz(0.2, 1.8, 11);  // Table II (TX2 SOC)
      d.bytes_per_cycle = 32.0;                       // 128-bit LPDDR4
      d.mem_efficiency = 0.60;
      d.emc_v_min = 0.55;
      d.emc_v_max = 1.05;
      d.emc_c_eff = 2.6e-9;
      d.emc_leak_w_per_v = 0.4;
      d.layer_launch_s = 0.20e-3;
      d.fixed_overhead_s = 13.5e-3;
      d.base_power_w = 2.0;
      break;
    case Target::kDenverCpu:
      d.name = target_name(target);
      d.platform = "TX2";
      d.cores = 2;  // Denver2 cores
      d.macs_per_cycle_per_core = 8.0;
      d.compute_efficiency = 0.50;
      d.core_freqs_hz = freq_table_ghz(0.3, 2.1, 12);  // Table II
      d.core_v_min = 0.60;
      d.core_v_max = 1.10;
      d.core_c_eff = 2.4e-9;
      d.core_leak_w_per_v = 0.5;
      d.emc_freqs_hz = freq_table_ghz(0.2, 1.8, 11);
      d.bytes_per_cycle = 32.0;
      d.mem_efficiency = 0.35;
      d.emc_v_min = 0.55;
      d.emc_v_max = 1.05;
      d.emc_c_eff = 2.6e-9;
      d.emc_leak_w_per_v = 0.4;
      d.layer_launch_s = 0.04e-3;
      d.fixed_overhead_s = 10.0e-3;
      d.base_power_w = 1.5;
      break;
  }
  if (d.core_freqs_hz.empty() || d.emc_freqs_hz.empty())
    throw std::logic_error("make_device: empty DVFS table");
  return d;
}

DvfsSetting default_setting(const DeviceSpec& device) {
  return {device.core_freqs_hz.size() - 1, device.emc_freqs_hz.size() - 1};
}

std::size_t dvfs_space_size(const DeviceSpec& device) {
  return device.core_freqs_hz.size() * device.emc_freqs_hz.size();
}

}  // namespace hadas::hw
