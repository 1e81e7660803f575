#pragma once

#include <memory>
#include <vector>

#include "core/ioe.hpp"
#include "core/static_eval.hpp"
#include "data/synthetic_task.hpp"
#include "dynn/exit_bank.hpp"
#include "dynn/multi_exit_cost.hpp"
#include "exec/dispatcher.hpp"
#include "hw/fleet/registry.hpp"
#include "util/json.hpp"

namespace hadas::core {

/// Configuration of a cross-device joint search.
struct MultiDeviceConfig {
  std::vector<hw::Target> targets;  ///< empty = all four paper targets
  std::size_t outer_population = 20;
  std::size_t outer_generations = 8;
  /// Backbones taken from the final static front into the joint inner search.
  std::size_t inner_backbones = 3;
  Nsga2Config inner_nsga{/*population=*/28, /*generations=*/18, 0.9, -1.0, 555};
  dynn::DynamicScoreConfig score;
  dynn::ExitBankConfig bank;
  data::DataConfig data;
  std::uint64_t seed = 4242;
  /// Parallel execution: per-device static measurements run one device per
  /// task, the per-elite joint inner searches run concurrently, and each
  /// elite's exit heads train on the same workers. Results are bit-identical
  /// at any thread count.
  exec::ExecConfig exec;
  /// Per-device fault-tolerance configs. Empty = no robust layer anywhere;
  /// otherwise must have one entry per target (in target order). A device
  /// whose circuit breaker opens is dropped from the search instead of
  /// aborting it; see MultiDeviceResult::health.
  std::vector<hw::RobustConfig> robust;

  /// Fleet mode (non-owning; must outlive the engine). Targets are derived
  /// from the registry's device groups — one measurement context per group
  /// with at least one member — and `targets`/`robust` must stay empty. The
  /// registry's chaos schedule advances one round at every outer generation
  /// boundary; when the set of groups with a serviceable member changes (a
  /// whole group dies, or one comes back from zero), the search
  /// deterministically restarts on the new group set, so the finished result
  /// is byte-identical to a run whose final membership was fixed up front.
  hw::fleet::FleetRegistry* fleet = nullptr;
  /// Durable fleet checkpoint (kFleetFormatTag) written after the round of
  /// each generation boundary, so a killed run resumes with the same
  /// membership view. Empty = no checkpointing.
  std::string fleet_state_path;
};

/// Post-run health record of one configured device.
struct DeviceHealthEntry {
  hw::Target target{};
  bool alive = true;  ///< still in the search when it finished
  hw::HealthReport report;
};

/// One portable dynamic design: a single (backbone, exits) pair with a
/// per-target DVFS setting, evaluated on every target.
struct MultiDeviceSolution {
  supernet::BackboneConfig backbone;
  dynn::ExitPlacement placement;
  std::vector<hw::DvfsSetting> settings;        ///< one per target
  std::vector<dynn::DynamicMetrics> per_device; ///< one per target
  double worst_gain = 0.0;   ///< min over targets of the ideal energy gain
  double mean_gain = 0.0;
  double oracle_accuracy = 0.0;  ///< device-independent
};

/// Result of a cross-device search. `settings`/`per_device` of each solution
/// are indexed by `active_targets` (the devices that survived), not by the
/// originally configured target list; `health` reports on every configured
/// device, dead or alive.
struct MultiDeviceResult {
  std::vector<MultiDeviceSolution> pareto;  ///< front in (worst_gain, accuracy)
  std::size_t static_evaluations = 0;
  std::size_t inner_evaluations = 0;
  std::vector<hw::Target> active_targets;
  std::vector<DeviceHealthEntry> health;
  /// Fleet mode only: searches abandoned because group membership changed,
  /// and total chaos rounds advanced while this result was computed.
  std::size_t fleet_restarts = 0;
  std::size_t fleet_rounds = 0;
};

/// Per-group Pareto fronts of a finished cross-device result: for each
/// active target g, the (deterministically ordered) indices into
/// `result.pareto` that are non-dominated in that group's own
/// (energy_gain, oracle_accuracy) plane. This is the per-group view the
/// fleet aggregates — byte-identical regardless of the order other groups
/// died or recovered, because it is a pure function of the result.
std::vector<std::vector<std::size_t>> per_group_fronts(
    const MultiDeviceResult& result);

/// Canonical JSON of a result (solutions, per-device metrics, per-group
/// fronts, health): the byte-comparison artifact of the fleet CI runs.
util::Json multi_device_result_to_json(const MultiDeviceResult& result);

/// Everything the serving layer needs to deploy one searched cross-device
/// solution: the (re-trained, deterministic) exit bank plus one CLEAN cost
/// table and DVFS setting per active target. Tables deliberately carry no
/// search-time robust wrapper — at serve time the supervisor owns fault
/// injection, and a wrapped table would double-inject. Tables reference the
/// engine's device models: the engine must outlive the deployment.
struct FleetDeployment {
  std::unique_ptr<dynn::ExitBank> bank;
  std::vector<std::unique_ptr<dynn::MultiExitCostTable>> tables;
  std::vector<hw::DvfsSetting> settings;  ///< indexed like active_targets
  dynn::ExitPlacement placement{1};
};

/// Cross-device extension of HADAS (beyond the paper, which searches per
/// device): find ONE deployable (b, x) whose exits are shared across a fleet
/// of heterogeneous devices, with a DVFS point tuned per device. The outer
/// loop optimizes [accuracy, -energy_1 .. -energy_D] statically; elite
/// backbones get a joint inner search over (X, F_1 x .. x F_D) maximizing
/// [mean eq.(5) score, worst-device gain, oracle accuracy]. One exit bank
/// (device-independent) serves all targets.
class MultiDeviceEngine {
 public:
  MultiDeviceEngine(const supernet::SearchSpace& space, MultiDeviceConfig config);

  const std::vector<hw::Target>& targets() const { return targets_; }
  /// The shared synthetic task (for building serve-time sample streams).
  const data::SyntheticTask& task() const { return task_; }

  /// Cross-device search with graceful degradation: devices whose circuit
  /// breaker opens (probe phase or mid-search) are dropped and the search
  /// deterministically restarts on the survivors — a partial-but-valid
  /// result instead of an aborted run. Throws hw::DeviceUnavailableError
  /// only when every device is dead.
  MultiDeviceResult run();

  /// Resolved worker count of the parallel dispatcher (>= 1).
  std::size_t threads() const { return dispatcher_.threads(); }

  /// Materialize solution `index` of `result` for the serving layer: rebuild
  /// its exit bank exactly as the search did (same backbone-derived seed) and
  /// one clean cost table per active target, in `result.active_targets`
  /// order. Throws std::out_of_range for a bad index and
  /// std::invalid_argument if `result` names a target this engine does not
  /// hold.
  FleetDeployment fleet_deployment(const MultiDeviceResult& result,
                                   std::size_t index);

 private:
  struct DeviceContext {
    std::unique_ptr<StaticEvaluator> static_eval;
  };

  /// Drive the breaker of obviously-dead devices open before searching.
  void probe_devices();
  bool device_alive(std::size_t index) const;
  /// One deterministic search over the given device subset (indices into
  /// devices_/targets_). Throws hw::DeviceUnavailableError if a breaker
  /// opens mid-run.
  MultiDeviceResult search(const std::vector<std::size_t>& alive);
  /// Fleet mode: advance one chaos round + checkpoint at a generation
  /// boundary; throws (internally) when the serviceable group set drifted
  /// from `attempt_alive_`.
  void fleet_tick();
  std::vector<std::size_t> alive_indices() const;
  /// All-dead diagnostic naming every device's breaker/lifecycle state.
  [[noreturn]] void throw_all_dead() const;

  const supernet::SearchSpace& space_;
  MultiDeviceConfig config_;
  std::vector<hw::Target> targets_;
  /// Fleet mode: registry group id behind each engine device index.
  std::vector<std::size_t> fleet_groups_;
  std::vector<DeviceContext> devices_;
  data::SyntheticTask task_;
  exec::ParallelDispatcher dispatcher_;
  std::vector<std::size_t> attempt_alive_;  // alive set of the running attempt
  std::size_t fleet_rounds_total_ = 0;
};

}  // namespace hadas::core
