#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hw/device.hpp"
#include "hw/fleet/bdf.hpp"
#include "hw/fleet/lifecycle.hpp"
#include "hw/robust_eval.hpp"
#include "hw/thermal.hpp"
#include "util/json.hpp"

namespace hadas::hw::fleet {

/// Durable format tag of a fleet checkpoint (`hadas verify-checkpoint`).
inline constexpr const char* kFleetFormatTag = "hadas-fleet-v1";

/// Seeded rolling-death / rolling-recovery schedule: each advance_round()
/// inside the schedule kills `kill_per_round` serviceable devices, recovers
/// `recover_per_round` dead ones and thermally degrades `degrade_per_round`
/// survivors, all sampled without replacement from BDF-sorted pools with a
/// per-round forked stream — the round's outcome is a pure function of
/// (seed, round, membership at round start), independent of thread count or
/// call site.
struct RollingChaosConfig {
  std::size_t kill_per_round = 0;
  std::size_t recover_per_round = 0;
  std::size_t degrade_per_round = 0;
  std::size_t rounds = 0;  ///< schedule length; rounds past it are no-ops
  std::uint64_t seed = 0xF1EE7DEADULL;

  bool active() const {
    return rounds > 0 &&
           (kill_per_round > 0 || recover_per_round > 0 || degrade_per_round > 0);
  }
};

/// Registry-wide configuration.
struct FleetConfig {
  std::size_t devices = 16;
  /// Hardware mix, assigned round-robin at provisioning; empty = the four
  /// paper targets.
  std::vector<hw::Target> targets;
  std::uint64_t seed = 0xF1EE7;
  /// Breaker thresholds of every device's DeviceHealth tracker.
  BreakerConfig breaker;
  /// Thermal envelope: trip above throttle_temp_c degrades a device, cooling
  /// below resume_temp_c heals it.
  ThermalConfig thermal;
  /// Simulated seconds between chaos rounds (package cooling time step).
  double round_seconds = 30.0;
  RollingChaosConfig chaos;
};

/// Value-type view of one device (`hadas device examine`).
struct DeviceInfo {
  Bdf bdf;
  hw::Target target{};
  std::size_t group = 0;  ///< index into all_targets()
  Lifecycle state = Lifecycle::kProvisioning;
  std::uint64_t transitions = 0;
  std::size_t last_transition_round = 0;
  std::uint64_t resets = 0;
  std::uint64_t thermal_trips = 0;
  double temperature_c = 0.0;
  BreakerState breaker = BreakerState::kClosed;
  HealthReport health;
};

/// One `hadas device validate` check.
struct ValidationCheck {
  std::string name;
  bool passed = false;
  std::string note;
};

struct ValidationReport {
  Bdf bdf;
  std::vector<ValidationCheck> checks;
  bool passed() const;
};

/// Registry of N simulated heterogeneous devices addressed by BDF, each
/// carrying its hardware model (DVFS tables via hw::make_device), a thermal
/// state, a PR-2 DeviceHealth breaker and a lifecycle state machine.
/// Devices sharing one hardware target form a *group* — the unit the search
/// partitions measurements by and the serve layer prefers to fail over
/// within. Group ids index hw::all_targets(), so they are stable across
/// membership changes.
///
/// Determinism: provisioning, the chaos schedule (advance_round) and
/// hot-add addresses are pure functions of the config and the call
/// sequence; two registries driven through the same calls are
/// byte-identical (to_json), which bench_fleet gates on.
///
/// Not thread-safe: one owner mutates it between (not during) parallel
/// search phases, mirroring how the engine uses it.
class FleetRegistry {
 public:
  explicit FleetRegistry(FleetConfig config);

  const FleetConfig& config() const { return config_; }
  std::size_t size() const { return records_.size(); }
  std::size_t round() const { return round_; }

  // --- membership ---
  /// Hot-add one device; returns its (monotonically fresh) address.
  Bdf add_device(hw::Target target);
  /// Hot-remove; false if the address is not registered.
  bool remove_device(const Bdf& bdf);
  bool contains(const Bdf& bdf) const;
  /// All addresses, BDF-sorted.
  std::vector<Bdf> members() const;

  // --- groups ---
  std::size_t group_count() const;  ///< all_targets().size(), absent groups included
  hw::Target group_target(std::size_t group) const;
  std::size_t group_size(std::size_t group) const;  ///< members, any state
  std::size_t group_serviceable(std::size_t group) const;
  /// BDF-sorted members of a group.
  std::vector<Bdf> group_members(std::size_t group) const;
  /// Failover head: first serviceable member of the group, if any.
  std::optional<Bdf> preferred_device(std::size_t group) const;

  // --- lifecycle drivers ---
  /// Chaos kill / injector dropout / hard failure. False if already dead.
  bool kill_device(const Bdf& bdf);
  /// Bring a dead or quarantined device back (probation: kRecovered, fresh
  /// breaker). False if it is not dead/quarantined.
  bool recover_device(const Bdf& bdf);
  /// Thermal trip or half-open breaker. False unless healthy/recovered.
  bool degrade_device(const Bdf& bdf);
  /// Breaker open. False unless serviceable.
  bool quarantine_device(const Bdf& bdf);
  /// Probation over / cooled down. False unless degraded/recovered.
  bool heal_device(const Bdf& bdf);
  /// Operator reset (`hadas device reset`): fresh breaker, ambient
  /// temperature, back to healthy from any state.
  void reset_device(const Bdf& bdf);
  /// The device's live breaker; drive it, then sync_breakers().
  DeviceHealth& health(const Bdf& bdf);
  /// Map breaker states into the lifecycle: open -> quarantined, half-open
  /// -> degraded. Returns the number of transitions applied.
  std::size_t sync_breakers();
  /// Record an observed junction temperature; at/above the throttle
  /// threshold this counts a thermal trip and degrades the device, at/below
  /// the resume threshold it heals a degraded one.
  void record_thermal(const Bdf& bdf, double temperature_c);

  /// Advance the rolling chaos schedule one round: heal probation, cool
  /// packages, then apply the round's kills/recoveries/degrades. Returns the
  /// new round index. Failpoint: "fleet.advance_round".
  std::size_t advance_round();

  // --- queries ---
  DeviceInfo examine(const Bdf& bdf) const;
  std::vector<DeviceInfo> examine_all() const;
  ValidationReport validate(const Bdf& bdf) const;
  /// Device count per lifecycle state (all six states present).
  std::map<Lifecycle, std::size_t> tally() const;
  std::size_t serviceable_count() const;
  /// Most recent round at which any device transitioned.
  std::size_t last_transition_round() const;

  // --- durable checkpoint (kFleetFormatTag) ---
  /// Atomic durable save; a run killed between rounds resumes with the same
  /// membership view. Failpoints: "fleet.checkpoint.begin" / ".end".
  void save(const std::string& path) const;
  /// Throws util::durable::CheckpointCorruptError (kParse/kInvariant on a
  /// valid envelope with bad content).
  static FleetRegistry load(const std::string& path);

  /// Canonical full state (deterministically ordered).
  util::Json to_json() const;
  /// Throws std::invalid_argument on malformed or invariant-violating JSON.
  static FleetRegistry from_json(const util::Json& json);

 private:
  struct Record {
    Bdf bdf;
    hw::Target target{};
    Lifecycle state = Lifecycle::kProvisioning;
    std::uint64_t transitions = 0;
    std::size_t last_transition_round = 0;
    std::uint64_t resets = 0;
    std::uint64_t thermal_trips = 0;
    double temperature_c = 0.0;
    std::unique_ptr<DeviceHealth> health;
  };

  explicit FleetRegistry() = default;  // from_json
  Record* find(const Bdf& bdf);
  const Record* find(const Bdf& bdf) const;
  Record& require(const Bdf& bdf);
  const Record& require(const Bdf& bdf) const;
  /// Apply one legal transition with bookkeeping; throws std::logic_error
  /// on an illegal edge (programmer error).
  void transition(Record& record, Lifecycle to);
  void refresh_gauges() const;

  FleetConfig config_;
  std::vector<Record> records_;  // BDF-sorted
  std::size_t round_ = 0;
  std::size_t next_ordinal_ = 0;  // never reused, so hot-adds stay monotonic
  std::size_t last_transition_round_ = 0;
};

}  // namespace hadas::hw::fleet
