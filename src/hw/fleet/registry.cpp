#include "hw/fleet/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/durable/document.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/strutil.hpp"

namespace hadas::hw::fleet {

namespace {

/// Hot-path instruments resolved once (registry lookup takes a mutex).
struct FleetInstruments {
  obs::Counter& transitions;
  obs::Counter& deaths;
  obs::Counter& recoveries;
  obs::Counter& degrades;
  obs::Counter& quarantines;
  obs::Counter& heals;
  obs::Counter& resets;
  obs::Counter& hot_adds;
  obs::Counter& hot_removes;
  obs::Counter& rounds;
  obs::Counter& checkpoint_saves;
  obs::Counter& validations;
  obs::Gauge& devices;
  obs::Gauge& serviceable;
  obs::Gauge& healthy;
  obs::Gauge& degraded;
  obs::Gauge& quarantined;
  obs::Gauge& dead;
  obs::Gauge& recovered;
  obs::Gauge& provisioning;
};

FleetInstruments& instruments() {
  static FleetInstruments m{
      obs::MetricsRegistry::global().counter("fleet.transitions_total"),
      obs::MetricsRegistry::global().counter("fleet.deaths_total"),
      obs::MetricsRegistry::global().counter("fleet.recoveries_total"),
      obs::MetricsRegistry::global().counter("fleet.degrades_total"),
      obs::MetricsRegistry::global().counter("fleet.quarantines_total"),
      obs::MetricsRegistry::global().counter("fleet.heals_total"),
      obs::MetricsRegistry::global().counter("fleet.resets_total"),
      obs::MetricsRegistry::global().counter("fleet.hot_adds_total"),
      obs::MetricsRegistry::global().counter("fleet.hot_removes_total"),
      obs::MetricsRegistry::global().counter("fleet.rounds_total"),
      obs::MetricsRegistry::global().counter("fleet.checkpoint_saves_total"),
      obs::MetricsRegistry::global().counter("fleet.validations_total"),
      obs::MetricsRegistry::global().gauge("fleet.devices"),
      obs::MetricsRegistry::global().gauge("fleet.serviceable"),
      obs::MetricsRegistry::global().gauge("fleet.state.healthy"),
      obs::MetricsRegistry::global().gauge("fleet.state.degraded"),
      obs::MetricsRegistry::global().gauge("fleet.state.quarantined"),
      obs::MetricsRegistry::global().gauge("fleet.state.dead"),
      obs::MetricsRegistry::global().gauge("fleet.state.recovered"),
      obs::MetricsRegistry::global().gauge("fleet.state.provisioning"),
  };
  return m;
}

BreakerState breaker_state_from_name(const std::string& name) {
  if (name == "closed") return BreakerState::kClosed;
  if (name == "half-open") return BreakerState::kHalfOpen;
  if (name == "open") return BreakerState::kOpen;
  throw std::invalid_argument("unknown breaker state '" + name + "'");
}

std::size_t group_of(hw::Target target) {
  const auto all = hw::all_targets();
  for (std::size_t g = 0; g < all.size(); ++g)
    if (all[g] == target) return g;
  throw std::logic_error("fleet: target outside all_targets()");
}

}  // namespace

bool ValidationReport::passed() const {
  for (const ValidationCheck& check : checks)
    if (!check.passed) return false;
  return !checks.empty();
}

FleetRegistry::FleetRegistry(FleetConfig config) : config_(std::move(config)) {
  if (config_.devices == 0)
    throw std::invalid_argument("FleetRegistry: devices must be >= 1");
  const std::vector<hw::Target> mix =
      config_.targets.empty() ? hw::all_targets() : config_.targets;
  records_.reserve(config_.devices);
  for (std::size_t i = 0; i < config_.devices; ++i) {
    Record record;
    record.bdf = bdf_from_ordinal(next_ordinal_++);
    record.target = mix[i % mix.size()];
    record.temperature_c = config_.thermal.ambient_c;
    record.health = std::make_unique<DeviceHealth>(config_.breaker);
    records_.push_back(std::move(record));
    transition(records_.back(), Lifecycle::kHealthy);  // bring-up succeeds
  }
  refresh_gauges();
}

FleetRegistry::Record* FleetRegistry::find(const Bdf& bdf) {
  for (Record& record : records_)
    if (record.bdf == bdf) return &record;
  return nullptr;
}

const FleetRegistry::Record* FleetRegistry::find(const Bdf& bdf) const {
  for (const Record& record : records_)
    if (record.bdf == bdf) return &record;
  return nullptr;
}

FleetRegistry::Record& FleetRegistry::require(const Bdf& bdf) {
  Record* record = find(bdf);
  if (!record)
    throw std::invalid_argument("fleet: no device at " + bdf.str());
  return *record;
}

const FleetRegistry::Record& FleetRegistry::require(const Bdf& bdf) const {
  const Record* record = find(bdf);
  if (!record)
    throw std::invalid_argument("fleet: no device at " + bdf.str());
  return *record;
}

void FleetRegistry::transition(Record& record, Lifecycle to) {
  if (!lifecycle_transition_allowed(record.state, to))
    throw std::logic_error(std::string("fleet: illegal transition ") +
                           lifecycle_name(record.state) + " -> " +
                           lifecycle_name(to) + " at " + record.bdf.str());
  record.state = to;
  ++record.transitions;
  record.last_transition_round = round_;
  last_transition_round_ = round_;
  instruments().transitions.inc();
  refresh_gauges();
}

void FleetRegistry::refresh_gauges() const {
  const auto counts = tally();
  FleetInstruments& m = instruments();
  m.devices.set(static_cast<double>(records_.size()));
  m.serviceable.set(static_cast<double>(serviceable_count()));
  m.healthy.set(static_cast<double>(counts.at(Lifecycle::kHealthy)));
  m.degraded.set(static_cast<double>(counts.at(Lifecycle::kDegraded)));
  m.quarantined.set(static_cast<double>(counts.at(Lifecycle::kQuarantined)));
  m.dead.set(static_cast<double>(counts.at(Lifecycle::kDead)));
  m.recovered.set(static_cast<double>(counts.at(Lifecycle::kRecovered)));
  m.provisioning.set(static_cast<double>(counts.at(Lifecycle::kProvisioning)));
}

Bdf FleetRegistry::add_device(hw::Target target) {
  Record record;
  record.bdf = bdf_from_ordinal(next_ordinal_++);
  record.target = target;
  record.temperature_c = config_.thermal.ambient_c;
  record.health = std::make_unique<DeviceHealth>(config_.breaker);
  records_.push_back(std::move(record));  // monotonic ordinal keeps order
  transition(records_.back(), Lifecycle::kHealthy);
  instruments().hot_adds.inc();
  refresh_gauges();
  return records_.back().bdf;
}

bool FleetRegistry::remove_device(const Bdf& bdf) {
  for (auto it = records_.begin(); it != records_.end(); ++it) {
    if (it->bdf == bdf) {
      records_.erase(it);
      last_transition_round_ = round_;
      instruments().hot_removes.inc();
      refresh_gauges();
      return true;
    }
  }
  return false;
}

bool FleetRegistry::contains(const Bdf& bdf) const { return find(bdf) != nullptr; }

std::vector<Bdf> FleetRegistry::members() const {
  std::vector<Bdf> out;
  out.reserve(records_.size());
  for (const Record& record : records_) out.push_back(record.bdf);
  return out;
}

std::size_t FleetRegistry::group_count() const { return hw::all_targets().size(); }

hw::Target FleetRegistry::group_target(std::size_t group) const {
  const auto all = hw::all_targets();
  if (group >= all.size())
    throw std::out_of_range("fleet: group index out of range");
  return all[group];
}

std::size_t FleetRegistry::group_size(std::size_t group) const {
  const hw::Target target = group_target(group);
  std::size_t n = 0;
  for (const Record& record : records_)
    if (record.target == target) ++n;
  return n;
}

std::size_t FleetRegistry::group_serviceable(std::size_t group) const {
  const hw::Target target = group_target(group);
  std::size_t n = 0;
  for (const Record& record : records_)
    if (record.target == target && lifecycle_serviceable(record.state)) ++n;
  return n;
}

std::vector<Bdf> FleetRegistry::group_members(std::size_t group) const {
  const hw::Target target = group_target(group);
  std::vector<Bdf> out;
  for (const Record& record : records_)
    if (record.target == target) out.push_back(record.bdf);
  return out;
}

std::optional<Bdf> FleetRegistry::preferred_device(std::size_t group) const {
  const hw::Target target = group_target(group);
  for (const Record& record : records_)
    if (record.target == target && lifecycle_serviceable(record.state))
      return record.bdf;
  return std::nullopt;
}

bool FleetRegistry::kill_device(const Bdf& bdf) {
  Record& record = require(bdf);
  if (record.state == Lifecycle::kDead) return false;
  transition(record, Lifecycle::kDead);
  record.health->record_dropout();  // breaker opens for good
  instruments().deaths.inc();
  return true;
}

bool FleetRegistry::recover_device(const Bdf& bdf) {
  Record& record = require(bdf);
  if (record.state != Lifecycle::kDead && record.state != Lifecycle::kQuarantined)
    return false;
  transition(record, Lifecycle::kRecovered);
  // Probation starts with a clean slate: fresh breaker, ambient package.
  record.health = std::make_unique<DeviceHealth>(config_.breaker);
  record.temperature_c = config_.thermal.ambient_c;
  instruments().recoveries.inc();
  return true;
}

bool FleetRegistry::degrade_device(const Bdf& bdf) {
  Record& record = require(bdf);
  if (record.state != Lifecycle::kHealthy && record.state != Lifecycle::kRecovered)
    return false;
  transition(record, Lifecycle::kDegraded);
  instruments().degrades.inc();
  return true;
}

bool FleetRegistry::quarantine_device(const Bdf& bdf) {
  Record& record = require(bdf);
  if (!lifecycle_serviceable(record.state)) return false;
  transition(record, Lifecycle::kQuarantined);
  instruments().quarantines.inc();
  return true;
}

bool FleetRegistry::heal_device(const Bdf& bdf) {
  Record& record = require(bdf);
  if (record.state != Lifecycle::kDegraded && record.state != Lifecycle::kRecovered)
    return false;
  transition(record, Lifecycle::kHealthy);
  instruments().heals.inc();
  return true;
}

void FleetRegistry::reset_device(const Bdf& bdf) {
  Record& record = require(bdf);
  // Walk legal edges back to healthy so the transition count stays honest.
  if (record.state == Lifecycle::kDead || record.state == Lifecycle::kQuarantined)
    transition(record, Lifecycle::kRecovered);
  if (record.state != Lifecycle::kHealthy) transition(record, Lifecycle::kHealthy);
  record.health = std::make_unique<DeviceHealth>(config_.breaker);
  record.temperature_c = config_.thermal.ambient_c;
  ++record.resets;
  instruments().resets.inc();
  refresh_gauges();
}

DeviceHealth& FleetRegistry::health(const Bdf& bdf) { return *require(bdf).health; }

std::size_t FleetRegistry::sync_breakers() {
  std::size_t applied = 0;
  for (Record& record : records_) {
    const BreakerState breaker = record.health->state();
    if (breaker == BreakerState::kOpen && lifecycle_serviceable(record.state)) {
      transition(record, Lifecycle::kQuarantined);
      instruments().quarantines.inc();
      ++applied;
    } else if (breaker == BreakerState::kHalfOpen &&
               (record.state == Lifecycle::kHealthy ||
                record.state == Lifecycle::kRecovered)) {
      transition(record, Lifecycle::kDegraded);
      instruments().degrades.inc();
      ++applied;
    }
  }
  return applied;
}

void FleetRegistry::record_thermal(const Bdf& bdf, double temperature_c) {
  Record& record = require(bdf);
  record.temperature_c = temperature_c;
  if (temperature_c >= config_.thermal.throttle_temp_c) {
    ++record.thermal_trips;
    degrade_device(bdf);
  } else if (temperature_c <= config_.thermal.resume_temp_c &&
             record.state == Lifecycle::kDegraded) {
    heal_device(bdf);
  }
}

std::size_t FleetRegistry::advance_round() {
  obs::TraceSpan span("fleet.advance_round", "fleet");
  hadas::util::failpoint("fleet.advance_round");
  const std::size_t r = round_++;
  instruments().rounds.inc();

  // Probation ends and packages cool between rounds.
  const double decay =
      std::exp(-config_.round_seconds / config_.thermal.time_constant_s);
  for (Record& record : records_) {
    if (record.state == Lifecycle::kRecovered) heal_device(record.bdf);
    record.temperature_c = config_.thermal.ambient_c +
                           (record.temperature_c - config_.thermal.ambient_c) * decay;
    if (record.state == Lifecycle::kDegraded &&
        record.temperature_c <= config_.thermal.resume_temp_c)
      heal_device(record.bdf);
  }

  const RollingChaosConfig& chaos = config_.chaos;
  if (!chaos.active() || r >= chaos.rounds) return round_;

  // One order-independent stream per round: the round's victims depend only
  // on (seed, round) and the BDF-sorted pools at round start.
  hadas::util::Rng rng = hadas::util::Rng(chaos.seed).fork(r);
  const auto sample = [&rng](std::vector<Bdf> pool, std::size_t k) {
    std::vector<Bdf> picked;
    const auto idx = rng.sample_without_replacement(pool.size(),
                                                    std::min(k, pool.size()));
    for (std::size_t i : idx) picked.push_back(pool[i]);
    return picked;
  };

  std::vector<Bdf> serviceable, dead;
  for (const Record& record : records_) {
    if (lifecycle_serviceable(record.state)) serviceable.push_back(record.bdf);
    else if (record.state == Lifecycle::kDead) dead.push_back(record.bdf);
  }
  for (const Bdf& bdf : sample(serviceable, chaos.kill_per_round))
    kill_device(bdf);
  for (const Bdf& bdf : sample(dead, chaos.recover_per_round))
    recover_device(bdf);
  std::vector<Bdf> survivors;
  for (const Record& record : records_)
    if (record.state == Lifecycle::kHealthy || record.state == Lifecycle::kRecovered)
      survivors.push_back(record.bdf);
  for (const Bdf& bdf : sample(survivors, chaos.degrade_per_round))
    record_thermal(bdf, config_.thermal.throttle_temp_c + 5.0);
  return round_;
}

DeviceInfo FleetRegistry::examine(const Bdf& bdf) const {
  const Record& record = require(bdf);
  DeviceInfo info;
  info.bdf = record.bdf;
  info.target = record.target;
  info.group = group_of(record.target);
  info.state = record.state;
  info.transitions = record.transitions;
  info.last_transition_round = record.last_transition_round;
  info.resets = record.resets;
  info.thermal_trips = record.thermal_trips;
  info.temperature_c = record.temperature_c;
  info.breaker = record.health->state();
  info.health = record.health->report();
  return info;
}

std::vector<DeviceInfo> FleetRegistry::examine_all() const {
  std::vector<DeviceInfo> out;
  out.reserve(records_.size());
  for (const Record& record : records_) out.push_back(examine(record.bdf));
  return out;
}

ValidationReport FleetRegistry::validate(const Bdf& bdf) const {
  const Record& record = require(bdf);
  instruments().validations.inc();
  ValidationReport report;
  report.bdf = bdf;
  const auto check = [&report](const std::string& name, bool passed,
                               std::string note) {
    report.checks.push_back({name, passed, std::move(note)});
  };

  check("lifecycle", lifecycle_serviceable(record.state),
        lifecycle_name(record.state));
  const BreakerState breaker = record.health->state();
  check("breaker", breaker != BreakerState::kOpen, breaker_state_name(breaker));

  const hw::DeviceSpec spec = hw::make_device(record.target);
  const auto monotonic = [](const std::vector<double>& freqs) {
    if (freqs.empty()) return false;
    for (std::size_t i = 1; i < freqs.size(); ++i)
      if (freqs[i] <= freqs[i - 1]) return false;
    return freqs.front() > 0.0;
  };
  check("dvfs-tables", monotonic(spec.core_freqs_hz) && monotonic(spec.emc_freqs_hz),
        std::to_string(spec.core_freqs_hz.size()) + " core x " +
            std::to_string(spec.emc_freqs_hz.size()) + " emc bins");
  const double peak = spec.peak_macs_per_s(spec.core_freqs_hz.back());
  const double bandwidth = spec.bandwidth_bytes_per_s(spec.emc_freqs_hz.back());
  check("compute-probe", peak > 0.0 && bandwidth > 0.0,
        util::fmt_si(peak) + " MAC/s, " + util::fmt_si(bandwidth) + " B/s");
  check("thermal", record.temperature_c < config_.thermal.throttle_temp_c,
        util::fmt_fixed(record.temperature_c, 1) + " C (throttle at " +
            util::fmt_fixed(config_.thermal.throttle_temp_c, 1) + " C)");
  return report;
}

std::map<Lifecycle, std::size_t> FleetRegistry::tally() const {
  std::map<Lifecycle, std::size_t> counts{
      {Lifecycle::kProvisioning, 0}, {Lifecycle::kHealthy, 0},
      {Lifecycle::kDegraded, 0},     {Lifecycle::kQuarantined, 0},
      {Lifecycle::kDead, 0},         {Lifecycle::kRecovered, 0},
  };
  for (const Record& record : records_) ++counts[record.state];
  return counts;
}

std::size_t FleetRegistry::serviceable_count() const {
  std::size_t n = 0;
  for (const Record& record : records_)
    if (lifecycle_serviceable(record.state)) ++n;
  return n;
}

std::size_t FleetRegistry::last_transition_round() const {
  return last_transition_round_;
}

util::Json FleetRegistry::to_json() const {
  util::Json json;
  json["version"] = 1;
  json["seed_hex"] = util::to_hex(std::string(
      reinterpret_cast<const char*>(&config_.seed), sizeof config_.seed));
  json["round"] = util::Json(round_);
  json["next_ordinal"] = util::Json(next_ordinal_);
  json["last_transition_round"] = util::Json(last_transition_round_);
  json["round_seconds"] = config_.round_seconds;

  util::Json chaos;
  chaos["kill_per_round"] = util::Json(config_.chaos.kill_per_round);
  chaos["recover_per_round"] = util::Json(config_.chaos.recover_per_round);
  chaos["degrade_per_round"] = util::Json(config_.chaos.degrade_per_round);
  chaos["rounds"] = util::Json(config_.chaos.rounds);
  chaos["seed_hex"] = util::to_hex(std::string(
      reinterpret_cast<const char*>(&config_.chaos.seed),
      sizeof config_.chaos.seed));
  json["chaos"] = std::move(chaos);

  util::Json breaker;
  breaker["failure_threshold"] = util::Json(config_.breaker.failure_threshold);
  breaker["cooldown_s"] = config_.breaker.cooldown_s;
  breaker["half_open_successes"] = util::Json(config_.breaker.half_open_successes);
  json["breaker"] = std::move(breaker);

  util::Json thermal;
  thermal["ambient_c"] = config_.thermal.ambient_c;
  thermal["throttle_temp_c"] = config_.thermal.throttle_temp_c;
  thermal["resume_temp_c"] = config_.thermal.resume_temp_c;
  thermal["thermal_resistance_c_per_w"] = config_.thermal.thermal_resistance_c_per_w;
  thermal["time_constant_s"] = config_.thermal.time_constant_s;
  thermal["throttled_core_idx"] = util::Json(config_.thermal.throttled_core_idx);
  json["thermal"] = std::move(thermal);

  util::Json::Array devices;
  for (const Record& record : records_) {
    util::Json device;
    device["bdf"] = record.bdf.str();
    device["target"] = hw::target_key(record.target);
    device["state"] = lifecycle_name(record.state);
    device["transitions"] = util::Json(static_cast<double>(record.transitions));
    device["last_transition_round"] = util::Json(record.last_transition_round);
    device["resets"] = util::Json(static_cast<double>(record.resets));
    device["thermal_trips"] = util::Json(static_cast<double>(record.thermal_trips));
    device["temperature_c"] = record.temperature_c;
    const DeviceHealth::State health = record.health->snapshot();
    device["health"] =
        health_to_json(health, breaker_state_name(health.report.state));
    devices.push_back(std::move(device));
  }
  json["devices"] = std::move(devices);
  return json;
}

FleetRegistry FleetRegistry::from_json(const util::Json& json) {
  if (json.at("version").as_index() != 1)
    throw std::invalid_argument("fleet checkpoint: unsupported version");

  const auto seed_from_hex = [](const std::string& hex) {
    const std::string bytes = util::from_hex(hex);
    if (bytes.size() != sizeof(std::uint64_t))
      throw std::invalid_argument("fleet checkpoint: bad seed encoding");
    std::uint64_t seed = 0;
    std::memcpy(&seed, bytes.data(), sizeof seed);
    return seed;
  };

  FleetRegistry registry;
  FleetConfig& config = registry.config_;
  config.seed = seed_from_hex(json.at("seed_hex").as_string());
  config.round_seconds = json.at("round_seconds").as_number();

  const util::Json& chaos = json.at("chaos");
  config.chaos.kill_per_round = chaos.at("kill_per_round").as_index();
  config.chaos.recover_per_round = chaos.at("recover_per_round").as_index();
  config.chaos.degrade_per_round = chaos.at("degrade_per_round").as_index();
  config.chaos.rounds = chaos.at("rounds").as_index();
  config.chaos.seed = seed_from_hex(chaos.at("seed_hex").as_string());

  const util::Json& breaker = json.at("breaker");
  config.breaker.failure_threshold = breaker.at("failure_threshold").as_index();
  config.breaker.cooldown_s = breaker.at("cooldown_s").as_number();
  config.breaker.half_open_successes = breaker.at("half_open_successes").as_index();

  const util::Json& thermal = json.at("thermal");
  config.thermal.ambient_c = thermal.at("ambient_c").as_number();
  config.thermal.throttle_temp_c = thermal.at("throttle_temp_c").as_number();
  config.thermal.resume_temp_c = thermal.at("resume_temp_c").as_number();
  config.thermal.thermal_resistance_c_per_w =
      thermal.at("thermal_resistance_c_per_w").as_number();
  config.thermal.time_constant_s = thermal.at("time_constant_s").as_number();
  config.thermal.throttled_core_idx = thermal.at("throttled_core_idx").as_index();

  registry.round_ = json.at("round").as_index();
  registry.next_ordinal_ = json.at("next_ordinal").as_index();
  registry.last_transition_round_ = json.at("last_transition_round").as_index();
  if (registry.last_transition_round_ > registry.round_)
    throw std::invalid_argument(
        "fleet checkpoint: last transition round is ahead of the round counter");

  const util::Json::Array& devices = json.at("devices").as_array();
  if (devices.empty())
    throw std::invalid_argument("fleet checkpoint: no devices");
  registry.records_.reserve(devices.size());
  for (const util::Json& device : devices) {
    Record record;
    record.bdf = parse_bdf("devices[].bdf", device.at("bdf").as_string());
    record.target = hw::target_from_key(device.at("target").as_string());
    record.state = lifecycle_from_name(device.at("state").as_string());
    record.transitions =
        static_cast<std::uint64_t>(device.at("transitions").as_number());
    record.last_transition_round = device.at("last_transition_round").as_index();
    if (record.last_transition_round > registry.round_)
      throw std::invalid_argument("fleet checkpoint: device " +
                                  record.bdf.str() +
                                  " transitioned after the round counter");
    record.resets = static_cast<std::uint64_t>(device.at("resets").as_number());
    record.thermal_trips =
        static_cast<std::uint64_t>(device.at("thermal_trips").as_number());
    record.temperature_c = device.at("temperature_c").as_number();
    record.health = std::make_unique<DeviceHealth>(config.breaker);
    DeviceHealth::State health = health_from_json(device.at("health"));
    health.report.state = breaker_state_from_name(
        device.at("health").at("report").at("state").as_string());
    record.health->restore(health);
    if (!registry.records_.empty() &&
        !(registry.records_.back().bdf < record.bdf))
      throw std::invalid_argument(
          "fleet checkpoint: devices out of BDF order at " + record.bdf.str());
    registry.records_.push_back(std::move(record));
  }
  config.devices = registry.records_.size();
  registry.refresh_gauges();
  return registry;
}

void FleetRegistry::save(const std::string& path) const {
  hadas::util::failpoint("fleet.checkpoint.begin");
  util::durable::DurableFile::write(path, kFleetFormatTag, to_json().dump(2));
  instruments().checkpoint_saves.inc();
  hadas::util::failpoint("fleet.checkpoint.end");
}

FleetRegistry FleetRegistry::load(const std::string& path) {
  return util::durable::load_document(path, kFleetFormatTag, from_json);
}

}  // namespace hadas::hw::fleet
