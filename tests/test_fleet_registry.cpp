// Fleet registry: BDF addressing, the per-device lifecycle state machine,
// deterministic provisioning and rolling chaos at 500-device scale, hot
// add/remove, breaker/thermal integration, and the durable hadas-fleet-v1
// checkpoint (round trip + corruption triage).

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "hw/fleet/registry.hpp"
#include "util/durable/durable_file.hpp"
#include "test_helpers.hpp"

namespace {

using namespace hadas;
using hw::fleet::Bdf;
using hw::fleet::FleetConfig;
using hw::fleet::FleetRegistry;
using hw::fleet::Lifecycle;
using util::durable::CheckpointCorruptError;
using util::durable::CorruptStage;

std::string temp_path(const std::string& name) {
  static const test::ScratchDir scratch;
  const std::string path = scratch.file("fleet_" + name);
  std::remove(path.c_str());
  return path;
}

TEST(FleetBdf, RoundTripsThroughTheStringForm) {
  for (const std::string text :
       {"0000:b3:00.1", "ffff:ff:1f.7", "0000:01:00.0", "abcd:ef:0a.5"}) {
    const Bdf bdf = hw::fleet::parse_bdf("--device", text);
    EXPECT_EQ(bdf.str(), text);
    EXPECT_EQ(hw::fleet::parse_bdf("x", bdf.str()), bdf);
  }
}

TEST(FleetBdf, RejectsMalformedAddressesNamingTheFlag) {
  for (const std::string bad :
       {"", "0000:b3:00", "0000-b3-00.1", "zz00:b3:00.1", "0000:b3:20.1",
        "0000:b3:00.8", "00:b3:00.1", "0000:b3:00.1x"}) {
    try {
      hw::fleet::parse_bdf("--device", bad);
      FAIL() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + bad + "'"), std::string::npos) << what;
      EXPECT_NE(what.find("--device"), std::string::npos) << what;
    }
  }
}

TEST(FleetBdf, OrdinalAddressesAreMonotonic) {
  Bdf previous = hw::fleet::bdf_from_ordinal(0);
  for (std::size_t i = 1; i < 1000; ++i) {
    const Bdf next = hw::fleet::bdf_from_ordinal(i);
    EXPECT_TRUE(previous < next) << previous.str() << " !< " << next.str();
    previous = next;
  }
}

TEST(FleetLifecycle, NamesRoundTrip) {
  for (const Lifecycle state :
       {Lifecycle::kProvisioning, Lifecycle::kHealthy, Lifecycle::kDegraded,
        Lifecycle::kQuarantined, Lifecycle::kDead, Lifecycle::kRecovered})
    EXPECT_EQ(hw::fleet::lifecycle_from_name(hw::fleet::lifecycle_name(state)),
              state);
  EXPECT_THROW(hw::fleet::lifecycle_from_name("zombie"), std::invalid_argument);
}

TEST(FleetLifecycle, EdgeLegality) {
  using hw::fleet::lifecycle_transition_allowed;
  // Every state except dead itself may die; no self-transitions.
  for (const Lifecycle from :
       {Lifecycle::kProvisioning, Lifecycle::kHealthy, Lifecycle::kDegraded,
        Lifecycle::kQuarantined, Lifecycle::kRecovered}) {
    EXPECT_TRUE(lifecycle_transition_allowed(from, Lifecycle::kDead));
    EXPECT_FALSE(lifecycle_transition_allowed(from, from));
  }
  EXPECT_FALSE(lifecycle_transition_allowed(Lifecycle::kDead, Lifecycle::kDead));
  EXPECT_TRUE(lifecycle_transition_allowed(Lifecycle::kDead,
                                           Lifecycle::kRecovered));
  EXPECT_TRUE(lifecycle_transition_allowed(Lifecycle::kQuarantined,
                                           Lifecycle::kRecovered));
  EXPECT_FALSE(lifecycle_transition_allowed(Lifecycle::kDead,
                                            Lifecycle::kHealthy));
  EXPECT_FALSE(lifecycle_transition_allowed(Lifecycle::kProvisioning,
                                            Lifecycle::kDegraded));
  EXPECT_TRUE(lifecycle_transition_allowed(Lifecycle::kRecovered,
                                           Lifecycle::kHealthy));
  // Serviceability covers exactly healthy/degraded/recovered.
  EXPECT_TRUE(hw::fleet::lifecycle_serviceable(Lifecycle::kHealthy));
  EXPECT_TRUE(hw::fleet::lifecycle_serviceable(Lifecycle::kDegraded));
  EXPECT_TRUE(hw::fleet::lifecycle_serviceable(Lifecycle::kRecovered));
  EXPECT_FALSE(hw::fleet::lifecycle_serviceable(Lifecycle::kProvisioning));
  EXPECT_FALSE(hw::fleet::lifecycle_serviceable(Lifecycle::kQuarantined));
  EXPECT_FALSE(hw::fleet::lifecycle_serviceable(Lifecycle::kDead));
}

TEST(FleetRegistry, Provisions500DevicesAcrossTheFourGroups) {
  FleetConfig config;
  config.devices = 500;
  const FleetRegistry fleet(config);
  EXPECT_EQ(fleet.size(), 500u);
  EXPECT_EQ(fleet.serviceable_count(), 500u);
  EXPECT_EQ(fleet.group_count(), hw::all_targets().size());
  std::size_t total = 0;
  for (std::size_t g = 0; g < fleet.group_count(); ++g) {
    EXPECT_EQ(fleet.group_size(g), 125u);  // round-robin over 4 targets
    EXPECT_EQ(fleet.group_serviceable(g), 125u);
    total += fleet.group_members(g).size();
    ASSERT_TRUE(fleet.preferred_device(g).has_value());
  }
  EXPECT_EQ(total, 500u);
  // Addresses are unique and BDF-sorted.
  const std::vector<Bdf> members = fleet.members();
  ASSERT_EQ(members.size(), 500u);
  for (std::size_t i = 1; i < members.size(); ++i)
    EXPECT_TRUE(members[i - 1] < members[i]);
  const auto tally = fleet.tally();
  EXPECT_EQ(tally.size(), 6u);  // every state present, zero or not
  EXPECT_EQ(tally.at(Lifecycle::kHealthy), 500u);
}

TEST(FleetRegistry, LifecycleDriversWalkTheStateMachine) {
  FleetRegistry fleet(FleetConfig{});
  const Bdf bdf = fleet.members().front();
  EXPECT_EQ(fleet.examine(bdf).state, Lifecycle::kHealthy);

  EXPECT_TRUE(fleet.degrade_device(bdf));
  EXPECT_EQ(fleet.examine(bdf).state, Lifecycle::kDegraded);
  EXPECT_TRUE(fleet.heal_device(bdf));
  EXPECT_EQ(fleet.examine(bdf).state, Lifecycle::kHealthy);

  EXPECT_TRUE(fleet.quarantine_device(bdf));
  EXPECT_EQ(fleet.examine(bdf).state, Lifecycle::kQuarantined);
  EXPECT_FALSE(fleet.quarantine_device(bdf));  // already out of rotation
  EXPECT_TRUE(fleet.recover_device(bdf));
  EXPECT_EQ(fleet.examine(bdf).state, Lifecycle::kRecovered);
  EXPECT_TRUE(hw::fleet::lifecycle_serviceable(fleet.examine(bdf).state));

  EXPECT_TRUE(fleet.kill_device(bdf));
  EXPECT_EQ(fleet.examine(bdf).state, Lifecycle::kDead);
  EXPECT_FALSE(fleet.kill_device(bdf));  // already dead
  // A chaos kill opens the breaker permanently (dropout semantics).
  EXPECT_EQ(fleet.examine(bdf).breaker, hw::BreakerState::kOpen);
  EXPECT_TRUE(fleet.examine(bdf).health.dropped_out);

  // Operator reset walks legal edges back to healthy with a fresh breaker.
  fleet.reset_device(bdf);
  const auto info = fleet.examine(bdf);
  EXPECT_EQ(info.state, Lifecycle::kHealthy);
  EXPECT_EQ(info.breaker, hw::BreakerState::kClosed);
  EXPECT_EQ(info.resets, 1u);
  EXPECT_FALSE(info.health.dropped_out);
}

TEST(FleetRegistry, BreakerSyncMapsOpenAndHalfOpenStates) {
  FleetConfig config;
  config.breaker.failure_threshold = 2;
  config.breaker.cooldown_s = 1.0;
  FleetRegistry fleet(config);
  const Bdf bdf = fleet.members().front();
  hw::DeviceHealth& health = fleet.health(bdf);
  health.record_failure();
  health.record_failure();  // threshold reached: breaker opens
  EXPECT_EQ(health.state(), hw::BreakerState::kOpen);
  EXPECT_EQ(fleet.sync_breakers(), 1u);
  EXPECT_EQ(fleet.examine(bdf).state, Lifecycle::kQuarantined);

  // Cooldown elapses -> half-open probe -> degraded (back in rotation, on
  // reduced trust) once the lifecycle is serviceable again.
  health.advance_clock(2.0, false);
  EXPECT_TRUE(health.admit());
  EXPECT_EQ(health.state(), hw::BreakerState::kHalfOpen);
  ASSERT_TRUE(fleet.recover_device(bdf));
  EXPECT_EQ(fleet.sync_breakers(), 0u);  // fresh breaker after recovery
  EXPECT_EQ(fleet.examine(bdf).state, Lifecycle::kRecovered);
}

TEST(FleetRegistry, ThermalTripsDegradeAndCoolingHeals) {
  FleetConfig config;
  FleetRegistry fleet(config);
  const Bdf bdf = fleet.members().front();
  fleet.record_thermal(bdf, config.thermal.throttle_temp_c + 3.0);
  EXPECT_EQ(fleet.examine(bdf).state, Lifecycle::kDegraded);
  EXPECT_EQ(fleet.examine(bdf).thermal_trips, 1u);
  fleet.record_thermal(bdf, config.thermal.resume_temp_c - 1.0);
  EXPECT_EQ(fleet.examine(bdf).state, Lifecycle::kHealthy);
}

TEST(FleetRegistry, HotAddAndRemoveKeepAddressesMonotonic) {
  FleetConfig config;
  config.devices = 4;
  FleetRegistry fleet(config);
  const Bdf added = fleet.add_device(hw::Target::kTx2PascalGpu);
  EXPECT_EQ(fleet.size(), 5u);
  EXPECT_TRUE(fleet.members().back() == added);  // fresh ordinal sorts last
  EXPECT_TRUE(fleet.remove_device(added));
  EXPECT_FALSE(fleet.remove_device(added));  // already gone
  EXPECT_FALSE(fleet.contains(added));
  // Ordinals are never reused: the next hot-add gets a strictly newer BDF.
  const Bdf again = fleet.add_device(hw::Target::kTx2PascalGpu);
  EXPECT_TRUE(added < again);
}

TEST(FleetRegistry, RollingChaosIsDeterministicAndConserving) {
  FleetConfig config;
  config.devices = 64;
  config.chaos.kill_per_round = 4;
  config.chaos.recover_per_round = 2;
  config.chaos.degrade_per_round = 1;
  config.chaos.rounds = 6;
  FleetRegistry a(config), b(config);
  for (std::size_t r = 0; r < 8; ++r) {  // two rounds past the schedule
    EXPECT_EQ(a.advance_round(), r + 1);
    b.advance_round();
    EXPECT_EQ(a.to_json().dump(2), b.to_json().dump(2)) << "round " << r;
  }
  EXPECT_EQ(a.size(), 64u);  // chaos kills devices, never removes them
  const auto tally = a.tally();
  EXPECT_GT(tally.at(Lifecycle::kDead), 0u);
  EXPECT_LT(a.serviceable_count(), 64u);
  EXPECT_GT(a.serviceable_count(), 0u);
  EXPECT_GT(a.last_transition_round(), 0u);
  // A different chaos seed produces a different outcome.
  FleetConfig other = config;
  other.chaos.seed ^= 0x1234;
  FleetRegistry c(other);
  for (std::size_t r = 0; r < 8; ++r) c.advance_round();
  EXPECT_NE(a.to_json().dump(2), c.to_json().dump(2));
}

TEST(FleetRegistry, ExamineAndValidateReportHonestState) {
  FleetRegistry fleet(FleetConfig{});
  const auto all = fleet.examine_all();
  ASSERT_EQ(all.size(), fleet.size());
  std::set<std::string> keys;
  for (const auto& info : all) keys.insert(hw::target_key(info.target));
  EXPECT_EQ(keys.size(), 4u);  // all four paper targets provisioned

  const Bdf bdf = fleet.members().front();
  EXPECT_TRUE(fleet.validate(bdf).passed());
  fleet.kill_device(bdf);
  const auto report = fleet.validate(bdf);
  EXPECT_FALSE(report.passed());
  bool lifecycle_failed = false;
  for (const auto& check : report.checks)
    if (check.name == "lifecycle") lifecycle_failed = !check.passed;
  EXPECT_TRUE(lifecycle_failed);
}

TEST(FleetRegistry, CheckpointRoundTripsByteIdentically) {
  const std::string path = temp_path("roundtrip.json");
  FleetConfig config;
  config.devices = 24;
  config.chaos.kill_per_round = 2;
  config.chaos.recover_per_round = 1;
  config.chaos.rounds = 3;
  FleetRegistry fleet(config);
  fleet.advance_round();
  fleet.advance_round();
  fleet.add_device(hw::Target::kAgxVoltaGpu);
  fleet.save(path);

  const FleetRegistry loaded = FleetRegistry::load(path);
  EXPECT_EQ(loaded.to_json().dump(2), fleet.to_json().dump(2));
  // The resumed registry continues the schedule exactly where it stopped.
  FleetRegistry resumed = FleetRegistry::load(path);
  fleet.advance_round();
  resumed.advance_round();
  EXPECT_EQ(resumed.to_json().dump(2), fleet.to_json().dump(2));
}

TEST(FleetRegistry, LoadTriagesCorruptPayloads) {
  const std::string path = temp_path("corrupt.json");
  // Valid envelope, non-JSON payload: parse stage.
  util::durable::DurableFile::write(path, hw::fleet::kFleetFormatTag, "not json");
  try {
    FleetRegistry::load(path);
    FAIL() << "loaded a non-JSON payload";
  } catch (const CheckpointCorruptError& e) {
    EXPECT_EQ(e.stage(), CorruptStage::kParse);
  }
  // Valid JSON violating an invariant: invariant stage.
  util::Json bad = FleetRegistry(FleetConfig{}).to_json();
  bad["version"] = util::Json(std::size_t{999});
  util::durable::DurableFile::write(path, hw::fleet::kFleetFormatTag,
                                    bad.dump(2));
  try {
    FleetRegistry::load(path);
    FAIL() << "loaded an invariant-violating payload";
  } catch (const CheckpointCorruptError& e) {
    EXPECT_EQ(e.stage(), CorruptStage::kInvariant);
  }
  // from_json rejects out-of-order device lists (sorted-by-BDF invariant).
  util::Json doc = FleetRegistry(FleetConfig{}).to_json();
  util::Json::Array devices = doc.at("devices").as_array();
  ASSERT_GE(devices.size(), 2u);
  std::swap(devices[0], devices[1]);
  doc["devices"] = util::Json(std::move(devices));
  EXPECT_THROW(FleetRegistry::from_json(doc), std::invalid_argument);
}

}  // namespace
