// Fleet-mode cross-device search: the rolling-death survival property (a
// search that lives through a seeded chaos schedule emits solutions
// byte-identical to a fixed-final-membership run, at any thread count),
// deterministic restarts on whole-group death, the all-dead diagnostic, and
// the durable fleet checkpoint written at generation boundaries.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/multi_device.hpp"
#include "test_helpers.hpp"

namespace {

using namespace hadas;

core::MultiDeviceConfig fleet_search_config() {
  core::MultiDeviceConfig config;
  config.outer_population = 8;
  config.outer_generations = 2;
  config.inner_backbones = 1;
  config.inner_nsga.population = 12;
  config.inner_nsga.generations = 5;
  config.data = hadas::test::small_data();
  config.bank = hadas::test::small_bank();
  config.seed = 99;
  return config;
}

hw::fleet::FleetConfig chaos_fleet(std::uint64_t chaos_seed) {
  hw::fleet::FleetConfig config;
  config.devices = 12;  // three devices per paper target
  config.chaos.kill_per_round = 2;
  config.chaos.recover_per_round = 1;
  config.chaos.rounds = 2;  // the schedule finishes inside the search
  config.chaos.seed = chaos_seed;
  return config;
}

const supernet::SearchSpace& space() {
  static const supernet::SearchSpace s = supernet::SearchSpace::attentive_nas();
  return s;
}

// The tentpole property, swept over seeded rolling-death schedules: however
// devices die and recover mid-run, the finished search must be
// byte-identical (solutions, per-group fronts, active targets) to a run
// whose final membership was fixed before the search began.
TEST(FleetSearch, RollingDeathMatchesFixedFinalMembershipRun) {
  for (const std::uint64_t chaos_seed :
       {std::uint64_t{0xF1EE7DEAD}, std::uint64_t{0xBADC0FFEE},
        std::uint64_t{77}}) {
    hw::fleet::FleetRegistry rolling(chaos_fleet(chaos_seed));
    core::MultiDeviceConfig config = fleet_search_config();
    config.fleet = &rolling;
    core::MultiDeviceEngine engine_a(space(), config);
    const core::MultiDeviceResult a = engine_a.run();
    EXPECT_GT(a.fleet_rounds, 0u);

    // Replay the same number of chaos rounds up front, then search: the
    // membership is "fixed" from this engine's point of view.
    hw::fleet::FleetRegistry fixed(chaos_fleet(chaos_seed));
    for (std::size_t r = 0; r < a.fleet_rounds; ++r) fixed.advance_round();
    // The search itself never mutates the registry beyond advance_round, so
    // both registries hold identical state here.
    EXPECT_EQ(fixed.to_json().dump(2), rolling.to_json().dump(2));

    core::MultiDeviceConfig config_b = fleet_search_config();
    config_b.fleet = &fixed;
    core::MultiDeviceEngine engine_b(space(), config_b);
    const core::MultiDeviceResult b = engine_b.run();

    // fleet_rounds/fleet_restarts legitimately differ between the two runs;
    // the search artifacts must not.
    const util::Json ja = core::multi_device_result_to_json(a);
    const util::Json jb = core::multi_device_result_to_json(b);
    EXPECT_EQ(ja.at("active_targets").dump(2), jb.at("active_targets").dump(2))
        << "chaos seed " << chaos_seed;
    EXPECT_EQ(ja.at("solutions").dump(2), jb.at("solutions").dump(2))
        << "chaos seed " << chaos_seed;
    EXPECT_EQ(ja.at("per_group_fronts").dump(2),
              jb.at("per_group_fronts").dump(2))
        << "chaos seed " << chaos_seed;
  }
}

TEST(FleetSearch, ResultIsByteIdenticalAcrossThreadCounts) {
  std::string reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    hw::fleet::FleetRegistry registry(chaos_fleet(0xF1EE7DEADULL));
    core::MultiDeviceConfig config = fleet_search_config();
    config.fleet = &registry;
    config.exec.threads = threads;
    core::MultiDeviceEngine engine(space(), config);
    const std::string dump =
        core::multi_device_result_to_json(engine.run()).dump(2);
    if (reference.empty()) reference = dump;
    EXPECT_EQ(dump, reference) << "threads=" << threads;
  }
}

TEST(FleetSearch, WholeGroupDeathRestartsOnSurvivingGroups) {
  // One device per target: the first chaos kill annihilates a whole group,
  // which must abandon the attempt and restart on the remaining three.
  hw::fleet::FleetConfig fleet_config;
  fleet_config.devices = 4;
  fleet_config.chaos.kill_per_round = 1;
  fleet_config.chaos.rounds = 1;
  hw::fleet::FleetRegistry registry(fleet_config);

  core::MultiDeviceConfig config = fleet_search_config();
  config.fleet = &registry;
  core::MultiDeviceEngine engine(space(), config);
  const core::MultiDeviceResult result = engine.run();
  EXPECT_EQ(result.fleet_restarts, 1u);
  EXPECT_EQ(result.active_targets.size(), 3u);
  ASSERT_EQ(result.health.size(), 4u);
  std::size_t alive = 0;
  for (const auto& entry : result.health) alive += entry.alive ? 1 : 0;
  EXPECT_EQ(alive, 3u);
  ASSERT_FALSE(result.pareto.empty());
  for (const auto& solution : result.pareto) {
    EXPECT_EQ(solution.settings.size(), 3u);
    EXPECT_EQ(solution.per_device.size(), 3u);
  }
}

TEST(FleetSearch, AllDeadDiagnosticNamesEveryDeviceAndTheFleetTally) {
  hw::fleet::FleetConfig fleet_config;
  fleet_config.devices = 4;
  hw::fleet::FleetRegistry registry(fleet_config);
  for (const auto& bdf : registry.members()) registry.kill_device(bdf);

  core::MultiDeviceConfig config = fleet_search_config();
  config.fleet = &registry;
  core::MultiDeviceEngine engine(space(), config);
  try {
    engine.run();
    FAIL() << "ran a search with zero serviceable devices";
  } catch (const hw::DeviceUnavailableError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("every configured device is unavailable"),
              std::string::npos)
        << what;
    // Fleet-mode contexts carry no robust layer, so each engine device line
    // distinguishes "never probed" from a probed-and-failed breaker.
    EXPECT_NE(what.find("never probed"), std::string::npos) << what;
    EXPECT_NE(what.find("0/4 serviceable"), std::string::npos) << what;
    EXPECT_NE(what.find("4 dead"), std::string::npos) << what;
  }
}

TEST(FleetSearch, FleetModeRejectsExplicitTargetsAndRobustConfigs) {
  hw::fleet::FleetRegistry registry(hw::fleet::FleetConfig{});
  core::MultiDeviceConfig config = fleet_search_config();
  config.fleet = &registry;
  config.targets = {hw::Target::kTx2PascalGpu};
  EXPECT_THROW(core::MultiDeviceEngine(space(), config), std::invalid_argument);
  config.targets.clear();
  config.robust.resize(4);
  EXPECT_THROW(core::MultiDeviceEngine(space(), config), std::invalid_argument);
}

TEST(FleetSearch, ChecksFleetStateIsDurablyCheckpointedAndResumable) {
  const test::ScratchDir scratch;
  const std::string path = scratch.file("fleet_search_state.json");
  std::remove(path.c_str());
  hw::fleet::FleetRegistry registry(chaos_fleet(0xF1EE7DEADULL));
  core::MultiDeviceConfig config = fleet_search_config();
  config.fleet = &registry;
  config.fleet_state_path = path;
  core::MultiDeviceEngine engine(space(), config);
  const core::MultiDeviceResult result = engine.run();
  EXPECT_GT(result.fleet_rounds, 0u);
  // The checkpoint on disk is the registry's state as of the last
  // generation boundary — resuming from it yields the same membership view.
  const hw::fleet::FleetRegistry resumed = hw::fleet::FleetRegistry::load(path);
  EXPECT_EQ(resumed.to_json().dump(2), registry.to_json().dump(2));
  std::remove(path.c_str());
}

}  // namespace
