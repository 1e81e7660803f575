// Failure injection: degenerate configurations, truncated/corrupt persisted
// state, and hostile inputs must fail loudly (exceptions) or degrade to
// well-defined empty results — never crash or silently mis-compute.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "core/multi_device.hpp"
#include "core/serialize.hpp"
#include "supernet/baselines.hpp"
#include "test_helpers.hpp"

namespace {

using namespace hadas;

const supernet::SearchSpace& space() {
  static const auto s = supernet::SearchSpace::attentive_nas();
  return s;
}

TEST(FailureInjection, ZeroGenerationEngineRunIsEmptyButValid) {
  core::HadasConfig config = hadas::test::tiny_engine_config();
  config.outer_generations = 0;
  core::HadasEngine engine(space(), hw::Target::kTx2PascalGpu, config);
  const core::HadasResult result = engine.run();
  EXPECT_TRUE(result.backbones.empty());
  EXPECT_TRUE(result.static_front.empty());
  EXPECT_TRUE(result.final_pareto.empty());
  EXPECT_EQ(result.inner_evaluations, 0u);
}

TEST(FailureInjection, ZeroIoePerGenerationStillSearchesStatically) {
  core::HadasConfig config = hadas::test::tiny_engine_config();
  config.ioe_backbones_per_generation = 0;
  core::HadasEngine engine(space(), hw::Target::kTx2PascalGpu, config);
  const core::HadasResult result = engine.run();
  EXPECT_FALSE(result.backbones.empty());
  EXPECT_FALSE(result.static_front.empty());
  EXPECT_TRUE(result.final_pareto.empty());  // nothing was IOE'd
}

TEST(FailureInjection, ImpossibleLatencyBudgetYieldsNoIoeRuns) {
  core::HadasConfig config = hadas::test::tiny_engine_config();
  config.max_latency_s = 1e-6;  // nothing in B is this fast
  core::HadasEngine engine(space(), hw::Target::kTx2PascalGpu, config);
  const core::HadasResult result = engine.run();
  for (const auto& outcome : result.backbones) EXPECT_FALSE(outcome.ioe_ran);
  EXPECT_TRUE(result.final_pareto.empty());
}

TEST(FailureInjection, DegenerateDataConfigsThrow) {
  data::DataConfig one_class;
  one_class.num_classes = 1;
  EXPECT_THROW(data::SyntheticTask{one_class}, std::invalid_argument);
  data::DataConfig no_dim;
  no_dim.feature_dim = 0;
  EXPECT_THROW(data::SyntheticTask{no_dim}, std::invalid_argument);
  data::DataConfig empty_train;
  empty_train.train_size = 0;
  EXPECT_THROW(data::SyntheticTask{empty_train}, std::invalid_argument);
}

TEST(FailureInjection, TruncatedResultFileFailsCleanly) {
  // Write a valid result, truncate it at several byte offsets, and verify
  // every prefix produces a parse exception rather than garbage solutions.
  core::HadasEngine engine(space(), hw::Target::kTx2PascalGpu,
                           hadas::test::tiny_engine_config());
  const core::HadasResult result = engine.run();
  const std::string full =
      core::result_to_json(result, hw::Target::kTx2PascalGpu).dump(2);
  const test::ScratchDir scratch;
  const std::string path = scratch.file("truncated.json");
  for (double fraction : {0.1, 0.5, 0.9, 0.99}) {
    {
      std::ofstream out(path);
      out << full.substr(0, static_cast<std::size_t>(full.size() * fraction));
    }
    EXPECT_THROW(core::final_pareto_from_json(core::load_json(path)),
                 std::exception)
        << "fraction " << fraction;
  }
  std::remove(path.c_str());
}

TEST(FailureInjection, TamperedResultFieldsAreRejected) {
  core::HadasEngine engine(space(), hw::Target::kTx2PascalGpu,
                           hadas::test::tiny_engine_config());
  const core::HadasResult result = engine.run();
  ASSERT_FALSE(result.final_pareto.empty());
  auto json = core::result_to_json(result, hw::Target::kTx2PascalGpu);

  // Exit layer out of range for the stored backbone.
  auto tampered = json;
  tampered["final_pareto"].make_array()[0]["placement"]["exits"]
      .make_array()
      .push_back(util::Json(10000));
  EXPECT_THROW(core::final_pareto_from_json(tampered), std::exception);

  // Stage list of the wrong length.
  auto tampered2 = json;
  tampered2["final_pareto"].make_array()[0]["backbone"]["stages"]
      .make_array()
      .pop_back();
  EXPECT_THROW(core::final_pareto_from_json(tampered2), std::exception);

  // Negative index where a DVFS index belongs.
  auto tampered3 = json;
  tampered3["final_pareto"].make_array()[0]["setting"]["core_idx"] =
      util::Json(-3);
  EXPECT_THROW(core::final_pareto_from_json(tampered3), std::exception);
}

TEST(FailureInjection, FullFailureRateFailsLoudly) {
  // A rig that never answers must abort the search with a clear exception
  // (MeasurementError until the breaker trips, DeviceUnavailableError
  // after), not hang, crash, or return a fabricated front.
  core::HadasConfig config = hadas::test::tiny_engine_config();
  config.robust.faults.transient_failure_rate = 1.0;
  core::HadasEngine engine(space(), hw::Target::kTx2PascalGpu, config);
  try {
    (void)engine.run();
    FAIL() << "a 100% failure rate must not produce a result";
  } catch (const hw::DeviceUnavailableError& e) {
    EXPECT_NE(std::string(e.what()).find("circuit breaker"), std::string::npos);
  } catch (const hw::MeasurementError& e) {
    EXPECT_NE(std::string(e.what()).find("attempts"), std::string::npos);
  }
}

TEST(FailureInjection, TransientFaultsConvergeToTheCleanFront) {
  // 5% transient failures with no measurement noise: every retried
  // measurement recovers the exact clean value, so the whole search —
  // static front, IOE results, final Pareto set — is bit-identical to the
  // fault-free run.
  core::HadasConfig clean_config = hadas::test::tiny_engine_config();
  core::HadasConfig faulty_config = clean_config;
  faulty_config.robust.faults.transient_failure_rate = 0.05;

  core::HadasEngine clean(space(), hw::Target::kTx2PascalGpu, clean_config);
  core::HadasEngine faulty(space(), hw::Target::kTx2PascalGpu, faulty_config);
  const core::HadasResult a = clean.run();
  const core::HadasResult b = faulty.run();

  EXPECT_GT(b.device_health.transient_failures, 0u);  // faults really fired
  EXPECT_EQ(b.device_health.failed_measurements, 0u);
  EXPECT_EQ(a.static_front, b.static_front);
  ASSERT_EQ(a.backbones.size(), b.backbones.size());
  for (std::size_t i = 0; i < a.backbones.size(); ++i) {
    EXPECT_EQ(a.backbones[i].static_eval.latency_s,
              b.backbones[i].static_eval.latency_s);
    EXPECT_EQ(a.backbones[i].static_eval.energy_j,
              b.backbones[i].static_eval.energy_j);
    EXPECT_EQ(a.backbones[i].inner_hv, b.backbones[i].inner_hv);
  }
  ASSERT_EQ(a.final_pareto.size(), b.final_pareto.size());
  for (std::size_t i = 0; i < a.final_pareto.size(); ++i) {
    EXPECT_EQ(a.final_pareto[i].backbone, b.final_pareto[i].backbone);
    EXPECT_EQ(a.final_pareto[i].placement, b.final_pareto[i].placement);
    EXPECT_EQ(a.final_pareto[i].dynamic.energy_gain,
              b.final_pareto[i].dynamic.energy_gain);
    EXPECT_EQ(a.final_pareto[i].dynamic.oracle_accuracy,
              b.final_pareto[i].dynamic.oracle_accuracy);
  }
}

TEST(FailureInjection, ModerateFaultRateStillCompletesWithNonEmptyFront) {
  core::HadasConfig config = hadas::test::tiny_engine_config();
  config.robust.faults.transient_failure_rate = 0.05;
  config.robust.faults.nan_rate = 0.02;
  config.robust.faults.noise_sigma = 0.01;
  core::HadasEngine engine(space(), hw::Target::kTx2PascalGpu, config);
  const core::HadasResult result = engine.run();
  EXPECT_FALSE(result.final_pareto.empty());
  EXPECT_FALSE(result.static_front.empty());
  EXPECT_GT(result.device_health.measurements, 0u);
  EXPECT_EQ(result.device_health.state, hw::BreakerState::kClosed);
  for (const auto& outcome : result.backbones) {
    EXPECT_TRUE(std::isfinite(outcome.static_eval.latency_s));
    EXPECT_TRUE(std::isfinite(outcome.static_eval.energy_j));
  }
}

TEST(FailureInjection, DeadDeviceDegradesMultiDeviceRunGracefully) {
  core::MultiDeviceConfig config;
  config.targets = {hw::Target::kTx2PascalGpu, hw::Target::kAgxVoltaGpu};
  config.outer_population = 6;
  config.outer_generations = 2;
  config.inner_backbones = 1;
  config.inner_nsga.population = 10;
  config.inner_nsga.generations = 4;
  config.data = hadas::test::small_data();
  config.bank = hadas::test::small_bank();
  config.robust.resize(2);
  config.robust[1].faults.transient_failure_rate = 1.0;  // AGX is dead

  core::MultiDeviceEngine engine(space(), config);
  const core::MultiDeviceResult result = engine.run();

  // The dead device was dropped, the survivor searched to completion.
  ASSERT_EQ(result.active_targets.size(), 1u);
  EXPECT_EQ(result.active_targets[0], hw::Target::kTx2PascalGpu);
  EXPECT_FALSE(result.pareto.empty());
  for (const auto& sol : result.pareto) {
    EXPECT_EQ(sol.settings.size(), 1u);
    EXPECT_EQ(sol.per_device.size(), 1u);
  }
  // And the health report names the casualty.
  ASSERT_EQ(result.health.size(), 2u);
  EXPECT_TRUE(result.health[0].alive);
  EXPECT_FALSE(result.health[1].alive);
  EXPECT_EQ(result.health[1].report.state, hw::BreakerState::kOpen);
  EXPECT_GT(result.health[1].report.breaker_trips, 0u);
  EXPECT_GT(result.health[1].report.failed_measurements, 0u);
}

TEST(FailureInjection, AllDevicesDeadThrowsDeviceUnavailable) {
  core::MultiDeviceConfig config;
  config.targets = {hw::Target::kTx2PascalGpu, hw::Target::kAgxVoltaGpu};
  config.outer_population = 4;
  config.outer_generations = 1;
  config.data = hadas::test::small_data();
  config.bank = hadas::test::small_bank();
  config.robust.resize(2);
  config.robust[0].faults.transient_failure_rate = 1.0;
  config.robust[1].faults.transient_failure_rate = 1.0;
  core::MultiDeviceEngine engine(space(), config);
  EXPECT_THROW((void)engine.run(), hw::DeviceUnavailableError);
}

TEST(FailureInjection, MismatchedRobustConfigCountIsRejected) {
  core::MultiDeviceConfig config;
  config.targets = {hw::Target::kTx2PascalGpu, hw::Target::kAgxVoltaGpu};
  config.robust.resize(1);  // 1 config for 2 targets
  EXPECT_THROW(core::MultiDeviceEngine(space(), config),
               std::invalid_argument);
}

TEST(FailureInjection, NonFiniteStaticEvalIsRejectedBeforeRanking) {
  core::StaticEval eval;
  eval.accuracy = 0.9;
  eval.latency_s = std::numeric_limits<double>::quiet_NaN();
  eval.energy_j = 0.1;
  EXPECT_THROW(core::validate_finite(eval), hw::MeasurementError);
  eval.latency_s = 0.01;
  EXPECT_NO_THROW(core::validate_finite(eval));
  eval.energy_j = std::numeric_limits<double>::infinity();
  EXPECT_THROW(core::validate_finite(eval), hw::MeasurementError);
}

TEST(FailureInjection, WarmStartWithForeignSpaceGenomeIsDropped) {
  // A warm-start population genome from a different space (wrong length) is
  // silently skipped rather than decoded out of bounds.
  core::WarmStart warm;
  warm.population.push_back(supernet::Genome{1, 2, 3});  // wrong length
  core::HadasEngine engine(space(), hw::Target::kTx2PascalGpu,
                           hadas::test::tiny_engine_config());
  const core::HadasResult result = engine.run(warm);
  EXPECT_FALSE(result.backbones.empty());
}

}  // namespace
