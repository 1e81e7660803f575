#include <gtest/gtest.h>

#include <cmath>
#include "data/sample_stream.hpp"
#include "hw/thermal.hpp"
#include "runtime/sustained.hpp"
#include "supernet/baselines.hpp"
#include "test_helpers.hpp"

namespace {

using namespace hadas;

TEST(Thermal, StartsAtAmbientUnthrottled) {
  const hw::ThermalModel model{hw::ThermalConfig{}};
  EXPECT_DOUBLE_EQ(model.temperature_c(), model.config().ambient_c);
  EXPECT_FALSE(model.throttled());
}

TEST(Thermal, ValidatesConfigAndInputs) {
  hw::ThermalConfig bad;
  bad.resume_temp_c = 90.0;
  bad.throttle_temp_c = 85.0;
  EXPECT_THROW(hw::ThermalModel{bad}, std::invalid_argument);
  hw::ThermalModel model{hw::ThermalConfig{}};
  EXPECT_THROW(model.step(-1.0, 0.1), std::invalid_argument);
  EXPECT_THROW(model.step(1.0, -0.1), std::invalid_argument);
}

TEST(Thermal, ApproachesSteadyStateExponentially) {
  hw::ThermalModel model{hw::ThermalConfig{}};
  const double power = 10.0;
  const double target = model.steady_state_c(power);
  // After one time constant: ~63% of the way.
  model.step(power, model.config().time_constant_s);
  const double expected =
      target + (model.config().ambient_c - target) * std::exp(-1.0);
  EXPECT_NEAR(model.temperature_c(), expected, 1e-9);
  // After many time constants: at steady state.
  model.step(power, model.config().time_constant_s * 20.0);
  EXPECT_NEAR(model.temperature_c(), target, 1e-6);
}

TEST(Thermal, StepIsCompositional) {
  // Two half-steps equal one full step (exact exponential update).
  hw::ThermalModel one{hw::ThermalConfig{}}, two{hw::ThermalConfig{}};
  one.step(8.0, 10.0);
  two.step(8.0, 5.0);
  two.step(8.0, 5.0);
  EXPECT_NEAR(one.temperature_c(), two.temperature_c(), 1e-12);
}

TEST(Thermal, ThrottleHysteresis) {
  hw::ThermalConfig config;
  config.throttle_temp_c = 60.0;
  config.resume_temp_c = 50.0;
  config.thermal_resistance_c_per_w = 10.0;  // 10 W -> 125 C steady state
  hw::ThermalModel model{config};
  // Heat up past the throttle point.
  while (!model.throttled()) model.step(10.0, 1.0);
  EXPECT_GE(model.temperature_c(), config.throttle_temp_c);
  // Cooling: stays throttled inside the hysteresis band...
  while (model.temperature_c() > config.resume_temp_c + 1.0) {
    model.step(0.0, 1.0);
    if (model.temperature_c() > config.resume_temp_c) {
      EXPECT_TRUE(model.throttled());
    }
  }
  // ...and resumes below it.
  while (model.temperature_c() > config.resume_temp_c) model.step(0.0, 0.5);
  model.step(0.0, 0.1);
  EXPECT_FALSE(model.throttled());
}

TEST(Thermal, ResetRestoresAmbient) {
  hw::ThermalModel model{hw::ThermalConfig{}};
  model.step(20.0, 100.0);
  model.reset();
  EXPECT_DOUBLE_EQ(model.temperature_c(), model.config().ambient_c);
  EXPECT_FALSE(model.throttled());
}

// ---------- sustained deployment ----------

struct SustainedFixture {
  data::SyntheticTask task{hadas::test::small_data()};
  supernet::CostModel cm{supernet::SearchSpace::attentive_nas()};
  supernet::NetworkCost cost = cm.analyze(supernet::baseline_a6());
  dynn::ExitBank bank{task, cost, 8.0, hadas::test::small_bank()};
  hw::HardwareEvaluator evaluator{hw::make_device(hw::Target::kTx2PascalGpu)};
  dynn::MultiExitCostTable table{cost, evaluator};
  std::size_t layers = cost.num_mbconv_layers();
  dynn::ExitPlacement placement{layers, {6, 12, 20}};
  data::SampleStream stream{task, 800, 21};

  hw::ThermalConfig tight_thermal() const {
    hw::ThermalConfig config;
    config.throttle_temp_c = 60.0;   // easy to trip at max frequency
    config.resume_temp_c = 55.0;
    config.thermal_resistance_c_per_w = 5.0;
    config.time_constant_s = 2.0;
    config.throttled_core_idx = 3;
    return config;
  }
};

SustainedFixture& fx() {
  static SustainedFixture f;
  return f;
}

TEST(Sustained, MaxFrequencyThrottlesUnderTightEnvelope) {
  const runtime::SustainedDeployment sim(fx().bank, fx().table, fx().tight_thermal());
  const runtime::EntropyPolicy policy(0.4);
  const auto report = sim.run(fx().placement,
                              hw::default_setting(fx().evaluator.device()),
                              policy, fx().stream);
  EXPECT_EQ(report.samples, fx().stream.size());
  EXPECT_GT(report.throttled_fraction, 0.3);
  EXPECT_GT(report.peak_temperature_c, 60.0);
  EXPECT_GT(report.throughput_sps, 0.0);
}

TEST(Sustained, CoolerSettingAvoidsThrottling) {
  const runtime::SustainedDeployment sim(fx().bank, fx().table, fx().tight_thermal());
  const runtime::EntropyPolicy policy(0.4);
  // A mid-frequency setting dissipates less: it should stay (mostly) cool.
  const hw::DvfsSetting mid{4, fx().evaluator.device().emc_freqs_hz.size() - 1};
  const auto report = sim.run(fx().placement, mid, policy, fx().stream);
  EXPECT_LT(report.throttled_fraction, 0.05);
  EXPECT_LT(report.peak_temperature_c, 62.0);
}

TEST(Sustained, AccuracyUnaffectedByThrottling) {
  // DVFS changes latency/energy, never predictions.
  const runtime::SustainedDeployment sim(fx().bank, fx().table, fx().tight_thermal());
  const runtime::EntropyPolicy policy(0.4);
  const auto hot = sim.run(fx().placement,
                           hw::default_setting(fx().evaluator.device()), policy,
                           fx().stream);
  const auto cool = sim.run(fx().placement, {4, 10}, policy, fx().stream);
  EXPECT_DOUBLE_EQ(hot.accuracy, cool.accuracy);
}

TEST(Sustained, GenerousEnvelopeNeverThrottles) {
  const runtime::SustainedDeployment sim(fx().bank, fx().table,
                                         hw::ThermalConfig{});  // 85 C limit
  const runtime::EntropyPolicy policy(0.4);
  const auto report = sim.run(fx().placement,
                              hw::default_setting(fx().evaluator.device()),
                              policy, fx().stream);
  EXPECT_DOUBLE_EQ(report.throttled_fraction, 0.0);
}

TEST(Sustained, RejectsEmptyPlacement) {
  const runtime::SustainedDeployment sim(fx().bank, fx().table, fx().tight_thermal());
  const runtime::EntropyPolicy policy(0.4);
  EXPECT_THROW(sim.run(dynn::ExitPlacement(fx().layers),
                       hw::default_setting(fx().evaluator.device()), policy,
                       fx().stream),
               std::invalid_argument);
}

}  // namespace
