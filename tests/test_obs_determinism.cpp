// The observability hard constraint: metrics and tracing are observe-only.
// A search front and a ServeReport must be bit-identical whether the obs
// layer is off or fully on (metrics + trace sink), at any thread count.
// Fingerprints are full JSON dumps, so every double is compared exactly.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hadas_engine.hpp"
#include "core/serialize.hpp"
#include "data/sample_stream.hpp"
#include "hw/device.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/serve/supervisor.hpp"
#include "supernet/baselines.hpp"
#include "supernet/search_space.hpp"
#include "test_helpers.hpp"

namespace {

using namespace hadas;

/// Flip the whole observability layer and leave no residue between runs.
void set_obs(bool on) {
  obs::set_enabled(on);
  if (on) {
    obs::TraceSink::global().enable();
  } else {
    obs::TraceSink::global().disable();
  }
  obs::TraceSink::global().clear();
  obs::MetricsRegistry::global().reset();
}

struct ObsOffGuard {
  ~ObsOffGuard() { set_obs(false); }
};

core::HadasConfig small_search_config(std::size_t threads) {
  core::HadasConfig config;
  config.outer_population = 6;
  config.outer_generations = 2;
  config.ioe_backbones_per_generation = 2;
  config.ioe.nsga.population = 10;
  config.ioe.nsga.generations = 4;
  config.data = test::small_data();
  config.bank = test::small_bank();
  config.seed = 321;
  config.exec.threads = threads;
  return config;
}

std::string search_fingerprint(std::size_t threads) {
  const auto space = supernet::SearchSpace::attentive_nas();
  core::HadasEngine engine(space, hw::Target::kTx2PascalGpu,
                           small_search_config(threads));
  const core::HadasResult result = engine.run();
  // Exercise the end-of-run export path too: it must only *read*.
  core::export_search_metrics(engine, result);
  return core::result_to_json(result, hw::Target::kTx2PascalGpu).dump();
}

TEST(ObsDeterminism, SearchFrontIsBitIdenticalWithMetricsOnOrOff) {
  const ObsOffGuard guard;
  set_obs(false);
  const std::string baseline = search_fingerprint(1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    set_obs(false);
    EXPECT_EQ(search_fingerprint(threads), baseline)
        << "obs off, threads=" << threads;
    set_obs(true);
    EXPECT_EQ(search_fingerprint(threads), baseline)
        << "obs on, threads=" << threads;
    // The instrumentation really was live on the obs-on pass.
    EXPECT_GT(obs::MetricsRegistry::global()
                  .counter("search.generations_total")
                  .value(),
              0u);
    EXPECT_GT(obs::TraceSink::global().size(), 0u);
  }
}

TEST(ObsExport, HealthGaugesOnlyWhenTheRobustLayerIsOn) {
  const ObsOffGuard guard;
  set_obs(true);
  const auto space = supernet::SearchSpace::attentive_nas();
  const auto exported_health = [&](const core::HadasConfig& config) {
    core::HadasEngine engine(space, hw::Target::kTx2PascalGpu, config);
    core::export_search_metrics(engine, engine.run());
    return obs::MetricsRegistry::global().to_json().at("gauges").contains(
        "hw.health.measurements");
  };
  // The robust-off run goes first: registrations outlive reset().
  core::HadasConfig config = small_search_config(1);
  config.outer_generations = 1;
  EXPECT_FALSE(exported_health(config));
  config.robust.faults.transient_failure_rate = 0.05;
  EXPECT_TRUE(exported_health(config));
}

TEST(ObsExport, QueueDepthPeakOnlyWhenAPoolQueuesWork) {
  const ObsOffGuard guard;
  set_obs(true);
  const auto space = supernet::SearchSpace::attentive_nas();
  const auto exported_peak = [&](std::size_t threads) {
    core::HadasConfig config = small_search_config(threads);
    config.outer_generations = 1;
    core::HadasEngine engine(space, hw::Target::kTx2PascalGpu, config);
    core::export_search_metrics(engine, engine.run());
    return obs::MetricsRegistry::global().to_json().at("gauges").contains(
        "exec.queue_depth_peak");
  };
  // Registrations outlive reset(), so the one-thread run goes first; it
  // adds no gauge that an earlier pooled run in this process had not.
  const bool registered_before =
      obs::MetricsRegistry::global().to_json().at("gauges").contains(
          "exec.queue_depth_peak");
  EXPECT_EQ(exported_peak(1), registered_before);
  EXPECT_TRUE(exported_peak(2));
  EXPECT_GE(obs::MetricsRegistry::global()
                .gauge("exec.queue_depth_peak")
                .value(),
            1.0);
}

struct ServeHarness {
  data::SyntheticTask task{test::small_data()};
  supernet::CostModel cm{supernet::SearchSpace::attentive_nas()};
  supernet::NetworkCost cost = cm.analyze(supernet::baseline_a0());
  dynn::ExitBank bank{task, cost, 6.5, test::small_bank()};
  hw::HardwareEvaluator evaluator{hw::make_device(hw::Target::kTx2PascalGpu)};
  dynn::MultiExitCostTable table{cost, evaluator};
  hw::DvfsSetting def = hw::default_setting(evaluator.device());
  data::SampleStream stream{task, task.split_size(data::Split::kTest), 7};
  dynn::ExitPlacement placement{cost.num_mbconv_layers(), {5, 9}};
  runtime::EntropyPolicy policy{0.5};
  std::vector<runtime::serve::ServeRequest> trace;

  ServeHarness() {
    runtime::serve::TrafficConfig traffic;
    traffic.requests = 400;
    traffic.arrival_rate_hz = 300.0;
    traffic.seed = 99;
    trace = runtime::serve::poisson_trace(stream, traffic);
  }

  std::string fingerprint(std::size_t threads) const {
    runtime::serve::ServeConfig config;
    config.watchdog.overrun_factor = 3.0;
    config.degraded.enabled = true;
    config.exec.threads = threads;
    hw::FaultConfig faults;
    faults.transient_failure_rate = 0.05;
    faults.seed = 0xFEED;
    const runtime::serve::ServeSupervisor supervisor(
        bank, {{&table, def, faults}}, config);
    return supervisor.run(placement, {&policy}, trace).to_json().dump();
  }
};

TEST(ObsDeterminism, ServeReportIsBitIdenticalWithMetricsOnOrOff) {
  const ObsOffGuard guard;
  const ServeHarness harness;
  set_obs(false);
  const std::string baseline = harness.fingerprint(1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    set_obs(false);
    EXPECT_EQ(harness.fingerprint(threads), baseline)
        << "obs off, threads=" << threads;
    set_obs(true);
    EXPECT_EQ(harness.fingerprint(threads), baseline)
        << "obs on, threads=" << threads;
    EXPECT_GT(obs::MetricsRegistry::global()
                  .counter("serve.offered_total")
                  .value(),
              0u);
    // Serving spans ride the simulated clock, so they appear even here.
    EXPECT_GT(obs::TraceSink::global().size(), 0u);
  }
}

}  // namespace
