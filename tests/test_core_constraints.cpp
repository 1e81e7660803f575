#include <gtest/gtest.h>

#include "core/hadas_engine.hpp"
#include "supernet/baselines.hpp"
#include "test_helpers.hpp"

namespace {

using namespace hadas;

const supernet::SearchSpace& space() {
  static const auto s = supernet::SearchSpace::attentive_nas();
  return s;
}

TEST(LatencyConstraint, FinalDesignsMeetTheBudget) {
  core::HadasConfig config = hadas::test::tiny_engine_config();
  config.max_latency_s = 0.025;  // 25 ms: excludes the larger half of B
  core::HadasEngine engine(space(), hw::Target::kTx2PascalGpu, config);
  const core::HadasResult result = engine.run();

  ASSERT_FALSE(result.final_pareto.empty());
  for (const auto& sol : result.final_pareto)
    EXPECT_LE(sol.static_eval.latency_s, config.max_latency_s)
        << sol.backbone.describe();
  // The static front only contains feasible backbones (some feasible ones
  // exist at this budget — a0 is ~19 ms).
  for (std::size_t idx : result.static_front)
    EXPECT_LE(result.backbones[idx].static_eval.latency_s, config.max_latency_s);
}

TEST(LatencyConstraint, IoeBudgetNotSpentOnInfeasible) {
  core::HadasConfig config = hadas::test::tiny_engine_config();
  config.max_latency_s = 0.025;
  core::HadasEngine engine(space(), hw::Target::kTx2PascalGpu, config);
  const core::HadasResult result = engine.run();
  for (const auto& outcome : result.backbones) {
    if (outcome.ioe_ran) {
      EXPECT_LE(outcome.static_eval.latency_s, config.max_latency_s);
    }
  }
}

TEST(LatencyConstraint, DisabledByDefault) {
  core::HadasConfig config = hadas::test::tiny_engine_config();
  EXPECT_LE(config.max_latency_s, 0.0);
  core::HadasEngine engine(space(), hw::Target::kTx2PascalGpu, config);
  const core::HadasResult result = engine.run();
  // Unconstrained: the accuracy extreme of the front is a big backbone, so
  // the front must stretch past what a tight 22 ms budget would allow.
  double worst = 0.0;
  for (std::size_t idx : result.static_front)
    worst = std::max(worst, result.backbones[idx].static_eval.latency_s);
  EXPECT_GT(worst, 0.022);
}

TEST(LatencyConstraint, TighterBudgetsGiveFasterFronts) {
  auto max_front_latency = [&](double budget) {
    core::HadasConfig config = hadas::test::tiny_engine_config();
    config.max_latency_s = budget;
    core::HadasEngine engine(space(), hw::Target::kTx2PascalGpu, config);
    const core::HadasResult result = engine.run();
    double worst = 0.0;
    for (std::size_t idx : result.static_front)
      worst = std::max(worst, result.backbones[idx].static_eval.latency_s);
    return worst;
  };
  EXPECT_LE(max_front_latency(0.022), 0.022);
  EXPECT_LE(max_front_latency(0.030), 0.030);
}

}  // namespace
