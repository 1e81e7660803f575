#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>

#include "core/serialize.hpp"
#include "supernet/baselines.hpp"
#include "test_helpers.hpp"

namespace {

using namespace hadas;
using hadas::util::Json;

TEST(Serialize, BackboneRoundTrip) {
  for (const auto& baseline : supernet::attentive_nas_baselines()) {
    const Json json = core::to_json(baseline.config);
    EXPECT_EQ(core::backbone_from_json(json), baseline.config);
    // And through text.
    EXPECT_EQ(core::backbone_from_json(Json::parse(json.dump())),
              baseline.config);
  }
}

TEST(Serialize, BackboneRejectsWrongStageCount) {
  Json json = core::to_json(supernet::baseline_a0());
  json["stages"].make_array().pop_back();
  EXPECT_THROW(core::backbone_from_json(json), std::invalid_argument);
}

TEST(Serialize, PlacementRoundTrip) {
  const dynn::ExitPlacement placement(20, {5, 9, 14});
  const auto back = core::placement_from_json(core::to_json(placement));
  EXPECT_EQ(back, placement);
  EXPECT_EQ(back.positions(), placement.positions());
}

TEST(Serialize, SettingAndEvalRoundTrip) {
  const hw::DvfsSetting setting{3, 7};
  EXPECT_EQ(core::setting_from_json(core::to_json(setting)), setting);

  core::StaticEval eval;
  eval.accuracy = 0.87;
  eval.latency_s = 0.021;
  eval.energy_j = 0.135;
  const auto back = core::static_eval_from_json(core::to_json(eval));
  EXPECT_DOUBLE_EQ(back.accuracy, eval.accuracy);
  EXPECT_DOUBLE_EQ(back.latency_s, eval.latency_s);
  EXPECT_DOUBLE_EQ(back.energy_j, eval.energy_j);
}

TEST(Serialize, DynamicMetricsRoundTrip) {
  dynn::DynamicMetrics metrics;
  metrics.score_eq5 = 0.42;
  metrics.mean_n = 0.7;
  metrics.oracle_accuracy = 0.93;
  metrics.energy_per_sample_j = 0.1;
  metrics.latency_per_sample_s = 0.02;
  metrics.energy_gain = 0.5;
  metrics.latency_gain = 0.4;
  const auto back = core::dynamic_metrics_from_json(core::to_json(metrics));
  EXPECT_DOUBLE_EQ(back.score_eq5, metrics.score_eq5);
  EXPECT_DOUBLE_EQ(back.oracle_accuracy, metrics.oracle_accuracy);
  EXPECT_DOUBLE_EQ(back.energy_gain, metrics.energy_gain);
}

TEST(Serialize, FullSearchResultRoundTripsThroughDisk) {
  const auto space = supernet::SearchSpace::attentive_nas();
  core::HadasEngine engine(space, hw::Target::kTx2PascalGpu,
                           hadas::test::tiny_engine_config());
  const core::HadasResult result = engine.run();
  ASSERT_FALSE(result.final_pareto.empty());

  const Json json = core::result_to_json(result, hw::Target::kTx2PascalGpu);
  EXPECT_EQ(json.at("device").as_string(), "TX2 Pascal GPU");
  EXPECT_EQ(json.at("final_pareto").size(), result.final_pareto.size());

  const test::ScratchDir scratch;
  const std::string path = scratch.file("serialize_test.json");
  core::save_json(path, json);
  const Json loaded = core::load_json(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded, json);

  const auto solutions = core::final_pareto_from_json(loaded);
  ASSERT_EQ(solutions.size(), result.final_pareto.size());
  for (std::size_t i = 0; i < solutions.size(); ++i) {
    EXPECT_EQ(solutions[i].backbone, result.final_pareto[i].backbone);
    EXPECT_EQ(solutions[i].placement, result.final_pareto[i].placement);
    EXPECT_EQ(solutions[i].setting, result.final_pareto[i].setting);
    EXPECT_DOUBLE_EQ(solutions[i].dynamic.energy_gain,
                     result.final_pareto[i].dynamic.energy_gain);
  }

  // Loaded designs are actionable: re-evaluating one against the engine
  // reproduces its stored metrics.
  const auto& solution = solutions.front();
  const core::InnerSolution re = engine.evaluate_dynamic(
      solution.backbone, solution.placement, solution.setting);
  EXPECT_NEAR(re.metrics.oracle_accuracy, solution.dynamic.oracle_accuracy, 1e-9);
  EXPECT_NEAR(re.metrics.energy_per_sample_j,
              solution.dynamic.energy_per_sample_j, 1e-9);
}

TEST(Serialize, LoadJsonThrowsOnMissingFile) {
  EXPECT_THROW(core::load_json("/nonexistent/path.json"), std::runtime_error);
}

// --- Double round-trip guarantees the checkpoint format leans on ----------

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double through_json_text(double v) {
  const Json parsed = Json::parse(Json(v).dump());
  return parsed.as_number();
}

TEST(Serialize, ExtremeDoublesRoundTripBitExactly) {
  const double cases[] = {
      0.0,
      -0.0,  // the sign of zero must survive (%.0f prints "-0")
      1.0,
      -1.0,
      std::numeric_limits<double>::min(),          // smallest normal
      std::numeric_limits<double>::denorm_min(),   // smallest denormal
      -std::numeric_limits<double>::denorm_min(),
      4.9406564584124654e-324,
      std::numeric_limits<double>::max(),          // largest finite
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
      1.0 + std::numeric_limits<double>::epsilon(),
      0.1,        // classic non-representable decimal
      1.0 / 3.0,
      6.02214076e23,
      1e15,       // boundary of the integer-format fast path
      1e15 - 1.0,
      -1e15,
      8.98846567431158e307,  // 2^1023
  };
  for (const double v : cases)
    EXPECT_EQ(bits_of(through_json_text(v)), bits_of(v))
        << "double " << v << " did not survive the JSON text round trip";
}

TEST(Serialize, NonFiniteDoublesAreRejectedAtDumpTime) {
  EXPECT_THROW((void)Json(std::numeric_limits<double>::quiet_NaN()).dump(),
               std::logic_error);
  EXPECT_THROW((void)Json(std::numeric_limits<double>::infinity()).dump(),
               std::logic_error);
  EXPECT_THROW((void)Json(-std::numeric_limits<double>::infinity()).dump(),
               std::logic_error);
}

TEST(Serialize, RandomDoublesRoundTripBitExactlyPropertyLoop) {
  // 1000 doubles drawn from random bit patterns: every finite one must
  // round-trip through JSON text with an identical bit pattern. Random bit
  // patterns cover denormals and extreme exponents far better than uniform
  // draws do.
  util::Rng rng(0xD0B1E5);
  std::size_t tested = 0;
  while (tested < 1000) {
    const std::uint64_t pattern = rng.next_u64();
    double v = 0.0;
    std::memcpy(&v, &pattern, sizeof(v));
    if (!std::isfinite(v)) continue;
    ++tested;
    ASSERT_EQ(bits_of(through_json_text(v)), pattern)
        << "bit pattern " << std::hex << pattern << " (value " << v
        << ") did not survive";
  }
}

}  // namespace
