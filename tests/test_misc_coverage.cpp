#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/nsga2.hpp"
#include "hw/evaluator.hpp"
#include "supernet/baselines.hpp"
#include "util/csv.hpp"
#include "test_helpers.hpp"

namespace {

using namespace hadas;

// ---------- CsvWriter ----------

TEST(CsvWriter, WritesHeaderAndRows) {
  const test::ScratchDir scratch;
  const std::string path = scratch.file("csv_test.csv");
  {
    util::CsvWriter csv(path, {"a", "b"});
    ASSERT_TRUE(csv.ok());
    csv.row(std::vector<double>{1.5, 2.0});
    csv.row(std::vector<std::string>{"x", "y"});
  }
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "a,b\n1.5,2\nx,y\n");
  std::remove(path.c_str());
}

TEST(CsvWriter, ValidatesWidths) {
  const test::ScratchDir scratch;
  const std::string path = scratch.file("csv_test2.csv");
  util::CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.row(std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(csv.row(std::vector<std::string>{"1", "2", "3"}),
               std::invalid_argument);
  EXPECT_THROW(util::CsvWriter(path, {}), std::invalid_argument);
  std::remove(path.c_str());
}

// ---------- HardwareEvaluator::layer_times ----------

TEST(LayerTimes, ScaleWithFrequencies) {
  const hw::HardwareEvaluator evaluator(
      hw::make_device(hw::Target::kAgxVoltaGpu));
  supernet::LayerCost layer;
  layer.macs = 1e9;
  layer.traffic_bytes = 10e6;
  const auto& device = evaluator.device();
  const auto fast = evaluator.layer_times(
      layer, {device.core_freqs_hz.size() - 1, device.emc_freqs_hz.size() - 1});
  const auto slow = evaluator.layer_times(layer, {0, 0});
  const double core_ratio = device.core_freqs_hz.back() / device.core_freqs_hz.front();
  const double emc_ratio = device.emc_freqs_hz.back() / device.emc_freqs_hz.front();
  EXPECT_NEAR(slow.compute_s / fast.compute_s, core_ratio, 1e-9);
  EXPECT_NEAR(slow.memory_s / fast.memory_s, emc_ratio, 1e-9);
  EXPECT_THROW(evaluator.layer_times(layer, {99, 0}), std::out_of_range);
}

// ---------- NSGA-II with three objectives ----------

class ThreeObjectiveProblem final : public core::Problem {
 public:
  std::vector<std::size_t> gene_cardinalities() const override {
    return {11, 11};
  }
  core::Objectives evaluate(const core::IntGenome& g) override {
    const double x = g[0], y = g[1];
    // Conflicting triple: maximize x, maximize y, maximize 20 - x - y.
    return {x, y, 20.0 - x - y};
  }
};

TEST(Nsga2ThreeObjectives, FrontCoversTheSimplex) {
  ThreeObjectiveProblem problem;
  core::Nsga2Config config;
  config.population = 40;
  config.generations = 20;
  config.seed = 9;
  const core::Nsga2Result result = core::Nsga2(config).run(problem);
  // Every (x, y) grid point is Pareto-optimal under this triple (all are
  // non-dominated); the front must be large and mutually non-dominated.
  EXPECT_GE(result.front.size(), 30u);
  for (const auto& a : result.front)
    for (const auto& b : result.front)
      EXPECT_FALSE(core::dominates(a.objectives, b.objectives));
  // Extremes of each objective are found.
  double best_x = 0, best_z = 0;
  for (const auto& ind : result.front) {
    best_x = std::max(best_x, ind.objectives[0]);
    best_z = std::max(best_z, ind.objectives[2]);
  }
  EXPECT_EQ(best_x, 10.0);
  EXPECT_EQ(best_z, 20.0);
}

// ---------- baselines sanity ----------

TEST(Baselines, AllSevenValidInTheSpace) {
  const auto space = supernet::SearchSpace::attentive_nas();
  const auto baselines = supernet::attentive_nas_baselines();
  ASSERT_EQ(baselines.size(), 7u);
  EXPECT_EQ(baselines.front().name, "a0");
  EXPECT_EQ(baselines.back().name, "a6");
  for (const auto& baseline : baselines)
    EXPECT_NO_THROW(supernet::encode(space, baseline.config)) << baseline.name;
  // Resolutions grow monotonically over the family.
  for (std::size_t i = 1; i < baselines.size(); ++i)
    EXPECT_GE(baselines[i].config.resolution, baselines[i - 1].config.resolution);
}

}  // namespace
