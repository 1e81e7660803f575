#include <gtest/gtest.h>

#include "core/hadas_engine.hpp"
#include "core/serialize.hpp"
#include "hw/device.hpp"
#include "supernet/baselines.hpp"
#include "test_helpers.hpp"

namespace {

using namespace hadas;

const supernet::SearchSpace& space() {
  static const auto s = supernet::SearchSpace::attentive_nas();
  return s;
}

struct WarmFixture {
  core::HadasEngine engine{space(), hw::Target::kTx2PascalGpu,
                           hadas::test::tiny_engine_config()};
  core::HadasResult first = engine.run();
};

WarmFixture& fx() {
  static WarmFixture f;
  return f;
}

TEST(WarmStart, BuiltFromSolutionsGroupsByBackbone) {
  const core::WarmStart warm =
      core::warm_start_from_solutions(space(), fx().first.final_pareto);
  EXPECT_FALSE(warm.known.empty());
  EXPECT_EQ(warm.population.size(), warm.known.size());
  std::size_t total_solutions = 0;
  for (const auto& outcome : warm.known) {
    EXPECT_TRUE(outcome.ioe_ran);
    EXPECT_FALSE(outcome.inner_pareto.empty());
    EXPECT_GT(outcome.inner_hv, 0.0);
    total_solutions += outcome.inner_pareto.size();
  }
  EXPECT_EQ(total_solutions, fx().first.final_pareto.size());
}

TEST(WarmStart, ResumedRunKeepsKnownResultsAndExploresMore) {
  const core::WarmStart warm =
      core::warm_start_from_solutions(space(), fx().first.final_pareto);

  core::HadasConfig config = hadas::test::tiny_engine_config();
  config.seed = 991;  // different continuation
  core::HadasEngine engine(space(), hw::Target::kTx2PascalGpu, config);
  const core::HadasResult resumed = engine.run(warm);

  // All warm-started backbones are present and were not re-IOE'd as "new".
  for (const auto& outcome : warm.known) {
    bool found = false;
    for (const auto& b : resumed.backbones)
      if (b.config == outcome.config) {
        found = true;
        EXPECT_TRUE(b.ioe_ran);
      }
    EXPECT_TRUE(found);
  }
  EXPECT_GT(resumed.backbones.size(), warm.known.size());

  // The resumed front can only be at least as good: every first-run solution
  // is weakly dominated by something in the resumed front.
  for (const auto& old_sol : fx().first.final_pareto) {
    bool covered = false;
    for (const auto& new_sol : resumed.final_pareto) {
      if (new_sol.dynamic.energy_gain >= old_sol.dynamic.energy_gain - 1e-12 &&
          new_sol.dynamic.oracle_accuracy >=
              old_sol.dynamic.oracle_accuracy - 1e-12) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered);
  }
}

TEST(WarmStart, RoundTripsThroughJson) {
  const auto json =
      core::result_to_json(fx().first, hw::Target::kTx2PascalGpu);
  const auto solutions = core::final_pareto_from_json(json);
  const core::WarmStart warm = core::warm_start_from_solutions(space(), solutions);
  EXPECT_EQ(warm.known.size(),
            core::warm_start_from_solutions(space(), fx().first.final_pareto)
                .known.size());
}

TEST(WarmStart, EmptyWarmStartEqualsPlainRun) {
  core::HadasEngine engine(space(), hw::Target::kTx2PascalGpu,
                           hadas::test::tiny_engine_config());
  const core::HadasResult plain = engine.run();
  core::HadasEngine engine2(space(), hw::Target::kTx2PascalGpu,
                            hadas::test::tiny_engine_config());
  const core::HadasResult warm = engine2.run(core::WarmStart{});
  ASSERT_EQ(plain.final_pareto.size(), warm.final_pareto.size());
  for (std::size_t i = 0; i < plain.final_pareto.size(); ++i)
    EXPECT_EQ(plain.final_pareto[i].dynamic.energy_gain,
              warm.final_pareto[i].dynamic.energy_gain);
}

// ---------- generation stats (core NSGA) ----------

class StatsProblem final : public core::Problem {
 public:
  std::vector<std::size_t> gene_cardinalities() const override { return {16, 16}; }
  core::Objectives evaluate(const core::IntGenome& g) override {
    return {static_cast<double>(g[0]), static_cast<double>(g[1])};
  }
};

TEST(GenerationStats, TracksConvergence) {
  StatsProblem problem;
  core::Nsga2Config config;
  config.population = 12;
  config.generations = 8;
  config.hv_reference = {-1.0, -1.0};
  const core::Nsga2Result result = core::Nsga2(config).run(problem);

  ASSERT_EQ(result.generations.size(), 9u);  // gens 0..8 inclusive
  for (const auto& stats : result.generations) {
    ASSERT_EQ(stats.best.size(), 2u);
    EXPECT_GE(stats.best[0], stats.mean[0]);
    EXPECT_GE(stats.front_size, 1u);
    EXPECT_GT(stats.hypervolume, 0.0);
  }
  // Monotone-ish improvement: the last generation's HV must be at least the
  // first's (elitism guarantees no regression of the population front).
  EXPECT_GE(result.generations.back().hypervolume,
            result.generations.front().hypervolume);
  // And the optimum corner should be found on this trivial problem.
  EXPECT_EQ(result.generations.back().best[0], 15.0);
  EXPECT_EQ(result.generations.back().best[1], 15.0);
}

TEST(GenerationStats, HvDisabledWithoutReference) {
  StatsProblem problem;
  core::Nsga2Config config;
  config.population = 8;
  config.generations = 2;
  const core::Nsga2Result result = core::Nsga2(config).run(problem);
  for (const auto& stats : result.generations)
    EXPECT_EQ(stats.hypervolume, 0.0);
}

// ---------- IOE warm-start seeds ----------

using core::IntGenome;
using core::Objectives;

/// Warm-start seed pool: round-robin across backbones by inner-front depth,
/// deduplicated, clamped to the target genome shape.
class SeedPoolTest : public ::testing::Test {
 protected:
  static core::BackboneOutcome outcome(std::size_t total_layers,
                                       const std::vector<std::vector<std::size_t>>& fronts,
                                       bool ioe_ran = true) {
    core::BackboneOutcome out;
    out.ioe_ran = ioe_ran;
    for (const auto& exits : fronts) {
      core::InnerSolution sol{dynn::ExitPlacement(total_layers, exits),
                              hw::DvfsSetting{1, 1},
                              {},
                              {0.0, 0.0, 0.0}};
      out.inner_pareto.push_back(std::move(sol));
    }
    return out;
  }

  const hw::DeviceSpec device = hw::make_device(hw::Target::kTx2PascalGpu);
};

TEST_F(SeedPoolTest, RoundRobinAcrossBackbonesThenDepth) {
  // Two backbones of 12 layers (7 eligible positions, layers 4..10).
  std::vector<core::BackboneOutcome> outcomes = {
      outcome(12, {{4}, {5}}), outcome(12, {{6}, {7}})};
  const auto seeds = core::ioe_seed_pool(outcomes, 7, device, 8);
  ASSERT_EQ(seeds.size(), 4u);
  // Depth 0 of each backbone first, then depth 1 of each.
  EXPECT_EQ(seeds[0], (IntGenome{1, 0, 0, 0, 0, 0, 0, 1, 1}));  // exit at 4
  EXPECT_EQ(seeds[1], (IntGenome{0, 0, 1, 0, 0, 0, 0, 1, 1}));  // exit at 6
  EXPECT_EQ(seeds[2], (IntGenome{0, 1, 0, 0, 0, 0, 0, 1, 1}));  // exit at 5
  EXPECT_EQ(seeds[3], (IntGenome{0, 0, 0, 1, 0, 0, 0, 1, 1}));  // exit at 7
}

TEST_F(SeedPoolTest, SkipsBackbonesWithoutIoeAndDeduplicates) {
  std::vector<core::BackboneOutcome> outcomes = {
      outcome(12, {{4}}), outcome(12, {{9}}, /*ioe_ran=*/false),
      outcome(12, {{4}})};  // duplicate of the first after re-encoding
  const auto seeds = core::ioe_seed_pool(outcomes, 7, device, 8);
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(seeds[0][0], 1);
}

TEST_F(SeedPoolTest, TranslatesAcrossBackboneDepthsAndCaps) {
  // Source backbone has 16 layers (11 eligible); target has only 4 eligible
  // slots, so exits past the target's range are dropped by truncation.
  std::vector<core::BackboneOutcome> outcomes = {
      outcome(16, {{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}})};
  const auto seeds = core::ioe_seed_pool(outcomes, 4, device, 8);
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(seeds[0].size(), 6u);  // 4 placement bits + 2 DVFS genes
  EXPECT_EQ(seeds[0], (IntGenome{1, 1, 1, 1, 1, 1}));
  // Empty pools for degenerate inputs.
  EXPECT_TRUE(core::ioe_seed_pool(outcomes, 0, device, 8).empty());
  EXPECT_TRUE(core::ioe_seed_pool(outcomes, 4, device, 0).empty());
  // max_seeds caps the pool.
  std::vector<core::BackboneOutcome> many = {
      outcome(12, {{4}, {5}, {6}, {7}, {8}})};
  EXPECT_EQ(core::ioe_seed_pool(many, 7, device, 3).size(), 3u);
}

TEST_F(SeedPoolTest, ClampsDvfsIndicesToDeviceTables) {
  core::BackboneOutcome out;
  out.ioe_ran = true;
  out.inner_pareto.push_back(core::InnerSolution{
      dynn::ExitPlacement(12, {4}), hw::DvfsSetting{999, 999}, {}, {0.0}});
  const auto seeds = core::ioe_seed_pool({out}, 7, device, 4);
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(static_cast<std::size_t>(seeds[0][7]),
            device.core_freqs_hz.size() - 1);
  EXPECT_EQ(static_cast<std::size_t>(seeds[0][8]),
            device.emc_freqs_hz.size() - 1);
}

/// A toy 2-objective problem for exercising the NSGA-II warm-start path.
class ToyProblem final : public core::Problem {
 public:
  std::vector<std::size_t> gene_cardinalities() const override {
    return {8, 8, 8};
  }
  Objectives evaluate(const IntGenome& g) override {
    const double a = static_cast<double>(g[0] + g[1]);
    const double b = static_cast<double>(g[2]) - static_cast<double>(g[0]);
    return {a, b};
  }
};

TEST(Nsga2WarmStart, SeededRunIsDeterministicAndSeedsEnterPopulation) {
  core::Nsga2Config config;
  config.population = 8;
  config.generations = 0;  // inspect the initial population directly
  config.seed = 42;
  config.initial_population = {{7, 7, 7}, {0, 0, 7}};

  ToyProblem p1, p2;
  const auto r1 = core::Nsga2(config).run(p1);
  const auto r2 = core::Nsga2(config).run(p2);
  ASSERT_EQ(r1.final_population.size(), 8u);
  EXPECT_EQ(r1.final_population.size(), r2.final_population.size());
  for (std::size_t i = 0; i < r1.final_population.size(); ++i)
    EXPECT_EQ(r1.final_population[i].genome, r2.final_population[i].genome);

  bool saw_seed0 = false, saw_seed1 = false;
  for (const auto& ind : r1.final_population) {
    saw_seed0 |= ind.genome == IntGenome{7, 7, 7};
    saw_seed1 |= ind.genome == IntGenome{0, 0, 7};
  }
  EXPECT_TRUE(saw_seed0);
  EXPECT_TRUE(saw_seed1);
}

TEST(Nsga2WarmStart, RejectsWrongLengthSeeds) {
  core::Nsga2Config config;
  config.population = 4;
  config.generations = 1;
  config.initial_population = {{1, 2}};  // problem has 3 genes
  ToyProblem problem;
  core::Nsga2 nsga(config);
  EXPECT_THROW(nsga.run(problem), std::invalid_argument);
}

}  // namespace
