#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>

#include "core/nsga2.hpp"

namespace {

using namespace hadas::core;

/// Discretized bi-objective trade-off: maximize (x, 30 - x) plus a decoy
/// gene that must be maxed for both objectives. True front: every x with
/// decoy = 9.
class TradeoffProblem final : public Problem {
 public:
  std::vector<std::size_t> gene_cardinalities() const override {
    return {31, 10};
  }
  Objectives evaluate(const IntGenome& g) override {
    ++evaluations;
    const double x = g[0];
    const double bonus = g[1];
    return {x + bonus, (30.0 - x) + bonus};
  }
  std::size_t evaluations = 0;
};

/// Problem with an infeasible region handled by repair: gene 0 must be even.
class RepairedProblem final : public Problem {
 public:
  std::vector<std::size_t> gene_cardinalities() const override { return {20, 20}; }
  void repair(IntGenome& g, hadas::util::Rng&) const override {
    if (g[0] % 2 != 0) g[0] -= 1;
  }
  Objectives evaluate(const IntGenome& g) override {
    EXPECT_EQ(g[0] % 2, 0) << "repair() was bypassed";
    return {static_cast<double>(g[0]), static_cast<double>(g[1])};
  }
};

TEST(Nsga2, FindsTradeoffFrontWithDecoyMaxed) {
  TradeoffProblem problem;
  Nsga2Config config;
  config.population = 40;
  config.generations = 30;
  config.seed = 11;
  const Nsga2Result result = Nsga2(config).run(problem);
  ASSERT_FALSE(result.front.empty());
  // Every front member must have the decoy gene maxed.
  for (const auto& ind : result.front) EXPECT_EQ(ind.genome[1], 9);
  // The front should cover a broad slice of the trade-off.
  std::set<std::int32_t> xs;
  for (const auto& ind : result.front) xs.insert(ind.genome[0]);
  EXPECT_GE(xs.size(), 15u);
  // Extremes reached.
  EXPECT_TRUE(xs.count(0) == 1 || xs.count(1) == 1);
  EXPECT_TRUE(xs.count(30) == 1 || xs.count(29) == 1);
}

TEST(Nsga2, FrontIsMutuallyNonDominated) {
  TradeoffProblem problem;
  Nsga2Config config;
  config.population = 24;
  config.generations = 10;
  const Nsga2Result result = Nsga2(config).run(problem);
  for (const auto& a : result.front)
    for (const auto& b : result.front)
      EXPECT_FALSE(dominates(a.objectives, b.objectives));
}

TEST(Nsga2, DeterministicBySeed) {
  auto run = [](std::uint64_t seed) {
    TradeoffProblem problem;
    Nsga2Config config;
    config.population = 16;
    config.generations = 5;
    config.seed = seed;
    const Nsga2Result result = Nsga2(config).run(problem);
    std::vector<IntGenome> genomes;
    for (const auto& ind : result.final_population) genomes.push_back(ind.genome);
    return genomes;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(Nsga2, EvaluationBudgetIsPopulationTimesGenerationsPlusInit) {
  TradeoffProblem problem;
  Nsga2Config config;
  config.population = 10;
  config.generations = 7;
  const Nsga2Result result = Nsga2(config).run(problem);
  EXPECT_EQ(result.evaluations, 10u * 7u + 10u);
  // Distinct evaluations (history) can be smaller due to the cache.
  EXPECT_LE(result.history.size(), result.evaluations);
  EXPECT_EQ(result.final_population.size(), 10u);
}

TEST(Nsga2, HistoryHasNoDuplicateGenomes) {
  TradeoffProblem problem;
  Nsga2Config config;
  config.population = 16;
  config.generations = 10;
  const Nsga2Result result = Nsga2(config).run(problem);
  std::set<IntGenome> seen;
  for (const auto& ind : result.history) {
    EXPECT_TRUE(seen.insert(ind.genome).second) << "duplicate history entry";
  }
}

TEST(Nsga2, RepairIsAppliedEverywhere) {
  RepairedProblem problem;
  Nsga2Config config;
  config.population = 16;
  config.generations = 8;
  const Nsga2Result result = Nsga2(config).run(problem);
  for (const auto& ind : result.history) EXPECT_EQ(ind.genome[0] % 2, 0);
}

TEST(Nsga2, RespectsGeneCardinalities) {
  TradeoffProblem problem;
  Nsga2Config config;
  config.population = 16;
  config.generations = 8;
  config.mutation_prob = 0.5;  // aggressive mutation
  const Nsga2Result result = Nsga2(config).run(problem);
  for (const auto& ind : result.history) {
    EXPECT_GE(ind.genome[0], 0);
    EXPECT_LT(ind.genome[0], 31);
    EXPECT_GE(ind.genome[1], 0);
    EXPECT_LT(ind.genome[1], 10);
  }
}

TEST(Nsga2, ObserverSeesEveryGeneration) {
  TradeoffProblem problem;
  Nsga2Config config;
  config.population = 8;
  config.generations = 5;
  Nsga2 nsga(config);
  std::vector<std::size_t> generations;
  nsga.set_observer([&](std::size_t gen, const std::vector<Individual>& pop) {
    generations.push_back(gen);
    EXPECT_EQ(pop.size(), 8u);
  });
  nsga.run(problem);
  ASSERT_EQ(generations.size(), 6u);  // gens 0..5 inclusive (final snapshot)
  EXPECT_EQ(generations.front(), 0u);
  EXPECT_EQ(generations.back(), 5u);
}

TEST(Nsga2, RejectsDegenerateConfig) {
  TradeoffProblem problem;
  Nsga2Config config;
  config.population = 1;
  EXPECT_THROW(Nsga2(config).run(problem), std::invalid_argument);
}

TEST(Nsga2, BeatsRandomSearchOnEqualBudget) {
  // The decoy gene makes random search weak: NSGA-II should reach a larger
  // 2-D hypervolume than pure random sampling at the same evaluation count.
  TradeoffProblem nsga_problem;
  Nsga2Config config;
  config.population = 20;
  config.generations = 15;
  config.seed = 21;
  const Nsga2Result result = Nsga2(config).run(nsga_problem);

  TradeoffProblem random_problem;
  hadas::util::Rng rng(21);
  std::vector<Objectives> random_points;
  for (std::size_t i = 0; i < result.evaluations; ++i)
    random_points.push_back(
        random_problem.evaluate(random_problem.random_genome(rng)));

  std::vector<Objectives> nsga_points;
  for (const auto& ind : result.front) nsga_points.push_back(ind.objectives);
  const Objectives ref = {0.0, 0.0};
  EXPECT_GT(hypervolume(nsga_points, ref), hypervolume(random_points, ref));
}

// ---------- operators ----------

TEST(Operators, UniformCrossoverPreservesGenePools) {
  hadas::util::Rng rng(31);
  const IntGenome a = {0, 1, 2, 3, 4, 5};
  const IntGenome b = {5, 4, 3, 2, 1, 0};
  IntGenome c1, c2;
  uniform_crossover(a, b, c1, c2, rng);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE((c1[i] == a[i] && c2[i] == b[i]) ||
                (c1[i] == b[i] && c2[i] == a[i]));
  }
  EXPECT_THROW(uniform_crossover(a, {1, 2}, c1, c2, rng), std::invalid_argument);
}

TEST(Operators, ResetMutationChangesValueWhenItFires) {
  hadas::util::Rng rng(32);
  const std::vector<std::size_t> card = {10, 10, 10, 10};
  IntGenome g = {5, 5, 5, 5};
  reset_mutation(g, card, 1.0, rng);  // always fires
  for (std::int32_t v : g) EXPECT_NE(v, 5);
  IntGenome fixed = {0};
  reset_mutation(fixed, {1}, 1.0, rng);  // cardinality 1: no-op
  EXPECT_EQ(fixed[0], 0);
}

TEST(Operators, SelectByRankCrowdingKeepsFirstFront) {
  std::vector<Individual> candidates;
  candidates.push_back({{0}, {3.0, 1.0}});
  candidates.push_back({{1}, {1.0, 3.0}});
  candidates.push_back({{2}, {0.5, 0.5}});  // dominated
  const auto selected = select_by_rank_crowding(candidates, 2);
  ASSERT_EQ(selected.size(), 2u);
  for (const auto& ind : selected) EXPECT_NE(ind.genome[0], 2);
}

TEST(Operators, SelectByRankCrowdingPrefersSpreadWithinFront) {
  // Five points on one front; selecting 3 must keep the two extremes.
  std::vector<Individual> candidates;
  for (int i = 0; i < 5; ++i)
    candidates.push_back({{i}, {static_cast<double>(i), 4.0 - i}});
  const auto selected = select_by_rank_crowding(candidates, 3);
  std::set<std::int32_t> kept;
  for (const auto& ind : selected) kept.insert(ind.genome[0]);
  EXPECT_TRUE(kept.count(0));
  EXPECT_TRUE(kept.count(4));
}

// ---------- golden fingerprints ----------

/// Three integer objectives over small gene ranges: many exact ties, many
/// duplicate points and several non-dominated fronts per population.
class TiedGridProblem final : public Problem {
 public:
  std::vector<std::size_t> gene_cardinalities() const override {
    return {5, 5, 5, 4};
  }
  Objectives evaluate(const IntGenome& g) override {
    return {static_cast<double>(g[0] + g[3]),
            static_cast<double>(4 - g[0] + g[1] / 2),
            static_cast<double>((g[2] * (g[3] + 1)) % 5)};
  }
};

/// FNV-1a over every field of a run. All objectives are integer-valued, so
/// every double hashed here (including means and hypervolumes) is computed
/// exactly and the hash is the same on every build.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void byte(unsigned char b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void doubles(const std::vector<double>& values) {
    u64(values.size());
    for (double v : values) f64(v);
  }
  void individuals(const std::vector<Individual>& population) {
    u64(population.size());
    for (const auto& ind : population) {
      u64(ind.genome.size());
      for (std::int32_t g : ind.genome) u64(static_cast<std::uint32_t>(g));
      doubles(ind.objectives);
    }
  }
};

std::uint64_t fingerprint(const Nsga2Result& result) {
  Fnv1a fnv;
  fnv.individuals(result.final_population);
  fnv.individuals(result.front);
  fnv.individuals(result.history);
  fnv.u64(result.generations.size());
  for (const auto& stats : result.generations) {
    fnv.u64(stats.generation);
    fnv.doubles(stats.best);
    fnv.doubles(stats.mean);
    fnv.u64(stats.front_size);
    fnv.f64(stats.hypervolume);
  }
  fnv.u64(result.evaluations);
  return fnv.h;
}

/// Pins the exact populations, fronts, histories and convergence records of
/// seeded runs. Any change to selection order, tie-breaking or the RNG
/// stream moves these constants; they must only change with a deliberate
/// spec-version bump.
TEST(Nsga2, GoldenFingerprints) {
  {
    TradeoffProblem problem;
    Nsga2Config config;
    config.population = 20;
    config.generations = 15;
    config.seed = 11;
    config.hv_reference = {0.0, 0.0};
    EXPECT_EQ(fingerprint(Nsga2(config).run(problem)), 0xe04a12f9e04e67d8ULL)
        << "2-D trade-off";
  }
  {
    TiedGridProblem problem;
    Nsga2Config config;
    config.population = 24;
    config.generations = 12;
    config.seed = 5;
    config.hv_reference = {-1.0, -1.0, -1.0};
    EXPECT_EQ(fingerprint(Nsga2(config).run(problem)), 0xcf6a8ed503ced74bULL)
        << "3-D ties";
  }
  {
    TiedGridProblem problem;
    Nsga2Config config;
    config.population = 13;  // odd: the last pair's second child is dropped
    config.generations = 9;
    config.seed = 77;
    config.crossover_prob = 0.6;
    EXPECT_EQ(fingerprint(Nsga2(config).run(problem)), 0x31569147724f9813ULL)
        << "odd population";
  }
  {
    TradeoffProblem problem;
    Nsga2Config config;
    config.population = 10;
    config.generations = 6;
    config.seed = 3;
    config.initial_population = {{0, 9}, {30, 9}, {15, 0}, {15, 0}};
    EXPECT_EQ(fingerprint(Nsga2(config).run(problem)), 0x73bbbea597c752d5ULL)
        << "seeded start";
  }
  {
    hadas::util::Rng rng(99);
    std::vector<Individual> candidates;
    for (std::int32_t i = 0; i < 40; ++i) {
      candidates.push_back({{i},
                            {static_cast<double>(rng.uniform_index(6)),
                             static_cast<double>(rng.uniform_index(6)),
                             static_cast<double>(rng.uniform_index(3))}});
    }
    Fnv1a fnv;
    fnv.individuals(select_by_rank_crowding(candidates, 17));
    EXPECT_EQ(fnv.h, 0x8ed7d7bbaeb15138ULL) << "select_by_rank_crowding";
  }
}

}  // namespace

namespace hadas {
namespace {

using core::IntGenome;

/// reset_mutation with per-gene probability 1: the new value must never
/// equal the old one, must stay in range, and must be uniform over the
/// card-1 alternatives (the draw-and-shift construction is exact, not
/// approximate — but we smoke-test the distribution anyway).
TEST(ResetMutation, ExcludesCurrentValueAndIsUniform) {
  util::Rng rng(555);
  const std::vector<std::size_t> card = {5};
  std::vector<std::size_t> counts(5, 0);
  const std::size_t draws = 20000;
  for (std::size_t i = 0; i < draws; ++i) {
    IntGenome g = {2};
    core::reset_mutation(g, card, 1.0, rng);
    ASSERT_GE(g[0], 0);
    ASSERT_LT(g[0], 5);
    ASSERT_NE(g[0], 2) << "mutation returned the unchanged value";
    ++counts[static_cast<std::size_t>(g[0])];
  }
  EXPECT_EQ(counts[2], 0u);
  const double expected = static_cast<double>(draws) / 4.0;
  for (std::size_t v : {0u, 1u, 3u, 4u})
    EXPECT_NEAR(static_cast<double>(counts[v]), expected, expected * 0.05);
}

TEST(ResetMutation, CardinalityOneGeneIsNeverTouched) {
  util::Rng rng(7);
  IntGenome g = {0, 3};
  core::reset_mutation(g, {1, 7}, 1.0, rng);
  EXPECT_EQ(g[0], 0);  // no alternative value exists
  EXPECT_NE(g[1], 3);
}

}  // namespace
}  // namespace hadas
