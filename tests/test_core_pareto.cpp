#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/pareto.hpp"
#include "util/rng.hpp"

namespace {

using namespace hadas::core;

TEST(Dominates, BasicCases) {
  EXPECT_TRUE(dominates({2.0, 2.0}, {1.0, 1.0}));
  EXPECT_TRUE(dominates({2.0, 1.0}, {1.0, 1.0}));
  EXPECT_FALSE(dominates({1.0, 1.0}, {1.0, 1.0}));  // equal: no strict gain
  EXPECT_FALSE(dominates({2.0, 0.0}, {1.0, 1.0}));  // trade-off
  EXPECT_FALSE(dominates({0.0, 0.0}, {1.0, 1.0}));
  EXPECT_THROW(dominates({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Dominates, AntisymmetryAndTransitivityRandomized) {
  hadas::util::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const Objectives a = {rng.uniform(), rng.uniform(), rng.uniform()};
    const Objectives b = {rng.uniform(), rng.uniform(), rng.uniform()};
    const Objectives c = {rng.uniform(), rng.uniform(), rng.uniform()};
    EXPECT_FALSE(dominates(a, b) && dominates(b, a));
    if (dominates(a, b) && dominates(b, c)) {
      EXPECT_TRUE(dominates(a, c));
    }
  }
}

TEST(NonDominatedSort, KnownFronts) {
  const std::vector<Objectives> points = {
      {3.0, 1.0},  // front 0
      {1.0, 3.0},  // front 0
      {2.0, 2.0},  // front 0
      {1.0, 1.0},  // front 1 (dominated by (2,2))
      {0.5, 0.5},  // front 2
  };
  const auto fronts = non_dominated_sort(points);
  ASSERT_EQ(fronts.size(), 3u);
  EXPECT_EQ(fronts[0].size(), 3u);
  EXPECT_EQ(fronts[1], (std::vector<std::size_t>{3}));
  EXPECT_EQ(fronts[2], (std::vector<std::size_t>{4}));
}

TEST(NonDominatedSort, PartitionsAllPoints) {
  hadas::util::Rng rng(2);
  std::vector<std::vector<Objectives>> inputs;
  std::vector<Objectives> uniform(60);
  for (auto& p : uniform) p = {rng.uniform(), rng.uniform()};
  inputs.push_back(uniform);
  std::vector<Objectives> grid(60);  // small integer grid: ties, duplicates
  for (auto& p : grid)
    p = {static_cast<double>(rng.uniform_index(4)),
         static_cast<double>(rng.uniform_index(4)),
         static_cast<double>(rng.uniform_index(3))};
  inputs.push_back(grid);
  std::vector<Objectives> chain, antichain, duplicates;
  for (int i = 0; i < 40; ++i) {
    chain.push_back({static_cast<double>(i % 2 ? i : 40 - i),
                     static_cast<double>(i % 2 ? i : 40 - i)});
    antichain.push_back({static_cast<double>(i), -static_cast<double>(i)});
    duplicates.push_back({1.0, 2.0, 3.0});
  }
  inputs.push_back(chain);
  inputs.push_back(antichain);
  inputs.push_back(duplicates);

  for (const auto& points : inputs) {
    const auto fronts = non_dominated_sort(points);
    std::size_t total = 0;
    for (std::size_t k = 0; k < fronts.size(); ++k) {
      const auto& front = fronts[k];
      total += front.size();
      EXPECT_TRUE(std::is_sorted(front.begin(), front.end()));
      for (std::size_t a : front)
        for (std::size_t b : front) EXPECT_FALSE(dominates(points[a], points[b]));
      // Every member of front k > 0 has a dominator in front k - 1.
      if (k == 0) continue;
      for (std::size_t idx : front) {
        bool dominated = false;
        for (std::size_t up : fronts[k - 1])
          dominated |= dominates(points[up], points[idx]);
        EXPECT_TRUE(dominated);
      }
    }
    EXPECT_EQ(total, points.size());
  }
  EXPECT_EQ(non_dominated_sort(inputs[2]).size(), 40u);  // chain: one per front
  EXPECT_EQ(non_dominated_sort(inputs[3]).size(), 1u);
  EXPECT_EQ(non_dominated_sort(inputs[4]).size(), 1u);   // equal points tie
}

TEST(NonDominatedSort, EmptyAndSingleton) {
  EXPECT_TRUE(non_dominated_sort(std::vector<Objectives>{}).empty());
  const auto fronts = non_dominated_sort(std::vector<Objectives>{{1.0, 2.0}});
  ASSERT_EQ(fronts.size(), 1u);
  EXPECT_EQ(fronts[0], (std::vector<std::size_t>{0}));
}

TEST(CrowdingDistance, BoundariesAreInfinite) {
  const std::vector<Objectives> points = {
      {1.0, 4.0}, {2.0, 3.0}, {3.0, 2.0}, {4.0, 1.0}};
  const std::vector<std::size_t> front = {0, 1, 2, 3};
  const auto dist = crowding_distance(points, front);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(dist[0], kInf);
  EXPECT_EQ(dist[3], kInf);
  EXPECT_GT(dist[1], 0.0);
  EXPECT_LT(dist[1], kInf);
  // Uniform spacing: interior distances equal.
  EXPECT_NEAR(dist[1], dist[2], 1e-12);
}

TEST(CrowdingDistance, SmallFrontsAllInfinite) {
  const std::vector<Objectives> points = {{1.0, 2.0}, {2.0, 1.0}};
  const auto dist = crowding_distance(points, {0, 1});
  EXPECT_TRUE(std::isinf(dist[0]));
  EXPECT_TRUE(std::isinf(dist[1]));
}

TEST(ParetoFront, ExtractsNonDominated) {
  const std::vector<Objectives> points = {
      {1.0, 1.0}, {3.0, 0.0}, {0.0, 3.0}, {2.0, 2.0}};
  const auto front = pareto_front(points);
  EXPECT_EQ(front.size(), 3u);  // all but (1,1)
}

TEST(Hypervolume, KnownValues2D) {
  const Objectives ref = {0.0, 0.0};
  EXPECT_NEAR(hypervolume({{2.0, 3.0}}, ref), 6.0, 1e-12);
  EXPECT_NEAR(hypervolume({{3.0, 1.0}, {1.0, 3.0}}, ref), 5.0, 1e-12);
  EXPECT_NEAR(hypervolume({{3.0, 1.0}, {1.0, 3.0}, {2.0, 2.0}}, ref), 6.0, 1e-12);
  EXPECT_NEAR(hypervolume({}, ref), 0.0, 1e-12);
}

TEST(Hypervolume, IgnoresPointsBelowReference) {
  const Objectives ref = {1.0, 1.0};
  EXPECT_NEAR(hypervolume({{0.5, 5.0}, {2.0, 2.0}}, ref), 1.0, 1e-12);
}

TEST(Hypervolume, DominatedPointsAddNothing) {
  const Objectives ref = {0.0, 0.0};
  const double base = hypervolume({{3.0, 3.0}}, ref);
  EXPECT_NEAR(hypervolume({{3.0, 3.0}, {1.0, 1.0}, {2.0, 2.5}}, ref), base, 1e-12);
}

TEST(Hypervolume, MonotoneUnderInsertion) {
  hadas::util::Rng rng(3);
  const Objectives ref = {0.0, 0.0};
  std::vector<Objectives> points;
  double prev = 0.0;
  for (int i = 0; i < 50; ++i) {
    points.push_back({rng.uniform(), rng.uniform()});
    const double hv = hypervolume(points, ref);
    EXPECT_GE(hv, prev - 1e-12);
    prev = hv;
  }
}

TEST(Hypervolume, ThreeDimensionalKnownValue) {
  const Objectives ref = {0.0, 0.0, 0.0};
  EXPECT_NEAR(hypervolume({{1.0, 2.0, 3.0}}, ref), 6.0, 1e-12);
  // Two boxes sharing a corner: HV = union volume.
  const double hv = hypervolume({{2.0, 1.0, 1.0}, {1.0, 2.0, 1.0}}, ref);
  EXPECT_NEAR(hv, 2.0 + 2.0 - 1.0, 1e-12);
}

TEST(Hypervolume, TwoDAgreesWithRecursiveND) {
  hadas::util::Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Objectives> pts2(8), pts3(8);
    for (int i = 0; i < 8; ++i) {
      const double x = rng.uniform(), y = rng.uniform();
      pts2[static_cast<std::size_t>(i)] = {x, y};
      pts3[static_cast<std::size_t>(i)] = {x, y, 1.0};  // extruded to 3-D
    }
    const double hv2 = hypervolume(pts2, {0.0, 0.0});
    const double hv3 = hypervolume(pts3, {0.0, 0.0, 0.0});
    EXPECT_NEAR(hv3, hv2, 1e-9);  // unit extrusion preserves volume
  }
}

TEST(Coverage, BasicProperties) {
  const std::vector<Objectives> strong = {{2.0, 2.0}};
  const std::vector<Objectives> weak = {{1.0, 1.0}, {0.5, 1.5}};
  EXPECT_EQ(coverage(strong, weak), 1.0);
  EXPECT_EQ(coverage(weak, strong), 0.0);
  EXPECT_EQ(coverage(strong, {}), 0.0);
  // Self-coverage is zero (no point dominates itself).
  EXPECT_EQ(coverage(strong, strong), 0.0);
}

TEST(ParetoArchive, KeepsOnlyNonDominated) {
  ParetoArchive archive;
  EXPECT_TRUE(archive.insert({1.0, 1.0}, 0));
  EXPECT_TRUE(archive.insert({2.0, 0.5}, 1));
  EXPECT_FALSE(archive.insert({0.5, 0.5}, 2));   // dominated
  EXPECT_FALSE(archive.insert({1.0, 1.0}, 3));   // duplicate
  EXPECT_TRUE(archive.insert({3.0, 3.0}, 4));    // dominates everything
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_EQ(archive.payloads()[0], 4u);
}

TEST(ParetoArchive, MatchesBatchParetoFrontRandomized) {
  hadas::util::Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Objectives> points(40);
    for (auto& p : points) p = {rng.uniform(), rng.uniform(), rng.uniform()};
    ParetoArchive archive;
    for (std::size_t i = 0; i < points.size(); ++i) archive.insert(points[i], i);
    const auto front = pareto_front(points);
    EXPECT_EQ(archive.size(), front.size());
    // Same set of payloads (order-insensitive).
    std::vector<std::size_t> a = archive.payloads(), b = front;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

}  // namespace
