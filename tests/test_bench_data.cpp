#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "bench/fig5_data.hpp"
#include "test_helpers.hpp"

namespace {

using namespace hadas;

class BenchDataTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = scratch_.file("bench_data_test");
    std::filesystem::create_directories(dir_);
    setenv("HADAS_BENCH_OUT", dir_.c_str(), 1);
  }
  void TearDown() override {
    unsetenv("HADAS_BENCH_OUT");
    std::filesystem::remove_all(dir_);
  }
  const test::ScratchDir scratch_;
  std::string dir_;
};

TEST_F(BenchDataTest, CacheRoundTrips) {
  bench::DeviceIoeData data;
  data.hadas = {{0.5, 0.8, 0.9}, {0.3, 0.85, 0.92}};
  data.baseline = {{0.4, 0.7, 0.88}};
  bench::write_fig5_cache(hw::Target::kTx2PascalGpu, data);

  bench::DeviceIoeData loaded;
  ASSERT_TRUE(bench::load_fig5_cache(hw::Target::kTx2PascalGpu, &loaded));
  ASSERT_EQ(loaded.hadas.size(), 2u);
  ASSERT_EQ(loaded.baseline.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.hadas[0].energy_gain, 0.5);
  EXPECT_DOUBLE_EQ(loaded.hadas[1].mean_n, 0.85);
  EXPECT_DOUBLE_EQ(loaded.baseline[0].oracle_acc, 0.88);
}

TEST_F(BenchDataTest, LoadFailsCleanlyOnMissingOrCorrupt) {
  bench::DeviceIoeData loaded;
  EXPECT_FALSE(bench::load_fig5_cache(hw::Target::kDenverCpu, &loaded));

  // Corrupt file: wrong source tag.
  {
    std::ofstream out(bench::fig5_cache_path(hw::Target::kDenverCpu));
    out << "source,energy_gain,mean_n,oracle_acc\nnonsense,1,2,3\n";
  }
  EXPECT_FALSE(bench::load_fig5_cache(hw::Target::kDenverCpu, &loaded));

  // Empty sections are rejected too.
  {
    std::ofstream out(bench::fig5_cache_path(hw::Target::kDenverCpu));
    out << "source,energy_gain,mean_n,oracle_acc\nhadas,1,2,3\n";
  }
  EXPECT_FALSE(bench::load_fig5_cache(hw::Target::kDenverCpu, &loaded));
}

TEST_F(BenchDataTest, FrontOfExtractsNonDominated) {
  const std::vector<bench::IoePoint> cloud = {
      {0.5, 0.5, 0.0}, {0.6, 0.4, 0.0}, {0.4, 0.6, 0.0}, {0.3, 0.3, 0.0}};
  const auto front = bench::front_of(cloud);
  EXPECT_EQ(front.size(), 3u);  // the (0.3, 0.3) point is dominated
}

TEST_F(BenchDataTest, ExperimentConfigRespectsPaperBudgetEnv) {
  unsetenv("HADAS_PAPER_BUDGET");
  const auto fast = bench::experiment_config();
  EXPECT_EQ(fast.outer_population * fast.outer_generations, 240u);
  setenv("HADAS_PAPER_BUDGET", "1", 1);
  const auto paper = bench::experiment_config();
  EXPECT_EQ(paper.outer_population * paper.outer_generations, 450u);
  EXPECT_EQ(paper.ioe.nsga.population * paper.ioe.nsga.generations, 3500u);
  unsetenv("HADAS_PAPER_BUDGET");
}

}  // namespace
