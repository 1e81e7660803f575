#include <gtest/gtest.h>

#include "core/sensitivity.hpp"
#include "supernet/baselines.hpp"

namespace {

using namespace hadas;

const core::StaticEvaluator& evaluator() {
  static const core::StaticEvaluator e(supernet::SearchSpace::attentive_nas(),
                                       hw::Target::kTx2PascalGpu);
  return e;
}

TEST(Sensitivity, GeneNamesCoverGenome) {
  const auto names = core::gene_names(evaluator().space());
  EXPECT_EQ(names.size(), evaluator().space().genome_length());
  EXPECT_EQ(names.front(), "resolution");
  EXPECT_EQ(names.back(), "last.width");
  EXPECT_NE(std::find(names.begin(), names.end(), "mb5.depth"), names.end());
}

TEST(Sensitivity, AnalyzesEveryGene) {
  const auto report =
      core::analyze_sensitivity(evaluator(), supernet::baseline_a6());
  ASSERT_EQ(report.size(), evaluator().space().genome_length());
  for (const auto& gene : report) {
    EXPECT_LT(static_cast<std::size_t>(gene.current), gene.cardinality);
    EXPECT_GE(gene.max_energy_saving_j, 0.0);
    EXPECT_GE(gene.accuracy_per_joule, 0.0);
  }
}

TEST(Sensitivity, A6CanOnlySaveByShrinking) {
  // a6 sits at (or near) the top of every choice list: every gene with more
  // than one option must offer an energy saving, and shrinking resolution
  // must be the single largest energy lever.
  const auto report =
      core::analyze_sensitivity(evaluator(), supernet::baseline_a6());
  const auto* resolution = &report.front();
  double biggest = 0.0;
  std::string biggest_name;
  for (const auto& gene : report) {
    if (gene.cardinality > 1) {
      EXPECT_GT(gene.max_energy_saving_j, 0.0) << gene.name;
    }
    if (gene.max_energy_saving_j > biggest) {
      biggest = gene.max_energy_saving_j;
      biggest_name = gene.name;
    }
  }
  EXPECT_EQ(biggest_name, "resolution");
  EXPECT_GT(resolution->max_accuracy_drop, 0.0);
}

TEST(Sensitivity, A0HasNoEnergySavingLeft) {
  // a0 is the smallest subnet of the family: no single-gene change can make
  // it cheaper (every alternative grows the network).
  const auto report =
      core::analyze_sensitivity(evaluator(), supernet::baseline_a0());
  for (const auto& gene : report)
    EXPECT_LT(gene.max_energy_saving_j, 1e-9) << gene.name;
}

TEST(Sensitivity, SingleChoiceGenesAreInert) {
  const auto report =
      core::analyze_sensitivity(evaluator(), supernet::baseline_a6());
  for (const auto& gene : report) {
    if (gene.cardinality == 1) {
      EXPECT_EQ(gene.max_accuracy_drop, 0.0);
      EXPECT_EQ(gene.max_energy_saving_j, 0.0);
    }
  }
}

}  // namespace
