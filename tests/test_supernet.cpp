#include <gtest/gtest.h>

#include <set>

#include "supernet/accuracy.hpp"
#include "supernet/backbone.hpp"
#include "supernet/baselines.hpp"
#include "supernet/cost_model.hpp"
#include "supernet/search_space.hpp"
#include "util/rng.hpp"

namespace {

using namespace hadas::supernet;

const SearchSpace& space() {
  static const SearchSpace s = SearchSpace::attentive_nas();
  return s;
}

BackboneConfig baseline_a3_config() { return attentive_nas_baselines()[3].config; }

TEST(SearchSpace, CardinalityMatchesPaperOrder) {
  // Paper: ~2.94e11. Our reconstruction must be within an order of magnitude.
  EXPECT_GT(space().log10_cardinality(), 10.5);
  EXPECT_LT(space().log10_cardinality(), 12.5);
}

TEST(SearchSpace, GenomeLayout) {
  EXPECT_EQ(space().genome_length(), 3u + 4u * kNumStages);
  const auto card = space().gene_cardinalities();
  ASSERT_EQ(card.size(), space().genome_length());
  EXPECT_EQ(card.front(), space().resolutions.size());
  EXPECT_EQ(card.back(), space().last_widths.size());
  for (std::size_t c : card) EXPECT_GE(c, 1u);
}

TEST(SearchSpace, TableIIValueSets) {
  EXPECT_EQ(space().resolutions, (std::vector<int>{192, 224, 256, 288}));
  for (const auto& stage : space().stages) {
    for (int k : stage.kernels) EXPECT_TRUE(k == 3 || k == 5);
    for (int e : stage.expands) EXPECT_TRUE(e == 1 || e == 4 || e == 5 || e == 6);
    for (int d : stage.depths) {
      EXPECT_GE(d, 1);
      EXPECT_LE(d, 8);
    }
    for (int w : stage.widths) {
      EXPECT_GE(w, 16);
      EXPECT_LE(w, 1984);
    }
  }
}

TEST(Backbone, EncodeDecodeRoundTripBaselines) {
  for (const auto& baseline : attentive_nas_baselines()) {
    const Genome genome = encode(space(), baseline.config);
    EXPECT_TRUE(is_valid_genome(space(), genome));
    EXPECT_EQ(decode(space(), genome), baseline.config);
  }
}

TEST(Backbone, DecodeRejectsBadGenomes) {
  Genome short_genome(space().genome_length() - 1, 0);
  EXPECT_THROW(decode(space(), short_genome), std::invalid_argument);
  Genome bad(space().genome_length(), 0);
  bad[0] = 99;
  EXPECT_THROW(decode(space(), bad), std::invalid_argument);
  EXPECT_FALSE(is_valid_genome(space(), bad));
}

TEST(Backbone, EncodeRejectsForeignValues) {
  BackboneConfig config = baseline_a0();
  config.resolution = 200;  // not in {192,224,256,288}
  EXPECT_THROW(encode(space(), config), std::invalid_argument);
}

TEST(Backbone, HashDistinguishesGenomes) {
  hadas::util::Rng rng(3);
  std::set<std::uint64_t> hashes;
  for (int i = 0; i < 200; ++i)
    hashes.insert(genome_hash(random_genome(space(), rng)));
  EXPECT_GT(hashes.size(), 195u);  // near-zero collisions
}

TEST(Backbone, DescribeMentionsEveryStage) {
  const std::string desc = baseline_a0().describe();
  EXPECT_NE(desc.find("r192"), std::string::npos);
  for (int b = 1; b <= 7; ++b) {
    std::string stage = "b";  // appended: `"b" + std::string` trips -Wrestrict
    stage += std::to_string(b) + "[";
    EXPECT_NE(desc.find(stage), std::string::npos);
  }
}

TEST(Backbone, TotalLayersSumsDepths) {
  EXPECT_EQ(baseline_a0().total_layers(), 1 + 3 + 3 + 3 + 3 + 3 + 1);
  EXPECT_EQ(baseline_a6().total_layers(), 2 + 5 + 6 + 6 + 8 + 8 + 2);
}

class RandomGenomeRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGenomeRoundTrip, DecodeEncodeIsIdentity) {
  hadas::util::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const Genome genome = random_genome(space(), rng);
    ASSERT_TRUE(is_valid_genome(space(), genome));
    const BackboneConfig config = decode(space(), genome);
    EXPECT_EQ(encode(space(), config), genome);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGenomeRoundTrip,
                         ::testing::Values(1ULL, 7ULL, 1234ULL, 987654321ULL));

// ---------- cost model ----------

TEST(CostModel, StemLayersHeadStructure) {
  const CostModel cm(space());
  const NetworkCost net = cm.analyze(baseline_a0());
  ASSERT_FALSE(net.layers.empty());
  EXPECT_EQ(net.layers.front().kind, LayerKind::kStem);
  EXPECT_EQ(net.layers.back().kind, LayerKind::kHead);
  EXPECT_EQ(net.num_mbconv_layers(),
            static_cast<std::size_t>(baseline_a0().total_layers()));
  // Totals equal the per-layer sums.
  double macs = 0.0;
  for (const auto& layer : net.layers) macs += layer.macs;
  EXPECT_DOUBLE_EQ(macs, net.total_macs);
}

TEST(CostModel, SpatialResolutionShrinksMonotonically) {
  const CostModel cm(space());
  const NetworkCost net = cm.analyze(baseline_a6());
  int prev = net.layers.front().out_size;
  for (std::size_t i = 0; i < net.num_mbconv_layers(); ++i) {
    const auto& layer = net.mbconv_layer(i);
    EXPECT_LE(layer.out_size, prev);
    prev = layer.out_size;
  }
  // 288 input, stride-2 stem + 4 stride-2 stages -> 288/32 = 9 final.
  EXPECT_EQ(prev, 9);
}

TEST(CostModel, DepthFractionIsMonotoneAndBounded) {
  const CostModel cm(space());
  const NetworkCost net = cm.analyze(baseline_a3_config());
  double prev = 0.0;
  for (std::size_t i = 0; i < net.num_mbconv_layers(); ++i) {
    const double frac = net.depth_fraction(i);
    EXPECT_GT(frac, prev);
    EXPECT_LT(frac, 1.0);  // the head always remains
    prev = frac;
  }
}

struct KnobCase {
  const char* name;
  BackboneConfig (*bump)(BackboneConfig);
};

// Without this gtest prints the raw pointer bytes, so the listed test names
// changed with every run's address-space layout.
void PrintTo(const KnobCase& c, std::ostream* os) { *os << c.name; }

BackboneConfig bump_res(BackboneConfig c) { c.resolution = 224; return c; }
BackboneConfig bump_width(BackboneConfig c) { c.stages[4].width = 128; return c; }
BackboneConfig bump_depth(BackboneConfig c) { c.stages[4].depth += 1; return c; }
BackboneConfig bump_kernel(BackboneConfig c) { c.stages[4].kernel = 5; return c; }
BackboneConfig bump_expand(BackboneConfig c) { c.stages[4].expand = 6; return c; }
BackboneConfig bump_last(BackboneConfig c) { c.last_width = 1984; return c; }
BackboneConfig bump_stem(BackboneConfig c) { c.stem_width = 24; return c; }

class CostKnobSweep : public ::testing::TestWithParam<KnobCase> {};

TEST_P(CostKnobSweep, EveryKnobIncreasesMacsAndParams) {
  const CostModel cm(space());
  const BackboneConfig base = baseline_a0();
  const BackboneConfig bumped = GetParam().bump(base);
  const NetworkCost before = cm.analyze(base);
  const NetworkCost after = cm.analyze(bumped);
  EXPECT_GT(after.total_macs, before.total_macs) << GetParam().name;
  EXPECT_GE(after.total_params, before.total_params) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, CostKnobSweep,
    ::testing::Values(KnobCase{"resolution", bump_res}, KnobCase{"width", bump_width},
                      KnobCase{"depth", bump_depth}, KnobCase{"kernel", bump_kernel},
                      KnobCase{"expand", bump_expand}, KnobCase{"last", bump_last},
                      KnobCase{"stem", bump_stem}),
    [](const ::testing::TestParamInfo<KnobCase>& info) { return info.param.name; });

TEST(CostModel, ResolutionDoesNotChangeParams) {
  const CostModel cm(space());
  BackboneConfig hi = baseline_a0();
  hi.resolution = 288;
  EXPECT_DOUBLE_EQ(cm.analyze(baseline_a0()).total_params,
                   cm.analyze(hi).total_params);
}

TEST(CostModel, BaselineFamilyMonotoneInMacs) {
  const CostModel cm(space());
  double prev = 0.0;
  for (const auto& baseline : attentive_nas_baselines()) {
    const double macs = cm.analyze(baseline.config).total_macs;
    EXPECT_GT(macs, prev) << baseline.name;
    prev = macs;
  }
}

TEST(CostModel, A0MacsInAttentiveNasBallpark) {
  // AttentiveNAS a0 is ~200 MFLOPs (MACs) class at r192.
  const CostModel cm(space());
  const double macs = cm.analyze(baseline_a0()).total_macs;
  EXPECT_GT(macs, 1.0e8);
  EXPECT_LT(macs, 6.0e8);
}

TEST(CostModel, ThrowsOnDegenerateDepth) {
  const CostModel cm(space());
  BackboneConfig bad = baseline_a0();
  bad.stages[2].depth = 0;
  EXPECT_THROW(cm.analyze(bad), std::invalid_argument);
}

// ---------- accuracy surrogate ----------

TEST(AccuracySurrogate, AnchorsNearPaperValues) {
  const CostModel cm(space());
  const AccuracySurrogate surrogate(cm);
  EXPECT_NEAR(surrogate.accuracy(baseline_a0()), 0.8633, 0.011);
  EXPECT_NEAR(surrogate.accuracy(baseline_a6()), 0.8823, 0.011);
}

TEST(AccuracySurrogate, MonotoneInCapacityBeforeJitter) {
  const CostModel cm(space());
  const AccuracySurrogate surrogate(cm);
  double prev = -1e9;
  for (const auto& baseline : attentive_nas_baselines()) {
    const double cap = surrogate.capacity(baseline.config);
    EXPECT_GT(cap, prev) << baseline.name;
    prev = cap;
  }
}

TEST(AccuracySurrogate, DeterministicPerConfig) {
  const CostModel cm(space());
  const AccuracySurrogate surrogate(cm);
  EXPECT_EQ(surrogate.accuracy(baseline_a3_config()),
            surrogate.accuracy(baseline_a3_config()));
}

TEST(AccuracySurrogate, BoundedByCeiling) {
  const CostModel cm(space());
  const AccuracySurrogate surrogate(cm);
  hadas::util::Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const double acc = surrogate.accuracy(decode(space(), random_genome(space(), rng)));
    EXPECT_GT(acc, 0.0);
    EXPECT_LT(acc, surrogate.ceiling() + 0.02);
  }
}

}  // namespace
