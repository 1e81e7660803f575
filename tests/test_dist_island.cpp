// Island-model distributed search: partition/seed/round arithmetic, durable
// spec and migrant-file round trips, deterministic migrant selection, and
// the coordinator's inline mode against the plain single-process engine.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/serialize.hpp"
#include "supernet/backbone.hpp"
#include "util/rng.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "util/durable/checkpoint_chain.hpp"
#include "util/durable/durable_file.hpp"
#include "test_helpers.hpp"

namespace {

using namespace hadas;
using util::durable::DurableFile;

dist::DistSpec tiny_spec() {
  dist::DistSpec spec;
  spec.device = "tx2-gpu";
  spec.space = "attentive";
  spec.outer_population = 6;
  spec.outer_generations = 4;
  spec.ioe_backbones_per_generation = 1;
  spec.ioe_population = 8;
  spec.ioe_generations = 4;
  spec.seed = 2023;
  spec.train_size = 200;
  spec.epochs = 2;
  spec.islands = 2;
  spec.migration_every = 2;
  spec.migrants = 2;
  return spec;
}

std::string fresh_dir(const std::string& name) {
  static const test::ScratchDir scratch;
  const std::string dir = scratch.file("dist_test_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

core::HadasConfig plain_config_of(const dist::DistSpec& spec) {
  core::HadasConfig config;
  config.outer_population = spec.outer_population;
  config.outer_generations = spec.outer_generations;
  config.ioe_backbones_per_generation = spec.ioe_backbones_per_generation;
  config.ioe.nsga.population = spec.ioe_population;
  config.ioe.nsga.generations = spec.ioe_generations;
  config.seed = spec.seed;
  config.data.train_size = spec.train_size;
  config.bank.train.epochs = spec.epochs;
  config.max_latency_s = spec.max_latency_s;
  return config;
}

TEST(DistIsland, RoundArithmetic) {
  dist::DistSpec spec = tiny_spec();
  spec.outer_generations = 5;
  spec.migration_every = 2;
  EXPECT_EQ(dist::round_count(spec), 3u);  // 2 + 2 + 1 (short last round)
  EXPECT_EQ(dist::round_end_generation(spec, 0), 2u);
  EXPECT_EQ(dist::round_end_generation(spec, 1), 4u);
  EXPECT_EQ(dist::round_end_generation(spec, 2), 5u);

  spec.outer_generations = 4;
  EXPECT_EQ(dist::round_count(spec), 2u);

  spec.islands = 3;
  EXPECT_EQ(dist::inbound_neighbor(spec, 0), 2u);  // ring predecessor
  EXPECT_EQ(dist::inbound_neighbor(spec, 1), 0u);
  EXPECT_EQ(dist::inbound_neighbor(spec, 2), 1u);
}

TEST(DistIsland, PartitionCoversPopulationExactly) {
  dist::DistSpec spec = tiny_spec();
  spec.outer_population = 17;
  spec.islands = 5;
  std::size_t total = 0;
  for (std::size_t i = 0; i < spec.islands; ++i) {
    const std::size_t share = dist::island_population(spec, i);
    EXPECT_GE(share, 17u / 5u);
    EXPECT_LE(share, 17u / 5u + 1u);
    total += share;
  }
  EXPECT_EQ(total, spec.outer_population);
  // A single island owns the whole population — that run must be
  // indistinguishable from a plain search.
  spec.islands = 1;
  EXPECT_EQ(dist::island_population(spec, 0), 17u);
}

TEST(DistIsland, IslandSeedsDeterministicAndDistinct) {
  EXPECT_EQ(dist::island_seed(2023, 0, 4), dist::island_seed(2023, 0, 4));
  EXPECT_NE(dist::island_seed(2023, 0, 4), dist::island_seed(2023, 1, 4));
  EXPECT_NE(dist::island_seed(2023, 1, 4), dist::island_seed(2023, 2, 4));
  // K = 1 keeps the base seed so the run bit-matches `hadas search`.
  EXPECT_EQ(dist::island_seed(2023, 0, 1), 2023u);
}

TEST(DistIsland, SpecJsonRoundTripIsExact) {
  dist::DistSpec spec = tiny_spec();
  spec.seed = 0xDEADBEEFCAFEF00DULL;  // must survive (stored as hex string)
  spec.faults = "rate=0.05,noise=0.01";
  spec.max_latency_s = 0.0125;
  const dist::DistSpec back = dist::spec_from_json(dist::spec_to_json(spec));
  EXPECT_EQ(dist::spec_to_json(back).dump(0), dist::spec_to_json(spec).dump(0));
  EXPECT_EQ(back.seed, spec.seed);
}

TEST(DistIsland, SpecDurableRoundTripAndCorruptionTriage) {
  const std::string dir = fresh_dir("spec");
  const std::string path = dist::spec_path(dir);
  const dist::DistSpec spec = tiny_spec();
  dist::save_spec(path, spec);
  const dist::DistSpec loaded = dist::load_spec(path);
  EXPECT_EQ(dist::spec_to_json(loaded).dump(0), dist::spec_to_json(spec).dump(0));

  // Truncate: the load must throw a CheckpointCorruptError, not misparse.
  std::ofstream(path, std::ios::binary | std::ios::trunc) << "%HADAS-DURA";
  EXPECT_THROW(dist::load_spec(path),
               util::durable::CheckpointCorruptError);
}

TEST(DistIsland, ValidateSpecRejectsBrokenTopologies) {
  dist::DistSpec spec = tiny_spec();
  spec.islands = 0;
  EXPECT_THROW(dist::validate_spec(spec), std::invalid_argument);
  spec = tiny_spec();
  spec.islands = 4;  // 6 genomes cannot give 4 islands >= 2 each
  EXPECT_THROW(dist::validate_spec(spec), std::invalid_argument);
  spec = tiny_spec();
  spec.migrants = 0;
  EXPECT_THROW(dist::validate_spec(spec), std::invalid_argument);
  spec = tiny_spec();
  spec.device = "gameboy";
  EXPECT_THROW(dist::validate_spec(spec), std::invalid_argument);
  spec = tiny_spec();
  spec.migration_every = 0;
  EXPECT_THROW(dist::validate_spec(spec), std::invalid_argument);
  EXPECT_NO_THROW(dist::validate_spec(tiny_spec()));
}

TEST(DistIsland, IslandConfigLocksCadenceAndSalt) {
  const dist::DistSpec spec = tiny_spec();
  const core::HadasConfig config = dist::island_config(spec, "/w", 1);
  EXPECT_EQ(config.checkpoint_every, spec.migration_every);
  EXPECT_EQ(config.checkpoint_path, dist::chain_path("/w", 1));
  EXPECT_EQ(config.fingerprint_salt, "island:1/2");
  EXPECT_EQ(config.outer_population, dist::island_population(spec, 1));
  EXPECT_EQ(config.seed, dist::island_seed(spec.seed, 1, spec.islands));
}

TEST(DistIsland, MigrantFileRoundTripAndValidation) {
  const std::string dir = fresh_dir("migrants");
  const std::string path = dist::migrants_path(dir, 0, 1);
  dist::MigrantSet migrants;
  migrants.island = 0;
  migrants.round = 1;
  migrants.genomes = {{1, 2, 3, 0, 4}, {0, 0, 1, 2, 3}};
  dist::write_migrants_file(path, migrants);
  EXPECT_TRUE(DurableFile::holds(path, dist::kMigrantsFormatTag));
  const dist::MigrantSet back = dist::load_migrants_file(path);
  EXPECT_EQ(back.island, migrants.island);
  EXPECT_EQ(back.round, migrants.round);
  EXPECT_EQ(back.genomes, migrants.genomes);

  // Flip one payload byte: envelope validation must reject the file.
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(64);
  file.put('X');
  file.close();
  EXPECT_FALSE(DurableFile::holds(path, dist::kMigrantsFormatTag));
  EXPECT_THROW(dist::load_migrants_file(path),
               util::durable::CheckpointCorruptError);
}

TEST(DistInline, SingleIslandMatchesPlainEngine) {
  const dist::DistSpec spec = [] {
    dist::DistSpec s = tiny_spec();
    s.islands = 1;
    s.outer_generations = 2;
    return s;
  }();
  const auto space = spec.search_space();
  core::HadasEngine engine(space, spec.target(),
                           plain_config_of(spec));
  const core::HadasResult plain = engine.run();

  const std::string dir = fresh_dir("k1");
  dist::DistOptions options;
  options.spawn = false;
  dist::DistCoordinator coordinator(spec, dir, options);
  const dist::DistReport report = coordinator.run();

  const util::Json plain_json =
      core::result_to_json(plain, spec.target());
  ASSERT_FALSE(report.interrupted);
  EXPECT_EQ(report.merged.at("final_pareto").dump(0),
            plain_json.at("final_pareto").dump(0));
  EXPECT_EQ(report.merged.at("outer_evaluations").as_index(),
            plain.outer_evaluations);
  EXPECT_EQ(report.merged.at("inner_evaluations").as_index(),
            plain.inner_evaluations);
}

TEST(DistInline, TwoIslandRunIsRepeatable) {
  const dist::DistSpec spec = tiny_spec();
  dist::DistOptions options;
  options.spawn = false;
  const std::string dir_a = fresh_dir("rep_a");
  const std::string dir_b = fresh_dir("rep_b");
  const dist::DistReport a = dist::DistCoordinator(spec, dir_a, options).run();
  const dist::DistReport b = dist::DistCoordinator(spec, dir_b, options).run();
  ASSERT_FALSE(a.interrupted);
  ASSERT_FALSE(b.interrupted);
  EXPECT_EQ(a.merged.dump(2), b.merged.dump(2));
  EXPECT_GT(a.migrants_exchanged, 0u);
  EXPECT_EQ(a.migrants_exchanged, b.migrants_exchanged);
}

TEST(DistInline, MigrantFilesRegenerateByteIdentically) {
  const dist::DistSpec spec = tiny_spec();
  dist::DistOptions options;
  options.spawn = false;
  const std::string dir = fresh_dir("regen");
  const dist::DistReport report =
      dist::DistCoordinator(spec, dir, options).run();
  ASSERT_FALSE(report.interrupted);

  const auto space = spec.search_space();
  const std::string path = dist::migrants_path(dir, 0, 0);
  std::ifstream in(path, std::ios::binary);
  const std::string original((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  in.close();
  ASSERT_FALSE(original.empty());

  // A migrant file is a pure function of the sender's boundary checkpoint:
  // delete it and any process can rewrite the identical bytes from the chain.
  std::remove(path.c_str());
  EXPECT_FALSE(DurableFile::holds(path, dist::kMigrantsFormatTag));
  ASSERT_TRUE(dist::ensure_migrants_file(space, spec, dir, 0, 0));
  std::ifstream again(path, std::ios::binary);
  const std::string regenerated((std::istreambuf_iterator<char>(again)),
                                std::istreambuf_iterator<char>());
  EXPECT_EQ(regenerated, original);
}

TEST(DistInline, SelectMigrantsIsDeterministicAndBounded) {
  const dist::DistSpec spec = tiny_spec();
  dist::DistOptions options;
  options.spawn = false;
  const std::string dir = fresh_dir("select");
  ASSERT_FALSE(dist::DistCoordinator(spec, dir, options).run().interrupted);

  const util::durable::CheckpointChain chain(dist::chain_path(dir, 0),
                                             spec.checkpoint_keep);
  const auto loaded = core::load_checkpoint_chain(chain);
  ASSERT_TRUE(loaded.has_value());
  const auto space = spec.search_space();
  const auto a = dist::select_migrants(space, spec, loaded->checkpoint);
  const auto b = dist::select_migrants(space, spec, loaded->checkpoint);
  EXPECT_EQ(a, b);
  EXPECT_LE(a.size(), spec.migrants);
  EXPECT_FALSE(a.empty());
}

TEST(DistEngine, ImmigrantSpliceAppliesOnlyAtItsGeneration) {
  const dist::DistSpec spec = tiny_spec();
  const auto space = spec.search_space();
  const auto target = spec.target();

  // Segment 1: evolve to the round boundary (generation 2) with a chain.
  const std::string dir = fresh_dir("splice");
  core::HadasConfig config = plain_config_of(spec);
  config.checkpoint_path = dir + "/chain.json";
  config.checkpoint_every = 2;
  config.outer_generations = 2;
  { core::HadasEngine(space, target, config).run(); }

  // Immigrants: genomes from a different island seed.
  core::WarmStart immigrants;
  {
    util::Rng rng(dist::island_seed(spec.seed, 1, 2));
    immigrants.immigrants.push_back(supernet::random_genome(space, rng));
  }

  // Each continuation run gets its own copy of the boundary chain: the runs
  // extend to generation 4 and checkpoint as they go, so sharing one chain
  // would make later runs resume from the first run's *finished* state.
  config.outer_generations = 4;
  const auto chain_copy = [&](const std::string& name) {
    for (const char* suffix : {"", ".1", ".2", ".3"}) {
      const std::string from = dir + "/chain.json" + suffix;
      if (std::filesystem::exists(from))
        std::filesystem::copy_file(from, dir + "/" + name + ".json" + suffix,
                                   std::filesystem::copy_options::none);
    }
    return dir + "/" + name + ".json";
  };
  const auto run_resumed = [&](const std::string& name, std::size_t at) {
    core::WarmStart warm;
    if (at > 0) {
      warm = immigrants;
      warm.immigrants_at_generation = at;
    }
    core::HadasConfig continued = config;
    continued.checkpoint_path = chain_copy(name);
    core::HadasEngine engine(space, target, continued);
    return engine.run(warm);
  };
  const core::HadasResult baseline = run_resumed("baseline", 0);
  const core::HadasResult spliced = run_resumed("spliced", 2);
  const core::HadasResult mismatched = run_resumed("mismatched", 7);

  const auto dump = [&](const core::HadasResult& r) {
    return core::result_to_json(r, target).dump(0);
  };
  // Wrong boundary: the guard must ignore the immigrants entirely.
  EXPECT_EQ(dump(mismatched), dump(baseline));
  // Matching boundary: the immigrants enter the population and change the
  // evaluation stream.
  EXPECT_NE(dump(spliced), dump(baseline));
}

}  // namespace
