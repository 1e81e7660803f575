// Search checkpoint/resume: a killed search restarted from its last
// generation snapshot must reproduce the uninterrupted run bit-identically,
// and checkpoints from a different configuration must be refused.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <vector>

#include "core/serialize.hpp"
#include "test_helpers.hpp"
#include "util/durable/checkpoint_chain.hpp"
#include "util/rng.hpp"

namespace {

using namespace hadas;

const supernet::SearchSpace& space() {
  static const auto s = supernet::SearchSpace::attentive_nas();
  return s;
}

core::HadasConfig small_config() {
  core::HadasConfig config = hadas::test::tiny_engine_config();
  config.outer_population = 6;
  config.outer_generations = 3;
  config.ioe.nsga.population = 10;
  config.ioe.nsga.generations = 4;
  return config;
}

void expect_identical(const core::HadasResult& a, const core::HadasResult& b) {
  EXPECT_EQ(a.outer_evaluations, b.outer_evaluations);
  EXPECT_EQ(a.inner_evaluations, b.inner_evaluations);
  EXPECT_EQ(a.static_front, b.static_front);
  ASSERT_EQ(a.backbones.size(), b.backbones.size());
  for (std::size_t i = 0; i < a.backbones.size(); ++i) {
    EXPECT_EQ(a.backbones[i].config, b.backbones[i].config);
    EXPECT_EQ(a.backbones[i].ioe_ran, b.backbones[i].ioe_ran);
    // Exact double equality: the resumed path must not perturb a single bit.
    EXPECT_EQ(a.backbones[i].static_eval.accuracy,
              b.backbones[i].static_eval.accuracy);
    EXPECT_EQ(a.backbones[i].static_eval.latency_s,
              b.backbones[i].static_eval.latency_s);
    EXPECT_EQ(a.backbones[i].static_eval.energy_j,
              b.backbones[i].static_eval.energy_j);
    EXPECT_EQ(a.backbones[i].inner_hv, b.backbones[i].inner_hv);
  }
  ASSERT_EQ(a.final_pareto.size(), b.final_pareto.size());
  for (std::size_t i = 0; i < a.final_pareto.size(); ++i) {
    EXPECT_EQ(a.final_pareto[i].backbone, b.final_pareto[i].backbone);
    EXPECT_EQ(a.final_pareto[i].placement, b.final_pareto[i].placement);
    EXPECT_EQ(a.final_pareto[i].setting, b.final_pareto[i].setting);
    EXPECT_EQ(a.final_pareto[i].dynamic.energy_gain,
              b.final_pareto[i].dynamic.energy_gain);
    EXPECT_EQ(a.final_pareto[i].dynamic.oracle_accuracy,
              b.final_pareto[i].dynamic.oracle_accuracy);
  }
}

TEST(Checkpoint, RngStateRoundTripsThroughJson) {
  util::Rng rng(991);
  for (int i = 0; i < 37; ++i) (void)rng.next_u64();
  (void)rng.normal();  // leave a cached Box–Muller value in the state
  const util::Rng::State state = rng.state();
  const util::Rng::State restored =
      core::rng_state_from_json(core::to_json(state));
  util::Rng copy = util::Rng::from_state(restored);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_u64(), copy.next_u64());
  for (int i = 0; i < 9; ++i) EXPECT_EQ(rng.normal(), copy.normal());
}

TEST(Checkpoint, CheckpointJsonRoundTripIsExact) {
  // Run a tiny search to get a real checkpoint on disk, then round-trip it.
  const test::ScratchDir scratch;
  const std::string path = scratch.file("ckpt_roundtrip.json");
  std::remove(path.c_str());
  core::HadasConfig config = small_config();
  config.outer_generations = 2;
  config.checkpoint_path = path;
  core::HadasEngine engine(space(), hw::Target::kTx2PascalGpu, config);
  (void)engine.run();

  const core::SearchCheckpoint ck = core::load_checkpoint(path);
  EXPECT_EQ(ck.next_generation, 2u);
  EXPECT_EQ(ck.fingerprint, core::checkpoint_fingerprint(space(), config));
  EXPECT_FALSE(ck.population.empty());
  EXPECT_FALSE(ck.backbones.empty());

  const core::SearchCheckpoint again =
      core::checkpoint_from_json(core::checkpoint_to_json(ck));
  EXPECT_EQ(again.fingerprint, ck.fingerprint);
  EXPECT_EQ(again.next_generation, ck.next_generation);
  EXPECT_EQ(again.rng.words, ck.rng.words);
  EXPECT_EQ(again.population, ck.population);
  ASSERT_EQ(again.backbones.size(), ck.backbones.size());
  for (std::size_t i = 0; i < ck.backbones.size(); ++i) {
    EXPECT_EQ(again.backbones[i].config, ck.backbones[i].config);
    EXPECT_EQ(again.backbones[i].static_eval.accuracy,
              ck.backbones[i].static_eval.accuracy);
    EXPECT_EQ(again.backbones[i].static_eval.latency_s,
              ck.backbones[i].static_eval.latency_s);
    EXPECT_EQ(again.backbones[i].static_eval.energy_j,
              ck.backbones[i].static_eval.energy_j);
    EXPECT_EQ(again.backbones[i].inner_hv, ck.backbones[i].inner_hv);
    EXPECT_EQ(again.backbones[i].inner_pareto.size(),
              ck.backbones[i].inner_pareto.size());
    EXPECT_EQ(again.backbones[i].inner_history.size(),
              ck.backbones[i].inner_history.size());
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, KillAndResumeReproducesUninterruptedRunExactly) {
  const test::ScratchDir scratch;
  const std::string path = scratch.file("ckpt_resume.json");
  std::remove(path.c_str());

  // Reference: 3 generations straight through, no checkpointing.
  core::HadasEngine reference(space(), hw::Target::kTx2PascalGpu,
                              small_config());
  const core::HadasResult uninterrupted = reference.run();

  // "Killed" run: same config but stopped after 2 of 3 generations, leaving
  // its generation-2 checkpoint behind.
  core::HadasConfig killed_config = small_config();
  killed_config.outer_generations = 2;
  killed_config.checkpoint_path = path;
  core::HadasEngine killed(space(), hw::Target::kTx2PascalGpu, killed_config);
  (void)killed.run();

  // Resume: a fresh engine with the full budget picks the checkpoint up and
  // replays only generation 3.
  core::HadasConfig resume_config = small_config();
  resume_config.checkpoint_path = path;
  core::HadasEngine resumed_engine(space(), hw::Target::kTx2PascalGpu,
                                   resume_config);
  const core::HadasResult resumed = resumed_engine.run();
  EXPECT_EQ(resumed.resumed_from_generation, 2u);
  ASSERT_FALSE(resumed.final_pareto.empty());
  expect_identical(uninterrupted, resumed);
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeAfterCompletionReturnsSameResult) {
  const test::ScratchDir scratch;
  const std::string path = scratch.file("ckpt_rerun.json");
  std::remove(path.c_str());
  core::HadasConfig config = small_config();
  config.checkpoint_path = path;
  core::HadasEngine first(space(), hw::Target::kTx2PascalGpu, config);
  const core::HadasResult a = first.run();
  // A second engine sees the final checkpoint, replays nothing, and still
  // reconstructs the identical result.
  core::HadasEngine second(space(), hw::Target::kTx2PascalGpu, config);
  const core::HadasResult b = second.run();
  EXPECT_EQ(b.resumed_from_generation, config.outer_generations);
  expect_identical(a, b);
  std::remove(path.c_str());
}

TEST(Checkpoint, MismatchedConfigurationIsRefused) {
  const test::ScratchDir scratch;
  const std::string path = scratch.file("ckpt_mismatch.json");
  std::remove(path.c_str());
  core::HadasConfig config = small_config();
  config.outer_generations = 1;
  config.checkpoint_path = path;
  core::HadasEngine writer(space(), hw::Target::kTx2PascalGpu, config);
  (void)writer.run();

  core::HadasConfig other = config;
  other.seed ^= 0xdead;
  core::HadasEngine reader(space(), hw::Target::kTx2PascalGpu, other);
  EXPECT_THROW((void)reader.run(), std::invalid_argument);

  // Growing the generation budget is NOT a mismatch (extend-and-finish).
  core::HadasConfig extended = config;
  extended.outer_generations = 2;
  core::HadasEngine extender(space(), hw::Target::kTx2PascalGpu, extended);
  const core::HadasResult result = extender.run();
  EXPECT_EQ(result.resumed_from_generation, 1u);
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptCheckpointFailsCleanly) {
  const test::ScratchDir scratch;
  const std::string path = scratch.file("ckpt_corrupt.json");
  {
    std::ofstream out(path);
    out << "{\"format\": \"hadas-checkpoint-v1\", \"next_gen";  // truncated
  }
  core::HadasConfig config = small_config();
  config.checkpoint_path = path;
  core::HadasEngine engine(space(), hw::Target::kTx2PascalGpu, config);
  EXPECT_THROW((void)engine.run(), std::exception);
  std::remove(path.c_str());
}

void remove_chain(const std::string& path, std::size_t keep) {
  const util::durable::CheckpointChain chain(path, keep);
  for (std::size_t i = 0; i < keep; ++i)
    std::remove(chain.slot_path(i).c_str());
}

TEST(Checkpoint, CorruptNewestSlotFallsBackDownTheChainWithAWarning) {
  const test::ScratchDir scratch;
  const std::string path = scratch.file("ckpt_chainfall.json");
  remove_chain(path, 3);

  // Reference: 3 generations straight through.
  core::HadasEngine reference(space(), hw::Target::kTx2PascalGpu,
                              small_config());
  const core::HadasResult uninterrupted = reference.run();

  // Checkpointed run leaves a 3-deep chain (generations 3, 2, 1).
  core::HadasConfig config = small_config();
  config.checkpoint_path = path;
  core::HadasEngine writer(space(), hw::Target::kTx2PascalGpu, config);
  (void)writer.run();

  // Flip one bit in the newest slot: resume must skip it (checksum), warn,
  // and restart from the generation-2 snapshot — still reproducing the
  // uninterrupted result bit for bit.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::size_t>(f.tellg());
    f.seekp(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    f.seekg(static_cast<std::streamoff>(size / 2));
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.write(&byte, 1);
  }

  std::vector<std::string> warnings;
  core::HadasConfig resume_config = small_config();
  resume_config.checkpoint_path = path;
  resume_config.checkpoint_warn = [&warnings](const std::string& w) {
    warnings.push_back(w);
  };
  core::HadasEngine resumed_engine(space(), hw::Target::kTx2PascalGpu,
                                   resume_config);
  const core::HadasResult resumed = resumed_engine.run();

  EXPECT_EQ(resumed.corrupt_checkpoints_skipped, 1u);
  EXPECT_EQ(resumed.resumed_from_file, path + ".1");
  EXPECT_EQ(resumed.resumed_from_generation, 2u);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("checksum"), std::string::npos) << warnings[0];
  expect_identical(uninterrupted, resumed);
  remove_chain(path, 3);
}

TEST(Checkpoint, FullyCorruptChainThrowsStructuredErrorNotAParseBacktrace) {
  const test::ScratchDir scratch;
  const std::string path = scratch.file("ckpt_allcorrupt.json");
  remove_chain(path, 3);
  core::HadasConfig config = small_config();
  config.outer_generations = 2;
  config.checkpoint_path = path;
  core::HadasEngine writer(space(), hw::Target::kTx2PascalGpu, config);
  (void)writer.run();

  // Destroy every slot on disk.
  const util::durable::CheckpointChain chain(path, 3);
  for (const std::string& slot : chain.existing()) {
    std::ofstream out(slot, std::ios::trunc);
    out << "}}} not a checkpoint at all";
  }

  core::HadasEngine reader(space(), hw::Target::kTx2PascalGpu, config);
  try {
    (void)reader.run();
    FAIL() << "fully corrupt chain not rejected";
  } catch (const util::durable::CheckpointCorruptError& e) {
    // Structured: names the newest slot and the failing stage.
    EXPECT_EQ(e.file(), path);
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
  remove_chain(path, 3);
}

TEST(Checkpoint, InvariantValidationRejectsSemanticallyBrokenCheckpoints) {
  core::SearchCheckpoint ck;
  ck.fingerprint = "fp";
  EXPECT_THROW(core::validate_checkpoint(ck),
               util::durable::CheckpointCorruptError);  // empty population

  ck.population = {{0, 1, 2}, {1, 2, 3}};
  EXPECT_NO_THROW(core::validate_checkpoint(ck));

  core::SearchCheckpoint ragged = ck;
  ragged.population.push_back({1, 2});
  EXPECT_THROW(core::validate_checkpoint(ragged),
               util::durable::CheckpointCorruptError);

  core::SearchCheckpoint anonymous = ck;
  anonymous.fingerprint.clear();
  EXPECT_THROW(core::validate_checkpoint(anonymous),
               util::durable::CheckpointCorruptError);

  core::SearchCheckpoint nan_rng = ck;
  nan_rng.rng.has_cached_normal = true;
  nan_rng.rng.cached_normal = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(core::validate_checkpoint(nan_rng),
               util::durable::CheckpointCorruptError);
}

}  // namespace
