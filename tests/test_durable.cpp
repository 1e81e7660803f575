// Crash-safe durable state layer: envelope round trips, every corruption
// stage (header / truncation / checksum) is detected with a structured
// error, rotating checkpoint chains fall back to the newest valid slot, and
// the deterministic chaos engine parses schedules and counts failpoint hits.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "exec/chaos.hpp"
#include "util/durable/checkpoint_chain.hpp"
#include "util/durable/durable_file.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "test_helpers.hpp"

namespace {

using namespace hadas;
using util::durable::CheckpointChain;
using util::durable::CheckpointCorruptError;
using util::durable::CorruptStage;
using util::durable::DurableFile;

constexpr const char* kTag = "hadas-test-v1";

std::string temp_path(const std::string& name) {
  static const test::ScratchDir scratch;
  const std::string path = scratch.file("durable_" + name);
  std::remove(path.c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Crc64, MatchesTheXzCheckVector) {
  // CRC-64/XZ of "123456789" is the standard check value.
  EXPECT_EQ(util::durable::crc64("123456789"), 0x995DC9BBDF1939FAULL);
  EXPECT_EQ(util::durable::crc64(""), 0ULL);
}

/// The textbook bit-at-a-time CRC-64/XZ, kept here only as the reference
/// the sliced implementation must reproduce.
std::uint64_t crc64_bytewise(std::string_view bytes) {
  std::uint64_t crc = ~0ULL;
  for (unsigned char c : bytes) {
    crc ^= c;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1) ? 0xC96C5795D7870F42ULL : 0);
  }
  return ~crc;
}

std::string random_bytes(util::Rng& rng, std::size_t n) {
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.uniform_index(256));
  return bytes;
}

TEST(Crc64, SlicedMatchesBytewiseReference) {
  util::Rng rng(0xC64);
  // Every length through several 8-byte words and every start alignment,
  // so each word/tail split and each unaligned load is covered.
  const std::string buffer = random_bytes(rng, 300 + 7);
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t length = 0; length <= 300; ++length) {
      const std::string_view bytes =
          std::string_view(buffer).substr(offset, length);
      ASSERT_EQ(util::durable::crc64(bytes), crc64_bytewise(bytes))
          << "offset " << offset << ", length " << length;
    }
  const std::string mib = random_bytes(rng, 1 << 20);
  EXPECT_EQ(util::durable::crc64(mib), crc64_bytewise(mib));
}

TEST(DurableFile, RoundTripsArbitraryPayloads) {
  const std::string path = temp_path("roundtrip");
  for (const std::string& payload :
       {std::string(""), std::string("{\"x\": 1}\n"),
        std::string("line1\nline2\n\n%HADAS-DURABLE v1 sneaky 3\n"),
        std::string("\x00\x01\xff\x7f binary", 11)}) {
    DurableFile::write(path, kTag, payload);
    EXPECT_EQ(DurableFile::read(path, kTag), payload);
    const auto info = DurableFile::inspect(path);
    EXPECT_TRUE(info.exists);
    EXPECT_FALSE(info.legacy);
    EXPECT_TRUE(info.valid());
    EXPECT_EQ(info.version, 1u);
    EXPECT_EQ(info.format_tag, kTag);
    EXPECT_EQ(info.declared_bytes, payload.size());
    EXPECT_EQ(info.crc_declared, info.crc_actual);
  }
  std::remove(path.c_str());
}

TEST(DurableFile, RejectsBadFormatTags) {
  const std::string path = temp_path("badtag");
  EXPECT_THROW(DurableFile::write(path, "", "x"), std::invalid_argument);
  EXPECT_THROW(DurableFile::write(path, "has space", "x"),
               std::invalid_argument);

  DurableFile::write(path, kTag, "payload");
  try {
    (void)DurableFile::read(path, "some-other-tag");
    FAIL() << "format-tag mismatch not detected";
  } catch (const CheckpointCorruptError& e) {
    EXPECT_EQ(e.stage(), CorruptStage::kHeader);
    EXPECT_EQ(e.file(), path);
  }
  std::remove(path.c_str());
}

TEST(DurableFile, DetectsLegacyFilesWithoutEnvelope) {
  const std::string path = temp_path("legacy");
  spit(path, "{\"plain\": \"json\"}\n");
  const auto info = DurableFile::inspect(path);
  EXPECT_TRUE(info.exists);
  EXPECT_TRUE(info.legacy);
  try {
    (void)DurableFile::read(path, kTag);
    FAIL() << "legacy file not rejected";
  } catch (const CheckpointCorruptError& e) {
    EXPECT_EQ(e.stage(), CorruptStage::kHeader);
    EXPECT_EQ(e.byte_offset(), 0u);
  }
  std::remove(path.c_str());
}

TEST(DurableFile, DetectsTruncation) {
  const std::string path = temp_path("truncated");
  DurableFile::write(path, kTag, "a payload that will lose its tail");
  const std::string bytes = slurp(path);
  // Cut mid-payload (simulating a torn write that survived a rename).
  spit(path, bytes.substr(0, bytes.size() / 2));
  try {
    (void)DurableFile::read(path, kTag);
    FAIL() << "truncation not detected";
  } catch (const CheckpointCorruptError& e) {
    EXPECT_EQ(e.stage(), CorruptStage::kTruncation);
    EXPECT_EQ(e.file(), path);
  }
  EXPECT_FALSE(DurableFile::inspect(path).valid());
  std::remove(path.c_str());
}

TEST(DurableFile, DetectsSingleBitFlips) {
  const std::string path = temp_path("bitflip");
  const std::string payload = "0123456789abcdef0123456789abcdef";
  DurableFile::write(path, kTag, payload);
  std::string bytes = slurp(path);
  const std::size_t payload_begin = bytes.find('\n') + 1;
  // Flip one bit in every payload byte position, one at a time.
  for (std::size_t i = 0; i < payload.size(); i += 7) {
    std::string corrupt = bytes;
    corrupt[payload_begin + i] = static_cast<char>(corrupt[payload_begin + i] ^ 0x10);
    spit(path, corrupt);
    try {
      (void)DurableFile::read(path, kTag);
      FAIL() << "bit flip at payload byte " << i << " not detected";
    } catch (const CheckpointCorruptError& e) {
      EXPECT_EQ(e.stage(), CorruptStage::kChecksum);
    }
    const auto info = DurableFile::inspect(path);
    EXPECT_FALSE(info.checksum_ok);
    EXPECT_NE(info.crc_declared, info.crc_actual);
  }
  std::remove(path.c_str());
}

TEST(DurableFile, CorruptErrorCarriesStructuredFields) {
  const CheckpointCorruptError e("/some/file", 42, CorruptStage::kChecksum,
                                 "bad crc");
  EXPECT_EQ(e.file(), "/some/file");
  EXPECT_EQ(e.byte_offset(), 42u);
  EXPECT_EQ(e.stage(), CorruptStage::kChecksum);
  EXPECT_EQ(e.detail(), "bad crc");
  const std::string what = e.what();
  EXPECT_NE(what.find("/some/file"), std::string::npos);
  EXPECT_NE(what.find("42"), std::string::npos);
  EXPECT_NE(what.find("checksum"), std::string::npos);
  EXPECT_NE(what.find("bad crc"), std::string::npos);
}

TEST(CheckpointChain, RotatesAndKeepsTheLastK) {
  const std::string base = temp_path("chain");
  const CheckpointChain chain(base, 3);
  for (int i = 0; i < 5; ++i)
    chain.save(kTag, "snapshot " + std::to_string(i));

  const auto existing = chain.existing();
  ASSERT_EQ(existing.size(), 3u);
  EXPECT_EQ(existing[0], base);
  EXPECT_EQ(existing[1], base + ".1");
  EXPECT_EQ(existing[2], base + ".2");
  EXPECT_EQ(DurableFile::read(existing[0], kTag), "snapshot 4");
  EXPECT_EQ(DurableFile::read(existing[1], kTag), "snapshot 3");
  EXPECT_EQ(DurableFile::read(existing[2], kTag), "snapshot 2");

  const auto loaded = chain.load_newest_valid(kTag);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "snapshot 4");
  EXPECT_EQ(loaded->file, base);
  EXPECT_EQ(loaded->skipped, 0u);
  for (const auto& f : existing) std::remove(f.c_str());
}

TEST(CheckpointChain, EmptyChainLoadsNothing) {
  const CheckpointChain chain(temp_path("chain_empty"), 3);
  EXPECT_FALSE(chain.load_newest_valid(kTag).has_value());
}

TEST(CheckpointChain, FallsBackPastCorruptSlotsWithWarnings) {
  const std::string base = temp_path("chain_fallback");
  const CheckpointChain chain(base, 3);
  for (int i = 0; i < 3; ++i)
    chain.save(kTag, "snapshot " + std::to_string(i));

  // Corrupt the newest slot on disk (checksum) and garble the second
  // (no envelope — passed through to the validator as a legacy payload,
  // which rejects it); the chain must fall back to the oldest, warning
  // twice.
  std::string bytes = slurp(base);
  bytes[bytes.find('\n') + 3] ^= 0x04;
  spit(base, bytes);
  spit(base + ".1", "complete garbage, not even an envelope {{{");

  std::vector<std::string> warnings;
  const auto loaded = chain.load_newest_valid(
      kTag,
      [](const std::string& payload) {
        if (payload.rfind("snapshot", 0) != 0)
          throw CheckpointCorruptError("", 0, CorruptStage::kParse,
                                       "not a snapshot payload");
      },
      [&warnings](const std::string& w) { warnings.push_back(w); });
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "snapshot 0");
  EXPECT_EQ(loaded->file, base + ".2");
  EXPECT_EQ(loaded->skipped, 2u);
  EXPECT_EQ(warnings.size(), 2u);
  for (std::size_t i = 0; i < 3; ++i) std::remove(chain.slot_path(i).c_str());
}

TEST(CheckpointChain, ValidatorRejectionFallsBackToo) {
  const std::string base = temp_path("chain_validator");
  const CheckpointChain chain(base, 2);
  chain.save(kTag, "good");
  chain.save(kTag, "poison");

  const auto loaded = chain.load_newest_valid(
      kTag, [](const std::string& payload) {
        if (payload == "poison")
          throw CheckpointCorruptError("", 0, CorruptStage::kInvariant,
                                       "poisoned payload");
      });
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "good");
  EXPECT_EQ(loaded->skipped, 1u);
  for (std::size_t i = 0; i < 2; ++i) std::remove(chain.slot_path(i).c_str());
}

TEST(CheckpointChain, FullyCorruptChainThrowsStructuredError) {
  const std::string base = temp_path("chain_dead");
  const CheckpointChain chain(base, 2);
  chain.save(kTag, "a");
  chain.save(kTag, "b");
  spit(base, "junk");
  spit(base + ".1", "more junk");
  // Envelope-less slots reach the validator as legacy payloads; when the
  // validator rejects every slot, the chain reports the newest slot's
  // structured error instead of silently returning garbage.
  const auto validate = [](const std::string& payload) {
    if (payload.find("junk") != std::string::npos)
      throw CheckpointCorruptError("", 0, CorruptStage::kParse, "junk");
  };
  EXPECT_THROW((void)chain.load_newest_valid(kTag, validate),
               CheckpointCorruptError);
  for (std::size_t i = 0; i < 2; ++i) std::remove(chain.slot_path(i).c_str());
}

TEST(Chaos, ParsesSchedulesAndRejectsUnknownSitesAndActions) {
  const auto config = exec::parse_chaos_spec(
      "crash:engine.checkpoint.begin:1;"
      "bitflip:durable.save.postrename:2:13;"
      "tear:durable.save.postrename:*:0.5;"
      "delay:serve.request;"
      "seed:99");
  ASSERT_EQ(config.rules.size(), 4u);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_EQ(config.rules[0].action, exec::ChaosAction::kCrash);
  EXPECT_EQ(config.rules[0].site, "engine.checkpoint.begin");
  EXPECT_EQ(config.rules[0].hit, 1u);
  EXPECT_EQ(config.rules[1].action, exec::ChaosAction::kBitFlip);
  EXPECT_DOUBLE_EQ(config.rules[1].param, 13.0);
  EXPECT_EQ(config.rules[2].hit, 0u);  // '*' = every hit
  EXPECT_EQ(config.rules[3].action, exec::ChaosAction::kDelay);

  EXPECT_THROW((void)exec::parse_chaos_spec("crash:not.a.site:1"),
               std::invalid_argument);
  EXPECT_THROW((void)exec::parse_chaos_spec("explode:serve.request:1"),
               std::invalid_argument);
  EXPECT_THROW((void)exec::parse_chaos_spec("crash"), std::invalid_argument);
}

TEST(Chaos, SiteInventoryCoversTheDurableAndEngineLayers) {
  const auto& sites = exec::chaos_sites();
  EXPECT_GE(sites.size(), 10u);
  for (const char* site :
       {"durable.save.begin", "durable.save.tmp", "durable.save.prerename",
        "durable.save.postrename", "engine.generation.end",
        "engine.checkpoint.begin", "engine.checkpoint.end", "engine.resume",
        "serve.request", "serve.journal.begin", "serve.journal.end"})
    EXPECT_TRUE(exec::is_chaos_site(site)) << site;
  EXPECT_FALSE(exec::is_chaos_site("made.up.site"));
}

TEST(Chaos, DelayRulesCountHitsAndResetDisarms) {
  auto& engine = exec::ChaosEngine::instance();
  exec::ChaosConfig config;
  config.rules.push_back(
      {exec::ChaosAction::kDelay, "serve.request", 0, -1.0});
  engine.configure(config);
  EXPECT_TRUE(engine.active());
  util::failpoint("serve.request");
  util::failpoint("serve.request");
  util::failpoint("engine.resume");  // other sites still count hits
  EXPECT_EQ(engine.hits("serve.request"), 2u);
  EXPECT_EQ(engine.hits("engine.resume"), 1u);
  EXPECT_EQ(engine.total_hits(), 3u);
  engine.reset();
  EXPECT_FALSE(engine.active());
  EXPECT_EQ(engine.total_hits(), 0u);
  util::failpoint("serve.request");  // disarmed: not even counted
  EXPECT_EQ(engine.total_hits(), 0u);
}

TEST(DurableFile, WriteIdempotentSkipsIdenticalReplaysOnly) {
  const std::string path = temp_path("idempotent");
  const std::string payload = "migrant set payload";

  // First delivery writes; a byte-identical replay leaves the file alone.
  EXPECT_TRUE(DurableFile::write_idempotent(path, kTag, payload));
  const std::string first = slurp(path);
  EXPECT_FALSE(DurableFile::write_idempotent(path, kTag, payload));
  EXPECT_EQ(slurp(path), first);

  // A divergent payload is a real write, not a skip.
  EXPECT_TRUE(DurableFile::write_idempotent(path, kTag, "other payload"));
  EXPECT_EQ(DurableFile::read(path, kTag), "other payload");

  // Same payload under a different tag is divergent too.
  EXPECT_TRUE(DurableFile::write_idempotent(path, "hadas-test-v2",
                                            "other payload"));

  // A torn/corrupt file is atomically replaced instead of trusted.
  spit(path, "%HADAS-DURABLE v1 " + std::string(kTag) + " 5\ntorn");
  EXPECT_TRUE(DurableFile::write_idempotent(path, kTag, payload));
  EXPECT_EQ(DurableFile::read(path, kTag), payload);
  std::remove(path.c_str());
}

TEST(Chaos, BitFlipCorruptionIsDeterministicInTheSeed) {
  auto& engine = exec::ChaosEngine::instance();
  const std::string path = temp_path("chaos_flip");
  const std::string payload = "a payload the chaos engine will damage";

  auto flipped_bytes = [&](std::uint64_t seed) {
    exec::ChaosConfig config;
    config.seed = seed;
    config.rules.push_back(
        {exec::ChaosAction::kBitFlip, "durable.save.postrename", 1, -1.0});
    engine.configure(config);
    DurableFile::write(path, kTag, payload);
    engine.reset();
    return slurp(path);
  };

  const std::string a = flipped_bytes(7);
  const std::string b = flipped_bytes(7);
  const std::string c = flipped_bytes(8);
  EXPECT_EQ(a, b);  // same seed, same flipped bit
  EXPECT_NE(a, c);  // different seed, different corruption
  // And the corruption is real: the file no longer validates.
  spit(path, a);
  EXPECT_FALSE(DurableFile::inspect(path).valid());
  std::remove(path.c_str());
}

}  // namespace
