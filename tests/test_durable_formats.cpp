// The durable-format table behind `hadas verify-checkpoint`: every format
// triages a non-JSON payload as `parse` and a JSON document its decoder
// rejects as `invariant`, and a seeded mutation fuzz over one real file of
// each format (tests/golden/durable/) shows that every loader either loads
// or throws CheckpointCorruptError: no other exception and no crash.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "durable_formats.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace {

using namespace hadas;
using tools::DurableFormat;
using util::durable::CheckpointCorruptError;
using util::durable::CorruptStage;
using util::durable::DurableFile;

std::string fixture(const DurableFormat& format) {
  return std::string(HADAS_DURABLE_FIXTURES) + "/" + format.tag + ".json";
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

/// The stage `format` reports for the file at `path`; nullopt when it loads.
std::optional<CorruptStage> triage(const DurableFormat& format,
                                   const std::string& path) {
  try {
    (void)format.rows(path);
    return std::nullopt;
  } catch (const CheckpointCorruptError& e) {
    EXPECT_EQ(e.file(), path) << format.tag;
    return e.stage();
  }
}

TEST(DurableFormats, EveryFixtureLoadsThroughItsOwnEntry) {
  ASSERT_EQ(tools::durable_formats().size(), 8u);
  for (const DurableFormat& format : tools::durable_formats()) {
    const auto info = DurableFile::inspect(fixture(format));
    ASSERT_TRUE(info.valid()) << format.tag;
    EXPECT_EQ(tools::find_durable_format(info), &format);
    EXPECT_FALSE(format.rows(fixture(format)).empty()) << format.tag;
  }
  util::durable::FileInfo legacy;
  legacy.legacy = true;
  EXPECT_STREQ(tools::find_durable_format(legacy)->tag,
               core::kCheckpointFormatTag);
  util::durable::FileInfo unknown;
  unknown.format_tag = "hadas-unknown-v1";
  EXPECT_EQ(tools::find_durable_format(unknown), nullptr);
}

TEST(DurableFormats, NonJsonIsParseAndWrongJsonIsInvariant) {
  const test::ScratchDir scratch;
  for (const DurableFormat& format : tools::durable_formats()) {
    const std::string path = scratch.file(format.tag);
    DurableFile::write(path, format.tag, "not json {");
    EXPECT_EQ(triage(format, path), CorruptStage::kParse) << format.tag;
    DurableFile::write(path, format.tag, "{}");
    EXPECT_EQ(triage(format, path), CorruptStage::kInvariant) << format.tag;
    DurableFile::write(path, format.tag, "[1, 2]");
    EXPECT_EQ(triage(format, path), CorruptStage::kInvariant) << format.tag;
  }
}

/// One seeded mutation of `bytes`: a few bit flips, a truncation, a splice
/// of a slice of `donor` over a random range, or (for JSON) one scalar value
/// replaced by a hostile token, which gets past the parser to the decoder.
std::string mutate(std::string bytes, const std::string& donor,
                   util::Rng& rng) {
  static const char* const kTokens[] = {
      "-1", "0", "1e308", "-1e308", "4.5", "18446744073709551616", "null",
      "true", "\"\"", "\"zz\"", "\"ffffffffffffffffffff\"", "[]", "{}",
      "[[0]]", "{\"a\": 1}"};
  switch (rng.uniform_index(4)) {
    case 0: {
      if (bytes.empty()) return bytes;
      for (std::size_t i = 0, n = 1 + rng.uniform_index(4); i < n; ++i)
        bytes[rng.uniform_index(bytes.size())] ^=
            static_cast<char>(1u << rng.uniform_index(8));
      return bytes;
    }
    case 1:
      return bytes.substr(0, rng.uniform_index(bytes.size() + 1));
    case 2: {
      const std::size_t at = rng.uniform_index(bytes.size() + 1);
      const std::size_t cut = rng.uniform_index(bytes.size() - at + 1);
      const std::size_t from = rng.uniform_index(donor.size() + 1);
      const std::size_t len = rng.uniform_index(donor.size() - from + 1);
      return bytes.substr(0, at) + donor.substr(from, len) +
             bytes.substr(at + cut);
    }
    default: {
      // The value after a random "key": up to the next ',' or newline.
      std::vector<std::size_t> values;
      for (std::size_t at = bytes.find("\": "); at != std::string::npos;
           at = bytes.find("\": ", at + 1))
        values.push_back(at + 3);
      if (values.empty()) return bytes;
      const std::size_t at = values[rng.uniform_index(values.size())];
      const std::size_t end = bytes.find_first_of(",\n", at);
      const std::string token =
          kTokens[rng.uniform_index(sizeof(kTokens) / sizeof(kTokens[0]))];
      return bytes.substr(0, at) + token +
             (end == std::string::npos ? "" : bytes.substr(end));
    }
  }
}

TEST(DurableFormats, MutatedFilesLoadOrThrowCheckpointCorruptError) {
  constexpr std::size_t kPayloadMutations = 80;
  constexpr std::size_t kEnvelopeMutations = 60;
  const test::ScratchDir scratch;
  util::Rng rng(0xD0C5EEDULL);
  std::map<std::string, std::string> payloads;
  for (const DurableFormat& format : tools::durable_formats())
    payloads[format.tag] = DurableFile::read(fixture(format), format.tag);

  for (const DurableFormat& format : tools::durable_formats()) {
    const std::string path = scratch.file(format.tag);
    const std::string original = slurp(fixture(format));
    std::map<std::string, std::size_t> outcomes;
    const auto attempt = [&](const std::string& what) {
      try {
        (void)format.rows(path);
        ++outcomes["loaded"];
      } catch (const CheckpointCorruptError& e) {
        ++outcomes[util::durable::corrupt_stage_name(e.stage())];
      } catch (const std::exception& e) {
        ADD_FAILURE() << format.tag << ": " << what << " threw "
                      << e.what();
      }
    };
    for (std::size_t i = 0; i < kPayloadMutations; ++i) {
      const std::string& donor =
          std::next(payloads.begin(), static_cast<std::ptrdiff_t>(
                                          rng.uniform_index(payloads.size())))
              ->second;
      // A fresh CRC: the decoders, not the checksum, must see the damage.
      DurableFile::write(path, format.tag,
                         mutate(payloads[format.tag], donor, rng));
      attempt("payload mutation " + std::to_string(i));
    }
    for (std::size_t i = 0; i < kEnvelopeMutations; ++i) {
      spit(path, mutate(original, original, rng));
      attempt("envelope mutation " + std::to_string(i));
    }
    // The fuzz reached the decoder, not only the parser and the envelope.
    EXPECT_GT(outcomes["invariant"], 0u) << format.tag;
    EXPECT_GT(outcomes["parse"], 0u) << format.tag;
  }
}

}  // namespace
