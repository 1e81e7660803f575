#pragma once

// Byte-exact comparison of a file a test wrote with a committed fixture in
// tests/golden/durable/ (HADAS_DURABLE_FIXTURES).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace hadas::test {

inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Compares `actual` with tests/golden/durable/<name>. On a mismatch the
/// actual bytes are left in <name>.actual in the working directory: after
/// an intended format change, check them and copy them over the fixture.
inline void expect_golden_bytes(const std::string& name,
                                const std::string& actual) {
  const std::string expected =
      slurp(std::string(HADAS_DURABLE_FIXTURES) + "/" + name);
  EXPECT_FALSE(expected.empty()) << "missing fixture " << name;
  if (actual == expected) return;
  std::ofstream(name + ".actual", std::ios::binary) << actual;
  ADD_FAILURE() << name << " differs from its fixture; the bytes written are "
                << "in " << std::filesystem::absolute(name + ".actual");
}

}  // namespace hadas::test
