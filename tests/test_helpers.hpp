#pragma once

// Shared reduced-size configurations so the test suite stays fast while
// still exercising the real training / search code paths, and a private
// scratch directory per test.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>

#include "core/hadas_engine.hpp"
#include "data/synthetic_task.hpp"
#include "dynn/exit_bank.hpp"

namespace hadas::test {

/// Small synthetic task: enough samples for stable-ish accuracies, ~10x
/// faster than the defaults.
inline data::DataConfig small_data() {
  data::DataConfig config;
  config.train_size = 700;
  config.val_size = 400;
  config.test_size = 400;
  config.seed = 1234;
  return config;
}

/// Matching exit-bank training config (fewer epochs).
inline dynn::ExitBankConfig small_bank() {
  dynn::ExitBankConfig config;
  config.train.epochs = 5;
  return config;
}

/// Tiny bi-level engine budgets for integration tests.
inline core::HadasConfig tiny_engine_config() {
  core::HadasConfig config;
  config.outer_population = 8;
  config.outer_generations = 3;
  config.ioe_backbones_per_generation = 1;
  config.ioe.nsga.population = 12;
  config.ioe.nsga.generations = 6;
  config.data = small_data();
  config.bank = small_bank();
  config.seed = 77;
  return config;
}

/// "Suite.Name" of the running gtest case with '/' made '_', or "no_test"
/// outside one.
inline std::string current_test_name() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info == nullptr ? "no_test"
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  for (char& c : name)
    if (c == '/') c = '_';
  return name;
}

/// A fresh directory of this test's own under temp_directory_path(), named
/// from `label` (the running test by default), the pid and a per-process
/// count, and removed with its contents at scope exit. ctest runs tests in
/// parallel processes, so fixed paths would let one test delete another's
/// files.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& label = current_test_name()) {
    static std::atomic<unsigned> count{0};
    path_ = std::filesystem::temp_directory_path() /
            ("hadas-" + label + "-" + std::to_string(::getpid()) + "-" +
             std::to_string(count++));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    // A forked child that runs destructors must not delete its parent's files.
    if (::getpid() != owner_) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// Path of `name` inside the directory.
  std::string file(const std::string& name) const { return (path_ / name).string(); }

 private:
  std::filesystem::path path_;
  pid_t owner_ = ::getpid();
};

}  // namespace hadas::test
