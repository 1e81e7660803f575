#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "util/durable/durable_file.hpp"

namespace hadas::util::durable {

/// Rotating chain of the last K durable snapshots of one logical state:
/// `<base>` is the newest, `<base>.1` the one before, ... `<base>.<K-1>` the
/// oldest retained. save() rotates the existing entries one slot down, then
/// durably writes the new newest — so a crash at any point leaves at least
/// one fully valid snapshot on disk, and a snapshot corrupted *after* the
/// fact (torn write on a non-atomic filesystem, bit rot) is survivable:
/// load_newest_valid() walks newest -> oldest and returns the first entry
/// that passes envelope validation plus the caller's payload validator,
/// reporting every skipped entry through `warn`.
class CheckpointChain {
 public:
  /// `keep` >= 1 snapshots are retained.
  CheckpointChain(std::string base_path, std::size_t keep = 3);

  const std::string& base_path() const { return base_; }
  std::size_t keep() const { return keep_; }

  /// Path of chain slot `index` (0 = newest = base path).
  std::string slot_path(std::size_t index) const;

  /// Chain slots that currently exist on disk, newest first.
  std::vector<std::string> existing() const;

  /// Rotate and durably write a new newest snapshot.
  void save(const std::string& format_tag, const std::string& payload) const;

  struct Loaded {
    std::string payload;
    std::string file;         ///< which slot the payload came from
    std::size_t skipped = 0;  ///< newer entries that failed validation
  };

  /// The newest entry whose envelope is valid and whose payload `validate`
  /// accepts (validate may be empty; it signals rejection by throwing).
  /// Returns nullopt when no slot exists at all; throws the *newest* slot's
  /// CheckpointCorruptError when every existing slot is invalid. A slot
  /// with no durable envelope is passed to `validate` raw (legacy
  /// pre-durable snapshots, DurableFile::read_or_legacy); an exception
  /// from `validate` is a corruption by util::durable's document rule.
  std::optional<Loaded> load_newest_valid(
      const std::string& format_tag,
      const std::function<void(const std::string& payload)>& validate = {},
      const std::function<void(const std::string& warning)>& warn = {}) const;

 private:
  std::string base_;
  std::size_t keep_;
};

}  // namespace hadas::util::durable
