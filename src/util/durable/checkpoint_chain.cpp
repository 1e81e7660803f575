#include "util/durable/checkpoint_chain.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/durable/document.hpp"
#include "util/failpoint.hpp"

namespace hadas::util::durable {

namespace {
bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}
}  // namespace

CheckpointChain::CheckpointChain(std::string base_path, std::size_t keep)
    : base_(std::move(base_path)), keep_(keep) {
  if (base_.empty())
    throw std::invalid_argument("CheckpointChain: empty base path");
  if (keep_ == 0)
    throw std::invalid_argument("CheckpointChain: keep must be >= 1");
}

std::string CheckpointChain::slot_path(std::size_t index) const {
  return index == 0 ? base_ : base_ + "." + std::to_string(index);
}

std::vector<std::string> CheckpointChain::existing() const {
  std::vector<std::string> files;
  for (std::size_t k = 0; k < keep_; ++k)
    if (file_exists(slot_path(k))) files.push_back(slot_path(k));
  return files;
}

void CheckpointChain::save(const std::string& format_tag,
                           const std::string& payload) const {
  // Rotate oldest-first so every rename's target slot is free. A crash
  // between any two renames leaves the previous snapshot findable (under
  // its old or new name); the fallback walk below tolerates gaps.
  if (keep_ > 1) {
    std::remove(slot_path(keep_ - 1).c_str());
    for (std::size_t k = keep_ - 1; k-- > 0;) {
      if (!file_exists(slot_path(k))) continue;
      failpoint("durable.rotate");
      if (std::rename(slot_path(k).c_str(), slot_path(k + 1).c_str()) != 0)
        throw std::runtime_error("CheckpointChain: cannot rotate " +
                                 slot_path(k) + " to " + slot_path(k + 1));
    }
  }
  DurableFile::write(base_, format_tag, payload);
  count_durable(&DurableStats::chain_saves);
}

std::optional<CheckpointChain::Loaded> CheckpointChain::load_newest_valid(
    const std::string& format_tag,
    const std::function<void(const std::string& payload)>& validate,
    const std::function<void(const std::string& warning)>& warn) const {
  std::optional<CheckpointCorruptError> first_error;
  std::size_t skipped = 0;
  bool any_exists = false;
  for (std::size_t k = 0; k < keep_; ++k) {
    const std::string path = slot_path(k);
    if (!file_exists(path)) continue;  // a gap, not corruption
    any_exists = true;
    try {
      std::string payload = DurableFile::read_or_legacy(path, format_tag);
      if (validate) validate(payload);
      count_durable(&DurableStats::chain_fallbacks, skipped);
      return Loaded{std::move(payload), path, skipped};
    } catch (const std::exception&) {
      // A validator does not know the file name and may throw raw errors:
      // normalize both so the all-corrupt case is still structured.
      const CheckpointCorruptError err = current_as_corrupt(path);
      if (!first_error) first_error = err;
      ++skipped;
      if (warn)
        warn("skipping corrupt checkpoint " + path + ": " + err.what());
    }
  }
  if (!any_exists) return std::nullopt;
  // Every existing slot failed validation: surface the newest one's error.
  throw CheckpointCorruptError(first_error->file(), first_error->byte_offset(),
                               first_error->stage(),
                               std::string(first_error->what()) +
                                   " (no older valid checkpoint in the "
                                   "chain either)");
}

}  // namespace hadas::util::durable
