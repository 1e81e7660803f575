#include "util/durable/document.hpp"

namespace hadas::util::durable {

CheckpointCorruptError current_as_corrupt(const std::string& file) {
  try {
    throw;
  } catch (const CheckpointCorruptError& e) {
    if (!e.file().empty() || file.empty()) return e;
    return CheckpointCorruptError(file, e.byte_offset(), e.stage(),
                                  e.detail());
  } catch (const std::exception& e) {
    return CheckpointCorruptError(file, 0, CorruptStage::kInvariant,
                                  e.what());
  }
}

}  // namespace hadas::util::durable
