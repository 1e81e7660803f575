#pragma once

#include <string>

#include "util/durable/durable_file.hpp"
#include "util/json.hpp"

namespace hadas::util::durable {

/// The exception in flight (call inside a catch block) as a corruption of
/// `file`: a CheckpointCorruptError keeps its stage and offset and gets
/// `file` when it names none; any other std::exception becomes kInvariant
/// at byte 0. An exception of another type is rethrown unchanged.
CheckpointCorruptError current_as_corrupt(const std::string& file);

/// `decode(Json::parse(payload))` under the one rule every durable format
/// follows: a payload that is not JSON is a kParse corruption, and a
/// document `decode` rejects, by any exception, a kInvariant one (a
/// CheckpointCorruptError it throws keeps its stage). Chain validators pass
/// an empty `file`; CheckpointChain fills in the slot.
template <typename Decode>
auto decode_payload(const std::string& payload, const Decode& decode,
                    const std::string& file = "") {
  Json json;
  try {
    json = Json::parse(payload);
  } catch (const std::exception& e) {
    throw CheckpointCorruptError(file, 0, CorruptStage::kParse, e.what());
  }
  try {
    return decode(json);
  } catch (...) {
    throw current_as_corrupt(file);
  }
}

/// Read the `tag` envelope at `path` and decode its payload. Every failure
/// is a CheckpointCorruptError naming `path`.
template <typename Decode>
auto load_document(const std::string& path, const std::string& tag,
                   const Decode& decode) {
  return decode_payload(DurableFile::read(path, tag), decode, path);
}

}  // namespace hadas::util::durable
